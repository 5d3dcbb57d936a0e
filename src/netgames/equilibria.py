"""Bayes-Nash verification, potential-minimizing equilibria, best-response
dynamics, and exact price-of-stability / information-gap ratios with a
link-by-link certificate of the potential-method inequality chain.

The potential minimizer s*, the cost minimizer s~ and the candidates for
the cheapest BNE come from one bounded depth-first search over the pure
strategy space (`_sweep`), in integers, with each profile's partial
expected cost as the bound.  Its state is one integer code per element's
use column, priced from one use-count law per distinct sorted non-zero
column, and a candidate becomes a profile only when the best-BNE search
reads it.  `strategy_cap` bounds the product of the menu sizes and is
checked before any search or E[OPT].  `all_strategy_profiles` and
`enumerate_pure_bne` enumerate every profile; they are module-level test
oracles, not package exports.  `verify_bne` and the dynamics price
deviations from one `games.interim_weights` table per player, and the
dynamics' trace follows the exact potential identity."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import (
    NoConvergenceError,
    PreconditionError,
    StrategySpaceTooLargeError,
    ZeroOptimumError,
)
from .games import (
    GameInstance,
    Action,
    _column_sum,
    column_terms,
    expected_opt,
    harmonic,
    interim_weights,
    use_probabilities,
    use_row,
)


@dataclass(frozen=True)
class EquilibriumReport:
    profile: tuple
    is_bne: bool
    worst_violation: Optional[tuple]  # (player, type, deviation Action, gap)


@dataclass(frozen=True)
class CertificateLink:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class CertificateReport:
    links: tuple[CertificateLink, ...]
    values: dict

    @property
    def all_hold(self) -> bool:
        return all(link.holds for link in self.links)


def strategy_space_size(inst: GameInstance) -> int:
    return math.prod(len(acts) for entries in inst.menus for _, acts in entries)


def _check_strategy_space(inst: GameInstance):
    size = strategy_space_size(inst)
    if size > inst.strategy_cap:
        raise StrategySpaceTooLargeError(
            f"strategy space {size} exceeds cap {inst.strategy_cap}"
        )


def all_strategy_profiles(inst: GameInstance):
    """All pure Bayesian strategy profiles in canonical order: the product
    of the players' strategies, each the product of its per-type menus."""
    _check_strategy_space(inst)
    spaces = [
        [dict(zip([t for t, _ in entries], combo))
         for combo in itertools.product(*[acts for _, acts in entries])]
        for entries in inst.menus
    ]
    for combo in itertools.product(*spaces):
        yield tuple(combo)


def interim_cost(inst: GameInstance, s: tuple, i: int, t, action: Action) -> Fraction:
    """Player i's expected cost at type t playing `action`, with opponents
    following s on their realized types.  Types are independent, so t
    matters only through `action`: the sum of its elements'
    `games.interim_weights`."""
    sc = inst._scale
    tot = sum(interim_weights(inst, use_probabilities(inst, s), i, action.elements).values())
    return Fraction(tot, sc.C * sc.L * sc.D_pow[inst.n - 1])


def _deviation_weights(inst: GameInstance, q: list[dict], i: int) -> dict:
    """Player i's `interim_weights` over the elements of its menus and of
    the actions it plays (q[i]'s keys), which no menu need list."""
    menus = (a.elements for _, menu in inst.menus[i] for a in menu)
    return interim_weights(inst, q, i, set(q[i]).union(*menus))


def verify_bne(inst: GameInstance, s: tuple) -> EquilibriumReport:
    """Check the interim best-response inequality for every player, support
    type, and feasible deviation, exactly: integer sums of one
    `_deviation_weights` table per player, and a `Fraction` for the worst gap."""
    q = use_probabilities(inst, s)
    worst = None
    for i, entries in enumerate(inst.menus):
        w = _deviation_weights(inst, q, i)
        for t, menu in entries:
            current = sum(map(w.__getitem__, s[i][t].elements))
            for alt in menu:
                gap = current - sum(map(w.__getitem__, alt.elements))
                if gap > 0 and (worst is None or gap > worst[3]):
                    worst = (i, t, alt, gap)
    if worst is not None:
        sc = inst._scale
        worst = (*worst[:3], Fraction(worst[3], sc.C * sc.L * sc.D_pow[inst.n - 1]))
    return EquilibriumReport(profile=s, is_bne=worst is None, worst_violation=worst)


class _Row(NamedTuple):
    cost: Fraction
    potential: Fraction
    profile: tuple


class _Sweep(NamedTuple):
    min_potential: _Row  # s*, the first potential minimizer
    min_cost: _Row  # the first cost minimizer
    leaves: list  # (cost, potential, digits) that may be the cheapest BNE, by cost, then canonically
    row: Callable  # leaf -> _Row

    def candidates(self):
        """The candidates' rows in order, each built when it is read."""
        return map(self.row, self.leaves)


def _sweep(inst: GameInstance) -> _Sweep:
    """s*, s~ and the cheapest-BNE candidates by one depth-first search over
    the (player, type) slots in canonical order, last slot fastest.  The
    state is integer and changes one slot at a time: the running numerators
    of expected cost (over C*D^n) and potential (over C*L*D^n), and each
    touched element's column code, sum of q_i(e) * (D+1)^i over every player
    i (each entry is at most D), so a slot option is a tuple of (element
    index, code increment).  An element's terms are c_e times
    `games.column_terms` of its column, the code decoded; one memo from code
    to those terms serves every element, and each distinct sorted non-zero
    column is priced once per call.
    An option is priced from its parent's state before anything is copied,
    so an option the bound prunes copies nothing.

    s* is a BNE and C(s*) <= Phi(s*), so the cheapest BNE costs at most the
    running minimum potential; only profiles within it are candidates.  A
    slot is never empty and both terms grow with every q_j(e), so a partial
    profile bounds its completions from below.  Once its cost exceeds the
    running minimum potential, no completion is a candidate, a potential
    minimizer (Phi >= C) or a cost minimizer (C(s~) <= C(s*) <= Phi(s*)),
    and the subtree is skipped.  So every cost minimizer is kept as a leaf,
    and s~ is the first leaf by (cost, canonical order).  Slots with one
    action are folded into the start state.  The candidates stay integer
    leaves; a leaf becomes a `_Row` (profile and `Fraction`s) only when
    `candidates` reaches it."""
    _check_strategy_space(inst)
    sc = inst._scale
    n, L, base = inst.n, sc.L, sc.D + 1
    fixed: dict = defaultdict(int)  # element -> code of the single-action slots' entries
    slots = []  # (code step, element sets of the actions)
    for i, entries in enumerate(inst.menus):
        for (_, menu), w in zip(entries, sc.weights[i]):
            if len(menu) == 1:
                for e in menu[0].elements:
                    fixed[e] += w * base**i
            else:
                slots.append((w * base**i, [a.elements for a in menu]))
    elements = sorted(fixed.keys() | {e for _, options in slots for a in options for e in a})
    index = {e: x for x, e in enumerate(elements)}
    costs = [sc.costs[e] for e in elements]
    laws: dict = {}  # sorted non-zero column -> column_terms
    memo: dict = {}  # column code -> column_terms

    def price(code):
        entries, rest = [], code
        while rest:
            if a := rest % base:
                entries.append(a)
            rest //= base
        key = tuple(sorted(entries))
        law = laws.get(key) or laws.setdefault(key, column_terms(inst, key))
        return memo.setdefault(code, law)

    code = [fixed[e] for e in elements]
    term = [price(c) for c in code]  # per element: its current column_terms
    slots = [[tuple([(x, step, costs[x]) for x in map(index.get, a)]) for a in options]
             for step, options in slots]  # (element, code step, cost)

    cost, pot = (sum(c * t[k] for c, t in zip(costs, term)) for k in (0, 1))
    # With no multi-action slot, the start state is the one leaf.
    leaves = [] if slots else [(cost, pot, ())]
    s_star = leaves[0] if leaves else None  # (cost, potential, digits)
    depth = len(slots) - 1  # the last slot's index
    digits = [-1] * len(slots)  # action index per slot
    states = [(cost, pot, code, term)] + [None] * depth  # before each slot is played
    k = 0 if slots else -1
    while k >= 0:
        j = digits[k] = digits[k] + 1
        if j == len(slots[k]):
            digits[k] = -1
            k -= 1
            continue
        cost, pot, code, term = states[k]
        for x, step, ce in (option := slots[k][j]):  # from the parent's state
            c = code[x] + step
            new = memo.get(c) or price(c)
            old = term[x]
            cost += ce * (new[0] - old[0])
            pot += ce * (new[1] - old[1])
        # Skip an option once cost * L exceeds the least potential so far:
        # then so does its potential (Phi >= C), at a leaf and below it.
        if s_star is not None and cost * L > s_star[1]:
            continue
        if k < depth:  # descend: copy the state and apply the priced option
            code, term = code.copy(), term.copy()
            for x, step, _ in option:
                c = code[x] = code[x] + step
                term[x] = memo[c]
            states[k + 1] = (cost, pot, code, term)
            k += 1
        else:
            leaf = (cost, pot, tuple(digits))
            if s_star is None or pot < s_star[1]:
                s_star = leaf
            leaves.append(leaf)

    cost_den, pot_den = sc.C * sc.D_pow[n], sc.C * L * sc.D_pow[n]

    def row(leaf):
        cost, pot, picks = leaf
        it = iter(picks)
        profile = tuple(
            {t: menu[next(it)] if len(menu) > 1 else menu[0] for t, menu in entries}
            for entries in inst.menus
        )
        return _Row(Fraction(cost, cost_den), Fraction(pot, pot_den), profile)

    leaves.sort(key=lambda leaf: (leaf[0], leaf[2]))  # digits sort in canonical order
    return _Sweep(row(s_star), row(leaves[0]), leaves, row)


def _best_bne_cost(inst: GameInstance, sweep: _Sweep) -> Fraction:
    """Cost of the first BNE by cost, then canonical order; s* ends the search."""
    return next(r.cost for r in sweep.candidates() if verify_bne(inst, r.profile).is_bne)


def _nonzero_opt(inst: GameInstance) -> Fraction:
    opt = expected_opt(inst)
    if opt == 0:
        raise ZeroOptimumError("expected optimum is zero; ratio undefined")
    return opt


def min_potential_profile(inst: GameInstance) -> tuple:
    """Exact minimizer of the expected potential over all pure Bayesian
    strategy profiles; first minimizer in canonical order on ties."""
    return _sweep(inst).min_potential.profile


def min_cost_profile(inst: GameInstance) -> tuple:
    """Exact minimizer of the expected social cost (no equilibrium
    constraint); realizes the numerator of the information gap."""
    return _sweep(inst).min_cost.profile


def best_response_dynamics(
    inst: GameInstance,
    s0: tuple,
    max_rounds: int = 1000,
    return_trace: bool = False,
):
    """Round-robin exact interim best responses.  Each improving move
    strictly decreases the expected potential, so this terminates at a BNE
    on exact-rational instances.  Ties keep the incumbent action.  A visit to
    player i reads one `_deviation_weights` table, which i's moves leave
    valid.  The trace starts at s0's `games._column_sum` (over C*L*D^n); by
    the exact potential identity, i's move at type t changes it by
    P(t_i = t) times the change in i's interim cost."""
    if max_rounds < 1:
        raise PreconditionError(f"max_rounds must be at least 1, got {max_rounds}")
    sc = inst._scale
    den = sc.C * sc.L * sc.D_pow[inst.n]
    s = tuple(dict(p) for p in s0)
    q = use_probabilities(inst, s)
    trace = [_column_sum(inst, q, 1)] if return_trace else None
    for _ in range(max_rounds):
        changed = False
        for i, entries in enumerate(inst.menus):
            w = _deviation_weights(inst, q, i)
            for (t, menu), p in zip(entries, sc.weights[i]):
                current = best = sum(map(w.__getitem__, s[i][t].elements))
                for alt in menu:
                    val = sum(map(w.__getitem__, alt.elements))
                    if val < best:
                        s[i][t], best = alt, val
                if best < current:
                    changed = True
                    if return_trace:
                        trace.append(trace[-1] + p * (best - current))
            q[i] = use_row(inst, i, s[i])
        if not changed:
            return (s, [Fraction(x, den) for x in trace]) if return_trace else s
    raise NoConvergenceError(max_rounds)


def enumerate_pure_bne(inst: GameInstance) -> list:
    return [s for s in all_strategy_profiles(inst) if verify_bne(inst, s).is_bne]


def bpos_exact(inst: GameInstance) -> Fraction:
    """Bayesian price of stability: best pure BNE expected cost over the
    expected full-information optimum."""
    sweep, opt = _sweep(inst), _nonzero_opt(inst)  # the strategy cap first
    return _best_bne_cost(inst, sweep) / opt


def information_gap_exact(inst: GameInstance) -> Fraction:
    """Best expected cost achievable with private-information strategies,
    over the expected full-information optimum."""
    sweep, opt = _sweep(inst), _nonzero_opt(inst)  # the strategy cap first
    return sweep.min_cost.cost / opt


def potential_method_certificate(inst: GameInstance) -> CertificateReport:
    """Verify the potential-method inequality chain link by link, with
    closeness constants lambda = 1 (so no link divides by it) and mu = H_n."""
    mu = harmonic(inst.n)
    sweep = _sweep(inst)
    k_star, psi_star = sweep.min_potential.cost, sweep.min_potential.potential
    k_tilde, psi_tilde = sweep.min_cost.cost, sweep.min_cost.potential
    opt = _nonzero_opt(inst)
    ig = k_tilde / opt
    bpos = _best_bne_cost(inst, sweep) / opt
    links = (
        CertificateLink("cost_below_potential", k_star, psi_star),
        CertificateLink("potential_minimizer", psi_star, psi_tilde),
        CertificateLink("closeness_upper", psi_tilde, mu * k_tilde),
        CertificateLink("gap_times_opt", mu * k_tilde, mu * ig * opt),
        CertificateLink("bpos_bound", bpos, mu * ig),
    )
    values = {
        "lambda": Fraction(1),
        "mu": mu,
        "K_min_potential": k_star,
        "Psi_min_potential": psi_star,
        "Psi_min_cost": psi_tilde,
        "K_min_cost": k_tilde,
        "expected_opt": opt,
        "information_gap": ig,
        "bpos": bpos,
    }
    return CertificateReport(links=links, values=values)
