"""Bayesian network design game instances: feasible actions per type,
fair-share player costs, the harmonic congestion potential, and exact
expectations over finite independent type distributions.

Expected cost, expected potential and a player's interim weight per
element (`interim_weights`, whose sums are interim costs) are closed-form
in the exact law of each element's use count, never listed: its dot with
`_Scale.inv` or `harm` is one product of packed integers (`_law_dot`), and
the Poisson-binomial DP is the tests' oracle.  `expected_opt` sums the
optimum over the law of the realized terminal set (sources, pairs or
hyperedges), built player by player over bitmasks of the sorted distinct
terminals and solved once per mask; pair masks share one forest memo and
hyperedge masks one cover memo for the call.  None enumerates type
profiles, though `support_cap` still bounds the product support of
`expected_opt`.  All are exact integer sums over denominators fixed per
instance (`GameInstance._scale`: the lcm D of the probabilities'
denominators, the lcm C of the element costs', and L = lcm(1..n)), made
one `Fraction` at the end.  `weighted_product` is the one capped product
enumeration, shared with `sampling`'s regrouping.  Path menus are the
graph's `graphs.simple_paths`, in its order; no path code runs here.
`type_profiles` and `ex_post_opt` are module-level test oracles.

Game kinds
----------
Each kind is one row of `FAMILIES`, read as `GameInstance.family`; code
reads the row, not the kind's name.  Graph kinds buy edges that join a
type's two ends (`GameInstance._ends`), cover kinds one node of a type.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import NoFeasibleActionError, SupportTooLargeError, ValidationError
from . import graphs
from .graphs import Graph, edge_key

DEFAULT_SUPPORT_CAP = 10 ** 6
DEFAULT_STRATEGY_CAP = 10 ** 7

EMPTY_ELEMENTS = frozenset()


class Family(NamedTuple):
    """A game kind as data, the row of `FAMILIES` that every per-kind decision reads."""

    graph: bool  # elements are graph edges, else cover nodes
    rooted: bool = False  # a graph type is a source joined to the root, else a pair
    arity: Optional[int] = None  # nodes in a type not rooted; None: the game's first type sets it


FAMILIES = {
    "multicast": Family(graph=True, rooted=True),  # join a private source to the root
    "source-sink": Family(graph=True, arity=2),  # join a private (source, sink) pair
    "vertex-cover": Family(graph=False, arity=2),  # buy one endpoint of a private pair
    "hypergraph-cover": Family(graph=False),  # buy one node of a private hyperedge
}


def family_of(kind) -> Family:
    """The `FAMILIES` row of `kind`, else a ValidationError naming it."""
    if isinstance(kind, str) and kind in FAMILIES:  # an unhashable kind is unknown too
        return FAMILIES[kind]
    raise ValidationError("kind", f"unknown kind {kind!r}")


@functools.lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n (H_0 = 0)."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class Action:
    """A minimal feasible element set (edges, or a single cover node)."""

    elements: frozenset
    cost: Fraction


EMPTY_ACTION = Action(elements=EMPTY_ELEMENTS, cost=Fraction(0))


@dataclass(frozen=True)
class PlayerSpec:
    distribution: tuple  # ((type, Fraction prob), ...)

    def support(self) -> list:
        return [t for t, _ in self.distribution]


class _Scale(NamedTuple):
    """Integer forms of an instance's numbers over common denominators: type
    probability p is weights[i][j] / D (in support order), element cost c is
    costs[e] / C, 1/(k+1) is inv[k] / L and H_k is harm[k] / L.  A weight or
    cost is built as numerator * (D // denominator), with no `Fraction`
    multiply.  `packed` is `_law_dot`'s table, filled for each user count u
    when u first occurs."""

    D: int
    weights: tuple
    C: int
    costs: dict
    L: int
    inv: tuple  # L / (k+1), k = 0..n-1
    harm: tuple  # H_k * L, k = 0..n
    D_pow: tuple  # D^k, k = 0..n
    packed: dict  # ("inv" or "harm", u) -> (K_u, vector[:u+1] reversed in K_u-bit slots, mask)


@dataclass(frozen=True)
class GameInstance:
    kind: str
    players: tuple[PlayerSpec, ...]
    graph: Optional[Graph] = None
    node_costs: Optional[tuple] = None  # ((node, Fraction), ...) for cover kinds
    support_cap: int = DEFAULT_SUPPORT_CAP
    strategy_cap: int = DEFAULT_STRATEGY_CAP

    def __post_init__(self):
        family = self.family
        if not self.players:
            raise ValidationError("players", "need at least one player")
        if family.graph:
            if self.graph is None:
                raise ValidationError("graph", f"{self.kind} needs a graph")
            if family.rooted and self.graph.root is None:
                raise ValidationError("graph.root", f"{self.kind} needs a root")
            known = self.graph.index
        else:
            if self.node_costs is None:
                raise ValidationError("node_costs", f"{self.kind} needs node costs")
            object.__setattr__(
                self,
                "node_costs",
                tuple(sorted((n, Fraction(c)) for n, c in self.node_costs)),
            )
            for n, c in self.node_costs:
                if c < 0:
                    raise ValidationError(f"node_costs.{n}", f"negative cost {c}")
            known = self._costs
        arity = family.arity  # if None, the first type sets it (1 if that type is empty)
        for i, spec in enumerate(self.players):
            where = f"players[{i}]"
            # Exact on Fraction(p), floats too: numerators over their lcm.
            probs = [Fraction(p) for _, p in spec.distribution]
            lcm = math.lcm(*(p.denominator for p in probs))
            nums = [p.numerator * (lcm // p.denominator) for p in probs]
            if (total := sum(nums)) != lcm:
                raise ValidationError(where, f"probabilities sum to {Fraction(total, lcm)}, not 1")
            if len({t for t, _ in spec.distribution}) != len(spec.distribution):
                raise ValidationError(where, "duplicate support types")
            for (t, p), a in zip(spec.distribution, nums):
                if a <= 0 or a > lcm:
                    raise ValidationError(where, f"probability {p} out of range")
                if not family.rooted and len(t) != (arity := arity or len(t) or 1):
                    raise ValidationError(where, f"type {t!r} has {len(t)} nodes, not {arity}")
                for n in self._ends(t):
                    if n not in known:
                        raise ValidationError(where, f"unknown node {n!r} in type {t!r}")

    @property
    def n(self) -> int:
        return len(self.players)

    @functools.cached_property
    def family(self) -> Family:
        return family_of(self.kind)

    @functools.cached_property
    def _costs(self) -> dict:
        """Element -> cost: the graph's edge costs or the cover's node costs."""
        return self.graph._cost if self.family.graph else dict(self.node_costs)

    def _ends(self, t) -> tuple:
        """The nodes type t names: (t, root) when rooted, else t itself (the
        pair that a graph type joins, or a cover type's node set)."""
        return (t, self.graph.root) if self.family.rooted else t

    @functools.cached_property
    def _scale(self) -> _Scale:
        n = self.n
        probs = [[Fraction(p) for _, p in spec.distribution] for spec in self.players]
        D = math.lcm(*(p.denominator for row in probs for p in row))
        C = math.lcm(*(c.denominator for c in self._costs.values()))
        L = math.lcm(*range(1, n + 1))
        return _Scale(
            D=D,
            weights=tuple(tuple(p.numerator * (D // p.denominator) for p in row) for row in probs),
            C=C,
            costs={e: c.numerator * (C // c.denominator) for e, c in self._costs.items()},
            L=L,
            inv=tuple(L // (k + 1) for k in range(n)),
            harm=tuple(itertools.accumulate((L // k for k in range(1, n + 1)), initial=0)),
            D_pow=tuple(D ** k for k in range(n + 1)),
            packed={},
        )

    @functools.cached_property
    def menus(self) -> tuple:
        """Per player: ((type, feasible actions), ...) in support order; each
        distinct type's menu is built once, at its first slot, and shared."""
        built: dict = {}
        for i, spec in enumerate(self.players):
            for t, _ in spec.distribution:
                if t not in built:
                    built[t] = tuple(feasible_actions(self, i, t))
        return tuple(tuple((t, built[t]) for t, _ in spec.distribution) for spec in self.players)

    def element_cost(self, e) -> Fraction:
        return self._costs[e]

    def support_size(self) -> int:
        return math.prod(len(spec.distribution) for spec in self.players)


def feasible_actions(inst: GameInstance, i: int, t) -> list[Action]:
    """All minimal feasible actions at type t, for any player i, by sorted
    element tuple: paths in the order that `graphs.simple_paths` owns."""
    if not inst.family.graph:
        return [Action(elements=frozenset([n]), cost=inst._costs[n]) for n in sorted(set(t))]
    s, r = inst._ends(t)
    if s == r:
        return [EMPTY_ACTION]
    paths = graphs.simple_paths(inst.graph, s, r)
    if not paths:
        where = "root" if inst.family.rooted else repr(r)
        raise NoFeasibleActionError(f"no path from {s!r} to {where}")
    return [Action(elements=p.edges, cost=p.cost) for p in paths]


def congestion(profile: Iterable[Action]) -> dict:
    counts: dict = {}
    for a in profile:
        for e in a.elements:
            counts[e] = counts.get(e, 0) + 1
    return counts


def player_cost(inst: GameInstance, profile, i: int) -> Fraction:
    counts = congestion(profile)
    return sum(
        (inst.element_cost(e) / counts[e] for e in profile[i].elements), Fraction(0)
    )


def social_cost(inst: GameInstance, profile) -> Fraction:
    used = set()
    for a in profile:
        used |= a.elements
    return sum((inst.element_cost(e) for e in used), Fraction(0))


def rosenthal_potential(inst: GameInstance, profile) -> Fraction:
    counts = congestion(profile)
    return sum(
        (inst.element_cost(e) * harmonic(k) for e, k in counts.items()),
        Fraction(0),
    )


def potential_difference_check(
    inst: GameInstance, profile, i: int, alt: Action
) -> tuple[Fraction, Fraction]:
    """Both sides of the exact-potential identity for a unilateral deviation
    of player i to `alt`: (cost difference, potential difference)."""
    deviated = tuple(alt if j == i else a for j, a in enumerate(profile))
    lhs = player_cost(inst, profile, i) - player_cost(inst, deviated, i)
    rhs = rosenthal_potential(inst, profile) - rosenthal_potential(inst, deviated)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Bayesian strategies and exact expectations


def _check_support(inst: GameInstance, size: int, what: str):
    if size > inst.support_cap:
        raise SupportTooLargeError(f"{what} {size} exceeds cap {inst.support_cap}")


def weighted_product(inst: GameInstance, distributions, what: str):
    """(types, exact weight) over the product of `distributions`, in
    `itertools.product` order.  A product larger than `inst.support_cap`
    raises SupportTooLargeError before anything is enumerated."""
    _check_support(inst, math.prod(len(d) for d in distributions), what)
    return (
        (tuple(t for t, _ in combo), math.prod((p for _, p in combo), start=Fraction(1)))
        for combo in itertools.product(*distributions)
    )


def type_profiles(inst: GameInstance):
    """(type_profile, weight) over the full product support, in canonical
    order.  Weights are exact and sum to 1."""
    return weighted_product(
        inst, [spec.distribution for spec in inst.players], "product support"
    )


def use_row(inst: GameInstance, i: int, strategy: dict) -> dict:
    """Element -> probability, as an integer over `D`, that player i uses it
    under `strategy`."""
    row: dict = {}
    for (t, _), w in zip(inst.players[i].distribution, inst._scale.weights[i]):
        for e in strategy[t].elements:
            row[e] = row.get(e, 0) + w
    return row


def use_probabilities(inst: GameInstance, s: tuple) -> list[dict]:
    """The table q of profile s: row j is player j's `use_row`."""
    return [use_row(inst, j, strategy) for j, strategy in enumerate(s)]


def _law_dot(sc: _Scale, vec: str, entries) -> int:
    """sum_k law[k] * v[k], v the `_Scale` vector named `vec` and law[k]
    P(k users) * D^u for u = len(entries) users of probabilities a / D, a in
    `entries`: the coefficient of X^u in prod((D - a) + a X) * sum_k v[k]
    X^(u-k) at X = 2^K_u.  The law sums to D^u, so every coefficient is at
    most max(v[:u+1]) * D^u < 2^K_u and none carries into the next slot."""
    u = len(entries)
    try:
        K, packed, mask = sc.packed[vec, u]
    except KeyError:  # filled for the user counts that occur
        v = getattr(sc, vec)[: u + 1]
        K = (max(v) * sc.D_pow[u]).bit_length()
        packed, mask = sum(x << (u - k) * K for k, x in enumerate(v)), (1 << K) - 1
        sc.packed[vec, u] = K, packed, mask
    D = sc.D
    return (math.prod([D - a + (a << K) for a in entries]) * packed >> u * K) & mask


def interim_weights(inst: GameInstance, q: list[dict], i: int, elements) -> dict:
    """Element -> w_i(e) = c_e * E[1/(1 + N_{-i,e})], what e adds to the
    expected cost of any action of player i, as an integer over
    `C*L*D^(n-1)`, from `_law_dot` with `inv` over the others' non-zero
    entries for e.  No row q[i] is read, so i's own moves leave it valid."""
    sc = inst._scale
    weights = {}
    for e in elements:
        users = [a for j, row in enumerate(q) if j != i and (a := row.get(e, 0))]
        lift = sc.D_pow[len(q) - 1 - len(users)]  # the others who never use e
        weights[e] = sc.costs[e] * lift * _law_dot(sc, "inv", users)
    return weights


def _column_sum(inst: GameInstance, q: list[dict], k: int) -> int:
    """The sum over the elements e that q uses of c_e * `_column_term` of e's column."""
    costs = inst._scale.costs
    return sum(
        costs[e] * _column_term(inst, [a for row in q if (a := row.get(e, 0))], k)
        for e in set().union(*q)
    )


def expected_social_cost(inst: GameInstance, s: tuple) -> Fraction:
    """Sum over elements e of c_e * P(some player uses e)."""
    sc = inst._scale
    return Fraction(_column_sum(inst, use_probabilities(inst, s), 0), sc.C * sc.D_pow[inst.n])


def column_terms(inst: GameInstance, entries) -> tuple[int, int]:
    """An element's terms in the expected cost and potential per unit of its
    cost, from its use column (q_1(e) .. q_n(e) over D) with the non-zero
    entries `entries`: P(N >= 1) over D^n (what `expected_social_cost`
    adds) and E[H_N] over L*D^n (what `expected_potential` adds), N the
    element's use count.  They depend on the multiset of entries only, so
    columns that permute each other share them: D^n minus the lifted product
    of the (D - a), and the lifted `_law_dot` with `harm`."""
    sc = inst._scale
    lift = sc.D_pow[inst.n - len(entries)]  # the other players, who never use e
    return (
        sc.D_pow[inst.n] - lift * math.prod([sc.D - a for a in entries]),
        lift * _law_dot(sc, "harm", entries),
    )


def _column_term(inst: GameInstance, entries, k: int) -> int:
    """Term k of `column_terms`, computed alone (`_column_sum` needs one)."""
    sc = inst._scale
    lift = sc.D_pow[inst.n - len(entries)]  # the other players, who never use e
    if k == 0:
        return sc.D_pow[inst.n] - lift * math.prod([sc.D - a for a in entries])
    return lift * _law_dot(sc, "harm", entries)


def expected_potential(inst: GameInstance, s: tuple) -> Fraction:
    """Sum over elements e of c_e * E[H_N], N the number of users of e."""
    sc = inst._scale
    q = use_probabilities(inst, s)
    return Fraction(_column_sum(inst, q, 1), sc.C * sc.L * sc.D_pow[inst.n])


def expected_player_cost(inst: GameInstance, s: tuple, i: int) -> Fraction:
    """Sum of P(i uses e) * w_i(e) over i's elements, from `interim_weights`."""
    q = use_probabilities(inst, s)
    sc = inst._scale
    w = interim_weights(inst, q, i, q[i])
    return Fraction(sum(a * w[e] for e, a in q[i].items()), sc.C * sc.L * sc.D_pow[inst.n])


def _terminal(inst: GameInstance, t):
    """What type t asks the ex-post optimum to connect or hit: a non-root
    source (multicast), a pair with s != r (source-sink) or a sorted
    hyperedge (cover kinds); None when it asks for nothing."""
    if not inst.family.graph:
        return tuple(sorted(set(t)))
    s, r = inst._ends(t)
    if s == r:
        return None
    return s if inst.family.rooted else edge_key(s, r)


def ex_post_opt(inst: GameInstance, type_profile: tuple) -> tuple[frozenset, Fraction]:
    """Optimal joint element set for one realized type profile, via the exact
    combinatorial solver matching the game kind."""
    if not inst.family.graph:
        return graphs.cover_exact(inst._costs, [tuple(t) for t in type_profile])
    terminals = {_terminal(inst, t) for t in type_profile} - {None}
    if not terminals:
        return EMPTY_ELEMENTS, Fraction(0)
    if inst.family.rooted:
        solved = graphs.steiner_tree_exact(inst.graph, terminals | {inst.graph.root})
    else:
        solved = graphs.steiner_forest_exact(inst.graph, terminals)
    return solved.edges, solved.cost


def _terminal_law(inst: GameInstance) -> tuple[list, dict]:
    """The law of the realized terminal set, built player by player (at most
    min(prefix support, 2^k) states), as (terms, law): terms the k sorted
    distinct terminals, and law a map from bitmask (bit j stands for
    terms[j]) to probability times D^n, keyed in the canonical order of each
    set's first profile."""
    rows = zip((spec.distribution for spec in inst.players), inst._scale.weights)
    steps = [[(_terminal(inst, t), w) for (t, _), w in zip(*row)] for row in rows]
    terms = sorted({x for step in steps for x, _ in step} - {None})
    bit = {x: 1 << j for j, x in enumerate(terms)}
    law = {0: 1}
    for step in steps:
        step = [(bit.get(x, 0), w) for x, w in step]
        grown: dict = {}
        for S, w in law.items():
            for x, wx in step:
                T = S | x
                grown[T] = grown.get(T, 0) + w * wx
        law = grown
    return terms, law


def _members(terms: list, mask: int) -> frozenset:
    """The terminals of `_terminal_law`'s bitmask `mask`."""
    return frozenset([x for j, x in enumerate(terms) if mask >> j & 1])


def expected_opt(inst: GameInstance) -> Fraction:
    """E[OPT]: the ex-post optimum depends only on the realized terminal
    set, so each mask of `_terminal_law` is solved once, as an integer over
    C, in the law's order (the first error raised is that of the first type
    profile to fail).  Pair masks share one `graphs.SteinerForests` and
    hyperedge masks one `graphs.cover_cost_dp` for the call."""
    _check_support(inst, inst.support_size(), "product support")
    sc = inst._scale
    terms, law = _terminal_law(inst)
    if not inst.family.graph:
        opt = graphs.cover_cost_dp(sc.costs, terms)
    elif inst.family.rooted:
        g, root = inst.graph, {inst.graph.root}
        tree = lambda S: graphs.steiner_tree_exact(g, _members(terms, S) | root).cost
        # A tree's cost is a Fraction over the Steiner table's scale, which is C.
        opt = lambda S: (c := tree(S)).numerator * (sc.C // c.denominator) if S else 0
    else:
        # Over the Steiner table's scale, which is C (same edge cost denominators).
        opt = graphs.SteinerForests(inst.graph, terms).cost
    return Fraction(sum(w * opt(S) for S, w in law.items()), sc.C * sc.D_pow[inst.n])
