"""Sampling-and-augmentation strategy constructions that bound the
information gap: players share a pre-play random draw D of types, build the
scheme's base solution on D, and each player privately augments it for her
realized type.  Exact enumeration, Monte-Carlo estimation, and
derandomization over the draw are provided.

Every entry point first passes the one precondition gate, `_draw_players`.
The constructed profile depends on a draw only through its client set (its
types' `games._terminal`s), so every entry point solves each distinct set
once: one `_draw_step`, the base solution A(D) with an augmentation and a
restricted action per type.  The exact evaluation and `derandomize` walk
the law of the client set (`_draw_law`, built one draw position at a time),
never the draws: per set, its weight and the least draw that yields it.
One pass (`_priced`) builds and prices each set once; the evaluation
weights the prices, and `derandomize` returns the least (cost, least draw).
The Monte-Carlo estimator keeps a per-call memo from client set to its
step, filling a type's entry the first time that type is realized; each
cost in it is made an integer once, when its entry is built.  Every
sum is an integer over the instance's cost scale, made one `Fraction` per
reported number, so a scheme cost that is not a sum of the graph's edge
costs raises PreconditionError (`_over`).  A restricted action is the
graph's `graphs.route` over the allowed edges.  A `SampleProfile` is the
draw's types alone.  `inst.support_cap` bounds the number of draws that the
exact evaluation and `derandomize` stand for, not the number of sets."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .costsharing import CostSharingScheme
from .errors import PreconditionError
from .games import (
    Action,
    GameInstance,
    _check_support,
    _column_sum,
    _terminal,
    expected_opt,
    use_probabilities,
    weighted_product,
)
from .graphs import EdgeSet
from . import graphs


@dataclass(frozen=True)
class SampleProfile:
    types: tuple


@dataclass(frozen=True)
class ConstructionReport:
    variant: str
    total: Fraction
    first_stage: Fraction
    augmentation: Fraction
    bound: Fraction
    passed: bool
    ig_upper_bound: Optional[Fraction] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    stderr: Optional[float] = None


def _draw_players(inst: GameInstance, scheme: CostSharingScheme, variant: str) -> list:
    """The sampling constructions' one precondition gate, and the player
    whose distribution each position of the shared draw D samples: n - 1
    times the first (i.i.d., identical distributions only) or each player
    once (non-i.i.d., cross-monotone schemes only).  A game that is not
    rooted is rejected first, before `scheme` or `inst.graph` is read."""
    if not inst.family.rooted:
        raise PreconditionError(
            "sampling constructions are implemented for multicast games only"
        )
    if variant == "iid":
        first = dict(inst.players[0].distribution)  # listing order is not the law
        if any(dict(spec.distribution) != first for spec in inst.players[1:]):
            raise PreconditionError("i.i.d. construction needs identical distributions")
        return [0] * (inst.n - 1)
    if variant == "noniid":
        if not scheme.cross_monotone:
            raise PreconditionError("non-i.i.d. construction needs a cross-monotone scheme")
        return list(range(inst.n))
    raise PreconditionError(f"unknown variant {variant!r}")


def _support_types(inst: GameInstance) -> list:
    """Every type of some player's support, once, in first-seen order."""
    return list(dict.fromkeys(t for spec in inst.players for t in spec.support()))


def _clients(inst: GameInstance, D: tuple) -> frozenset:
    # Duplicates collapse; a type that asks for nothing (the root) is no client.
    return frozenset(_terminal(inst, t) for t in D) - {None}


def _augmented(
    inst: GameInstance, scheme: CostSharingScheme, base: EdgeSet, t
) -> tuple[EdgeSet, Action]:
    """(B(base, t), cheapest action inside base | B(base, t)) for type t: the
    graph's least route between t's ends over those edges."""
    aug = scheme.augment(base, t)
    path = graphs.route(inst.graph, *inst._ends(t), base.edges | aug.edges)
    return aug, Action(elements=path.edges, cost=path.cost)


def _draw_step(
    inst: GameInstance, scheme: CostSharingScheme, clients: frozenset, types
) -> tuple[EdgeSet, dict]:
    """The base solution A(D) on a draw's client set, solved once, and per
    type t of `types` the pair `_augmented` gives."""
    base = scheme.approx(clients)
    return base, {t: _augmented(inst, scheme, base, t) for t in types}


def _profile(inst: GameInstance, menu: dict) -> tuple:
    """The shared-draw strategy profile: each player plays the menu action
    of her realized type."""
    return tuple({t: menu[t][1] for t in spec.support()} for spec in inst.players)


def _construct(inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile, variant: str):
    size = len(_draw_players(inst, scheme, variant))
    if len(D.types) != size:
        raise PreconditionError(f"expected {size} samples, got {len(D.types)}")
    step = _draw_step(inst, scheme, _clients(inst, D.types), _support_types(inst))
    return _profile(inst, step[1])


def construct_strategy_iid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for identical distributions: every player plays
    the cheapest feasible action inside A(D) | B(A(D), own type)."""
    return _construct(inst, scheme, D, "iid")


def construct_strategy_noniid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for independent non-identical distributions;
    one sample per player distribution, all players see the same draw."""
    return _construct(inst, scheme, D, "noniid")


def _draw_law(inst: GameInstance, positions: list) -> dict:
    """The law of the draw's client set, built one position at a time from
    its (type, `_terminal`, weight) list, as `games._terminal_law` does: each
    set of positive probability -> (its probability times D^m, m the draw's
    length; the least draw that yields it), keyed in the order of each
    set's first draw.  One state per set is exact: a least draw's prefixes
    are the least that yield their own sets, as a smaller prefix would give
    a smaller draw.  More than `inst.support_cap` draws raise
    SupportTooLargeError first."""
    sizes = (len(inst.players[i].distribution) for i in positions)
    _check_support(inst, math.prod(sizes), "draw support")
    rows = ((inst.players[i].distribution, inst._scale.weights[i]) for i in positions)
    steps = [[(t, _terminal(inst, t), w) for (t, _), w in zip(*row)] for row in rows]
    law = {frozenset(): (1, ())}
    for step in steps:
        grown: dict = {}
        for S, (w, D) in law.items():
            for t, x, wt in step:
                T, E = (S if x is None else S | {x}), D + (t,)
                u, F = grown.get(T, (0, E))
                grown[T] = (u + w * wt, min(F, E))
        law = grown
    return law


def _priced(inst: GameInstance, scheme: CostSharingScheme, law: dict) -> Iterator[tuple]:
    """Per client set of `law`, in its order: (weight, least draw, A(D),
    menu, cost), one `_draw_step` per set and the cost that of its
    `_profile`, an expected social cost as an integer over C*D^n."""
    types = _support_types(inst)
    for clients, (w, D) in law.items():
        base, menu = _draw_step(inst, scheme, clients, types)
        yield w, D, base, menu, _column_sum(inst, use_probabilities(inst, _profile(inst, menu)), 0)


def evaluate_construction_exact(
    inst: GameInstance, scheme: CostSharingScheme, variant: str
) -> ConstructionReport:
    """Exact expectation over all (draw, type-profile) pairs of the
    constructed profile's social cost, compared with (alpha+beta) times the
    expected optimum: each client set of positive probability built and
    priced once (`_priced`), weighted by the law of the draw's client set.
    The sums are integers, so the scheme's costs must be sums of the graph's
    edge costs (`_over`)."""
    positions = _draw_players(inst, scheme, variant)
    law = _draw_law(inst, positions)
    opt = expected_opt(inst)
    sc = inst._scale
    mass: dict = {}  # type -> the sum of the players' probabilities of it, times D
    for spec, weights in zip(inst.players, sc.weights):
        for (t, _), w in zip(spec.distribution, weights):
            mass[t] = mass.get(t, 0) + w
    # With m the draw's length, the total is over C*D^n*D^m, the first stage
    # over C*D^m, the augmentation over C*D^(m+1) and the least cost over C*D^n.
    total = first_stage = augmentation = 0
    least = None
    for w, _, base, menu, cost in _priced(inst, scheme, law):
        total += w * cost
        first_stage += w * _over(sc.C, base.cost)
        augmentation += w * sum(m * _over(sc.C, menu[t][0].cost) for t, m in mass.items())
        if least is None or cost < least:
            least = cost
    unit = sc.C * sc.D ** len(positions)
    total = Fraction(total, unit * sc.D_pow[inst.n])
    bound = (scheme.alpha + scheme.beta) * opt
    return ConstructionReport(
        variant=variant,
        total=total,
        first_stage=Fraction(first_stage, unit),
        augmentation=Fraction(augmentation, unit * sc.D),
        bound=bound,
        passed=total <= bound,
        ig_upper_bound=Fraction(least, sc.C * sc.D_pow[inst.n]) / opt if opt > 0 else None,
    )


def _sampler(distribution):
    """Draws a type of `distribution` with one `rng.random()`: the first
    type whose running float sum of probabilities exceeds it, or the last
    type when rounding leaves none.  The sums are built once."""
    types = [t for t, _ in distribution]
    sums = list(itertools.accumulate(float(p) for _, p in distribution))
    last = len(types) - 1
    return lambda rng: types[min(bisect.bisect_right(sums, rng.random()), last)]


def _over(scale: int, cost: Fraction) -> int:
    """`cost`, a sum of the graph's edge costs, as an integer over `scale`;
    a cost off that grid raises PreconditionError."""
    q, r = divmod(scale, cost.denominator)
    if r:
        raise PreconditionError("scheme costs must be sums of the graph's edge costs")
    return cost.numerator * q


def evaluate_construction_mc(
    inst: GameInstance,
    scheme: CostSharingScheme,
    variant: str,
    samples: int,
    seed: int = 0,
) -> ConstructionReport:
    """Unbiased Monte-Carlo estimate of the construction cost; deterministic
    given the seed.  A draw's client set is solved once per call, and a
    type's augmentation the first time that type is realized with it."""
    positions = _draw_players(inst, scheme, variant)
    if samples < 1:
        raise PreconditionError("need at least one sample")
    players = [_sampler(spec.distribution) for spec in inst.players]
    draws = [players[i] for i in positions]
    sc = inst._scale
    rng = random.Random(seed)
    # client set -> (A(D), its cost, type -> (action elements, augmentation cost)), costs over C
    steps: dict = {}  # a type's entry is added when the type is realized
    values = []
    first_stage = augmentation = 0
    for _ in range(samples):
        D = tuple(draw(rng) for draw in draws)
        realized = tuple(draw(rng) for draw in players)
        clients = _clients(inst, D)
        step = steps.get(clients)
        if step is None:
            base = scheme.approx(clients)
            step = steps[clients] = (base, _over(sc.C, base.cost), {})
        base, base_cost, menu = step
        first_stage += base_cost
        for t in realized:
            if t not in menu:
                aug, action = _augmented(inst, scheme, base, t)
                menu[t] = (action.elements, _over(sc.C, aug.cost))
        used = frozenset().union(*(menu[t][0] for t in realized))
        values.append(sum(sc.costs[e] for e in used))
        augmentation += sum(menu[t][1] for t in realized)
    unit = samples * sc.C
    total = sum(values)
    mean = Fraction(total, unit)
    if samples > 1:
        # (v * samples - total) / unit is v - mean, rounded once to a float.
        var = sum(((v * samples - total) / unit) ** 2 for v in values) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = float("inf")
    opt = expected_opt(inst)
    bound = (scheme.alpha + scheme.beta) * opt
    return ConstructionReport(
        variant=variant,
        total=mean,
        first_stage=Fraction(first_stage, unit),
        augmentation=Fraction(augmentation, unit),
        bound=bound,
        passed=mean <= bound,
        samples=samples,
        seed=seed,
        stderr=stderr,
    )


def derandomize(
    inst: GameInstance, scheme: CostSharingScheme, variant: str
) -> tuple[SampleProfile, tuple]:
    """Pick the draw D whose constructed profile has the smallest exact
    expected cost (min over draws is at most the draw-averaged cost): the
    least (cost, D) over the draws.  The profile depends on D only through
    its client set, so each set of the law (`_draw_law`) is built and priced
    once (`_priced`), and stands for the least draw that yields it."""
    law = _draw_law(inst, _draw_players(inst, scheme, variant))
    cost, D, menu = min((cost, D, menu) for _, D, _, menu, cost in _priced(inst, scheme, law))
    return SampleProfile(types=D), _profile(inst, menu)


def regrouping_sides(inst: GameInstance, scheme: CostSharingScheme):
    """Both sides of the share-regrouping identity for identical
    distributions: n * E[xi(D|{t}, t)] over (D ~ rho^(n-1), t ~ rho) versus
    E[sum over positions of xi(R, r_j)] over R ~ rho^n.  Writing R = D + (t,)
    puts both expectations on one enumeration of rho^n, capped by
    `inst.support_cap`."""
    _draw_players(inst, scheme, "iid")
    rho = inst.players[0].distribution
    lhs = Fraction(0)
    rhs = Fraction(0)
    for R, w in weighted_product(inst, [rho] * inst.n, "regrouping support"):
        clients = _clients(inst, R)
        shares = [scheme.share(clients, t) for t in R]
        lhs += w * shares[-1]
        rhs += w * sum(shares, Fraction(0))
    return inst.n * lhs, rhs
