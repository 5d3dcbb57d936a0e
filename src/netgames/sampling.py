"""Sampling-and-augmentation strategy constructions that bound the
information gap: players share a pre-play random draw D of types, build the
scheme's base solution on D, and each player privately augments it for her
realized type.  Exact enumeration, Monte-Carlo estimation, and
derandomization over the draw are provided."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .costsharing import CostSharingScheme
from .errors import PreconditionError, UnreachableError
from .games import (
    EMPTY_ACTION,
    Action,
    GameInstance,
    expected_opt,
    expected_social_cost,
    social_cost,
    weighted_product,
)
from .graphs import Graph, EdgeSet, edge_key
from . import graphs


@dataclass(frozen=True)
class SampleProfile:
    types: tuple
    provenance: str  # "seed=<s>,draw=<k>" or "enumerated"


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


def _require_multicast(inst: GameInstance):
    if inst.kind != "multicast":
        raise PreconditionError(
            "sampling constructions are implemented for multicast games only"
        )


def _require_iid(inst: GameInstance):
    first = inst.players[0].distribution
    for spec in inst.players[1:]:
        if spec.distribution != first:
            raise PreconditionError("i.i.d. construction needs identical distributions")


def _draw_distributions(inst: GameInstance, scheme: CostSharingScheme, variant: str) -> list:
    """The distributions the shared draw D samples: n - 1 copies of the
    common one (i.i.d.) or one per player (non-i.i.d., cross-monotone only)."""
    if variant == "iid":
        _require_iid(inst)
        return [inst.players[0].distribution] * (inst.n - 1)
    if variant == "noniid":
        if not scheme.cross_monotone:
            raise PreconditionError("non-i.i.d. construction needs a cross-monotone scheme")
        return [spec.distribution for spec in inst.players]
    raise PreconditionError(f"unknown variant {variant!r}")


def _draws(inst: GameInstance, scheme: CostSharingScheme, variant: str):
    """All draws D with their exact probabilities; more than
    `inst.support_cap` draws raise SupportTooLargeError."""
    return weighted_product(inst, _draw_distributions(inst, scheme, variant), "draw support")


def _support_types(inst: GameInstance) -> list:
    """Every type of some player's support, once, in first-seen order."""
    return list(dict.fromkeys(t for spec in inst.players for t in spec.support()))


def _restricted_action(g: Graph, allowed: frozenset, source: str) -> Action:
    """Cheapest feasible action inside the allowed element set: the shortest
    source->root path over the allowed edges of the Steiner table's integer
    adjacency, by one lexicographic Dijkstra stopped at the root."""
    if source == g.root:
        return EMPTY_ACTION
    if source not in g.nodes:
        raise UnreachableError(source, g.root)
    table = g._steiner
    reached = graphs._lex_dijkstra(
        lambda v: [(w, c) for w, c in table.adj[v] if edge_key(v, w) in allowed],
        source,
        stop=(g.root,),
    )
    if g.root not in reached:
        raise UnreachableError(source, g.root)
    cost, seq = reached[g.root]
    return Action(elements=graphs._path_edges(seq), cost=Fraction(cost, table.scale))


def _clients(inst: GameInstance, D: tuple) -> frozenset:
    # Duplicates collapse; the root is never a client of the base solution.
    return frozenset(t for t in D if t != inst.graph.root)


def _draw_step(
    inst: GameInstance, scheme: CostSharingScheme, D: tuple, types
) -> tuple[EdgeSet, dict]:
    """The base solution A(D), solved once, and per type t of `types` the
    pair (B(A(D), t), cheapest action inside A(D) | B(A(D), t))."""
    base = scheme.approx(_clients(inst, D))
    menu = {}
    for t in types:
        aug = scheme.augment(base, t)
        menu[t] = (aug, _restricted_action(inst.graph, base.edges | aug.edges, t))
    return base, menu


def _profile(inst: GameInstance, menu: dict) -> tuple:
    """The shared-draw strategy profile: each player plays the menu action
    of her realized type."""
    return tuple({t: menu[t][1] for t in spec.support()} for spec in inst.players)


def _constructed(inst: GameInstance, scheme: CostSharingScheme, D: tuple):
    return _profile(inst, _draw_step(inst, scheme, D, _support_types(inst))[1])


def construct_strategy_iid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for identical distributions: every player plays
    the cheapest feasible action inside A(D) | B(A(D), own type)."""
    _require_multicast(inst)
    if len(D.types) != len(_draw_distributions(inst, scheme, "iid")):
        raise PreconditionError(f"expected {inst.n - 1} samples, got {len(D.types)}")
    return _constructed(inst, scheme, D.types)


def construct_strategy_noniid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for independent non-identical distributions;
    one sample per player distribution, all players see the same draw."""
    _require_multicast(inst)
    if len(D.types) != len(_draw_distributions(inst, scheme, "noniid")):
        raise PreconditionError(f"expected {inst.n} samples, got {len(D.types)}")
    return _constructed(inst, scheme, D.types)


def evaluate_construction_exact(
    inst: GameInstance, scheme: CostSharingScheme, variant: str
) -> ConstructionReport:
    """Exact expectation over all (draw, type-profile) pairs of the
    constructed profile's social cost, compared with (alpha+beta) times the
    expected optimum."""
    _require_multicast(inst)
    draws = _draws(inst, scheme, variant)
    opt = expected_opt(inst)
    types = _support_types(inst)
    total = Fraction(0)
    first_stage = Fraction(0)
    augmentation = Fraction(0)
    best_ratio = None
    for D, w in draws:
        base, menu = _draw_step(inst, scheme, D, types)
        cost = expected_social_cost(inst, _profile(inst, menu))
        total += w * cost
        first_stage += w * base.cost
        for spec in inst.players:
            for t, p in spec.distribution:
                augmentation += w * p * menu[t][0].cost
        if opt > 0:
            ratio = cost / opt
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
    bound = (scheme.alpha + scheme.beta) * opt
    return ConstructionReport(
        variant=variant,
        total=total,
        first_stage=first_stage,
        augmentation=augmentation,
        bound=bound,
        passed=total <= bound,
        ig_upper_bound=best_ratio,
    )


def _sample_type(rng: random.Random, distribution) -> object:
    u = rng.random()
    acc = 0.0
    for t, p in distribution:
        acc += float(p)
        if u < acc:
            return t
    return distribution[-1][0]


def evaluate_construction_mc(
    inst: GameInstance,
    scheme: CostSharingScheme,
    variant: str,
    samples: int,
    seed: int = 0,
) -> ConstructionReport:
    """Unbiased Monte-Carlo estimate of the construction cost; deterministic
    given the seed."""
    _require_multicast(inst)
    if samples < 1:
        raise PreconditionError("need at least one sample")
    dists = _draw_distributions(inst, scheme, variant)
    rng = random.Random(seed)
    values = []
    first_vals = []
    aug_vals = []
    for _ in range(samples):
        D = tuple(_sample_type(rng, d) for d in dists)
        realized = tuple(
            _sample_type(rng, spec.distribution) for spec in inst.players
        )
        base, menu = _draw_step(inst, scheme, D, dict.fromkeys(realized))
        values.append(social_cost(inst, tuple(menu[t][1] for t in realized)))
        first_vals.append(base.cost)
        aug_vals.append(sum((menu[t][0].cost for t in realized), Fraction(0)))
    mean = sum(values, Fraction(0)) / samples
    if samples > 1:
        var = sum((float(v - mean) ** 2 for v in values)) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = float("inf")
    opt = expected_opt(inst)
    bound = (scheme.alpha + scheme.beta) * opt
    return ConstructionReport(
        variant=variant,
        total=mean,
        first_stage=sum(first_vals, Fraction(0)) / samples,
        augmentation=sum(aug_vals, Fraction(0)) / samples,
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
    expected cost (min over draws is at most the draw-averaged cost)."""
    _require_multicast(inst)
    built = ((D, _constructed(inst, scheme, D)) for D, _ in _draws(inst, scheme, variant))
    D, s = min(built, key=lambda c: (expected_social_cost(inst, c[1]), c[0]))
    return SampleProfile(types=D, provenance="enumerated"), s


def regrouping_sides(inst: GameInstance, scheme: CostSharingScheme):
    """Both sides of the share-regrouping identity for identical
    distributions: n * E[xi(D|{t}, t)] over (D ~ rho^(n-1), t ~ rho) versus
    E[sum over positions of xi(R, r_j)] over R ~ rho^n.  Writing R = D + (t,)
    puts both expectations on one enumeration of rho^n, capped by
    `inst.support_cap`."""
    _require_multicast(inst)
    _require_iid(inst)
    rho = inst.players[0].distribution
    lhs = Fraction(0)
    rhs = Fraction(0)
    for R, w in weighted_product(inst, [rho] * inst.n, "regrouping support"):
        clients = _clients(inst, R)
        shares = [scheme.share(clients, t) for t in R]
        lhs += w * shares[-1]
        rhs += w * sum(shares, Fraction(0))
    return inst.n * lhs, rhs
