"""Sampling-and-augmentation strategy constructions that bound the
information gap: players share a pre-play random draw D of types, build the
scheme's base solution on D, and each player privately augments it for her
realized type.  Exact enumeration, Monte-Carlo estimation, and
derandomization over the draw are provided."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .costsharing import CostSharingScheme
from .errors import SupportTooLargeError
from .games import (
    EMPTY_ACTION,
    Action,
    GameInstance,
    expected_opt,
    expected_social_cost,
    social_cost,
)
from .graphs import Graph, EdgeSet
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
        raise ValueError(
            "sampling constructions are implemented for multicast games only"
        )


def _require_iid(inst: GameInstance):
    first = inst.players[0].distribution
    for spec in inst.players[1:]:
        if spec.distribution != first:
            raise ValueError("i.i.d. construction needs identical distributions")


def _restricted_action(g: Graph, allowed: frozenset, source: str) -> Action:
    """Cheapest feasible action inside the allowed element set: the shortest
    source->root path of the edge-induced subgraph."""
    if source == g.root:
        return EMPTY_ACTION
    sub = Graph(
        nodes=g.nodes,
        edges=tuple((e, g.cost(e)) for e in sorted(allowed)),
        root=g.root,
    )
    p = graphs.shortest_path(sub, source, g.root)
    return Action(elements=p.edges, cost=p.cost)


def _strategy_map(
    inst: GameInstance, scheme: CostSharingScheme, base: EdgeSet, support
) -> dict:
    g = inst.graph
    out = {}
    for t in support:
        aug = scheme.augment(base, t)
        allowed = base.edges | aug.edges
        out[t] = _restricted_action(g, allowed, t)
    return out


def _clients(inst: GameInstance, D: tuple) -> frozenset:
    # Duplicates collapse; the root is never a client of the base solution.
    return frozenset(t for t in D if t != inst.graph.root)


def construct_strategy_iid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for identical distributions: every player plays
    the cheapest feasible action inside A(D) | B(A(D), own type)."""
    _require_multicast(inst)
    _require_iid(inst)
    if len(D.types) != inst.n - 1:
        raise ValueError(f"expected {inst.n - 1} samples, got {len(D.types)}")
    base = scheme.approx(_clients(inst, D.types))
    support = inst.players[0].support()
    shared = _strategy_map(inst, scheme, base, support)
    return tuple(dict(shared) for _ in range(inst.n))


def construct_strategy_noniid(
    inst: GameInstance, scheme: CostSharingScheme, D: SampleProfile
) -> tuple:
    """Shared-draw strategy for independent non-identical distributions;
    one sample per player distribution, all players see the same draw."""
    _require_multicast(inst)
    if len(D.types) != inst.n:
        raise ValueError(f"expected {inst.n} samples, got {len(D.types)}")
    base = scheme.approx(_clients(inst, D.types))
    return tuple(
        _strategy_map(inst, scheme, base, spec.support()) for spec in inst.players
    )


def _draw_support(inst: GameInstance, variant: str, cap: int):
    """All draws D with their exact probabilities; more than `cap` draws
    raise SupportTooLargeError before any is enumerated."""
    if variant == "iid":
        _require_iid(inst)
        dists = [inst.players[0].distribution] * (inst.n - 1)
    elif variant == "noniid":
        dists = [spec.distribution for spec in inst.players]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    size = math.prod(len(d) for d in dists)
    if size > cap:
        raise SupportTooLargeError(f"draw support {size} exceeds cap {cap}")
    return (
        (tuple(t for t, _ in combo), math.prod((p for _, p in combo), start=Fraction(1)))
        for combo in itertools.product(*dists)
    )


def _construct(inst, scheme, variant, types) -> tuple:
    D = SampleProfile(types=types, provenance="enumerated")
    if variant == "iid":
        return construct_strategy_iid(inst, scheme, D)
    return construct_strategy_noniid(inst, scheme, D)


def evaluate_construction_exact(
    inst: GameInstance,
    scheme: CostSharingScheme,
    variant: str,
    cap: Optional[int] = None,
) -> ConstructionReport:
    """Exact expectation over all (draw, type-profile) pairs of the
    constructed profile's social cost, compared with (alpha+beta) times the
    expected optimum."""
    _require_multicast(inst)
    draws = _draw_support(inst, variant, inst.support_cap if cap is None else cap)
    opt = expected_opt(inst)
    total = Fraction(0)
    first_stage = Fraction(0)
    augmentation = Fraction(0)
    best_ratio = None
    for types, w in draws:
        base = scheme.approx(_clients(inst, types))
        s = _construct(inst, scheme, variant, types)
        cost = expected_social_cost(inst, s)
        total += w * cost
        first_stage += w * base.cost
        for i, spec in enumerate(inst.players):
            for t, p in spec.distribution:
                augmentation += w * p * scheme.augment(base, t).cost
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
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    dists = (
        [inst.players[0].distribution] * (inst.n - 1)
        if variant == "iid"
        else [spec.distribution for spec in inst.players]
    )
    if variant == "iid":
        _require_iid(inst)
    values = []
    first_vals = []
    aug_vals = []
    for _ in range(samples):
        types = tuple(_sample_type(rng, d) for d in dists)
        base = scheme.approx(_clients(inst, types))
        realized = tuple(
            _sample_type(rng, spec.distribution) for spec in inst.players
        )
        actions = []
        aug_total = Fraction(0)
        for t in realized:
            aug = scheme.augment(base, t)
            aug_total += aug.cost
            allowed = base.edges | aug.edges
            actions.append(_restricted_action(inst.graph, allowed, t))
        values.append(social_cost(inst, tuple(actions)))
        first_vals.append(base.cost)
        aug_vals.append(aug_total)
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
    inst: GameInstance,
    scheme: CostSharingScheme,
    variant: str,
    cap: Optional[int] = None,
) -> tuple[SampleProfile, tuple]:
    """Pick the draw D whose constructed profile has the smallest exact
    expected cost (min over draws is at most the draw-averaged cost)."""
    _require_multicast(inst)
    best = None
    for types, _ in _draw_support(inst, variant, inst.support_cap if cap is None else cap):
        s = _construct(inst, scheme, variant, types)
        cost = expected_social_cost(inst, s)
        key = (cost, types)
        if best is None or key < best[0]:
            best = (key, types, s)
    if best is None:
        raise SupportTooLargeError("empty draw support")
    return SampleProfile(types=best[1], provenance="enumerated"), best[2]


def regrouping_sides(inst: GameInstance, scheme: CostSharingScheme):
    """Both sides of the share-regrouping identity for identical
    distributions: n * E[xi(D|{t}, t)] over (D ~ rho^(n-1), t ~ rho) versus
    E[sum over positions of xi(R, r_j)] over R ~ rho^n."""
    _require_multicast(inst)
    _require_iid(inst)
    rho = inst.players[0].distribution
    n = inst.n
    lhs = Fraction(0)
    for combo in itertools.product(rho, repeat=n - 1):
        w = Fraction(1)
        for _, p in combo:
            w *= p
        Dtypes = tuple(t for t, _ in combo)
        for t, p in rho:
            lhs += w * p * scheme.share(_clients(inst, Dtypes + (t,)), t)
    lhs *= n
    rhs = Fraction(0)
    for combo in itertools.product(rho, repeat=n):
        w = Fraction(1)
        for _, p in combo:
            w *= p
        R = tuple(t for t, _ in combo)
        clients = _clients(inst, R)
        rhs += w * sum((scheme.share(clients, t) for t in R), Fraction(0))
    return lhs, rhs
