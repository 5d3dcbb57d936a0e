"""Strict cost-sharing schemes for sub-additive client/element problems.

A scheme bundles an approximation algorithm A (clients -> element set), an
augmentation algorithm B (solution, new client -> extra elements), a share
function xi, and declared constants (alpha, beta).  The rooted Steiner-tree
scheme ships here: A is the exact Steiner tree, B routes a newcomer along a
shortest path to the current tree (`graphs.nearest`, to the tree's nodes,
gathered once per solution), and a client's share is half its distance to
the other clients and the root, the same query's cost read through
`graphs.metric_closure`'s distance function.  A and B return the graph's
shared `EdgeSet`s, one per edge set.

A scheme's costs must be sums of the graph's edge costs: the sampling
constructions (`sampling`) sum them as integers over the instance's cost
scale, and a cost off that grid raises PreconditionError there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import graphs
from .errors import PreconditionError
from .graphs import EdgeSet, Graph


@dataclass(frozen=True)
class SchemeCheck:
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class CostSharingScheme:
    name: str
    alpha: Fraction
    beta: Fraction
    approx: Callable[[frozenset], EdgeSet]  # A
    augment: Callable[[EdgeSet, object], EdgeSet]  # B
    share: Callable[[frozenset, object], Fraction]  # xi
    cross_monotone: bool = False


def steiner_scheme(g: Graph) -> CostSharingScheme:
    """Rooted Steiner-tree scheme with alpha = 1 and beta = 2.  Clients are
    graph nodes; a solution for U connects U and the root."""
    if g.root is None:
        raise PreconditionError("steiner scheme needs a rooted graph")
    root = g.root
    metric = graphs.metric_closure(g)
    targets: dict = {}  # a solution's edges -> its nodes and the root

    def approx(clients: frozenset) -> EdgeSet:
        terminals = set(clients) | {root}
        return graphs.steiner_tree_exact(g, terminals)

    def augment(solution: EdgeSet, x) -> EdgeSet:
        # Cheapest path from x to the tree, ties to the least node sequence
        # (the empty path when x is on it).
        nodes = targets.get(solution.edges)
        if nodes is None:
            nodes = targets[solution.edges] = {root}.union(*solution.edges)
        return graphs.nearest(g, x, nodes)

    def share(clients: frozenset, x) -> Fraction:
        if x not in clients:
            return Fraction(0)
        others = (set(clients) | {root}) - {x}
        if not others:
            return Fraction(0)
        return metric(x, others) / 2

    return CostSharingScheme(
        name="steiner-tree",
        alpha=Fraction(1),
        beta=Fraction(2),
        approx=approx,
        augment=augment,
        share=share,
        cross_monotone=True,
    )


def check_competitiveness(scheme: CostSharingScheme, clients: Iterable) -> SchemeCheck:
    """Sum of shares over the client set versus the cost of A on it, which is
    the exact optimum for the shipped Steiner scheme (alpha = 1).  A is
    priced first, so a client set past its cap fails before any share."""
    U = frozenset(clients)
    rhs = scheme.approx(U).cost
    lhs = sum((scheme.share(U, x) for x in U), Fraction(0))
    return SchemeCheck(lhs=lhs, rhs=rhs)


def check_strictness(scheme: CostSharingScheme, clients: Iterable, x) -> SchemeCheck:
    """Augmentation cost for a newcomer versus beta times its share in the
    grown client set."""
    U = frozenset(clients)
    lhs = scheme.augment(scheme.approx(U), x).cost
    rhs = scheme.beta * scheme.share(U | {x}, x)
    return SchemeCheck(lhs=lhs, rhs=rhs)


def check_cross_monotonicity(
    scheme: CostSharingScheme, clients: Iterable, clients_sup: Iterable, x
) -> SchemeCheck:
    """A client's share must not increase when the client set grows."""
    U = frozenset(clients)
    U_sup = frozenset(clients_sup)
    if not U <= U_sup:
        raise PreconditionError("first client set must be contained in the second")
    if x not in U:
        raise PreconditionError("client must belong to the smaller set")
    return SchemeCheck(lhs=scheme.share(U_sup, x), rhs=scheme.share(U, x))
