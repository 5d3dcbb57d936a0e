import itertools
import random
from fractions import Fraction

import pytest

from netgames import graph_from_costs
from netgames.games import GameInstance, PlayerSpec
from netgames.graphs import EdgeSet, Metric


@pytest.fixture
def triangle():
    """The rooted triangle used throughout: (r,a)=2, (r,b)=2, (a,b)=1."""
    return graph_from_costs(
        {("r", "a"): Fraction(2), ("r", "b"): Fraction(2), ("a", "b"): Fraction(1)},
        root="r",
    )


def point_mass(t):
    return PlayerSpec(distribution=((t, Fraction(1)),))


def uniform(types):
    p = Fraction(1, len(types))
    return PlayerSpec(distribution=tuple((t, p) for t in types))


def profile_actions(s, type_profile):
    """The actions profile s plays on one realized type profile."""
    return tuple(s[i][t] for i, t in enumerate(type_profile))


def mst_over_terminals(m: Metric, terminals) -> tuple[EdgeSet, Fraction]:
    """Kruskal on the metric-closure clique restricted to `terminals`: a
    reference bound between the Steiner optimum and twice it."""
    terms = sorted(set(terminals))
    if not terms:
        raise ValueError("terminal set must be nonempty")
    pairs = sorted(
        ((m.d(a, b), (a, b)) for a, b in itertools.combinations(terms, 2))
    )
    parent = {t: t for t in terms}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen = []
    total = Fraction(0)
    for d, (a, b) in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
            total += d
    es = EdgeSet(edges=frozenset(chosen), cost=total)
    return es, total


def multicast(graph, *specs):
    return GameInstance(kind="multicast", players=tuple(specs), graph=graph)


def random_connected_graph(rng: random.Random, max_nodes=6, max_edges=10, root=None):
    """Small random connected graph with rational costs for oracle tests."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{j}" for j in range(n)]
    edges = {}
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        edges[tuple(sorted((a, b)))] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    extra = [
        (a, b)
        for a, b in itertools.combinations(nodes, 2)
        if (a, b) not in edges
    ]
    rng.shuffle(extra)
    for a, b in extra:
        if len(edges) >= max_edges:
            break
        if rng.random() < 0.5:
            edges[(a, b)] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return graph_from_costs(edges, nodes=nodes, root=root or nodes[0])
