import heapq
import itertools
import random
from fractions import Fraction
from typing import Iterable

import pytest

from netgames import graph_from_costs
from netgames.games import GameInstance, PlayerSpec
from netgames.errors import DisconnectedError
from netgames.graphs import EdgeSet, Graph, Metric, _components, edge_key, shortest_path


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


def _candidate_key(cost: Fraction, edges: frozenset) -> tuple:
    return (cost, tuple(sorted(edges)))


def steiner_tree_reference(g: Graph, terminals: Iterable[str]) -> EdgeSet:
    """The Dreyfus-Wagner Steiner DP as first written, kept only as the test
    oracle of `steiner_tree_exact`: one `shortest_path` per (node, terminal),
    union costs re-summed and (cost, sorted edges) keys built for every
    candidate.  Same edge set and tie-break, slower."""
    terms = sorted(set(terminals))
    if not terms:
        raise ValueError("terminal set must be nonempty")
    for t in terms:
        if t not in g.nodes:
            raise DisconnectedError(f"terminal {t!r} not in graph")
    comp = _components(g.nodes, g.edge_keys())
    if len({comp[t] for t in terms}) > 1:
        raise DisconnectedError("terminals not mutually reachable")
    if len(terms) == 1:
        return EdgeSet(edges=frozenset(), cost=Fraction(0))

    # dp[(v, X)] = cheapest edge set connecting {v} | X, X a frozenset of
    # terminals.  States carry real edge sets; combined costs are the actual
    # cost of the union, so overlapping sub-solutions only help.
    dp: dict[tuple[str, frozenset], tuple[Fraction, frozenset]] = {}
    for t in terms:
        for v in g.nodes:
            if comp[v] != comp[t]:
                continue
            p = shortest_path(g, v, t)
            dp[(v, frozenset([t]))] = (p.cost, p.edges)

    base = terms[0]
    rest = terms[1:]
    for size in range(2, len(rest) + 1):
        for subset in itertools.combinations(rest, size):
            X = frozenset(subset)
            anchor = min(X)
            labels: dict[str, tuple[Fraction, frozenset]] = {}
            for v in g.nodes:
                best = None
                for r in range(1, size):
                    for part in itertools.combinations(sorted(X - {anchor}), r - 1):
                        X1 = frozenset(part) | {anchor}
                        X2 = X - X1
                        s1 = dp.get((v, X1))
                        s2 = dp.get((v, X2))
                        if s1 is None or s2 is None:
                            continue
                        edges = s1[1] | s2[1]
                        cost = g.edge_set_cost(edges)
                        if best is None or _candidate_key(cost, edges) < _candidate_key(*best):
                            best = (cost, edges)
                if best is not None:
                    labels[v] = best
            # Relax labels along graph edges (Dijkstra-style sweep).
            heap = [(_candidate_key(c, e), v) for v, (c, e) in labels.items()]
            heapq.heapify(heap)
            settled = set()
            while heap:
                key, v = heapq.heappop(heap)
                if v in settled or _candidate_key(*labels[v]) != key:
                    continue
                settled.add(v)
                cost_v, edges_v = labels[v]
                for nxt, c in g.neighbors(v):
                    edges = edges_v | {edge_key(v, nxt)}
                    cost = g.edge_set_cost(edges)
                    cand = (cost, edges)
                    if nxt not in labels or _candidate_key(*cand) < _candidate_key(*labels[nxt]):
                        labels[nxt] = cand
                        heapq.heappush(heap, (_candidate_key(*cand), nxt))
            for v, sol in labels.items():
                dp[(v, X)] = sol

    cost, edges = dp[(base, frozenset(rest))]
    return EdgeSet(edges=frozenset(edges), cost=cost)


def multicast(graph, *specs):
    return GameInstance(kind="multicast", players=tuple(specs), graph=graph)


def random_connected_graph(
    rng: random.Random, max_nodes=6, max_edges=10, root=None, costs=None
):
    """Small random connected graph with rational costs for oracle tests;
    `costs`, if given, lists the integer costs to draw from instead."""

    def cost():
        if costs is not None:
            return Fraction(rng.choice(costs))
        return Fraction(rng.randint(1, 9), rng.randint(1, 3))

    n = rng.randint(2, max_nodes)
    nodes = [f"n{j}" for j in range(n)]
    edges = {}
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        edges[tuple(sorted((a, b)))] = cost()
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
            edges[(a, b)] = cost()
    return graph_from_costs(edges, nodes=nodes, root=root or nodes[0])
