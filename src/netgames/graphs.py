"""Weighted undirected graphs with exact rational costs, plus the exact
combinatorial solvers (shortest paths, metric closure, Steiner tree and
forest, hitting sets) that the game layer uses as its optimum.

Costs are `fractions.Fraction` at the interface; every argmin is broken
lexicographically under the canonical (sorted) node/edge ordering so
results are reproducible.  A `Graph` holds no adjacency of its own: its
one adjacency is that of its lazily filled integer path model
(`_SteinerTable`), read by the Steiner tree and forest, the metric, the
Steiner scheme's augmentation, the sampler's restricted action and the
game's path menus.  `shortest_path` (over `Fraction` neighbour lists it
builds itself), the edge-capped `min_feasible_subset_bruteforce` and
`cover_exact` are module-level test oracles, not package exports.  The
Dreyfus-Wagner labels and the forests are integers: terminal sets are
masks of the sorted nodes and edge sets masks of the sorted edges, with
the sorted-tuple tie rule read off the bits; an edge mask becomes a
frozenset only in the `EdgeSet` returned.  Trees are capped at
STEINER_TERMINAL_CAP terminals.  Forests and cost-only covers take bitmasks
of a sorted pair or hyperedge list, with one memo per solver, so
`games.expected_opt` solves each sub-forest once.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterable, Optional

from .errors import (
    DisconnectedError,
    InfeasibleError,
    PreconditionError,
    TooLargeError,
    UnreachableError,
)

Edge = tuple[str, str]

DEFAULT_EDGE_CAP = 20
DEFAULT_NODE_CAP = 24
STEINER_TERMINAL_CAP = 12


def edge_key(u: str, v: str) -> Edge:
    """Canonical (sorted) key for the undirected edge {u, v}."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[Edge, Fraction], ...]
    root: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        seen = set()
        canon = []
        for (u, v), c in self.edges:
            if u == v:
                raise PreconditionError(f"self-loop at {u!r}")
            k = edge_key(u, v)
            if k in seen:
                raise PreconditionError(f"duplicate edge {k}")
            if u not in self.nodes or v not in self.nodes:
                raise PreconditionError(f"edge {k} references unknown node")
            c = Fraction(c)
            if c < 0:
                raise PreconditionError(f"negative cost on edge {k}")
            seen.add(k)
            canon.append((k, c))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.root is not None and self.root not in self.nodes:
            raise PreconditionError(f"root {self.root!r} not a node")
        object.__setattr__(self, "_cost", dict(self.edges))

    def cost(self, e: Edge) -> Fraction:
        return self._cost[e]

    def edge_keys(self) -> list[Edge]:
        return [k for k, _ in self.edges]

    def edge_set_cost(self, edges: Iterable[Edge]) -> Fraction:
        return sum((self._cost[e] for e in edges), Fraction(0))

    def is_connected(self) -> bool:
        return len(set(self._steiner.comp.values())) <= 1

    @functools.cached_property
    def _steiner(self) -> _SteinerTable:
        """The graph's shared Steiner table, built on first use."""
        return _SteinerTable(self)


def graph_from_costs(costs: dict[Edge, Fraction] | dict, nodes=None, root=None) -> Graph:
    """Convenience constructor from an edge->cost mapping."""
    edge_items = tuple((edge_key(u, v), Fraction(c)) for (u, v), c in costs.items())
    if nodes is None:
        nodes = sorted({n for (u, v), _ in edge_items for n in (u, v)})
    return Graph(nodes=tuple(nodes), edges=edge_items, root=root)


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    edges: frozenset
    cost: Fraction


@dataclass(frozen=True)
class EdgeSet:
    edges: frozenset
    cost: Fraction


class Metric:
    """Shortest-path distances of a connected graph: d(u, v) reads u's
    Dijkstra in the graph's Steiner table, which runs on first use."""

    def __init__(self, g: Graph):
        self._table = g._steiner

    def d(self, u: str, v: str) -> Fraction:
        if u == v:
            return Fraction(0)
        table = self._table
        if u not in table.adj or v not in table.adj:
            raise KeyError(edge_key(u, v))
        return Fraction(table.paths(u)[v][0], table.scale)

    def d_to_set(self, targets: Iterable[str], x: str) -> Fraction:
        """Distance from x to the nearest node of a nonempty target set: the
        least integer cost over the targets in x's Dijkstra, made one
        `Fraction`.  An unknown node raises KeyError, as `d` does."""
        table = self._table
        if x not in table.adj:
            return min(self.d(x, t) for t in targets)
        reached = table.paths(x)
        return Fraction(min(reached[t][0] for t in targets), table.scale)


def _components(nodes, edges):
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return {n: find(n) for n in nodes}


def shortest_path(g: Graph, u: str, v: str) -> Path:
    """Cheapest simple u-v path; ties go to the lexicographically smallest
    node sequence.  The Dijkstra stops at v, over `Fraction` neighbour
    lists of its own, so it stays independent of the Steiner table, which
    runs the same loop on integer costs."""
    if u not in g.nodes or v not in g.nodes:
        raise UnreachableError(u, v)
    adj = {n: [] for n in g.nodes}
    for (a, b), c in g.edges:
        adj[a].append((b, c))
        adj[b].append((a, c))
    reached = _lex_dijkstra(adj.__getitem__, u, stop=(v,))
    if v not in reached:
        raise UnreachableError(u, v)
    cost, seq = reached[v]
    return Path(nodes=seq, edges=_path_edges(seq), cost=Fraction(cost))


def _lex_dijkstra(
    neighbors: Callable[[str], list], source: str, stop: Container = ()
) -> dict[str, tuple]:
    """node -> (cost, node sequence) of its cheapest path from `source`, for
    every node settled up to the first one in `stop` (every reachable node
    when no node of `stop` is reached).  `neighbors(node)` lists (neighbor,
    edge cost).  Priorities are (cost, node-sequence) and sequences compare
    lexicographically, so a node's first pop is its tie-broken answer, and
    with non-negative costs the pops come in increasing priority: the first
    node of `stop` popped has the least (cost, sequence) of them all."""
    heap = [(0, (source,))]
    best: dict[str, tuple] = {}
    while heap:
        cost, seq = heapq.heappop(heap)
        node = seq[-1]
        if node in best:
            continue
        best[node] = (cost, seq)
        if node in stop:
            break
        for nxt, c in neighbors(node):
            if nxt not in best:
                heapq.heappush(heap, (cost + c, seq + (nxt,)))
    return best


def _path_edges(seq: tuple[str, ...]) -> frozenset:
    return frozenset(edge_key(a, b) for a, b in zip(seq, seq[1:]))


def metric_closure(g: Graph) -> Metric:
    """The metric of a connected graph.  Building it runs no Dijkstra;
    each distance is read from the graph's Steiner table when asked."""
    if not g.is_connected():
        raise DisconnectedError("graph is not connected")
    return Metric(g)


class _SteinerTable:
    """The integer path model of one graph, filled lazily: the integer
    costs (each cost times `scale`, the lcm of the edge cost denominators)
    and adjacency, the components, one lexicographic Dijkstra per node, and
    the Dreyfus-Wagner labels dp[X][i] = cheapest (cost, edge mask)
    connecting `nodes[i]` and the terminals of mask X.  Bit i of a terminal
    mask stands for `nodes[i]` and bit j of an edge mask for `edges[j]`,
    both sorted, so a mask's sorted edge tuple is its bits in ascending
    order.  A label depends only on the graph and X (its base paths,
    integer costs and tie-breaks all do), so one table serves every
    terminal set, in any call order, and no subset is built twice."""

    def __init__(self, g: Graph):
        self.nodes = g.nodes
        self.edges = [e for e, _ in g.edges]
        self.scale = math.lcm(*(c.denominator for _, c in g.edges))
        self.cost = {e: int(c * self.scale) for e, c in g.edges}
        self.adj = {v: [] for v in self.nodes}  # neighbours sorted, as the edges are
        for (u, v), c in self.cost.items():
            self.adj[u].append((v, c))
            self.adj[v].append((u, c))
        self.comp = _components(g.nodes, self.cost)
        self.bit = {v: 1 << i for i, v in enumerate(self.nodes)}
        groups: dict[str, list[int]] = {}
        for i, v in enumerate(self.nodes):
            groups.setdefault(self.comp[v], []).append(i)
        masks = {c: sum(1 << i for i in group) for c, group in groups.items()}
        # node index -> its component's node indices and node mask
        self._members = [groups[self.comp[v]] for v in self.nodes]
        self._comp_mask = [masks[self.comp[v]] for v in self.nodes]
        m = len(self.edges)
        self._edge_bit = {e: 1 << j for j, e in enumerate(self.edges)}
        self._edge_cost = [self.cost[e] for e in self.edges]
        # Relaxation keys are base-3 numerals, one digit per edge, edge 0's
        # the most significant: edge j's digit weighs 3**(m - 1 - j).
        self._pow3 = [3**k for k in range(m + 1)]
        self._weight = [self._pow3[m - 1 - j] for j in range(m)]
        index = {v: i for i, v in enumerate(self.nodes)}
        digit = {e: (1 << j, self._weight[j]) for j, e in enumerate(self.edges)}
        self._links = [  # (neighbour index, integer cost, edge bit, digit weight)
            [(index[w], c, *digit[edge_key(v, w)]) for w, c in self.adj[v]] for v in self.nodes
        ]
        self._paths: dict[str, dict[str, tuple]] = {}
        self.dp: dict[int, list[Optional[tuple[int, int]]]] = {}
        self._decoded: dict[int, frozenset] = {}
        self._shared_cost: dict[int, int] = {}

    def paths(self, v: str) -> dict[str, tuple]:
        """node -> (integer cost, node sequence) of its cheapest path from v."""
        reached = self._paths.get(v)
        if reached is None:
            reached = self._paths[v] = _lex_dijkstra(self.adj.__getitem__, v)
        return reached

    def decode(self, mask: int) -> frozenset:
        """The edges of an edge mask."""
        edges = self._decoded.get(mask)
        if edges is None:
            edges = frozenset(e for j, e in enumerate(self.edges) if mask >> j & 1)
            self._decoded[mask] = edges
        return edges

    def span(self, terms: int) -> tuple[int, int]:
        """(integer cost, edge mask) of the Steiner tree on a nonempty
        terminal mask of one component: the label of its lowest terminal in
        dp[the others].  More than STEINER_TERMINAL_CAP terminals raise
        TooLargeError before any subset is built."""
        if (k := terms.bit_count()) > STEINER_TERMINAL_CAP:
            raise TooLargeError(f"{k} terminals exceeds Steiner cap {STEINER_TERMINAL_CAP}")
        first = terms & -terms
        if terms == first:
            return 0, 0
        return self.labels(terms ^ first)[first.bit_length() - 1]

    def labels(self, X: int) -> list[Optional[tuple[int, int]]]:
        got = self.dp.get(X)
        if got is None:
            got = self.dp[X] = self._build(X)
        return got

    def _build(self, X: int) -> list[Optional[tuple[int, int]]]:
        # Base case: a terminal's label at v is v's cheapest path to it.
        # Otherwise labels combine two sub-solutions at the same node and
        # then relax along graph edges.  States carry real edge sets and
        # their true cost, so overlapping sub-solutions only help.
        # Candidates are ranked by (cost, sorted edge tuple), a total order,
        # so the order of the splits does not matter.
        labels: list[Optional[tuple[int, int]]] = [None] * len(self.nodes)
        anchor = X & -X
        members = self._members[anchor.bit_length() - 1]
        if X == anchor:
            t = self.nodes[X.bit_length() - 1]
            for i in members:
                cost, seq = self.paths(self.nodes[i])[t]
                path = zip(seq, seq[1:])
                labels[i] = (cost, sum(self._edge_bit[edge_key(a, b)] for a, b in path))
            return labels
        rest = sub = X ^ anchor
        splits = []
        while sub:  # anchor | sub against the rest, sub a proper submask of rest
            sub = (sub - 1) & rest
            splits.append((self.labels(anchor | sub), self.labels(rest ^ sub)))
        shared_cost = self._shared_cost
        for i in members:  # every member has a label in every subset
            best_cost = best = None
            for dp1, dp2 in splits:
                cost, edges = dp1[i]
                cost2, edges2 = dp2[i]
                cost += cost2
                if shared := edges & edges2:
                    got = shared_cost.get(shared)
                    if got is None:
                        got = shared_cost[shared] = _bit_sum(shared, self._edge_cost)
                    cost -= got
                if best_cost is None or cost < best_cost:
                    best_cost, best = cost, edges | edges2
                elif cost == best_cost and _sorts_before(edges | edges2, best):
                    best = edges | edges2
            labels[i] = (best_cost, best)
        # Relax labels along graph edges (Dijkstra-style sweep), popping the
        # least (cost, key, node).  A label's cost grows by c only when the
        # edge is new to its set.  The key sorts like the sorted edge tuple:
        # edge j's digit is 1 if j is in the set, 2 if it is not but a
        # higher edge is, and 0 above the set's top edge.
        pow3, m = self._pow3, len(self.edges)
        keys: list[Optional[int]] = [None] * len(self.nodes)
        heap = []
        for i in members:  # 2 for every digit below the top, less 1 per edge
            cost, edges = labels[i]
            keys[i] = pow3[m] - pow3[m - edges.bit_length()] - _bit_sum(edges, self._weight)
            heap.append((cost, keys[i], i))
        heapq.heapify(heap)
        settled = set()
        while heap:
            cost_v, key_v, v = heapq.heappop(heap)
            if v in settled or key_v != keys[v]:
                continue
            settled.add(v)
            edges_v = labels[v][1]
            top = pow3[m - edges_v.bit_length()]
            for w, c, bit, weight in self._links[v]:
                if edges_v & bit:
                    cost, edges, key = cost_v, edges_v, key_v
                else:  # below the top, the edge's digit drops from 2 to 1;
                    # above, the digits from the top up rise from 0 to 2
                    # and the edge's to 1
                    cost, edges = cost_v + c, edges_v | bit
                    key = key_v - weight if bit < edges_v else key_v + top - 2 * weight
                label = labels[w]
                if label is not None and (cost > label[0] or cost == label[0] and key >= keys[w]):
                    continue
                labels[w] = (cost, edges)
                keys[w] = key
                heapq.heappush(heap, (cost, key, w))
        return labels


def _bit_sum(mask: int, values: list[int]) -> int:
    """The sum of values[j] over the set bits j of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def _sorts_before(a: int, b: int) -> bool:
    """Whether edge mask a sorts before edge mask b as sorted edge tuples.
    At the lowest edge x in just one of them, the mask holding x comes first
    if the other has an edge above x, and last if the other ends below x."""
    x = (a ^ b) & -(a ^ b)
    if a & x:
        return b >= x << 1
    return bool(x) and a < x << 1


def steiner_tree_exact(g: Graph, terminals: Iterable[str]) -> EdgeSet:
    """Minimum-cost edge set connecting all terminals (Dreyfus-Wagner dynamic
    program over terminal subsets), with lexicographic tie-breaking.  The
    DP's labels live in the graph's shared table, so a call only builds the
    subsets that no earlier call on the same graph has built.  More than
    STEINER_TERMINAL_CAP distinct terminals raise TooLargeError."""
    terms = sorted(set(terminals))
    if not terms:
        raise PreconditionError("terminal set must be nonempty")
    table = g._steiner
    for t in terms:
        if t not in table.bit:
            raise DisconnectedError(f"terminal {t!r} not in graph")
    if len({table.comp[t] for t in terms}) > 1:
        raise DisconnectedError("terminals not mutually reachable")
    cost, mask = table.span(sum(table.bit[t] for t in terms))
    return EdgeSet(edges=table.decode(mask), cost=Fraction(cost, table.scale))


class SteinerForests:
    """Minimum-cost Steiner forests on the subsets of a sorted pair list, as
    bitmasks (bit j stands for `pairs[j]`).  A forest's trees are Steiner
    trees on the endpoints of the pairs they serve, so F(S) = min over the
    blocks B of S that hold its lowest pair of ST(endpoints of B) + F(S - B),
    the trees read from the graph's Dreyfus-Wagner table; a block spanning
    two components is skipped.  Of the cheapest blocks, the first by size,
    then in sorted order, wins.  F[S] = (cost, block, edge mask): the edges
    are the union of the winning blocks' trees, which costs exactly F (a
    cheaper union would beat the optimum).  F and the trees live as long as
    the object, shared by every mask asked of it."""

    def __init__(self, g: Graph, pairs: list[Edge]):
        self.pairs, self.table = pairs, g._steiner
        comp, bit = self.table.comp, self.table.bit
        self.bad = sum(  # the pairs that no forest connects
            1 << j
            for j, (u, v) in enumerate(pairs)
            if u not in comp or v not in comp or comp[u] != comp[v]
        )
        self.ends = [  # each pair's node mask
            0 if self.bad >> j & 1 else bit[u] | bit[v] for j, (u, v) in enumerate(pairs)
        ]
        self.trees: dict[int, Optional[tuple[int, int]]] = {}
        self.F: dict[int, tuple[int, int, int]] = {0: (0, 0, 0)}

    def cost(self, mask: int) -> int:
        """F(mask), an integer over the table's scale.  DisconnectedError
        names the mask's lowest pair that no forest connects."""
        F, trees = self.F, self.trees
        got = F.get(mask)
        if got is not None:
            return got[0]
        if bad := mask & self.bad:
            u, v = self.pairs[(bad & -bad).bit_length() - 1]
            raise DisconnectedError(f"pair ({u!r}, {v!r}) not connected in graph")
        first = mask & -mask
        rest = sub = mask ^ first
        best = None  # (cost, block)
        while True:  # every block first | sub, sub a subset of rest
            block = first | sub
            tree = trees[block] if block in trees else self._tree(block)
            if tree is not None:
                done = F.get(rest ^ sub)
                cost = tree[0] + (done[0] if done else self.cost(rest ^ sub))
                if best is None or cost < best[0] or cost == best[0] and _earlier(block, best[1]):
                    best = (cost, block)
            if not sub:
                break
            sub = (sub - 1) & rest
        cost, block = best
        F[mask] = (cost, block, trees[block][1] | F[mask ^ block][2])
        return cost

    def _tree(self, block: int) -> Optional[tuple[int, int]]:
        ends = 0
        for j in range(block.bit_length()):
            if block >> j & 1:
                ends |= self.ends[j]
        one_component = not ends & ~self.table._comp_mask[(ends & -ends).bit_length() - 1]
        tree = self.trees[block] = self.table.span(ends) if one_component else None
        return tree


def _earlier(a: int, b: int) -> bool:
    """Whether block a comes before block b: fewer pairs, or as many and
    the lowest pair in just one of them is in a."""
    na, nb = a.bit_count(), b.bit_count()
    return na < nb or na == nb and bool(a & (a ^ b) & -(a ^ b))


def steiner_forest_exact(g: Graph, pairs: Iterable[Edge]) -> EdgeSet:
    """Minimum-cost edge set connecting every given node pair: the full set
    of a fresh `SteinerForests` over the sorted distinct pairs."""
    forests = SteinerForests(g, sorted({edge_key(u, v) for u, v in pairs if u != v}))
    cost = forests.cost(full := (1 << len(forests.pairs)) - 1)
    table = forests.table
    return EdgeSet(edges=table.decode(forests.F[full][2]), cost=Fraction(cost, table.scale))


def min_feasible_subset_bruteforce(g: Graph, feasible: Callable[[frozenset], bool]) -> EdgeSet:
    """Cheapest edge subset satisfying a monotone feasibility predicate, over
    at most DEFAULT_EDGE_CAP edges.  Serves as the independent oracle for
    the Steiner solvers."""
    keys = g.edge_keys()
    if len(keys) > DEFAULT_EDGE_CAP:
        raise TooLargeError(f"{len(keys)} edges exceeds enumeration cap {DEFAULT_EDGE_CAP}")
    # Integer-scaled costs keep the inner enumeration loop cheap; the scale
    # factor is exact so comparisons stay exact.
    denom_lcm = math.lcm(*(g.cost(k).denominator for k in keys))
    scaled = [int(g.cost(k) * denom_lcm) for k in keys]
    best = None  # (scaled cost, sorted edge tuple, frozenset)
    for mask in range(1 << len(keys)):
        cost = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                cost += scaled[i]
            m >>= 1
            i += 1
        if best is not None:
            if cost > best[0]:
                continue
            if cost == best[0]:
                edges = frozenset(k for i, k in enumerate(keys) if mask >> i & 1)
                if tuple(sorted(edges)) >= best[1]:
                    continue
                if feasible(edges):
                    best = (cost, tuple(sorted(edges)), edges)
                continue
        edges = frozenset(k for i, k in enumerate(keys) if mask >> i & 1)
        if feasible(edges):
            best = (cost, tuple(sorted(edges)), edges)
    if best is None:
        raise InfeasibleError("no edge subset satisfies the predicate")
    return EdgeSet(edges=best[2], cost=Fraction(best[0], denom_lcm))


def cover_exact(
    node_costs: dict[str, Fraction], hyperedges: Iterable[Iterable[str]]
) -> tuple[frozenset, Fraction]:
    """Minimum-cost node set hitting every hyperedge (exact branch and
    bound over uncovered hyperedges), over at most DEFAULT_NODE_CAP nodes."""
    costs = {n: Fraction(c) for n, c in node_costs.items()}
    if len(costs) > DEFAULT_NODE_CAP:
        raise TooLargeError(f"{len(costs)} nodes exceeds enumeration cap {DEFAULT_NODE_CAP}")
    hedges = [tuple(sorted(set(h))) for h in hyperedges]
    for h in hedges:
        if not h:
            raise PreconditionError("empty hyperedge")
        for n in h:
            if n not in costs:
                raise PreconditionError(f"hyperedge node {n!r} has no cost")

    best: list = [None]  # (cost, sorted-node-tuple, frozenset)

    def search(chosen: frozenset, cost: Fraction):
        if best[0] is not None and cost > best[0][0]:
            return
        open_edge = next((h for h in hedges if not chosen.intersection(h)), None)
        if open_edge is None:
            key = (cost, tuple(sorted(chosen)))
            if best[0] is None or key < best[0][:2]:
                best[0] = (cost, key[1], chosen)
            return
        for n in open_edge:
            search(chosen | {n}, cost + costs[n])

    search(frozenset(), Fraction(0))
    assert best[0] is not None
    return best[0][2], best[0][0]


def cover_cost_dp(node_costs: dict, hyperedges: Iterable[tuple]) -> Callable[[int], int]:
    """Cost-only `cover_exact` for many sets drawn from one support of
    nonempty sorted hyperedges, with integer costs: returns f, f(S) the
    least cost of a node set hitting the hyperedges of bitmask S, bit j
    standing for the j-th of the sorted distinct hyperedges.  A DP memoized
    for the life of f: f(0) = 0 and f(S) is the least c_v + f(S without v's
    hyperedges) over the nodes v of S's lowest one, read from one
    precomputed (c_v, mask of the hyperedges v misses) list per hyperedge."""
    if len(node_costs) > DEFAULT_NODE_CAP:
        raise TooLargeError(f"{len(node_costs)} nodes exceeds enumeration cap {DEFAULT_NODE_CAP}")
    support = sorted(set(hyperedges))
    hits = {v: sum(1 << j for j, h in enumerate(support) if v in h) for h in support for v in h}
    options = [[(node_costs[v], ~hits[v]) for v in h] for h in support]
    memo = {0: 0}

    def f(S: int) -> int:
        got = memo.get(S)
        if got is None:
            for c, keep in options[(S & -S).bit_length() - 1]:
                cost = c + f(S & keep)
                if got is None or cost < got:
                    got = cost
            memo[S] = got
        return got

    return f
