"""Weighted undirected graphs with exact rational costs, plus the exact
combinatorial solvers (shortest paths, metric closure, Steiner tree and
forest, hitting sets) that the game layer uses as its optimum.

Costs are `fractions.Fraction` at the interface; every argmin is broken
lexicographically under the canonical (sorted) node/edge ordering so results
are reproducible.  A `Graph` indexes its nodes once, by sorted position
(`index`), and every solver here reads that index.  Its one adjacency is the
node-indexed link list of its lazily filled integer path model
(`_SteinerTable`), which no other module reads: `nearest` (the scheme's
augmentation, and its shares through `metric_closure`'s distance function),
`route` (the sampler's restricted action), `simple_paths` (path menus) and
the Steiner solvers all query it here, on one Dijkstra kernel that returns
edge masks.  `shortest_path` (on `Fraction` link lists of its own), the
edge-capped `min_feasible_subset_bruteforce` and `cover_exact` are
module-level test oracles, not package exports.  The Dreyfus-Wagner labels
and the forests are integers: terminal sets are masks of the sorted nodes
and edge sets masks of the sorted edges.  The tie rule (`_sorts_before`),
the relaxation heap's key and the menu order (`_tuple_key`, which
`simple_paths` sorts by) read the sorted-tuple order off the bits.  An edge
set's cost is the sum of its edges' costs, so its mask alone keys it:
`nearest`, `route` and the Steiner solvers return the table's one shared
`EdgeSet` per mask.  Trees are capped at STEINER_TERMINAL_CAP terminals and
covers at COVER_HYPEREDGE_CAP hyperedges.  Forests and cost-only covers take
bitmasks of a sorted pair or hyperedge list, with one memo per solver.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Optional

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
COVER_HYPEREDGE_CAP = 512


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
        object.__setattr__(self, "index", {n: i for i, n in enumerate(self.nodes)})
        if len(self.index) < len(self.nodes):  # name the least repeated node
            dup = next(a for a, b in zip(self.nodes, self.nodes[1:]) if a == b)
            raise PreconditionError(f"duplicate node {dup!r}")
        seen = set()
        canon = []
        for (u, v), c in self.edges:
            if u == v:
                raise PreconditionError(f"self-loop at {u!r}")
            k = edge_key(u, v)
            if k in seen:
                raise PreconditionError(f"duplicate edge {k}")
            if u not in self.index or v not in self.index:
                raise PreconditionError(f"edge {k} references unknown node")
            c = Fraction(c)
            if c < 0:
                raise PreconditionError(f"negative cost on edge {k}")
            seen.add(k)
            canon.append((k, c))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.root is not None and self.root not in self.index:
            raise PreconditionError(f"root {self.root!r} not a node")
        object.__setattr__(self, "_cost", dict(self.edges))

    def cost(self, e: Edge) -> Fraction:
        return self._cost[e]

    def edge_keys(self) -> list[Edge]:
        return [k for k, _ in self.edges]

    def is_connected(self) -> bool:
        return len(set(self._steiner.comp)) <= 1

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
    node sequence.  The Dijkstra stops at v, on `Fraction` link lists of its
    own rather than the Steiner table's integer ones."""
    index = g.index
    if u not in index or v not in index:
        raise UnreachableError(u, v)
    reached = _lex_dijkstra(_link_lists(index, g.edges), index[u], index[v])
    if index[v] not in reached:
        raise UnreachableError(u, v)
    cost, seq, mask = reached[index[v]]
    nodes = tuple(g.nodes[i] for i in seq)
    return Path(nodes=nodes, edges=_decode(g.edge_keys(), mask), cost=Fraction(cost))


def simple_paths(g: Graph, s: str, target: str) -> list[EdgeSet]:
    """Every simple s->target path (s != target) in menu order, by sorted
    edge tuple (`_tuple_key` of the masks): a depth-first walk on an explicit
    stack, so no length meets the recursion limit.  A menu can hold 10^5
    paths, so they stay out of the table's `edge_set` memo."""
    table = g._steiner
    start, stop = g.index[s], g.index.get(target)
    out, stack = [], [(start, 1 << start, 0, 0)]
    while stack:
        v, seen, cost, mask = stack.pop()
        for w, c, bit in table._links[v]:
            if w == stop:
                out.append((_tuple_key(mask | bit), mask | bit, cost + c))
            elif not seen >> w & 1:
                stack.append((w, seen | 1 << w, cost + c, mask | bit))
    out.sort()  # distinct paths have distinct masks, so keys never tie
    return [EdgeSet(_decode(table.edges, m), Fraction(c, table.scale)) for _, m, c in out]


def nearest(g: Graph, x: str, targets: Collection[str]) -> EdgeSet:
    """The least (cost, node sequence) path from x to a node of a nonempty
    target set, read from x's Dijkstra in the graph's table.  An empty set
    raises PreconditionError, then an unknown x UnreachableError(x, least
    target); targets that x does not reach raise KeyError(least of them)."""
    if not targets:
        raise PreconditionError("target set must be nonempty")
    if x not in g.index:
        raise UnreachableError(x, min(targets))
    table, index = g._steiner, g.index
    reached, best = table.paths(index[x]), None
    for t in targets:
        if (path := reached.get(index.get(t))) is None:
            raise KeyError(min(u for u in targets if reached.get(index.get(u)) is None))
        if best is None or path < best:
            best = path
    return table.edge_set(best[2])


def route(g: Graph, source: str, target: str, allowed: frozenset) -> EdgeSet:
    """The least (cost, node sequence) source->target path over the edges
    of `allowed` (edges not in the graph are ignored), by one Dijkstra
    stopped at target.  An unknown source or unreachable target raises
    UnreachableError."""
    if source not in g.index:
        raise UnreachableError(source, target)
    table = g._steiner
    mask = sum(1 << j for e in allowed if (j := table._edge_index.get(e)) is not None)
    stop = g.index.get(target)
    reached = _lex_dijkstra(table._links, g.index[source], stop, mask)
    if stop not in reached:
        raise UnreachableError(source, target)
    return table.edge_set(reached[stop][2])


def _link_lists(index: dict, edges: Iterable) -> list[list[tuple]]:
    """Per node index, its (neighbour index, cost, edge bit) links: edge j
    of the sorted ((u, v), cost) `edges` has bit j, one int shared by both
    of its links."""
    links: list[list[tuple]] = [[] for _ in index]
    for j, ((u, v), c) in enumerate(edges):
        bit = 1 << j
        links[index[u]].append((index[v], c, bit))
        links[index[v]].append((index[u], c, bit))
    return links


def _lex_dijkstra(links: list, source: int, stop=None, allowed: int = -1) -> dict[int, tuple]:
    """node -> (cost, node sequence, edge mask) of its cheapest path from
    `source` over the edges of mask `allowed`, for every node settled up to
    `stop` (every reachable node if `stop` is not reached).  Nodes index the
    sorted nodes, so sequences compare like names.  The heap pops the least
    (cost, sequence), and no sequence is pushed twice, so masks are never
    compared and a node's first pop is its answer."""
    heap = [(0, (source,), 0)]
    best: dict[int, tuple] = {}
    while heap:
        cost, seq, mask = entry = heapq.heappop(heap)
        node = seq[-1]
        if node in best:
            continue
        best[node] = entry
        if node == stop:
            break
        for nxt, c, bit in links[node]:
            if bit & allowed and nxt not in best:
                heapq.heappush(heap, (cost + c, seq + (nxt,), mask | bit))
    return best


def _decode(edges: list, mask: int) -> frozenset:
    """The edges of an edge mask, bit j standing for edges[j]."""
    out = []
    while mask:
        low = mask & -mask
        out.append(edges[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def metric_closure(g: Graph) -> Callable[[str, Collection[str]], Fraction]:
    """The metric of a connected graph, as d(x, targets): the distance from
    x to the nearest node of a target set, `nearest(g, x, targets).cost`,
    with `nearest`'s errors.  Building it runs no Dijkstra; x's is run in
    the graph's Steiner table the first time a distance from x is asked."""
    if not g.is_connected():
        raise DisconnectedError("graph is not connected")
    return lambda x, targets: nearest(g, x, targets).cost


class _SteinerTable:
    """The integer path model of one graph, filled lazily: the integer costs
    (each cost times `scale`, the lcm of the edge cost denominators), the
    graph's one adjacency (`_links`, by node index), one component mask per
    node (`comp[i]`, the node mask of i's component), one Dijkstra per
    source asked for (`paths`), and the Dreyfus-Wagner labels dp[X][i] =
    cheapest (cost, edge mask) connecting `nodes[i]` and the terminals of
    mask X.  A terminal's own Dijkstra is its singleton's labels, so the
    labels run no Dijkstra from any other node.  Bit i of a terminal mask
    stands for `nodes[i]` and bit j of an edge mask for `edges[j]`, both
    sorted, so a mask's sorted edge tuple is its bits in ascending order.
    Creating the table builds no per-edge data that only the labels read;
    the `EdgeSet` of a mask is built the first time a query returns it.  A
    label depends only on the graph and X (its base paths, integer costs and
    tie-breaks all do), so one table serves every terminal set, in any call
    order, and builds no subset twice."""

    def __init__(self, g: Graph):
        self.nodes = g.nodes
        self.edges = [e for e, _ in g.edges]
        self.scale = math.lcm(*(c.denominator for _, c in g.edges))
        self.cost = {e: c.numerator * (self.scale // c.denominator) for e, c in g.edges}
        roots = _components(g.nodes, self.cost)
        masks: dict[str, int] = {}  # root -> its component's node mask
        for i, v in enumerate(self.nodes):
            masks[roots[v]] = masks.get(roots[v], 0) | 1 << i
        self.comp = [masks[roots[v]] for v in self.nodes]
        self._edge_index = {e: j for j, e in enumerate(self.edges)}
        # (neighbour index, integer cost, edge bit)
        self._links = _link_lists(g.index, self.cost.items())
        self._paths: dict[int, dict[int, tuple]] = {}
        self.dp: dict[int, list[Optional[tuple[int, int]]]] = {}
        self._edge_sets: dict[int, EdgeSet] = {}
        self._shared_cost: dict[int, int] = {}

    def paths(self, i: int) -> dict[int, tuple]:
        """node index -> (integer cost, node sequence, edge mask) of its path from i."""
        reached = self._paths.get(i)
        if reached is None:
            reached = self._paths[i] = _lex_dijkstra(self._links, i)
        return reached

    def edge_set(self, mask: int) -> EdgeSet:
        """The edges of an edge mask and their summed cost, one shared
        `EdgeSet` per mask for the life of the table."""
        got = self._edge_sets.get(mask)
        if got is None:
            cost = sum(self.cost[self.edges[j]] for j in _bits(mask))
            edges = _decode(self.edges, mask)
            got = self._edge_sets[mask] = EdgeSet(edges=edges, cost=Fraction(cost, self.scale))
        return got

    def span(self, terms: int) -> tuple[int, int]:
        """(integer cost, edge mask) of the Steiner tree on a nonempty
        terminal mask of one component: the label of its highest terminal in
        dp[the others], which for two terminals is the lower one's path to
        it.  More than STEINER_TERMINAL_CAP terminals raise TooLargeError
        before any subset is built."""
        if (k := terms.bit_count()) > STEINER_TERMINAL_CAP:
            raise TooLargeError(f"{k} terminals exceeds Steiner cap {STEINER_TERMINAL_CAP}")
        if k == 1:
            return 0, 0
        top = terms.bit_length() - 1
        return self.labels(terms ^ 1 << top)[top]

    def labels(self, X: int) -> list[Optional[tuple[int, int]]]:
        got = self.dp.get(X)
        if got is None:
            got = self.dp[X] = self._build(X)
        return got

    def _build(self, X: int) -> list[Optional[tuple[int, int]]]:
        # Base case: a terminal t's label at v is t's least (cost, node
        # sequence from t) path to v, read from t's one Dijkstra.
        # Otherwise labels combine two sub-solutions at the same node and
        # then relax along graph edges.  States carry real edge sets and
        # their true cost, so overlapping sub-solutions only help.
        # Candidates are ranked by (cost, sorted edge tuple), a total order,
        # so the order of the splits does not matter.
        labels: list[Optional[tuple[int, int]]] = [None] * len(self.nodes)
        anchor = X & -X
        if X == anchor:
            for i, (cost, _, mask) in self.paths(X.bit_length() - 1).items():
                labels[i] = (cost, mask)
            return labels
        members = self.paths(anchor.bit_length() - 1)  # the nodes the anchor reaches
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
                        got = sum(self.cost[self.edges[j]] for j in _bits(shared))
                        shared_cost[shared] = got
                    cost -= got
                if best_cost is None or cost < best_cost:
                    best_cost, best = cost, edges | edges2
                elif cost == best_cost and _sorts_before(edges | edges2, best):
                    best = edges | edges2
            labels[i] = (best_cost, best)
        # Relax labels along graph edges (Dijkstra-style sweep), popping the
        # least (cost, `_tuple_key` of the edges, node).  A label's cost grows
        # by c only when the edge is new to its set.  A candidate replaces a
        # label only if it is cheaper, or as cheap and `_sorts_before` it, so
        # a key is built only for the labels that are kept.
        keys: list[Optional[str]] = [None] * len(self.nodes)
        for i in members:
            keys[i] = _tuple_key(labels[i][1])
        heap = [(labels[i][0], keys[i], i) for i in members]
        heapq.heapify(heap)
        settled = set()
        while heap:
            cost_v, key_v, v = heapq.heappop(heap)
            if v in settled or key_v != keys[v]:
                continue
            settled.add(v)
            edges_v = labels[v][1]
            for w, c, bit in self._links[v]:
                if edges_v & bit:
                    cost, edges = cost_v, edges_v
                else:
                    cost, edges = cost_v + c, edges_v | bit
                cost_w, edges_w = labels[w]  # w is a member, so it has a label
                if cost > cost_w or cost == cost_w and not _sorts_before(edges, edges_w):
                    continue
                labels[w] = (cost, edges)
                keys[w] = key = key_v if edges == edges_v else _tuple_key(edges)
                heapq.heappush(heap, (cost, key, w))
        return labels


_FLIP = str.maketrans("01", "10")


def _tuple_key(mask: int) -> str:
    """A string that sorts like the mask's sorted edge tuple: up to the top
    edge, character j is "0" if edge j is in the mask and "1" if not."""
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


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
    terms, index = set(terminals), g.index
    if not terms:
        raise PreconditionError("terminal set must be nonempty")
    if unknown := terms - index.keys():
        raise DisconnectedError(f"terminal {min(unknown)!r} not in graph")
    table = g._steiner
    mask = sum(1 << index[t] for t in terms)
    if mask & ~table.comp[(mask & -mask).bit_length() - 1]:
        raise DisconnectedError("terminals not mutually reachable")
    return table.edge_set(table.span(mask)[1])


class SteinerForests:
    """Minimum-cost Steiner forests on the subsets of a sorted pair list, as
    bitmasks (bit j stands for `pairs[j]`), solved per component: F of a
    mask that spans components is the sum of F over its parts.  In one
    component a forest's trees are Steiner trees on the endpoints of the
    pairs they serve, so F(S) = min over the blocks B of S that hold its
    lowest pair of ST(endpoints of B) + F(S - B), read from the graph's
    Dreyfus-Wagner table.  Of the cheapest blocks, the first by size, then
    in sorted order, wins.  F[S] = (cost, edge mask): the edges, the union
    of the winning blocks' trees (or of the parts' forests), cost exactly F
    (a cheaper union would beat the optimum).  F and the trees live as long
    as the object, shared by every mask asked of it."""

    def __init__(self, g: Graph, pairs: list[Edge]):
        self.pairs, self.table = pairs, g._steiner
        comp, index = self.table.comp, g.index
        self.ends, groups = [], {}  # each pair's node mask; component mask -> its pairs
        for j, (u, v) in enumerate(pairs):
            a, b = index.get(u), index.get(v)
            key = comp[a] if None not in (a, b) and comp[a] >> b & 1 else 0  # 0: no forest
            self.ends.append(key and 1 << a | 1 << b)
            groups[key] = groups.get(key, 0) | 1 << j
        self.bad = groups.pop(0, 0)  # the pairs that no forest connects
        self.groups = list(groups.values())  # each component's pairs, by lowest pair
        self.trees: dict[int, tuple[int, int]] = {}
        self.F: dict[int, tuple[int, int]] = {0: (0, 0)}

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
        if len(self.groups) > 1 and len(parts := [mask & g for g in self.groups if mask & g]) > 1:
            cost = sum(map(self.cost, parts))  # one forest per component
            F[mask] = (cost, sum(F[part][1] for part in parts))  # components share no edge
            return cost
        first = mask & -mask
        rest = sub = mask ^ first
        best = None  # (cost, block)
        while True:  # every block first | sub, sub a subset of rest
            block = first | sub
            tree = trees.get(block) or self._tree(block)
            done = F.get(rest ^ sub)
            cost = tree[0] + (done[0] if done else self.cost(rest ^ sub))
            if best is None or cost < best[0] or cost == best[0] and _earlier(block, best[1]):
                best = (cost, block)
            if not sub:
                break
            sub = (sub - 1) & rest
        cost, block = best
        F[mask] = (cost, trees[block][1] | F[mask ^ block][1])
        return cost

    def _tree(self, block: int) -> tuple[int, int]:
        ends = 0
        for j in _bits(block):
            ends |= self.ends[j]
        return self.trees.setdefault(block, self.table.span(ends))


def _earlier(a: int, b: int) -> bool:
    """Whether block a comes before block b: fewer pairs, or as many and
    the lowest pair in just one of them is in a."""
    na, nb = a.bit_count(), b.bit_count()
    return na < nb or na == nb and bool(a & (a ^ b) & -(a ^ b))


def steiner_forest_exact(g: Graph, pairs: Iterable[Edge]) -> EdgeSet:
    """Minimum-cost edge set connecting every given node pair: the full set
    of a fresh `SteinerForests` over the sorted distinct pairs."""
    forests = SteinerForests(g, sorted({edge_key(u, v) for u, v in pairs if u != v}))
    forests.cost(full := (1 << len(forests.pairs)) - 1)
    return forests.table.edge_set(forests.F[full][1])


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
        cost = sum(scaled[j] for j in _bits(mask))
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
    precomputed (c_v, mask of the hyperedges v misses) list per hyperedge.
    f recurses a level per hyperedge, so more than COVER_HYPEREDGE_CAP
    hyperedges raise TooLargeError before anything is built."""
    support = sorted(set(hyperedges))
    if (k := len(support)) > COVER_HYPEREDGE_CAP:
        raise TooLargeError(f"{k} hyperedges exceeds cover cap {COVER_HYPEREDGE_CAP}")
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
