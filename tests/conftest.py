import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Optional

import pytest

from netgames import graph_from_costs
from netgames.equilibria import (
    EquilibriumReport,
    _Row,
    all_strategy_profiles,
    interim_cost,
)
from netgames.games import (
    EMPTY_ACTION,
    Action,
    GameInstance,
    PlayerSpec,
    _terminal,
    expected_opt,
    expected_potential,
    expected_social_cost,
    harmonic,
    social_cost,
    type_profiles,
    weighted_product,
)
from netgames.errors import DisconnectedError, NoConvergenceError, NoFeasibleActionError
from netgames.graphs import (
    EdgeSet,
    Graph,
    _components,
    edge_key,
    shortest_path,
)
from netgames.sampling import (
    ConstructionReport,
    SampleProfile,
    _clients,
    _draw_players,
    _draw_step,
    _profile,
    _support_types,
)


@pytest.fixture
def triangle():
    """The rooted triangle used throughout: (r,a)=2, (r,b)=2, (a,b)=1."""
    return graph_from_costs(
        {("r", "a"): Fraction(2), ("r", "b"): Fraction(2), ("a", "b"): Fraction(1)},
        root="r",
    )


# A hand-written hypergraph-cover game, the kind that `gen` does not draw:
# 3-node hyperedges, 3 players, two types each.  BPoS is 261/158 and IG 123/79.
HYPERGRAPH_COVER = {
    "version": 1,
    "kind": "hypergraph-cover",
    "cover": {"node_costs": {"a": "3", "b": "2", "c": "5/2", "d": "1", "e": "7/3"}},
    "players": [
        {"distribution": [{"type": ["a", "b", "c"], "prob": "1/3"},
                          {"type": ["b", "d", "e"], "prob": "2/3"}]},
        {"distribution": [{"type": ["a", "c", "e"], "prob": "1/2"},
                          {"type": ["b", "c", "d"], "prob": "1/2"}]},
        {"distribution": [{"type": ["a", "b", "e"], "prob": "3/4"},
                          {"type": ["c", "d", "e"], "prob": "1/4"}]},
    ],
}


def point_mass(t):
    return PlayerSpec(distribution=((t, Fraction(1)),))


def uniform(types):
    p = Fraction(1, len(types))
    return PlayerSpec(distribution=tuple((t, p) for t in types))


def profile_actions(s, type_profile):
    """The actions profile s plays on one realized type profile."""
    return tuple(s[i][t] for i, t in enumerate(type_profile))


def mst_over_terminals(d, terminals) -> tuple[EdgeSet, Fraction]:
    """Kruskal on the metric-closure clique restricted to `terminals`, with
    d the distance function of `metric_closure`: a reference bound between
    the Steiner optimum and twice it."""
    terms = sorted(set(terminals))
    if not terms:
        raise ValueError("terminal set must be nonempty")
    pairs = sorted(
        ((d(a, (b,)), (a, b)) for a, b in itertools.combinations(terms, 2))
    )
    parent = {t: t for t in terms}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen = []
    total = Fraction(0)
    for cost, (a, b) in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
            total += cost
    es = EdgeSet(edges=frozenset(chosen), cost=total)
    return es, total


def connects_to_root(g: Graph, edges: Iterable, clients: Iterable) -> bool:
    """Whether `edges` connect every client to g's root: membership in the
    Steiner scheme's solution set Sol(U)."""
    comp = _components(g.nodes, edges)
    return all(comp[c] == comp[g.root] for c in clients)


def edge_set_cost(g: Graph, edges: Iterable) -> Fraction:
    """The total cost of an edge set of g."""
    return sum((g.cost(e) for e in edges), Fraction(0))


def lex_dijkstra_reference(neighbors, source: str) -> dict[str, tuple]:
    """node -> (cost, node sequence) of its cheapest path from `source`,
    ties to the least node sequence, over the node names themselves: a heap
    of (cost, sequence) whose first pop of a node is its answer.  It shares
    no code with the index-and-mask kernel in `graphs`."""
    heap = [(0, (source,))]
    best: dict[str, tuple] = {}
    while heap:
        cost, seq = heapq.heappop(heap)
        if seq[-1] in best:
            continue
        best[seq[-1]] = (cost, seq)
        for nxt, c in neighbors(seq[-1]):
            if nxt not in best:
                heapq.heappush(heap, (cost + c, seq + (nxt,)))
    return best


def neighbors(g: Graph) -> dict[str, list[tuple[str, Fraction]]]:
    """Node -> sorted (neighbour, `Fraction` cost) list, built from the
    edges alone, so the oracles below share no adjacency with the code
    they check."""
    adj = {v: [] for v in g.nodes}
    for (u, v), c in g.edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    return {v: sorted(pairs) for v, pairs in adj.items()}


def _candidate_key(cost: Fraction, edges: frozenset) -> tuple:
    return (cost, tuple(sorted(edges)))


def steiner_tree_reference(g: Graph, terminals: Iterable[str]) -> EdgeSet:
    """The Dreyfus-Wagner Steiner DP as first written, kept only as the test
    oracle of `steiner_tree_exact`: one `shortest_path` from each terminal
    to each node, union costs re-summed and (cost, sorted edges) keys built
    for every candidate, the tree read at the highest terminal.  Same edge
    set and tie-break, slower."""
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
            p = shortest_path(g, t, v)
            dp[(v, frozenset([t]))] = (p.cost, p.edges)

    base = terms[-1]
    rest = terms[:-1]
    adj = neighbors(g)
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
                        cost = edge_set_cost(g, edges)
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
                for nxt, c in adj[v]:
                    edges = edges_v | {edge_key(v, nxt)}
                    cost = edge_set_cost(g, edges)
                    cand = (cost, edges)
                    if nxt not in labels or _candidate_key(*cand) < _candidate_key(*labels[nxt]):
                        labels[nxt] = cand
                        heapq.heappush(heap, (_candidate_key(*cand), nxt))
            for v, sol in labels.items():
                dp[(v, X)] = sol

    cost, edges = dp[(base, frozenset(rest))]
    return EdgeSet(edges=frozenset(edges), cost=cost)


class SteinerLabelsReference:
    """The graph's Dreyfus-Wagner table as first written on frozensets, kept
    as the oracle of the bitmask labels of `graphs._SteinerTable`:
    labels(X)[v] = (integer cost, edge set) connecting {v} | X for a
    frozenset X of terminals, ranked by (cost, sorted edge tuple), the
    tuple built for every candidate."""

    def __init__(self, g: Graph):
        self.nodes = g.nodes
        self.scale = math.lcm(*(c.denominator for _, c in g.edges))
        self.cost = {e: int(c * self.scale) for e, c in g.edges}
        self.adj = {
            v: [(nxt, self.cost[edge_key(v, nxt)]) for nxt, _ in pairs]
            for v, pairs in neighbors(g).items()
        }
        self.comp = _components(g.nodes, self.cost)
        self.paths = {v: lex_dijkstra_reference(self.adj.__getitem__, v) for v in g.nodes}
        self.dp: dict[frozenset, dict[str, tuple[int, frozenset]]] = {}

    def labels(self, X: frozenset) -> dict[str, tuple[int, frozenset]]:
        if X not in self.dp:
            self.dp[X] = self._build(X)
        return self.dp[X]

    def _build(self, X: frozenset) -> dict[str, tuple[int, frozenset]]:
        if len(X) == 1:
            (t,) = X
            labels = {}
            for v in self.nodes:
                if self.comp[v] == self.comp[t]:
                    cost, seq = self.paths[t][v]
                    labels[v] = (cost, frozenset(edge_key(a, b) for a, b in zip(seq, seq[1:])))
            return labels
        anchor = min(X)
        others = sorted(X - {anchor})
        splits = []
        for r in range(len(others)):
            for part in itertools.combinations(others, r):
                X1 = frozenset(part) | {anchor}
                splits.append((self.labels(X1), self.labels(X - X1)))
        labels: dict[str, tuple[int, frozenset]] = {}
        keys: dict[str, tuple] = {}
        for v in self.nodes:
            best = best_key = None
            for dp1, dp2 in splits:
                s1 = dp1.get(v)
                s2 = dp2.get(v)
                if s1 is None or s2 is None:
                    continue
                edges = s1[1] | s2[1]
                cost = s1[0] + s2[0] - sum(self.cost[e] for e in s1[1] & s2[1])
                key = (cost, tuple(sorted(edges)))
                if best_key is None or key < best_key:
                    best, best_key = (key[0], edges), key
            if best is not None:
                labels[v] = best
                keys[v] = best_key[1]
        heap = [(c, keys[v], v) for v, (c, _) in labels.items()]
        heapq.heapify(heap)
        settled = set()
        while heap:
            cost_v, key, v = heapq.heappop(heap)
            if v in settled or key != keys[v]:
                continue
            settled.add(v)
            edges_v = labels[v][1]
            for nxt, c in self.adj[v]:
                e = edge_key(v, nxt)
                cost = cost_v if e in edges_v else cost_v + c
                edges = edges_v | {e}
                key = tuple(sorted(edges))
                label = labels.get(nxt)
                if label is not None and (cost, key) >= (label[0], keys[nxt]):
                    continue
                labels[nxt] = (cost, edges)
                keys[nxt] = key
                heapq.heappush(heap, (cost, key, nxt))
        return labels


def _all_simple_paths_reference(g: Graph, s: str, target: str) -> list[tuple[str, ...]]:
    adj = neighbors(g)
    out = []

    def dfs(seq, seen):
        for nxt, _ in adj[seq[-1]]:
            if nxt in seen:
                continue
            if nxt == target:
                out.append(seq + (nxt,))
            else:
                dfs(seq + (nxt,), seen | {nxt})

    dfs((s,), {s})
    out.sort()
    return out


def feasible_actions_reference(inst: GameInstance, i: int, t) -> list[Action]:
    """`games.feasible_actions` as first written, kept as the oracle of its
    iterative walk: a recursive walk of `neighbors`, the paths sorted, and
    the actions deduplicated before a sort by sorted element tuple."""

    def path_action(seq):
        edges = frozenset(edge_key(a, b) for a, b in zip(seq, seq[1:]))
        return Action(elements=edges, cost=edge_set_cost(inst.graph, edges))

    if inst.kind == "multicast":
        if t == inst.graph.root:
            return [EMPTY_ACTION]
        seqs = _all_simple_paths_reference(inst.graph, t, inst.graph.root)
        if not seqs:
            raise NoFeasibleActionError(f"no path from {t!r} to root")
        acts = [path_action(seq) for seq in seqs]
    elif inst.kind == "source-sink":
        s, r = t
        if s == r:
            return [EMPTY_ACTION]
        seqs = _all_simple_paths_reference(inst.graph, s, r)
        if not seqs:
            raise NoFeasibleActionError(f"no path from {s!r} to {r!r}")
        acts = [path_action(seq) for seq in seqs]
    else:
        costs = dict(inst.node_costs)
        acts = [Action(elements=frozenset([n]), cost=costs[n]) for n in sorted(set(t))]
    return sorted(set(acts), key=lambda a: tuple(sorted(a.elements)))


def multicast(graph, *specs):
    return GameInstance(kind="multicast", players=tuple(specs), graph=graph)


def long_path_game(n=1200):
    """A multicast game on an n-node path, the root at one end and the one
    player's source at the other: the only path is longer than Python's
    default recursion limit."""
    nodes = [f"v{j:04d}" for j in range(n)]
    g = graph_from_costs({(a, b): 1 for a, b in zip(nodes, nodes[1:])}, nodes=nodes, root=nodes[0])
    return multicast(g, point_mass(nodes[-1]))


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


# ---------------------------------------------------------------------------
# The closed-form expectations as first written, in `Fraction` arithmetic:
# the oracle of the integer sums in `games`.  `use_probabilities_reference`
# gives the probabilities themselves, not numerators over a denominator.


def use_row_reference(spec: PlayerSpec, strategy: dict) -> dict:
    """Element -> probability that the player uses it under `strategy`."""
    row: dict = {}
    for t, p in spec.distribution:
        for e in strategy[t].elements:
            row[e] = row.get(e, 0) + p
    return row


def use_probabilities_reference(inst: GameInstance, s: tuple) -> list[dict]:
    """The table q of profile s: row j is player j's `use_row`."""
    return [use_row_reference(spec, strategy) for spec, strategy in zip(inst.players, s)]


def _users_law(D: int, entries) -> list[int]:
    """Law of the user count of players using an element with probabilities a / D,
    a in `entries`: entry k is P(k users) times D^len(entries).  Poisson-binomial
    DP, O(u^2): the oracle of the packed products in `games`."""
    law = [1]
    for a in entries:
        b = D - a
        law = [x * b + y * a for x, y in zip(law + [0], [0] + law)]
    return law


def count_law_reference(q: list[dict], e, skip: Optional[int] = None) -> list[Fraction]:
    """Exact law of the number of players other than `skip` using e, each
    player j independently with probability q[j][e]: entry k is the
    probability of k users (Poisson-binomial DP, O(n^2))."""
    law = [Fraction(1)]
    for j, row in enumerate(q):
        p = row.get(e, 0)
        if p and j != skip:
            law = [a * (1 - p) + b * p for a, b in zip(law + [0], [0] + law)]
    return law


def action_cost_reference(inst: GameInstance, q: list[dict], i: int, action: Action) -> Fraction:
    """Expected fair-share cost to player i of `action` when the others use
    elements with the probabilities q: sum of c_e * E[1/(1 + N_{-i,e})]."""
    return sum(
        (
            inst.element_cost(e)
            * sum(w / (k + 1) for k, w in enumerate(count_law_reference(q, e, skip=i)))
            for e in action.elements
        ),
        Fraction(0),
    )


def expected_social_cost_reference(inst: GameInstance, s: tuple) -> Fraction:
    """Sum over elements e of c_e * P(some player uses e)."""
    q = use_probabilities_reference(inst, s)
    return sum(
        (
            inst.element_cost(e) * (1 - math.prod(1 - row.get(e, 0) for row in q))
            for e in set().union(*q)
        ),
        Fraction(0),
    )


def expected_potential_reference(inst: GameInstance, s: tuple) -> Fraction:
    """Sum over elements e of c_e * E[H_N], N the number of users of e."""
    q = use_probabilities_reference(inst, s)
    return sum(
        (
            inst.element_cost(e)
            * sum(w * harmonic(k) for k, w in enumerate(count_law_reference(q, e)))
            for e in set().union(*q)
        ),
        Fraction(0),
    )


def augment_reference(g: Graph, solution: EdgeSet, x) -> EdgeSet:
    """The Steiner scheme's augmentation as first written, kept as the oracle
    of its single Dijkstra: one `shortest_path` per node on the tree (or the
    root), keeping the least (cost, node sequence)."""
    touched = {g.root} | {n for e in solution.edges for n in e}
    if x in touched:
        return EdgeSet(edges=frozenset(), cost=Fraction(0))
    # Shortest path from x to the nearest node already on the tree.
    best = None
    for target in sorted(touched):
        p = shortest_path(g, x, target)
        key = (p.cost, p.nodes)
        if best is None or key < best[0]:
            best = (key, p)
    return EdgeSet(edges=best[1].edges, cost=best[1].cost)


def restricted_action_reference(g: Graph, allowed: frozenset, source: str) -> Action:
    """The sampling construction's restricted action as first written, kept
    as the oracle of its filtered Dijkstra: a new `Graph` on the allowed
    edges and one `shortest_path` from the source to the root."""
    if source == g.root:
        return Action(elements=frozenset(), cost=Fraction(0))
    sub = Graph(
        nodes=g.nodes,
        edges=tuple((e, g.cost(e)) for e in sorted(allowed)),
        root=g.root,
    )
    p = shortest_path(sub, source, g.root)
    return Action(elements=p.edges, cost=p.cost)


def steiner_forest_edges_reference(g: Graph, pairs) -> EdgeSet:
    """`steiner_forest_exact` as first written, kept as the oracle of the
    shared-memo `graphs.SteinerForests`: F over every mask of this call's
    own sorted pair list, bottom up, blocks tried by size and then in
    `itertools.combinations` order, a later block winning only when strictly
    cheaper, and the trees read from the graph's Steiner table."""
    pair_list = sorted({edge_key(u, v) for u, v in pairs if u != v})
    if not pair_list:
        return EdgeSet(edges=frozenset(), cost=Fraction(0))
    table, comp = g._steiner, _components(g.nodes, g.edge_keys())
    for u, v in pair_list:
        if u not in comp or v not in comp or comp[u] != comp[v]:
            raise DisconnectedError(f"pair ({u!r}, {v!r}) not connected in graph")
    trees: dict = {}

    def block_tree(block: int):
        if block not in trees:
            ends = sorted({n for i, p in enumerate(pair_list) if block >> i & 1 for n in p})
            one_component = len({comp[n] for n in ends}) == 1
            if one_component:
                cost, mask = table.span(sum(1 << g.index[n] for n in ends))
                trees[block] = (cost, table.edge_set(mask).edges)
            else:
                trees[block] = None
        return trees[block]

    F: dict = {0: (0, ())}
    for mask in range(1, 1 << len(pair_list)):
        first = mask & -mask
        others = [1 << i for i in range(len(pair_list)) if (mask ^ first) >> i & 1]
        best = None
        for r in range(len(others) + 1):
            for part in itertools.combinations(others, r):
                block = first | sum(part)
                tree = block_tree(block)
                if tree is None:
                    continue
                cost, blocks = F[mask ^ block]
                if best is None or tree[0] + cost < best[0]:
                    best = (tree[0] + cost, (block,) + blocks)
        F[mask] = best
    cost, blocks = F[(1 << len(pair_list)) - 1]
    edges = frozenset().union(*(trees[b][1] for b in blocks))
    return EdgeSet(edges=edges, cost=Fraction(cost, table.scale))


def steiner_forest_reference(g: Graph, pairs) -> Fraction:
    """Steiner forest cost as the cheapest partition of the pairs into
    blocks, each block priced by `steiner_tree_reference` on its endpoints;
    a block whose endpoints are not mutually reachable is skipped.
    Independent of the shared table and of the edge-subset enumeration."""
    pair_list = sorted({edge_key(u, v) for u, v in pairs if u != v})

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for r in range(len(rest) + 1):
            for part in itertools.combinations(rest, r):
                remaining = [p for p in rest if p not in part]
                for tail in partitions(remaining):
                    yield [(first,) + part] + tail

    best = None
    for blocks in partitions(pair_list):
        total = Fraction(0)
        for block in blocks:
            try:
                total += steiner_tree_reference(g, {n for p in block for n in p}).cost
            except DisconnectedError:
                break
        else:
            if best is None or total < best:
                best = total
    if best is None:
        raise DisconnectedError("some pair is not connected")
    return best


def terminal_law_reference(inst: GameInstance) -> dict:
    """The grouped enumeration that `expected_opt` first used, kept as the
    oracle of `games._terminal_law`: every type profile in canonical order,
    grouped by its sorted terminal tuple into [first type profile, total
    `Fraction` weight], groups in order of first appearance."""
    terminal = {
        t: _terminal(inst, t) for spec in inst.players for t, _ in spec.distribution
    }
    groups: dict = {}
    for tp, w in type_profiles(inst):
        key = tuple(sorted({terminal[t] for t in tp} - {None}))
        group = groups.setdefault(key, [tp, Fraction(0)])
        group[1] += w
    return groups


def sweep_reference(inst: GameInstance) -> tuple:
    """The strategy sweep as first written, kept as the oracle of the
    depth-first `equilibria._sweep`: every profile of `all_strategy_profiles`
    priced from scratch, s* and s~ the first strict minimizers, and the rows
    that cost at most the running minimum potential kept as candidates, by
    cost and then in canonical order (a stable sort of the enumeration).
    Returns the rows (s*, s~, candidates)."""
    s_star = s_tilde = None
    candidates = []
    for s in all_strategy_profiles(inst):
        row = _Row(expected_social_cost(inst, s), expected_potential(inst, s), s)
        if s_star is None or row.potential < s_star.potential:
            s_star = row
        if s_tilde is None or row.cost < s_tilde.cost:
            s_tilde = row
        if row.cost <= s_star.potential:
            candidates.append(row)
    candidates.sort(key=lambda r: r.cost)
    return s_star, s_tilde, candidates


def verify_bne_reference(inst: GameInstance, s: tuple) -> EquilibriumReport:
    """`verify_bne` as first written, kept as its oracle: a menu scan that
    prices the incumbent and every menu action by `interim_cost`."""
    worst = None
    for i, entries in enumerate(inst.menus):
        for t, menu in entries:
            current = interim_cost(inst, s, i, t, s[i][t])
            for alt in menu:
                gap = current - interim_cost(inst, s, i, t, alt)
                if gap > 0 and (worst is None or gap > worst[3]):
                    worst = (i, t, alt, gap)
    return EquilibriumReport(profile=s, is_bne=worst is None, worst_violation=worst)


def best_response_dynamics_reference(
    inst: GameInstance, s0: tuple, max_rounds: int = 1000, profiles: Optional[list] = None
):
    """`best_response_dynamics(..., return_trace=True)` as first written, kept
    as its oracle: every action priced by `interim_cost`, and the expected
    potential recomputed after every move.  `profiles`, when given, receives
    a copy of the start profile and of the profile after each move."""
    s = tuple(dict(p) for p in s0)
    trace = [expected_potential(inst, s)]
    if profiles is not None:
        profiles.append(tuple(dict(p) for p in s))
    for _ in range(max_rounds):
        changed = False
        for i, entries in enumerate(inst.menus):
            for t, menu in entries:
                incumbent = s[i][t]
                best_act = incumbent
                best_val = interim_cost(inst, s, i, t, incumbent)
                for alt in menu:
                    val = interim_cost(inst, s, i, t, alt)
                    if val < best_val:
                        best_act, best_val = alt, val
                if best_act != incumbent:
                    s[i][t] = best_act
                    changed = True
                    trace.append(expected_potential(inst, s))
                    if profiles is not None:
                        profiles.append(tuple(dict(p) for p in s))
        if not changed:
            return s, trace
    raise NoConvergenceError(max_rounds)


def _reference_draws(inst: GameInstance, scheme, variant: str):
    distributions = [inst.players[i].distribution for i in _draw_players(inst, scheme, variant)]
    return weighted_product(inst, distributions, "draw support")


def sample_type_reference(rng: random.Random, distribution):
    u = rng.random()
    acc = 0.0
    for t, p in distribution:
        acc += float(p)
        if u < acc:
            return t
    return distribution[-1][0]


def construction_reference(
    inst: GameInstance, scheme, variant: str, samples: Optional[int] = None, seed: int = 0
) -> ConstructionReport:
    """The sampling construction's evaluations as first written, kept as the
    oracle of `evaluate_construction_exact` (no `samples`) and
    `evaluate_construction_mc`: one `_draw_step` per draw or Monte-Carlo
    sample, every sum in `Fraction`s."""
    if samples is None:
        draws = _reference_draws(inst, scheme, variant)
        opt = expected_opt(inst)
        types = _support_types(inst)
        total = first_stage = augmentation = Fraction(0)
        best_ratio = None
        for D, w in draws:
            base, menu = _draw_step(inst, scheme, _clients(inst, D), types)
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
    dists = [inst.players[i].distribution for i in _draw_players(inst, scheme, variant)]
    rng = random.Random(seed)
    values, first_vals, aug_vals = [], [], []
    for _ in range(samples):
        D = tuple(sample_type_reference(rng, d) for d in dists)
        realized = tuple(sample_type_reference(rng, spec.distribution) for spec in inst.players)
        base, menu = _draw_step(inst, scheme, _clients(inst, D), dict.fromkeys(realized))
        values.append(social_cost(inst, tuple(menu[t][1] for t in realized)))
        first_vals.append(base.cost)
        aug_vals.append(sum((menu[t][0].cost for t in realized), Fraction(0)))
    mean = sum(values, Fraction(0)) / samples
    if samples > 1:
        var = sum((float(v - mean) ** 2 for v in values)) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = float("inf")
    bound = (scheme.alpha + scheme.beta) * expected_opt(inst)
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


def derandomize_reference(inst: GameInstance, scheme, variant: str):
    """`derandomize` as first written, kept as its oracle: every draw's
    profile built and priced, the least (cost, draw) kept."""
    types = _support_types(inst)
    built = (
        (D, _profile(inst, _draw_step(inst, scheme, _clients(inst, D), types)[1]))
        for D, _ in _reference_draws(inst, scheme, variant)
    )
    D, s = min(built, key=lambda c: (expected_social_cost(inst, c[1]), c[0]))
    return SampleProfile(types=D), s
