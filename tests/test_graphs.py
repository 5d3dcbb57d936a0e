import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgames
from netgames import graphs
from netgames import (
    graph_from_costs,
    metric_closure,
    steiner_forest_exact,
    steiner_tree_exact,
)
from netgames.errors import (
    DisconnectedError,
    InfeasibleError,
    NetgamesError,
    PreconditionError,
    TooLargeError,
    UnreachableError,
)
from netgames.costsharing import steiner_scheme
from netgames.games import ex_post_opt, expected_opt
from netgames.graphs import (
    DEFAULT_EDGE_CAP,
    DEFAULT_NODE_CAP,
    Graph,
    SteinerForests,
    _SteinerTable,
    _components,
    cover_exact,
    edge_key,
    min_feasible_subset_bruteforce,
    shortest_path,
)
from netgames.instances import gen_instance
from netgames.sampling import evaluate_construction_exact

from conftest import (
    SteinerLabelsReference,
    _all_simple_paths_reference,
    edge_set_cost,
    mst_over_terminals,
    random_connected_graph,
    steiner_forest_edges_reference,
    steiner_forest_reference,
    steiner_tree_reference,
)

SRC = os.path.dirname(os.path.dirname(netgames.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def path_graph():
    return graph_from_costs({("a", "b"): Fraction(1), ("b", "c"): Fraction(1)})


class TestGraphValidation:
    @pytest.mark.parametrize(
        "edges, root, message",
        [
            ({("a", "a"): 1}, None, "self-loop at 'a'"),
            ({("a", "b"): 1, ("b", "a"): 2}, None, r"duplicate edge \('a', 'b'\)"),
            ({("a", "x"): 1}, None, r"edge \('a', 'x'\) references unknown node"),
            ({("a", "b"): -1}, None, r"negative cost on edge \('a', 'b'\)"),
            ({("a", "b"): 1}, "r", "root 'r' not a node"),
        ],
        ids=["self-loop", "duplicate-edge", "unknown-node", "negative-cost", "bad-root"],
    )
    def test_malformed_graph_raises_a_netgames_error(self, edges, root, message):
        with pytest.raises(NetgamesError, match=f"^{message}$") as err:
            Graph(nodes=("a", "b"), edges=tuple(edges.items()), root=root)
        assert isinstance(err.value, PreconditionError)


class TestShortestPath:
    def test_triangle(self, triangle):
        p = shortest_path(triangle, "a", "r")
        assert p.nodes == ("a", "r")
        assert p.cost == 2

    def test_identity(self, triangle):
        p = shortest_path(triangle, "a", "a")
        assert p.nodes == ("a",) and p.cost == 0 and not p.edges

    def test_unique_path(self):
        p = shortest_path(path_graph(), "a", "c")
        assert p.nodes == ("a", "b", "c") and p.cost == 2

    def test_unreachable(self):
        g = graph_from_costs({("a", "b"): Fraction(1)}, nodes=["a", "b", "z"])
        with pytest.raises(UnreachableError):
            shortest_path(g, "a", "z")

    @pytest.mark.parametrize("seed", range(4))
    def test_least_cost_then_node_sequence_over_all_simple_paths(self, seed):
        """The tie rule against plain enumeration, which shares no code with
        the Dijkstra kernel: on random graphs with costs in {0, 1, 2}, the
        path is the least (cost, node sequence) of all simple u-v paths."""
        rng = random.Random(seed)
        for _ in range(100):
            g = random_connected_graph(rng, max_nodes=7, max_edges=14, costs=(0, 1, 2))
            for u, v in itertools.permutations(g.nodes, 2):
                best = min(
                    (sum(g.cost(edge_key(a, b)) for a, b in zip(seq, seq[1:])), seq)
                    for seq in _all_simple_paths_reference(g, u, v)
                )
                p = shortest_path(g, u, v)
                assert (p.cost, p.nodes) == best
                assert p.edges == frozenset(edge_key(a, b) for a, b in zip(p.nodes, p.nodes[1:]))

    def test_matches_bruteforce_enumeration(self, triangle):
        # Brute-force all simple a->r paths on the triangle.
        candidates = [(("a", "r"), Fraction(2)), (("a", "b", "r"), Fraction(3))]
        best = min(candidates, key=lambda x: (x[1], x[0]))
        p = shortest_path(triangle, "a", "r")
        assert (p.nodes, p.cost) == best

    def test_lexicographic_tie_break(self):
        g = graph_from_costs(
            {("a", "b"): Fraction(1), ("b", "d"): Fraction(1),
             ("a", "c"): Fraction(1), ("c", "d"): Fraction(1)}
        )
        assert shortest_path(g, "a", "d").nodes == ("a", "b", "d")


class TestMetricClosure:
    """`metric_closure(g)` is the distance function d(x, targets) =
    `nearest(g, x, targets).cost`, with `nearest`'s errors."""

    def test_triangle(self, triangle):
        d = metric_closure(triangle)
        assert d("a", ("b",)) == 1
        assert d("a", ("r",)) == 2
        assert d("b", ("r",)) == 2

    def test_single_node(self):
        g = graph_from_costs({}, nodes=["x"])
        d = metric_closure(g)
        assert d("x", ("x",)) == 0

    def test_path(self):
        assert metric_closure(path_graph())("a", ("c",)) == 2

    def test_disconnected(self):
        g = graph_from_costs({("a", "b"): Fraction(1)}, nodes=["a", "b", "z"])
        with pytest.raises(DisconnectedError):
            metric_closure(g)

    def test_metric_invariants_random(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected_graph(rng)
            d = metric_closure(g)
            for u, v in itertools.combinations(g.nodes, 2):
                assert d(u, (v,)) == d(v, (u,)) > 0
                if edge_key(u, v) in dict(g.edges):
                    assert d(u, (v,)) <= g.cost((u, v) if u <= v else (v, u))
            for u, v, w in itertools.permutations(g.nodes, 3):
                assert d(u, (w,)) <= d(u, (v,)) + d(v, (w,))

    @pytest.mark.parametrize("costs", [[0, 1, 2], None], ids=["costs-0-1-2", "fractional"])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_shortest_path_on_every_ordered_pair(self, seed, costs):
        g = random_connected_graph(random.Random(seed), max_nodes=7, max_edges=12, costs=costs)
        d = metric_closure(g)
        for u in g.nodes:
            for v in g.nodes:
                assert d(u, (v,)) == shortest_path(g, u, v).cost

    def test_unknown_nodes(self, triangle):
        """An unknown x raises UnreachableError(x, least target) even when x
        is among the targets (d(u, {u}) is no longer 0 for an unknown u),
        and runs no Dijkstra."""
        d = metric_closure(triangle)
        for targets, least in ((("zz",), "zz"), (("b", "zz"), "b")):
            for order in itertools.permutations(targets):
                for collection in (list(order), set(order)):
                    with pytest.raises(UnreachableError) as err:
                        d("zz", collection)
                    assert (err.value.u, err.value.v) == ("zz", least)
        assert triangle._steiner._paths == {}

    @pytest.mark.parametrize("costs", [[0, 1, 2], None], ids=["costs-0-1-2", "fractional"])
    @pytest.mark.parametrize("seed", range(20))
    def test_d_to_set_is_the_least_distance(self, seed, costs):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_nodes=7, max_edges=12, costs=costs)
        d = metric_closure(g)
        nodes = sorted(g.nodes)
        for x in nodes:
            for _ in range(4):
                targets = set(rng.sample(nodes, rng.randint(1, len(nodes))))
                assert d(x, targets) == min(d(x, (t,)) for t in targets)

    def test_d_to_set_unknown_nodes(self, triangle):
        """Unknown targets of a known x raise KeyError(least unknown
        target), for every order of the targets."""
        d = metric_closure(triangle)
        cases = ((("zz", "yy"), "yy"), (("a", "zz"), "zz"), (("r", "yy", "zz", "b"), "yy"))
        for targets, least in cases:
            for order in itertools.permutations(targets):
                for collection in (list(order), set(order)):
                    with pytest.raises(KeyError) as err:
                        d("a", collection)
                    assert err.value.args == (least,)

    def test_d_to_set_names_the_least_target(self, triangle):
        """An unknown x names its least target, whatever the order of the
        collection."""
        d = metric_closure(triangle)
        for order in itertools.permutations(["r", "b", "a"]):
            for collection in (list(order), set(order)):
                with pytest.raises(UnreachableError) as err:
                    d("zz", collection)
                assert (err.value.u, err.value.v) == ("zz", "a")

    @pytest.mark.parametrize("x", ["a", "r", "zz"])
    def test_empty_target_set(self, triangle, x):
        """An empty target set is refused before x is looked up."""
        d = metric_closure(triangle)
        for query in (lambda: d(x, set()), lambda: graphs.nearest(triangle, x, [])):
            with pytest.raises(PreconditionError, match="^target set must be nonempty$"):
                query()

    def test_nearest_names_the_least_unreachable_target(self):
        """Targets that x does not reach raise KeyError of the least of
        them, whatever the order of the collection."""
        g = graph_from_costs({("a", "b"): 1, ("c", "d"): 1, ("e", "f"): 1})
        with pytest.raises(KeyError) as err:
            graphs.nearest(g, "a", ["d", "c", "f", "e"])
        assert err.value.args == ("c",)


class TestMst:
    def test_triangle_terminals(self, triangle):
        m = metric_closure(triangle)
        es, cost = mst_over_terminals(m, {"r", "a", "b"})
        assert cost == 3
        assert es.edges == frozenset({("a", "b"), ("a", "r")})

    def test_singleton(self, triangle):
        es, cost = mst_over_terminals(metric_closure(triangle), {"a"})
        assert cost == 0 and not es.edges

    def test_pair(self, triangle):
        _, cost = mst_over_terminals(metric_closure(triangle), {"a", "r"})
        assert cost == 2

    def test_two_approximation_random(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_connected_graph(rng)
            m = metric_closure(g)
            k = rng.randint(1, len(g.nodes))
            terms = set(rng.sample(list(g.nodes), k))
            _, mst_cost = mst_over_terminals(m, terms)
            st = steiner_tree_exact(g, terms)
            assert st.cost <= mst_cost <= 2 * st.cost


def connectivity_predicate(g, terminals):
    terms = sorted(terminals)

    def feasible(edges):
        comp = _components(g.nodes, edges)
        return all(comp[t] == comp[terms[0]] for t in terms)

    return feasible


class TestSteinerTree:
    def test_pair(self, triangle):
        st = steiner_tree_exact(triangle, {"a", "r"})
        assert st.edges == frozenset({("a", "r")}) and st.cost == 2

    def test_three_terminals_lex_tie(self, triangle):
        st = steiner_tree_exact(triangle, {"a", "b", "r"})
        assert st.cost == 3
        # Lexicographically smallest among the two optimal trees.
        assert st.edges == frozenset({("a", "b"), ("a", "r")})

    def test_no_terminals(self, triangle):
        with pytest.raises(PreconditionError, match="terminal set must be nonempty"):
            steiner_tree_exact(triangle, [])

    def test_single_terminal(self, triangle):
        st = steiner_tree_exact(triangle, {"b"})
        assert st.cost == 0 and not st.edges

    def test_disconnected(self):
        g = graph_from_costs({("a", "b"): Fraction(1)}, nodes=["a", "b", "z"])
        with pytest.raises(DisconnectedError):
            steiner_tree_exact(g, {"a", "z"})

    def test_unknown_terminal(self, triangle):
        with pytest.raises(DisconnectedError, match=r"^terminal 'zz' not in graph$"):
            steiner_tree_exact(triangle, {"a", "zz"})

    def test_oracle_agreement_random(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_connected_graph(rng)
            k = rng.randint(1, len(g.nodes))
            terms = set(rng.sample(list(g.nodes), k))
            st = steiner_tree_exact(g, terms)
            oracle = min_feasible_subset_bruteforce(
                g, connectivity_predicate(g, terms)
            )
            assert st.cost == oracle.cost

    def test_opt_monotone_in_terminals(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_connected_graph(rng)
            nodes = list(g.nodes)
            small = set(rng.sample(nodes, rng.randint(1, len(nodes) - 1)))
            large = small | set(rng.sample(nodes, rng.randint(1, len(nodes))))
            assert (
                steiner_tree_exact(g, small).cost
                <= steiner_tree_exact(g, large).cost
            )

    @pytest.mark.parametrize(
        "costs", [(0, 1, 2), (0, Fraction(1, 2), 1, Fraction(3, 2))], ids=["int", "half"]
    )
    def test_tie_break_matches_reference_on_tie_heavy_graphs(self, costs):
        """Costs in {0, 1, 2} make many optimal trees: the edge set chosen
        among them must be the reference DP's, not only its cost."""
        rng = random.Random(29)
        for _ in range(80):
            g = random_connected_graph(rng, max_nodes=8, max_edges=14, costs=costs)
            k = rng.randint(1, min(5, len(g.nodes)))
            terms = set(rng.sample(list(g.nodes), k))
            st, ref = steiner_tree_exact(g, terms), steiner_tree_reference(g, terms)
            assert (st.cost, sorted(st.edges)) == (ref.cost, sorted(ref.edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_break_matches_reference_on_generated_graphs(self, seed):
        g = gen_instance("multicast", n_nodes=7, n_players=2, seed=seed).graph
        for k in range(1, 6):
            for terms in itertools.combinations(g.nodes, k):
                st, ref = steiner_tree_exact(g, terms), steiner_tree_reference(g, terms)
                assert (st.cost, sorted(st.edges)) == (ref.cost, sorted(ref.edges))


class TestSteinerForest:
    def test_single_pair(self, triangle):
        f = steiner_forest_exact(triangle, {("a", "r")})
        assert f.cost == 2

    def test_empty(self, triangle):
        f = steiner_forest_exact(triangle, set())
        assert f.cost == 0 and not f.edges

    def test_two_pairs(self, triangle):
        f = steiner_forest_exact(triangle, {("a", "b"), ("a", "r")})
        assert f.cost == 3

    def test_no_edge_cap(self):
        """Forests are built from Steiner trees, not by edge-subset
        enumeration, so a graph past the enumeration cap still solves."""
        n = DEFAULT_EDGE_CAP + 5
        g = graph_from_costs({(f"p{j:02d}", f"p{j + 1:02d}"): Fraction(1) for j in range(n)})
        with pytest.raises(TooLargeError):
            min_feasible_subset_bruteforce(g, lambda edges: True)
        f = steiner_forest_exact(g, {("p00", f"p{n:02d}"), ("p03", "p07")})
        assert f.cost == n and len(f.edges) == n

    def test_matches_tree_on_shared_root(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_connected_graph(rng, max_nodes=5, max_edges=8)
            r = g.nodes[0]
            others = [n for n in g.nodes if n != r]
            sources = rng.sample(others, rng.randint(1, len(others)))
            f = steiner_forest_exact(g, {(s, r) for s in sources})
            st = steiner_tree_exact(g, set(sources) | {r})
            assert f.cost == st.cost


    @pytest.mark.parametrize(
        "costs", [(0, 1, 2), (0, Fraction(1, 2), 1)], ids=["int", "half"]
    )
    def test_matches_bruteforce_on_tie_heavy_graphs(self, costs):
        """Cost equal to the edge-subset oracle's; the edges connect every
        pair and cost exactly the reported cost."""
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng, max_nodes=7, max_edges=11, costs=costs)
            pairs = random_pairs(rng, g.nodes, rng.randint(1, 4))
            f = steiner_forest_exact(g, pairs)
            oracle = min_feasible_subset_bruteforce(g, pairs_predicate(g, pairs))
            assert f.cost == oracle.cost
            assert pairs_predicate(g, pairs)(f.edges)
            assert edge_set_cost(g, f.edges) == f.cost

    def test_pairs_in_different_components(self):
        """Pairs in two components of a disconnected graph solve; blocks
        that would join the components are skipped, not raised."""
        rng = random.Random(37)
        for _ in range(30):
            g = two_component_graph(rng)
            left = [n for n in g.nodes if n.startswith("L")]
            right = [n for n in g.nodes if n.startswith("R")]
            pairs = random_pairs(rng, left, rng.randint(1, 2))
            pairs |= random_pairs(rng, right, rng.randint(1, 2))
            f = steiner_forest_exact(g, pairs)
            oracle = min_feasible_subset_bruteforce(g, pairs_predicate(g, pairs))
            assert f.cost == oracle.cost == steiner_forest_reference(g, pairs)
            assert pairs_predicate(g, pairs)(f.edges)
            with pytest.raises(DisconnectedError):
                steiner_forest_exact(g, pairs | {(left[0], right[0])})

    def test_components_against_the_recurrence(self):
        """On graphs of 1-4 components whose node names interleave, with
        zero-cost edges for ties, the forest solved one component at a time
        has the cost and edges of the recurrence over every block, and pair
        sets that cross components raise the same error."""
        rng = random.Random(73)
        solved = crossed = spanning = 0
        for _ in range(600):
            g, parts = multi_component_graph(rng)
            for _ in range(6):
                pairs = []
                for _ in range(rng.randint(1, 5)):
                    if rng.random() < 0.1:
                        pairs.append((rng.choice(g.nodes), rng.choice(g.nodes)))
                    else:
                        part = rng.choice([p for p in parts if len(p) > 1] or parts)
                        pairs.append((rng.choice(part), rng.choice(part)))
                got = forest_outcome(steiner_forest_exact, g, pairs)
                assert got == forest_outcome(steiner_forest_edges_reference, fresh(g), pairs)
                solved += type(got[0]) is Fraction
                crossed += got[0] is DisconnectedError
                spanning += len({next(p for p in parts if u in p)[0] for u, v in pairs if u != v}) > 1
        assert solved > 2000 and crossed > 300 and spanning > 1000

    def test_disjoint_pairs_build_one_tree_each(self):
        """Ten disjoint unit edges, each pair one edge's ends: the full mask
        costs 10 and builds ten trees, not one entry per block."""
        g = graph_from_costs({(f"a{j}", f"b{j}"): 1 for j in range(10)})
        forests = SteinerForests(g, sorted((f"a{j}", f"b{j}") for j in range(10)))
        assert forests.cost((1 << 10) - 1) == 10
        assert len(forests.trees) == 10

    def test_unknown_node(self, triangle):
        with pytest.raises(DisconnectedError):
            steiner_forest_exact(triangle, {("a", "x")})
        with pytest.raises(DisconnectedError):
            steiner_forest_exact(triangle, {("x", "y")})

    def test_source_sink_instance_past_the_edge_cap(self):
        """A generated source-sink game on 23 edges: brute force refuses
        it; every ex-post optimum equals the partition oracle."""
        inst = gen_instance("source-sink", n_nodes=10, n_players=3, n_types=2, seed=0)
        g = inst.graph
        assert len(g.edges) > DEFAULT_EDGE_CAP
        with pytest.raises(TooLargeError):
            min_feasible_subset_bruteforce(g, lambda edges: True)
        types = [t for spec in inst.players for t, _ in spec.distribution]
        for k in range(1, 4):
            for tp in itertools.combinations(types, k):
                edges, cost = ex_post_opt(inst, tp)
                assert cost == steiner_forest_reference(g, tp)
                assert pairs_predicate(g, tp)(edges)
        assert expected_opt(inst) > 0

    @pytest.mark.parametrize("case", ["tied-pairs", "two-part", "unit-costs"])
    def test_edges_equal_the_per_set_recurrence(self, case):
        """Edges and cost equal those of the recurrence as first written: on
        graphs with costs {0, 1, 2} and repeated, reversed and (s, s) pairs,
        on one side of a two-part graph, and on unit-cost graphs with 3-6
        distinct pairs, where equal-size blocks tie and only the sorted
        block order picks the edges."""
        rng = random.Random(7)
        for _ in range(150):
            if case == "two-part":
                g = two_component_graph(rng)
                side = rng.choice("LR")
                pairs = tied_pairs(rng, [n for n in g.nodes if n.startswith(side)], rng.randint(1, 6))
            elif case == "tied-pairs":
                g = random_connected_graph(rng, max_nodes=7, max_edges=11, costs=(0, 1, 2))
                pairs = tied_pairs(rng, list(g.nodes), rng.randint(1, 6))
            else:
                g = random_connected_graph(rng, max_nodes=8, max_edges=14, costs=(1,))
                pairs = {tuple(rng.sample(list(g.nodes), 2)) for _ in range(rng.randint(3, 6))}
            want = steiner_forest_edges_reference(fresh(g), pairs)
            f = steiner_forest_exact(g, pairs)
            assert (f.cost, sorted(f.edges)) == (want.cost, sorted(want.edges))

    def test_one_memo_serves_every_subset(self):
        """One `SteinerForests` over a sorted pair list, asked for its
        subsets in shuffled order, gives each subset's own forest, and the
        first pair (in sorted order) of a subset that cannot connect names
        the error."""
        rng = random.Random(61)
        for _ in range(25):
            g = two_component_graph(rng)
            pair_list = sorted({edge_key(*p) for p in tied_pairs(rng, list(g.nodes), 6) if p[0] != p[1]})
            forests = SteinerForests(g, pair_list)
            masks = list(range(1 << len(pair_list)))
            rng.shuffle(masks)
            for mask in masks:
                subset = [p for j, p in enumerate(pair_list) if mask >> j & 1]
                try:
                    want = steiner_forest_edges_reference(fresh(g), subset)
                except DisconnectedError as err:
                    with pytest.raises(DisconnectedError, match=f"^{re.escape(str(err))}$"):
                        forests.cost(mask)
                    continue
                cost = Fraction(forests.cost(mask), forests.table.scale)
                edges = forests.table.edge_set(forests.F[mask][1]).edges
                assert (cost, sorted(edges)) == (want.cost, sorted(want.edges))

    def test_edges_do_not_depend_on_the_hash_seed(self):
        script = (
            "import random\n"
            "from conftest import random_connected_graph\n"
            "from test_graphs import tied_pairs\n"
            "from netgames import steiner_forest_exact\n"
            "rng = random.Random(43)\n"
            "for _ in range(60):\n"
            "    costs = rng.choice([(0, 1, 2), (1,)])\n"
            "    g = random_connected_graph(rng, max_nodes=7, max_edges=12, costs=costs)\n"
            "    pairs = tied_pairs(rng, list(g.nodes), rng.randint(1, 6))\n"
            "    f = steiner_forest_exact(g, pairs)\n"
            "    print(f.cost, sorted(f.edges))\n"
        )
        outs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outs.append(run.stdout)
        assert outs[0] and outs[0] == outs[1] == outs[2]


# 200 edges whose sorted order is their index order.
ORDERED_EDGES = [(f"a{j:03d}", f"b{j:03d}") for j in range(200)]
edge_masks = st.one_of(
    st.just(0),
    st.integers(0, 199).map(lambda j: 1 << j),
    st.integers(0, 255),
    st.integers(0, (1 << 200) - 1),
)


class TestLabelOrder:
    """Steiner labels of equal cost rank by their sorted edge tuple, read
    off the edge masks two ways: the relaxation heap's `_tuple_key` and
    the ties' `_sorts_before`."""

    @staticmethod
    def assert_one_order(masks):
        for a, b in itertools.product(masks, repeat=2):
            ta, tb = (tuple(sorted(graphs._decode(ORDERED_EDGES, m))) for m in (a, b))
            ka, kb = graphs._tuple_key(a), graphs._tuple_key(b)
            assert (ka < kb) == graphs._sorts_before(a, b) == (ta < tb)
            assert (ka == kb) == (a == b)

    def test_every_mask_of_six_edges(self):
        self.assert_one_order(range(1 << 6))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_masks, min_size=2, max_size=6))
    def test_random_and_wide_masks(self, masks):
        self.assert_one_order(masks)


class TestSteinerTable:
    """One Dreyfus-Wagner table per graph serves every tree and forest."""

    @pytest.mark.parametrize(
        "costs", [(0, 1, 2), (0, Fraction(1, 2), 1, Fraction(3, 2))], ids=["int", "half"]
    )
    def test_call_order_does_not_matter(self, costs):
        """Terminal sets solved in shuffled orders on one graph match the
        reference DP on a fresh graph, edges and cost."""
        rng = random.Random(47)
        for _ in range(30):
            g = random_connected_graph(rng, max_nodes=8, max_edges=13, costs=costs)
            nodes = list(g.nodes)
            sets = [
                frozenset(rng.sample(nodes, rng.randint(1, min(5, len(nodes)))))
                for _ in range(8)
            ]
            for _ in range(2):
                shared = fresh(g)
                rng.shuffle(sets)
                for terms in sets:
                    st = steiner_tree_exact(shared, terms)
                    ref = steiner_tree_reference(fresh(g), terms)
                    assert (st.cost, sorted(st.edges)) == (ref.cost, sorted(ref.edges))

    @pytest.mark.parametrize(
        "costs", [(0, 1, 2), (0, Fraction(1, 2), 1, Fraction(3, 2))], ids=["int", "half"]
    )
    def test_base_labels_are_the_least_paths_from_the_terminal(self, costs):
        """The base tie rule against plain enumeration, which shares no code
        with the Dijkstra kernel: on tie-heavy graphs with zero-cost edges, a
        singleton {t}'s label at v is the least (cost, node sequence from t)
        simple t-v path, and a tree on two terminals is that path from the
        lower terminal to the higher one."""
        rng = random.Random(83)
        for _ in range(60):
            g = random_connected_graph(rng, max_nodes=7, max_edges=13, costs=costs)
            least = {}
            for t, v in itertools.permutations(g.nodes, 2):
                paths = []  # (cost, node sequence, edges); sequences are distinct
                for seq in _all_simple_paths_reference(g, t, v):
                    edges = frozenset(edge_key(a, b) for a, b in zip(seq, seq[1:]))
                    paths.append((edge_set_cost(g, edges), seq, edges))
                cost, _, edges = min(paths)
                least[t, v] = (cost, edges)
            table = g._steiner
            for t in g.nodes:
                labels = table.labels(1 << g.index[t])
                assert labels[g.index[t]] == (0, 0)
                for v in g.nodes:
                    if v != t:
                        cost, mask = labels[g.index[v]]
                        got = (Fraction(cost, table.scale), table.edge_set(mask).edges)
                        assert got == least[t, v]
            for t, v in itertools.combinations(g.nodes, 2):
                st = steiner_tree_exact(fresh(g), {t, v})
                assert (st.cost, st.edges) == least[t, v]

    def test_two_terminals_read_one_dijkstra(self):
        """A tree on two terminals is the lower terminal's label at the
        higher one: the path between them, read from the lower terminal's
        one Dijkstra.  No other Dijkstra or DP subset is built."""
        nodes = [f"v{j:03d}" for j in range(200)]
        g = graph_from_costs({(a, b): 1 for a, b in zip(nodes, nodes[1:])}, nodes=nodes)
        terms = {nodes[40], nodes[150]}
        st = steiner_tree_exact(g, terms)
        ref = steiner_tree_reference(fresh(g), terms)
        path = sorted(zip(nodes[40:150], nodes[41:151]))
        assert (st.cost, sorted(st.edges)) == (ref.cost, sorted(ref.edges)) == (110, path)
        assert list(g._steiner._paths) == [40]
        assert list(g._steiner.dp) == [1 << 40]

    def test_disconnected_graphs(self):
        """Solves and DisconnectedErrors interleave on one graph without
        changing any later answer."""
        rng = random.Random(53)
        for _ in range(25):
            g = two_component_graph(rng)
            nodes = list(g.nodes)
            sets = [
                frozenset(rng.sample(nodes, rng.randint(1, min(4, len(nodes)))))
                for _ in range(10)
            ]
            rng.shuffle(sets)
            for terms in sets:
                try:
                    ref = steiner_tree_reference(fresh(g), terms)
                except DisconnectedError:
                    with pytest.raises(DisconnectedError):
                        steiner_tree_exact(g, terms)
                    continue
                st = steiner_tree_exact(g, terms)
                assert (st.cost, sorted(st.edges)) == (ref.cost, sorted(ref.edges))

    def test_forest_and_tree_share_one_table(self):
        g = gen_instance("source-sink", n_nodes=7, seed=2).graph
        pairs = [("v0", "v3"), ("v1", "v5")]
        f = steiner_forest_exact(g, pairs)
        built = len(g._steiner.dp)
        assert built > 0
        steiner_tree_exact(g, {"v0", "v3"})
        steiner_tree_exact(g, {"v0", "v1", "v3", "v5"})
        assert len(g._steiner.dp) == built
        assert steiner_forest_exact(g, pairs) == f

    def test_one_edge_set_per_edge_mask(self):
        """Trees, forests, `nearest` and `route` return the table's one
        `EdgeSet` per edge mask, costing the sum of its edges' costs; path
        menus (`simple_paths`) stay out of that memo."""
        rng = random.Random(67)
        for _ in range(20):
            g = random_connected_graph(rng, max_nodes=7, max_edges=11, costs=(0, Fraction(1, 2), 1))
            assert graphs.simple_paths(g, g.nodes[-1], g.nodes[0])
            assert g._steiner._edge_sets == {}
            got = []
            for _ in range(6):
                terms = rng.sample(g.nodes, rng.randint(1, min(4, len(g.nodes))))
                x, y = rng.sample(g.nodes, 2)
                got += [
                    steiner_tree_exact(g, terms),
                    steiner_forest_exact(g, random_pairs(rng, g.nodes, 2)),
                    graphs.nearest(g, x, terms),
                    graphs.route(g, x, y, frozenset(g.edge_keys())),
                ]
            first = {}
            for es in got:
                assert es is first.setdefault(es.edges, es)
                assert es.cost == edge_set_cost(g, es.edges)
            assert len(g._steiner._edge_sets) == len(first)

    def test_noniid_evaluation_builds_each_subset_once(self, monkeypatch):
        """Exact noniid evaluation asks for the same terminal sets from
        `expected_opt` and from the scheme's base solutions; each DP subset
        is built at most once per graph."""
        built = []
        build = _SteinerTable._build

        def counted(table, X):
            built.append((id(table), X))
            return build(table, X)

        monkeypatch.setattr(_SteinerTable, "_build", counted)
        inst = gen_instance("multicast", 6, 3, 3, seed=3)
        evaluate_construction_exact(inst, steiner_scheme(inst.graph), "noniid")
        assert built
        assert len(built) == len(set(built))
        assert len({t for t, _ in built}) == 1

    @pytest.mark.parametrize("case", ["int", "half", "two-part", "wide"])
    def test_labels_equal_the_frozenset_table(self, case):
        """Every label of the bitmask table, cost and decoded edges, equals
        the frozenset table's, for every subset of a terminal pool: on
        tie-heavy costs {0, 1, 2} and halves, on each part of a two-part
        graph, and on graphs of 11-13 nodes (so 'n10' sorts before 'n2')
        and 33-40 edges."""
        rng = random.Random(59)
        for _ in range(20 if case == "wide" else 40):
            if case == "two-part":
                g, side = two_component_graph(rng), rng.choice("LRZ")
                pool = [n for n in g.nodes if n[0] == side]
            else:
                if case == "wide":
                    g = wide_graph(rng, rng.randint(11, 13), rng.randint(33, 40))
                else:
                    costs = (0, 1, 2) if case == "int" else (0, Fraction(1, 2), 1, Fraction(3, 2))
                    g = random_connected_graph(rng, max_nodes=8, max_edges=13, costs=costs)
                pool = rng.sample(list(g.nodes), min(6, len(g.nodes)))
            table, ref = g._steiner, SteinerLabelsReference(g)
            for r in range(1, len(pool) + 1):
                for X in itertools.combinations(pool, r):
                    got = table.labels(sum(1 << g.index[t] for t in X))
                    assert len(got) == len(g.nodes)
                    labels = {v: (l[0], table.edge_set(l[1]).edges) for v, l in zip(g.nodes, got) if l}
                    assert labels == ref.labels(frozenset(X))

    def test_forests_on_wide_graphs(self):
        """`SteinerForests` over 5 pairs of a graph of 11-13 nodes and 33-40
        edges gives every subset the edges of the recurrence as first
        written."""
        rng = random.Random(67)
        for _ in range(6):
            g = wide_graph(rng, rng.randint(11, 13), rng.randint(33, 40))
            pair_list = sorted({edge_key(*rng.sample(list(g.nodes), 2)) for _ in range(5)})
            forests = SteinerForests(g, pair_list)
            for mask in range(1 << len(pair_list)):
                subset = [p for j, p in enumerate(pair_list) if mask >> j & 1]
                want = steiner_forest_edges_reference(fresh(g), subset)
                cost = Fraction(forests.cost(mask), forests.table.scale)
                edges = forests.table.edge_set(forests.F[mask][1]).edges
                assert (cost, sorted(edges)) == (want.cost, sorted(want.edges))

    def test_terminal_cap(self, monkeypatch):
        """A tree on more distinct terminals than the cap, or a forest block
        with more distinct ends, raises TooLargeError before any subset of
        the table is built; the cap itself is allowed."""
        rng = random.Random(71)
        g = wide_graph(rng, 16, 40)
        nodes = list(g.nodes)
        with pytest.raises(TooLargeError, match="^13 terminals exceeds Steiner cap 12$"):
            steiner_tree_exact(g, nodes[:13] + nodes[:2])
        with pytest.raises(TooLargeError, match="^14 terminals exceeds Steiner cap 12$"):
            steiner_forest_exact(g, list(zip(nodes[:7], nodes[7:14])))
        assert g._steiner.dp == {}
        monkeypatch.setattr(graphs, "STEINER_TERMINAL_CAP", 3)
        assert steiner_tree_exact(g, nodes[:3]) == steiner_tree_reference(g, nodes[:3])
        with pytest.raises(TooLargeError, match="^4 terminals exceeds Steiner cap 3$"):
            steiner_tree_exact(g, nodes[:4])


def wide_graph(rng, n: int, m: int) -> Graph:
    """A random connected graph on n nodes and m edges, costs in {0, 1, 2}."""
    nodes = [f"n{j}" for j in range(n)]
    order = rng.sample(nodes, n)
    costs = {edge_key(a, b): rng.choice((0, 1, 2)) for a, b in zip(order, order[1:])}
    extra = [p for p in itertools.combinations(nodes, 2) if edge_key(*p) not in costs]
    for p in rng.sample(extra, m - len(costs)):
        costs[edge_key(*p)] = rng.choice((0, 1, 2))
    return graph_from_costs(costs, nodes=nodes)


def multi_component_graph(rng) -> tuple[Graph, list[list[str]]]:
    """A graph of 1-4 components, each a path through its nodes plus random
    chords, with costs in {0, 1/2, 1, 3/2, 2, 3}, and sometimes an isolated
    node; node names are dealt to the components at random, so their
    sorted orders interleave.  Returns the graph and its components."""
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(1, 4))] + [1] * (rng.random() < 0.3)
    names = rng.sample([f"v{j}" for j in range(sum(sizes))], sum(sizes))
    parts = [names[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(len(sizes))]
    costs = {}
    for part in parts:
        chords = list(itertools.combinations(part, 2))
        for u, v in list(zip(part, part[1:])) + rng.sample(chords, rng.randint(0, len(chords))):
            costs[edge_key(u, v)] = rng.choice((0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3))
    return graph_from_costs(costs, nodes=names), parts


def forest_outcome(solve, g, pairs) -> tuple:
    """(cost, sorted edges) of a forest solver, or its error's class and message."""
    try:
        f = solve(g, pairs)
    except NetgamesError as err:
        return type(err), str(err)
    return f.cost, sorted(f.edges)


def fresh(g: Graph) -> Graph:
    """A copy of g with an empty Steiner table."""
    return Graph(nodes=g.nodes, edges=g.edges, root=g.root)


def random_pairs(rng, nodes, k) -> set:
    return {tuple(rng.sample(list(nodes), 2)) for _ in range(k)}


def tied_pairs(rng, nodes, k) -> list:
    """k pairs drawn from a pool of k - 1 (or one), so pairs repeat, some
    reversed, and some (s, s)."""
    pool = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(max(k - 1, 1))]
    picks = [rng.choice(pool) for _ in range(k)]
    return [(v, u) if rng.random() < 0.3 else (u, v) for u, v in picks]


def pairs_predicate(g, pairs):
    def feasible(edges):
        comp = _components(g.nodes, edges)
        return all(comp[u] == comp[v] for u, v in pairs)

    return feasible


def two_component_graph(rng) -> Graph:
    """Two random connected graphs with costs in {0, 1, 2} on disjoint
    node names (L*, R*), plus an isolated node Z."""
    costs = {}
    for side in ("L", "R"):
        part = random_connected_graph(rng, max_nodes=4, max_edges=5, costs=(0, 1, 2))
        for (u, v), c in part.edges:
            costs[(side + u, side + v)] = c
    nodes = sorted({n for e in costs for n in e} | {"Z"})
    return graph_from_costs(costs, nodes=nodes)


class TestCover:
    def test_cheaper_endpoint(self):
        chosen, cost = cover_exact({"u": Fraction(1), "v": Fraction(2)}, [("u", "v")])
        assert chosen == frozenset({"u"}) and cost == 1

    def test_empty(self):
        chosen, cost = cover_exact({"u": Fraction(1)}, [])
        assert not chosen and cost == 0

    def test_hitting_both(self):
        chosen, cost = cover_exact(
            {"u": Fraction(1), "v": Fraction(1), "w": Fraction(3)},
            [("u", "v"), ("v", "w")],
        )
        assert chosen == frozenset({"v"}) and cost == 1

    def test_cap(self):
        with pytest.raises(TooLargeError):
            cover_exact({f"n{i}": Fraction(1) for i in range(25)}, [])
        chosen, cost = cover_exact({f"n{i}": Fraction(1) for i in range(DEFAULT_NODE_CAP)}, [])
        assert not chosen and cost == 0

    @pytest.mark.parametrize(
        "hyperedges, message",
        [([("u",), ()], "empty hyperedge"), ([("u", "x")], "hyperedge node 'x' has no cost")],
    )
    def test_malformed_hyperedges(self, hyperedges, message):
        with pytest.raises(PreconditionError, match=message):
            cover_exact({"u": Fraction(1)}, hyperedges)

    def test_matches_subset_enumeration(self):
        rng = random.Random(23)
        for _ in range(50):
            nodes = [f"n{j}" for j in range(rng.randint(2, 6))]
            costs = {n: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for n in nodes}
            hedges = [
                tuple(rng.sample(nodes, rng.randint(1, min(3, len(nodes)))))
                for _ in range(rng.randint(0, 4))
            ]
            _, cost = cover_exact(costs, hedges)
            best = min(
                sum((costs[n] for n in sub), Fraction(0))
                for k in range(len(nodes) + 1)
                for sub in itertools.combinations(nodes, k)
                if all(set(h) & set(sub) for h in hedges)
            )
            assert cost == best


class TestBruteforceSubset:
    def test_connectivity(self, triangle):
        es = min_feasible_subset_bruteforce(
            triangle, connectivity_predicate(triangle, {"a", "r"})
        )
        assert es.cost == 2

    def test_always_true(self, triangle):
        es = min_feasible_subset_bruteforce(triangle, lambda edges: True)
        assert es.cost == 0 and not es.edges

    def test_all_edges_forced(self, triangle):
        keys = set(triangle.edge_keys())
        es = min_feasible_subset_bruteforce(triangle, lambda edges: edges >= keys)
        assert es.edges == frozenset(keys) and es.cost == 5

    def test_infeasible(self, triangle):
        with pytest.raises(InfeasibleError):
            min_feasible_subset_bruteforce(triangle, lambda edges: False)
