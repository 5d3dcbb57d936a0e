import itertools
import random
from fractions import Fraction

import pytest

from netgames import (
    Action,
    EMPTY_ACTION,
    congestion,
    expected_opt,
    expected_player_cost,
    expected_potential,
    expected_social_cost,
    feasible_actions,
    graph_from_costs,
    harmonic,
    player_cost,
    potential_difference_check,
    rosenthal_potential,
    social_cost,
)
from netgames.errors import NoFeasibleActionError, SupportTooLargeError, ValidationError
from netgames.games import GameInstance, PlayerSpec, ex_post_opt, type_profiles
from netgames.instances import gen_instance

from conftest import (
    feasible_actions_reference,
    long_path_game,
    multicast,
    point_mass,
    profile_actions,
    random_connected_graph,
    uniform,
)


def shared_edge_instance(n=2):
    g = graph_from_costs({("r", "s"): Fraction(1)}, root="r")
    return multicast(g, *[point_mass("s")] * n)


def action(inst, elements):
    elements = frozenset(elements)
    return Action(
        elements=elements,
        cost=sum((inst.element_cost(e) for e in elements), Fraction(0)),
    )


class TestFeasibleActions:
    def test_multicast_triangle(self, triangle):
        inst = multicast(triangle, point_mass("a"))
        acts = feasible_actions(inst, 0, "a")
        assert {(a.cost, a.elements) for a in acts} == {
            (Fraction(2), frozenset({("a", "r")})),
            (Fraction(3), frozenset({("a", "b"), ("b", "r")})),
        }

    def test_degenerate_root_type(self, triangle):
        inst = multicast(triangle, point_mass("r"))
        assert feasible_actions(inst, 0, "r") == [EMPTY_ACTION]

    def test_vertex_cover_pair(self):
        inst = GameInstance(
            kind="vertex-cover",
            players=(point_mass(("u", "v")),),
            node_costs=(("u", Fraction(1)), ("v", Fraction(2))),
        )
        acts = feasible_actions(inst, 0, ("u", "v"))
        assert [a.elements for a in acts] == [frozenset({"u"}), frozenset({"v"})]

    def test_completeness_vs_bruteforce(self):
        # Enumerated paths must be exactly the simple-path edge sets.
        rng = random.Random(3)
        for seed in range(15):
            inst = gen_instance("multicast", n_nodes=rng.randint(3, 5),
                                n_players=1, n_types=1, seed=seed)
            g = inst.graph
            t = inst.players[0].support()[0]
            if t == g.root:
                continue
            got = {a.elements for a in feasible_actions(inst, 0, t)}
            keys = g.edge_keys()
            expect = set()
            for k in range(1, len(keys) + 1):
                for sub in itertools.combinations(keys, k):
                    if _is_simple_path(g, frozenset(sub), t, g.root):
                        expect.add(frozenset(sub))
            assert got == expect


def every_type(graph, kind):
    """A one-player game of `kind` on `graph` whose player ranges uniformly
    over every type: each node (multicast), or each ordered node pair,
    (s, s) included (source-sink)."""
    nodes = graph.nodes
    types = nodes if kind == "multicast" else list(itertools.product(nodes, repeat=2))
    return GameInstance(kind=kind, players=(uniform(types),), graph=graph)


def compare_menus(inst) -> int:
    """Assert that every (player, type) menu equals the reference's, or
    raises the reference's NoFeasibleActionError text; return how many
    raised."""
    raised = 0
    for i, spec in enumerate(inst.players):
        for t in spec.support():
            try:
                want = feasible_actions_reference(inst, i, t)
            except NoFeasibleActionError as err:
                with pytest.raises(NoFeasibleActionError) as got:
                    feasible_actions(inst, i, t)
                assert str(got.value) == str(err)
                raised += 1
            else:
                assert feasible_actions(inst, i, t) == want
    return raised


K7 = graph_from_costs(
    {(f"k{a}", f"k{b}"): 1 for a, b in itertools.combinations(range(7), 2)}, root="k0"
)
TIE_COSTS = {"costs-0-1-2": (0, 1, 2), "half-costs": (Fraction(1, 2), 1, Fraction(3, 2))}


class TestMenusAgainstTheRecursiveWalk:
    @pytest.mark.parametrize("kind", ["multicast", "source-sink"])
    @pytest.mark.parametrize("costs", TIE_COSTS.values(), ids=TIE_COSTS.keys())
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_with_tied_costs(self, seed, costs, kind):
        g = random_connected_graph(random.Random(seed), max_nodes=6, max_edges=11, costs=costs)
        assert compare_menus(every_type(g, kind)) == 0

    @pytest.mark.parametrize("kind", ["multicast", "source-sink"])
    def test_k7(self, kind):
        inst = every_type(K7, kind)
        assert compare_menus(inst) == 0
        # 1 + 5 + 5*4 + 5*4*3 + 5*4*3*2 + 5! paths between two nodes of K7
        assert len(feasible_actions(inst, 0, inst.players[0].support()[1])) == 326

    def test_long_masks_in_sorted_edge_tuple_order(self):
        """73 edges, so masks pass 64 bits, and names such as v10 sort before
        v2.  The 8 paths from v70 to the root all cost 70, so only the
        sorted edge tuple ranks them."""
        path = {(f"v{j}", f"v{j + 1}"): 1 for j in range(70)}
        g = graph_from_costs({**path, ("v0", "v5"): 5, ("v10", "v20"): 10, ("v30", "v65"): 35},
                             root="v0")
        inst = every_type(g, "multicast")
        assert len(g.edges) == 73
        assert compare_menus(inst) == 0
        menu = feasible_actions(inst, 0, "v70")
        assert len(menu) == 8 and {a.cost for a in menu} == {70}

    @pytest.mark.parametrize("kind", ["multicast", "source-sink"])
    def test_an_unreachable_source_raises_the_same_error(self, kind):
        g = graph_from_costs(
            {("a", "r"): 1, ("a", "b"): 1, ("b", "r"): 2, ("c", "d"): Fraction(1, 2)},
            nodes=["a", "b", "c", "d", "e", "r"],
            root="r",
        )
        assert compare_menus(every_type(g, kind)) > 0

    @pytest.mark.parametrize("kind", ["vertex-cover", "hypergraph-cover"])
    def test_cover_kinds(self, kind):
        costs = (("u", Fraction(0)), ("v", Fraction(1, 2)), ("w", Fraction(1)), ("x", Fraction(1)))
        size = 2 if kind == "vertex-cover" else 3
        types = list(itertools.product([v for v, _ in costs], repeat=size))
        inst = GameInstance(kind=kind, players=(uniform(types),), node_costs=costs)
        assert compare_menus(inst) == 0


def test_menu_of_a_path_longer_than_the_recursion_limit():
    inst = long_path_game()
    (act,) = feasible_actions(inst, 0, inst.players[0].support()[0])
    assert act.cost == 1199 and len(act.elements) == 1199


def _is_simple_path(g, edges, s, r):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if deg.get(s) != 1 or deg.get(r) != 1:
        return False
    if any(d != 2 for n, d in deg.items() if n not in (s, r)):
        return False
    # One connected chain covering all its edges.
    seen = {s}
    cur, prev = s, None
    for _ in range(len(edges)):
        nxts = [
            (v if u == cur else u)
            for u, v in edges
            if cur in (u, v) and (v if u == cur else u) != prev
        ]
        if len(nxts) != 1:
            return False
        prev, cur = cur, nxts[0]
        if cur in seen:
            return False
        seen.add(cur)
    return cur == r


class TestProfileCosts:
    def test_congestion_shared(self):
        inst = shared_edge_instance()
        a = action(inst, [("r", "s")])
        assert congestion((a, a)) == {("r", "s"): 2}

    def test_congestion_empty(self):
        assert congestion((EMPTY_ACTION, EMPTY_ACTION)) == {}

    def test_disjoint_paths(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        prof = (action(inst, [("a", "r")]), action(inst, [("b", "r")]))
        counts = congestion(prof)
        assert counts == {("a", "r"): 1, ("b", "r"): 1}

    def test_equal_split(self):
        inst = shared_edge_instance()
        a = action(inst, [("r", "s")])
        assert player_cost(inst, (a, a), 0) == Fraction(1, 2)
        assert player_cost(inst, (a, a), 1) == Fraction(1, 2)

    def test_single_player_pays_path(self, triangle):
        inst = multicast(triangle, point_mass("a"))
        prof = (action(inst, [("a", "b"), ("b", "r")]),)
        assert player_cost(inst, prof, 0) == 3

    def test_overlapping_paths(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        prof = (
            action(inst, [("a", "b"), ("b", "r")]),
            action(inst, [("b", "r")]),
        )
        assert player_cost(inst, prof, 0) == 1 + Fraction(2, 2)
        assert player_cost(inst, prof, 1) == 1
        assert social_cost(inst, prof) == 3

    def test_share_conservation_random(self):
        rng = random.Random(9)
        for seed in range(20):
            inst = gen_instance("multicast", n_nodes=4, n_players=3,
                                n_types=2, seed=seed)
            tp = next(iter(type_profiles(inst)))[0]
            prof = tuple(
                rng.choice(feasible_actions(inst, i, t)) for i, t in enumerate(tp)
            )
            total = sum(
                (player_cost(inst, prof, i) for i in range(inst.n)), Fraction(0)
            )
            assert total == social_cost(inst, prof)


class TestPotential:
    def test_one_edge_two_users(self):
        inst = shared_edge_instance()
        a = action(inst, [("r", "s")])
        assert rosenthal_potential(inst, (a, a)) == Fraction(3, 2)

    def test_empty(self):
        inst = shared_edge_instance()
        assert rosenthal_potential(inst, (EMPTY_ACTION, EMPTY_ACTION)) == 0

    def test_mixed_congestions(self):
        g = graph_from_costs({("r", "s"): Fraction(2), ("q", "r"): Fraction(1)},
                             root="r")
        inst = GameInstance(
            kind="multicast",
            players=(point_mass("s"),) * 3 + (point_mass("q"),),
            graph=g,
        )
        a = action(inst, [("r", "s")])
        b = action(inst, [("q", "r")])
        assert rosenthal_potential(inst, (a, a, a, b)) == Fraction(14, 3)

    def test_deviation_identity_example(self):
        g = graph_from_costs(
            {("r", "s"): Fraction(1), ("q", "s"): Fraction(1), ("q", "r"): Fraction(1)},
            root="r",
        )
        inst = multicast(g, point_mass("s"), point_mass("s"))
        shared = action(inst, [("r", "s")])
        private = action(inst, [("q", "s"), ("q", "r")])
        lhs, rhs = potential_difference_check(inst, (shared, shared), 0, private)
        assert lhs == rhs == Fraction(1, 2) - 2

    def test_deviation_identity_random(self):
        rng = random.Random(21)
        checked = 0
        for seed in range(30):
            inst = gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed)
            for tp, _ in type_profiles(inst):
                prof = tuple(
                    rng.choice(feasible_actions(inst, i, t))
                    for i, t in enumerate(tp)
                )
                i = rng.randrange(inst.n)
                alt = rng.choice(feasible_actions(inst, i, tp[i]))
                lhs, rhs = potential_difference_check(inst, prof, i, alt)
                assert lhs == rhs
                checked += 1
        assert checked >= 100

    def test_closeness_sandwich(self):
        rng = random.Random(2)
        for seed in range(15):
            inst = gen_instance("multicast", n_nodes=4, n_players=3,
                                n_types=2, seed=seed)
            hn = harmonic(inst.n)
            for tp, _ in type_profiles(inst):
                prof = tuple(
                    rng.choice(feasible_actions(inst, i, t))
                    for i, t in enumerate(tp)
                )
                c = social_cost(inst, prof)
                phi = rosenthal_potential(inst, prof)
                assert c <= phi <= hn * c


class TestExpectations:
    def test_point_mass_degenerate(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        s = tuple(
            {t: feasible_actions(inst, i, t)[0] for t in inst.players[i].support()}
            for i in range(2)
        )
        tp = ("a", "b")
        assert expected_social_cost(inst, s) == social_cost(
            inst, profile_actions(s, tp)
        )
        assert expected_potential(inst, s) == rosenthal_potential(
            inst, profile_actions(s, tp)
        )

    def test_uniform_two_types_hand_enumeration(self, triangle):
        inst = multicast(triangle, uniform(["a", "b"]), uniform(["a", "b"]))
        # Everyone routes via the direct edge to the root.
        direct = {
            "a": action(inst, [("a", "r")]),
            "b": action(inst, [("b", "r")]),
        }
        s = (direct, direct)
        # Profiles: (a,a): C=2, (a,b): 4, (b,a): 4, (b,b): 2, each w=1/4.
        assert expected_social_cost(inst, s) == Fraction(2 + 4 + 4 + 2, 4)
        # Phi: (a,a): 2*(1+1/2)=3, (a,b)/(b,a): 4, (b,b): 3.
        assert expected_potential(inst, s) == Fraction(3 + 4 + 4 + 3, 4)

    def test_linearity_of_player_costs(self):
        for seed in range(8):
            inst = gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed)
            s = tuple(
                {t: feasible_actions(inst, i, t)[0] for t in spec.support()}
                for i, spec in enumerate(inst.players)
            )
            assert expected_social_cost(inst, s) == sum(
                (expected_player_cost(inst, s, i) for i in range(inst.n)),
                Fraction(0),
            )

    def test_support_cap(self, triangle):
        inst = GameInstance(
            kind="multicast",
            players=(uniform(["a", "b"]),) * 2,
            graph=triangle,
            support_cap=3,
        )
        with pytest.raises(SupportTooLargeError):
            list(type_profiles(inst))


class TestExPostOpt:
    def test_both_sources_same_node(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("a"))
        _, cost = ex_post_opt(inst, ("a", "a"))
        assert cost == 2

    def test_all_degenerate(self, triangle):
        inst = multicast(triangle, point_mass("r"), point_mass("r"))
        elements, cost = ex_post_opt(inst, ("r", "r"))
        assert cost == 0 and not elements
        assert expected_opt(inst) == 0

    def test_agrees_with_joint_profile_enumeration(self):
        for seed in range(12):
            for kind in ("multicast", "source-sink", "vertex-cover"):
                inst = gen_instance(kind, n_nodes=4, n_players=2,
                                    n_types=2, seed=seed)
                for tp, _ in type_profiles(inst):
                    _, cost = ex_post_opt(inst, tp)
                    menus = [
                        feasible_actions(inst, i, t) for i, t in enumerate(tp)
                    ]
                    best = min(
                        social_cost(inst, prof)
                        for prof in itertools.product(*menus)
                    )
                    assert cost == best

    def test_opt_lower_bounds_strategies(self, triangle):
        inst = multicast(triangle, uniform(["a", "b"]), uniform(["a", "r"]))
        eopt = expected_opt(inst)
        from netgames.equilibria import all_strategy_profiles

        for s in all_strategy_profiles(inst):
            assert eopt <= expected_social_cost(inst, s)


class TestValidation:
    def test_negative_node_cost_rejected(self):
        with pytest.raises(ValidationError):
            GameInstance(
                kind="vertex-cover",
                players=(point_mass(("a", "b")),),
                node_costs=(("a", -1), ("b", 1)),
            )

    def test_probs_must_sum_to_one(self, triangle):
        with pytest.raises(ValidationError):
            GameInstance(
                kind="multicast",
                players=(
                    PlayerSpec(
                        distribution=(
                            ("a", Fraction(1, 3)),
                            ("b", Fraction(1, 3)),
                            ("r", Fraction(1, 4)),
                        )
                    ),
                ),
                graph=triangle,
            )

    @pytest.mark.parametrize("kind", ["foo", None, ["multicast"], {"a": 1}])
    def test_unknown_kind_rejected(self, triangle, kind):
        """An unhashable kind is a ValidationError too, not a TypeError."""
        with pytest.raises(ValidationError, match=r"^kind: unknown kind "):
            GameInstance(kind=kind, players=(point_mass("a"),), graph=triangle)

    @pytest.mark.parametrize(
        "types, message",
        [
            ([(), ("a",)], r"type \(\) has 0 nodes, not 1"),
            ([("a", "b"), ("a",)], r"type \('a',\) has 1 nodes, not 2"),
            ([("a", "z")], "unknown node 'z' in type"),
        ],
    )
    def test_hyperedges_are_uniform_and_name_cover_nodes(self, types, message):
        players = tuple(point_mass(t) for t in types)
        costs = (("a", Fraction(1)), ("b", Fraction(2)))
        with pytest.raises(ValidationError, match=message):
            GameInstance(kind="hypergraph-cover", players=players, node_costs=costs)

    def test_multicast_needs_root(self):
        g = graph_from_costs({("a", "b"): Fraction(1)})
        with pytest.raises(ValidationError):
            GameInstance(kind="multicast", players=(point_mass("a"),), graph=g)

    def test_duplicate_types_rejected(self, triangle):
        with pytest.raises(ValidationError):
            GameInstance(
                kind="multicast",
                players=(
                    PlayerSpec(
                        distribution=(("a", Fraction(1, 2)), ("a", Fraction(1, 2)))
                    ),
                ),
                graph=triangle,
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            graph_from_costs({("a", "b"): Fraction(-1)})
