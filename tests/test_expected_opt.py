"""`expected_opt` from the law of the realized terminal set: the law against
the grouped type-profile enumeration, the cover DP against `cover_exact`,
the shared forest memo against per-profile optima, and the order in which
the caps and solver errors are raised."""

import json
import random
from fractions import Fraction

import pytest

from netgames import games, graphs
from netgames.cli import main
from netgames.equilibria import bpos_exact
from netgames.errors import DisconnectedError, SupportTooLargeError
from netgames.games import GameInstance, PlayerSpec, ex_post_opt, expected_opt, type_profiles
from netgames.graphs import DEFAULT_NODE_CAP, cover_cost_dp, cover_exact, graph_from_costs
from netgames.instances import gen_instance, serialize_instance

from conftest import random_connected_graph, terminal_law_reference
from test_closed_form import INSTANCES


def _distribution(rng, types):
    weights = [rng.randint(1, 4) for _ in types]
    return tuple((t, Fraction(w, sum(weights))) for t, w in zip(types, weights))


def random_cover_instance(rng, kind):
    """Up to 4 players over up to 6 nodes, some of cost 0.  Types may repeat
    a node ((a, a) pairs, hyperedges of size 1-3 with repeats) and the same
    hyperedge recurs across types and players."""
    nodes = [f"v{j}" for j in range(rng.randint(1, 6))]
    costs = tuple((v, Fraction(rng.choice([0, 0, 1, 2, 5]), rng.randint(1, 3))) for v in nodes)
    size = 2 if kind == "vertex-cover" else rng.randint(1, 3)
    players = []
    for _ in range(rng.randint(1, 4)):
        types = {tuple(rng.choices(nodes, k=size)) for _ in range(rng.randint(1, 3))}
        players.append(PlayerSpec(distribution=_distribution(rng, sorted(types))))
    return GameInstance(kind=kind, players=tuple(players), node_costs=costs)


def per_profile_cover_opt(inst):
    costs = dict(inst.node_costs)
    return sum(
        (w * cover_exact(costs, [tuple(t) for t in tp])[1] for tp, w in type_profiles(inst)),
        Fraction(0),
    )


COVER_INSTANCES = [
    random_cover_instance(random.Random(seed), kind)
    for seed in range(60)
    for kind in ("vertex-cover", "hypergraph-cover")
]


@pytest.mark.parametrize(
    "inst", INSTANCES + COVER_INSTANCES[:20], ids=lambda inst: inst.kind
)
def test_terminal_law_equals_grouped_enumeration(inst):
    terms, law = games._terminal_law(inst)
    scale = inst._scale.D ** inst.n
    assert sum(law.values()) == scale
    want = terminal_law_reference(inst)
    assert terms == sorted({x for key in want for x in key})
    assert [tuple(sorted(games._members(terms, S))) for S in law] == list(want)
    assert [Fraction(w, scale) for w in law.values()] == [w for _, w in want.values()]


def test_expected_opt_of_cover_instances_equals_the_per_profile_sum():
    for inst in COVER_INSTANCES:
        assert expected_opt(inst) == per_profile_cover_opt(inst)


def test_repeated_hyperedges_and_loop_pairs():
    """(a, a) asks for a; (a, b) and (b, a) are one hyperedge; a costs 0."""
    inst = GameInstance(
        kind="vertex-cover",
        players=(
            PlayerSpec(distribution=((("a", "a"), Fraction(1, 3)), (("b", "c"), Fraction(2, 3)))),
            PlayerSpec(distribution=((("a", "b"), Fraction(1, 2)), (("b", "a"), Fraction(1, 2)))),
            PlayerSpec(distribution=((("c", "b"), Fraction(1)),)),
        ),
        node_costs=(("a", Fraction(0)), ("b", Fraction(3)), ("c", Fraction(2))),
    )
    assert len(games._terminal_law(inst)[1]) == 2
    assert expected_opt(inst) == per_profile_cover_opt(inst) == 2


def test_cover_dp_equals_cover_exact():
    rng = random.Random(29)
    for _ in range(200):
        nodes = [f"n{j}" for j in range(rng.randint(1, 7))]
        costs = {n: rng.choice([0, 0, 1, 2, 3, 7]) for n in nodes}
        support = {
            tuple(sorted(set(rng.choices(nodes, k=rng.randint(1, 3)))))
            for _ in range(rng.randint(1, 8))
        }
        f = cover_cost_dp(costs, support)
        bit = {h: 1 << j for j, h in enumerate(sorted(support))}
        for _ in range(5):
            hs = rng.sample(sorted(support), rng.randint(0, len(support)))
            assert f(sum(bit[h] for h in hs)) == cover_exact(costs, hs)[1]


def test_cover_dp_cap():
    """The DP has no node cap: over 25 or more node costs it equals
    `cover_exact` over only the nodes that its hyperedges name."""
    rng = random.Random(31)
    for size in (DEFAULT_NODE_CAP + 1, 40):
        costs = {f"n{j}": rng.choice([0, 1, 2, 3, 7]) for j in range(size)}
        named = [f"n{j}" for j in rng.sample(range(size), 7)]
        support = sorted({tuple(sorted(set(rng.choices(named, k=2)))) for _ in range(6)})
        f = cover_cost_dp(costs, support)
        used = {v: costs[v] for h in support for v in h}
        for S in range(1 << len(support)):
            hs = [h for j, h in enumerate(support) if S >> j & 1]
            assert f(S) == cover_exact(used, hs)[1]


def single_node_hyperedges(k):
    """k point-mass players, each on its own single-node hyperedge of cost 1,
    so the cover DP's recursion runs k levels deep and E[OPT] is k."""
    nodes = [f"n{j:04d}" for j in range(k)]
    return GameInstance(
        kind="hypergraph-cover",
        players=tuple(PlayerSpec(distribution=(((v,), Fraction(1)),)) for v in nodes),
        node_costs=tuple((v, Fraction(1)) for v in nodes),
    )


def run_certify(tmp_path, capsys, inst):
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    status = main(["certify", "--instance", str(path)])
    return (status, *capsys.readouterr())


def test_certify_at_the_cover_cap(tmp_path, capsys):
    k = graphs.COVER_HYPEREDGE_CAP
    status, out, err = run_certify(tmp_path, capsys, single_node_hyperedges(k))
    assert (status, err) == (0, "")
    assert json.loads(out)["values"]["expected_opt"] == "512"


def test_certify_past_the_cover_cap_exits_1_with_the_error_line(tmp_path, capsys):
    k = graphs.COVER_HYPEREDGE_CAP + 1
    status, out, err = run_certify(tmp_path, capsys, single_node_hyperedges(k))
    assert (status, out) == (1, "")
    assert err == json.dumps({"error": "513 hyperedges exceeds cover cap 512"}) + "\n"


def random_source_sink_instance(rng):
    """Up to 4 players on a connected graph with costs {0, 1, 2}, their
    types drawn from a pool of a few pairs: pairs recur across players, in
    both orientations, and the pool holds an (s, s) type."""
    g = random_connected_graph(rng, max_nodes=6, max_edges=9, costs=(0, 1, 2))
    nodes = list(g.nodes)
    pool = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 4))]
    pool += [pool[0][::-1], (nodes[-1], nodes[-1])]
    players = []
    for _ in range(rng.randint(1, 4)):
        types = sorted(set(rng.choices(pool, k=rng.randint(1, 3))))
        players.append(PlayerSpec(distribution=_distribution(rng, types)))
    return GameInstance(kind="source-sink", players=tuple(players), graph=g)


def test_expected_opt_of_source_sink_instances_equals_the_per_profile_sum():
    for seed in range(60):
        inst = random_source_sink_instance(random.Random(seed))
        want = sum((w * ex_post_opt(inst, tp)[1] for tp, w in type_profiles(inst)), Fraction(0))
        assert expected_opt(inst) == want


def test_each_pair_mask_is_solved_once_per_call(monkeypatch):
    """One `SteinerForests` serves every state of the law: each mask's F and
    each block's tree are computed once in a call, fewer than the states'
    own forests would compute apart, and the memo ends with the call."""
    solved, built = [], []
    cost, tree = graphs.SteinerForests.cost, graphs.SteinerForests._tree

    def counted_cost(self, mask):
        if mask not in self.F:
            solved.append(mask)
        return cost(self, mask)

    def counted_tree(self, block):
        built.append(block)
        return tree(self, block)

    monkeypatch.setattr(graphs.SteinerForests, "cost", counted_cost)
    monkeypatch.setattr(graphs.SteinerForests, "_tree", counted_tree)
    inst = gen_instance("source-sink", 7, 4, 3, seed=1)
    terms, law = games._terminal_law(inst)
    want = sum((w * ex_post_opt(inst, tp)[1] for tp, w in type_profiles(inst)), Fraction(0))
    calls = []
    for _ in range(2):
        solved.clear()
        built.clear()
        assert expected_opt(inst) == want
        assert len(solved) == len(set(solved)) and set(law) - {0} <= set(solved)
        assert len(built) == len(set(built))
        calls.append((sorted(solved), sorted(built)))
    assert calls[0] == calls[1]
    apart = sum((1 << S.bit_count()) - 1 for S in law)  # every nonempty submask of each state
    assert len(solved) < apart


# ---------------------------------------------------------------------------
# Which error comes first


def wide_hypergraph(support_cap=games.DEFAULT_SUPPORT_CAP):
    """25 cover nodes, two players with two hyperedges each: 4 profiles."""
    return GameInstance(
        kind="hypergraph-cover",
        players=(
            PlayerSpec(distribution=((("n0", "n1"), Fraction(1, 2)), (("n2", "n3"), Fraction(1, 2)))),
            PlayerSpec(distribution=((("n1", "n4"), Fraction(1, 2)), (("n5", "n6"), Fraction(1, 2)))),
        ),
        node_costs=tuple((f"n{i}", Fraction(1)) for i in range(25)),
        support_cap=support_cap,
    )


def test_support_cap_is_checked_before_the_node_cap():
    with pytest.raises(SupportTooLargeError, match="^product support 4 exceeds cap 3$"):
        expected_opt(wide_hypergraph(support_cap=3))


def test_node_cap_of_a_25_node_hypergraph_cover():
    # No node cap: the four profiles' optima are 1 (n1), 2, 2 and 2.
    assert expected_opt(wide_hypergraph()) == Fraction(7, 4)


def test_unnamed_node_costs_change_no_answer():
    """A 30-node vertex-cover game answers as the same game restricted to
    the nodes that its types name."""
    inst = gen_instance("vertex-cover", 30, 3, 2, seed=4)
    named = {v for spec in inst.players for t, _ in spec.distribution for v in t}
    assert len(named) < 30
    costs = tuple((v, c) for v, c in inst.node_costs if v in named)
    restricted = GameInstance(kind=inst.kind, players=inst.players, node_costs=costs)
    assert expected_opt(inst) == expected_opt(restricted)
    assert bpos_exact(inst) == bpos_exact(restricted)


def two_disconnected_pairs():
    """Pairs (b, d) and (a, c) each span the components {a, b} and {c, d};
    (b, d) is in the first type profile, though (a, c) sorts first."""
    return GameInstance(
        kind="source-sink",
        graph=graph_from_costs({("a", "b"): 1, ("c", "d"): 1}),
        players=(
            PlayerSpec(distribution=((("b", "d"), Fraction(1, 2)), (("a", "c"), Fraction(1, 2)))),
            PlayerSpec(distribution=((("a", "b"), Fraction(1)),)),
        ),
    )


def test_first_disconnected_type_profile_names_the_error():
    with pytest.raises(DisconnectedError) as err:
        expected_opt(two_disconnected_pairs())
    assert str(err.value) == "pair ('b', 'd') not connected in graph"


def test_bpos_on_disconnected_pairs_exits_1_with_the_error_line(tmp_path, capsys):
    """The strategy sweep runs before E[OPT] in every ratio command, so the
    menu of (b, d), which has no path, fails first."""
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(two_disconnected_pairs()))
    for command in ("bpos", "ig", "certify"):
        assert main([command, "--instance", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": "no path from 'b' to 'd'"}) + "\n"


def graph_instances():
    """Generated multicast and source-sink games, and random graphs with
    fractional costs (denominators up to 3, and 7 and 9) under one player."""
    for kind in ("multicast", "source-sink"):
        for seed in range(10):
            yield gen_instance(kind, 3 + seed % 6, 3, 2, seed=seed)
    for seed in range(10):
        rng = random.Random(seed)
        costs = None if seed % 2 else (0, Fraction(1, 7), Fraction(2, 9), 3)
        g = random_connected_graph(rng, costs=costs)
        pair = (g.nodes[0], g.nodes[-1])
        yield GameInstance(kind="multicast", players=(PlayerSpec(((g.nodes[-1], 1),)),), graph=g)
        yield GameInstance(kind="source-sink", players=(PlayerSpec(((pair, 1),)),), graph=g)


def test_instance_and_steiner_table_share_one_integer_scale():
    """`expected_opt` reads tree and forest costs, integers over the graph's
    Steiner-table scale, as integers over `inst._scale.C`."""
    scales = set()
    for inst in graph_instances():
        table = inst.graph._steiner
        assert inst._scale.C == table.scale
        assert inst._scale.costs == table.cost
        scales.add(table.scale)
    assert len(scales) > 3


def test_support_cap_counts_type_profiles_not_terminal_sets(triangle):
    """Four players over {a, r}: 16 type profiles but two terminal sets."""
    inst = GameInstance(
        kind="multicast",
        players=(PlayerSpec(distribution=(("a", Fraction(1, 2)), ("r", Fraction(1, 2)))),) * 4,
        graph=triangle,
        support_cap=15,
    )
    assert len(games._terminal_law(inst)[1]) == 2
    with pytest.raises(SupportTooLargeError, match="^product support 16 exceeds cap 15$"):
        expected_opt(inst)
