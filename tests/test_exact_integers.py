"""Differential tests: the closed-form layer's integer sums over per-instance
common denominators against the same closed form in `Fraction` arithmetic
(the `*_reference` oracles in conftest), and the Steiner scheme's one-Dijkstra
augmentation against its per-tree-node loop.  Every value must be equal as
an exact `Fraction`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgames import games, graph_from_costs
from netgames.costsharing import steiner_scheme
from netgames.equilibria import all_strategy_profiles, interim_cost, verify_bne
from netgames.errors import UnreachableError
from netgames.games import (
    GameInstance,
    PlayerSpec,
    column_terms,
    expected_player_cost,
    expected_potential,
    expected_social_cost,
    harmonic,
    interim_weights,
    use_probabilities,
)
from netgames.graphs import EdgeSet
from netgames.instances import gen_instance

from conftest import (
    _users_law,
    action_cost_reference,
    augment_reference,
    count_law_reference,
    edge_set_cost,
    expected_potential_reference,
    expected_social_cost_reference,
    multicast,
    point_mass,
    random_connected_graph,
    use_probabilities_reference,
)

# Probabilities with pairwise coprime denominators 7, 9 and 11, so D = 693.
COPRIME = (
    (Fraction(1, 7), Fraction(6, 7)),
    (Fraction(2, 9), Fraction(7, 9)),
    (Fraction(3, 11), Fraction(8, 11)),
)


def two_point(types, k):
    return PlayerSpec(distribution=tuple(zip(types, COPRIME[k % 3])))


def coprime_multicast(n):
    """Zero-cost and fractional-cost edges; player 3 sits at a for sure, and
    the two routes out of b both start with a zero-cost edge."""
    g = graph_from_costs(
        {
            ("a", "r"): Fraction(0),
            ("a", "b"): Fraction(3, 4),
            ("b", "r"): Fraction(5, 3),
            ("a", "c"): Fraction(2, 5),
            ("c", "r"): Fraction(1),
            ("b", "c"): Fraction(0),
        },
        root="r",
    )
    players = [
        two_point(("a", "b"), 0),
        two_point(("c", "a"), 1),
        two_point(("b", "r"), 2),
        point_mass("a"),
        two_point(("c", "b"), 1),
        two_point(("a", "c"), 0),
    ]
    return multicast(g, *players[:n])


def coprime_cover(n):
    """Vertex cover with a zero-cost node z; player 0 can pick u on both of
    its types, which uses u with probability 1."""
    costs = (("u", Fraction(7, 2)), ("v", Fraction(1, 3)), ("w", Fraction(2)), ("z", Fraction(0)))
    players = [
        two_point((("u", "v"), ("u", "w")), 0),
        two_point((("v", "z"), ("w", "z")), 1),
        two_point((("u", "z"), ("v", "w")), 2),
        point_mass(("u", "v")),
        two_point((("w", "z"), ("u", "v")), 2),
        two_point((("u", "w"), ("v", "z")), 1),
    ]
    return GameInstance(kind="vertex-cover", players=tuple(players[:n]), node_costs=costs)


def coprime_hypergraph(n):
    """h0 costs nothing; the even players can buy h1 on both of their types."""
    costs = tuple((f"h{k}", Fraction(k, 3)) for k in range(5))
    players = [
        two_point((("h1", "h2", "h3"), ("h1", "h3", "h4")), k)
        if k % 2 == 0
        else two_point((("h0", "h2", "h4"), ("h2", "h3", "h4")), k)
        for k in range(n)
    ]
    return GameInstance(kind="hypergraph-cover", players=tuple(players), node_costs=costs)


def small_instances():
    for kind, root_mass in (
        ("multicast", False),
        ("multicast", True),
        ("source-sink", False),
        ("vertex-cover", False),
    ):
        for seed in range(3):
            inst = gen_instance(kind, 4, 2, 2, seed=seed, root_mass=root_mass)
            yield pytest.param(inst, id=f"{kind}{'-rm' * root_mass}-{seed}")
    for build in (coprime_cover, coprime_hypergraph):
        yield pytest.param(build(2), id=f"{build.__name__}-2")


def coprime_instances():
    for build in (coprime_multicast, coprime_cover, coprime_hypergraph):
        for n in (3, 6):
            yield pytest.param(build(n), id=f"{build.__name__}-{n}")


def random_profiles(inst, rng, count):
    return [
        tuple({t: rng.choice(acts) for t, acts in entries} for entries in inst.menus)
        for _ in range(count)
    ]


def check_profile(inst, s):
    """Every closed-form value of s, integer path against the oracle.
    Returns the elements that some player uses with probability 1."""
    sc = inst._scale
    D, n = sc.D, inst.n
    q = use_probabilities(inst, s)
    qf = use_probabilities_reference(inst, s)
    assert [{e: Fraction(a, D) for e, a in row.items()} for row in q] == qf
    for e in set().union(*q):
        # The whole column's law: the users' DP, lifted by D per non-user.
        entries = [row[e] for row in q if row.get(e)]
        law = [x * D ** (n - len(entries)) for x in _users_law(D, entries)]
        assert [Fraction(x, D**n) for x in law] == count_law_reference(qf, e)
        # The terms read only the multiset of the column's non-zero entries.
        want = (D**n - law[0], sum(x * h for x, h in zip(law, sc.harm)))
        assert column_terms(inst, entries) == column_terms(inst, entries[::-1]) == want
    for i, entries in enumerate(inst.menus):
        touched = set(q[i]).union(*(a.elements for _, acts in entries for a in acts))
        w = interim_weights(inst, q, i, touched)
        for e in touched:
            law = count_law_reference(qf, e, i)
            want = inst.element_cost(e) * sum(x / (k + 1) for k, x in enumerate(law))
            assert Fraction(w[e], sc.C * sc.L * D ** (n - 1)) == want
    cost = expected_social_cost(inst, s)
    potential = expected_potential(inst, s)
    assert type(cost) is type(potential) is Fraction
    assert cost == expected_social_cost_reference(inst, s)
    assert potential == expected_potential_reference(inst, s)
    for i, entries in enumerate(inst.menus):
        for t, acts in entries:
            for a in acts:
                got = interim_cost(inst, s, i, t, a)
                assert type(got) is Fraction
                assert got == action_cost_reference(inst, qf, i, a)
        want = sum(
            (p * action_cost_reference(inst, qf, i, s[i][t]) for t, p in inst.players[i].distribution),
            Fraction(0),
        )
        assert expected_player_cost(inst, s, i) == want
    return {e for row in q for e, a in row.items() if a == D}


@pytest.mark.parametrize("inst", small_instances())
def test_every_profile_equals_the_fraction_closed_form(inst):
    for s in all_strategy_profiles(inst):
        check_profile(inst, s)


@pytest.mark.parametrize("inst", coprime_instances())
def test_coprime_denominators_zero_costs_and_sure_users(inst):
    assert inst._scale.D == 693
    profiles = random_profiles(inst, random.Random(inst.n), 12)
    # The first strategy of every menu: multicast player 3, cover player 0 and
    # hypergraph player 0 then use an element with probability 1 (D - a = 0).
    profiles.append(tuple({t: acts[0] for t, acts in entries} for entries in inst.menus))
    sure = set().union(*(check_profile(inst, s) for s in profiles))
    used = set().union(*(set().union(*use_probabilities(inst, s)) for s in profiles))
    assert sure
    assert any(inst.element_cost(e) == 0 for e in used)
    assert any(inst.element_cost(e).denominator > 1 for e in used)


@pytest.mark.parametrize("inst", coprime_instances())
def test_verify_bne_equals_the_fraction_closed_form(inst):
    for s in random_profiles(inst, random.Random(31 + inst.n), 4):
        qf = use_probabilities_reference(inst, s)
        worst = None
        for i, entries in enumerate(inst.menus):
            for t, acts in entries:
                current = action_cost_reference(inst, qf, i, s[i][t])
                for alt in acts:
                    gap = current - action_cost_reference(inst, qf, i, alt)
                    if gap > 0 and (worst is None or gap > worst[3]):
                        worst = (i, t, alt, gap)
        assert verify_bne(inst, s).worst_violation == worst


def test_scale_is_computed_on_first_use():
    inst = coprime_multicast(3)
    assert "_scale" not in vars(inst)
    expected_potential(inst, random_profiles(inst, random.Random(0), 1)[0])
    sc = vars(inst)["_scale"]
    assert (sc.D, sc.C, sc.L) == (693, 60, 6)
    assert sc.inv == (6, 3, 2) and sc.harm == (0, 6, 9, 11)


def scaled_cover(D, n):
    """n vertex-cover players on nodes x, y, z whose probabilities 1/D and
    1 - 1/D make the instance's D exactly D; x costs 5/3."""
    dist = [(("x", "y"), Fraction(1, D)), (("x", "z"), 1 - Fraction(1, D))][: 1 + (D > 1)]
    costs = (("x", Fraction(5, 3)), ("y", Fraction(1)), ("z", Fraction(1)))
    players = tuple(PlayerSpec(distribution=tuple(dist)) for _ in range(n))
    return GameInstance(kind="vertex-cover", players=players, node_costs=costs)


def check_column(D, column, i):
    """The packed products behind `column_terms` (the cost term and the dot
    with `harm`) and `interim_weights` (the dot with `inv`) against the
    Poisson-binomial DP for every player, and against the `Fraction` law
    for player i, on one element x whose use column is `column` (over D)."""
    n = len(column)
    inst = scaled_cover(D, n)
    sc = inst._scale
    assert sc.D == D
    q = [{"x": a} if a else {} for a in column]
    qf = [{e: Fraction(a, D) for e, a in row.items()} for row in q]
    users = [a for a in column if a]
    law, lift = _users_law(D, users), D ** (n - len(users))
    cost, potential = column_terms(inst, users)
    assert (cost, potential) == (D**n - lift * law[0], lift * sum(x * h for x, h in zip(law, sc.harm)))
    ref = count_law_reference(qf, "x")
    assert Fraction(cost, D**n) == 1 - ref[0]
    assert Fraction(potential, sc.L * D**n) == sum(x * harmonic(k) for k, x in enumerate(ref))
    for j in range(n):
        others = [a for k, a in enumerate(column) if a and k != j]
        dot = sum(x * v for x, v in zip(_users_law(D, others), sc.inv))
        weight = interim_weights(inst, q, j, ["x"])["x"]
        assert weight == sc.costs["x"] * D ** (n - 1 - len(others)) * dot
    ref = count_law_reference(qf, "x", i)
    want = Fraction(5, 3) * sum(x / (k + 1) for k, x in enumerate(ref))
    assert Fraction(interim_weights(inst, q, i, ["x"])["x"], sc.C * sc.L * D ** (n - 1)) == want
    # The table holds the user counts that occurred, and no other.
    met = {("harm", len(users))} | {("inv", len(users) - (a > 0)) for a in column}
    assert sc.packed.keys() == met


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_packed_products_equal_the_law_dp(data):
    D = data.draw(st.sampled_from([1, 10**12]) | st.integers(1, 12) | st.integers(1, 10**12), label="D")
    n = data.draw(st.just(24) | st.integers(1, 24), label="n")
    u = data.draw(st.sampled_from([n - 1, n]) | st.integers(0, n), label="u")
    used = data.draw(st.lists(st.just(D) | st.integers(1, D), min_size=u, max_size=u))
    column = data.draw(st.permutations(used + [0] * (n - u)), label="column")
    check_column(D, column, data.draw(st.integers(0, n - 1), label="i"))


@pytest.mark.parametrize("D", [1, 2, 693, 10**12])
@pytest.mark.parametrize("u", [0, 1, 12, 23, 24])
def test_packed_products_at_24_players(D, u):
    """u users of 24, every other one sure (a = D), the others at about D/3."""
    column = [D if k % 2 else max(1, D // 3) for k in range(u)] + [0] * (24 - u)
    check_column(D, column, 0)
    check_column(D, column[::-1], 0)


@pytest.mark.parametrize("inst", coprime_instances())
def test_expected_cost_computes_no_packed_product(inst, monkeypatch):
    """The cost term P(N >= 1) is priced alone: `expected_social_cost`
    computes no `_law_dot` (the `harm` product is the potential's), and
    still equals the `Fraction` closed form."""
    calls = []
    inner = games._law_dot
    monkeypatch.setattr(games, "_law_dot", lambda *args: calls.append(args[1]) or inner(*args))
    for s in random_profiles(inst, random.Random(41 + inst.n), 4):
        assert expected_social_cost(inst, s) == expected_social_cost_reference(inst, s)
        assert calls == []
        assert expected_potential(inst, s) == expected_potential_reference(inst, s)
        assert calls and set(calls) == {"harm"}
        calls.clear()


# ---------------------------------------------------------------------------
# Augmentation: one lexicographic Dijkstra against one path per tree node.


def solutions(g, scheme, rng):
    out = [EdgeSet(edges=frozenset(), cost=Fraction(0))]
    for _ in range(3):
        chosen = frozenset(e for e in g.edge_keys() if rng.random() < 0.3)
        out.append(EdgeSet(edges=chosen, cost=edge_set_cost(g, chosen)))
        terms = rng.sample(list(g.nodes), rng.randint(1, len(g.nodes)))
        out.append(scheme.approx(frozenset(terms)))
    return out


@pytest.mark.parametrize("costs", [[0, 1, 2], None], ids=["costs-0-1-2", "fractional"])
@pytest.mark.parametrize("seed", range(40))
def test_augment_matches_the_per_node_loop(seed, costs):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_nodes=7, max_edges=12, costs=costs)
    scheme = steiner_scheme(g)
    for sol in solutions(g, scheme, rng):
        for x in g.nodes:
            assert scheme.augment(sol, x) == augment_reference(g, sol, x)


def test_augment_from_an_unknown_node_raises_as_before(triangle):
    scheme = steiner_scheme(triangle)
    sol = scheme.approx(frozenset({"a"}))
    with pytest.raises(UnreachableError) as got:
        scheme.augment(sol, "zz")
    with pytest.raises(UnreachableError) as want:
        augment_reference(triangle, sol, "zz")
    assert str(got.value) == str(want.value)
