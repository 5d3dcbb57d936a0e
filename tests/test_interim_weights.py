"""`verify_bne` and `best_response_dynamics` priced from one integer weight
table per player (`games.interim_weights`), checked against the menu scans
over `interim_cost` that they replace (`verify_bne_reference` and
`best_response_dynamics_reference` in conftest)."""

import random
from fractions import Fraction

import pytest

from netgames import graph_from_costs
from netgames.equilibria import best_response_dynamics, min_potential_profile, verify_bne
from netgames.errors import NoConvergenceError, PreconditionError
from netgames.games import (
    Action,
    GameInstance,
    expected_player_cost,
    expected_potential,
    interim_weights,
    use_probabilities,
)
from netgames.graphs import edge_key
from netgames.instances import gen_instance

from conftest import (
    action_cost_reference,
    best_response_dynamics_reference,
    edge_set_cost,
    multicast,
    point_mass,
    uniform,
    use_probabilities_reference,
    verify_bne_reference,
)
from test_sweep import DIFFERENTIAL, _Counter, tied_cover_instance


def start_profiles(inst, count, seed):
    """The first-action profile, then `count` seeded ones: each (player,
    type) slot plays a menu action drawn at random."""
    rng = random.Random(seed)
    first = tuple({t: menu[0] for t, menu in entries} for entries in inst.menus)
    drawn = [
        tuple({t: rng.choice(menu) for t, menu in entries} for entries in inst.menus)
        for _ in range(count)
    ]
    return [first, *drawn]


def outcome(run):
    try:
        return run()
    except NoConvergenceError as err:
        return ("no convergence", err.max_rounds)


@pytest.mark.parametrize("inst", DIFFERENTIAL)
def test_verify_bne_and_dynamics_equal_the_menu_scan(inst):
    for s0 in start_profiles(inst, 3, seed=23):
        assert verify_bne(inst, s0) == verify_bne_reference(inst, s0)
        s, trace = best_response_dynamics(inst, s0, return_trace=True)
        assert (s, trace) == best_response_dynamics_reference(inst, s0)
        assert best_response_dynamics(inst, s0) == s
        assert verify_bne(inst, s) == verify_bne_reference(inst, s)
        for rounds in (1, 2):
            got = outcome(
                lambda: best_response_dynamics(inst, s0, rounds, return_trace=True)
            )
            assert got == outcome(lambda: best_response_dynamics_reference(inst, s0, rounds))


@pytest.mark.parametrize("inst", DIFFERENTIAL)
def test_each_trace_entry_is_the_potential_after_its_move(inst):
    for s0 in start_profiles(inst, 2, seed=29):
        profiles = []
        best_response_dynamics_reference(inst, s0, profiles=profiles)
        s, trace = best_response_dynamics(inst, s0, return_trace=True)
        assert s == profiles[-1]
        assert trace == [expected_potential(inst, p) for p in profiles]


def test_trace_of_a_long_run():
    """Five players with three types each: the dynamics make many moves, and
    the trace sums one integer step per move from the start's potential."""
    inst = gen_instance("multicast", 5, 5, 3, seed=3)
    (s0,) = start_profiles(inst, 0, seed=0)
    profiles = []
    best_response_dynamics_reference(inst, s0, profiles=profiles)
    _, trace = best_response_dynamics(inst, s0, return_trace=True)
    assert len(trace) > 5
    assert trace == [expected_potential(inst, p) for p in profiles]
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_dynamics_price_the_potential_at_most_once(monkeypatch):
    inst = gen_instance("multicast", 5, 5, 3, seed=3)
    (s0,) = start_profiles(inst, 0, seed=0)
    potentials = _Counter(monkeypatch, "_column_sum")
    _, trace = best_response_dynamics(inst, s0, return_trace=True)
    assert len(trace) > 5
    assert potentials.calls == 1  # for the start profile only
    best_response_dynamics(inst, s0)
    assert potentials.calls == 1  # none without a trace


def pendant_instance():
    """The rooted triangle with a pendant edge (b, x) that lies on no simple
    path to the root, so no menu lists an action holding it."""
    g = graph_from_costs(
        {("r", "a"): 2, ("r", "b"): 2, ("a", "b"): 1, ("b", "x"): Fraction(3, 2)},
        root="r",
    )
    return multicast(g, uniform(["a", "b"]), point_mass("a"))


def cover_instance():
    costs = (("a", 3), ("b", 1), ("c", Fraction(1, 2)))
    players = (uniform([("a", "b"), ("a", "c")]), point_mass(("b", "c")))
    return GameInstance(kind="vertex-cover", players=players, node_costs=costs)


def off_menu_profiles():
    inst = pendant_instance()
    detour = frozenset({edge_key("a", "r"), edge_key("b", "x")})
    off = Action(elements=detour, cost=edge_set_cost(inst.graph, detour))
    menus = inst.menus
    yield inst, ({"a": off, "b": menus[0][1][1][0]}, {"a": menus[1][0][1][-1]})
    yield inst, ({"a": menus[0][0][1][0], "b": menus[0][1][1][0]}, {"a": off})
    inst = cover_instance()
    node_c = Action(elements=frozenset({"c"}), cost=Fraction(1, 2))
    node_a = Action(elements=frozenset({"a"}), cost=Fraction(3))
    yield inst, ({("a", "b"): node_c, ("a", "c"): node_a}, {("b", "c"): node_a})


@pytest.mark.parametrize("inst, s0", list(off_menu_profiles()))
def test_incumbents_that_no_menu_lists(inst, s0):
    """A library caller may hand in actions outside every menu: their
    elements are priced too, as `interim_cost` prices them."""
    menus = [dict(entries) for entries in inst.menus]
    assert any(a not in menus[i][t] for i, x in enumerate(s0) for t, a in x.items())
    report = verify_bne(inst, s0)
    assert not report.is_bne
    assert report == verify_bne_reference(inst, s0)
    assert best_response_dynamics(inst, s0, return_trace=True) == (
        best_response_dynamics_reference(inst, s0)
    )
    q = use_probabilities_reference(inst, s0)
    for i, spec in enumerate(inst.players):
        want = sum(
            (p * action_cost_reference(inst, q, i, s0[i][t]) for t, p in spec.distribution),
            Fraction(0),
        )
        assert expected_player_cost(inst, s0, i) == want


@pytest.mark.parametrize("inst", DIFFERENTIAL[:20])
def test_each_weight_is_the_cost_of_its_element_alone(inst):
    sc = inst._scale
    for s in start_profiles(inst, 2, seed=37):
        q, qf = use_probabilities(inst, s), use_probabilities_reference(inst, s)
        for i, entries in enumerate(inst.menus):
            elements = {e for _, menu in entries for a in menu for e in a.elements}
            w = interim_weights(inst, q, i, elements)
            assert w.keys() == elements
            for e, weight in w.items():
                single = Action(elements=frozenset({e}), cost=inst.element_cost(e))
                got = Fraction(weight, sc.C * sc.L * sc.D_pow[inst.n - 1])
                assert got == action_cost_reference(inst, qf, i, single)


@pytest.mark.parametrize("rounds", [0, -1])
def test_dynamics_need_at_least_one_round(rounds):
    inst = tied_cover_instance()
    s0 = min_potential_profile(inst)  # a BNE: one round would settle
    with pytest.raises(PreconditionError, match=f"max_rounds must be at least 1, got {rounds}"):
        best_response_dynamics(inst, s0, max_rounds=rounds)


LARGE = [
    pytest.param(gen_instance("multicast", 6, 24, 2, seed=0, iid=True), id="mc-6-24-2-0-iid"),
    pytest.param(gen_instance("multicast", 9, 16, 3, seed=2, iid=True), id="mc-9-16-3-2-iid"),
    pytest.param(gen_instance("vertex-cover", 8, 40, 2, seed=0), id="vc-8-40-2-0"),
]


@pytest.mark.parametrize("inst", LARGE)
def test_identities_at_16_to_40_players(inst):
    """Slots of 80-289 bits: each trace entry is the expected potential
    of the profile after its move, and the final weights equal the
    `Fraction` law's."""
    (s0,) = start_profiles(inst, 0, seed=0)
    profiles = []
    best_response_dynamics_reference(inst, s0, profiles=profiles)
    s, trace = best_response_dynamics(inst, s0, return_trace=True)
    assert len(trace) > 1 and s == profiles[-1]
    assert trace == [expected_potential(inst, p) for p in profiles]
    sc = inst._scale
    assert max(u * K for (_, u), (K, _, _) in sc.packed.items()) > 1000  # bits
    q, qf = use_probabilities(inst, s), use_probabilities_reference(inst, s)
    for i, entries in enumerate(inst.menus):
        elements = {e for _, menu in entries for a in menu for e in a.elements}
        for e, weight in interim_weights(inst, q, i, elements).items():
            single = Action(elements=frozenset({e}), cost=inst.element_cost(e))
            got = Fraction(weight, sc.C * sc.L * sc.D_pow[inst.n - 1])
            assert got == action_cost_reference(inst, qf, i, single)
