"""The one strategy sweep behind min_potential_profile, min_cost_profile,
bpos_exact, information_gap_exact and potential_method_certificate, checked
against brute-force definitions over `all_strategy_profiles`."""

import itertools
import random
from fractions import Fraction

import pytest

from netgames import equilibria, games, graph_from_costs
from netgames.equilibria import (
    all_strategy_profiles,
    best_response_dynamics,
    bpos_exact,
    enumerate_pure_bne,
    information_gap_exact,
    min_cost_profile,
    min_potential_profile,
    potential_method_certificate,
    verify_bne,
)
from netgames.games import (
    GameInstance,
    PlayerSpec,
    expected_opt,
    expected_potential,
    expected_social_cost,
    harmonic,
    use_probabilities,
)
from netgames.instances import gen_instance

from conftest import (
    multicast,
    point_mass,
    random_connected_graph,
    sweep_reference,
    uniform,
)
from test_expected_opt import _distribution, random_cover_instance


def tied_routes_instance():
    """Two players at s.  The route via c comes first in canonical order but
    costs 10; the routes via d and e cost 2 each, so the minimizers are tied
    (both players via d, or both via e) and are not the first profile."""
    g = graph_from_costs(
        {
            ("c", "s"): Fraction(5),
            ("c", "r"): Fraction(5),
            ("d", "s"): Fraction(1),
            ("d", "r"): Fraction(1),
            ("e", "s"): Fraction(1),
            ("e", "r"): Fraction(1),
        },
        root="r",
    )
    return multicast(g, point_mass("s"), point_mass("s"))


def tied_cover_instance():
    """Symmetric under swapping b and c, with a costly: mirror profiles tie."""
    costs = (("a", Fraction(5)), ("b", Fraction(1)), ("c", Fraction(1)))
    players = (uniform([("a", "b"), ("a", "c")]), point_mass(("b", "c")))
    return GameInstance(kind="vertex-cover", players=players, node_costs=costs)


def generated_instances():
    for kind, root_mass in (
        ("multicast", False),
        ("multicast", True),
        ("source-sink", False),
        ("vertex-cover", False),
    ):
        for seed in range(4):
            inst = gen_instance(kind, 4, 2, 2, seed=seed, root_mass=root_mass)
            yield pytest.param(inst, id=f"{kind}{'-rm' * root_mass}-{seed}")
    for kind, n_nodes, seed in (
        ("multicast", 4, 2), ("source-sink", 5, 2), ("vertex-cover", 5, 0)
    ):
        inst = gen_instance(kind, n_nodes, 3, 2, seed=seed)
        yield pytest.param(inst, id=f"{kind}-3-players-{seed}")


INSTANCES = [
    *generated_instances(),
    pytest.param(tied_routes_instance(), id="tied-routes"),
    pytest.param(tied_cover_instance(), id="tied-cover"),
]


def first_minimizer(inst, value):
    return min(all_strategy_profiles(inst), key=lambda s: value(inst, s))


@pytest.mark.parametrize("inst", INSTANCES)
def test_sweep_matches_brute_force(inst):
    s_star = first_minimizer(inst, expected_potential)
    s_tilde = first_minimizer(inst, expected_social_cost)
    opt = expected_opt(inst)
    best_bne = min(expected_social_cost(inst, s) for s in enumerate_pure_bne(inst))
    assert min_potential_profile(inst) == s_star
    assert min_cost_profile(inst) == s_tilde
    assert bpos_exact(inst) == best_bne / opt
    assert information_gap_exact(inst) == expected_social_cost(inst, s_tilde) / opt
    values = potential_method_certificate(inst).values
    assert values == {
        "lambda": 1,
        "mu": harmonic(inst.n),
        "K_min_potential": expected_social_cost(inst, s_star),
        "Psi_min_potential": expected_potential(inst, s_star),
        "Psi_min_cost": expected_potential(inst, s_tilde),
        "K_min_cost": expected_social_cost(inst, s_tilde),
        "expected_opt": opt,
        "information_gap": expected_social_cost(inst, s_tilde) / opt,
        "bpos": best_bne / opt,
    }


@pytest.mark.parametrize("inst", [tied_routes_instance(), tied_cover_instance()])
def test_ties_go_to_the_first_profile(inst):
    profiles = list(all_strategy_profiles(inst))
    potentials = [expected_potential(inst, s) for s in profiles]
    costs = [expected_social_cost(inst, s) for s in profiles]
    assert potentials.count(min(potentials)) > 1
    assert costs.count(min(costs)) > 1
    assert potentials.index(min(potentials)) > 0
    assert min_potential_profile(inst) == profiles[potentials.index(min(potentials))]
    assert min_cost_profile(inst) == profiles[costs.index(min(costs))]


THREE_KINDS = [
    pytest.param(gen_instance("multicast", 5, 3, 2, seed=1), id="multicast"),
    pytest.param(gen_instance("source-sink", 5, 3, 2, seed=2), id="source-sink"),
    pytest.param(gen_instance("vertex-cover", 5, 3, 2, seed=0), id="vertex-cover"),
]


class _Counter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        inner = getattr(equilibria, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(equilibria, name, counted)


def test_certificate_sweeps_once_and_solves_the_optimum_once(monkeypatch):
    inst = gen_instance("multicast", 5, 3, 2, seed=1)
    sweeps = _Counter(monkeypatch, "_sweep")
    optima = _Counter(monkeypatch, "expected_opt")
    potential_method_certificate(inst)
    assert (sweeps.calls, optima.calls) == (1, 1)


@pytest.mark.parametrize("inst", THREE_KINDS)
def test_bne_search_checks_only_profiles_no_costlier_than_s_star(inst, monkeypatch):
    checks = _Counter(monkeypatch, "verify_bne")
    cert = potential_method_certificate(inst)
    k_star = cert.values["K_min_potential"]
    no_costlier = sum(
        expected_social_cost(inst, s) <= k_star for s in all_strategy_profiles(inst)
    )
    assert 1 <= checks.calls <= no_costlier < equilibria.strategy_space_size(inst)


def test_bne_search_stops_at_the_cheapest_equilibrium(monkeypatch):
    inst = gen_instance("source-sink", 5, 3, 2, seed=2)
    ordered = sorted(
        enumerate(all_strategy_profiles(inst)),
        key=lambda item: (expected_social_cost(inst, item[1]), item[0]),
    )
    first = next(k for k, (_, s) in enumerate(ordered) if verify_bne(inst, s).is_bne)
    checks = _Counter(monkeypatch, "verify_bne")
    bpos_exact(inst)
    assert checks.calls == first + 1


def sorted_nonzero_columns(inst, s):
    """Element -> the sorted non-zero entries of its use column under s."""
    q = use_probabilities(inst, s)
    return {e: tuple(sorted(a for row in q if (a := row.get(e, 0)))) for e in set().union(*q)}


def test_sweep_computes_one_law_per_sorted_nonzero_column(monkeypatch):
    inst = gen_instance("multicast", 6, 3, 3, seed=2, iid=True)
    priced = []
    inner = equilibria.column_terms

    def counted(inst, entries):
        priced.append(tuple(entries))
        return inner(inst, entries)

    monkeypatch.setattr(equilibria, "column_terms", counted)
    sweep = equilibria._sweep(inst)
    assert len(priced) == len(set(priced))
    assert all(0 not in key and list(key) == sorted(key) for key in priced)
    states = set()  # (element, sorted column) of every row the sweep reached
    for row in (sweep.min_potential, sweep.min_cost, *sweep.candidates()):
        states |= sorted_nonzero_columns(inst, row.profile).items()
    assert {key for _, key in states} <= set(priced)
    # Elements whose columns permute each other share one law.
    assert len(priced) < len(states)


@pytest.mark.parametrize("inst", THREE_KINDS)
def test_candidate_rows_are_built_only_when_read(inst, monkeypatch):
    leaves = len(equilibria._sweep(inst).leaves)
    rows = _Counter(monkeypatch, "_Row")
    checks = _Counter(monkeypatch, "verify_bne")
    information_gap_exact(inst)
    min_potential_profile(inst)
    assert rows.calls == 2 * 2  # s* and s~ of each sweep
    rows.calls = 0
    bpos_exact(inst)
    assert rows.calls == 2 + checks.calls
    assert checks.calls < leaves


def test_menus_are_built_once_per_instance(monkeypatch):
    """`verify_bne` and the dynamics read the instance's menus: each distinct
    type's menu is built once, at the type's first (player, type) slot, and
    is the one tuple of every player that holds the type, however many
    profiles or rounds follow."""
    built = []
    inner = games.feasible_actions

    def counted(inst, i, t):
        built.append((i, t))
        return inner(inst, i, t)

    monkeypatch.setattr(games, "feasible_actions", counted)

    def fresh():
        built.clear()
        return gen_instance("multicast", 5, 3, 2, seed=1)

    inst = fresh()
    slots = [(i, t) for i, spec in enumerate(inst.players) for t in spec.support()]
    firsts = [(i, t) for k, (i, t) in enumerate(slots) if all(t != u for _, u in slots[:k])]
    assert (len(slots), len(firsts)) == (6, 3)
    shared = {}
    for entries in inst.menus:
        for t, menu in entries:
            assert shared.setdefault(t, menu) is menu
    reports = [verify_bne(inst, s) for s in itertools.islice(all_strategy_profiles(inst), 20)]
    assert built == firsts
    s0 = next(r.profile for r in reports if not r.is_bne)

    inst = fresh()
    _, trace = best_response_dynamics(inst, s0, return_trace=True)
    assert len(trace) > 1  # a move, so at least two rounds
    assert built == firsts


def random_graph_instances(kind, count, max_space=1500):
    """The first `count` seeded multicast or source-sink games, with a
    strategy space of at most `max_space`, on random graphs whose edge costs
    are 0, 1 or 2, so that many profiles tie: 2-3 players, 1-2 types each
    (a source-sink type may be a pair (s, s), and a multicast type the
    root)."""
    found = []
    seed = 0
    while len(found) < count:
        rng = random.Random(seed)
        seed += 1
        g = random_connected_graph(rng, max_nodes=5, max_edges=7, costs=(0, 1, 2))
        nodes = sorted(g.nodes)
        players = []
        for _ in range(rng.randint(2, 3)):
            if kind == "multicast":
                types = {rng.choice(nodes) for _ in range(rng.randint(1, 2))}
            else:
                types = {tuple(rng.choices(nodes, k=2)) for _ in range(rng.randint(1, 2))}
            players.append(PlayerSpec(distribution=_distribution(rng, sorted(types))))
        inst = GameInstance(kind=kind, players=tuple(players), graph=g)
        if equilibria.strategy_space_size(inst) <= max_space:
            found.append(pytest.param(inst, id=f"{kind}-seed{seed - 1}"))
    return found


def wide_code_instance():
    """Five movers on a vertex cover, each with one two-action type and one
    single-action type, at probabilities over 999,983 and 1,000,003: a
    column code, base D + 1 ~ 10^12 per mover, takes about 200 bits.  A
    sixth player's only action is node a, which every mover may buy."""
    odd, even = Fraction(1, 999_983), Fraction(500_001, 1_000_003)
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b"), ("b", "c")]
    movers = tuple(
        PlayerSpec(distribution=((pair, p), (("c", "c"), 1 - p)))
        for pair, p in zip(pairs, [odd, even] * 3)
    )
    costs = (("a", Fraction(3)), ("b", Fraction(2)), ("c", Fraction(5, 2)))
    players = movers + (point_mass(("a", "a")),)
    return GameInstance(kind="vertex-cover", players=players, node_costs=costs)


DIFFERENTIAL = [
    *INSTANCES,
    pytest.param(wide_code_instance(), id="wide-codes"),
    *random_graph_instances("multicast", 25),
    *random_graph_instances("source-sink", 25),
    *(
        pytest.param(random_cover_instance(random.Random(seed), "vertex-cover"), id=f"cover-seed{seed}")
        for seed in range(25)
    ),
    *(
        pytest.param(gen_instance("vertex-cover", 6, 3, 2, seed=seed), id=f"vertex-cover-6-{seed}")
        for seed in range(4)
    ),
    # One shared distribution: the columns permute each other, so elements
    # and columns share the most laws.
    *(
        pytest.param(
            gen_instance(kind, n_nodes, 3, 2, seed=seed, iid=True), id=f"{kind}-iid-{seed}"
        )
        for kind, n_nodes in (("multicast", 5), ("source-sink", 5), ("vertex-cover", 6))
        for seed in range(4)
    ),
]


def materialized(sweep):
    """The rows of a sweep: s*, s~ and every candidate."""
    return sweep.min_potential, sweep.min_cost, list(sweep.candidates())


@pytest.mark.parametrize("inst", DIFFERENTIAL)
def test_sweep_equals_the_per_profile_reference(inst):
    assert materialized(equilibria._sweep(inst)) == sweep_reference(inst)


def kernel_case(inst) -> tuple:
    """(multi-action slots, capped at 2; whether a code over the movers
    alone, the players with a multi-action slot, can pass 64 bits; whether a
    mover's option shares an element with another player's single action,
    so a column's code holds digits that no slot changes)."""
    slots = [(i, menu) for i, entries in enumerate(inst.menus) for _, menu in entries if len(menu) > 1]
    movers = {i for i, _ in slots}
    pinned = {
        e for i, entries in enumerate(inst.menus) if i not in movers
        for _, menu in entries for e in menu[0].elements
    }
    joined = any(e in pinned for _, menu in slots for a in menu for e in a.elements)
    return min(len(slots), 2), (inst._scale.D + 1) ** len(movers) > 2 ** 64, joined


def test_the_reference_checks_every_kernel_case():
    """The sweep's special paths: no search (no multi-action slot), one slot
    (its first slot is its last), codes wider than 64 bits, and columns
    whose codes mix a mover's digit with digits no slot changes."""
    cases = [kernel_case(p.values[0]) for p in DIFFERENTIAL]
    assert {depth for depth, _, _ in cases} == {0, 1, 2}
    assert any(wide for _, wide, _ in cases)
    assert {joined for depth, _, joined in cases if depth} == {False, True}


def test_many_single_action_players(triangle):
    """1,200 players whose only type is the root (one action each, the empty
    one) and one player with two types of two routes each."""
    inst = multicast(triangle, *[point_mass("r")] * 1200, uniform(["a", "b"]))
    assert materialized(equilibria._sweep(inst)) == sweep_reference(inst)
    assert potential_method_certificate(inst).all_hold


@pytest.mark.parametrize(
    "two_types",
    [
        pytest.param(uniform(["x", "r"]), id="halves"),
        pytest.param(
            PlayerSpec(distribution=(("x", Fraction(1, 999_983)), ("r", Fraction(999_982, 999_983)))),
            id="wide-codes",
        ),
    ],
)
def test_many_single_action_players_on_a_shared_path(two_types):
    """150 players whose only action at every type is the bridge (r, x) or
    nothing, interleaved with three movers whose routes all cross it; one
    mover also has a single-action type.  A column code holds every player's
    entry, so each law decodes the single-action players' digits too.  With
    `two_types` at 1/999,983, D = 1,999,966 and those digits alone make a
    code about 3,200 bits wide."""
    g = graph_from_costs(
        {("r", "x"): Fraction(3), ("a", "x"): 1, ("b", "x"): 2, ("a", "b"): 1}, root="r"
    )
    pinned = [point_mass("x")] * 100 + [two_types] * 50
    movers = uniform(["a", "b"]), uniform(["x", "a"]), uniform(["b", "r"])
    inst = multicast(g, *pinned[:60], movers[0], *pinned[60:120], movers[1], *pinned[120:], movers[2])
    assert [len(menu) for _, menu in inst.menus[60]] == [2, 2]
    assert [len(menu) for _, menu in inst.menus[121]] == [1, 2]
    assert materialized(equilibria._sweep(inst)) == sweep_reference(inst)


def test_certify_a_space_just_under_the_default_cap():
    """9,561,344 profiles: pricing each one took about 40 minutes."""
    inst = gen_instance("multicast", 7, 3, 2, seed=6)
    assert equilibria.strategy_space_size(inst) == 9_561_344
    assert potential_method_certificate(inst).all_hold
    assert verify_bne(inst, min_potential_profile(inst)).is_bne
