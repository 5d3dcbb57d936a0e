import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from netgames import (
    SampleProfile,
    construct_strategy_iid,
    construct_strategy_noniid,
    derandomize,
    evaluate_construction_exact,
    evaluate_construction_mc,
    expected_opt,
    expected_social_cost,
    feasible_actions,
    regrouping_sides,
    steiner_scheme,
)
from netgames.errors import PreconditionError, SupportTooLargeError, UnreachableError
from netgames.games import GameInstance, PlayerSpec
from netgames.graphs import graph_from_costs, route, shortest_path
from netgames.instances import gen_instance
from netgames.sampling import _clients, _draw_law, _draw_players

from conftest import (
    construction_reference,
    derandomize_reference,
    multicast,
    point_mass,
    random_connected_graph,
    restricted_action_reference,
    sample_type_reference,
    uniform,
)


def scheme_for(inst):
    return steiner_scheme(inst.graph)


def iid_triangle(triangle):
    return multicast(triangle, uniform(["a", "b"]), uniform(["a", "b"]))


def enumerated(types):
    return SampleProfile(types=tuple(types))


def counting_scheme(scheme):
    """`scheme` with `approx` and `augment` counting their calls."""
    calls = {"approx": 0, "augment": 0}

    def counted(name):
        inner = getattr(scheme, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    fields = {name: counted(name) for name in calls}
    return dataclasses.replace(scheme, **fields), calls


class TestConstructIid:
    def test_all_root_draw_is_pure_augmentation(self, triangle):
        inst = iid_triangle(triangle)
        s = construct_strategy_iid(inst, scheme_for(inst), enumerated(["r"]))
        for t in ("a", "b"):
            expect = shortest_path(triangle, t, "r").edges
            assert s[0][t].elements == expect

    def test_sampled_type_rides_the_tree(self, triangle):
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        s = construct_strategy_iid(inst, scheme, enumerated(["a"]))
        base = scheme.approx(frozenset({"a"}))
        assert scheme.augment(base, "a").cost == 0
        assert s[0]["a"].elements <= base.edges

    def test_feasibility_random(self):
        for seed in range(10):
            inst = gen_instance("multicast", n_nodes=4, n_players=3,
                                n_types=2, seed=seed, iid=True)
            scheme = scheme_for(inst)
            rho = inst.players[0].support()
            for d1 in rho:
                for d2 in rho:
                    s = construct_strategy_iid(inst, scheme, enumerated([d1, d2]))
                    for i in range(inst.n):
                        for t in rho:
                            menu = {a.elements for a in feasible_actions(inst, i, t)}
                            assert s[i][t].elements in menu

    def test_symmetry(self, triangle):
        inst = iid_triangle(triangle)
        s = construct_strategy_iid(inst, scheme_for(inst), enumerated(["b"]))
        assert s[0] == s[1]

    def test_draw_size_checked(self, triangle):
        inst = iid_triangle(triangle)
        with pytest.raises(ValueError):
            construct_strategy_iid(inst, scheme_for(inst), enumerated(["a", "b"]))


class TestConstructNoniid:
    def test_independent_decisions_model(self):
        for seed in range(10):
            inst = gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed, root_mass=True)
            scheme = scheme_for(inst)
            supports = [spec.support() for spec in inst.players]
            draw = enumerated([sup[0] for sup in supports])
            s = construct_strategy_noniid(inst, scheme, draw)
            for i, sup in enumerate(supports):
                assert not s[i][inst.graph.root].elements
                for t in sup:
                    menu = {a.elements for a in feasible_actions(inst, i, t)}
                    assert s[i][t].elements in menu

    def test_point_mass_bound_every_draw(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        scheme = scheme_for(inst)
        rep = evaluate_construction_exact(inst, scheme, "noniid")
        assert rep.passed
        assert rep.total <= 3 * expected_opt(inst)

    def test_draw_size_checked(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        with pytest.raises(ValueError):
            construct_strategy_noniid(inst, scheme_for(inst), enumerated(["a"]))


class TestEvaluateExact:
    def test_triangle_iid_bound(self, triangle):
        inst = iid_triangle(triangle)
        rep = evaluate_construction_exact(inst, scheme_for(inst), "iid")
        assert rep.passed
        assert rep.bound == 3 * expected_opt(inst)
        assert rep.total <= rep.first_stage + rep.augmentation

    def test_single_player(self, triangle):
        inst = multicast(triangle, uniform(["a", "b"]))
        rep = evaluate_construction_exact(inst, scheme_for(inst), "iid")
        assert rep.passed

    def test_random_instances(self):
        for seed in range(15):
            inst = gen_instance("multicast", n_nodes=4, n_players=3,
                                n_types=2, seed=seed, iid=True)
            rep = evaluate_construction_exact(inst, scheme_for(inst), "iid")
            assert rep.passed

    def test_first_stage_alpha_bound(self):
        for seed in range(10):
            inst = gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed, iid=True)
            scheme = scheme_for(inst)
            rep = evaluate_construction_exact(inst, scheme, "iid")
            assert rep.first_stage <= scheme.alpha * expected_opt(inst)

    def test_regrouping_identity(self):
        for seed in range(10):
            inst = gen_instance("multicast", n_nodes=4, n_players=3,
                                n_types=2, seed=seed, iid=True)
            lhs, rhs = regrouping_sides(inst, scheme_for(inst))
            assert lhs == rhs


class TestOneSolvePerDraw:
    """The constructed profile depends on a draw only through its client
    set: A(D) is solved once per distinct set, and B(A(D), t) once per set
    and support type (exact) or per set and realized type (Monte Carlo),
    however many draws or players share them."""

    def test_exact_evaluation(self):
        inst = gen_instance("multicast", 6, 3, 3, seed=3)
        scheme, calls = counting_scheme(scheme_for(inst))
        rep = evaluate_construction_exact(inst, scheme, "noniid")
        assert rep == construction_reference(inst, scheme_for(inst), "noniid")
        draws = itertools.product(*(spec.support() for spec in inst.players))
        sets = {_clients(inst, D) for D in draws}
        types = {t for spec in inst.players for t in spec.support()}
        assert len(sets) < inst.support_size()
        assert calls == {"approx": len(sets), "augment": len(sets) * len(types)}

    def test_derandomize(self, triangle):
        inst = iid_triangle(triangle)
        scheme, calls = counting_scheme(scheme_for(inst))
        assert derandomize(inst, scheme, "iid") == derandomize(
            inst, scheme_for(inst), "iid"
        )
        assert calls == {"approx": 2, "augment": 2 * 2}

    def test_monte_carlo_augments_realized_types(self):
        inst = gen_instance("multicast", 6, 3, 3, seed=3)
        scheme, calls = counting_scheme(scheme_for(inst))
        rep = evaluate_construction_mc(inst, scheme, "noniid", samples=60, seed=5)
        assert rep == construction_reference(inst, scheme_for(inst), "noniid", 60, 5)
        rng = random.Random(5)
        sets, pairs = set(), set()
        for _ in range(60):
            D = [sample_type_reference(rng, spec.distribution) for spec in inst.players]
            realized = [sample_type_reference(rng, spec.distribution) for spec in inst.players]
            sets.add(_clients(inst, D))
            pairs |= {(_clients(inst, D), t) for t in realized}
        assert len(sets) < 60
        assert calls == {"approx": len(sets), "augment": len(pairs)}


def differential_instances():
    """Generated multicast games, each with the variants it admits: seeds
    0-9 with independent, root-mass (the root shows up in draws and
    collapses client sets) and i.i.d. distributions."""
    for seed in range(10):
        yield f"plain-{seed}", gen_instance("multicast", 5, 3, 2, seed=seed), ("noniid",)
        yield (
            f"root-mass-{seed}",
            gen_instance("multicast", 5, 3, 2, seed=seed, root_mass=True),
            ("noniid",),
        )
        yield (
            f"iid-{seed}",
            gen_instance("multicast", 5, 3, 3, seed=seed, iid=True),
            ("iid", "noniid"),
        )
        yield (
            f"iid-root-mass-{seed}",
            gen_instance("multicast", 5, 4, 2, seed=seed, iid=True, root_mass=True),
            ("iid", "noniid"),
        )


DIFFERENTIAL = list(differential_instances())


def overlapping_instances():
    """Non-i.i.d. multicast games of 4-5 players on generated 6-node graphs,
    each player drawing one or two types from one pool of four non-root
    nodes, so the supports overlap.  In seeds 10, 17 and 143 the cheapest
    client set's least draw is not the greedy one: the least type that
    leaves enough later positions strands a client that no later support
    holds."""
    for seed in (*range(6), 10, 17, 143):
        rng = random.Random(seed)
        g = gen_instance("multicast", 6, 1, 1, seed=seed).graph
        pool = rng.sample([v for v in g.nodes if v != g.root], 4)
        players = []
        for _ in range(rng.randint(4, 5)):
            types = rng.sample(pool, rng.randint(1, 2))
            weights = [rng.randint(1, 3) for _ in types]
            dist = tuple((t, Fraction(w, sum(weights))) for t, w in zip(types, weights))
            players.append(PlayerSpec(dist))
        yield f"overlap-{seed}", GameInstance(kind="multicast", players=tuple(players), graph=g)


OVERLAPPING = list(overlapping_instances())


class TestAgainstReference:
    """One step per client set, integer Monte-Carlo sums: the same reports,
    field for field, as the per-draw construction of `construction_reference`."""

    @pytest.mark.parametrize("name,inst,variants", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
    def test_exact_and_derandomize(self, name, inst, variants):
        scheme = scheme_for(inst)
        for variant in variants:
            assert evaluate_construction_exact(inst, scheme, variant) == construction_reference(
                inst, scheme, variant
            )
            assert derandomize(inst, scheme, variant) == derandomize_reference(
                inst, scheme, variant
            )

    @pytest.mark.parametrize("name,inst", OVERLAPPING, ids=[c[0] for c in OVERLAPPING])
    def test_derandomize_on_overlapping_supports(self, name, inst):
        scheme = scheme_for(inst)
        assert derandomize(inst, scheme, "noniid") == derandomize_reference(inst, scheme, "noniid")

    @pytest.mark.parametrize("name,inst,variants", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
    def test_monte_carlo(self, name, inst, variants):
        scheme = scheme_for(inst)
        for variant in variants:
            for samples, seed in ((1, 0), (2, 3), (37, 11)):
                got = evaluate_construction_mc(inst, scheme, variant, samples, seed)
                ref = construction_reference(inst, scheme, variant, samples, seed)
                assert got == ref
                assert repr(got.stderr) == repr(ref.stderr)


class TestEvaluateMc:
    def test_deterministic_given_seed(self, triangle):
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        a = evaluate_construction_mc(inst, scheme, "iid", samples=64, seed=9)
        b = evaluate_construction_mc(inst, scheme, "iid", samples=64, seed=9)
        assert a == b

    def test_within_three_stderr_of_exact(self, triangle):
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        exact = evaluate_construction_exact(inst, scheme, "iid")
        mc = evaluate_construction_mc(inst, scheme, "iid", samples=400, seed=1)
        assert abs(float(mc.total - exact.total)) <= 3 * mc.stderr

    def test_point_mass_is_exact(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        scheme = scheme_for(inst)
        exact = evaluate_construction_exact(inst, scheme, "noniid")
        mc = evaluate_construction_mc(inst, scheme, "noniid", samples=4, seed=0)
        assert mc.total == exact.total

    def test_needs_samples(self, triangle):
        inst = iid_triangle(triangle)
        with pytest.raises(ValueError):
            evaluate_construction_mc(inst, scheme_for(inst), "iid", samples=0)

    def test_unknown_variant_rejected(self, triangle):
        inst = iid_triangle(triangle)
        for run in (evaluate_construction_exact, evaluate_construction_mc):
            args = (10,) if run is evaluate_construction_mc else ()
            with pytest.raises(ValueError, match="unknown variant"):
                run(inst, scheme_for(inst), "mixed", *args)
        # The variant is checked before the sample count.
        with pytest.raises(PreconditionError, match="unknown variant"):
            evaluate_construction_mc(inst, scheme_for(inst), "mixed", samples=0)


def least_draw_bruteforce(supports, root, clients):
    """The least draw of the product of the supports whose client set is
    `clients`, or None."""
    draws = itertools.product(*supports)
    return min((D for D in draws if {t for t in D if t != root} == clients), default=None)


def draw_law_bruteforce(inst, positions):
    """`_draw_law` by a walk of every draw of `itertools.product`: per
    client set, its summed integer weight and its least draw, keyed in the
    order of each set's first draw."""
    rows = [list(zip(inst.players[i].support(), inst._scale.weights[i])) for i in positions]
    law = {}
    for combo in itertools.product(*rows):
        D = tuple(t for t, _ in combo)
        clients = _clients(inst, D)
        weight, least = law.get(clients, (0, D))
        law[clients] = (weight + math.prod(w for _, w in combo), min(least, D))
    return law


LETTERS = graph_from_costs(
    {("r", "a"): 1, ("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "x"): 1}, root="r"
)


def least_draws(supports):
    """Client set -> the least draw that `_draw_law` keeps for it, on a game
    with one player per support, uniform over it (one unused player when
    there is no support)."""
    inst = multicast(LETTERS, *([uniform(sup) for sup in supports] or [point_mass("r")]))
    return {S: D for S, (_, D) in _draw_law(inst, list(range(len(supports)))).items()}


class TestDrawLaw:
    """`_draw_law`, the client-set law with one state per set, against a
    walk of every draw."""

    @pytest.mark.parametrize("seed", range(6))
    def test_against_every_draw(self, seed):
        for size, iid, root_mass in itertools.product(
            ((4, 2, 2), (5, 3, 2), (6, 3, 3)), (False, True), (False, True)
        ):
            inst = gen_instance("multicast", *size, seed=seed, iid=iid, root_mass=root_mass)
            for variant in ("iid", "noniid") if iid else ("noniid",):
                positions = _draw_players(inst, scheme_for(inst), variant)
                law = _draw_law(inst, positions)
                want = draw_law_bruteforce(inst, positions)
                assert law == want and list(law) == list(want)
                assert sum(w for w, _ in law.values()) == inst._scale.D ** len(positions)


class TestLeastDraw:
    """The least draw that `_draw_law` keeps per client set, on games built
    from the supports, against the least draw of `itertools.product` with
    that client set."""

    @pytest.mark.parametrize(
        "supports,clients,expect",
        [
            # Counting alone takes a at position 0 and strands b.
            ([["b", "a"], ["a"]], {"a", "b"}, ("b", "a")),
            # The middle position holds no client and draws the root.
            ([["r", "a"], ["r"], ["c", "b"]], {"a", "c"}, ("a", "r", "c")),
            ([["a", "r"], ["c", "a"], ["b", "c"]], {"c"}, ("r", "c", "c")),
            # A position holding neither a client nor the root: no draw.
            ([["a"], ["x"]], {"a"}, None),
            ([["a"], ["b"]], {"a"}, None),
            ([], set(), ()),
            ([], {"a"}, None),
        ],
    )
    def test_cases(self, supports, clients, expect):
        assert least_draw_bruteforce(supports, "r", clients) == expect
        assert least_draws(supports).get(frozenset(clients)) == expect

    def test_random_supports(self):
        """Overlapping supports, in random support order, some holding the
        root, against every client set of the pool."""
        rng = random.Random(71)
        pool = ["r", "a", "b", "c", "d"]
        for _ in range(250):
            supports = [rng.sample(pool, rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
            law = least_draws(supports)
            for k in range(len(pool)):
                for clients in itertools.combinations(pool[1:], k):
                    expect = least_draw_bruteforce(supports, "r", set(clients))
                    assert law.get(frozenset(clients)) == expect


class TestDerandomize:
    def test_point_mass_recovers_true_types(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        D, _ = derandomize(inst, scheme_for(inst), "noniid")
        assert D.types == ("a", "b")

    def test_best_draw_beats_average(self, triangle):
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        _, s = derandomize(inst, scheme, "iid")
        rep = evaluate_construction_exact(inst, scheme, "iid")
        assert expected_social_cost(inst, s) <= rep.total

    def test_ratio_within_guarantee(self):
        for seed in range(10):
            inst = gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed, iid=True)
            scheme = scheme_for(inst)
            _, s = derandomize(inst, scheme, "iid")
            opt = expected_opt(inst)
            if opt == 0:
                continue
            assert expected_social_cost(inst, s) / opt <= 3


class TestGuards:
    @pytest.mark.parametrize("kind", ["source-sink", "vertex-cover"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst: construct_strategy_iid(inst, None, enumerated(["a"])),
            lambda inst: construct_strategy_noniid(inst, None, enumerated(["a", "b"])),
            lambda inst: evaluate_construction_exact(inst, None, "noniid"),
            lambda inst: evaluate_construction_mc(inst, None, "noniid", 5, 1),
            lambda inst: derandomize(inst, None, "noniid"),
            lambda inst: regrouping_sides(inst, None),
        ],
        ids=["construct-iid", "construct-noniid", "exact", "monte-carlo", "derandomize",
             "regrouping"],
    )
    def test_multicast_only(self, run, kind):
        """Every entry point rejects a game that is not multicast before it
        reads the scheme or `inst.graph` (None for the cover kinds)."""
        inst = gen_instance(kind, 4, 2, 2, seed=0)
        with pytest.raises(PreconditionError, match="multicast games only"):
            run(inst)

    def test_iid_requires_identical_distributions(self, triangle):
        inst = multicast(triangle, point_mass("a"), point_mass("b"))
        with pytest.raises(ValueError):
            construct_strategy_iid(inst, scheme_for(inst), enumerated(["a"]))

    def test_iid_compares_distributions_as_maps(self, triangle):
        """Players that list one distribution in two orders are i.i.d.: the
        exact answers equal those of the game listed in one order.  Monte
        Carlo draws by listing order, so it is left out."""
        one = PlayerSpec(distribution=(("a", Fraction(1, 3)), ("b", Fraction(2, 3))))
        other = PlayerSpec(distribution=(("b", Fraction(2, 3)), ("a", Fraction(1, 3))))
        listed, reordered = multicast(triangle, one, one), multicast(triangle, one, other)
        scheme = scheme_for(listed)
        exact = evaluate_construction_exact(listed, scheme, "iid")
        assert exact.total == Fraction(8, 3)
        assert evaluate_construction_exact(reordered, scheme, "iid") == exact
        assert derandomize(reordered, scheme, "iid") == derandomize(listed, scheme, "iid")
        assert regrouping_sides(reordered, scheme) == regrouping_sides(listed, scheme)

    def test_cap_bounds_the_draws_only(self, triangle):
        """Expectations are closed-form, so the cap bounds the number of
        draws (and the support of expected_opt), not draws x support."""
        inst = multicast(triangle, uniform(["a", "b"]), uniform(["a", "r"]))
        scheme = scheme_for(inst)
        capped = dataclasses.replace(inst, support_cap=4)
        rep = evaluate_construction_exact(capped, scheme, "noniid")
        assert rep.total == evaluate_construction_exact(inst, scheme, "noniid").total
        capped = dataclasses.replace(inst, support_cap=3)
        for run in (evaluate_construction_exact, derandomize):
            with pytest.raises(SupportTooLargeError, match="^draw support 4 exceeds cap 3$"):
                run(capped, scheme, "noniid")

    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, scheme: evaluate_construction_exact(inst, scheme, "noniid"),
            lambda inst, scheme: evaluate_construction_mc(inst, scheme, "noniid", 5, 1),
            lambda inst, scheme: derandomize(inst, scheme, "noniid"),
            lambda inst, scheme: construct_strategy_noniid(inst, scheme, enumerated(["a", "b"])),
        ],
        ids=["exact", "monte-carlo", "derandomize", "construct"],
    )
    def test_noniid_needs_a_cross_monotone_scheme(self, triangle, run):
        """The per-player draws' bound rests on cross-monotonicity; the
        i.i.d. construction does not, and still runs."""
        inst = iid_triangle(triangle)
        scheme = dataclasses.replace(scheme_for(inst), cross_monotone=False)
        with pytest.raises(PreconditionError, match="cross-monotone"):
            run(inst, scheme)
        assert evaluate_construction_exact(inst, scheme, "iid") == evaluate_construction_exact(
            inst, scheme_for(inst), "iid"
        )
        assert construct_strategy_iid(inst, scheme, enumerated(["a"]))

    def test_monte_carlo_needs_scheme_costs_on_the_graphs_grid(self, triangle):
        """Monte-Carlo and exact sums are integers over the graph's cost
        denominators; a base or augmentation cost off that grid raises
        rather than rounds."""
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        third = Fraction(1, 3)
        for off_grid in (
            dataclasses.replace(
                scheme,
                approx=lambda clients: dataclasses.replace(scheme.approx(clients), cost=third),
            ),
            dataclasses.replace(
                scheme,
                augment=lambda base, t: dataclasses.replace(scheme.augment(base, t), cost=third),
            ),
        ):
            with pytest.raises(PreconditionError, match="edge costs"):
                evaluate_construction_mc(inst, off_grid, "iid", 5, 0)
            with pytest.raises(PreconditionError, match="edge costs"):
                evaluate_construction_exact(inst, off_grid, "iid")

    def test_cap_bounds_regrouping(self, triangle):
        """Regrouping enumerates rho^n: 2^2 = 4 profiles here."""
        inst = iid_triangle(triangle)
        scheme = scheme_for(inst)
        lhs, rhs = regrouping_sides(dataclasses.replace(inst, support_cap=4), scheme)
        assert lhs == rhs
        with pytest.raises(SupportTooLargeError):
            regrouping_sides(dataclasses.replace(inst, support_cap=3), scheme)


class TestRestrictedAction:
    """The construction's cheapest action inside A(D) | B(A(D), t), the
    graph's `route` over those edges, against the new-`Graph` oracle."""

    @pytest.mark.parametrize("costs", [(0, 1, 2), None], ids=["tie-heavy", "fractional"])
    def test_matches_reference(self, costs):
        rng = random.Random(59)
        for _ in range(40):
            g = random_connected_graph(rng, max_nodes=7, max_edges=12, costs=costs)
            keys = g.edge_keys()
            for _ in range(6):
                allowed = frozenset(rng.sample(keys, rng.randint(0, len(keys))))
                for source in g.nodes:
                    try:
                        ref = restricted_action_reference(g, allowed, source)
                    except UnreachableError as exc:
                        with pytest.raises(UnreachableError) as got:
                            route(g, source, g.root, allowed)
                        assert str(got.value) == str(exc)
                        continue
                    path = route(g, source, g.root, allowed)
                    assert (path.edges, path.cost) == (ref.elements, ref.cost)

    def test_unknown_source(self, triangle):
        allowed = frozenset(triangle.edge_keys())
        with pytest.raises(UnreachableError) as got:
            route(triangle, "x", triangle.root, allowed)
        with pytest.raises(UnreachableError) as ref:
            restricted_action_reference(triangle, allowed, "x")
        assert str(got.value) == str(ref.value)

    def test_edges_outside_the_graph_are_ignored(self, triangle):
        allowed = frozenset({("a", "b"), ("b", "r")})
        foreign = allowed | {("q", "z"), ("a", "z")}
        assert route(triangle, "a", "r", foreign) == route(triangle, "a", "r", allowed)
        assert route(triangle, "a", "r", allowed).edges == allowed
