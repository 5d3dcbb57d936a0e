import dataclasses
import random
from fractions import Fraction

import pytest

from netgames import (
    best_response_dynamics,
    bpos_exact,
    expected_potential,
    expected_social_cost,
    feasible_actions,
    graph_from_costs,
    harmonic,
    information_gap_exact,
    min_potential_profile,
    potential_method_certificate,
    verify_bne,
)
from netgames.equilibria import (
    all_strategy_profiles,
    enumerate_pure_bne,
    min_cost_profile,
    strategy_space_size,
)
from netgames.errors import StrategySpaceTooLargeError, ZeroOptimumError
from netgames.games import GameInstance
from netgames.instances import gen_instance

from conftest import multicast, point_mass, uniform


def shared_edge_instance():
    g = graph_from_costs({("r", "s"): Fraction(1)}, root="r")
    return multicast(g, point_mass("s"), point_mass("s"))


def shared_vs_private(cheap_alt):
    """Two players at s; direct shared edge cost 1, alternative two-hop
    route via q with total cost `cheap_alt`."""
    g = graph_from_costs(
        {
            ("r", "s"): Fraction(1),
            ("q", "s"): Fraction(cheap_alt) / 2,
            ("q", "r"): Fraction(cheap_alt) / 2,
        },
        root="r",
    )
    return multicast(g, point_mass("s"), point_mass("s"))


def parallel_edges_instance():
    """One player, two routes to the root costing 1 and 2."""
    g = graph_from_costs(
        {("r", "s"): Fraction(1), ("q", "s"): Fraction(1), ("q", "r"): Fraction(1)},
        root="r",
    )
    return multicast(g, point_mass("s"))


def frozen_gap_instance():
    """Seeded 4-node i.i.d. multicast instance with information gap
    1223/1148 > 1 (found by randomized search over generator seeds)."""
    return gen_instance("multicast", n_nodes=4, n_players=2, n_types=2,
                        seed=6, iid=True)


def random_small_instances(count, n_players=2, n_types=2, kind="multicast"):
    return [
        gen_instance(kind, n_nodes=4, n_players=n_players, n_types=n_types, seed=s)
        for s in range(count)
    ]


class TestVerifyBne:
    def test_shared_edge_is_bne(self):
        inst = shared_edge_instance()
        s = min_potential_profile(inst)
        rep = verify_bne(inst, s)
        assert rep.is_bne and rep.worst_violation is None

    def test_violation_gap(self):
        inst = shared_vs_private(Fraction(1, 4))
        direct = {
            "s": next(
                a
                for a in feasible_actions(inst, 0, "s")
                if a.elements == frozenset({("r", "s")})
            )
        }
        rep = verify_bne(inst, (direct, dict(direct)))
        assert not rep.is_bne
        assert rep.worst_violation[3] == Fraction(1, 2) - Fraction(1, 4)

    def test_potential_minimizer_is_bne_random(self):
        for inst in random_small_instances(10):
            s = min_potential_profile(inst)
            assert verify_bne(inst, s).is_bne


class TestMinPotentialProfile:
    def test_parallel_edges(self):
        inst = parallel_edges_instance()
        s = min_potential_profile(inst)
        assert expected_potential(inst, s) == 1
        assert s[0]["s"].elements == frozenset({("r", "s")})

    def test_equals_enumeration_min(self):
        for inst in random_small_instances(8):
            s = min_potential_profile(inst)
            assert expected_potential(inst, s) == min(
                expected_potential(inst, t) for t in all_strategy_profiles(inst)
            )

    def test_strategy_cap(self):
        inst = frozen_gap_instance()
        with pytest.raises(StrategySpaceTooLargeError):
            min_potential_profile(dataclasses.replace(inst, strategy_cap=1))


class TestBestResponseDynamics:
    def test_fixed_point(self):
        inst = shared_edge_instance()
        s0 = min_potential_profile(inst)
        s = best_response_dynamics(inst, s0)
        assert s == s0

    def test_potential_strictly_decreases(self):
        for inst in random_small_instances(10):
            s0 = tuple(
                {t: feasible_actions(inst, i, t)[-1] for t in spec.support()}
                for i, spec in enumerate(inst.players)
            )
            _, trace = best_response_dynamics(inst, s0, return_trace=True)
            assert all(a > b for a, b in zip(trace, trace[1:]))

    def test_terminates_at_bne(self):
        for inst in random_small_instances(10):
            s0 = tuple(
                {t: feasible_actions(inst, i, t)[-1] for t in spec.support()}
                for i, spec in enumerate(inst.players)
            )
            s = best_response_dynamics(inst, s0)
            assert verify_bne(inst, s).is_bne


class TestEnumerateBne:
    def test_unique_profile(self):
        inst = shared_edge_instance()
        bnes = enumerate_pure_bne(inst)
        assert len(bnes) == 1

    def test_contains_potential_minimizer(self):
        for inst in random_small_instances(8):
            s = min_potential_profile(inst)
            assert s in enumerate_pure_bne(inst)

    def test_two_strict_equilibria(self):
        inst = shared_vs_private(Fraction(3, 4))
        bnes = enumerate_pure_bne(inst)
        used = {
            frozenset().union(*(s[i]["s"].elements for i in range(2))) for s in bnes
        }
        assert used == {
            frozenset({("r", "s")}),
            frozenset({("q", "s"), ("q", "r")}),
        }

    def test_matches_verify_bne_on_all_profiles(self):
        inst = shared_vs_private(Fraction(3, 4))
        expected = [
            s for s in all_strategy_profiles(inst) if verify_bne(inst, s).is_bne
        ]
        assert enumerate_pure_bne(inst) == expected


class TestRatios:
    def test_bpos_singleton_optimum(self):
        assert bpos_exact(parallel_edges_instance()) == 1

    def test_bpos_at_least_one(self):
        for inst in random_small_instances(8):
            assert bpos_exact(inst) >= 1

    def test_point_mass_equals_complete_information_pos(self):
        inst = shared_vs_private(Fraction(3, 4))
        # Complete-information PoS by direct profile enumeration.
        from netgames.games import social_cost
        import itertools

        menus = [feasible_actions(inst, i, "s") for i in range(2)]
        opt = min(social_cost(inst, p) for p in itertools.product(*menus))
        best_eq = min(
            expected_social_cost(inst, s) for s in enumerate_pure_bne(inst)
        )
        assert bpos_exact(inst) == best_eq / opt

    @pytest.mark.parametrize(
        "analysis",
        [bpos_exact, information_gap_exact, potential_method_certificate],
    )
    def test_strategy_cap_is_read_from_the_instance(self, analysis):
        inst = frozen_gap_instance()
        capped = dataclasses.replace(inst, strategy_cap=strategy_space_size(inst) - 1)
        with pytest.raises(StrategySpaceTooLargeError):
            analysis(capped)
        analysis(dataclasses.replace(capped, strategy_cap=strategy_space_size(inst)))

    def test_ig_point_mass_is_one(self):
        assert information_gap_exact(shared_vs_private(Fraction(3, 4))) == 1

    def test_ig_single_player_is_one(self):
        inst = multicast(frozen_gap_instance().graph, uniform(["v1", "v2"]))
        assert information_gap_exact(inst) == 1

    def test_ig_strictly_above_one(self):
        assert information_gap_exact(frozen_gap_instance()) == Fraction(1223, 1148)

    def test_zero_optimum(self, triangle):
        inst = multicast(triangle, point_mass("r"))
        with pytest.raises(ZeroOptimumError):
            bpos_exact(inst)
        with pytest.raises(ZeroOptimumError):
            information_gap_exact(inst)


class TestCertificate:
    def test_links_hold_on_random_instances(self):
        for inst in random_small_instances(8):
            cert = potential_method_certificate(inst)
            assert cert.all_hold

    def test_single_player_point_mass_collapses(self):
        inst = parallel_edges_instance()
        cert = potential_method_certificate(inst)
        assert cert.all_hold
        assert cert.values["K_min_potential"] == cert.values["Psi_min_potential"]
        assert cert.values["mu"] == harmonic(1) == 1
        assert cert.values["bpos"] == cert.values["information_gap"] == 1

    def test_harmonic_bound(self):
        for inst in random_small_instances(8):
            assert bpos_exact(inst) <= harmonic(inst.n) * information_gap_exact(inst)

    def test_min_cost_profile_matches_enumeration(self):
        for inst in random_small_instances(5):
            s = min_cost_profile(inst)
            assert expected_social_cost(inst, s) == min(
                expected_social_cost(inst, t) for t in all_strategy_profiles(inst)
            )
