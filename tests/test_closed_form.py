"""Differential tests: the closed-form expectations in `games` and the
interim costs in `equilibria` against exact enumeration of type profiles,
the definitions they replace."""

import dataclasses
import random
from fractions import Fraction

import pytest

from netgames import games, graphs
from netgames.equilibria import best_response_dynamics, interim_cost, verify_bne
from netgames.errors import SupportTooLargeError
from netgames.games import (
    GameInstance,
    PlayerSpec,
    ex_post_opt,
    expected_opt,
    expected_player_cost,
    expected_potential,
    expected_social_cost,
    feasible_actions,
    player_cost,
    rosenthal_potential,
    social_cost,
    type_profiles,
)
from netgames.instances import gen_instance

from conftest import multicast, profile_actions, uniform

# ---------------------------------------------------------------------------
# Oracles: sums over the full product support of the players' types.


def _weighted(inst, s, value):
    return sum(
        (
            w * value(profile_actions(s, tp))
            for tp, w in type_profiles(
                dataclasses.replace(inst, support_cap=inst.support_size())
            )
        ),
        Fraction(0),
    )


def oracle_social_cost(inst, s):
    return _weighted(inst, s, lambda prof: social_cost(inst, prof))


def oracle_potential(inst, s):
    return _weighted(inst, s, lambda prof: rosenthal_potential(inst, prof))


def oracle_player_cost(inst, s, i):
    return _weighted(inst, s, lambda prof: player_cost(inst, prof, i))


def oracle_interim_cost(inst, s, i, action):
    """Player i's expected cost of `action` over the opponents' types (player
    i's own type is summed out: it does not change the profile)."""
    return _weighted(
        inst, s, lambda prof: player_cost(inst, prof[:i] + (action,) + prof[i + 1:], i)
    )


def oracle_best_response_dynamics(inst, s0):
    """Round-robin best responses with enumerated interim costs; returns the
    final profile and the enumerated potential after every move."""
    s = tuple(dict(p) for p in s0)
    trace = [oracle_potential(inst, s)]
    changed = True
    while changed:
        changed = False
        for i, spec in enumerate(inst.players):
            for t, _ in spec.distribution:
                best_act = s[i][t]
                best_val = oracle_interim_cost(inst, s, i, best_act)
                for alt in feasible_actions(inst, i, t):
                    val = oracle_interim_cost(inst, s, i, alt)
                    if val < best_val:
                        best_act, best_val = alt, val
                if best_act != s[i][t]:
                    s[i][t] = best_act
                    changed = True
                    trace.append(oracle_potential(inst, s))
    return tuple(s), trace


# ---------------------------------------------------------------------------
# Instances and profiles


def uniform_over(*types):
    return PlayerSpec(distribution=tuple((t, Fraction(1, len(types))) for t in types))


def hypergraph_instance():
    costs = tuple((f"h{k}", Fraction(k + 1, 2)) for k in range(5))
    return GameInstance(
        kind="hypergraph-cover",
        players=(
            uniform_over(("h0", "h1", "h2"), ("h1", "h3", "h4")),
            uniform_over(("h0", "h2", "h4"),),
            uniform_over(("h1", "h2", "h3"), ("h0", "h3", "h4"), ("h2", "h3", "h4")),
        ),
        node_costs=costs,
    )


def instances():
    out = []
    for seed in range(4):
        for kind in ("multicast", "source-sink", "vertex-cover"):
            out.append(gen_instance(kind, n_nodes=5, n_players=3, n_types=2, seed=seed))
        out.append(gen_instance("multicast", n_nodes=5, n_players=3, seed=seed, root_mass=True))
    out.append(hypergraph_instance())
    return out


INSTANCES = instances()


def random_profiles(inst, rng, count):
    menus = [
        [(t, feasible_actions(inst, i, t)) for t, _ in spec.distribution]
        for i, spec in enumerate(inst.players)
    ]
    return [
        tuple({t: rng.choice(acts) for t, acts in entries} for entries in menus)
        for _ in range(count)
    ]


@pytest.fixture(params=range(len(INSTANCES)), ids=lambda k: f"{INSTANCES[k].kind}-{k}")
def inst(request):
    return INSTANCES[request.param]


# ---------------------------------------------------------------------------
# Tests


def test_expectations_equal_enumeration(inst):
    for s in random_profiles(inst, random.Random(7), 4):
        assert expected_social_cost(inst, s) == oracle_social_cost(inst, s)
        assert expected_potential(inst, s) == oracle_potential(inst, s)
        for i in range(inst.n):
            assert expected_player_cost(inst, s, i) == oracle_player_cost(inst, s, i)


def test_expected_opt_equals_the_per_profile_sum(inst):
    want = sum(
        (w * ex_post_opt(inst, tp)[1] for tp, w in type_profiles(inst)), Fraction(0)
    )
    assert expected_opt(inst) == want


def test_expected_opt_solves_each_terminal_set_once(triangle, monkeypatch):
    """Four players over {a, b, r}: 81 type profiles, but the optimum
    depends only on the set of non-root sources, of which there are 4 (the
    law's masks); the three nonempty ones each take one Steiner tree."""
    inst = multicast(triangle, *[uniform(["a", "b", "r"])] * 4)
    want = sum(
        (w * ex_post_opt(inst, tp)[1] for tp, w in type_profiles(inst)), Fraction(0)
    )
    trees = []
    steiner_tree_exact = graphs.steiner_tree_exact

    def counted_tree(g, terminals):
        trees.append(frozenset(terminals))
        return steiner_tree_exact(g, terminals)

    monkeypatch.setattr(graphs, "steiner_tree_exact", counted_tree)
    assert expected_opt(inst) == want
    terms, law = games._terminal_law(inst)
    assert terms == ["a", "b"] and sorted(law) == [0, 1, 2, 3]
    assert sorted(map(sorted, trees)) == [["a", "b", "r"], ["a", "r"], ["b", "r"]]


def test_interim_cost_of_every_deviation_equals_enumeration(inst):
    for s in random_profiles(inst, random.Random(11), 2):
        for i, spec in enumerate(inst.players):
            for t, _ in spec.distribution:
                for alt in feasible_actions(inst, i, t):
                    want = oracle_interim_cost(inst, s, i, alt)
                    assert interim_cost(inst, s, i, t, alt) == want


def test_verify_bne_equals_enumeration(inst):
    for s in random_profiles(inst, random.Random(13), 3):
        worst = None
        for i, spec in enumerate(inst.players):
            for t, _ in spec.distribution:
                current = oracle_interim_cost(inst, s, i, s[i][t])
                for alt in feasible_actions(inst, i, t):
                    gap = current - oracle_interim_cost(inst, s, i, alt)
                    if gap > 0 and (worst is None or gap > worst[3]):
                        worst = (i, t, alt, gap)
        assert verify_bne(inst, s).worst_violation == worst


def test_best_response_dynamics_equals_enumeration(inst):
    """The dynamics keep s's use table by replacing the moving player's row;
    every move and every potential must match a run that recomputes all."""
    (s0,) = random_profiles(inst, random.Random(17), 1)
    s, trace = best_response_dynamics(inst, s0, return_trace=True)
    assert (tuple(s), trace) == oracle_best_response_dynamics(inst, s0)


def test_support_cap_bounds_only_expected_opt():
    inst = gen_instance("multicast", n_nodes=5, n_players=3, n_types=2, seed=1)
    capped = dataclasses.replace(inst, support_cap=inst.support_size() - 1)
    (s,) = random_profiles(capped, random.Random(19), 1)
    assert expected_potential(capped, s) == oracle_potential(inst, s)
    assert expected_social_cost(capped, s) == oracle_social_cost(inst, s)
    with pytest.raises(SupportTooLargeError):
        expected_opt(capped)
