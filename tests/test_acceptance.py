"""Acceptance suite: each test exercises one top-level claim at its stated
tolerance (exact rational comparison unless marked approximate) and prints a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s`.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from netgames import (
    bpos_exact,
    check_competitiveness,
    check_cross_monotonicity,
    check_strictness,
    evaluate_construction_exact,
    expected_opt,
    expected_player_cost,
    expected_potential,
    feasible_actions,
    graph_from_costs,
    harmonic,
    information_gap_exact,
    min_potential_profile,
    potential_method_certificate,
    regrouping_sides,
    rosenthal_potential,
    social_cost,
    steiner_scheme,
    steiner_tree_exact,
    verify_bne,
)
from netgames.equilibria import strategy_space_size
from netgames.errors import ZeroOptimumError
from netgames.games import GameInstance, PlayerSpec, ex_post_opt, type_profiles
from netgames.graphs import _components, min_feasible_subset_bruteforce
from netgames.instances import gen_instance

sys.path.insert(0, "tests")
from conftest import multicast, point_mass, random_connected_graph  # noqa: E402


def report(num, name, ok, extra=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def suite_instances():
    """50 seeded multicast instances with n <= 3, |V| <= 5, <= 3 types."""
    out = []
    for seed in range(25):
        out.append(gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=2, seed=seed))
    for seed in range(25, 40):
        out.append(gen_instance("multicast", n_nodes=3, n_players=3,
                                n_types=2, seed=seed))
    for seed in range(40, 50):
        out.append(gen_instance("multicast", n_nodes=4, n_players=2,
                                n_types=3, seed=seed))
    return out


def random_strategy(rng, inst):
    return tuple(
        {t: rng.choice(feasible_actions(inst, i, t)) for t in spec.support()}
        for i, spec in enumerate(inst.players)
    )


def test_01_exact_potential_identity():
    start = time.time()
    rng = random.Random(2024)
    instances = suite_instances()
    checked = 0
    ok = True
    while checked < 1000:
        inst = instances[checked % len(instances)]
        s = random_strategy(rng, inst)
        i = rng.randrange(inst.n)
        s_dev = list(s)
        s_dev[i] = random_strategy(rng, inst)[i]
        s_dev = tuple(s_dev)
        lhs = expected_player_cost(inst, s, i) - expected_player_cost(inst, s_dev, i)
        rhs = expected_potential(inst, s) - expected_potential(inst, s_dev)
        ok = ok and lhs == rhs
        checked += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 10
    report(1, "exact potential identity", ok,
           f"{checked} deviations over {len(instances)} instances, {elapsed:.1f}s")


def test_02_closeness_sandwich():
    ok = True
    for inst in suite_instances():
        hn = harmonic(inst.n)
        for tp, _ in type_profiles(inst):
            menus = [feasible_actions(inst, i, t) for i, t in enumerate(tp)]
            import itertools

            for prof in itertools.product(*menus):
                c = social_cost(inst, prof)
                phi = rosenthal_potential(inst, prof)
                ok = ok and c <= phi <= hn * c
    # Tight case: all players on one shared element.
    g = graph_from_costs({("r", "s"): Fraction(1)}, root="r")
    inst = multicast(g, *[point_mass("s")] * 3)
    prof = tuple(feasible_actions(inst, i, "s")[0] for i in range(3))
    tight = rosenthal_potential(inst, prof) == harmonic(3) * social_cost(inst, prof)
    ok = ok and tight
    report(2, "closeness C <= Phi <= H_n * C", ok, "tight shared-element case included")


def test_03_potential_minimizer_is_bne():
    instances = suite_instances()
    ok = all(
        verify_bne(inst, min_potential_profile(inst)).is_bne for inst in instances
    )
    report(3, "potential minimizer passes BNE check", ok,
           f"{len(instances)} instances")


def test_04_bpos_bounded_by_harmonic_times_gap():
    count = 0
    ok = True
    for inst in suite_instances():
        if strategy_space_size(inst) > 700:
            continue
        try:
            bpos = bpos_exact(inst)
            ig = information_gap_exact(inst)
        except ZeroOptimumError:
            continue
        ok = ok and bpos <= harmonic(inst.n) * ig
        cert = potential_method_certificate(inst)
        ok = ok and cert.all_hold
        count += 1
    ok = ok and count >= 30
    report(4, "BPoS <= H_n * IG with full certificate chain", ok,
           f"{count} enumerable instances")


def test_05_steiner_scheme_properties():
    start = time.time()
    rng = random.Random(99)
    comp = strict = cross = 0
    ok = True
    while min(comp, strict, cross) < 200:
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        scheme = steiner_scheme(g)
        clients = [n for n in g.nodes if n != g.root]
        U = frozenset(rng.sample(clients, rng.randint(0, len(clients))))
        x = rng.choice(clients)
        ok = ok and check_competitiveness(scheme, U).holds
        comp += 1
        ok = ok and check_strictness(scheme, U, x).holds
        strict += 1
        if U:
            sup = U | frozenset(rng.sample(clients, rng.randint(0, len(clients))))
            ok = ok and check_cross_monotonicity(scheme, U, sup, rng.choice(sorted(U))).holds
            cross += 1
    # Tight triangle strictness case: lhs = rhs = 1.
    tri = graph_from_costs(
        {("r", "a"): Fraction(2), ("r", "b"): Fraction(2), ("a", "b"): Fraction(1)},
        root="r",
    )
    chk = check_strictness(steiner_scheme(tri), {"a"}, "b")
    ok = ok and chk.lhs == chk.rhs == 1
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(5, "Steiner scheme competitive/2-strict/cross-monotone", ok,
           f"{comp}/{strict}/{cross} cases, {elapsed:.1f}s")


def _iid_suite(root_mass=False, noniid=False):
    out = []
    for seed in range(50):
        n_players = 2 + seed % 2
        n_types = 2 + (seed // 2) % 2
        out.append(
            gen_instance(
                "multicast",
                n_nodes=4 + seed % 2,
                n_players=n_players,
                n_types=n_types,
                seed=seed,
                iid=not noniid,
                root_mass=root_mass,
            )
        )
    return out


def test_06_iid_construction_bound_and_regrouping():
    ok = True
    for inst in _iid_suite():
        scheme = steiner_scheme(inst.graph)
        rep = evaluate_construction_exact(inst, scheme, "iid")
        ok = ok and rep.total <= 3 * expected_opt(inst)
        lhs, rhs = regrouping_sides(inst, scheme)
        ok = ok and lhs == rhs
    report(6, "i.i.d. construction <= 3*E[OPT], regrouping exact", ok,
           "50 instances")


def test_07_noniid_construction_bound():
    instances = _iid_suite(noniid=True)
    for seed in range(12):
        instances.append(
            gen_instance("multicast", n_nodes=4, n_players=2, n_types=2,
                         seed=seed, root_mass=True)
        )
    ok = True
    root_mass_count = 0
    for inst in instances:
        scheme = steiner_scheme(inst.graph)
        rep = evaluate_construction_exact(inst, scheme, "noniid")
        ok = ok and rep.total <= 3 * expected_opt(inst)
        if any(
            inst.graph.root in spec.support() and len(spec.distribution) == 2
            for spec in inst.players
        ):
            root_mass_count += 1
    ok = ok and root_mass_count >= 10
    report(7, "non-i.i.d. construction <= 3*E[OPT]", ok,
           f"{len(instances)} instances, {root_mass_count} independent-decisions")


def test_08_information_gap_constants():
    bounds = {"multicast": 3, "source-sink": 5, "vertex-cover": 6}
    ok = True
    counts = {}
    for kind, bound in bounds.items():
        counts[kind] = 0
        for seed in range(15):
            inst = gen_instance(kind, n_nodes=4, n_players=2, n_types=2,
                                seed=seed, iid=True)
            try:
                ig = information_gap_exact(inst)
            except ZeroOptimumError:
                continue
            ok = ok and ig <= bound
            counts[kind] += 1
        ok = ok and counts[kind] >= 10
    report(8, "IG within the per-kind constants (3/5/6)", ok,
           f"{counts}")


def test_09_oracle_equivalence():
    rng = random.Random(404)
    ok = True
    for _ in range(500):
        g = random_connected_graph(rng, max_nodes=6, max_edges=10)
        terms = sorted(rng.sample(list(g.nodes), rng.randint(1, len(g.nodes))))

        def feas(edges, terms=terms, g=g):
            comp = _components(g.nodes, edges)
            return all(comp[t] == comp[terms[0]] for t in terms)

        ok = ok and steiner_tree_exact(g, set(terms)).cost == \
            min_feasible_subset_bruteforce(g, feas).cost
    import itertools

    checked = 0
    for seed in range(34):
        for kind in ("multicast", "source-sink", "vertex-cover"):
            inst = gen_instance(kind, n_nodes=4, n_players=2, n_types=2, seed=seed)
            for tp, _ in type_profiles(inst):
                _, cost = ex_post_opt(inst, tp)
                menus = [feasible_actions(inst, i, t) for i, t in enumerate(tp)]
                best = min(
                    social_cost(inst, p) for p in itertools.product(*menus)
                )
                ok = ok and cost == best
            checked += 1
    ok = ok and checked >= 100
    report(9, "oracle equivalence (Steiner + ex-post OPT)", ok,
           f"500 graphs, {checked} instances")


def test_10_cli_determinism(tmp_path):
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "netgames.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        return proc.stdout

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(run("gen", "--kind", "multicast", "--seed", "11"))
    commands = [
        ["gen", "--kind", "multicast", "--seed", "11"],
        ["bne", "--instance", str(inst_path)],
        ["bpos", "--instance", str(inst_path)],
        ["ig", "--instance", str(inst_path)],
        ["certify", "--instance", str(inst_path)],
        ["scheme-check", "--instance", str(inst_path), "--samples", "20",
         "--seed", "5", "--format", "csv"],
        ["sample", "--instance", str(inst_path), "--variant", "noniid"],
        ["sample", "--instance", str(inst_path), "--variant", "noniid",
         "--samples", "30", "--seed", "8"],
    ]
    ok = all(run(*cmd) == run(*cmd) for cmd in commands)
    report(10, "CLI byte-identical across repeated seeded runs", ok,
           f"{len(commands)} commands")
