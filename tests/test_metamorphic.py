"""Metamorphic checks: the paper's invariances as relations between the
answers on two related games.  They need no oracle, so they hold wherever the
exact answers can be computed at all.  Games are `gen` instances of every
kind that `gen` draws, plus the hand-written `HYPERGRAPH_COVER`.

- Scaling every cost by 7/3 scales C(s*), Phi(s*) and E[OPT] by 7/3 and
  leaves BPoS, IG and s* (as element sets) unchanged: every tie rule
  compares costs only with each other.
- Permuting the players leaves BPoS, IG and E[OPT] unchanged.
- Adding a multicast player whose only type is the root leaves C(s*),
  Phi(s*), E[OPT], BPoS and IG unchanged; only n and H_n move.
- Prefixing every node name with one string keeps the names' order, so
  the CLI's stdout of `bne`, `bpos`, `ig`, `certify` and `eval` is the same
  bytes once the prefix is stripped: no answer reads a name beyond its
  place among the sorted nodes.

Each game's strategy cap is lowered to `STRATEGY_CAP` to keep the sweeps
short.  None of the changes alters the strategy space's size, so a game over
the cap must raise the same error on both sides.  Two more games, of 10^6
profiles and more, take the scaling and permuting relations past the
per-profile oracle of `conftest.sweep_reference`."""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HYPERGRAPH_COVER, point_mass
from netgames.cli import main
from netgames.equilibria import (
    bpos_exact,
    information_gap_exact,
    min_potential_profile,
    potential_method_certificate,
    strategy_space_size,
    verify_bne,
)
from netgames.errors import StrategySpaceTooLargeError
from netgames.games import GameInstance, expected_opt, expected_potential, expected_social_cost
from netgames.graphs import Graph
from netgames.instances import (
    GEN_KINDS,
    encode_profile,
    gen_instance,
    parse_instance,
    serialize_instance,
)

SCALE = Fraction(7, 3)
SHAPES = ((4, 2, 2), (5, 3, 2), (5, 2, 3))  # nodes, players, types
STRATEGY_CAP = 10 ** 5


def generated(kinds):
    return st.builds(
        lambda kind, shape, seed, iid: dataclasses.replace(
            gen_instance(kind, *shape, seed=seed, iid=iid), strategy_cap=STRATEGY_CAP
        ),
        st.sampled_from(kinds),
        st.sampled_from(SHAPES),
        st.integers(0, 10 ** 6),
        st.booleans(),
    )


games = st.one_of(generated(GEN_KINDS), st.just(parse_instance(json.dumps(HYPERGRAPH_COVER))))
FEW = settings(max_examples=40, deadline=None, derandomize=True)


def answers(inst: GameInstance, keys=None) -> dict:
    """C(s*), Phi(s*), E[OPT], the element sets of s*, and BPoS and IG when
    E[OPT] > 0 (both are undefined otherwise), restricted to `keys`; or the
    one key "error" when the strategy space is over the cap."""
    try:
        s = min_potential_profile(inst)
    except StrategySpaceTooLargeError as exc:
        return {"error": str(exc)}
    out = {
        "C": expected_social_cost(inst, s),
        "Phi": expected_potential(inst, s),
        "E[OPT]": expected_opt(inst),
        "s*": [{t: a.elements for t, a in strategy.items()} for strategy in s],
    }
    if out["E[OPT]"]:
        out["BPoS"], out["IG"] = bpos_exact(inst), information_gap_exact(inst)
    return {k: v for k, v in out.items() if keys is None or k in keys}


def scaled(inst: GameInstance, k: Fraction) -> GameInstance:
    if inst.graph is not None:
        g = inst.graph
        graph = Graph(nodes=g.nodes, edges=tuple((e, c * k) for e, c in g.edges), root=g.root)
        return dataclasses.replace(inst, graph=graph)
    return dataclasses.replace(inst, node_costs=tuple((v, c * k) for v, c in inst.node_costs))


@FEW
@given(games)
def test_scaling_the_costs_scales_the_costs_and_keeps_the_ratios(inst):
    before, after = answers(inst), answers(scaled(inst, SCALE))
    for key in ("C", "Phi", "E[OPT]"):
        if key in before:
            assert after.pop(key) == SCALE * before.pop(key), key
    assert after == before


@FEW
@given(games, st.randoms(use_true_random=False))
def test_permuting_the_players_keeps_the_ratios_and_the_optimum(inst, rng):
    players = list(inst.players)
    rng.shuffle(players)
    keys = ("E[OPT]", "BPoS", "IG", "error")
    permuted = dataclasses.replace(inst, players=tuple(players))
    assert answers(permuted, keys) == answers(inst, keys)


@FEW
@given(generated(["multicast"]), st.data())
def test_a_player_at_the_root_changes_no_cost_or_ratio(inst, data):
    players = list(inst.players)
    players.insert(data.draw(st.integers(0, len(players))), point_mass(inst.graph.root))
    keys = ("C", "Phi", "E[OPT]", "BPoS", "IG", "error")
    grown = dataclasses.replace(inst, players=tuple(players))
    assert answers(grown, keys) == answers(inst, keys)


# (kind, nodes, players, types, seed) -> the strategy space's size and the
# certificate's values.  In both, C(s~) < the cheapest BNE's cost < C(s*).
PAST_THE_ORACLE = {
    ("multicast", 6, 3, 2, 290): (1_048_576, {
        "bpos": Fraction(329, 291),
        "information_gap": Fraction(595, 582),
        "expected_opt": Fraction(97, 28),
        "K_min_potential": Fraction(701, 168),
        "K_min_cost": Fraction(85, 24),
    }),
    ("source-sink", 5, 3, 2, 106): (1_610_510, {
        "bpos": Fraction(1826, 1693),
        "information_gap": Fraction(1718, 1693),
        "expected_opt": Fraction(1693, 528),
        "K_min_potential": Fraction(949, 264),
        "K_min_cost": Fraction(859, 264),
    }),
}


@pytest.mark.parametrize("game", PAST_THE_ORACLE, ids=lambda game: game[0])
def test_scaling_and_reversing_past_the_oracle(game):
    inst = gen_instance(*game[:4], seed=game[4])
    profiles, pinned = PAST_THE_ORACLE[game]
    assert strategy_space_size(inst) == profiles
    report = potential_method_certificate(inst)
    values = report.values
    assert {k: values[k] for k in pinned} == pinned
    assert values["K_min_cost"] < values["bpos"] * values["expected_opt"] < values["K_min_potential"]
    assert report.all_hold
    assert verify_bne(inst, min_potential_profile(inst)).is_bne
    ratios = ("lambda", "mu", "bpos", "information_gap")
    assert potential_method_certificate(scaled(inst, SCALE)).values == {
        k: v if k in ratios else SCALE * v for k, v in values.items()
    }
    reversed_values = potential_method_certificate(
        dataclasses.replace(inst, players=inst.players[::-1])
    ).values
    keys = ("bpos", "information_gap", "expected_opt")
    assert [reversed_values[k] for k in keys] == [values[k] for k in keys]


PREFIX = "node:"


def renamed(doc, names: set):
    """A JSON document with every node name n, as a value or an object key,
    written PREFIX + n."""
    if isinstance(doc, dict):
        return {PREFIX + k if k in names else k: renamed(v, names) for k, v in doc.items()}
    if isinstance(doc, list):
        return [renamed(x, names) for x in doc]
    return PREFIX + doc if isinstance(doc, str) and doc in names else doc


def cli_runs(tmp: str, instance: dict, strategy: dict) -> list:
    """(exit code, stdout, stderr) of each command on the instance file, and
    of `eval` on the strategy file too."""
    paths = []
    for name, doc in (("instance", instance), ("strategy", strategy)):
        paths.append(f"{tmp}/{name}.json")
        with open(paths[-1], "w", encoding="utf-8") as f:
            json.dump(doc, f)
    out = []
    for command in ("bne", "bpos", "ig", "certify", "eval"):
        argv = [command, "--instance", paths[0]] + ["--strategy", paths[1]] * (command == "eval")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


@FEW
@given(games)
def test_prefixing_the_node_names_changes_no_output_but_the_names(tmp_path_factory, inst):
    doc = json.loads(serialize_instance(inst))
    names = set(inst.graph.nodes) if inst.graph else {n for n, _ in inst.node_costs}
    try:
        strategy = {"players": encode_profile(inst, min_potential_profile(inst))}
    except StrategySpaceTooLargeError:
        strategy = {"players": []}  # `eval` rejects it on both sides
    tmp = tmp_path_factory.mktemp("renamed")
    before = cli_runs(str(tmp), doc, strategy)
    after = cli_runs(str(tmp), renamed(doc, names), renamed(strategy, names))
    assert not any(PREFIX in text for run in before for text in run[1:])
    assert [(code, out.replace(PREFIX, ""), err.replace(PREFIX, "")) for code, out, err in after] == before
