import copy
import errno
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from netgames.cli import build_parser, encode_profile, main, parse_strategy
from netgames.equilibria import min_potential_profile, verify_bne
from netgames import graphs, instances
from netgames.errors import ParseError, PreconditionError, ValidationError
from netgames.instances import gen_instance, parse_instance, serialize_instance

from conftest import HYPERGRAPH_COVER, long_path_game

MINIMAL = """
{
  "version": 1,
  "kind": "multicast",
  "graph": {"nodes": ["a", "b", "r"], "root": "r",
            "edges": [{"u": "r", "v": "a", "cost": "2"},
                      {"u": "r", "v": "b", "cost": "2"},
                      {"u": "a", "v": "b", "cost": "1"}]},
  "players": [{"distribution": [{"type": "a", "prob": "1"}]}]
}
"""

# Deeper than the JSON decoder recurses, and an integer literal with more
# digits than Python converts by default.
DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = "1" + "0" * 5000
LONG_CAP = MINIMAL.replace('"version": 1,', f'"version": 1, "caps": {{"strategies": {LONG_INT}}},')
LONG_ACTION = f'{{"players": [{{"strategies": [{{"type": "a", "action": {LONG_INT}}}]}}]}}'
INT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string limit"
)


class TestParse:
    def test_minimal_multicast(self):
        inst = parse_instance(MINIMAL)
        assert inst.kind == "multicast"
        assert inst.graph.root == "r"
        assert inst.n == 1

    def test_bad_probability_sum(self):
        doc = json.loads(MINIMAL)
        doc["players"] = [
            {
                "distribution": [
                    {"type": "a", "prob": "1/3"},
                    {"type": "b", "prob": "1/3"},
                    {"type": "r", "prob": "1/4"},
                ]
            }
        ]
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))

    def test_negative_edge_cost(self):
        doc = json.loads(MINIMAL)
        doc["graph"]["edges"][0]["cost"] = "-1"
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    def test_deep_nesting(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_instance(DEEP)
        with pytest.raises(ParseError, match="strategy nested too deeply"):
            parse_strategy(parse_instance(MINIMAL), DEEP)

    @INT_LIMIT
    def test_integer_literal_beyond_the_int_string_limit(self):
        with pytest.raises(ParseError, match="integer literal too long"):
            parse_instance(LONG_CAP)
        with pytest.raises(ParseError, match="strategy integer literal too long"):
            parse_strategy(parse_instance(MINIMAL), LONG_ACTION)

    def test_round_trip_generated(self):
        for seed in range(10):
            for kind in ("multicast", "source-sink", "vertex-cover"):
                inst = gen_instance(kind, seed=seed)
                assert parse_instance(serialize_instance(inst)) == inst

    def test_rational_representations_accepted(self):
        doc = json.loads(MINIMAL)
        doc["graph"]["edges"][0]["cost"] = "4/2"
        inst = parse_instance(json.dumps(doc))
        assert inst.graph.cost(("a", "r")) == Fraction(2)

    def test_integral_caps_accepted(self):
        doc = json.loads(MINIMAL)
        doc["caps"] = {"support": 1e6, "strategies": "25"}
        inst = parse_instance(json.dumps(doc))
        assert (inst.support_cap, inst.strategy_cap) == (10**6, 25)

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param(1.5, "not an integer: 1.5", id="fraction"),
            pytest.param(True, "not an integer: True", id="boolean"),
            pytest.param(0, "must be at least 1, got 0", id="zero"),
            pytest.param(-3, "must be at least 1, got -3", id="negative"),
            pytest.param("0", "must be at least 1, got '0'", id="zero-string"),
        ],
    )
    def test_caps_below_1_or_not_integral_are_rejected(self, value, message):
        doc = json.loads(MINIMAL)
        doc["caps"] = {"support": value}
        with pytest.raises(ValidationError, match=f"^caps.support: {re.escape(message)}$"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, shown",
        [
            pytest.param(lambda d: d.update(kind="foo"), "'foo'", id="string"),
            pytest.param(lambda d: d.pop("kind"), "None", id="missing"),
            pytest.param(lambda d: d.update(kind=["multicast"]), "['multicast']", id="list"),
            pytest.param(lambda d: d.update(kind={"a": 1}), "{'a': 1}", id="object"),
        ],
    )
    def test_an_unknown_kind_is_named_before_any_type_is_read(
        self, tmp_path, capsys, edit, shown
    ):
        """MINIMAL's string types are no cover kind's types, so a type error
        would hide the fault: the kind is checked first, and an unhashable
        kind is a ValidationError too."""
        message = f"kind: unknown kind {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_instance(_minimal_with(edit))
        path = tmp_path / "inst.json"
        path.write_text(_minimal_with(edit))
        capsys.readouterr()
        assert main(["certify", "--instance", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", json.dumps({"error": message}) + "\n")

    @pytest.mark.parametrize(
        "kind, player, t, message",
        [
            ("multicast", 0, 5, "players: not a multicast type: 5"),
            ("multicast", 0, "z", "players[0]: unknown node 'z' in type 'z'"),
            ("source-sink", 0, ["a"], "players: not a source-sink type: ['a']"),
            ("source-sink", 0, ["a", "z"], "players[0]: unknown node 'z' in type ('a', 'z')"),
            ("vertex-cover", 0, ["a", "b", "c"], "players: not a vertex-cover type: ['a', 'b', 'c']"),
            ("vertex-cover", 0, ["a", "z"], "players[0]: unknown node 'z' in type ('a', 'z')"),
            ("hypergraph-cover", 0, [], "players: not a hypergraph-cover type: []"),
            ("hypergraph-cover", 1, ["b", "a"], "players[1]: type ('a', 'b') has 2 nodes, not 3"),
        ],
        ids=[
            "multicast-not-a-name", "multicast-unknown-node", "source-sink-not-a-pair",
            "source-sink-unknown-node", "vertex-cover-not-a-pair", "vertex-cover-unknown-node",
            "hypergraph-cover-empty", "hypergraph-cover-not-uniform",
        ],
    )
    def test_a_malformed_type_is_named_with_its_field(self, kind, player, t, message):
        doc = json.loads(MINIMAL)
        if kind == "hypergraph-cover":
            doc = copy.deepcopy(HYPERGRAPH_COVER)
        elif kind != "multicast":
            doc["kind"] = kind
            doc["players"][0]["distribution"][0]["type"] = ["a", "b"]
            if kind == "vertex-cover":
                doc["cover"] = {"node_costs": {"a": "1", "b": "1", "c": "1"}}
        doc["players"][player]["distribution"][0]["type"] = t
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda g: g["nodes"].append("a"), "graph: duplicate node 'a'", id="repeated-node"
            ),
            pytest.param(
                lambda g: g.update(root=["r"]), "graph.root: not a string: ['r']", id="root-a-list"
            ),
            pytest.param(
                lambda g: g.update(root={"a": 1}), "graph.root: not a string: {'a': 1}",
                id="root-an-object",
            ),
        ],
    )
    def test_a_malformed_graph_is_named_with_its_field(self, edit, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_instance(_minimal_with(lambda d: edit(d["graph"])))

    @pytest.mark.parametrize(
        "inst, block, stray",
        [
            pytest.param(
                gen_instance("vertex-cover", 5, 2, 2, seed=1), "graph",
                {"nodes": ["q"], "root": ["q"], "edges": [{"u": "q", "v": "x", "cost": "-1"}]},
                id="vertex-cover-with-a-graph",
            ),
            pytest.param(
                gen_instance("multicast", 5, 2, 2, seed=1), "cover", {"node_costs": {"q": "x"}},
                id="multicast-with-a-cover",
            ),
        ],
    )
    def test_a_block_the_kind_does_not_read_is_ignored(self, tmp_path, capsys, inst, block, stray):
        """The kind's family names the one element block that is parsed and
        written; the other is skipped like an unknown key, even if invalid."""
        doc = json.loads(serialize_instance(inst))
        assert block not in doc
        plain, edited = tmp_path / "plain.json", tmp_path / "edited.json"
        plain.write_text(json.dumps(doc))
        edited.write_text(json.dumps({**doc, block: stray}))
        assert parse_instance(edited.read_text()) == inst
        assert block not in json.loads(serialize_instance(parse_instance(edited.read_text())))
        for command in ("certify", "bne"):
            outputs = []
            for path in (plain, edited):
                capsys.readouterr()
                outputs.append((main([command, "--instance", str(path)]), capsys.readouterr()))
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, command


class TestGen:
    def test_deterministic(self):
        a = gen_instance("multicast", seed=0)
        b = gen_instance("multicast", seed=0)
        assert serialize_instance(a) == serialize_instance(b)

    def test_generated_validate(self):
        for seed in range(20):
            inst = gen_instance("multicast", n_nodes=5, n_players=3,
                                n_types=2, seed=seed)
            for spec in inst.players:
                assert sum((p for _, p in spec.distribution), Fraction(0)) == 1

    def test_root_mass_two_point(self):
        inst = gen_instance("multicast", seed=4, root_mass=True)
        for spec in inst.players:
            types = [t for t, _ in spec.distribution]
            assert inst.graph.root in types and len(types) == 2

    def test_within_caps(self):
        inst = gen_instance("multicast", n_nodes=5, n_players=3, n_types=2, seed=1)
        assert inst.support_size() <= inst.support_cap

    @pytest.mark.parametrize("n_nodes, root_mass", [(0, False), (-3, False), (0, True), (1, True)])
    def test_too_few_multicast_nodes_raise_before_any_draw(self, monkeypatch, n_nodes, root_mass):
        monkeypatch.setattr(instances, "random", None)
        with pytest.raises(PreconditionError, match="multicast generator needs n_nodes >= "):
            gen_instance("multicast", n_nodes=n_nodes, root_mass=root_mass)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="multicast", n_types=0), "n_types >= 1, got 0"),
            (dict(kind="multicast", n_types=-1), "n_types >= 1, got -1"),
            (dict(kind="multicast", n_types=-1, n_players=-1, iid=True), "n_players >= 1, got -1"),
            (dict(kind="multicast", n_players=0), "n_players >= 1, got 0"),
            (dict(kind="source-sink", n_nodes=1), "source-sink generator needs n_nodes >= 2, got 1"),
            (dict(kind="vertex-cover", n_nodes=0), "vertex-cover generator needs n_nodes >= 2"),
            (dict(kind="vertex-cover", n_nodes=1), "vertex-cover generator needs n_nodes >= 2"),
        ],
    )
    def test_bad_arguments_raise_before_any_draw(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(instances, "random", None)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            gen_instance(**kwargs)

    @pytest.mark.parametrize("kind", ["foo", "hypergraph-cover"])
    def test_unknown_kind_raises_before_the_node_count(self, monkeypatch, kind):
        monkeypatch.setattr(instances, "random", None)
        with pytest.raises(PreconditionError, match=f"does not support kind '{kind}'"):
            gen_instance(kind, n_nodes=1)

    def test_root_mass_ignores_the_type_count(self):
        for n_types in (0, -1):
            inst = gen_instance("multicast", n_types=n_types, seed=2, root_mass=True)
            assert inst == gen_instance("multicast", seed=2, root_mass=True)

    def test_fewest_nodes_that_generate(self):
        inst = gen_instance("multicast", n_nodes=1, seed=3)
        assert inst.graph.nodes == ("v0",) and inst.graph.root == "v0"
        inst = gen_instance("multicast", n_nodes=2, seed=3, root_mass=True)
        (other,) = set(inst.graph.nodes) - {inst.graph.root}
        for spec in inst.players:
            assert [t for t, _ in spec.distribution] == [other, inst.graph.root]


    def test_graphs_past_ten_nodes_generate(self, monkeypatch):
        """Where the generator as first written worked, its instances stay
        byte-identical; where it drew a spanning-tree edge again under its
        index-ordered key ('v10' sorts before 'v2'), now it generates."""
        fixed, old_failures = {}, 0
        cases = [
            (kind, n, seed)
            for kind in ("multicast", "source-sink")
            for n in (11, 13, 16)
            for seed in range(12)
        ]
        for case in cases:
            fixed[case] = serialize_instance(gen_instance(case[0], case[1], 2, 2, seed=case[2]))
        monkeypatch.setattr(instances, "_random_graph", random_graph_reference)
        for case in cases:
            try:
                was = serialize_instance(gen_instance(case[0], case[1], 2, 2, seed=case[2]))
            except PreconditionError as err:
                assert "duplicate edge" in str(err)
                old_failures += 1
                continue
            assert fixed[case] == was
        assert 0 < old_failures < len(cases)


def random_graph_reference(rng: random.Random, n_nodes: int, rooted: bool) -> instances.Graph:
    """`instances._random_graph` as first written: a pair drawn after the
    spanning tree is keyed in index order, so past ten nodes it can repeat a
    tree edge keyed in name order and fail with "duplicate edge"."""
    nodes = [f"v{j}" for j in range(n_nodes)]
    edges = {}
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        key = (a, b) if a <= b else (b, a)
        edges[key] = Fraction(rng.randint(1, 10), rng.randint(1, 4))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            key = (nodes[i], nodes[j])
            if key not in edges and rng.random() < 0.4:
                edges[key] = Fraction(rng.randint(1, 10), rng.randint(1, 4))
    root = rng.choice(nodes) if rooted else None
    return instances.Graph(nodes=tuple(nodes), edges=tuple(edges.items()), root=root)


class TestStrategyFiles:
    def test_round_trip(self):
        inst = parse_instance(MINIMAL)
        s = min_potential_profile(inst)
        text = json.dumps({"players": encode_profile(inst, s)})
        assert parse_strategy(inst, text) == s

    def test_reading_a_profile_builds_the_menus_once(self, monkeypatch):
        """`parse_strategy` reads the instance's menus, which `verify_bne`
        then reuses: one path walk per distinct type off the root."""
        inst = gen_instance("multicast", 6, 3, 3, seed=1)
        text = json.dumps({"players": encode_profile(inst, min_potential_profile(inst))})
        walks = []
        inner = graphs.simple_paths
        monkeypatch.setattr(graphs, "simple_paths", lambda *a: walks.append(a) or inner(*a))
        inst = gen_instance("multicast", 6, 3, 3, seed=1)
        verify_bne(inst, parse_strategy(inst, text))
        off_root = [t for spec in inst.players for t in spec.support() if t != inst.graph.root]
        assert len(off_root) == 7
        assert len(walks) == len(set(off_root)) == 5


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "netgames.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


class TestCli:
    def test_bne_and_eval_on_a_path_longer_than_the_recursion_limit(self, tmp_path):
        inst_path, strategy_path = tmp_path / "path.json", tmp_path / "strategy.json"
        inst_path.write_text(serialize_instance(long_path_game()))
        for argv in (
            ["bne", "--instance", str(inst_path), "--out", str(strategy_path)],
            ["eval", "--instance", str(inst_path), "--strategy", str(strategy_path)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "netgames.cli", *argv], capture_output=True, text=True
            )
            assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["expected_social_cost"] == "1199"

    def test_bpos_parallel_edges(self, tmp_path):
        path = tmp_path / "inst.json"
        doc = json.loads(MINIMAL)
        path.write_text(json.dumps(doc))
        out = run_cli("bpos", "--instance", str(path))
        assert json.loads(out) == {"bpos": "1"}

    def test_certify_passes(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(MINIMAL)
        out = json.loads(run_cli("certify", "--instance", str(path)))
        assert out["all_pass"] and all(l["pass"] for l in out["links"])

    def test_determinism_byte_identical(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(run_cli("gen", "--kind", "multicast", "--seed", "5"))
        for cmd in (
            ["bne"],
            ["bpos"],
            ["ig"],
            ["certify"],
            ["scheme-check", "--samples", "10", "--seed", "3", "--format", "csv"],
            ["sample", "--variant", "noniid"],
            ["sample", "--variant", "noniid", "--samples", "20", "--seed", "7"],
        ):
            a = run_cli(*cmd, "--instance", str(inst_path))
            b = run_cli(*cmd, "--instance", str(inst_path))
            assert a == b

    def test_one_sample_prints_strict_json_and_an_empty_csv_cell(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(
            run_cli("gen", "--kind", "multicast", "--nodes", "5", "--players", "3",
                    "--types", "2", "--seed", "1")
        )
        argv = ["sample", "--instance", str(inst_path), "--samples", "1"]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(run_cli(*argv), parse_constant=reject)
        assert doc["samples"] == 1 and doc["stderr"] is None
        rows = run_cli(*argv, "--format", "csv").splitlines()
        assert "stderr," in rows
        two = json.loads(run_cli(*argv[:-1], "2"), parse_constant=reject)
        assert isinstance(two["stderr"], float)

    def test_gen_deterministic(self):
        assert run_cli("gen", "--seed", "0") == run_cli("gen", "--seed", "0")

    def test_eval_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        bne = json.loads(run_cli("bne", "--instance", str(inst_path)))
        strat_path = tmp_path / "strat.json"
        strat_path.write_text(json.dumps({"players": bne["players"]}))
        out = json.loads(
            run_cli("eval", "--instance", str(inst_path), "--strategy",
                    str(strat_path))
        )
        assert out["expected_social_cost"] == bne["expected_social_cost"]

    def test_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        run_cli("bpos", "--instance", str(path), expect=1)

    def test_csv_output_quoting(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(run_cli("gen", "--seed", "2"))
        out = run_cli("scheme-check", "--instance", str(inst_path),
                      "--samples", "5", "--format", "csv")
        lines = out.split("\n")
        assert lines[0] == "scheme,property,U,x,lhs,rhs,pass"
        assert out.endswith("\n") and "\r" not in out

    def test_out_flag(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        out_path = tmp_path / "report.json"
        run_cli("ig", "--instance", str(inst_path), "--out", str(out_path))
        assert json.loads(out_path.read_text()) == {"information_gap": "1"}

    def test_in_process_entry_point(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        assert main(["bpos", "--instance", str(inst_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"bpos": "1"}

    @pytest.mark.parametrize("kind", ["vertex-cover", "source-sink"])
    def test_sample_rejects_non_multicast(self, tmp_path, capsys, kind):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(serialize_instance(gen_instance(kind, seed=1)))
        for command in ("sample", "scheme-check"):
            assert main([command, "--instance", str(inst_path)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": f"{command} needs a multicast (rooted) instance"}

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["bpos", "--instance", str(missing)]) == 1
        assert "cannot read" in json.loads(capsys.readouterr().err)["error"]
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        argv = ["eval", "--instance", str(inst_path), "--strategy", str(missing)]
        assert main(argv) == 1
        assert "cannot read" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command", ["bpos", "gen"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_1_with_an_error_line(self, tmp_path, command, target):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        if target == "missing-directory":
            out, code = tmp_path / "absent" / "report.json", errno.ENOENT
        else:
            out, code = tmp_path, errno.EISDIR
        argv = [command, "--out", str(out)]
        if command == "bpos":
            argv += ["--instance", str(inst_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "netgames.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        want = {"error": f"cannot write {out}: {os.strerror(code)}"}
        assert json.loads(proc.stderr) == want

    @pytest.mark.parametrize("argv", [["--nodes", "0"], ["--nodes", "-2"], ["--nodes", "1", "--root-mass"]])
    def test_gen_with_too_few_nodes_exits_1_with_an_error_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "netgames.cli", "gen", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "multicast generator needs n_nodes >= " in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--types", "-1"],
            ["--types", "-1", "--players", "-1", "--iid"],
            ["--types", "0"],
            ["--players", "0"],
            ["--kind", "source-sink", "--nodes", "1"],
            ["--kind", "vertex-cover", "--nodes", "0"],
            ["--kind", "vertex-cover", "--nodes", "1"],
        ],
    )
    def test_gen_with_bad_arguments_exits_1_with_an_error_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "netgames.cli", "gen", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
        assert "generator needs" in json.loads(proc.stderr)["error"]

    def test_non_utf8_input_file(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_bytes(b"\xff\xfe{")
        assert main(["bpos", "--instance", str(inst_path)]) == 1
        assert "not UTF-8" in json.loads(capsys.readouterr().err)["error"]


def _minimal_with(edit) -> str:
    doc = json.loads(MINIMAL)
    edit(doc)
    return json.dumps(doc)


ROOT_ONLY = json.dumps(
    {
        "version": 1,
        "kind": "multicast",
        "graph": {"nodes": ["r"], "root": "r", "edges": []},
        "players": [{"distribution": [{"type": "r", "prob": "1"}]}],
    }
)

NEGATIVE_NODE_COST = json.dumps(
    {
        "version": 1,
        "kind": "vertex-cover",
        "cover": {"node_costs": {"a": "-1", "b": "1"}},
        "players": [{"distribution": [{"type": ["a", "b"], "prob": "1"}]}],
    }
)

def _cover_with(edit) -> str:
    doc = json.loads(NEGATIVE_NODE_COST)
    doc["cover"]["node_costs"]["a"] = "1"
    edit(doc)
    return json.dumps(doc)


TWO_POINT_MASSES = _minimal_with(
    lambda d: d["players"].append({"distribution": [{"type": "b", "prob": "1"}]})
)


@pytest.mark.parametrize(
    "instance, strategy, argv",
    [
        pytest.param(
            _minimal_with(lambda d: d.update(caps={"support": "1.5"})),
            None, ["bpos"], id="cap-not-an-integer",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(caps={"support": 1.5})),
            None, ["bpos"], id="cap-a-fraction",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(caps={"strategies": True})),
            None, ["sample"], id="cap-a-boolean",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(caps={"support": 0})),
            None, ["bne"], id="cap-zero",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(caps={"strategies": -1})),
            None, ["sample"], id="cap-negative",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(caps=[1])),
            None, ["bpos"], id="caps-not-an-object",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["edges"][0].pop("u")),
            None, ["bpos"], id="edge-without-u",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["edges"][0].pop("v")),
            None, ["bpos"], id="edge-without-v",
        ),
        pytest.param(NEGATIVE_NODE_COST, None, ["bpos"], id="negative-node-cost"),
        pytest.param(
            _minimal_with(lambda d: d.update(players=[1])),
            None, ["bpos"], id="player-not-an-object",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(players=5)),
            None, ["bpos"], id="players-not-a-list",
        ),
        pytest.param(
            _minimal_with(lambda d: d["players"][0].update(distribution=[1])),
            None, ["bpos"], id="distribution-entry-not-an-object",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["edges"].append(1)),
            None, ["bpos"], id="edge-not-an-object",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["edges"][0].update(u=1)),
            None, ["bpos"], id="edge-end-not-a-string",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["nodes"].append(["c"])),
            None, ["bpos"], id="node-not-a-string",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"].update(root=["r"])),
            None, ["certify"], id="root-a-list",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"].update(root={"a": 1})),
            None, ["certify"], id="root-an-object",
        ),
        pytest.param(
            _minimal_with(lambda d: d["graph"]["nodes"].append("a")),
            None, ["certify"], id="repeated-node",
        ),
        pytest.param(
            _minimal_with(lambda d: d.update(graph=[1])),
            None, ["bpos"], id="graph-not-an-object",
        ),
        pytest.param(
            _cover_with(lambda d: d.update(cover=[1])),
            None, ["bpos"], id="cover-not-an-object",
        ),
        pytest.param(
            _cover_with(
                lambda d: d["players"][0]["distribution"][0].update(type=["a", ["b"]])
            ),
            None, ["bpos"], id="cover-type-with-a-list",
        ),
        pytest.param(
            MINIMAL.replace('"version": 1,', '"version": 1, "caps": {"support": 1e999},'),
            None, ["bpos"], id="infinite-cap",
        ),
        pytest.param(MINIMAL, "{not json", ["eval"], id="strategy-not-json"),
        pytest.param(DEEP, None, ["certify"], id="deeply-nested-instance"),
        pytest.param(LONG_CAP, None, ["certify"], id="long-integer-cap", marks=INT_LIMIT),
        pytest.param(MINIMAL, DEEP, ["eval"], id="deeply-nested-strategy"),
        pytest.param(MINIMAL, LONG_ACTION, ["eval"], id="long-integer-strategy", marks=INT_LIMIT),
        pytest.param(MINIMAL, "{}", ["eval"], id="strategy-without-players"),
        pytest.param(
            MINIMAL, '{"players": [{}]}', ["eval"], id="strategy-without-strategies"
        ),
        pytest.param(
            MINIMAL, '{"players": [{"strategies": [{"action": []}]}]}', ["eval"],
            id="strategy-without-type",
        ),
        pytest.param(
            MINIMAL, '{"players": [{"strategies": [{"type": "a"}]}]}', ["eval"],
            id="strategy-without-action",
        ),
        pytest.param(
            MINIMAL, '{"players": [{"strategies": [{"type": "a", "action": [5]}]}]}',
            ["eval"], id="strategy-element-not-a-pair",
        ),
        pytest.param(
            MINIMAL, '{"players": [{"strategies": [{"type": "a", "action": 5}]}]}',
            ["eval"], id="strategy-action-not-a-list",
        ),
        pytest.param(
            MINIMAL, '{"players": [{"strategies": [{"type": "z", "action": []}]}]}',
            ["eval"], id="strategy-type-outside-the-support",
        ),
        pytest.param(
            MINIMAL, '{"players": []}', ["eval"], id="strategy-for-too-few-players",
        ),
        pytest.param(
            MINIMAL,
            '{"players": [{"strategies": [{"type": "a", "action": [["a", "r"]]},'
            ' {"type": "a", "action": [["a", "r"]]}]}]}',
            ["eval"], id="strategy-type-listed-twice",
        ),
        pytest.param(
            MINIMAL, '{"players": 5}', ["eval"], id="strategy-players-not-a-list",
        ),
        pytest.param(ROOT_ONLY, None, ["scheme-check"], id="scheme-check-root-only"),
        pytest.param(
            MINIMAL, None, ["scheme-check", "--samples", "-1", "--format", "csv"],
            id="scheme-check-negative-samples",
        ),
        pytest.param(
            TWO_POINT_MASSES, None, ["sample", "--variant", "iid"],
            id="iid-sample-on-different-distributions",
        ),
        pytest.param(MINIMAL, None, ["sample", "--samples", "-1"], id="negative-samples"),
    ],
)
def test_bad_input_exits_1_with_an_error_line(tmp_path, instance, strategy, argv):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance)
    argv = [*argv, "--instance", str(inst_path)]
    if strategy is not None:
        strat_path = tmp_path / "strat.json"
        strat_path.write_text(strategy)
        argv += ["--strategy", str(strat_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "netgames.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert set(json.loads(proc.stderr.splitlines()[-1])) == {"error"}


class TestParserReuse:
    """`build_parser` is cached: every `main` call in a process parses with
    the same parser object, which must keep no state between calls."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_main_calls_agree(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        inst = str(inst_path)
        argvs = [
            ["bpos", "--instance", inst],
            ["ig", "--instance", inst, "--format", "csv"],
            ["bne", "--instance", inst, "--cap-strategies", "1"],
            ["bpos"],
            ["nosuch", "--instance", inst],
            ["bpos", "--instance", inst, "--cap-strategies", "x"],
            ["sample", "--instance", inst, "--variant", "bad"],
            ["gen", "--kind", "source-sink", "--seed", "3"],
            ["certify", "--help"],
            ["certify", "--instance", inst],
        ]

        def run_all(order):
            results = {}
            for k in order:
                try:
                    code = main(argvs[k])
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                results[k] = (code, out, err)
            return results

        build_parser.cache_clear()
        order = list(range(len(argvs)))
        first = run_all(order)
        assert [first[k][0] for k in order] == [0, 0, 1, 2, 2, 2, 2, 0, 0, 0]
        assert all(first[k][2] for k in (2, 3, 4, 5, 6))
        again = run_all(order)
        random.Random(61).shuffle(order)
        shuffled = run_all(order)
        assert first == again == shuffled


# The options each subcommand reads, written out independently of the
# table in `cli`.
ROWS = {
    "eval": {"--instance", "--strategy", "--format", "--out"},
    "bne": {"--instance", "--format", "--out", "--cap-strategies"},
    "bpos": {"--instance", "--format", "--out", "--cap-strategies", "--cap-support"},
    "ig": {"--instance", "--format", "--out", "--cap-strategies", "--cap-support"},
    "certify": {"--instance", "--format", "--out", "--cap-strategies", "--cap-support"},
    "scheme-check": {"--instance", "--format", "--out", "--seed", "--samples"},
    "sample": {
        "--instance", "--format", "--out", "--variant", "--seed", "--samples", "--cap-support"
    },
    "gen": {
        "--out", "--kind", "--nodes", "--players", "--types", "--seed", "--iid", "--root-mass"
    },
}
# Options that every subcommand used to accept, whether it read them or not.
FORMERLY_SHARED = {"--seed", "--samples", "--format", "--out", "--cap-strategies", "--cap-support"}
REMOVED = [(cmd, opt) for cmd, row in ROWS.items() for opt in sorted(FORMERLY_SHARED - row)]


class TestOptionTable:
    """Each subcommand registers exactly the options it reads."""

    def test_counts(self):
        assert sum(len(row) for row in ROWS.values()) == 43
        assert len(REMOVED) == 20

    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_help_lists_exactly_the_row(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == ROWS[command] | {"--help"}

    @pytest.mark.parametrize("command, option", REMOVED)
    def test_removed_option_is_an_argparse_error(self, tmp_path, capsys, command, option):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        argv = [command, option, "csv" if option == "--format" else "1"]
        if "--instance" in ROWS[command]:
            argv += ["--instance", str(inst_path)]
        if "--strategy" in ROWS[command]:
            argv += ["--strategy", str(inst_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"unrecognized arguments: {option}" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, option",
        [
            ("bne", "--cap-strategies"),
            ("bpos", "--cap-strategies"),
            ("ig", "--cap-support"),
            ("sample", "--cap-support"),
            ("scheme-check", "--samples"),
            ("sample", "--samples"),
        ],
    )
    def test_counts_below_1_exit_1_naming_the_option(
        self, tmp_path, capsys, command, option, value
    ):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(MINIMAL)
        assert main([command, "--instance", str(inst_path), option, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert json.loads(err) == {"error": f"{option} must be at least 1, got {value}"}

    def test_scheme_check_defaults_to_50_checks(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(run_cli("gen", "--seed", "4"))
        runs = []
        for extra in ([], ["--samples", "50"], ["--samples", "49"]):
            assert main(["scheme-check", "--instance", str(inst_path), *extra]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1] != runs[2]
