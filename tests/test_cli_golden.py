"""Golden CLI bytes: the sha256 of stdout and the exit code of `bne`,
`bpos`, `ig`, `certify` and exact `sample` on fixed generated instances.
Any change to the printed answers, their formatting or an exit code fails
here.  The digests were recorded before the expectations moved to integer
arithmetic and must not be re-recorded for a speed change.  `MORE_GOLDEN`
below adds stderr and covers `eval`, `scheme-check`, Monte Carlo `sample`,
CSV output, `gen` and the error paths, and `HYPERGRAPH_GOLDEN` a
hand-written hypergraph-cover game."""

import csv
import hashlib
import io
import json

import pytest

from conftest import HYPERGRAPH_COVER
from netgames.cli import main
from netgames.instances import gen_instance, serialize_instance

SIZE = (4, 2, 2)  # nodes, players, types


def cases():
    """(id, gen_instance kwargs, CLI argv after the subcommand's instance)."""
    for kind in ("multicast", "source-sink", "vertex-cover"):
        for seed in range(3):
            for command in ("bne", "bpos", "ig", "certify"):
                yield f"{command}-{kind}-{seed}", dict(kind=kind, seed=seed), [command]
    for seed in range(3):
        for variant in ("iid", "noniid"):
            gen = dict(kind="multicast", seed=seed, iid=variant == "iid")
            yield f"sample-{variant}-multicast-{seed}", gen, ["sample", "--variant", variant]


def run_case(tmp_path, capsys, gen, argv):
    """(exit code, sha256 hex of stdout) of one in-process CLI call."""
    inst = gen_instance(n_nodes=SIZE[0], n_players=SIZE[1], n_types=SIZE[2], **gen)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    capsys.readouterr()
    code = main([argv[0], "--instance", str(path), *argv[1:]])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


GOLDEN = {  # case id -> (exit code, sha256 of stdout)
    "bne-multicast-0": (0, "2dc82f2d3a566884b77aee071a1c35554a11d8c8c07d0094c7c7097c0e75ca18"),
    "bpos-multicast-0": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-multicast-0": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-multicast-0": (0, "2f5ddbf4fa9ca90cbbe9b326b409d148a1270bb052eb4c0cbe7bb037056b4215"),
    "bne-multicast-1": (0, "fa061819aff860a78ad44fc58a4119c5967aea3afa1b15e5d0f499cc38bf2f79"),
    "bpos-multicast-1": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-multicast-1": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-multicast-1": (0, "4fa958a6411e51982f24d1706d2eeb03b2bb3830460db266c447470d9840a6e0"),
    "bne-multicast-2": (0, "4b6741fc2da80838c963a8c6036d5ea3658592f4729ca009f3e15e26ce4b460f"),
    "bpos-multicast-2": (0, "7c8769f1e0cae98b3f28d9d7132b25daca4f18be5dac2f1d40f2c9e0e46dc7b9"),
    "ig-multicast-2": (0, "eae3abc63d4c1dd081089a4d35a360fa334ee6fa08393c2f42b18654f3604932"),
    "certify-multicast-2": (0, "81949b14e26a2b5c4df81b83ddb65d32a4eb9857d5a961c02266224632be63d5"),
    "bne-source-sink-0": (0, "6e193d6f7c145b615adac771f3892de48d2ea442375b3cdbc25ecd950f6f8bd4"),
    "bpos-source-sink-0": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-source-sink-0": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-source-sink-0": (0, "759b2519a4caf553185b1568c644f7108011c5bd3053b2e40d4c7527a7894c8e"),
    "bne-source-sink-1": (0, "e15e4e805c42f7f88164a7a241c66d5ec74d94f590d14d93203556dc94068bb4"),
    "bpos-source-sink-1": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-source-sink-1": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-source-sink-1": (0, "481e05e17e30dc7cf867228342a72a4f3862e71717f4617ae15b00206a21fb48"),
    "bne-source-sink-2": (0, "5f3201fd22d15f5b2490f1864454d19cc851b9f6679a6869f3a194598a659fbe"),
    "bpos-source-sink-2": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-source-sink-2": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-source-sink-2": (0, "e7cdf0d22056c44affc6725df1802ae86f376036c429ea11a07c5b1f7d1efa4a"),
    "bne-vertex-cover-0": (0, "9d98d0da8a93fc75b14b700c5b4fcb168ff6da039d419d0e54e2d75e7474ed98"),
    "bpos-vertex-cover-0": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-vertex-cover-0": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-vertex-cover-0": (0, "d7a7187d282e17cf1803d6ebd75003381902e3e732829b08fe83c04877ca7ea4"),
    "bne-vertex-cover-1": (0, "9eeae295f445e7ebf689aca6de9bad651e31ce85c1b1adb3c4e0cfeb006f48fe"),
    "bpos-vertex-cover-1": (0, "e66303705492a39ad0d379a4df7702354bb058ac3b239db61d670b1a7844f51e"),
    "ig-vertex-cover-1": (0, "7672f7c89c06b2001beb0ba5624c5c9e5e935e5b8ef5a6155a39bd823d21a407"),
    "certify-vertex-cover-1": (0, "bbcc5a3d66f3ca1c2af327baba7d2704e4776206b649eb96a044635d58ab3b44"),
    "bne-vertex-cover-2": (0, "72c5eec62648db3ebe656ff5c5016f4acebc5e76e157f239157ed5dfed31da5a"),
    "bpos-vertex-cover-2": (0, "6890edcc561e1d1e444702850cc7be812bae0d500351088a75357067e70fd986"),
    "ig-vertex-cover-2": (0, "068022ca42f75b8b08d9f4c63849b7c67e94bce216c0cf5db2cf61eb51ce8bc8"),
    "certify-vertex-cover-2": (0, "b91ce4b0c912821663329d8f194b5c08b8f7105f855d46e05dbd8baf9203b1ff"),
    "sample-iid-multicast-0": (0, "15f3e6b3b955f7bfc8299048b90089324df2d28d2ad95ad31ecc29bf88a2711b"),
    "sample-noniid-multicast-0": (0, "d686c37c69b01b5215e8d4debe28bbf8e5359e7527814694051a2f610a99ef89"),
    "sample-iid-multicast-1": (0, "f25e1b37e314bd930bf71c618680e04098b1e4a39300be1bb71e6bab82f171fd"),
    "sample-noniid-multicast-1": (0, "1e3b12199a5402f166a85430fba31ad2f6ae9c0397cc5a27a898a780f1f78331"),
    "sample-iid-multicast-2": (0, "e514c50b631759291bfd5bc5deeec24e2358ddb1007aaf12cfc756d0274a52d4"),
    "sample-noniid-multicast-2": (0, "a5c8f0611f5111d042b36ade2c46441bba9d9be341b86595d6c5c9e8c536323b"),
}


@pytest.mark.parametrize(
    "gen,argv,expected",
    [pytest.param(gen, argv, GOLDEN[cid], id=cid) for cid, gen, argv in cases()],
)
def test_cli_stdout_and_exit_code_are_unchanged(tmp_path, capsys, gen, argv, expected):
    assert run_case(tmp_path, capsys, gen, argv) == expected


# The cases below digest stdout, stderr and the exit code of the remaining
# subcommands, output formats and error paths.  Their digests were recorded
# on the tree before the subcommands moved to one dispatch path in
# `cli.main`, so they pin that the dispatch change kept every byte.  Each
# case runs in its own directory with relative paths, so error messages
# that name a file are the same in every run.

def more_cases():
    """(id, gen_instance kwargs of the instance written to inst.json or
    None, CLI argvs run in order; the last one is digested)."""
    inst = ["--instance", "inst.json"]
    for kind in ("multicast", "source-sink", "vertex-cover"):
        gen = dict(kind=kind, seed=1)
        for fmt in ("json", "csv"):
            yield f"eval-{fmt}-{kind}", gen, [
                ["bne", *inst, "--out", "strat.json"],
                ["eval", *inst, "--strategy", "strat.json", "--format", fmt],
            ]
        for command in ("bne", "certify"):
            yield f"{command}-csv-{kind}", gen, [[command, *inst, "--format", "csv"]]
        yield f"gen-{kind}", None, [
            ["gen", "--kind", kind, "--nodes", "5", "--players", "3", "--types", "2", "--seed", "1"]
        ]
    for fmt in ("json", "csv"):
        yield f"scheme-check-{fmt}", dict(kind="multicast", seed=1), [
            ["scheme-check", *inst, "--samples", "10", "--seed", "3", "--format", fmt]
        ]
    for variant in ("iid", "noniid"):
        yield f"sample-mc-{variant}", dict(kind="multicast", seed=1, iid=variant == "iid"), [
            ["sample", *inst, "--variant", variant, "--samples", "20", "--seed", "2"]
        ]
    yield "error-missing-instance", None, [["bpos", "--instance", "absent.json"]]
    yield "error-unwritable-out", dict(kind="multicast", seed=1), [
        ["bpos", *inst, "--out", "absent/report.json"]
    ]
    yield "error-sample-on-source-sink", dict(kind="source-sink", seed=1), [["sample", *inst]]
    yield "error-cap-strategies", dict(kind="multicast", seed=1), [
        ["bpos", *inst, "--cap-strategies", "1"]
    ]


def run_calls(tmp_path, monkeypatch, capsys, gen, argvs):
    """(exit code, sha256 of stdout, sha256 of stderr) of the last of
    `argvs`, run in process in `tmp_path`."""
    monkeypatch.chdir(tmp_path)
    if gen is not None:
        inst = gen_instance(n_nodes=SIZE[0], n_players=SIZE[1], n_types=SIZE[2], **gen)
        (tmp_path / "inst.json").write_text(serialize_instance(inst), encoding="utf-8")
    for argv in argvs:
        capsys.readouterr()
        code = main(argv)
    out, err = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    return code, digest(out), digest(err)


# The nine `*-csv-*` eval, bne and certify digests were re-recorded when
# list and dict cells of a CSV report became JSON text (they had been
# Python reprs); every other digest is as recorded.
MORE_GOLDEN = {  # case id -> (exit code, sha256 of stdout, sha256 of stderr)
    "eval-json-multicast": (0, "a547e4f1e74716bbad032b8319ad45000cbae767802ca2336a26d88ac093b0d1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval-csv-multicast": (0, "9e24b0ae3714c9d21ffeac1da0ce8dc6c8131a15e180562061533803e694bd89", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bne-csv-multicast": (0, "086636901217395a70785f7be6a9e6a3e7020ca01dd4ef925c46dd60d22e76d8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "certify-csv-multicast": (0, "fa405cb05437f626f5e517230a35a9d774a8acc67d1ab695c285fd9c81ce2361", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gen-multicast": (0, "0f25ae4005823e68ded1bb5321c8270ba4bc101b34f6c98433a2efc775df7234", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval-json-source-sink": (0, "b643f76a4e35aa3269a11c489c67f472c9c9a445821e856ebdd7ff88f8c2332c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval-csv-source-sink": (0, "2fc3079062e6058198896ec35ed64c3f114ebc02184b309597fea24e5410e391", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bne-csv-source-sink": (0, "81ae024094ec5f68c3c9e84b7bc8c9f46776d0b2c961d391bd5d34765494e42d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "certify-csv-source-sink": (0, "810ba0150b0ab0a85849fc6dea76523180207610299e6b2091ebf72bb9dea6f1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gen-source-sink": (0, "3d3f7bd42840c3bf32228110e9a83f90b5dfa986b84c395499c35a46a7e9a772", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval-json-vertex-cover": (0, "9b6f2fa206f4a8eec361896401694c96880550386dad36b6b791351d16567bb4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval-csv-vertex-cover": (0, "a86e0c4496ba48dcec37dabd64d049b7f6137adfe87e995711b57768b7f9ce90", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bne-csv-vertex-cover": (0, "0082358dbca7d0d4f80fe9323461befc92c4c83c2987d358cccad493afe51209", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "certify-csv-vertex-cover": (0, "456074cd9fea393ecc5733ae8b62fb35f06309add23c3cc65d8f258a27625404", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gen-vertex-cover": (0, "70ad1987e6d634d5bc8b78a5d02aa760dee2adcf43ea1565c5dd9d3cd74e7351", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scheme-check-json": (0, "c76bbe8471209bf21d951c378d0adf0863b1995ce523f92303043905d27df2da", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scheme-check-csv": (0, "d26695dd64e1ffb85849afd7bd2c0d59c93ff015668afcd6b2b6c3f826ad17a7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sample-mc-iid": (0, "414cd6673bcd7476e47942f396376ccd1963811b08500cc1b613fe1bd3eb8a52", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sample-mc-noniid": (0, "18295cf8ba73c0cc1574dcc3d2a5be81ccf259de611c4220bb027b0d1c4073d2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-missing-instance": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "59f733188d710fec60c201f3b570ab3c56213aed8329eb4cadca8595c4f7800b"),
    "error-unwritable-out": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "9ea120971cf8a1e58da07e2b1c2eba99f7737a05538f6acb4efd99126ee2e8c8"),
    "error-sample-on-source-sink": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "73df35d1980e0796356357757b03c5d85f116def624570c2beffd2caa97b4205"),
    "error-cap-strategies": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6e4d9967d3eff9792b5853a0fc9b96f43cf22737bc12c2ebbbe61824bcef5297"),
}


@pytest.mark.parametrize(
    "gen,argvs,expected",
    [pytest.param(gen, argvs, MORE_GOLDEN[cid], id=cid) for cid, gen, argvs in more_cases()],
)
def test_more_cli_output_and_exit_codes_are_unchanged(tmp_path, monkeypatch, capsys, gen, argvs, expected):
    assert run_calls(tmp_path, monkeypatch, capsys, gen, argvs) == expected


# `gen` draws no hypergraph-cover game, so these digest the hand-written
# `HYPERGRAPH_COVER`.  They were recorded before the per-kind decisions moved
# into `games.FAMILIES`.
HYPERGRAPH_GOLDEN = {  # command -> (exit code, sha256 of stdout, sha256 of stderr)
    "bne": (0, "18c430fced6e423b6b495a2885f92b4b2a7a2d6563b167e82f5c77d9c76dd918", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bpos": (0, "fc8419d8e5f82c7722e8e0483cf02d43bf8a3b7d5acbd8951904642c618b9b74", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ig": (0, "e3b7fbc265fa482b4142f8e395350c38660d459fce65fce42db1e784ae91750b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "certify": (0, "8e78beed0a8e84dce5361a28ad383ee0df54119393c6e1bddbf41efdf985b393", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval": (0, "bb95626b53436b0d983cbafb05c6e23e9d4dba6027e9ccb12e5eb87ff132cd58", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", sorted(HYPERGRAPH_GOLDEN))
def test_hypergraph_cover_output_is_unchanged(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "inst.json").write_text(json.dumps(HYPERGRAPH_COVER), encoding="utf-8")
    inst = ["--instance", "inst.json"]
    argvs = [[command, *inst]]
    if command == "eval":
        argvs = [["bne", *inst, "--out", "strat.json"], ["eval", *inst, "--strategy", "strat.json"]]
    assert run_calls(tmp_path, monkeypatch, capsys, None, argvs) == HYPERGRAPH_GOLDEN[command]


@pytest.mark.parametrize("kind", ["multicast", "source-sink", "vertex-cover"])
def test_nested_csv_cells_are_the_json_values(tmp_path, monkeypatch, capsys, kind):
    """A CSV report writes each list or dict value as one JSON cell, which
    parses back to the JSON report's value; scalar cells are `str` of it."""
    monkeypatch.chdir(tmp_path)
    inst = gen_instance(n_nodes=SIZE[0], n_players=SIZE[1], n_types=SIZE[2], kind=kind, seed=1)
    (tmp_path / "inst.json").write_text(serialize_instance(inst), encoding="utf-8")
    assert main(["bne", "--instance", "inst.json", "--out", "strat.json"]) == 0
    for argv, nested in (
        (["eval", "--strategy", "strat.json"], {"expected_player_costs"}),
        (["bne"], {"players"}),
        (["certify"], {"links", "values"}),
    ):
        out = {}
        for fmt in ("json", "csv"):
            capsys.readouterr()
            main([argv[0], "--instance", "inst.json", *argv[1:], "--format", fmt])
            out[fmt] = capsys.readouterr().out
        doc = json.loads(out["json"])
        cells = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(out["csv"]))}
        assert list(cells) == sorted(doc)
        assert {k for k, v in doc.items() if isinstance(v, (list, dict))} == nested
        for key, value in doc.items():
            if key in nested:
                assert json.loads(cells[key]) == value
            else:
                assert cells[key] == str(value)
