"""Golden CLI bytes: the sha256 of stdout and the exit code of `bne`,
`bpos`, `ig`, `certify` and exact `sample` on fixed generated instances.
Any change to the printed answers, their formatting or an exit code fails
here.  The digests were recorded before the expectations moved to integer
arithmetic and must not be re-recorded for a speed change."""

import hashlib

import pytest

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
