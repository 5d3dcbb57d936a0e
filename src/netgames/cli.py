"""Command-line front end: analysis subcommands and machine-readable
JSON/CSV reports.

Subcommands: eval, bne, bpos, ig, certify, scheme-check, sample, gen.
`OPTIONS` holds each option's argparse settings once, and one `COMMANDS`
row per subcommand names the options it reads, so no subcommand accepts an
option that it ignores.  Each `cmd_*` function maps the loaded instance and
the parsed arguments to (report, exit code).  `main` alone rejects caps and
sample counts below 1, reads the input files, applies the `--cap-*`
overrides, renders the report as JSON or CSV to stdout or `--out`, and turns
any `NetgamesError` into an `{"error": ...}` line on stderr.
Exit codes: 0 on success/pass, 2 when a certificate or property check
fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import random
import sys

from . import costsharing, equilibria, games, instances, sampling
from .errors import NetgamesError, ParseError, PreconditionError
from .instances import encode_profile, parse_strategy


def _emit(report, fmt: str, out_path):
    """Write `report` as JSON or CSV to the file at `out_path`, or to stdout
    when no path is given; a string report is written as it is."""
    if isinstance(report, str):
        text = report
    elif fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        rows = report
        if isinstance(report, dict):  # a list or dict value is one JSON cell
            flat = lambda v: json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v
            rows = [{"key": k, "value": flat(v)} for k, v in sorted(report.items())]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise NetgamesError(f"cannot write {out_path}: {exc.strerror}") from exc


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise NetgamesError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc


def cmd_eval(inst, args):
    s = args.strategy  # the profile that `main` read from the strategy file
    report = {
        "expected_social_cost": str(games.expected_social_cost(inst, s)),
        "expected_potential": str(games.expected_potential(inst, s)),
        "expected_player_costs": [
            str(games.expected_player_cost(inst, s, i)) for i in range(inst.n)
        ],
    }
    return report, 0


def cmd_bne(inst, args):
    s = equilibria.min_potential_profile(inst)
    rep = equilibria.verify_bne(inst, s)
    report = {
        "is_bne": rep.is_bne,
        "expected_social_cost": str(games.expected_social_cost(inst, s)),
        "expected_potential": str(games.expected_potential(inst, s)),
        "players": encode_profile(inst, s),
    }
    return report, 0 if rep.is_bne else 2


def cmd_bpos(inst, args):
    return {"bpos": str(equilibria.bpos_exact(inst))}, 0


def cmd_ig(inst, args):
    return {"information_gap": str(equilibria.information_gap_exact(inst))}, 0


def cmd_certify(inst, args):
    cert = equilibria.potential_method_certificate(inst)
    report = {
        "links": [
            {
                "claim": f"potential-method.{link.name}",
                "lhs": str(link.lhs),
                "rhs": str(link.rhs),
                "pass": link.holds,
            }
            for link in cert.links
        ],
        "values": {k: str(v) for k, v in cert.values.items()},
        "all_pass": cert.all_hold,
    }
    return report, 0 if cert.all_hold else 2


def cmd_scheme_check(inst, args):
    scheme = costsharing.steiner_scheme(inst.graph)
    rng = random.Random(args.seed)
    nodes = [n for n in inst.graph.nodes if n != inst.graph.root]
    if not nodes:
        raise PreconditionError("scheme-check needs a node other than the root")
    rows = []
    all_pass = True
    for _ in range(args.samples):
        U = frozenset(rng.sample(nodes, rng.randint(0, len(nodes))))
        x = rng.choice(nodes)
        checks = [
            ("competitiveness", costsharing.check_competitiveness(scheme, U), ""),
            ("strictness", costsharing.check_strictness(scheme, U, x), x),
        ]
        if U:
            member = rng.choice(sorted(U))
            sup = U | frozenset(rng.sample(nodes, rng.randint(0, len(nodes))))
            chk = costsharing.check_cross_monotonicity(scheme, U, sup, member)
            checks.append(("cross-monotonicity", chk, member))
        for prop, chk, x_used in checks:
            all_pass = all_pass and chk.holds
            rows.append(
                {
                    "scheme": scheme.name,
                    "property": prop,
                    "U": " ".join(sorted(U)),
                    "x": x_used,
                    "lhs": str(chk.lhs),
                    "rhs": str(chk.rhs),
                    "pass": chk.holds,
                }
            )
    return rows, 0 if all_pass else 2


def cmd_sample(inst, args):
    scheme = costsharing.steiner_scheme(inst.graph)
    if args.samples is not None:
        rep = sampling.evaluate_construction_mc(
            inst, scheme, args.variant, args.samples, args.seed
        )
    else:
        rep = sampling.evaluate_construction_exact(inst, scheme, args.variant)
    report = {
        "variant": rep.variant,
        "samples": rep.samples,
        "seed": rep.seed,
        "first_stage": str(rep.first_stage),
        "augmentation": str(rep.augmentation),
        "total": str(rep.total),
        "bound": str(rep.bound),
        "pass": rep.passed,
        "ig_upper_bound": str(rep.ig_upper_bound) if rep.ig_upper_bound is not None else None,
        # One sample has no finite standard error; JSON has no Infinity.
        "stderr": rep.stderr if rep.stderr is not None and math.isfinite(rep.stderr) else None,
    }
    return report, 0 if rep.passed else 2


def cmd_gen(inst, args):
    inst = instances.gen_instance(
        args.kind, args.nodes, args.players, args.types,
        seed=args.seed, iid=args.iid, root_mass=args.root_mass,
    )
    return instances.serialize_instance(inst), 0


OPTIONS = {
    "--instance": dict(required=True),
    "--strategy": dict(required=True),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None),
    "--cap-strategies": dict(type=int, default=None),
    "--cap-support": dict(type=int, default=None),
    "--variant": dict(choices=("iid", "noniid"), default="noniid"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=None),
    "--kind": dict(choices=instances.GEN_KINDS, default="multicast"),
    "--nodes": dict(type=int, default=4),
    "--players": dict(type=int, default=2),
    "--types": dict(type=int, default=2),
    "--iid": dict(action="store_true"),
    "--root-mass": dict(action="store_true"),
}
REPORT = ("--instance", "--format", "--out")
CAPS = ("--cap-strategies", "--cap-support")

# (name, function, help, the options it reads, parser defaults besides `func`)
COMMANDS = (
    ("eval", cmd_eval, "costs and potential of a strategy file",
     ("--instance", "--strategy", "--format", "--out"), {}),
    ("bne", cmd_bne, "potential-minimizing equilibrium + verification",
     (*REPORT, "--cap-strategies"), {}),
    ("bpos", cmd_bpos, "exact Bayesian price of stability", (*REPORT, *CAPS), {}),
    ("ig", cmd_ig, "exact information gap", (*REPORT, *CAPS), {}),
    ("certify", cmd_certify, "potential-method certificate chain", (*REPORT, *CAPS), {}),
    ("scheme-check", cmd_scheme_check, "cost-sharing property suites",
     (*REPORT, "--seed", "--samples"), {"needs_multicast": True, "samples": 50}),
    ("sample", cmd_sample, "sampling-and-augmentation construction",
     (*REPORT, "--variant", "--seed", "--samples", "--cap-support"),
     {"needs_multicast": True}),
    ("gen", cmd_gen, "seeded random instance generator",
     ("--out", "--kind", "--nodes", "--players", "--types", "--seed", "--iid", "--root-mass"),
     {}),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="netgames",
        description="Exact analysis of Bayesian network design games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext, options, defaults in COMMANDS:
        p = sub.add_parser(name, help=helptext)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func, **defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    opts = vars(args)
    try:
        for dest in ("cap_strategies", "cap_support", "samples"):
            if opts.get(dest) is not None and opts[dest] < 1:
                option = "--" + dest.replace("_", "-")
                raise PreconditionError(f"{option} must be at least 1, got {opts[dest]}")
        inst = None
        if "instance" in args:
            inst = instances.parse_instance(_read(args.instance))
            if opts.get("cap_support") is not None:
                inst = dataclasses.replace(inst, support_cap=args.cap_support)
            if opts.get("cap_strategies") is not None:
                inst = dataclasses.replace(inst, strategy_cap=args.cap_strategies)
            if "needs_multicast" in args and not inst.family.rooted:
                raise NetgamesError(f"{args.command} needs a multicast (rooted) instance")
        if "strategy" in args:
            args.strategy = parse_strategy(inst, _read(args.strategy))
        report, code = args.func(inst, args)
        _emit(report, opts.get("format"), args.out)
        return code
    except NetgamesError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
