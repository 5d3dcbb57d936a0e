"""Command-line front end: analysis subcommands and machine-readable
JSON/CSV reports.

Subcommands: eval, bne, bpos, ig, certify, scheme-check, sample, gen.
Each `cmd_*` function maps the loaded instance and the parsed arguments to
(report, exit code).  `main` alone reads the input files, applies the
`--cap-*` overrides, renders the report as JSON or CSV to stdout or
`--out`, and turns any `NetgamesError` into an `{"error": ...}` line on
stderr.
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
import random
import sys
from fractions import Fraction

from . import costsharing, equilibria, games, instances, sampling
from .errors import NetgamesError, ParseError, PreconditionError
from .instances import encode_profile, parse_strategy


def _frac_str(x) -> str:
    return str(Fraction(x))


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
        if isinstance(report, dict):
            rows = [{"key": k, "value": v} for k, v in sorted(report.items())]
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
        "expected_social_cost": _frac_str(games.expected_social_cost(inst, s)),
        "expected_potential": _frac_str(games.expected_potential(inst, s)),
        "expected_player_costs": [
            _frac_str(games.expected_player_cost(inst, s, i)) for i in range(inst.n)
        ],
    }
    return report, 0


def cmd_bne(inst, args):
    s = equilibria.min_potential_profile(inst)
    rep = equilibria.verify_bne(inst, s)
    report = {
        "is_bne": rep.is_bne,
        "expected_social_cost": _frac_str(games.expected_social_cost(inst, s)),
        "expected_potential": _frac_str(games.expected_potential(inst, s)),
        "players": encode_profile(inst, s),
    }
    return report, 0 if rep.is_bne else 2


def cmd_bpos(inst, args):
    return {"bpos": _frac_str(equilibria.bpos_exact(inst))}, 0


def cmd_ig(inst, args):
    return {"information_gap": _frac_str(equilibria.information_gap_exact(inst))}, 0


def cmd_certify(inst, args):
    cert = equilibria.potential_method_certificate(inst)
    report = {
        "links": [
            {
                "claim": f"potential-method.{link.name}",
                "lhs": _frac_str(link.lhs),
                "rhs": _frac_str(link.rhs),
                "pass": link.holds,
            }
            for link in cert.links
        ],
        "values": {k: _frac_str(v) for k, v in cert.values.items()},
        "all_pass": cert.all_hold,
    }
    return report, 0 if cert.all_hold else 2


def cmd_scheme_check(inst, args):
    scheme = costsharing.steiner_scheme(inst.graph)
    rng = random.Random(args.seed)
    nodes = [n for n in inst.graph.nodes if n != inst.graph.root]
    if not nodes:
        raise PreconditionError("scheme-check needs a node other than the root")
    if args.samples < 0:
        raise PreconditionError("--samples must not be negative")
    rows = []
    all_pass = True
    cases = args.samples if args.samples else 50
    for _ in range(cases):
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
                    "lhs": _frac_str(chk.lhs),
                    "rhs": _frac_str(chk.rhs),
                    "pass": chk.holds,
                }
            )
    return rows, 0 if all_pass else 2


def cmd_sample(inst, args):
    scheme = costsharing.steiner_scheme(inst.graph)
    if args.samples:
        rep = sampling.evaluate_construction_mc(
            inst, scheme, args.variant, args.samples, args.seed
        )
    else:
        rep = sampling.evaluate_construction_exact(inst, scheme, args.variant)
    report = {
        "variant": rep.variant,
        "samples": rep.samples,
        "seed": rep.seed,
        "first_stage": _frac_str(rep.first_stage),
        "augmentation": _frac_str(rep.augmentation),
        "total": _frac_str(rep.total),
        "bound": _frac_str(rep.bound),
        "pass": rep.passed,
        "ig_upper_bound": (
            _frac_str(rep.ig_upper_bound) if rep.ig_upper_bound is not None else None
        ),
        "stderr": rep.stderr,
    }
    return report, 0 if rep.passed else 2


def cmd_gen(inst, args):
    inst = instances.gen_instance(
        kind=args.kind,
        n_nodes=args.nodes,
        n_players=args.players,
        n_types=args.types,
        seed=args.seed,
        iid=args.iid,
        root_mass=args.root_mass,
    )
    return instances.serialize_instance(inst), 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="netgames",
        description="Exact analysis of Bayesian network design games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("--instance", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--cap-strategies", type=int, default=None)
        p.add_argument("--cap-support", type=int, default=None)

    p = sub.add_parser("eval", help="costs and potential of a strategy file")
    common(p)
    p.add_argument("--strategy", required=True)
    p.set_defaults(func=cmd_eval)

    for name, func, helptext in (
        ("bne", cmd_bne, "potential-minimizing equilibrium + verification"),
        ("bpos", cmd_bpos, "exact Bayesian price of stability"),
        ("ig", cmd_ig, "exact information gap"),
        ("certify", cmd_certify, "potential-method certificate chain"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("scheme-check", help="cost-sharing property suites")
    common(p)
    p.set_defaults(func=cmd_scheme_check, needs_multicast=True)

    p = sub.add_parser("sample", help="sampling-and-augmentation construction")
    common(p)
    p.add_argument("--variant", choices=("iid", "noniid"), default="noniid")
    p.set_defaults(func=cmd_sample, needs_multicast=True)

    p = sub.add_parser("gen", help="seeded random instance generator")
    common(p, needs_instance=False)
    p.add_argument("--kind", choices=("multicast", "source-sink", "vertex-cover"),
                   default="multicast")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--iid", action="store_true")
    p.add_argument("--root-mass", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inst = None
        if "instance" in args:
            inst = instances.parse_instance(_read(args.instance))
            if args.cap_support is not None:
                inst = dataclasses.replace(inst, support_cap=args.cap_support)
            if args.cap_strategies is not None:
                inst = dataclasses.replace(inst, strategy_cap=args.cap_strategies)
            if "needs_multicast" in args and inst.kind != "multicast":
                raise NetgamesError(f"{args.command} needs a multicast (rooted) instance")
        if "strategy" in args:
            args.strategy = parse_strategy(inst, _read(args.strategy))
        report, code = args.func(inst, args)
        _emit(report, args.format, args.out)
        return code
    except NetgamesError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
