"""Benchmark workloads: seeded instance ladders, the task list of one pass,
and the checks on the answers.

Every instance comes from `netgames.gen_instance`, with a generator seed
drawn from the workload seed.  A rung also fixes the instance's *shape*: the
sizes that set how much work the tasks do (action-menu sizes, edge count, the
histogram of distinct terminals per type profile).  Generator seeds are drawn
until the instance has that shape, so runs with different workload seeds do
the same amount of work on different inputs, and their timings compare.

A task is one call of a public entry point: `netgames.cli.main([...])` with
stdout captured, or a library function.  Its answer is a string (CLI exit
code plus stdout bytes, or `str()` of the returned values), which is digested
and checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("equilibrium-sweep", "bayes-dynamics", "optimum-support", "sampling-construction")

# Layers each workload must reach; a traced run fails when one of them
# records no calls.  Only sampling-construction reaches costsharing/sampling.
LAYERS_REACHED = {
    "equilibrium-sweep": ("cli", "instances", "equilibria", "games", "graphs"),
    "bayes-dynamics": ("equilibria", "games"),
    "optimum-support": ("games", "graphs"),
    "sampling-construction": ("cli", "instances", "costsharing", "sampling", "games", "graphs"),
}


@dataclass(frozen=True)
class Rung:
    """One instance of a ladder: `gen_instance` arguments plus the target
    shape (see `shape_of`)."""

    name: str
    kind: str
    nodes: int
    players: int
    types: int
    shape: tuple
    iid: bool = False


# Shapes were picked among the most frequent ones for their generator
# arguments, so a matching seed turns up within a few hundred draws.
LADDERS = {
    "full": {
        # Enumerable strategy spaces of 108, 81, 64 and 64 profiles.
        "equilibrium-sweep": (
            Rung("mc108", "multicast", 5, 3, 2, ("menus", 6, (1, 1, 3, 3, 3, 4))),
            Rung("mc81", "multicast", 5, 3, 2, ("menus", 6, (1, 1, 3, 3, 3, 3))),
            Rung("ss64", "source-sink", 5, 3, 2, ("menus", 5, (2, 2, 2, 2, 2, 2))),
            Rung("vc64", "vertex-cover", 5, 3, 2, ("menus", 0, (2, 2, 2, 2, 2, 2))),
        ),
        # Supports of 243 type profiles; never enumerated as strategies.  The
        # dynamics take two rounds, with under ten (cover) or 10-19
        # (multicast) improving moves.
        "bayes-dynamics": (
            Rung("vc7", "vertex-cover", 7, 5, 3, ("dynamics", 0, (2,) * 15, 2, 0)),
            Rung("vc6", "vertex-cover", 6, 5, 3, ("dynamics", 0, (2,) * 15, 2, 0)),
            Rung("mc-a", "multicast", 5, 5, 3, ("dynamics", 6, (1, 1, 1) + (3,) * 12, 2, 1)),
            Rung("mc-b", "multicast", 5, 5, 3, ("dynamics", 6, (1, 1, 1) + (3,) * 12, 2, 1)),
        ),
        # From heavy repetition of terminal sets (mc5) to almost none (vc10).
        "optimum-support": (
            Rung("mc9", "multicast", 9, 4, 3, ("terminals", 20, ((2, 11), (3, 44), (4, 26)))),
            Rung("mc7-a", "multicast", 7, 4, 3, ("terminals", 13, ((2, 15), (3, 48), (4, 18)))),
            Rung("mc7-b", "multicast", 7, 4, 3, ("terminals", 13, ((2, 15), (3, 48), (4, 18)))),
            Rung("mc5", "multicast", 5, 5, 3, ("terminals", 6, ((1, 6), (2, 78), (3, 126), (4, 33)))),
            Rung("ss6-a", "source-sink", 6, 3, 3, ("terminals", 9, ((2, 3), (3, 24)))),
            Rung("ss6-b", "source-sink", 6, 3, 3, ("terminals", 9, ((2, 3), (3, 24)))),
            Rung("vc10", "vertex-cover", 10, 6, 3, ("terminals", 0, ((5, 81), (6, 648)))),
        ),
        "sampling-construction": (
            Rung("iid", "multicast", 6, 3, 3, ("terminals", 9, ((1, 3), (2, 18), (3, 6))), iid=True),
            Rung("noniid", "multicast", 6, 3, 3, ("terminals", 9, ((1, 1), (2, 16), (3, 10)))),
        ),
    },
    # Tiny instances for the smoke test: every task and check, in seconds.
    "smoke": {
        "equilibrium-sweep": (
            Rung("mc", "multicast", 4, 2, 2, None),
            Rung("ss", "source-sink", 4, 2, 2, None),
            Rung("vc", "vertex-cover", 4, 2, 2, None),
        ),
        "bayes-dynamics": (
            Rung("vc", "vertex-cover", 4, 3, 2, None),
            Rung("mc", "multicast", 4, 3, 2, None),
        ),
        "optimum-support": (
            Rung("mc", "multicast", 5, 3, 2, None),
            Rung("ss", "source-sink", 4, 2, 2, None),
            Rung("vc", "vertex-cover", 5, 3, 2, None),
        ),
        "sampling-construction": (
            Rung("iid", "multicast", 4, 2, 2, None, iid=True),
            Rung("noniid", "multicast", 4, 2, 2, None),
        ),
    },
}

MAX_DRAWS = 20000

# The `--seed` of the CLI's own samplers (Monte Carlo draws, scheme-check
# client sets) stays fixed: on instances of one shape it then draws client
# sets of the same sizes, and a Steiner call's cost grows as 3^size.
CLI_SEED = "0"


def shape_of(inst, how: str) -> tuple:
    """The work-determining sizes of an instance.

    `menus`: edge count and the sorted sizes of every (player, type) action
    menu, which fix the strategy-space size and the deviations checked.
    `terminals`: edge count and the histogram, over the type profiles, of the
    number of distinct non-trivial terminals (sources, pairs or cover pairs)
    that the exact optimum has to connect or hit."""
    from netgames import games

    edges = len(inst.graph.edges) if inst.graph is not None else 0
    if how == "menus":
        sizes = sorted(
            len(games.feasible_actions(inst, i, t))
            for i, spec in enumerate(inst.players)
            for t, _ in spec.distribution
        )
        return ("menus", edges, tuple(sizes))
    hist: Counter = Counter()
    for tp, _ in games.type_profiles(inst):
        if inst.kind == "multicast":
            k = len({t for t in tp if t != inst.graph.root})
        else:
            k = len({tuple(t) for t in tp if t[0] != t[1]})
        hist[k] += 1
    return ("terminals", edges, tuple(sorted(hist.items())))


def dynamics_match(inst, rounds: int, moves_bucket: int) -> bool:
    """Whether best-response dynamics from the first-action profile take
    exactly `rounds` rounds (the last one changes nothing) and make
    `moves // 10 == moves_bucket` improving moves.  Rounds set most of the
    cost of the dynamics; each move adds an expected-potential evaluation."""
    from netgames import equilibria
    from netgames.errors import NoConvergenceError

    s0 = first_action_profile(inst)
    try:
        _, trace = equilibria.best_response_dynamics(inst, s0, max_rounds=rounds, return_trace=True)
    except NoConvergenceError:
        return False
    if (len(trace) - 1) // 10 != moves_bucket:
        return False
    try:
        equilibria.best_response_dynamics(inst, s0, max_rounds=rounds - 1)
    except NoConvergenceError:
        return True
    return False


def _has_shape(inst, shape: tuple) -> bool:
    how = shape[0]
    if how != "dynamics":
        return shape_of(inst, how) == shape
    # ("dynamics", edges, menu sizes, rounds, moves // 10)
    return shape_of(inst, "menus")[1:] == shape[1:3] and dynamics_match(inst, *shape[3:])


def generate(workload: str, seed: int, scale: str) -> list[tuple[str, int, str]]:
    """The workload's instances as (rung name, generator seed, instance
    JSON), deterministic in `seed`."""
    from netgames import instances

    out = []
    for rung in LADDERS[scale][workload]:
        rng = random.Random(f"{workload}/{rung.name}/{seed}")
        for _ in range(MAX_DRAWS):
            gen_seed = rng.randrange(2 ** 31)
            inst = instances.gen_instance(
                rung.kind, rung.nodes, rung.players, rung.types, seed=gen_seed, iid=rung.iid
            )
            if rung.shape is None or _has_shape(inst, rung.shape):
                break
        else:
            raise RuntimeError(f"{workload}/{rung.name}: no instance of shape {rung.shape}")
        out.append((rung.name, gen_seed, instances.serialize_instance(inst)))
    return out


# ---------------------------------------------------------------------------
# Tasks


@dataclass
class Task:
    id: str
    run: Callable[[], str]
    # check(answer, answers of this pass so far) -> error message or None
    check: Callable[[str, dict], Optional[str]] = field(default=lambda answer, answers: None)


def cli_call(argv: list[str]) -> str:
    """`netgames.cli.main(argv)` with stdout captured: the exit code and the
    stdout bytes."""
    from netgames import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    text = out.getvalue()
    if code != 0:
        text += err.getvalue()
    return f"exit={code}\n{text}"


def cli_json(answer: str) -> dict:
    head, _, body = answer.partition("\n")
    if head != "exit=0":
        raise ValueError(f"unexpected {head}: {body.strip()[:200]}")
    return json.loads(body)


def _expect(cond: bool, msg: str) -> Optional[str]:
    return None if cond else msg


def _profile_str(inst, s) -> str:
    return json.dumps(
        [
            [sorted(map(str, s[i][t].elements)) for t, _ in spec.distribution]
            for i, spec in enumerate(inst.players)
        ]
    )


def first_action_profile(inst) -> tuple:
    from netgames import games

    return tuple(
        {t: games.feasible_actions(inst, i, t)[0] for t, _ in spec.distribution}
        for i, spec in enumerate(inst.players)
    )


def build_tasks(workload: str, setup: dict) -> list[Task]:
    """The task list of one pass.  `setup` maps rung name to a dict with the
    instance file's `path` and the parsed instance `inst`."""
    return _BUILDERS[workload](setup)


def _sweep_tasks(setup):
    from netgames import games

    tasks = []
    for name, ctx in setup.items():
        path = ctx["path"]
        h_n = games.harmonic(ctx["inst"].n)

        def check_certify(answer, answers, h_n=h_n):
            doc = cli_json(answer)
            v = {k: Fraction(x) for k, x in doc["values"].items()}
            return (
                _expect(doc["all_pass"], "certificate chain fails")
                or _expect(v["bpos"] <= h_n * v["information_gap"], "BPoS > H_n * IG")
                or _expect(1 <= v["information_gap"] <= v["bpos"], "1 <= IG <= BPoS fails")
            )

        def check_bpos(answer, answers, name=name):
            cert = cli_json(answers[f"{name}.certify"])["values"]
            return _expect(cli_json(answer)["bpos"] == cert["bpos"], "bpos differs from certify")

        def check_ig(answer, answers, name=name):
            cert = cli_json(answers[f"{name}.certify"])["values"]
            return _expect(
                cli_json(answer)["information_gap"] == cert["information_gap"],
                "ig differs from certify",
            )

        def check_bne(answer, answers, name=name):
            doc = cli_json(answer)
            cert = cli_json(answers[f"{name}.certify"])["values"]
            return _expect(doc["is_bne"], "potential minimizer is not a BNE") or _expect(
                doc["expected_potential"] == cert["Psi_min_potential"],
                "bne potential differs from certify",
            )

        for cmd, check in (
            ("certify", check_certify),
            ("bpos", check_bpos),
            ("ig", check_ig),
            ("bne", check_bne),
        ):
            tasks.append(Task(f"{name}.{cmd}", lambda cmd=cmd, path=path: cli_call([cmd, "--instance", path]), check))
    return tasks


def _dynamics_tasks(setup):
    from netgames import equilibria, games

    tasks = []
    for name, ctx in setup.items():
        inst = ctx["inst"]
        s0 = first_action_profile(inst)
        result = {}

        def brd(inst=inst, s0=s0, result=result):
            result["s"] = equilibria.best_response_dynamics(inst, s0)
            return _profile_str(inst, result["s"])

        def verify(inst=inst, result=result):
            rep = equilibria.verify_bne(inst, result["s"])
            return f"is_bne={rep.is_bne}"

        def potential(inst=inst, result=result):
            return str(games.expected_potential(inst, result["s"]))

        def cost(inst=inst, result=result):
            return str(games.expected_social_cost(inst, result["s"]))

        def check_cost(answer, answers, name=name, h_n=games.harmonic(inst.n)):
            c, phi = Fraction(answer), Fraction(answers[f"{name}.potential"])
            return _expect(0 < c <= phi <= h_n * c, "C <= Phi <= H_n * C fails")

        tasks += [
            Task(f"{name}.brd", brd),
            Task(f"{name}.verify", verify, lambda a, _: _expect(a == "is_bne=True", "dynamics ended off a BNE")),
            Task(f"{name}.potential", potential),
            Task(f"{name}.cost", cost, check_cost),
        ]
    return tasks


def _optimum_tasks(setup):
    from netgames import games

    tasks = []
    for name, ctx in setup.items():
        inst = ctx["inst"]
        upper = {}

        def check(answer, answers, inst=inst, upper=upper):
            # E[OPT] is at most the expected cost of any strategy profile.
            if "v" not in upper:
                upper["v"] = games.expected_social_cost(inst, first_action_profile(inst))
            return _expect(0 < Fraction(answer) <= upper["v"], "E[OPT] out of (0, E[cost]]")

        tasks.append(Task(f"{name}.expected_opt", lambda inst=inst: str(games.expected_opt(inst)), check))
    return tasks


def _sampling_tasks(setup):
    from netgames import costsharing, games, sampling

    tasks = []
    for name, ctx in setup.items():
        inst, path = ctx["inst"], ctx["path"]
        scheme = costsharing.steiner_scheme(inst.graph)  # a set-up object
        variant = "iid" if name.startswith("iid") else "noniid"

        def check_sample(answer, answers):
            doc = cli_json(answer)
            return _expect(doc["pass"] and Fraction(doc["total"]) <= Fraction(doc["bound"]), "sampling bound fails")

        def derand(inst=inst, scheme=scheme, variant=variant):
            D, s = sampling.derandomize(inst, scheme, variant)
            return f"{list(D.types)} {games.expected_social_cost(inst, s)}"

        def check_derand(answer, answers, name=name):
            exact = Fraction(cli_json(answers[f"{name}.sample-exact"])["total"])
            return _expect(Fraction(answer.rsplit(" ", 1)[1]) <= exact, "best draw costs more than the average")

        tasks += [
            Task(f"{name}.sample-exact", lambda p=path, v=variant: cli_call(["sample", "--instance", p, "--variant", v]), check_sample),
            Task(
                f"{name}.sample-mc",
                lambda p=path, v=variant: cli_call(
                    ["sample", "--instance", p, "--variant", v, "--samples", "100", "--seed", CLI_SEED]
                ),
                check_sample,
            ),
            Task(f"{name}.derandomize", derand, check_derand),
            Task(
                f"{name}.scheme-check",
                lambda p=path: cli_call(["scheme-check", "--instance", p, "--samples", "20", "--seed", CLI_SEED]),
                lambda a, _: _expect(a.startswith("exit=0\n"), "scheme property fails"),
            ),
        ]
    return tasks


_BUILDERS = {
    "equilibrium-sweep": _sweep_tasks,
    "bayes-dynamics": _dynamics_tasks,
    "optimum-support": _optimum_tasks,
    "sampling-construction": _sampling_tasks,
}
