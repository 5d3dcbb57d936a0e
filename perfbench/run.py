"""netgames benchmark: one workload per run, closed loop, single client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke            # every workload at a tiny size
    python3 perfbench/run.py --record           # rewrite digests.json and properties.json

Run from the root of a netgames checkout.  The run makes the workload's
instances from `--seed` (see workloads.py), writes them under
perfbench/_work/, times the set-up in fresh interpreters, and then runs one
worker process (worker.py) that makes passes over the task list for
`--seconds`.  The last stdout line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.

End-to-end metrics (`--trace 0`):
  setup_s        median over fresh interpreters of the time from process
                 start to ready: import, instance parsing, schemes.  Half of
                 the probes run before the worker and half after it.
  wall_ref       median over passes of the pass wall time divided by the
                 mean time of a fixed Fraction-arithmetic calibration loop
                 run between the tasks of that pass.  On a shared VM the CPU
                 speed drifts by tens of percent over seconds and minutes
                 (CPU time equals wall time: the process is slowed, not
                 descheduled), so raw pass times of two runs differ by more
                 than any useful bound; the ratio cancels the drift.
  peak_rss_mb    ru_maxrss of the worker process.
  ok_frac        share of attempted tasks that returned, exited 0, matched
                 the committed digest (default seed) or the first pass, and
                 passed their checks; 1 - fail_frac.

Per-layer metrics (`--trace 1`) come from a separate run in which untraced
and traced passes alternate; see tracer.py.  They are per traced pass, plus
from the untraced passes: the raw pass time (env.wall_s), the median task
latency (env.task_p50_s), the highest percentile of task latencies with at
least ten samples beyond it (env.task_tail_s; which one, and the sample
count, are printed before the result line), the calibration loop time
(env.calib_s) and the tracing overhead (trace.overhead_frac).  Raw seconds
and task percentiles are not end-to-end metrics: across seeds their spread
(CPU drift; a few task kinds per mix) is wider than any bound worth having.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
PROPERTIES = os.path.join(HERE, "properties.json")
DEFAULT_SEED = 0
SETUP_PROBES = 12
RUN_TIMEOUT_S = 170
# Functions whose total (inclusive) time is reported besides self time: the
# entry points a task calls, and the Steiner solver the optimum layer calls.
TOTAL_S_PREFIXES = ("equilibria.", "games.expected_opt", "graphs.steiner_tree_exact", "cli.main")


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _spawn(cfg: dict) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker timed out")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def time_setup(cfg: dict) -> float:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    t0 = time.perf_counter()
    proc = _spawn(dict(cfg, setup_only=True))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _finish(proc, 60)
    if line.strip() != "ready":
        fail(f"set-up probe printed {line!r}")
    return elapsed


def run_worker(cfg: dict) -> dict:
    proc = _spawn(cfg)
    out = _finish(proc, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines or lines[0] != "ready":
        fail("worker did not report ready")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank); with ten samples or fewer, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    q = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(q * n / 100))
    return q, xs[rank - 1]


def load_digests(scale: str, workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f).get(scale, {}).get(workload, {})


def prepare(workload: str, seed: int, scale: str, workdir: str) -> list[list[str]]:
    """Generate the workload's instances into `workdir`."""
    import workloads

    paths = []
    for name, gen_seed, text in workloads.generate(workload, seed, scale):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        paths.append([name, path])
    return paths


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        expected: dict | None = None, max_passes: int = 0) -> dict:
    """One benchmark run; returns the result object printed as the last
    line (plus `detail`, which is not printed)."""
    import tracer as tracer_mod
    import workloads

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, "_work"))
    try:
        cfg = {
            "workload": workload,
            "seconds": seconds,
            "trace": trace,
            "src": SRC,
            "instances": prepare(workload, seed, scale, workdir),
            "expected": load_digests(scale, workload, seed) if expected is None else expected,
            "max_passes": max_passes,
        }
        probes = SETUP_PROBES if scale == "full" else 2
        time_setup(cfg)  # warm-up: byte-compiles the sources
        setup_times = [time_setup(cfg) for _ in range(probes // 2)]
        res = run_worker(cfg)
        setup_times += [time_setup(cfg) for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(res["failures"])
    attempted = res["attempted"]
    q, tail = tail_percentile(res["latencies"])
    detail = {
        "failures": res["failures"],
        "digests": res["digests"],
        "tail": f"env.task_tail_s = p{q} of {len(res['latencies'])} task samples",
        "passes": len(res["walls"]),
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (statistics.median(res["ratios"]), "calib"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics, problems = layer_metrics(res, workload, tail, tracer_mod, workloads)
        detail["summary"] = res["trace"]
        if problems:
            failed += len(problems)
            detail["failures"] = detail["failures"] + problems
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def layer_metrics(res: dict, workload: str, tail: float, tracer_mod, workloads) -> tuple[dict, list]:
    """Per-layer metrics per traced pass, and the coverage problems found."""
    s = res["trace"]
    k = len(res["traced_ratios"])
    m: dict = {}

    def per_pass(table, name):
        return table.get(name, 0) / k

    for name in tracer_mod.all_wrapped_names():
        if name in tracer_mod.generator_names():
            m[f"{name}.calls"] = (per_pass(s["gen_calls"], name), "count")
            m[f"{name}.yielded"] = (per_pass(s["yielded"], name), "count")
            continue
        m[f"{name}.calls"] = (per_pass(s["calls"], name), "count")
        m[f"{name}.self_s"] = (per_pass(s["self_s"], name), "s")
        if name.startswith(TOTAL_S_PREFIXES):
            m[f"{name}.total_s"] = (per_pass(s["total_s"], name), "s")
    for name, v in s["distinct"].items():
        m[f"{name}.distinct"] = (v, "count")
    for name in ("games.feasible_actions", "games.ex_post_opt", "graphs.steiner_tree_exact"):
        m.setdefault(f"{name}.distinct", (0, "count"))
        calls = per_pass(s["calls"], name)
        # Repetition share: the share of a pass's calls whose arguments were
        # seen before in that pass (every pass repeats the same calls).
        m[f"{name}.repeat_share"] = (1 - s["distinct"].get(name, 0) / calls if calls else 0.0, "ratio")
    bne = s["calls"].get("equilibria.verify_bne", 0)
    m["equilibria.verify_bne.pass_ratio"] = (
        s["useful"].get("equilibria.verify_bne", 0) / bne if bne else 0.0, "ratio")
    ic_calls = s["calls"].get("equilibria.interim_cost", 0)
    pc_in_ic = s["parent_calls"].get("games.player_cost<equilibria.interim_cost", 0)
    m["equilibria.interim_cost.mean_support"] = (pc_in_ic / ic_calls if ic_calls else 0.0, "count")
    tp_calls = s["gen_calls"].get("games.type_profiles", 0)
    m["games.type_profiles.mean_support"] = (
        s["yielded"].get("games.type_profiles", 0) / tp_calls if tp_calls else 0.0, "count")
    total_self = sum(s["layer_self_s"].values())
    for layer in tracer_mod.LAYERS:
        v = s["layer_self_s"].get(layer, 0.0)
        m[f"layer.{layer}.self_s"] = (v / k, "s")
        m[f"layer.{layer}.self_frac"] = (v / total_self if total_self else 0.0, "ratio")
    m["env.calib_s"] = (statistics.median(res["calibs"]), "s")
    m["env.wall_s"] = (statistics.median(res["walls"]), "s")
    m["env.task_p50_s"] = (statistics.median(res["latencies"]), "s")
    m["env.task_tail_s"] = (tail, "s")
    # Traced against untraced passes, each relative to its calibration loops.
    m["trace.overhead_frac"] = (
        statistics.median(res["traced_ratios"]) / statistics.median(res["ratios"]) - 1, "ratio")

    problems = []
    for layer in workloads.LAYERS_REACHED[workload]:
        if not any(n.startswith(layer + ".") and c for n, c in s["calls"].items()):
            problems.append(f"trace: layer {layer} recorded no calls")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netgames", "__init__.py")):
        fail(f"no netgames sources under {SRC}; run from a netgames checkout")
    sys.path[:0] = [HERE, SRC]
    import workloads

    if args.record:
        return record()
    if args.smoke:
        ok = True
        for w in workloads.WORKLOADS:
            res = run(w, args.seed, 0, bool(args.trace), scale="smoke", max_passes=1)
            ok = ok and res["correct"]
            print(json.dumps({w: {k: v for k, v in res.items() if k != "detail"}}))
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = res.pop("detail")
    for f in detail["failures"][:20]:
        print(f"FAIL {f}", file=sys.stderr)
    if args.seed != DEFAULT_SEED:
        print("digests " + json.dumps(detail["digests"], sort_keys=True))
    print(f"{detail['tail']}; {detail['passes']} untraced passes")
    print(json.dumps(res))
    return 0


def record() -> int:
    """Rewrite digests.json (full and smoke scale, default seed) and
    properties.json (workload properties from one traced pass)."""
    import workloads

    digests, properties = {}, {}
    for scale in ("full", "smoke"):
        digests[scale] = {}
        for w in workloads.WORKLOADS:
            res = run(w, DEFAULT_SEED, 0, True, scale=scale, expected={}, max_passes=1)
            if not res["correct"]:
                fail(f"{scale}/{w} failed: {res['detail']['failures']}")
            digests[scale][w] = res["detail"]["digests"]
            if scale == "full":
                properties[w] = workload_properties(res, w)
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    with open(PROPERTIES, "w", encoding="utf-8") as f:
        json.dump(properties, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def workload_properties(res: dict, workload: str) -> dict:
    """Repetition shares, mean supports and sizes of one workload at the
    default seed, for later caching and closed-form changes to cite."""
    from netgames import equilibria, instances
    import workloads

    rungs = {}
    for name, gen_seed, text in workloads.generate(workload, DEFAULT_SEED, "full"):
        inst = instances.parse_instance(text)
        rungs[name] = {
            "kind": inst.kind,
            "gen_seed": gen_seed,
            "players": inst.n,
            "type_profiles": inst.support_size(),
            "strategy_space": equilibria.strategy_space_size(inst),
        }
    m = {k: v["value"] for k, v in res["metrics"].items()}
    return {
        "rungs": rungs,
        "repeat_share": {
            "steiner_tree_exact terminal sets": m["graphs.steiner_tree_exact.repeat_share"],
            "ex_post_opt type profiles": m["games.ex_post_opt.repeat_share"],
            "feasible_actions (player, type) menus": m["games.feasible_actions.repeat_share"],
        },
        "calls": {
            "steiner_tree_exact": m["graphs.steiner_tree_exact.calls"],
            "ex_post_opt": m["games.ex_post_opt.calls"],
            "feasible_actions": m["games.feasible_actions.calls"],
        },
        "mean_support": {
            "per expectation call (type_profiles)": m["games.type_profiles.mean_support"],
            "per interim_cost call (opponent profiles)": m["equilibria.interim_cost.mean_support"],
        },
        "strategy_profiles_swept": m["equilibria.all_strategy_profiles.yielded"],
        "layer_self_frac": {k.split(".")[1]: v for k, v in m.items() if k.endswith(".self_frac")},
    }


if __name__ == "__main__":
    sys.exit(main())
