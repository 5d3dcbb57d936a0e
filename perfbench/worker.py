"""Worker process of the benchmark: one workload, one fresh interpreter.

    python3 perfbench/worker.py '<config json>'

The worker imports netgames, parses the workload's instance files and builds
its tasks (the set-up), prints `ready`, and then, unless the config says
`setup_only`, runs passes over the task list until `seconds` have passed.  A
fixed Fraction-arithmetic calibration loop runs between tasks (and before
the first and after the last), so that each pass's wall time can be divided
by the machine speed measured during that pass.  The last stdout line is a JSON object with the timings, the
answer digests, the failures and (when tracing) the per-layer summary.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of Fraction arithmetic, the kind of
    work netgames does.  The machine's speed drifts by tens of percent over
    seconds, so pass times are also reported relative to this loop."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1000):
        acc += Fraction(k % 7 + 1, k % 11 + 2) * Fraction(3, k % 5 + 1)
        if acc > 1000:
            acc -= 1000
    return time.perf_counter() - t0


def digest(answer: str) -> str:
    return hashlib.sha256(answer.encode()).hexdigest()[:16]


def setup(cfg: dict):
    """Import netgames, parse the instance files and build the tasks."""
    sys.path.insert(0, cfg["src"])
    from netgames import cli, instances  # noqa: F401  (importing cli is set-up cost)

    import workloads

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rungs = {}
    for name, path in cfg["instances"]:
        with open(path, encoding="utf-8") as f:
            inst = instances.parse_instance(f.read())
        rungs[name] = {"path": path, "inst": inst}
    tasks = workloads.build_tasks(cfg["workload"], rungs)
    return tasks, tracer


class Runner:
    """Runs passes and keeps the answers, timings and failures."""

    def __init__(self, tasks, expected: dict):
        self.tasks = tasks
        self.expected = expected  # task id -> committed digest
        self.first: dict = {}  # task id -> digest in the first pass
        self.failures: list[str] = []
        self.attempted = 0

    def run_pass(self, tracer=None) -> tuple[float, list[float], list[float]]:
        """One pass: returns (wall seconds, task latencies, calibration
        times).  Answers are checked after the timed part."""
        gc.collect()
        answers, errors = {}, {}
        latencies, calibs = [], []
        for task in self.tasks:
            calibs.append(calibration_loop())
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    answers[task.id] = tracer.span("bench.task", task.run)
                else:
                    answers[task.id] = task.run()
            except Exception as exc:  # a task that raises is a failure, not a crash
                errors[task.id] = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        calibs.append(calibration_loop())  # so the last task is bracketed too
        for task in self.tasks:
            self.attempted += 1
            err = errors.get(task.id) or self._check(task, answers)
            if err:
                self.failures.append(f"{task.id}: {err}")
        return sum(latencies), latencies, calibs

    def _check(self, task, answers):
        answer = answers.get(task.id)
        if answer is None:
            return "no answer"
        d = digest(answer)
        self.first.setdefault(task.id, d)
        if d != self.first[task.id]:
            return "answer differs from the first pass"
        if task.id in self.expected and d != self.expected[task.id]:
            return f"digest {d} differs from the committed {self.expected[task.id]}"
        try:
            return task.check(answer, answers)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"


def measure(cfg: dict, tasks, tracer) -> dict:
    runner = Runner(tasks, cfg.get("expected", {}))
    deadline = time.perf_counter() + cfg["seconds"]
    walls, ratios, latencies, all_calibs = [], [], [], []
    traced_ratios = []
    tracer_on = False
    if tracer is not None:
        tracer.uninstall()
    while True:
        if tracer is not None and walls and not tracer_on:
            # Traced and untraced passes alternate in a traced run.
            tracer.install()
            wall, _, calibs = runner.run_pass(tracer)
            traced_ratios.append(wall / statistics.fmean(calibs))
            tracer.uninstall()
            tracer_on = True
        else:
            wall, lat, calibs = runner.run_pass()
            walls.append(wall)
            calib = statistics.fmean(calibs)
            latencies += lat
            all_calibs += calibs
            ratios.append(wall / calib)
            tracer_on = False
        typical = statistics.median(walls) * (1 + len(traced_ratios) / len(walls))
        done = (
            len(walls) >= cfg["max_passes"]
            if cfg["max_passes"]
            else time.perf_counter() + typical > deadline
        )
        if done and (tracer is None or traced_ratios):
            break
    out = {
        "walls": walls,
        "ratios": ratios,
        "latencies": latencies,
        "calibs": all_calibs,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "digests": runner.first,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["traced_ratios"] = traced_ratios
        out["trace"] = tracer.summary()
    return out


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, HERE)
    tasks, tracer = setup(cfg)
    print("ready", flush=True)
    if cfg.get("setup_only"):
        return
    if tracer is not None:
        tracer.reset()
    result = measure(cfg, tasks, tracer)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
