"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def smoke(workload, trace, expected=None):
    return run.run(workload, run.DEFAULT_SEED, 0, trace, scale="smoke", expected=expected, max_passes=1)


@pytest.fixture(scope="module")
def traced():
    return {w: smoke(w, True) for w in workloads.WORKLOADS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = smoke(workload, False)
    assert res["correct"], res["detail"]["failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    # The committed smoke digests were checked, not just recorded.
    assert run.load_digests("smoke", workload, run.DEFAULT_SEED)
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(traced):
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, res in traced.items():
        assert res["correct"], (workload, res["detail"]["failures"])
        assert {k: v["unit"] for k, v in res["metrics"].items()} == spec


def test_every_wrapped_function_is_called_by_some_workload(traced):
    seen = set()
    for res in traced.values():
        summary = res["detail"]["summary"]
        seen |= {k for k, v in summary["calls"].items() if v}
        seen |= {k for k, v in summary["gen_calls"].items() if v}
    assert set(tracer.all_wrapped_names()) - seen == set()


def test_only_sampling_construction_reaches_costsharing_and_sampling(traced):
    for workload, res in traced.items():
        calls = res["detail"]["summary"]["calls"]
        reached = any(v for k, v in calls.items() if k.startswith(("costsharing.", "sampling.")))
        assert reached == (workload == "sampling-construction"), workload


def test_tampered_digest_counts_as_failure():
    committed = run.load_digests("smoke", "optimum-support", run.DEFAULT_SEED)
    tampered = dict(committed)
    task = sorted(tampered)[0]
    tampered[task] = "0" * 16
    res = smoke("optimum-support", False, expected=tampered)
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["metrics"]["ok_frac"]["value"] < 1
    assert any(task in f for f in res["detail"]["failures"])


def test_tail_percentile_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    q, v = run.tail_percentile(xs)
    assert q == 90 and v == 90.0
    assert sum(x > v for x in xs) == 10
    assert run.tail_percentile([3.0, 1.0]) == (100, 3.0)
