"""Smoke-size self-tests of the benchmark (not collected by the tier-1 suite).

Run from the repository root with either of::

    python3 layerbench/selftest.py
    python3 -m pytest -q layerbench/selftest.py

Every workload runs on a few hundred tuples, untraced and traced.  The
tests check that each run passes its output checks, that it emits every
metric ``BENCHMARK.json`` names with that file's unit, and that two traced
runs with the same seed, in separate processes, count identical SQL work.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import make_inputs  # noqa: E402

SMOKE_PLANS = {
    "batch-detect": replace(workloads.PLANS["batch-detect"], size=600, setups=2),
    "update-stream": replace(
        workloads.PLANS["update-stream"], size=600, setups=2, update_size=10),
    "service-stream": replace(
        workloads.PLANS["service-stream"], size=600, setups=2, stream_rate=400.0,
        open_events=240, saturated_events=100, saturated_chunk=50),
    "repair": replace(workloads.PLANS["repair"], size=600, min_samples=2),
}
SMOKE_SECONDS = 0.5

#: Counts that must repeat exactly for one seed.
EXACT = (
    "detection.vm_ksteps",
    "detection.statements",
    "detection.rows_read_back",
    "repair.rounds",
    "repair.cells_changed",
)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, seed: int, trace: bool) -> dict:
    """One smoke run through ``run.report``; returns its result line."""
    plan = SMOKE_PLANS[workload]
    outcome = workloads.WORKLOADS[workload](
        make_inputs(plan.size, seed), plan, SMOKE_SECONDS, trace)
    assert run.report(workload, seed, trace, outcome) == 0, outcome.checks
    return {**run.result_line(outcome, trace),
            "raw": outcome.layers if trace else outcome.metrics}


def test_registry_matches_benchmark_json():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_emits_every_metric_with_its_unit():
    for workload in workloads.WORKLOADS:
        for trace, registry in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = _smoke(workload, seed=3, trace=trace)
            assert result["correct"] and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            # Everything the workload measured is a registered metric with
            # the registered unit; nothing is silently dropped.
            for name, (_, unit) in result["raw"].items():
                assert registry.get(name) == unit, (workload, name, unit)
            if not trace:
                assert set(result["raw"]) == set(registry), workload
                assert all(value > 0 for value, _ in result["raw"].values()), workload


def _traced_counts(workload: str, seed: int) -> dict:
    """The exact counts of one traced smoke run, in a fresh interpreter."""
    code = (
        "import sys, json; sys.argv = ['selftest']; "
        f"sys.path.insert(0, {str(HERE)!r}); import selftest; "
        f"r = selftest._smoke({workload!r}, {seed}, True); "
        "print(json.dumps({k: r['metrics'][k]['value'] for k in selftest.EXACT}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_same_seed_gives_identical_sql_counts():
    for workload in ("batch-detect", "update-stream", "repair"):
        first = _traced_counts(workload, seed=5)
        second = _traced_counts(workload, seed=5)
        assert first == second, (workload, first, second)
        assert first["detection.vm_ksteps"] > 0, workload


if __name__ == "__main__":
    for test in (
        test_registry_matches_benchmark_json,
        test_every_workload_emits_every_metric_with_its_unit,
        test_same_seed_gives_identical_sql_counts,
    ):
        test()
        print(f"passed {test.__name__}")
