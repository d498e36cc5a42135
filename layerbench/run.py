"""Layered benchmark of detect, update, stream and repair.

Run from the repository root::

    python3 layerbench/run.py --workload batch-detect --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``batch-detect``, ``update-stream``,
``service-stream`` and ``repair`` (see ``workloads.py`` for what each drives
and why).  Inputs are generated from ``--seed``; each run measures for about
``--seconds`` seconds, checks its outputs against an oracle, and prints as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:

* ``setup_s`` — median of several engine (or service) constructions, loads
  and bootstraps (for ``batch-detect``, load and the first detect);
* ``op_p50_ref`` — median latency of the workload's operation over a
  reference time.  The operation is one full ``detect()``, one
  ``apply_update`` of 50+50 tuples, one ``repair()``, or one open-loop
  stream event from its due time to ``applied``.  On a shared host the
  closed loops' milliseconds move with other tenants by up to 1.6x within
  minutes, so their reference time is the median of a fixed kernel timed
  in the same run (see ``reference.py``), which keeps the program's cost
  and cancels most of the host's.  The open-loop stream is paced by its
  arrivals and by thread hand-offs and does not follow the host's speed
  that way; its reference time is its mean arrival gap (10 ms);
* ``peak_rss_mb`` — peak resident memory of the process before the checks.

The milliseconds themselves are printed above the result line with their
sample counts, under the workload's own names: ``detect_s``,
``update_p50_ms`` and ``update_p90_ms``, ``stream_p50_ms``,
``stream_p99_ms`` and ``stream_capacity_ops_per_s`` (the median over
saturated rounds of raw operations applied per second), ``repair_s``.

With ``--trace 1`` the metrics are the per-layer ones.  Samples alternate
between untraced and traced operations; the traced ones record spans around
the public calls into each layer and count SQLite's work through the
engine's connection handle.  A per-layer metric is 0 on a workload whose
layer does not run; the detection counters read the engine's own
connection, so the shard connections of ``service-stream`` are not
counted.  Spans are written to ``layerbench/out/``.

Failed or refused operations are the ``failed`` count of ``attempted``.  A
failed output check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A seed no tuning run used, kept for confirming later claims.
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "x",
    "peak_rss_mb": "MB",
}

_FAMILY_METRICS = {
    f"detection.{family}.vm_ksteps": "count"
    for family in ("regroup", "macro", "aux", "sv", "mv_clear", "readback")
}
_SELF_METRICS = {
    f"{layer}.self_ms": "ms"
    for layer in (
        "loadgen", "service", "queue", "engine", "repair", "backend", "sharded",
        "summary", "detection", "database", "sql",
    )
}
PER_LAYER = {
    "backend.load_s": "s",
    "backend.bootstrap_s": "s",
    "detection.vm_ksteps": "count",
    "detection.statements": "count",
    "detection.rows_read_back": "count",
    "detection.call_ms": "ms",
    **_FAMILY_METRICS,
    "sharded.ship_ms_p50": "ms",
    "sharded.ship_ms_p99": "ms",
    "sharded.shards_touched_per_ship": "count",
    "sharded.readback_tids_per_ship": "count",
    "sharded.summary_groups_touched_per_ship": "count",
    "summary.apply_delta_ms": "ms",
    "summary.groups": "count",
    "service.submit_ms_p50": "ms",
    "service.submit_ms_p99": "ms",
    "service.window_wait_ms": "ms",
    "service.ops_per_ship": "count",
    "service.coalesced_frac": "frac",
    "service.admission_waits": "count",
    "service.queue_depth_max": "count",
    "loadgen.late_ms_p99": "ms",
    "repair.plan_ms": "ms",
    "repair.revalidate_ms": "ms",
    "repair.mirror_ms": "ms",
    "repair.rounds": "count",
    "repair.cells_changed": "count",
    **_SELF_METRICS,
    "trace.coverage_frac": "frac",
    "trace.residual_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: Workload-specific names of the median and tail latencies, printed for reading.
_NAMED = {
    "batch-detect": (("detect_s", "op_p50_ms", 1e-3, "s"),),
    "update-stream": (
        ("update_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("update_p90_ms", "op_p90_ms", 1.0, "ms"),
    ),
    "service-stream": (
        ("stream_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("stream_p99_ms", "op_p99_ms", 1.0, "ms"),
        ("stream_capacity_ops_per_s", "capacity_ops_per_s", 1.0, "1/s"),
    ),
    "repair": (("repair_s", "op_p50_ms", 1e-3, "s"),),
}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _import_workloads():
    """The workload module, with the library imported from ``src``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the library sources are missing under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(_NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_workloads()
    from inputs import make_inputs

    plan = workloads.PLANS[args.workload]
    inputs = make_inputs(plan.size, args.seed)
    outcome = workloads.WORKLOADS[args.workload](
        inputs, plan, args.seconds, bool(args.trace))
    return report(args.workload, args.seed, bool(args.trace), outcome)


def report(workload: str, seed: int, trace: bool, outcome) -> int:
    """Print provenance, readable metrics and the result line; returns the exit code."""
    provenance = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "commit": _commit(),
    }
    print("provenance " + json.dumps(provenance))
    print("properties " + json.dumps(outcome.properties, sort_keys=True))
    print("samples " + json.dumps(outcome.samples))
    for name, passed in outcome.checks.items():
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    for name, key, scale, unit in _NAMED[workload]:
        value = outcome.properties[key] * scale
        print(f"metric {name} = {value:.6g} {unit} (of {outcome.properties['op_samples']})")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"metric failed_frac = {failed_frac:.6g} ({outcome.failed}/{outcome.attempted})")

    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"{workload}-seed{seed}-spans.json"
        spans.write_text(json.dumps({"provenance": provenance, "spans": outcome.spans}))
        print(f"spans written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in sorted((outcome.layers if trace else outcome.metrics).items()):
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps(result_line(outcome, trace)))
    return 0 if outcome.correct else 1


def result_line(outcome, trace: bool) -> dict:
    """The result object: every registered metric of the mode, 0 where a layer is idle."""
    registry, values = (PER_LAYER, outcome.layers) if trace else (END_TO_END, outcome.metrics)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, (0.0, unit))[0]), "unit": unit}
            for name, unit in registry.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
