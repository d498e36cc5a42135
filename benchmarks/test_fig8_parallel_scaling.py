"""Fig. 8 (beyond the paper): sharded detection speedup vs. worker count.

The paper's evaluation is single-threaded; this benchmark extends it with
the sharded multi-core backend of :mod:`repro.parallel`.  BATCHDETECT runs
as the per-shard delegate over the default noisy dataset; ``workers=1`` is
the plain single-threaded backend (no sharding layer at all) and doubles as
the hot path tracked by the CI perf-regression gate
(``benchmarks/check_regression.py`` against ``benchmarks/baseline.json``).

Wall-clock speedup is recorded in ``extra_info`` for every worker count.
Exactness (sharded == single-threaded violation sets) is asserted at every
size; the ≥1.5x speedup expectation is only asserted on hardware that can
deliver it — at least 4 usable cores and a paper-scale relation
(``REPRO_BENCH_SIZE >= 50000``) — so correctness CI at reduced scale stays
deterministic.
"""

import os
import time

import pytest

from conftest import BENCH_SIZE, close_engine, dataset_rows

from repro.core.schema import cust_ext_schema
from repro.engine import DataQualityEngine

WORKER_COUNTS = [1, 2, 4]
#: Scale at which the ≥1.5x @ 4 workers acceptance target is enforced.
SPEEDUP_ENFORCEMENT_SIZE = 50_000
SPEEDUP_TARGET = 1.5


def _engine(rows, workload, workers: int) -> DataQualityEngine:
    engine = DataQualityEngine(
        cust_ext_schema(), workload, backend="batch", workers=workers
    )
    engine.load(rows)
    return engine


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig8_sharded_batch_detect_scaling(benchmark, workers, base_workload):
    rows = dataset_rows(BENCH_SIZE)
    partition_stats = {}

    def setup():
        return (_engine(rows, base_workload, workers),), {}

    def run(engine):
        result = engine.detect()
        if hasattr(engine.backend, "partition_stats"):
            partition_stats.update(engine.backend.partition_stats())
        return result

    # Multiple rounds: the workers=1 mean feeds the CI regression gate, and
    # a single ~50 ms sample on a shared runner is all noise.
    result = benchmark.pedantic(
        run, setup=setup, teardown=close_engine, rounds=3, iterations=1
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["tuples"] = BENCH_SIZE
    benchmark.extra_info["dirty"] = result.dirty_count
    benchmark.extra_info["cores"] = os.cpu_count()
    # Replication/summary accounting for the BENCH_<sha>.json artifact; the
    # perf gate asserts replication_factor <= 1.0 (workers=1 bypasses the
    # sharding layer entirely — every row trivially "ships" once).
    benchmark.extra_info["replication_factor"] = partition_stats.get(
        "replication_factor", 1.0
    )
    benchmark.extra_info["summary_bytes"] = partition_stats.get("summary_bytes", 0)
    benchmark.extra_info["summary_groups"] = partition_stats.get("summary_groups", 0)


def test_fig8_sharded_exactness_and_speedup(base_workload):
    """Sharded results are bit-identical; speedup enforced at full scale."""
    rows = dataset_rows(BENCH_SIZE)

    single = _engine(rows, base_workload, workers=1)
    started = time.perf_counter()
    reference = single.detect()
    single_seconds = time.perf_counter() - started
    single.close()

    sharded = _engine(rows, base_workload, workers=4)
    started = time.perf_counter()
    parallel = sharded.detect()
    sharded_seconds = time.perf_counter() - started
    stats = sharded.backend.partition_stats()
    sharded.close()

    assert parallel.violations == reference.violations
    # Single-pass sharding: every stored row ships to exactly one shard.
    assert stats["replication_factor"] <= 1.0

    speedup = single_seconds / sharded_seconds if sharded_seconds else float("inf")
    cores = os.cpu_count() or 1
    print(
        f"\nfig8: |D|={BENCH_SIZE}, cores={cores}: "
        f"1 worker {single_seconds:.3f}s, 4 workers {sharded_seconds:.3f}s, "
        f"speedup {speedup:.2f}x, replication {stats['replication_factor']:.1f}x, "
        f"summary {stats['summary_bytes']} bytes in {stats['summary_groups']} groups"
    )
    if cores >= 4 and BENCH_SIZE >= SPEEDUP_ENFORCEMENT_SIZE:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x speedup at 4 workers on "
            f"{BENCH_SIZE} tuples with {cores} cores, measured {speedup:.2f}x"
        )
