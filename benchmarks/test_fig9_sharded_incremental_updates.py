"""Fig. 9 (beyond the paper): sharded INCDETECT update maintenance.

The paper's Fig. 7 measures single-threaded INCDETECT against BATCHDETECT
re-detection as the update size grows; this benchmark extends the setting to
the sharded backend.  A bootstrapped engine (``backend="incremental"``,
``workers`` swept over 1 / 2 / 4) applies one 2%-of-|D| mixed
insert/delete batch; only ``apply_update`` is timed — shard bootstrapping
happens in ``ensure_ready`` during setup, matching the paper's assumption
that vio(D) is known before the update arrives.

``workers=1`` is the plain single-threaded incremental delegate (no
sharding layer at all) and doubles as the second hot path tracked by the CI
perf-regression gate (``benchmarks/check_regression.py`` against
``benchmarks/baseline.json``).  Exactness of the sharded path is asserted
separately below and in ``tests/parallel/test_sharded_incremental.py``.
"""

import os

import pytest

from conftest import BENCH_SIZE, close_engine, dataset_rows, update_batch

from repro.core.schema import cust_ext_schema
from repro.engine import DataQualityEngine

WORKER_COUNTS = [1, 2, 4]
#: |ΔD⁺| = |ΔD⁻| as a fraction of |D| (the paper's smallest Fig. 7 point).
UPDATE_FRACTION = 0.02


def _bootstrapped_engine(rows, workload, workers: int) -> DataQualityEngine:
    engine = DataQualityEngine(
        cust_ext_schema(), workload, backend="incremental", workers=workers
    )
    engine.load(rows)
    # Initialise the maintained state (flags + Aux(D), per shard when
    # workers > 1) outside the timed region.
    engine.backend.ensure_ready()
    return engine


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig9_sharded_incremental_update(benchmark, workers, base_workload):
    rows = dataset_rows(BENCH_SIZE)
    batch = update_batch(len(rows), max(1, int(BENCH_SIZE * UPDATE_FRACTION)))

    trace = {}

    def setup():
        return (_bootstrapped_engine(rows, base_workload, workers),), {}

    def run(engine):
        result = engine.apply_update(batch)
        update_trace = getattr(engine.backend, "last_update_trace", None)
        if update_trace:
            trace.update(update_trace)
        return result

    # Multiple rounds: the workers=1 mean feeds the CI regression gate.
    result = benchmark.pedantic(
        run, setup=setup, teardown=close_engine, rounds=3, iterations=1
    )
    assert result.incremental, "the update must be maintained, not recomputed"
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["tuples"] = BENCH_SIZE
    benchmark.extra_info["update_size"] = batch.insert_count
    benchmark.extra_info["dirty"] = result.dirty_count
    benchmark.extra_info["cores"] = os.cpu_count()
    # Readback accounting: flags probed (bounded by the shards' maintained
    # violation sets) and summary groups
    # touched by the routed update (sharded runs only).
    benchmark.extra_info["readback_tids"] = trace.get("readback_tids", 0)
    benchmark.extra_info["summary_groups_touched"] = trace.get(
        "summary_groups_touched", 0
    )


def test_fig9_sharded_incremental_exactness(base_workload):
    """Sharded maintenance equals the single-threaded incremental pass."""
    rows = dataset_rows(BENCH_SIZE)
    batch = update_batch(len(rows), max(1, int(BENCH_SIZE * UPDATE_FRACTION)))

    single = _bootstrapped_engine(rows, base_workload, workers=1)
    expected = single.apply_update(batch)
    single.close()

    sharded = _bootstrapped_engine(rows, base_workload, workers=4)
    result = sharded.apply_update(batch)
    trace = sharded.backend.last_update_trace
    sharded.close()

    assert result.incremental and expected.incremental
    assert result.violations == expected.violations
    assert result.tuple_count == expected.tuple_count
    # Work is proportional to the routed delta: the trace never reports a
    # bootstrap inside the timed update, and the routed counts match |ΔD|
    # times the clusters each tuple replicates into.
    assert trace["mode"] == "incremental"
    assert not trace["bootstrap"]
    assert trace["shards_touched"] <= trace["shards_total"]
