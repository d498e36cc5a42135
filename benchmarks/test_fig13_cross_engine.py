"""Fig. 13 (growth): the same detection pipeline on two SQL engines.

BATCHDETECT compiles the whole eCFD workload to a fixed pair of SQL
statements (the single-tuple ``Q_sv`` scan and the ``GROUP BY`` macro /
``Q_mv`` pass), so the engine underneath is swappable: the ``batch``
backend runs it on SQLite, ``batch-duckdb`` runs the *same* generated SQL
— emitted through :mod:`repro.detection.dialect` — on DuckDB's columnar
executor.  This benchmark sweeps |D| across both engines to produce the
"same pipeline, two engines" figure and asserts the engines agree
bit-exactly on the violation set at every point.

``test_fig13_duckdb_batch_detect`` is the stable-id hot path tracked by
the CI perf gate; its ``extra_info`` carries ``speedup_vs_sqlite``, which
``benchmarks/check_regression.py`` gates at >= 3.0x once the relation
reaches paper scale (|D| >= 100k).  Below that, per-statement overhead
dominates and the reading is reported without gating.

Every DuckDB arm skips cleanly when the optional ``duckdb`` package is
absent (``pip install 'repro[duckdb]'``); only CI's ``engines`` job times
it for real.
"""

import time

import pytest

from conftest import BENCH_SIZE, close_engine, dataset_rows, prepared_engine, sweep

from repro.detection.engines import duckdb_available

#: |D| sweep: 10k -> 1M at the paper's own scale (REPRO_BENCH_SIZE=100000).
SIZES = sweep(
    [BENCH_SIZE // 10, BENCH_SIZE // 2, BENCH_SIZE, 5 * BENCH_SIZE, 10 * BENCH_SIZE]
)
ENGINE_BACKENDS = {"sqlite": "batch", "duckdb": "batch-duckdb"}


def _require_duckdb() -> None:
    if not duckdb_available():
        pytest.skip("duckdb not installed — install the optional 'repro[duckdb]' extra")


def _timed_detect(rows, backend, sigma, rounds=1):
    """Best-of-``rounds`` wall-clock detect() on a freshly loaded engine."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        engine = prepared_engine(rows, backend, sigma)
        started = time.perf_counter()
        result = engine.detect()
        best = min(best, time.perf_counter() - started)
        engine.close()
    return result, best


@pytest.mark.parametrize("engine_name", sorted(ENGINE_BACKENDS))
@pytest.mark.parametrize("size", SIZES)
def test_fig13_cross_engine_batch_detect(benchmark, engine_name, size, base_workload):
    if engine_name == "duckdb":
        _require_duckdb()
    rows = dataset_rows(size)
    timings = []

    def setup():
        return (prepared_engine(rows, ENGINE_BACKENDS[engine_name], base_workload),), {}

    def run(engine):
        started = time.perf_counter()
        result = engine.detect()
        timings.append(time.perf_counter() - started)
        return result

    result = benchmark.pedantic(
        run, setup=setup, teardown=close_engine, rounds=1, iterations=1
    )
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["tuples"] = size
    benchmark.extra_info["dirty"] = result.dirty_count
    if engine_name == "duckdb":
        # The cross-engine reading: re-run the identical pipeline on SQLite
        # (untimed by pytest-benchmark) so every DuckDB point carries its own
        # speedup — and its own bit-exactness proof.
        reference, sqlite_seconds = _timed_detect(rows, "batch", base_workload)
        duckdb_seconds = min(timings)
        assert result.violations == reference.violations
        benchmark.extra_info["sqlite_seconds"] = sqlite_seconds
        benchmark.extra_info["duckdb_seconds"] = duckdb_seconds
        benchmark.extra_info["speedup_vs_sqlite"] = (
            sqlite_seconds / duckdb_seconds if duckdb_seconds else float("inf")
        )
    else:
        benchmark.extra_info["sqlite_seconds"] = min(timings)


def test_fig13_duckdb_batch_detect(benchmark, base_workload):
    """The tracked cross-engine hot path: DuckDB BATCHDETECT at BENCH_SIZE."""
    _require_duckdb()
    rows = dataset_rows(BENCH_SIZE)
    timings = []

    def setup():
        return (prepared_engine(rows, "batch-duckdb", base_workload),), {}

    def run(engine):
        started = time.perf_counter()
        result = engine.detect()
        timings.append(time.perf_counter() - started)
        return result

    # Multiple rounds: this mean feeds the CI regression gate once a
    # duckdb-equipped runner regenerates the baseline.
    result = benchmark.pedantic(
        run, setup=setup, teardown=close_engine, rounds=3, iterations=1
    )
    reference, sqlite_seconds = _timed_detect(rows, "batch", base_workload, rounds=3)
    duckdb_seconds = min(timings)
    assert result.violations == reference.violations

    benchmark.extra_info["engine"] = "duckdb"
    benchmark.extra_info["tuples"] = BENCH_SIZE
    benchmark.extra_info["dirty"] = result.dirty_count
    benchmark.extra_info["sqlite_seconds"] = sqlite_seconds
    benchmark.extra_info["duckdb_seconds"] = duckdb_seconds
    benchmark.extra_info["speedup_vs_sqlite"] = (
        sqlite_seconds / duckdb_seconds if duckdb_seconds else float("inf")
    )
