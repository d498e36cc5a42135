"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure (or ablation) of the paper's
evaluation at a reduced scale, so the whole suite finishes in minutes.  All
detection work runs through the :class:`~repro.engine.DataQualityEngine`
façade — the same hot path the examples and experiment drivers exercise —
with the backend string selecting BATCHDETECT, INCDETECT or the naive
oracle.  Two environment knobs control the size:

* ``REPRO_BENCH_SIZE``  — base dataset size (default 5000 tuples);
* ``REPRO_BENCH_POINTS`` — number of sweep points per figure (default 3).

Set them higher (e.g. ``REPRO_BENCH_SIZE=100000``) to approach the paper's
own scale; the benchmark code is identical, only the parameters change.
Timings are reported by pytest-benchmark; violation counts and realised
sizes are attached to each benchmark's ``extra_info``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.schema import cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.datagen.updates import UpdateBatch, UpdateGenerator
from repro.datagen.workload import paper_workload, paper_workload_with_tableau_size
from repro.engine import DataQualityEngine

BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "5000"))
BENCH_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", "3"))
DEFAULT_NOISE = 5.0


def sweep(values: list) -> list:
    """Reduce a full sweep to ``BENCH_POINTS`` evenly spaced points."""
    if len(values) <= BENCH_POINTS:
        return list(values)
    step = (len(values) - 1) / (BENCH_POINTS - 1)
    indices = sorted({round(index * step) for index in range(BENCH_POINTS)})
    return [values[index] for index in indices]


def dataset_rows(size: int, noise: float = DEFAULT_NOISE, seed: int = 0) -> list[dict[str, str]]:
    """A deterministic noisy dataset of the requested size."""
    return DatasetGenerator(seed=seed).generate_rows(size, noise)


def prepared_engine(rows: list[dict[str, str]], backend: str, sigma=None) -> DataQualityEngine:
    """A loaded engine on the requested backend (encoding installed, data in)."""
    sigma = sigma if sigma is not None else paper_workload()
    engine = DataQualityEngine(cust_ext_schema(), sigma, backend=backend)
    engine.load(rows)
    return engine


def close_engine(engine: DataQualityEngine) -> None:
    """``benchmark.pedantic`` teardown: closing an engine is never timed."""
    engine.close()


def batch_engine(rows: list[dict[str, str]], sigma=None) -> DataQualityEngine:
    """A loaded engine on the BATCHDETECT backend."""
    return prepared_engine(rows, "batch", sigma)


def incremental_engine(rows: list[dict[str, str]], sigma=None) -> DataQualityEngine:
    """An initialised engine on the INCDETECT backend (flags and Aux(D) computed)."""
    engine = prepared_engine(rows, "incremental", sigma)
    engine.detect()
    return engine


def updated_batch_engine(
    rows: list[dict[str, str]], batch: UpdateBatch, sigma=None
) -> DataQualityEngine:
    """A batch-backend engine with the pre-update state computed and ΔD applied.

    Mirrors the paper's Experiment 2 baseline: the update is executed against
    storage (untimed) so the benchmark can time the from-scratch re-detection
    alone.
    """
    engine = batch_engine(rows, sigma)
    engine.detect()
    engine.database.delete_tuples(batch.delete_tids)
    engine.database.insert_tuples(list(batch.insert_rows))
    return engine


def update_batch(row_count: int, size: int, noise: float = DEFAULT_NOISE, seed: int = 7):
    """A disjoint insert/delete batch of ``size`` against ``row_count`` existing rows."""
    generator = DatasetGenerator(seed=seed)
    updates = UpdateGenerator(generator, seed=seed + 1)
    return updates.make_batch(
        existing_tids=range(1, row_count + 1),
        insert_count=size,
        delete_count=min(size, row_count),
        noise_percent=noise,
    )


def workload_with_tableau(tableau_size: int):
    """The 10-eCFD workload with the sweep constraint at the given tableau size."""
    return paper_workload_with_tableau_size(tableau_size)


@pytest.fixture(scope="session")
def base_workload():
    """The default 10-eCFD workload, shared across the benchmark session."""
    return paper_workload()
