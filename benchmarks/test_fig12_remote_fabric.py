"""Fig. 12 (beyond the paper): the remote shard fabric's update path.

Fig. 9 measures sharded INCDETECT with in-host lanes; this benchmark moves
the same workload onto ``executor="remote"`` — forked worker processes
behind the length-prefixed RPC transport — and times one 2%-of-|D| mixed
batch through the network lanes.  The interesting number is the *overhead*
of the wire versus Fig. 9's in-host lanes at the same worker count: routing
and storage stay coordinator-side either way, so the difference is
serialisation plus round-trips, which ``extra_info`` breaks down with the
pool's transport counters (rpc calls, bytes on the wire).

The worker fleet is forked once per parametrisation outside the timed
region (spawning is a deployment cost, not an update cost), exactly like
``ensure_ready`` keeping bootstrap out of Fig. 9's timings.  This
benchmark is deliberately NOT in the perf-regression gate's tracked set:
localhost RPC timings vary too much across runners for a 30% tolerance.
"""

import os

import pytest

from conftest import BENCH_SIZE, close_engine, dataset_rows, update_batch

from repro.core.schema import cust_ext_schema
from repro.engine import DataQualityEngine
from repro.parallel.remote import spawn_local_workers

WORKER_COUNTS = [2, 4]
UPDATE_FRACTION = 0.02


def _remote_engine(rows, workload, workers, addresses):
    engine = DataQualityEngine(
        cust_ext_schema(),
        workload,
        backend="incremental",
        workers=workers,
        executor="remote",
        remote_workers=[f"{host}:{port}" for host, port in addresses],
    )
    engine.load(rows)
    engine.backend.ensure_ready()
    return engine


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig12_remote_fabric_update(benchmark, workers, base_workload):
    rows = dataset_rows(BENCH_SIZE)
    batch = update_batch(len(rows), max(1, int(BENCH_SIZE * UPDATE_FRACTION)))
    fleet = spawn_local_workers(min(workers, 2))
    addresses = [handle.address for handle in fleet]
    trace = {}

    def setup():
        return (_remote_engine(rows, base_workload, workers, addresses),), {}

    def run(engine):
        result = engine.apply_update(batch)
        trace.update(engine.backend.last_update_trace or {})
        return result

    try:
        result = benchmark.pedantic(
            run, setup=setup, teardown=close_engine, rounds=2, iterations=1
        )
    finally:
        for handle in fleet:
            handle.stop()
    assert result.incremental, "the update must be maintained, not recomputed"
    transport = trace.get("transport", {})
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["fleet"] = len(addresses)
    benchmark.extra_info["tuples"] = BENCH_SIZE
    benchmark.extra_info["update_size"] = batch.insert_count
    benchmark.extra_info["dirty"] = result.dirty_count
    benchmark.extra_info["cores"] = os.cpu_count()
    benchmark.extra_info["rpc_calls"] = transport.get("rpc_calls", 0)
    benchmark.extra_info["wire_bytes"] = transport.get("bytes_sent", 0) + transport.get(
        "bytes_received", 0
    )
    benchmark.extra_info["lanes_lost"] = transport.get("lanes_lost", 0)


def test_fig12_remote_fabric_exactness(base_workload):
    """The remote fabric's maintenance equals the single-threaded pass."""
    rows = dataset_rows(min(BENCH_SIZE, 2000))
    batch = update_batch(len(rows), max(1, int(len(rows) * UPDATE_FRACTION)))

    single = DataQualityEngine(
        cust_ext_schema(), base_workload, backend="incremental", workers=1
    )
    single.load(rows)
    single.backend.ensure_ready()
    expected = single.apply_update(batch)
    single.close()

    fleet = spawn_local_workers(2)
    try:
        remote = _remote_engine(
            rows, base_workload, 4, [handle.address for handle in fleet]
        )
        baseline = remote.backend.full_detect_count
        result = remote.apply_update(batch)
        assert result.violations == expected.violations
        assert remote.backend.full_detect_count == baseline
        assert remote.backend.last_update_trace["transport"]["lanes_lost"] == 0
        remote.close()
    finally:
        for handle in fleet:
            handle.stop()
