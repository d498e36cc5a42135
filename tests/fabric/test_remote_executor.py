"""End-to-end tests of ``executor="remote"``: the network lane executor.

A real worker fleet (forked ``python -m repro.parallel.worker`` processes)
backs every test; the module-scoped fleet is shared by the equivalence
tests — engines namespace their lanes and state keys, so co-tenancy is the
production situation, not a shortcut — while the kill tests fork their own
disposable fleets.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.engine import DataQualityEngine
from repro.exceptions import EngineError, FabricError
from repro.parallel.remote import (
    LocalWorkerHandle,
    RemoteWorkerPool,
    parse_address,
    resolve_worker_addresses,
    spawn_local_workers,
)
from repro.service import QualityService

from tests.parallel.test_summary_merge import (
    SCHEMA,
    _random_rows,
    _random_sigma,
    _reference,
)


def _remote_engine(sigma, addresses, workers=3, delegate="incremental", **kwargs):
    return DataQualityEngine(
        SCHEMA,
        sigma,
        backend=delegate,
        workers=workers,
        executor="remote",
        remote_workers=[f"{host}:{port}" for host, port in addresses],
        **kwargs,
    )


class TestAddressResolution:
    def test_parse_address_normalises_strings_and_pairs(self):
        assert parse_address("127.0.0.1:7001") == ("127.0.0.1", 7001)
        assert parse_address(("10.0.0.5", "7002")) == ("10.0.0.5", 7002)
        with pytest.raises(FabricError, match="host:port"):
            parse_address("no-port-here")
        with pytest.raises(FabricError, match="non-numeric"):
            parse_address("host:notaport")

    def test_resolution_precedence_explicit_env_spawn(self):
        env = {"REPRO_REMOTE_WORKERS": "10.0.0.1:7001, 10.0.0.2:7002"}
        # Explicit addresses win over everything.
        addresses, spawn = resolve_worker_addresses(["w1:1", "w2:2"], 4, environ=env)
        assert addresses == [("w1", 1), ("w2", 2)] and spawn == 0
        # None falls back to the environment fleet...
        addresses, spawn = resolve_worker_addresses(None, 4, environ=env)
        assert addresses == [("10.0.0.1", 7001), ("10.0.0.2", 7002)] and spawn == 0
        # ...and to spawning locals when that is empty too.
        addresses, spawn = resolve_worker_addresses(None, 4, environ={})
        assert addresses == [] and spawn == 4
        # An integer is a spawn count.
        addresses, spawn = resolve_worker_addresses(3, 4, environ={})
        assert addresses == [] and spawn == 3
        with pytest.raises(FabricError):
            resolve_worker_addresses(0, 4, environ={})
        with pytest.raises(FabricError):
            resolve_worker_addresses([], 4, environ={})

    def test_remote_workers_requires_remote_executor(self):
        with pytest.raises(EngineError, match="remote_workers"):
            DataQualityEngine(
                SCHEMA,
                _random_sigma(random.Random(0)),
                workers=2,
                executor="thread",
                remote_workers=["localhost:1"],
            )


class TestRemoteDetection:
    def test_one_shot_detection_matches_serial(self, worker_addresses):
        rng = random.Random(11)
        sigma = _random_sigma(rng)
        rows = _random_rows(rng, 200)
        reference = _reference(sigma, rows, backend="batch")
        engine = _remote_engine(sigma, worker_addresses, delegate="batch")
        engine.load(rows)
        assert engine.detect().violations == reference.violations
        assert engine.partition_stats()["replication_factor"] == 1.0
        engine.close()

    @pytest.mark.parametrize(
        "delegate, after_kill", [("batch", "detect"), ("incremental", "update")]
    )
    def test_detection_survives_a_dead_worker_via_repin(self, delegate, after_kill):
        # A lane lost while its shard bootstraps costs one re-pin and a
        # rebuild of the lost shards, nothing more — whether the bootstrap
        # comes from detect() or from ensure_ready() ahead of an update.
        fleet = spawn_local_workers(2)
        try:
            rng = random.Random(12)
            sigma = _random_sigma(rng)
            rows = _random_rows(rng, 150)
            reference = _reference(sigma, rows, backend=delegate)
            engine = _remote_engine(
                sigma, [h.address for h in fleet], delegate=delegate, rpc_timeout=10.0
            )
            engine.load(rows)
            assert engine.detect().violations == reference.violations
            fleet[0].kill()
            engine.backend._on_mutation()  # drop the states: force a bootstrap
            if after_kill == "detect":
                assert engine.detect().violations == reference.violations
            else:
                # Independent oracle: one whole-relation INCDETECT state.
                single = DataQualityEngine(SCHEMA, sigma, backend="incremental")
                single.load(rows)
                engine.backend.ensure_ready()
                deletes = rng.sample(range(1, 151), k=20)
                inserts = _random_rows(rng, 5)
                expected = single.apply_update(delete_tids=deletes, insert_rows=inserts)
                single.close()
                result = engine.apply_update(delete_tids=deletes, insert_rows=inserts)
                assert result.incremental
                assert result.violations == expected.violations
            stats = engine.backend.transport_stats()
            assert stats["lanes_lost"] >= 1 and stats["repins"] >= 1
            engine.close()
        finally:
            for handle in fleet:
                handle.stop()


class TestRemoteIncrementalUpdates:
    def test_update_stream_matches_serial_and_never_redetects(
        self, worker_addresses
    ):
        rng = random.Random(21)
        sigma = _random_sigma(rng)
        rows = _random_rows(rng, 200)

        serial = DataQualityEngine(
            SCHEMA, sigma, backend="incremental", workers=3, executor="serial"
        )
        serial.load(rows)
        serial.backend.ensure_ready()
        engine = _remote_engine(sigma, worker_addresses)
        engine.load(rows)
        engine.backend.ensure_ready()
        baseline = engine.backend.full_detect_count

        live = list(range(1, len(rows) + 1))
        next_tid = len(rows) + 1
        for _ in range(3):
            deletes = rng.sample(live, k=min(len(live), rng.randint(20, 40)))
            inserts = _random_rows(rng, rng.randint(0, 8))
            expected = serial.apply_update(delete_tids=deletes, insert_rows=inserts)
            result = engine.apply_update(delete_tids=deletes, insert_rows=inserts)
            assert result.incremental
            assert result.violations == expected.violations
            live = [tid for tid in live if tid not in set(deletes)]
            live.extend(range(next_tid, next_tid + len(inserts)))
            next_tid += len(inserts)

        trace = engine.backend.last_update_trace
        assert trace["mode"] == "incremental"
        assert trace["transport"]["rpc_calls"] > 0
        assert trace["transport"]["lanes_lost"] == 0
        assert engine.backend.full_detect_count == baseline
        assert engine.detect().violations == serial.detect().violations
        serial.close()
        engine.close()

    def test_shard_stats_name_each_lane_worker(self, worker_addresses):
        rng = random.Random(22)
        sigma = _random_sigma(rng)
        engine = _remote_engine(sigma, worker_addresses)
        engine.load(_random_rows(rng, 60))
        stats = engine.shard_stats()
        assert [entry["shard"] for entry in stats] == [0, 1, 2]
        fleet = {f"{host}:{port}" for host, port in worker_addresses}
        assert {entry["address"] for entry in stats} <= fleet
        # Lanes round-robin over the fleet, so both workers host lanes.
        assert len({entry["address"] for entry in stats}) == len(fleet)
        engine.close()

    def test_breakdown_matches_serial(self, worker_addresses):
        rng = random.Random(23)
        sigma = _random_sigma(rng)
        rows = _random_rows(rng, 150)
        serial = DataQualityEngine(
            SCHEMA, sigma, backend="incremental", workers=3, executor="serial"
        )
        serial.load(rows)
        serial.backend.ensure_ready()
        engine = _remote_engine(sigma, worker_addresses)
        engine.load(rows)
        engine.backend.ensure_ready()
        assert engine.backend.breakdown() == serial.backend.breakdown()
        serial.close()
        engine.close()


class TestWorkerLossRecovery:
    def test_killed_worker_mid_stream_rebootstraps_only_lost_shards(self):
        fleet = spawn_local_workers(2)
        try:
            rng = random.Random(31)
            sigma = _random_sigma(rng)
            rows = _random_rows(rng, 180)
            serial = DataQualityEngine(
                SCHEMA, sigma, backend="incremental", workers=3, executor="serial"
            )
            serial.load(rows)
            serial.backend.ensure_ready()
            engine = _remote_engine(
                sigma, [h.address for h in fleet], rpc_timeout=10.0
            )
            engine.load(rows)
            engine.backend.ensure_ready()
            baseline = engine.backend.full_detect_count

            # One healthy round first, then the crash.
            deletes = rng.sample(range(1, 181), k=30)
            expected = serial.apply_update(delete_tids=deletes)
            assert engine.apply_update(delete_tids=deletes).violations == expected.violations

            fleet[0].kill()  # SIGKILL: lanes 0 and 2 die with it
            survivors = {f"{fleet[1].address[0]}:{fleet[1].address[1]}"}
            live = sorted(set(range(1, 181)) - set(deletes))
            deletes = rng.sample(live, k=40)
            inserts = _random_rows(rng, 10)
            expected = serial.apply_update(delete_tids=deletes, insert_rows=inserts)
            result = engine.apply_update(delete_tids=deletes, insert_rows=inserts)
            assert result.violations == expected.violations

            trace = engine.backend.last_update_trace
            assert trace["lanes_lost"] == [0, 2]
            assert trace["recovered_shards"] == 2
            assert trace["recovery_attempts"] >= 1
            # Recovery re-bootstraps the lost shards only — never a hidden
            # full re-detection.
            assert engine.backend.full_detect_count == baseline
            assert {e["address"] for e in engine.shard_stats()} == survivors

            # The recovered fabric keeps maintaining state exactly.
            live = sorted(set(live) - set(deletes)) + list(
                range(181, 181 + len(inserts))
            )
            deletes = rng.sample(live, k=25)
            expected = serial.apply_update(delete_tids=deletes)
            assert engine.apply_update(delete_tids=deletes).violations == expected.violations
            assert engine.backend.full_detect_count == baseline
            serial.close()
            engine.close()
        finally:
            for handle in fleet:
                handle.stop()

    def test_losing_the_whole_fleet_is_a_fabric_error(self):
        fleet = spawn_local_workers(1)
        try:
            rng = random.Random(32)
            sigma = _random_sigma(rng)
            engine = _remote_engine(
                sigma, [fleet[0].address], workers=2, rpc_timeout=5.0
            )
            engine.load(_random_rows(rng, 80))
            engine.backend.ensure_ready()
            fleet[0].kill()
            with pytest.raises(FabricError):
                engine.apply_update(delete_tids=[1, 2, 3])
            engine.close()
        finally:
            for handle in fleet:
                handle.stop()


class TestOwnedFleet:
    def test_auto_spawned_workers_are_reaped_on_close(self):
        rng = random.Random(41)
        sigma = _random_sigma(rng)
        rows = _random_rows(rng, 80)
        reference = _reference(sigma, rows, backend="incremental")
        engine = DataQualityEngine(
            SCHEMA,
            sigma,
            backend="incremental",
            workers=2,
            executor="remote",
            remote_workers=1,  # spawn one local worker, owned by the backend
        )
        engine.load(rows)
        assert engine.detect().violations == reference.violations
        owned = list(engine.backend._lanes.owned_workers)
        assert len(owned) == 1 and owned[0].is_alive()
        engine.close()
        assert not owned[0].is_alive()


class TestRemoteQualityService:
    def test_service_streams_through_the_remote_fabric(self, worker_addresses):
        rng = random.Random(51)
        sigma = _random_sigma(rng)
        rows = _random_rows(rng, 120)
        serial = DataQualityEngine(SCHEMA, sigma, backend="incremental")
        serial.load(rows)
        serial.detect()

        async def scenario():
            service = QualityService(
                SCHEMA,
                sigma,
                workers=3,
                executor="remote",
                remote_workers=[f"{h}:{p}" for h, p in worker_addresses],
            )
            await service.start(rows)
            try:
                for _ in range(3):
                    deletes = rng.sample(sorted(await_tids), k=15)
                    inserts = _random_rows(rng, 5)
                    serial.apply_update(delete_tids=deletes, insert_rows=inserts)
                    receipt = await service.submit(deletes, inserts)
                    await receipt.wait_applied()
                    for tid in deletes:
                        await_tids.discard(tid)
                    await_tids.update(receipt.tids)
                counts = await service.detect()
                serial.detect()
                expected = serial.violation_counts()
                assert counts["sv"] == expected["sv"]
                assert counts["mv"] == expected["mv"]
                stats = await service.stats()
                assert stats["last_update_trace"]["transport"]["rpc_calls"] > 0
            finally:
                await service.stop()

        await_tids = set(range(1, 121))
        asyncio.run(scenario())
        serial.close()


class TestPoolContract:
    def test_pool_refuses_submission_after_close(self, worker_addresses):
        pool = RemoteWorkerPool(worker_addresses)
        assert pool.call(0, "ping", None, retryable=True)["pong"]
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(FabricError, match="closed"):
            pool.submit(0, "ping", None)

    def test_lane_pinning_is_stable_and_round_robin(self, worker_addresses):
        pool = RemoteWorkerPool(worker_addresses)
        try:
            first = [pool.lane_address(lane) for lane in range(4)]
            assert first[0] == first[2] and first[1] == first[3]
            assert first[0] != first[1]
            assert pool.lanes_by_address(range(4)) == {
                first[0]: [0, 2],
                first[1]: [1, 3],
            }
        finally:
            pool.close()

    def test_ready_failure_raises_not_hangs(self):
        with pytest.raises(FabricError, match="did not become ready"):
            # An unbindable address: the worker exits before printing READY.
            LocalWorkerHandle.spawn(host="256.0.0.1", ready_timeout=30.0)
