"""Lifecycle tests of ``ShardedBackend.close()``: idempotence, no leaks.

A backend owns real resources — executor pools, lane threads, and on the
remote path an event loop, TCP connections and possibly forked worker
processes.  ``close()`` must release all of them exactly once, stay safe to
call again, and hold after a *failed* operation just as after a clean run:
no leaked file descriptors, no immortal pools, no orphan workers.
"""

from __future__ import annotations

import gc
import os
import random
import weakref

import pytest

from repro.engine import DataQualityEngine
from repro.exceptions import FabricError
from repro.parallel.remote import spawn_local_workers

from tests.parallel.test_summary_merge import SCHEMA, _random_rows, _random_sigma


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _engine(executor, **kwargs):
    rng = random.Random(5)
    engine = DataQualityEngine(
        SCHEMA,
        _random_sigma(rng),
        backend="incremental",
        workers=3,
        executor=executor,
        **kwargs,
    )
    engine.load(_random_rows(rng, 80))
    return engine


class TestIdempotentClose:
    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_double_close_is_a_no_op(self, executor):
        engine = _engine(executor)
        engine.detect()
        engine.backend.ensure_ready()
        engine.close()
        engine.close()
        engine.backend.close()  # and once more through the backend directly

    def test_close_before_any_work_is_safe(self):
        engine = _engine("thread")
        engine.close()
        engine.close()

    def test_remote_close_is_idempotent_and_reaps_owned_workers(self):
        engine = _engine("remote", remote_workers=1)
        engine.backend.ensure_ready()
        owned = list(engine.backend._lanes.owned_workers)
        assert len(owned) == 1 and owned[0].is_alive()
        engine.close()
        engine.close()
        assert not owned[0].is_alive()
        assert engine.backend._lanes is None


class TestNoLeakedResources:
    def test_thread_lanes_release_their_pools(self):
        engine = _engine("thread")
        engine.backend.ensure_ready()
        engine.apply_update(delete_tids=[1, 2, 3])
        lanes = engine.backend._lanes
        assert lanes is not None
        refs = [weakref.ref(lanes)]
        refs += [weakref.ref(executor) for executor in lanes._executors.values()]
        assert len(refs) == 4  # the pool and its three thread lanes
        engine.close()
        assert engine.backend._lanes is None
        del lanes
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_remote_close_returns_every_file_descriptor(self):
        fleet = spawn_local_workers(1)
        try:
            before = _open_fds()
            engine = _engine("remote", remote_workers=[fleet[0].address])
            engine.backend.ensure_ready()
            engine.apply_update(delete_tids=[1, 2, 3])
            assert _open_fds() > before  # lane sockets + loop plumbing live
            pool_ref = weakref.ref(engine.backend._lanes)
            engine.close()
            gc.collect()
            assert pool_ref() is None
            # Sockets, the pool's waker pipe, everything: returned.
            assert _open_fds() <= before
        finally:
            for handle in fleet:
                handle.stop()

    def test_spawned_fleet_leaves_no_processes_or_fds_behind(self):
        before = _open_fds()
        engine = _engine("remote", remote_workers=2)
        engine.backend.ensure_ready()
        owned = list(engine.backend._lanes.owned_workers)
        assert [handle.is_alive() for handle in owned] == [True, True]
        engine.close()
        assert [handle.is_alive() for handle in owned] == [False, False]
        gc.collect()
        assert _open_fds() <= before


class TestCloseAfterFailure:
    def test_failed_update_then_close_releases_everything(self):
        """Kill the only worker, fail an update, close: nothing leaks."""
        fleet = spawn_local_workers(1)
        try:
            before = _open_fds()
            engine = _engine(
                "remote", remote_workers=[fleet[0].address], rpc_timeout=5.0
            )
            engine.backend.ensure_ready()
            fleet[0].kill()
            with pytest.raises(FabricError):
                engine.apply_update(delete_tids=[1, 2, 3])
            # The failure invalidated the shard states; close still runs its
            # full teardown without raising, twice.
            engine.close()
            engine.close()
            gc.collect()
            assert _open_fds() <= before
        finally:
            for handle in fleet:
                handle.stop()

    def test_states_invalidated_after_failure_not_silently_stale(self):
        fleet = spawn_local_workers(1)
        try:
            engine = _engine(
                "remote", remote_workers=[fleet[0].address], rpc_timeout=5.0
            )
            engine.backend.ensure_ready()
            assert engine.backend._states_live
            fleet[0].kill()
            with pytest.raises(FabricError):
                engine.apply_update(delete_tids=[4, 5])
            assert not engine.backend._states_live
            engine.close()
        finally:
            for handle in fleet:
                handle.stop()
