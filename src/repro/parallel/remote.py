"""Coordinator side of the remote shard fabric: worker pools and lanes.

:class:`RemoteWorkerPool` gives :class:`~repro.parallel.ShardedBackend`'s
``executor="remote"`` the same contract its in-host lanes have —
``submit(lane, op, payload, retryable)`` returns a result thunk — but over
the network:

* every **lane** (shard index) owns one :class:`~repro.parallel.transport.RpcConnection`
  to the worker it is *pinned* to (``addresses[lane % len(addresses)]``
  initially).  The worker pins the lane id to a single executor thread, so
  a lane's remote calls run strictly in submission order and its INCDETECT
  shard state stays on one thread for the worker's lifetime — pinning, not
  load balancing, is what lets shard state survive across calls;
* the pool runs a private asyncio event loop on a daemon thread; a per-lane
  ``asyncio.Lock`` serialises each lane's calls (FIFO), so the pipelining
  discipline of ``incremental_update_many`` — submit several waves, collect
  once — holds across the wire exactly as it does in-process;
* failures are classified at the collect point: a transport-level failure
  (worker death, severed connection, timeout) surfaces as
  :class:`~repro.exceptions.LaneFailedError` naming the lane, which the
  coordinator catches to re-pin the lane and re-bootstrap its shard; a
  :class:`~repro.exceptions.RemoteCallError` means the worker is healthy
  and the *operation* raised, so it propagates;
* operations *declared idempotent* in the :func:`~repro.parallel.transport.rpc_op`
  registry (bootstrap, summaries, statistics, drops) may be submitted
  ``retryable=True``: transport failures then reconnect to the lane's
  pinned address and retry under the pool's
  :class:`~repro.parallel.transport.RetryPolicy` before the lane is
  declared lost.  ``submit`` *refuses* ``retryable=True`` for any op not
  registered idempotent — ``update`` is declared non-idempotent (a reply
  lost after execution would double-apply the delta), so its failure path
  is lane loss and re-bootstrap, which is exact because coordinator
  storage receives every delta before the lanes do.

:func:`spawn_local_workers` forks ``python -m repro.parallel.worker``
subprocesses on localhost (ephemeral ports, parsed off the worker's
``READY`` line) — the harness used by the engine's auto-spawn path, the
fabric tests and the doctested example in ``ARCHITECTURE.md``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import count as _counter
from typing import Any

from repro.exceptions import FabricError, LaneFailedError, RemoteCallError
from repro.parallel.transport import (
    FrameError,
    RetryPolicy,
    RpcConnection,
    TransportClosed,
    is_idempotent,
)

__all__ = [
    "Address",
    "LocalWorkerHandle",
    "RemoteWorkerPool",
    "parse_address",
    "spawn_local_workers",
]

#: A worker endpoint, always normalised to ``(host, port)``.
Address = tuple[str, int]

#: Distinguishes coexisting pools' lane ids on a shared worker.
_POOL_IDS = _counter(1)

#: Failure classes that mean "the lane's transport is gone", as opposed to a
#: healthy worker whose operation raised.
_TRANSPORT_FAILURES = (
    TransportClosed,
    FrameError,
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    TimeoutError,
)


def parse_address(address: "str | Address") -> Address:
    """Normalise ``"host:port"`` / ``(host, port)`` to an ``(host, port)`` pair."""
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise FabricError(
                f"worker address {address!r} is not of the form 'host:port'"
            )
        try:
            return host, int(port)
        except ValueError as exc:
            raise FabricError(f"worker address {address!r} has a non-numeric port") from exc
    host, port = address
    return str(host), int(port)


class LocalWorkerHandle:
    """One spawned localhost worker subprocess, addressable and killable.

    ``kill()`` is deliberately SIGKILL — the chaos tests need a worker that
    dies *without* any goodbye, exactly like a crashed host; ``stop()`` is
    the polite teardown for fixtures and ``close()`` paths.
    """

    def __init__(self, process: subprocess.Popen, address: Address):
        self.process = process
        self.address = address

    @classmethod
    def spawn(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_timeout: float = 30.0,
        stderr: int | None = subprocess.DEVNULL,
    ) -> "LocalWorkerHandle":
        """Fork one worker and wait for its ``READY host port`` line."""
        # The worker must import repro regardless of how the parent found
        # it, so the package root rides along on PYTHONPATH.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker", "--host", host, "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            text=True,
        )
        # readline() has no timeout, so a watchdog thread does the waiting:
        # either the READY line arrives, or the worker died and readline
        # returned "" at EOF, or nothing happens within the deadline.
        box: dict[str, str] = {}

        def _read_ready() -> None:
            assert process.stdout is not None
            box["line"] = process.stdout.readline()

        reader = threading.Thread(target=_read_ready, daemon=True)
        reader.start()
        reader.join(ready_timeout)
        line = box.get("line", "")
        parts = line.split()
        if reader.is_alive() or len(parts) != 3 or parts[0] != "READY":
            process.kill()
            process.wait()
            raise FabricError(
                f"worker subprocess did not become ready (got {line!r}, "
                f"exit code {process.poll()})"
            )
        return cls(process, (parts[1], int(parts[2])))

    def is_alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the worker — no cleanup, no goodbye (chaos tests)."""
        self.process.kill()
        self.process.wait()

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the worker, escalating to SIGKILL if it lingers."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_local_workers(
    count: int,
    host: str = "127.0.0.1",
    stderr: int | None = subprocess.DEVNULL,
) -> list[LocalWorkerHandle]:
    """Spawn ``count`` localhost workers on ephemeral ports, all ready."""
    handles: list[LocalWorkerHandle] = []
    try:
        for _ in range(count):
            handles.append(LocalWorkerHandle.spawn(host, stderr=stderr))
    except Exception:  # noqa: BLE001 - stop the partial fleet, then re-raise unchanged
        for handle in handles:
            handle.stop()
        raise
    return handles


class RemoteWorkerPool:
    """Pinned remote shard lanes over a fixed set of worker addresses.

    Parameters
    ----------
    addresses:
        The worker endpoints (``"host:port"`` strings or ``(host, port)``
        pairs).  Lane *i* is initially pinned to
        ``addresses[i % len(addresses)]`` and stays there until
        :meth:`repin_lanes` moves it after a failure.
    rpc_timeout:
        Per-call reply deadline; an overdue call poisons its connection
        (the stream can no longer be trusted) and loses the lane.
    retry:
        Backoff schedule for connection establishment and for calls
        submitted ``retryable=True``.
    lane_prefix:
        Namespace for lane ids on the workers; defaults to a per-process
        unique value so pools sharing a worker never share lane threads.
    """

    def __init__(
        self,
        addresses: Iterable["str | Address"],
        rpc_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        lane_prefix: str | None = None,
    ):
        self.addresses: list[Address] = [parse_address(a) for a in addresses]
        if not self.addresses:
            raise FabricError("a remote worker pool needs at least one worker address")
        self.rpc_timeout = rpc_timeout
        self.retry = retry or RetryPolicy()
        self._lane_prefix = lane_prefix or f"pool-{os.getpid()}-{next(_POOL_IDS)}"
        self._lane_addresses: dict[int, Address] = {}
        #: Localhost workers this pool spawned (see :meth:`for_fleet`);
        #: :meth:`close` stops them.  Empty for an external fleet.
        self.owned_workers: list[LocalWorkerHandle] = []
        self._connections: dict[int, RpcConnection] = {}
        self._lane_locks: dict[int, asyncio.Lock] = {}
        self._closed = False
        #: Transport counters folded into traces/stats by the coordinator.
        self._stats = {
            "rpc_calls": 0,
            "rpc_retries": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "lanes_lost": 0,
            "repins": 0,
        }
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=self._lane_prefix, daemon=True
        )
        self._thread.start()

    @classmethod
    def for_fleet(
        cls,
        remote_workers: "int | str | Iterable[str | Address] | None",
        default_spawn: int,
        rpc_timeout: float = 30.0,
    ) -> "RemoteWorkerPool":
        """A pool over the fleet ``remote_workers`` names.

        Resolved by :func:`resolve_worker_addresses`.  Workers the
        resolution says to spawn are started on localhost and *owned* by
        the pool: :meth:`close` shuts them down, while an external fleet
        is left running.
        """
        addresses, spawn = resolve_worker_addresses(remote_workers, default_spawn)
        owned = spawn_local_workers(spawn) if spawn else []
        pool = cls(addresses or [handle.address for handle in owned], rpc_timeout=rpc_timeout)
        pool.owned_workers = owned
        return pool

    # ------------------------------------------------------------------
    # Submission (the lane contract shared with the in-host lanes)
    # ------------------------------------------------------------------
    def lane_id(self, lane: int) -> str:
        """The stable on-worker identity of lane ``lane``."""
        return f"{self._lane_prefix}:{lane}"

    def lane_address(self, lane: int) -> Address:
        """The worker endpoint lane ``lane`` is currently pinned to."""
        return self._lane_addresses.get(
            lane, self.addresses[lane % len(self.addresses)]
        )

    def submit(
        self, lane: int, op: str, payload: Any, retryable: bool = False
    ) -> Callable[[], Any]:
        """Dispatch one call to a lane; returns a blocking result thunk.

        Calls submitted to the same lane execute in submission order (the
        pipelining contract).  The thunk re-raises worker-side operation
        failures as :class:`~repro.exceptions.RemoteCallError` and collapses
        every transport-level failure into
        :class:`~repro.exceptions.LaneFailedError` naming the lane.

        ``retryable=True`` is accepted only for ops *declared idempotent*
        in the :func:`~repro.parallel.transport.rpc_op` registry — blind
        retries of anything else could double-apply an effect, so the pool
        fails fast instead of trusting the caller's claim.
        """
        if self._closed:
            raise FabricError("the remote worker pool is closed")
        if retryable and not is_idempotent(op):
            raise FabricError(
                f"op {op!r} is not registered idempotent; refusing retryable "
                "submission (declare it with @rpc_op(idempotent=True) if a "
                "blind retry is genuinely safe)"
            )
        future = asyncio.run_coroutine_threadsafe(
            self._invoke(lane, op, payload, retryable), self._loop
        )

        def collect() -> Any:
            try:
                return future.result()
            except RemoteCallError:
                raise
            except _TRANSPORT_FAILURES as exc:
                self._stats["lanes_lost"] += 1
                raise LaneFailedError(
                    f"remote lane {lane} failed during {op!r}: {exc}",
                    lane=lane,
                    address=self.lane_address(lane),
                ) from exc

        return collect

    def call(self, lane: int, op: str, payload: Any, retryable: bool = False) -> Any:
        """Blocking single call — :meth:`submit` immediately collected."""
        return self.submit(lane, op, payload, retryable)()

    # ------------------------------------------------------------------
    # Event-loop side (everything below ``_invoke`` runs on the loop thread)
    # ------------------------------------------------------------------
    async def _invoke(self, lane: int, op: str, payload: Any, retryable: bool) -> Any:
        lock = self._lane_locks.setdefault(lane, asyncio.Lock())
        async with lock:  # per-lane FIFO: wave N completes before wave N+1
            if not retryable:
                connection = await self._ensure_connection(lane)
                return await self._call_on(connection, lane, op, payload)

            attempts = 0

            async def attempt() -> Any:
                nonlocal attempts
                attempts += 1
                connection = await self._ensure_connection(lane)
                return await self._call_on(connection, lane, op, payload)

            try:
                return await self.retry.run(attempt)
            finally:
                self._stats["rpc_retries"] += max(0, attempts - 1)

    async def _call_on(
        self, connection: RpcConnection, lane: int, op: str, payload: Any
    ) -> Any:
        self._stats["rpc_calls"] += 1
        before_sent, before_received = connection.bytes_sent, connection.bytes_received
        try:
            return await connection.call(self.lane_id(lane), op, payload, self.rpc_timeout)
        finally:
            self._stats["bytes_sent"] += connection.bytes_sent - before_sent
            self._stats["bytes_received"] += connection.bytes_received - before_received

    async def _ensure_connection(self, lane: int) -> RpcConnection:
        connection = self._connections.get(lane)
        if connection is not None and connection.healthy:
            return connection
        if connection is not None:
            await connection.close()
        host, port = self.lane_address(lane)
        connection = await RpcConnection.open(host, port, retry=self.retry)
        self._lane_addresses[lane] = (host, port)
        self._connections[lane] = connection
        return connection

    async def _probe(self, address: Address) -> bool:
        """Whether a fresh connection to ``address`` answers a ping (no retry)."""
        host, port = address
        try:
            connection = await RpcConnection.open(
                host, port, retry=RetryPolicy(attempts=1), connect_timeout=2.0
            )
        except _TRANSPORT_FAILURES + (FabricError,):
            return False
        try:
            reply = await connection.call(
                f"{self._lane_prefix}:probe", "ping", None, 5.0
            )
            return bool(reply.get("pong"))
        except _TRANSPORT_FAILURES + (RemoteCallError,):
            return False
        finally:
            await connection.close()

    async def _probe_all(self) -> dict[Address, bool]:
        distinct = list(dict.fromkeys(self.addresses))
        results = await asyncio.gather(*(self._probe(a) for a in distinct))
        return dict(zip(distinct, results))

    async def _repin(self, lanes: Sequence[int]) -> dict[int, Address]:
        health = await self._probe_all()
        healthy = [address for address in self.addresses if health.get(address)]
        if not healthy:
            raise FabricError(
                f"no healthy worker remains among {self.addresses}; "
                "cannot re-pin lost lanes"
            )
        moved: dict[int, Address] = {}
        for lane in lanes:
            connection = self._connections.pop(lane, None)
            if connection is not None:
                await connection.close()
            self._lane_addresses[lane] = healthy[lane % len(healthy)]
            moved[lane] = self._lane_addresses[lane]
            self._stats["repins"] += 1
        return moved

    async def _close_all(self) -> None:
        for connection in self._connections.values():
            await connection.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # Health / recovery (blocking wrappers used by the coordinator)
    # ------------------------------------------------------------------
    def lost_lanes(self, lanes: Iterable[int]) -> set[int]:
        """The lanes pinned to a worker that no longer answers a ping."""
        health = asyncio.run_coroutine_threadsafe(self._probe_all(), self._loop).result()
        return {lane for lane in lanes if not health.get(self.lane_address(lane), False)}

    def repin_lanes(self, lanes: Sequence[int]) -> dict[int, Address]:
        """Move ``lanes`` onto healthy workers; raises when none remains.

        Deterministic placement (``healthy[lane % len(healthy)]``) so
        recovery is reproducible under the chaos tests.  Returns the new
        pinning of every moved lane.
        """
        return asyncio.run_coroutine_threadsafe(self._repin(lanes), self._loop).result()

    def lane_label(self, lane: int) -> str:
        """``"host:port"`` of the worker lane ``lane`` is pinned to."""
        host, port = self.lane_address(lane)
        return f"{host}:{port}"

    def lanes_by_address(self, lanes: Iterable[int]) -> dict[Address, list[int]]:
        """Group lanes by the worker endpoint they are currently pinned to.

        The reduce stage's fan-in map: one ``reduce_summaries`` call per
        worker merges every held summary of that worker's lanes.
        """
        grouped: dict[Address, list[int]] = {}
        for lane in lanes:
            grouped.setdefault(self.lane_address(lane), []).append(lane)
        return {address: sorted(group) for address, group in grouped.items()}

    def transport_stats(self) -> dict[str, int]:
        """A snapshot of the pool's transport counters."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown_workers(self) -> None:
        """Best-effort ``shutdown`` request to every distinct worker address.

        Used by owners of spawned worker fleets; external workers are left
        running (closing a pool must not kill infrastructure it was given).
        """
        for address in dict.fromkeys(self.addresses):
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_one(address), self._loop
                ).result(timeout=5.0)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    async def _shutdown_one(self, address: Address) -> None:
        host, port = address
        connection = await RpcConnection.open(
            host, port, retry=RetryPolicy(attempts=1), connect_timeout=2.0
        )
        try:
            await connection.call(f"{self._lane_prefix}:probe", "shutdown", None, 5.0)
        finally:
            await connection.close()

    def close(self) -> None:
        """Close every connection and stop the pool's event loop.

        Workers the pool spawned (:attr:`owned_workers`) are asked to shut
        down first and then stopped; external workers keep running.
        """
        if self._closed:
            return
        if self.owned_workers:
            self.shutdown_workers()
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(self._close_all(), self._loop).result(
                timeout=10.0
            )
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        for handle in self.owned_workers:
            handle.stop()
        self.owned_workers = []

    def __enter__(self) -> "RemoteWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def resolve_worker_addresses(
    remote_workers: "int | str | Iterable[str | Address] | None",
    default_spawn: int,
    environ: Mapping[str, str] | None = None,
) -> tuple[list[Address], int]:
    """Resolve a backend's ``remote_workers`` setting.

    Returns ``(addresses, spawn_count)`` — exactly one of the two is
    non-empty/non-zero.  An explicit address list (or the
    ``REPRO_REMOTE_WORKERS`` environment variable, comma-separated) means
    "use these external workers"; an integer means "spawn that many local
    workers"; ``None`` falls back to the environment, then to spawning
    ``default_spawn`` locals the caller owns.
    """
    env = environ if environ is not None else os.environ
    if remote_workers is None:
        configured = env.get("REPRO_REMOTE_WORKERS", "").strip()
        if configured:
            return [
                parse_address(part.strip())
                for part in configured.split(",")
                if part.strip()
            ], 0
        return [], max(1, default_spawn)
    if isinstance(remote_workers, int):
        if remote_workers < 1:
            raise FabricError(f"remote_workers must be >= 1, got {remote_workers}")
        return [], remote_workers
    if isinstance(remote_workers, str):
        return [parse_address(remote_workers)], 0
    addresses = [parse_address(a) for a in remote_workers]
    if not addresses:
        raise FabricError("remote_workers is an empty address list")
    return addresses, 0
