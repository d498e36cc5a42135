"""The always-on quality service: a streaming front end over the engine.

:class:`QualityService` turns the one-shot :class:`~repro.engine.DataQualityEngine`
lifecycle into a long-running subsystem: many concurrent clients submit
update streams, the violation set is *maintained* continuously through the
sharded INCDETECT lanes, and ``detect`` / ``breakdown`` / ``repair`` /
``stats`` queries answer from the live merged state without re-detection.

Data flow (one hop per stage)::

    client submit ──► admission control ──► delta coalescer ──► pump
                                                                 │
          live merged state ◄── routed lanes ◄── pipelined batches

* **admission** (:class:`~repro.service.admission.AdmissionController`)
  bounds the raw operations admitted but not yet shipped, parking fast
  producers in back-pressure;
* **coalescing** (:class:`~repro.service.coalescer.DeltaCoalescer`) nets
  out same-tid churn and assigns insert identifiers with the backend's own
  discipline, so clients learn their tids at submit time;
* the single **pump** task drains whatever accumulated while the previous
  ship was in flight and ships it as one ``incremental_update_many`` call —
  capped batches, pipelined through the shard lanes, one barrier per
  window.  All engine access (ships *and* queries) is serialised through a
  one-worker executor, so the asyncio loop never blocks on engine work and
  the engine never sees two calls at once.

Every submission returns the assigned tids plus an ``applied`` future that
resolves when the submission's window has been shipped — the hook the
fig11 benchmark hangs its per-update latency measurement on, and the
barrier queries use to read state no older than any earlier submission.

The correctness anchor (asserted by the equivalence tests): after any
coalesced, batched, concurrent-client stream, the maintained violation
state is bit-exact with a single-threaded ``apply_update`` replay of the
raw stream — coalescing preserves tid assignment and final relation, and
the flags are a function of both.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.schema import RelationSchema, Value
from repro.engine.facade import DataQualityEngine
from repro.exceptions import EngineError
from repro.service.admission import AdmissionController
from repro.service.coalescer import DeltaCoalescer

__all__ = ["QualityService", "SubmitReceipt"]


@dataclass
class SubmitReceipt:
    """What a producer gets back from :meth:`QualityService.submit`.

    ``tids`` are the identifiers assigned to the submitted inserts (known
    immediately — assignment happens at admission, not at shipment);
    ``applied`` resolves to the event-loop timestamp at which the
    submission's window finished shipping to the lanes.
    """

    tids: list[int] = field(default_factory=list)
    applied: "asyncio.Future[float]" = None  # type: ignore[assignment]

    async def wait_applied(self) -> float:
        """Block until the submission is live in the maintained state."""
        return await self.applied


class QualityService:
    """An asyncio always-on data-quality service over a sharded engine.

    Parameters
    ----------
    schema / sigma:
        As for :class:`~repro.engine.DataQualityEngine`.
    backend / workers / executor:
        Engine configuration; the resolved backend must support
        incremental updates (the service maintains state, never
        recomputes), so ``backend`` defaults to ``"incremental"`` — with
        ``workers > 1`` that is sharded INCDETECT over per-shard lanes.
        ``executor`` picks where those lanes run: ``"thread"`` (default),
        ``"process"``, ``"serial"`` or ``"remote"`` (standalone worker
        processes, the remote shard fabric) — the lanes bootstrapped at
        start serve every later update and detect, and the service front
        end is the same whichever executor runs them.
    remote_workers / rpc_timeout:
        Worker fleet and per-call deadline for ``executor="remote"``
        (see :class:`~repro.parallel.ShardedBackend`); ignored otherwise.
    max_batch:
        Cap on operations per routed batch shipped to the lanes (the
        coalescer's flush chunk size); ``None`` ships each window whole.
    queue_capacity:
        Admission bound on raw operations admitted but not yet shipped.

    Lifecycle: ``await start(rows)`` loads the base data, bootstraps the
    maintained state and starts the pump; ``await stop()`` drains pending
    work and shuts everything down.  Also usable as an async context
    manager (``async with QualityService(...) as service``), loading no
    base rows.
    """

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        backend: str = "incremental",
        workers: int = 1,
        executor: str = "thread",
        max_batch: int | None = 256,
        queue_capacity: int = 1024,
        remote_workers: object = None,
        rpc_timeout: float = 30.0,
    ):
        self._lane: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="quality-service-engine"
        )
        engine_kwargs: dict = {"backend": backend, "workers": workers, "executor": executor}
        if executor == "remote":
            engine_kwargs["remote_workers"] = remote_workers
            engine_kwargs["rpc_timeout"] = rpc_timeout
        # SQLite-backed delegates are bound to their creating thread, so
        # the engine is built on the lane every later call runs on.
        self.engine = self._lane.submit(
            lambda: DataQualityEngine(schema, sigma, **engine_kwargs)
        ).result()
        if not self.engine.backend.supports_incremental:
            self._lane.submit(self.engine.close).result()
            self._lane.shutdown()
            self._lane = None
            raise EngineError(
                f"the quality service maintains violations incrementally; "
                f"backend {backend!r} does not support incremental updates"
            )
        self.max_batch = max_batch
        self.admission = AdmissionController(queue_capacity)
        self.coalescer = DeltaCoalescer()
        self._pump_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._window: list[tuple[asyncio.Future, int]] = []
        self._started = False
        self._closing = False
        # --- service counters ---
        self.ships = 0
        self.shipped_batches = 0
        self.submissions = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _run_engine(self, fn, *args):
        """Run blocking engine work on the single engine lane."""
        assert self._lane is not None
        return await asyncio.get_running_loop().run_in_executor(self._lane, fn, *args)

    async def start(self, rows: Sequence[Mapping[str, Value]] = ()) -> None:
        """Load the base data, bootstrap the maintained state, start the pump."""
        if self._started:
            raise EngineError("the quality service is already running")
        if self._lane is None:
            raise EngineError("a stopped quality service cannot be restarted")
        self._wake = asyncio.Event()
        if rows:
            await self._run_engine(self.engine.load, list(rows))
        # Bootstrap outside any timed/streamed path: the per-shard INCDETECT
        # states come up now, so the first submission pays routing only.
        await self._run_engine(self.engine.backend.ensure_ready)
        self.coalescer = DeltaCoalescer(await self._run_engine(self.engine.tids))
        self._closing = False
        self._pump_task = asyncio.create_task(self._pump(), name="quality-service-pump")
        self._started = True

    async def stop(self) -> None:
        """Drain pending work, stop the pump and release the engine."""
        if not self._started:
            return
        self._closing = True
        assert self._wake is not None and self._pump_task is not None
        self._wake.set()
        await self._pump_task
        await self._run_engine(self.engine.close)
        assert self._lane is not None
        self._lane.shutdown()
        self._lane = None
        self._pump_task = None
        self._started = False

    async def __aenter__(self) -> "QualityService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _require_running(self) -> None:
        if not self._started or self._closing:
            raise EngineError("the quality service is not running")

    # ------------------------------------------------------------------
    # Streaming front end
    # ------------------------------------------------------------------
    async def submit(
        self,
        delete_tids: Sequence[int] = (),
        insert_rows: Sequence[Mapping[str, Value]] = (),
    ) -> SubmitReceipt:
        """Admit one raw update event into the current window.

        Waits in back-pressure when the queue-depth bound is hit; returns
        immediately afterwards with the assigned insert tids and the
        ``applied`` future of the event's window.
        """
        self._require_running()
        ops = len(delete_tids) + len(insert_rows)
        await self.admission.acquire(ops)
        # Assignment is synchronous with admission (no await between), so
        # concurrent producers see a consistent tid sequence: submission
        # order *is* replay order.
        assigned = self.coalescer.add(delete_tids, insert_rows)
        self.submissions += 1
        receipt = SubmitReceipt(
            tids=assigned, applied=asyncio.get_running_loop().create_future()
        )
        self._window.append((receipt.applied, ops))
        assert self._wake is not None
        self._wake.set()
        return receipt

    async def _pump(self) -> None:
        """The single consumer: flush windows and ship them to the lanes."""
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            window = self._window
            self._window = []
            batches = self.coalescer.flush(self.max_batch)
            error: BaseException | None = None
            if batches:
                try:
                    await self._run_engine(
                        self.engine.backend.incremental_update_many, batches
                    )
                    self.ships += 1
                    self.shipped_batches += len(batches)
                except BaseException as exc:  # noqa: BLE001 - forwarded to producers
                    error = exc
            now = loop.time()
            released = 0
            for future, ops in window:
                released += ops
                if future.done():
                    continue
                if error is not None and ops:
                    future.set_exception(error)
                else:
                    future.set_result(now)
            if released:
                await self.admission.release(released)
            if self._closing and not self._window and not self.coalescer.pending_ops:
                return

    async def _barrier(self) -> None:
        """Wait until everything submitted so far is live in the merged state."""
        if not self._window and not self.coalescer.pending_ops:
            return
        fence: asyncio.Future = asyncio.get_running_loop().create_future()
        self._window.append((fence, 0))
        assert self._wake is not None
        self._wake.set()
        await fence

    # ------------------------------------------------------------------
    # Queries (served from the live merged state)
    # ------------------------------------------------------------------
    async def detect(self) -> dict[str, int]:
        """SV / MV / dirty counts of the maintained violation state.

        Barriers on pending submissions, then reads the merged flags — no
        re-detection runs (the sharded backend's ``full_detect_count``
        stays put).
        """
        self._require_running()
        await self._barrier()
        counts = await self._run_engine(self.engine.violation_counts)
        counts["tuples"] = await self._run_engine(self.engine.count)
        return counts

    async def breakdown(self) -> dict[int, dict[str, int]]:
        """Per-constraint statistics from the maintained per-shard state."""
        self._require_running()
        await self._barrier()
        return await self._run_engine(self.engine.backend.breakdown)

    async def repair(self, max_rounds: int = 10):
        """Repair the live data in place; the maintained state stays live.

        Runs the engine's strongest strategy for the backend (sharded
        engines: routed fix deltas, summary-elected group fixes, batched
        rounds) on the engine lane; streams submitted during the repair
        queue behind it and apply to the repaired data.
        """
        self._require_running()
        await self._barrier()
        return await self._run_engine(
            lambda: self.engine.repair(max_rounds=max_rounds)
        )

    async def stats(self) -> dict:
        """Service, coalescer, admission and lane statistics, one snapshot."""
        self._require_running()
        trace = getattr(self.engine.backend, "last_update_trace", None)
        return {
            "backend": self.engine.backend_name,
            "workers": self.engine.workers,
            "tuples": await self._run_engine(self.engine.count),
            "submissions": self.submissions,
            "ships": self.ships,
            "shipped_batches": self.shipped_batches,
            "coalescer": self.coalescer.stats(),
            "admission": self.admission.stats(),
            "last_update_trace": dict(trace) if trace else None,
        }
