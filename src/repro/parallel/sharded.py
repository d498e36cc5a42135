"""Sharded multi-core detection: any delegate backend, on stateful shard lanes.

The paper's detectors (and their engine adapters) are single-threaded over
the whole relation.  :class:`ShardedBackend` scales them out with a
**single-pass** shared-nothing protocol — every stored tuple ships to
exactly one shard (replication factor 1.0) — and one lane protocol for
detection and updates alike:

1. the constraint set is compiled into a partition plan
   (:func:`repro.parallel.partition.plan_partitions`): one primary hash key
   plus a split of Σ's normalized fragments into *local* fragments
   (pattern-constraint riders and embedded FDs whose LHS contains the key —
   their violations are decidable within a shard) and *summary* fragments
   (embedded FDs whose ``X``-groups may straddle shards);
2. the stored relation is hash-partitioned once into ``workers``
   shared-nothing shards (CRC32 of the key projection, round-robin by tid
   for a keyless plan);
3. each shard is *bootstrapped* on its own **stateful lane**: a fresh
   delegate backend (``naive`` / ``batch`` / ``incremental``) is built in
   the lane, loaded with the shard and kept there for later calls.  The
   shard's Σ is the local fragments plus the *pattern projections* of the
   summary fragments (identical SV semantics, no embedded FD), so the
   delegate's ordinary ``detect()`` yields every single-tuple violation and
   the multi-tuple violations of the local fragments.  For the summary
   fragments the delegate's ``fd_group_summary`` hook emits compact
   ``(cid, xv) → (yv multiset, witness tids)`` group summaries
   (:mod:`repro.detection.summaries`) — aggregated groups, never raw rows —
   which the lane *holds* until one ``reduce_summaries`` call per host
   claims them.  The task carries the delegate's resolved *factory*, not
   its registry name, so runtime-registered delegates work in any lane;
4. per-shard violation sets are remapped to the global constraint
   identifiers and merged, and the claimed summaries are folded into a
   :class:`repro.parallel.summary.SummaryStore` whose merged groups
   materialise the cross-shard multi-tuple violations.  Shards partition
   the relation and every (tuple, fragment) pair is examined exactly once,
   so the result is identical to a single-threaded whole-relation pass.

Lanes and shard ops
-------------------
Every shard op (``bootstrap``, ``update``, ``breakdown``, ``state_stats``,
``drop``, ``full_summary``, ``reduce_summaries``) is implemented once, in
this module, and declared with :func:`~repro.parallel.transport.rpc_op`;
the registry records its handler and its retry contract.  A *lane* is
anything with a ``submit(lane, op, payload, retryable)`` method returning a
result thunk, with calls on one lane running in submission order:

* in-host lanes (``executor="serial"`` / ``"thread"`` / ``"process"``) run
  the registered handler inline, or on a single-worker thread or process
  executor pinned to the shard, so a shard's state always lives where its
  tasks run;
* ``executor="remote"`` lanes are pinned connections of a
  :class:`~repro.parallel.remote.RemoteWorkerPool` to standalone worker
  processes (``python -m repro.parallel.worker``), which dispatch the op
  name to the *same* registered handler.

A lane lost mid-call (a dead worker, a severed connection, a broken
process executor) surfaces as :class:`~repro.exceptions.LaneFailedError`;
the coordinator re-pins the lost lanes and rebuilds only their shards from
its own storage — during a bootstrap and during an update alike.

Incremental updates (sharded INCDETECT)
---------------------------------------
When the delegate supports incremental detection, the sharded backend
maintains violations across updates instead of recomputing.  The capability
is read off the registered *factory*: backend classes registered directly
(like the built-in ``"incremental"``) carry their ``supports_incremental``
class attribute; a function factory must set ``supports_incremental = True``
on the function itself, or the sharded backend (which cannot afford to
construct a probe instance) conservatively falls back to recompute-on-update.
The maintained protocol:

1. the shard states bootstrapped by ``detect()``, ``ensure_ready()`` or the
   first update are the INCDETECT states (rows, SV/MV flags, Aux(D), macro
   rows) the updates maintain — a ``detect()`` followed by updates builds
   each shard once;
2. each update ΔD is routed through the *same* single-pass plan
   (:func:`repro.parallel.partition.route_delta`): deleted tuples are
   resolved to their stored values and hashed to the one shard that holds
   them, inserted tuples get coordinator-assigned global tids and hash the
   same way.  Only the touched shards receive a task — per-shard cost is
   proportional to the routed delta, not to |D|;
3. each touched shard applies its slice of ΔD with INCDETECT (shard-local
   ``delete_tuples`` / ``insert_tuples`` with pinned global tids), whose
   violation readback is itself a *flag delta*, and emits the slice's
   **summary delta** (:func:`repro.detection.summaries.summary_delta`) —
   signed yv-count and witness changes, bounded by |ΔD|.  Pattern
   constants are text, so its Python LHS match is the one the bootstrap
   summary used, whether the delegate scanned in Python or pushed the scan
   into SQL;
4. the coordinator swaps the touched shards' flag contributions into its
   per-shard violation cache, folds the summary deltas into the summary
   store, and re-merges — an exact replacement merge, so the result is
   identical to a single-threaded INCDETECT pass over the whole relation.

With live states ``detect()`` reads the merged state; only a ``detect()``
that has to bootstrap counts in ``full_detect_count``.  A delegate without
incremental support (``naive`` / ``batch``) has nothing to maintain, so its
shard states are dropped as soon as the call that built them has read them
and every ``detect()`` is a fresh bootstrap.

``workers=1`` keeps the plain single-state path (one state over the whole
Σ and relation — byte-for-byte the delegate's own behaviour), and the
:class:`~repro.engine.DataQualityEngine` does not even interpose the
sharding layer at ``workers=1`` unless ``backend="sharded"`` is explicit.
Out-of-band storage mutations (``load_rows`` / ``apply_delta`` / ``clear``)
drop the shard states; the next call bootstraps afresh.

The backend registers itself as ``"sharded"`` in the engine registry; the
:class:`~repro.engine.DataQualityEngine` routes through it automatically
when constructed with ``workers > 1``.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from itertools import count as _counter
from typing import Any

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.schema import RelationSchema, Value
from repro.core.violations import MultiTupleViolation, SingleTupleViolation, ViolationSet
from repro.detection.summaries import Summary, SummaryDelta, merge_summaries, summary_delta
from repro.engine.backends import (
    DetectorBackend,
    InMemoryRelationBackend,
    register_backend,
    resolve_backend_factory,
)
from repro.exceptions import EngineError, FabricError, LaneFailedError
from repro.parallel.partition import PartitionPlan, bucket_rows, plan_partitions, route_delta
from repro.parallel.remote import RemoteWorkerPool
from repro.parallel.summary import SummaryStore, summary_nbytes
from repro.parallel.transport import is_idempotent, op_spec, rpc_op

__all__ = ["ShardedBackend", "DEFAULT_EXECUTOR"]

#: Executor kinds accepted by the backend.
_EXECUTORS = ("process", "thread", "serial", "remote")
DEFAULT_EXECUTOR = "process"


def _remap_cids(violations: ViolationSet, mapping: Mapping[int, int]) -> ViolationSet:
    """Rewrite a shard-local violation set onto global constraint identifiers.

    Flag-only sets (the SQL delegates) keep their tid-sets untouched;
    detailed records (the naive delegate) get their ``constraint_id``
    translated so merged breakdowns attribute violations correctly.
    """
    remapped = ViolationSet.from_flags(violations.sv_tids, violations.mv_tids)
    for record in violations.single_records:
        remapped.add_single(
            SingleTupleViolation(
                tid=record.tid,
                constraint_id=mapping.get(record.constraint_id, record.constraint_id),
                attribute=record.attribute,
            )
        )
    for record in violations.multi_records:
        remapped.add_multi(
            MultiTupleViolation(
                constraint_id=mapping.get(record.constraint_id, record.constraint_id),
                lhs_values=record.lhs_values,
                tids=record.tids,
            )
        )
    return remapped


def _load_shard(
    backend: DetectorBackend,
    schema: RelationSchema,
    rows: list[tuple[int, dict[str, str]]],
) -> None:
    """Load ``(tid, row)`` pairs into a freshly built delegate backend."""
    database = backend.database
    if database is not None:
        # SQL delegates: straight into the substrate, one pass, tids kept.
        database.insert_tuples([row for _, row in rows], tids=[tid for tid, _ in rows])
    else:
        shard = Relation(schema)
        for tid, row in rows:
            shard.insert_with_tid(tid, row)
        backend.load_relation(shard)


# ----------------------------------------------------------------------
# Shard ops (each runs inside the shard's lane)
# ----------------------------------------------------------------------
#: Persistent per-shard delegate states, keyed by a coordinator-chosen
#: namespace.  The dict lives wherever the shard's lane runs its tasks: in
#: each lane *process* for ``executor="process"`` and on remote workers
#: (every process has its own copy of this module), in the coordinator's
#: process for ``"thread"`` and ``"serial"``.  Keys embed the coordinating
#: backend's namespace, so backends sharing one process never collide.
_SHARD_STATES: dict[str, "_ShardState"] = {}

#: Monotonic namespace source for shard-state keys (unique per process).
_STATE_NAMESPACES = _counter(1)


class _ShardState:
    """One live shard: its delegate, CID map, summary fragments and the
    full group summary held for the next ``reduce_summaries`` claim."""

    __slots__ = ("backend", "mapping", "summary_fragments", "held_summary")

    def __init__(
        self,
        backend: DetectorBackend,
        mapping: Mapping[int, int],
        summary_fragments: list[tuple[int, ECFD]],
    ):
        self.backend = backend
        self.mapping = mapping
        self.summary_fragments = summary_fragments
        self.held_summary: Summary | None = None

    def hold_full_summary(self) -> None:
        self.held_summary = (
            self.backend.fd_group_summary(self.summary_fragments)
            if self.summary_fragments
            else {}
        )


#: Bootstrap work unit: (state key, schema, delegate factory,
#: [(global_cid, fragment)] evaluated natively, [(global_cid, fragment)]
#: summarised, shard rows).
_BootstrapTask = tuple[
    str,
    RelationSchema,
    Callable[..., DetectorBackend],
    list[tuple[int, ECFD]],
    list[tuple[int, ECFD]],
    list[tuple[int, dict[str, str]]],
]

#: Update work unit: (state key, routed ΔD⁻ (tid, row) pairs, routed ΔD⁺
#: (tid, row) pairs).  Deletions carry their coordinator-resolved values so
#: the lane can emit the summary delta without re-reading storage.
_UpdateTask = tuple[
    str,
    list[tuple[int, dict[str, str]]],
    list[tuple[int, dict[str, str]]],
]


@rpc_op("bootstrap", idempotent=True)
def _shard_bootstrap(task: _BootstrapTask) -> tuple[str, ViolationSet]:
    """Build one persistent shard state.

    Loads the shard rows with their *global* tids, initialises the
    delegate's maintained state (for INCDETECT: the batch pass computing
    flags, Aux(D) and macro rows), parks the live backend in
    :data:`_SHARD_STATES` and holds its full group summary for the reduce
    stage.  Declared idempotent because a re-run *overwrites*: any previous
    state at the key is dropped before the rebuild, so a retry after an
    ambiguous failure lands on the same state.  Returns the shard's
    violation set on global constraint identifiers.
    """
    key, schema, factory, fragments, summary_fragments, rows = task
    _shard_drop(key)
    local_sigma = ECFDSet([fragment for _, fragment in fragments])
    # Single-pattern fragments normalize 1:1 in order, so the delegate's
    # local CIDs are simply 1..k over the fragment list.
    mapping = {local: cid for local, (cid, _) in enumerate(fragments, start=1)}

    backend = factory(schema=schema, sigma=local_sigma, path=":memory:")
    _load_shard(backend, schema, rows)
    backend.ensure_ready()
    state = _ShardState(backend, mapping, list(summary_fragments))
    state.hold_full_summary()
    _SHARD_STATES[key] = state
    return key, _remap_cids(backend.detect(), mapping)


@rpc_op("update", idempotent=False)
def _shard_update(
    task: _UpdateTask,
) -> tuple[str, ViolationSet, SummaryDelta, dict | None]:
    """Apply one routed delta to a live shard state.

    Declared **non-idempotent**: a reply lost after execution would
    double-apply the delta on a blind retry, so this op is never retried —
    its failure path is lane loss and re-bootstrap from coordinator
    storage.  Work is INCDETECT's: a fixed number of SQL statements
    touching only the affected groups of this shard, plus a pattern match
    per (delta tuple, summary fragment) pair for the summary delta.
    Inserted tuples keep their coordinator-assigned global tids.  Returns
    the shard's *new* violation set (maintained by flag deltas — readback
    proportional to the affected groups), the summary delta of this slice,
    and the delegate's readback diagnostics.
    """
    key, delete_pairs, insert_pairs = task
    state = _SHARD_STATES[key]
    delta = summary_delta(state.summary_fragments, delete_pairs, insert_pairs)
    violations = state.backend.incremental_update(
        [tid for tid, _ in delete_pairs],
        [row for _, row in insert_pairs],
        insert_tids=[tid for tid, _ in insert_pairs],
    )
    readback = getattr(state.backend, "last_readback", None)
    return key, _remap_cids(violations, state.mapping), delta, readback


@rpc_op("breakdown", idempotent=True)
def _shard_breakdown(key: str) -> dict[int, dict[str, int]]:
    """Read one live shard's per-constraint statistics on global CIDs.

    Computed from the shard's state (for the SQL delegates a grouped
    ``Q_sv`` pass over the shard plus the maintained Aux(D) / macro rows) —
    cost is bounded by the shard, never by a whole-relation re-detection.
    Summary fragments contribute their SV statistics here (their pattern
    projection is part of the shard's Σ); their MV statistics come from the
    coordinator's summary store.
    """
    state = _SHARD_STATES[key]
    breakdown = state.backend.breakdown()
    return {state.mapping.get(cid, cid): dict(stats) for cid, stats in breakdown.items()}


@rpc_op("state_stats", idempotent=True)
def _shard_state_stats(key: str) -> dict[str, int]:
    """Read one live shard's state statistics (tuples, Aux(D), macro rows)."""
    state = _SHARD_STATES[key]
    stats = getattr(state.backend, "state_stats", None)
    if stats is not None:
        return dict(stats())
    return {"tuples": state.backend.count()}


@rpc_op("drop", idempotent=True)
def _shard_drop(key: str) -> str:
    """Tear down one shard state (close its database, free its memory)."""
    state = _SHARD_STATES.pop(key, None)
    if state is not None:
        state.backend.close()
    return key


@rpc_op("full_summary", idempotent=True)
def _shard_full_summary(key: str) -> str:
    """Re-emit one live shard's current full group summary (recovery path).

    Read-only over the maintained state, hence declared idempotent — safe
    to retry over a reconnect.  The summary is *held* for the follow-up
    ``reduce_summaries`` claim, exactly like a bootstrap's.
    """
    _SHARD_STATES[key].hold_full_summary()
    return key


@rpc_op("reduce_summaries", idempotent=False)
def _reduce_summaries(keys: Sequence[str]) -> Summary:
    """Claim the held summaries of ``keys`` (states in this process), merged.

    The reduce stage: a remote worker hosting several lanes merges their
    summaries (:func:`repro.detection.summaries.merge_summaries`) and ships
    one partial, so an ``O(|shard|)`` empty-LHS summary crosses the network
    once per *worker*, not once per shard.  A single held summary is
    returned as is — nothing to merge, no copy.  Declared non-idempotent
    because a claim *releases* what it returns.
    """
    parts = []
    for key in keys:
        state = _SHARD_STATES.get(key)
        if state is not None and state.held_summary is not None:
            parts.append(state.held_summary)
            state.held_summary = None
    return parts[0] if len(parts) == 1 else merge_summaries(parts)


class _InHostLanes:
    """Shard lanes inside this host: inline, or one pinned executor per lane.

    Speaks the :class:`~repro.parallel.remote.RemoteWorkerPool` contract:
    :meth:`submit` resolves ``op`` to the handler the
    :func:`~repro.parallel.transport.rpc_op` registry recorded and returns
    a result thunk; calls on one lane run in submission order, so a caller
    may submit several waves back to back and collect once (the pipelining
    primitive).  ``pool_class=None`` runs every call inline at submission
    (the degenerate pipeline; states live in this process) and, like a
    pooled lane, delivers its outcome — result or exception — at collect.
    Otherwise each lane is a single-worker thread or process executor
    created on first use and kept until :meth:`close`, so the states it
    holds survive between calls.  A process lane that dies surfaces as
    :class:`~repro.exceptions.LaneFailedError`, and :meth:`repin_lanes`
    replaces its executor.  In-host calls cross no transport, so
    ``retryable`` changes nothing here.
    """

    def __init__(self, pool_class: type[Executor] | None):
        self._pool_class = pool_class
        self._executors: dict[int, Executor] = {}

    def submit(
        self, lane: int, op: str, payload: Any, retryable: bool = False
    ) -> Callable[[], Any]:
        handler = op_spec(op).handler
        future: Future[Any] = Future()
        try:
            if self._pool_class is None:
                future.set_result(handler(payload))
            else:
                executor = self._executors.get(lane)
                if executor is None:
                    executor = self._executors[lane] = self._pool_class(max_workers=1)
                future = executor.submit(handler, payload)
        except Exception as exc:  # noqa: BLE001 - delivered at collect, like a pooled lane's failure
            future.set_exception(exc)

        def collect() -> Any:
            try:
                return future.result()
            except BrokenExecutor as exc:
                raise LaneFailedError(
                    f"in-host lane {lane} died during {op!r}: {exc}", lane=lane
                ) from exc

        return collect

    def lost_lanes(self, lanes: Iterable[int]) -> set[int]:
        """Lanes lost beyond the ones that failed a call: none in-host."""
        return set()

    def repin_lanes(self, lanes: Sequence[int]) -> None:
        """Give ``lanes`` fresh executors (their states died with the old ones)."""
        for lane in lanes:
            executor = self._executors.pop(lane, None)
            if executor is not None:
                executor.shutdown(wait=False)

    def lanes_by_address(self, lanes: Iterable[int]) -> dict[int, list[int]]:
        """Every lane is its own host: one summary claim per lane."""
        return {lane: [lane] for lane in lanes}

    def lane_label(self, lane: int) -> None:
        """In-host lanes have no network address."""
        return None

    def transport_stats(self) -> None:
        return None

    def close(self) -> None:
        for executor in self._executors.values():
            executor.shutdown()
        self._executors.clear()


def _gather(pending: Iterable[Callable[[], Any]]) -> tuple[list, set[int]]:
    """Collect every result thunk; returns ``(results, lanes that were lost)``.

    Operation failures propagate; lane losses are gathered so the caller
    can recover them all at once after the barrier.
    """
    results = []
    lost: set[int] = set()
    for collect in pending:
        try:
            results.append(collect())
        except LaneFailedError as exc:
            lost.add(exc.lane)
    return results, lost


class ShardedBackend(InMemoryRelationBackend):
    """Shared-nothing sharded detection over a pluggable delegate backend.

    Storage lives in the in-memory relation of the shared base class.  The
    first ``detect()`` partitions it once according to the single-pass plan
    and bootstraps one delegate state per shard on its lane, merging flag
    sets and group summaries exactly.  With an incremental-capable delegate
    the states persist, later reads serve the merged state, and the backend
    additionally supports :meth:`incremental_update` (sharded INCDETECT):
    each update only touches the shards its routed delta lands on, and the
    coordinator's summary store absorbs the lanes' summary deltas — see the
    module docstring for the full protocol.

    Parameters
    ----------
    schema / sigma / path:
        As for every backend; shard databases are always per-lane and
        in-memory, so a file-backed ``path`` is rejected rather than
        silently dropped — callers wanting on-disk persistence need a
        single-threaded SQL backend.
    delegate:
        Registry name of the backend run on every shard (``"naive"``,
        ``"batch"`` or ``"incremental"``); resolved to its factory at
        construction time.  ``supports_incremental`` is read from the
        resolved *factory* (see the module docstring for the function-
        factory contract), so ``delegate="incremental"`` makes the engine
        route ``apply_update`` through sharded INCDETECT while ``"naive"``
        / ``"batch"`` keep the recompute fallback.
    workers:
        Number of shards (one lane each); defaults to the machine's CPU
        count.
    executor:
        Where the shard lanes run: ``"process"`` (default — one
        single-worker process per lane, sidestepping the GIL),
        ``"thread"`` (one thread per lane, no pickling, still overlapping
        SQLite's C-level work), ``"serial"`` (inline in the caller, which
        the tests use to pin down partitioning semantics) or ``"remote"``
        (lanes pinned to standalone worker processes, ``python -m
        repro.parallel.worker``, over the length-prefixed RPC transport).
        On a lost lane the coordinator re-pins it and re-bootstraps **only
        its shard** from its own storage (never a hidden full re-detection
        — ``full_detect_count`` stays put).  Remote bootstrap summaries
        are merged worker-side by a reduce stage before they cross the
        network, one partial per worker.
    remote_workers:
        Remote-executor worker fleet (ignored otherwise): a list of
        ``"host:port"`` addresses (or ``(host, port)`` pairs) naming
        external workers, or an integer to spawn that many localhost
        workers owned (and stopped) by the backend.  ``None`` reads the
        ``REPRO_REMOTE_WORKERS`` environment variable and falls back to
        spawning ``min(workers, 4)`` locals.
    rpc_timeout:
        Per-call reply deadline of the remote executor, seconds.  An
        overdue call loses its lane (recovery re-bootstraps the shard).

    Attributes
    ----------
    last_update_trace:
        Diagnostics of the most recent :meth:`incremental_update` /
        :meth:`incremental_update_many` call:
        ``shards_total`` / ``shards_touched`` (states live vs. tasked this
        update), ``routed_deletes`` / ``routed_inserts`` (delta tuples
        routed — each exactly once under the single-pass plan),
        ``batches`` / ``lane_tasks`` (pipelined batch count and the lane
        tasks they fanned out to),
        ``summary_groups_touched`` (merged groups the update's summary
        deltas landed in), ``readback_tids`` (flags read back across the
        touched shards — bounded by their maintained violation sets, never
        |D|) and
        ``bootstrap`` (whether this call built the shard states).  ``None``
        until the first incremental update.
    full_detect_count:
        Number of ``detect()`` calls that had to bootstrap the shard
        states — the "no hidden recompute" counter the incremental tests
        assert on.  ``detect()`` with live shard states serves the merged
        maintained state and leaves this counter untouched.
    """

    name = "sharded"

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
        delegate: str = "batch",
        workers: int | None = None,
        executor: str = DEFAULT_EXECUTOR,
        remote_workers: "int | str | Sequence | None" = None,
        rpc_timeout: float = 30.0,
    ):
        super().__init__(schema, sigma, path)
        if path != ":memory:":
            raise EngineError(
                "the sharded backend stores data in memory and cannot honour "
                f"path={path!r}; use a single-threaded SQL backend for "
                "file-backed storage"
            )
        if delegate == self.name:
            raise EngineError("the sharded backend cannot delegate to itself")
        if executor not in _EXECUTORS:
            raise EngineError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        if remote_workers is not None and executor != "remote":
            raise EngineError(
                "remote_workers only applies to executor='remote' "
                f"(got executor={executor!r})"
            )
        self.delegate = delegate
        self._delegate_factory = resolve_backend_factory(delegate)
        # The sharded backend maintains violations incrementally exactly
        # when its per-shard delegate can; the flag is per-instance because
        # it depends on the delegate chosen at construction time.
        self.supports_incremental = bool(
            getattr(self._delegate_factory, "supports_incremental", False)
        )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        self.executor = executor
        self._plan: PartitionPlan = plan_partitions(self.sigma)
        self._last_violations: ViolationSet | None = None
        self._last_breakdown: dict[int, dict[str, int]] | None = None
        #: Wire size / group counts of the most recent summary exchange
        #: (shard bootstrap or update deltas), for partition_stats().
        self._summary_trace: dict = {"groups": 0, "bytes": 0, "witnesses": 0}
        #: The shard lanes (in-host or remote), built on first use.
        self._lanes: _InHostLanes | RemoteWorkerPool | None = None
        self._states_live = False
        #: shard_index -> state key, for every live shard state.  Lanes
        #: are 1:1 with shards under the single-pass plan: shard *i*'s
        #: state lives on (and is only ever addressed through) lane *i*.
        self._shard_layout: dict[int, str] = {}
        self._shard_violations: dict[str, ViolationSet] = {}
        #: The coordinator's merged cross-shard group summaries (live
        #: alongside the shard states; fed full summaries at bootstrap and
        #: signed deltas on every update).
        self._summary_store = SummaryStore()
        self.last_update_trace: dict | None = None
        self.full_detect_count = 0
        self._remote_workers = remote_workers
        self._rpc_timeout = rpc_timeout
        #: Recovery epoch embedded in state keys: re-bootstrapped shards get
        #: fresh keys, so a straggling reply addressed to a lost state can
        #: never be mistaken for the recovered one.
        self._state_epoch = 0
        self._state_namespace = ""

    def _on_mutation(self) -> None:
        self._last_violations = None
        self._last_breakdown = None
        # Out-of-band storage changes invalidate the per-shard states; the
        # next read or update bootstraps afresh.
        self._invalidate_shard_states()

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def detect(self) -> ViolationSet:
        return self._detect(want_breakdown=False)

    def detect_with_breakdown(self) -> ViolationSet:
        # Violations and per-constraint statistics from ONE bootstrap; a
        # later breakdown() call then hits the cache.
        return self._detect(want_breakdown=True)

    def _detect(self, want_breakdown: bool) -> ViolationSet:
        """Serve the merged shard states, bootstrapping them if none are live."""
        if self._ensure_shard_states():
            self.full_detect_count += 1
        if want_breakdown and self._last_breakdown is None:
            self._last_breakdown = self._lane_breakdown()
        violations = self._last_violations
        assert violations is not None
        self._release_unmaintained_states()
        return violations

    def _release_unmaintained_states(self) -> None:
        """Drop the shard states when no update will maintain them.

        A ``naive`` / ``batch`` delegate's states are only read once — its
        updates go through ``apply_delta``, which drops them anyway — so
        they are freed as soon as the call that built them has read them:
        no shard copy of the relation outlives a detection.  The next read
        bootstraps afresh.
        """
        if not self.supports_incremental:
            self._invalidate_shard_states()

    def _lane_breakdown(self) -> dict[int, dict[str, int]]:
        """Per-constraint statistics: per-shard stats plus the summary store's."""
        merged: dict[int, dict[str, int]] = {}
        for _, shard_breakdown in self._query_states("breakdown"):
            for cid, stats in shard_breakdown.items():
                slot = merged.setdefault(cid, {"sv": 0, "mv_groups": 0, "mv_tuples": 0})
                for name, value in stats.items():
                    slot[name] = slot.get(name, 0) + value
        for cid, stats in self._summary_store.per_constraint_stats().items():
            slot = merged.setdefault(cid, {"sv": 0, "mv_groups": 0, "mv_tuples": 0})
            slot["mv_groups"] += stats["mv_groups"]
            slot["mv_tuples"] += stats["mv_tuples"]
        return dict(sorted(merged.items()))

    def _query_states(self, op: str) -> list[tuple[int, Any]]:
        """Run a read-only op on every live shard state: ``(shard, result)`` pairs."""
        shards = sorted(self._shard_layout.items())
        if not shards:
            return []
        pool = self._ensure_lanes()
        pending = [pool.submit(shard, op, key, retryable=is_idempotent(op)) for shard, key in shards]
        return [(shard, collect()) for (shard, _), collect in zip(shards, pending)]

    # ------------------------------------------------------------------
    # Shard states on the lanes
    # ------------------------------------------------------------------
    def _ensure_lanes(self) -> _InHostLanes | RemoteWorkerPool:
        """The shard lanes, built on first use and kept until :meth:`close`.

        Built lazily — constructing the backend must not fork worker
        processes the caller may never use.  A single shard, or
        ``executor="serial"``, runs its lane inline.
        """
        if self._lanes is None:
            if self.executor == "remote":
                self._lanes = RemoteWorkerPool.for_fleet(
                    self._remote_workers,
                    default_spawn=min(self.workers, 4),
                    rpc_timeout=self._rpc_timeout,
                )
            elif self.executor == "serial" or self.workers <= 1:
                self._lanes = _InHostLanes(None)
            else:
                self._lanes = _InHostLanes(
                    ThreadPoolExecutor if self.executor == "thread" else ProcessPoolExecutor
                )
        return self._lanes

    def _shard_grid(self) -> tuple[int, list[tuple[int, ECFD]], list[tuple[int, ECFD]]]:
        """``(shard count, native fragments, summary fragments)`` of every shard.

        ``workers <= 1`` collapses to one whole-Σ shard (the plain
        delegate), otherwise the single-pass plan yields ``workers`` shards.
        *Empty* shards are part of the grid too: an insert may route to a
        shard that held no tuples at bootstrap time, so its state must
        exist.
        """
        if self.workers <= 1:
            fragments = list(self.sigma.normalize())
            return (1 if fragments else 0), fragments, []
        fragments = self._plan.shard_fragments()
        return (self.workers if fragments else 0), fragments, self._plan.summary_fragments

    def _state_key(self, shard_index: int) -> str:
        """The state key of ``shard_index`` at the current recovery epoch."""
        return f"{self._state_namespace}:{self._state_epoch}:{shard_index}"

    def _ensure_shard_states(self) -> bool:
        """Bootstrap the persistent per-shard states once.

        Returns ``True`` when this call performed the bootstrap (the full
        per-shard initialisation pass, seeding the summary store from the
        shards' held full summaries), ``False`` when the states were
        already live.  Lanes lost during the bootstrap are re-pinned and
        rebuilt; any other failure drops the partial states and
        propagates.
        """
        if self._states_live:
            return False
        self._state_namespace = f"sharded-{os.getpid()}-{next(_STATE_NAMESPACES)}"
        self._state_epoch = 0
        self._shard_layout = {}
        self._shard_violations = {}
        try:
            shards, _, _ = self._shard_grid()
            lost = self._bootstrap_shards(list(range(shards)))
            if lost:
                self._recover_lanes(lost)
            else:
                self._reduce_held_summaries()
        except Exception:  # noqa: BLE001 - drop the partial bootstrap, then re-raise unchanged
            self._invalidate_shard_states()
            raise
        self._last_violations = self._merge_shard_violations()
        self._states_live = True
        return True

    def _bootstrap_shards(self, shards: list[int]) -> set[int]:
        """Build the given shards' states from coordinator storage.

        Every state gets the current epoch's key and holds its full summary
        for :meth:`_reduce_held_summaries`.  Returns the lanes lost during
        the bootstrap (their shards need a rebuild).  A rebuilt shard's old
        state is not dropped: it lived on a lost lane, and its older epoch
        makes it unreachable either way.
        """
        if not shards:
            return set()
        rows = [(t.tid, t.as_dict()) for t in self._relation.tuples() if t.tid is not None]
        buckets = bucket_rows(rows, self._plan.key, self.workers) if self.workers > 1 else [rows]
        _, fragments, summary_fragments = self._shard_grid()
        pool = self._ensure_lanes()
        pending = []
        for shard in shards:
            self._shard_violations.pop(self._shard_layout.get(shard, ""), None)
            key = self._state_key(shard)
            self._shard_layout[shard] = key
            task = (key, self.schema, self._delegate_factory, fragments, summary_fragments, buckets[shard])
            pending.append(pool.submit(shard, "bootstrap", task, retryable=True))
        results, lost = _gather(pending)
        for key, violations in results:
            self._shard_violations[key] = violations
        return lost

    def _reduce_held_summaries(self) -> None:
        """Claim every live state's held summary into a fresh summary store.

        One ``reduce_summaries`` call per host (per remote worker; per lane
        in-host) claims the summaries of that host's lanes; folding the
        partials is exact because shards partition the relation.  The
        store replaces the coordinator's only once every claim arrived.  A
        claim releases what it returns, so a failure means the host's lanes
        are lost and the caller re-requests fresh summaries after recovery.
        """
        store = SummaryStore()
        summary_bytes = 0
        if self._shard_layout:
            pool = self._ensure_lanes()
            pending = [
                pool.submit(lanes[0], "reduce_summaries", [self._shard_layout[lane] for lane in lanes])
                for _, lanes in sorted(pool.lanes_by_address(self._shard_layout).items())
            ]
            for collect in pending:
                partial = collect()
                if partial:
                    store.apply_summary(partial)
                    summary_bytes += summary_nbytes(partial)
        self._summary_store = store
        self._trace_summary_exchange(summary_bytes)

    def _trace_summary_exchange(self, summary_bytes: int) -> None:
        """Record the most recent summary exchange: bootstrap or update deltas."""
        self._summary_trace = {
            "groups": self._summary_store.group_count(),
            "bytes": summary_bytes,
            "witnesses": self._summary_store.witness_count(),
        }

    def _recover_lanes(self, lost: set[int]) -> dict:
        """Re-pin lost lanes and re-bootstrap only their shards; exact by design.

        The coordinator's storage receives every batch *before* the lanes
        do, so at any failure point storage already holds the current
        relation: re-bootstrapping a lost shard from storage lands on
        exactly the state a surviving lane reached by applying the deltas —
        that is what makes kill-a-worker recovery bit-exact, mid-update and
        mid-bootstrap alike.  The procedure:

        1. widen the lost set to every lane the pool knows is dead (for
           remote lanes: pinned to a worker that no longer answers a ping —
           better one recovery than many);
        2. re-pin the lost lanes and re-bootstrap their shards from storage
           under fresh epoch keys;
        3. rebuild the summary store from scratch: every surviving lane
           re-emits (and holds) its current full summary, then the reduce
           stage claims everything — in-flight summary deltas are
           *discarded*, because the fresh full summaries already reflect
           every update the survivors applied.

        A failure *during* recovery widens the lost set and retries,
        bounded by the shard count; a pool with no healthy worker left
        raises :class:`~repro.exceptions.FabricError`.  Never triggers a
        full detection — ``full_detect_count`` is untouched.
        """
        pool = self._ensure_lanes()
        attempts = 0
        while True:
            attempts += 1
            if attempts > len(self._shard_layout) + 1:
                raise FabricError(
                    f"lane recovery did not converge after {attempts - 1} "
                    f"attempts; lost lanes: {sorted(lost)}"
                )
            lost |= pool.lost_lanes(self._shard_layout)
            pool.repin_lanes(sorted(lost))
            self._state_epoch += 1
            failed = self._bootstrap_shards(sorted(lost))
            if failed:
                lost |= failed
                continue
            try:
                survivors = sorted(set(self._shard_layout) - lost)
                pending = [
                    pool.submit(lane, "full_summary", self._shard_layout[lane], retryable=True)
                    for lane in survivors
                ]
                for collect in pending:
                    collect()
                self._reduce_held_summaries()
                break
            except LaneFailedError as exc:
                lost.add(exc.lane)
        return {
            "lanes_lost": sorted(lost),
            "recovered_shards": len(lost),
            "recovery_attempts": attempts,
        }

    def _merge_shard_violations(self) -> ViolationSet:
        """The exact union of every live shard's current violation set.

        Per-shard flags cover the single-tuple violations and the local
        fragments' multi-tuple ones; the summary store contributes the
        cross-shard multi-tuple violations.  Shards partition the relation,
        so the union equals a single-threaded pass; cost is proportional to
        the number of violations, never |D|.
        """
        merged = ViolationSet()
        for violations in self._shard_violations.values():
            merged.update(violations)
        merged.update(self._summary_store.violations())
        return merged

    def _invalidate_shard_states(self) -> None:
        """Drop the per-shard states; the lanes stay up for the next bootstrap.

        Drops run *on the owning lanes*: a shard's SQLite connection may
        only be closed by the thread that created it, and process-lane and
        remote states do not even exist in this process.  A lane that
        already died cannot run its drop — its states died with it.
        """
        if self._shard_layout and self._lanes is not None:
            pending = [
                self._lanes.submit(shard, "drop", key, retryable=True)
                for shard, key in self._shard_layout.items()
            ]
            for collect in pending:
                try:
                    collect()
                except Exception:  # noqa: BLE001 - teardown is best-effort
                    pass
        self._shard_layout = {}
        self._shard_violations = {}
        self._summary_store = SummaryStore()
        self._states_live = False

    def ensure_ready(self) -> None:
        """Bootstrap the shard states so update timing excludes initialisation.

        Called by the engine before timing :meth:`incremental_update`; a
        no-op for non-incremental delegates (their update path is
        ``apply_delta`` + full detection, which drops the states anyway).
        """
        if self.supports_incremental:
            self._ensure_shard_states()

    # ------------------------------------------------------------------
    # Incremental updates (sharded INCDETECT)
    # ------------------------------------------------------------------
    def incremental_update(
        self,
        delete_tids: Sequence[int],
        insert_rows: Sequence[Mapping[str, Value]],
        insert_tids: Sequence[int] | None = None,
    ) -> ViolationSet:
        """Sharded INCDETECT: maintain vio(D) touching only the routed shards.

        Deletions are resolved to their stored rows (both the hash key and
        the summary delta need the values) and applied first; insertions
        get fresh ``max(tid) + 1`` identifiers — the same discipline as
        every other backend — unless ``insert_tids`` pins them.  The
        single-pass plan routes every delta tuple to exactly one shard;
        only those shards receive work.  The returned violation set is the
        exact merge of every shard's maintained flags and the delta-updated
        summary store.

        Failure semantics: lost lanes are recovered (re-pinned and their
        shards rebuilt from storage).  If a shard *operation* raises after
        the delta was applied to coordinator storage, the per-shard states
        are dropped before the exception propagates — storage keeps the
        applied delta and the next call bootstraps afresh from it, so a
        stale shard cache can never silently misreport violations.  (A
        caught-and-retried failure may therefore duplicate the inserted
        rows under fresh tids, like any retried ``apply_delta``.)
        """
        return self.incremental_update_many([(delete_tids, insert_rows, insert_tids)])

    def incremental_update_many(
        self,
        batches: Sequence[
            tuple[Sequence[int], Sequence[Mapping[str, Value]], Sequence[int] | None]
        ],
    ) -> ViolationSet:
        """Pipelined sharded INCDETECT over an ordered batch sequence.

        Semantically a sequential replay of :meth:`incremental_update` per
        batch, but without the per-call coordinator round-trip: every batch
        is routed and its lane tasks *submitted* immediately (lanes process
        their tasks in submission order, so shard-local update order is
        preserved), and the coordinator waits at a single barrier after the
        last batch.  While lane ``i`` chews batch ``N``'s slice, the
        coordinator is already resolving, applying and routing batch
        ``N+1`` — the delta-routing single-point becomes a pipeline stage
        instead of a serial bottleneck.

        The merge stays exact: each lane result carries the shard's *full*
        maintained flag set after its task, so replacement-merging results
        in submission order leaves exactly the last (= final) contribution
        per shard; the signed summary deltas are folded in the same order
        (per-lane order is what correctness needs — deltas of different
        shards commute over the counted multisets).  Failure semantics are
        those of :meth:`incremental_update`.
        """
        if not self.supports_incremental:
            raise EngineError(
                f"sharded delegate {self.delegate!r} does not support incremental "
                "updates; use delegate='incremental' (or any backend advertising "
                "supports_incremental) for sharded INCDETECT"
            )
        bootstrap = self._ensure_shard_states()
        for _, insert_rows, insert_tids in batches:
            if insert_tids is not None and len(insert_tids) != len(insert_rows):
                raise EngineError("insert_tids and insert_rows must have the same length")
        total_deletes = 0
        total_inserts = 0
        touched_shards: set[int] = set()
        recovery: dict | None = None
        try:
            pending: list[Callable[[], Any]] = []
            for delete_tids, insert_rows, insert_tids in batches:
                # --- apply ΔD⁻ to coordinator storage, resolving rows for routing ---
                delete_pairs: list[tuple[int, dict[str, str]]] = []
                for tid in delete_tids:
                    stored = self._relation.get(int(tid))
                    if stored is not None:
                        delete_pairs.append((int(tid), stored.as_dict()))
                for tid, _ in delete_pairs:
                    self._relation.delete(tid)

                # --- apply ΔD⁺, assigning global tids like every other backend ---
                if insert_tids is not None:
                    assigned = [int(tid) for tid in insert_tids]
                else:
                    start = self._max_tid() + 1
                    assigned = list(range(start, start + len(insert_rows)))
                insert_pairs = [
                    (tid, self._stringified(row)) for tid, row in zip(assigned, insert_rows)
                ]
                for tid, row in insert_pairs:
                    self._relation.insert_with_tid(tid, row)
                total_deletes += len(delete_pairs)
                total_inserts += len(insert_pairs)

                # --- route the batch and task only the touched shards ---
                if not self._shard_layout or (not delete_pairs and not insert_pairs):
                    routed = {}
                elif self.workers <= 1:
                    routed = {0: (delete_pairs, insert_pairs)}
                else:
                    routed = route_delta(self._plan, self.workers, delete_pairs, insert_pairs)
                touched_shards.update(routed)
                if routed:
                    pool = self._ensure_lanes()
                    for shard_index, (shard_deletes, shard_inserts) in sorted(routed.items()):
                        task = (self._shard_layout[shard_index], shard_deletes, shard_inserts)
                        pending.append(pool.submit(shard_index, "update", task, retryable=False))
            # --- the one barrier: collect every batch's lane results ---
            results, lost = _gather(pending)
            if lost:
                # Completed results carry their shards' exact current flags;
                # the lost shards' come from the rebuild, and the rebuilt
                # store already reflects every delta, so none is folded.
                for key, violations, _delta, _readback in results:
                    self._shard_violations[key] = violations
                results = []
                recovery = self._recover_lanes(lost)
        except Exception:  # noqa: BLE001 - drop shard state so the next call re-bootstraps, then re-raise
            self._invalidate_shard_states()
            self._last_violations = None
            raise

        # --- exact delta merge: swap touched shards' flag contributions and
        # fold their summary deltas into the store ---
        groups_touched = 0
        readback_tids = 0
        delta_bytes = 0
        for key, violations, delta, readback in results:
            self._shard_violations[key] = violations
            if delta:
                groups_touched += self._summary_store.apply_delta(delta)
                delta_bytes += summary_nbytes(delta)
            if readback:
                readback_tids += readback.get("scanned", 0)
        merged = self._merge_shard_violations()
        self._last_violations = merged
        self._last_breakdown = None
        if recovery is None:
            self._trace_summary_exchange(delta_bytes)
        self.last_update_trace = {
            "mode": "incremental",
            "bootstrap": bootstrap,
            "batches": len(batches),
            "lane_tasks": len(results),
            "shards_total": len(self._shard_layout),
            "shards_touched": len(touched_shards),
            "routed_deletes": total_deletes,
            "routed_inserts": total_inserts,
            "summary_groups_touched": groups_touched,
            "readback_tids": readback_tids,
        }
        if recovery is not None:
            self.last_update_trace.update(recovery)
        transport = self.transport_stats()
        if transport is not None:
            self.last_update_trace["transport"] = transport
        return merged

    def shard_stats(self) -> list[dict]:
        """Per-shard state statistics from the live shard states.

        Bootstraps the states if needed and returns one entry per shard —
        the shard index, the plan's partition ``key`` and the delegate's
        ``state_stats()`` (tuples, Aux(D) groups, macro rows) — so
        operators can see where the maintained memory actually lives
        instead of guessing.  Remote lanes also name their worker
        ``address``.
        """
        self._ensure_shard_states()
        key = tuple(self._plan.key) if self.workers > 1 else ()
        lanes = self._ensure_lanes()
        stats = []
        for shard, shard_stats in self._query_states("state_stats"):
            entry = {"shard": shard, "key": key, **shard_stats}
            address = lanes.lane_label(shard)
            if address is not None:
                entry["address"] = address
            stats.append(entry)
        self._release_unmaintained_states()
        return stats

    def transport_stats(self) -> dict[str, int] | None:
        """The remote fabric's transport counters, ``None`` off the remote path.

        Cumulative over the backend's lifetime: ``rpc_calls`` /
        ``rpc_retries``, ``bytes_sent`` / ``bytes_received`` on the wire,
        and the recovery counters ``lanes_lost`` / ``repins``.
        """
        return self._lanes.transport_stats() if self._lanes is not None else None

    def partition_stats(self) -> dict:
        """The single-pass plan and its replication / summary accounting.

        Reports the primary ``key``, the local/summary fragment split, the
        replication factor (1.0 by construction — every stored row ships to
        exactly one shard) and the group count / wire bytes of the most
        recent summary exchange.
        """
        return {
            "key": tuple(self._plan.key),
            "workers": self.workers,
            "local_fragments": len(self._plan.local_fragments),
            "summary_fragments": len(self._plan.summary_fragments),
            "replication_factor": self._plan.replication_factor,
            "summary_groups": self._summary_trace.get("groups", 0),
            "summary_bytes": self._summary_trace.get("bytes", 0),
            "summary_witnesses": self._summary_trace.get("witnesses", 0),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def violation_counts(self) -> dict[str, int]:
        return self.detect().summary()

    def breakdown(self) -> dict[int, dict[str, int]]:
        # The per-constraint statistics cost the SQL delegates an extra
        # grouped Q_sv pass per shard, so plain detect() skips them.  An
        # uncached request is served from the live shard states plus the
        # summary store (bootstrapping them first if none are live).
        if self._last_breakdown is None:
            self._detect(want_breakdown=True)
        assert self._last_breakdown is not None
        return dict(self._last_breakdown)

    @property
    def summary_store(self) -> SummaryStore:
        """The coordinator's merged cross-shard group summaries (live view).

        Fed full summaries at bootstrap and signed deltas on every
        incremental update.  Sharded repair reads its
        ``(cid, xv) → yv-multiset`` state to elect group fixes without
        pulling rows off the shards.
        """
        return self._summary_store

    def summary_fragment_cids(self) -> frozenset[int]:
        """Global CIDs of the fragments resolved through the summary merge.

        Empty for ``workers <= 1`` (one whole-Σ shard — every fragment is
        local, and the summary store stays unused).
        """
        if self.workers <= 1:
            return frozenset()
        return frozenset(cid for cid, _ in self._plan.summary_fragments)

    def shard_plan(self) -> list[tuple[tuple[str, ...], list[int]]]:
        """The plan's fragment sides as ``(key, [global CIDs])`` pairs.

        The first entry is the locally-evaluated side under the primary
        key; a second entry (present when Σ has summary fragments) carries
        the summary-merged side (its key is empty — those groups are merged
        across shards, not co-located).
        """
        entries = [
            (tuple(self._plan.key), sorted(cid for cid, _ in self._plan.local_fragments))
        ]
        if self._plan.summary_fragments:
            entries.append(
                ((), sorted(cid for cid, _ in self._plan.summary_fragments))
            )
        return entries

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the shard states, then shut the lanes down.

        Idempotent.  The states are dropped on their lanes first (while
        the lanes — and remote connections — are still open), then the
        lanes go down, taking any workers they spawned with them —
        externally provided workers are left running.
        """
        self._invalidate_shard_states()
        if self._lanes is not None:
            self._lanes.close()
            self._lanes = None


register_backend(ShardedBackend.name, ShardedBackend)
