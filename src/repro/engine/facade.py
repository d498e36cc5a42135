"""The :class:`DataQualityEngine` façade — one front door to the library.

Every workflow in the reproduction (examples, experiment drivers, tests,
benchmarks) needs the same lifecycle: pick a detection strategy, load data,
detect violations, maybe apply updates, maybe repair, maybe mine new
constraints, summarise.  The façade owns that lifecycle end to end::

    engine = DataQualityEngine(schema, sigma, backend="batch")
    engine.load(rows)                      # chunked ingestion
    result = engine.detect()               # DetectionResult
    result = engine.apply_update(delta)    # INCDETECT when supported
    repair = engine.repair()               # RepairResult
    report = engine.report()               # QualityReport

Detection strategies are looked up in the backend registry of
:mod:`repro.engine.backends`; ``apply_update`` routes to INCDETECT when the
backend advertises incremental support and falls back to a full BATCHDETECT
recomputation otherwise, so callers write one code path for both.
"""

from __future__ import annotations

import time
from itertools import islice
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.analysis.satisfiability import is_satisfiable
from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.schema import RelationSchema, Value
from repro.discovery.discover import DiscoveryResult, discover_ecfd
from repro.engine.backends import DetectorBackend, NaiveBackend, create_backend
from repro.engine.results import DetectionResult, QualityReport, RepairResult
from repro.exceptions import EngineError, UnsatisfiableError
from repro.repair.cost import RepairCostModel
from repro.repair.strategies import RepairOutcome, create_strategy

__all__ = ["DataQualityEngine", "DEFAULT_CHUNK_SIZE"]

#: Default ingestion chunk size for :meth:`DataQualityEngine.load`.
DEFAULT_CHUNK_SIZE = 2_000


def _chunks(rows: Iterable[Mapping[str, Value]], size: int) -> Iterator[list[Mapping[str, Value]]]:
    """Yield ``rows`` in lists of at most ``size`` (works for generators too)."""
    iterator = iter(rows)
    while chunk := list(islice(iterator, size)):
        yield chunk


class DataQualityEngine:
    """Unified data-quality lifecycle over a pluggable detector backend.

    Parameters
    ----------
    schema:
        Relation schema of the data under management.
    sigma:
        The eCFD workload (an :class:`~repro.core.ecfd.ECFDSet` or any
        sequence of eCFDs).
    backend:
        Registry name of the detection strategy (``"naive"``, ``"batch"``,
        ``"incremental"``, ``"sharded"``, or anything registered via
        :func:`~repro.engine.backends.register_backend`).
    path:
        Storage location for database-backed backends; the default keeps
        everything in-process.
    chunk_size:
        Default chunk size for :meth:`load`.
    workers:
        Parallelism for detection.  With ``workers > 1`` the engine routes
        ``detect`` / ``apply_update`` through the sharded multi-core backend
        (:class:`~repro.parallel.ShardedBackend`), running ``backend`` as
        the per-shard delegate; ``workers=1`` (default) keeps the delegate
        single-threaded, exactly as before.  With ``backend="sharded"`` the
        given count is used verbatim (``workers=1`` means a serial
        single-task pass), so ``engine.workers`` always reflects the actual
        parallelism.
    executor:
        Where the sharded backend's stateful shard lanes run — the lanes
        serve detection and updates alike: ``"process"`` (default, one
        process per lane), ``"thread"``, ``"serial"`` (inline) or
        ``"remote"`` (standalone worker processes over the RPC fabric —
        see :class:`~repro.parallel.ShardedBackend`).  Ignored when
        ``workers=1`` unless ``backend="sharded"``.
    remote_workers:
        Worker fleet for ``executor="remote"``: a list of ``"host:port"``
        addresses, or an integer to spawn that many localhost workers the
        engine owns.  ``None`` reads ``REPRO_REMOTE_WORKERS`` and falls
        back to auto-spawning.
    rpc_timeout:
        Per-call reply deadline of the remote executor, seconds.
    """

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        backend: str = "batch",
        path: str = ":memory:",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: int = 1,
        executor: str = "process",
        remote_workers: Any = None,
        rpc_timeout: float = 30.0,
    ):
        self.schema = schema
        self.sigma = sigma if isinstance(sigma, ECFDSet) else ECFDSet(list(sigma))
        self.chunk_size = chunk_size
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        sharded_kwargs: dict[str, Any] = {"workers": workers, "executor": executor}
        if executor == "remote":
            sharded_kwargs["remote_workers"] = remote_workers
            sharded_kwargs["rpc_timeout"] = rpc_timeout
        elif remote_workers is not None:
            raise EngineError(
                "remote_workers only applies to executor='remote' "
                f"(got executor={executor!r})"
            )
        if backend == "sharded":
            # Explicit sharded backend: honour the given worker count
            # verbatim (workers=1 is a serial single-task pass), so
            # engine.workers always describes the actual parallelism.
            self.backend: DetectorBackend = create_backend(
                backend, schema=schema, sigma=self.sigma, path=path,
                **sharded_kwargs,
            )
        elif workers > 1:
            self.backend = create_backend(
                "sharded", schema=schema, sigma=self.sigma, path=path,
                delegate=backend, **sharded_kwargs,
            )
        else:
            self.backend = create_backend(
                backend, schema=schema, sigma=self.sigma, path=path
            )
        self.backend_name = self.backend.name
        self._last_detection: DetectionResult | None = None

    # ------------------------------------------------------------------
    # Constraint-set validation
    # ------------------------------------------------------------------
    def validate(self, require: bool = False) -> bool:
        """Whether Σ is satisfiable (Section III analysis).

        With ``require=True`` an unsatisfiable workload raises
        :class:`~repro.exceptions.UnsatisfiableError` instead of returning
        ``False`` — useful at pipeline start, before loading any data.
        """
        satisfiable = is_satisfiable(self.sigma)
        if require and not satisfiable:
            raise UnsatisfiableError(
                "the engine's constraint set is unsatisfiable; every non-empty "
                "database would be dirty and no repair could exist"
            )
        return satisfiable

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def load(
        self,
        data: Relation | Iterable[Mapping[str, Value]],
        chunk_size: int | None = None,
    ) -> int:
        """Ingest data into the backend; returns the number of rows loaded.

        A :class:`~repro.core.instance.Relation` is loaded with its tuple
        identifiers preserved; any other iterable of row mappings (lists,
        generators, ...) is consumed in chunks of ``chunk_size`` so
        arbitrarily large inputs never materialise at once.  Chunked and
        one-shot loads assign identical tids.
        """
        if isinstance(data, Relation):
            return self.backend.load_relation(data)
        size = chunk_size if chunk_size is not None else self.chunk_size
        if size <= 0:
            raise EngineError(f"chunk_size must be positive, got {size}")
        loaded = 0
        for chunk in _chunks(data, size):
            self.backend.load_rows(chunk)
            loaded += len(chunk)
        return loaded

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def detect(self, with_breakdown: bool = False) -> DetectionResult:
        """Run the backend's detection and return a structured result.

        ``with_breakdown=True`` additionally computes the per-constraint
        statistics (for SQL backends these are follow-up queries outside the
        timed region; backends like ``sharded`` collect them inside the same
        detection pass via ``detect_with_breakdown`` so nothing runs twice).
        """
        started = time.perf_counter()
        violations = (
            self.backend.detect_with_breakdown() if with_breakdown else self.backend.detect()
        )
        seconds = time.perf_counter() - started
        result = DetectionResult.from_violations(
            backend=self.backend_name,
            violations=violations,
            tuple_count=self.backend.count(),
            seconds=seconds,
            per_constraint=self.backend.breakdown() if with_breakdown else None,
        )
        self._last_detection = result
        return result

    def apply_update(
        self,
        delta: Any = None,
        *,
        insert_rows: Sequence[Mapping[str, Value]] = (),
        delete_tids: Sequence[int] = (),
        with_breakdown: bool = False,
    ) -> DetectionResult:
        """Apply an update ΔD and return the violation set of the updated data.

        ``delta`` may be anything exposing ``insert_rows`` / ``delete_tids``
        (e.g. :class:`~repro.datagen.updates.UpdateBatch`) or a mapping with
        those keys; the keyword arguments extend whatever the delta carries.
        Deletions are applied before insertions, matching INCDETECT's ΔD⁻ /
        ΔD⁺ processing order.

        When the backend supports incremental detection the violation set is
        *maintained* (INCDETECT, cost proportional to the affected part of
        the database); otherwise the delta is applied to storage and a full
        re-detection runs, with the application time reported separately in
        ``apply_seconds``.  This holds under sharding too: with
        ``workers > 1`` and an incremental-capable backend the delta is
        routed through the partition plan to persistent per-shard INCDETECT
        states, so only the shards the delta lands on do any work (see
        :class:`~repro.parallel.ShardedBackend`); first-time shard
        bootstrapping happens in ``ensure_ready`` outside the timed region.
        """
        deletes, inserts = self._normalize_delta(delta, delete_tids, insert_rows)

        if self.backend.supports_incremental:
            # The paper assumes vio(D) is known before the update arrives, so
            # a first-time initialisation must not count as update cost.
            self.backend.ensure_ready()
            started = time.perf_counter()
            violations = self.backend.incremental_update(deletes, inserts)
            detect_seconds = time.perf_counter() - started
            apply_seconds, incremental = 0.0, True
        else:
            started = time.perf_counter()
            self.backend.apply_delta(deletes, inserts)
            applied = time.perf_counter()
            violations = (
                self.backend.detect_with_breakdown()
                if with_breakdown
                else self.backend.detect()
            )
            detect_seconds = time.perf_counter() - applied
            apply_seconds, incremental = applied - started, False

        result = DetectionResult.from_violations(
            backend=self.backend_name,
            violations=violations,
            tuple_count=self.backend.count(),
            seconds=detect_seconds,
            apply_seconds=apply_seconds,
            incremental=incremental,
            per_constraint=self.backend.breakdown() if with_breakdown else None,
        )
        self._last_detection = result
        return result

    @staticmethod
    def _normalize_delta(
        delta: Any,
        delete_tids: Sequence[int] = (),
        insert_rows: Sequence[Mapping[str, Value]] = (),
    ) -> tuple[list[int], list[Mapping[str, Value]]]:
        """``(delete_tids, insert_rows)`` of a delta in any accepted shape."""
        deletes, inserts = list(delete_tids), list(insert_rows)
        if delta is not None:
            if isinstance(delta, Mapping):
                unknown = set(delta) - {"delete_tids", "insert_rows"}
                if unknown:
                    raise EngineError(
                        f"unrecognized delta keys {sorted(unknown)}; "
                        "expected 'delete_tids' and/or 'insert_rows'"
                    )
                deletes = list(delta.get("delete_tids", ())) + deletes
                inserts = list(delta.get("insert_rows", ())) + inserts
            elif hasattr(delta, "delete_tids") or hasattr(delta, "insert_rows"):
                deletes = list(getattr(delta, "delete_tids", ())) + deletes
                inserts = list(getattr(delta, "insert_rows", ())) + inserts
            else:
                raise EngineError(
                    "delta must expose 'insert_rows' / 'delete_tids' "
                    f"(got {type(delta).__name__})"
                )
        return deletes, inserts

    def apply_updates(self, deltas: Iterable[Any]) -> DetectionResult:
        """Apply an ordered sequence of updates in one pipelined call.

        Each element of ``deltas`` is anything :meth:`apply_update` accepts
        as a delta (an :class:`~repro.datagen.updates.UpdateBatch`, a
        mapping with ``delete_tids`` / ``insert_rows`` keys, ...); batches
        are applied in order with the single-call semantics — the returned
        result describes the state after the last one.  On an
        incremental-capable backend the whole sequence goes through the
        backend's ``incremental_update_many``, which the sharded backend
        pipelines: batch ``N+1`` is routed while the shard lanes are still
        processing batch ``N``, with one coordinator barrier at the end
        instead of one per call.  Other backends fold the sequence into a
        single storage delta and re-detect once.
        """
        batches = [self._normalize_delta(delta) for delta in deltas]
        if self.backend.supports_incremental:
            self.backend.ensure_ready()
            started = time.perf_counter()
            violations = self.backend.incremental_update_many(
                [(deletes, inserts, None) for deletes, inserts in batches]
            )
            detect_seconds = time.perf_counter() - started
            apply_seconds, incremental = 0.0, True
        else:
            # No maintained state to keep exact per batch — apply every
            # batch to storage, then detect once over the final data.
            started = time.perf_counter()
            for deletes, inserts in batches:
                self.backend.apply_delta(deletes, inserts)
            applied = time.perf_counter()
            violations = self.backend.detect()
            detect_seconds = time.perf_counter() - applied
            apply_seconds, incremental = applied - started, False

        result = DetectionResult.from_violations(
            backend=self.backend_name,
            violations=violations,
            tuple_count=self.backend.count(),
            seconds=detect_seconds,
            apply_seconds=apply_seconds,
            incremental=incremental,
        )
        self._last_detection = result
        return result

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _default_repair_strategy(self) -> str:
        """The repair strategy best matched to the engine's backend.

        Sharded engines with an incremental-capable delegate get the
        ``"sharded"`` strategy (routed fix deltas, summary-elected group
        fixes); other incremental-capable backends get ``"incremental"``
        (INCDETECT delta re-validation); everything else falls back to the
        ``"greedy"`` full-re-detection baseline.
        """
        if self.backend.supports_incremental:
            if getattr(self.backend, "summary_store", None) is not None:
                return "sharded"
            return "incremental"
        return "greedy"

    def repair(
        self,
        strategy: str | None = None,
        max_rounds: int = 10,
        cost_model: RepairCostModel | None = None,
        apply: bool = True,
    ) -> RepairResult:
        """Repair the stored data in place with a pluggable strategy.

        ``strategy`` names a registered repair strategy (``"greedy"``,
        ``"incremental"``, ``"sharded"``, or anything added via
        :func:`repro.repair.register_strategy`); the default picks the
        strongest one the backend supports.  Fixes are applied to the
        backend **in place** under the original tuple identifiers — no
        materialise-and-reload — and incremental strategies re-validate each
        round through the backend's maintained violation state (for sharded
        engines the per-shard INCDETECT states stay live across the repair
        and the fix deltas are routed like any other update).  Repair runs
        through the engine's own backend, so its parallelism is the
        engine's ``workers``.

        ``apply=False`` is a dry run: the greedy strategy repairs a scratch
        copy of the data and returns the same audit an applied greedy
        repair would, while the stored data is left untouched.

        Raises
        ------
        RepairError
            If Σ is unsatisfiable or the strategy fails to converge within
            ``max_rounds``.
        """
        if strategy is None:
            strategy = self._default_repair_strategy() if apply else "greedy"
        if not apply and strategy != "greedy":
            raise EngineError(
                f"apply=False plans the repair on a materialised copy and "
                f"only supports the 'greedy' strategy (got {strategy!r})"
            )
        started = time.perf_counter()
        repairer = create_strategy(
            strategy, sigma=self.sigma, cost_model=cost_model, max_rounds=max_rounds
        )
        target = self.backend
        if not apply:
            # The dry run's scratch copy takes the greedy loop's one write.
            target = NaiveBackend(self.schema, self.sigma)
            target.load_relation(self.backend.to_relation())
        outcome = repairer.repair(target)
        repair_seconds = time.perf_counter() - started
        return self._repair_result(strategy, outcome, repair_seconds)

    def _repair_result(
        self, strategy: str, outcome: RepairOutcome, seconds: float
    ) -> RepairResult:
        changes = tuple(
            {
                "tid": change.tid,
                "attribute": change.attribute,
                "before": change.old_value,
                "after": change.new_value,
            }
            for change in outcome.changes
        )
        return RepairResult(
            backend=self.backend_name,
            strategy=strategy,
            # Strategies raise RepairError instead of returning dirty data,
            # so a returned outcome is a converged (clean) repair.
            clean=True,
            cells_changed=outcome.change_count,
            tuples_changed=len(outcome.changed_tids()),
            cost=outcome.cost,
            rounds=outcome.rounds,
            seconds=seconds,
            changes=changes,
            trace=dict(outcome.trace),
            relation=outcome.relation,
        )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self, x: Sequence[str], a: str, **thresholds: Any) -> DiscoveryResult:
        """Mine an eCFD ``(R: X -> ∅, {A}, Tp)`` from the stored data.

        ``thresholds`` are passed through to
        :func:`repro.discovery.discover_ecfd` (``min_support``,
        ``min_confidence``, ``max_rhs_values``, ``name``).
        """
        return discover_ecfd(self.backend.to_relation(), x, a, **thresholds)

    # ------------------------------------------------------------------
    # Reporting / introspection
    # ------------------------------------------------------------------
    def report(self) -> QualityReport:
        """A full quality report: workload statistics plus a fresh detection."""
        detection = self.detect(with_breakdown=True)
        return QualityReport(
            schema_name=self.schema.name,
            backend=self.backend_name,
            constraint_count=len(self.sigma),
            pattern_count=self.sigma.pattern_count(),
            satisfiable=self.validate(),
            tuple_count=detection.tuple_count,
            detection=detection,
        )

    @property
    def last_detection(self) -> DetectionResult | None:
        """The most recent detection result, if any."""
        return self._last_detection

    def count(self) -> int:
        """Number of tuples currently stored."""
        return self.backend.count()

    def tids(self) -> list[int]:
        """All stored tuple identifiers, ascending."""
        return self.backend.tids()

    def to_relation(self) -> Relation:
        """The stored data as an in-memory relation (tids preserved)."""
        return self.backend.to_relation()

    def violation_counts(self) -> dict[str, int]:
        """SV / MV / dirty counts of the latest detection state."""
        return self.backend.violation_counts()

    def shard_stats(self) -> list[dict]:
        """Per-shard maintained-state statistics, for sharded incremental engines.

        Each entry reports one live shard: its ``shard`` index, the plan's
        partition ``key`` and the INCDETECT state sizes (``tuples``,
        ``aux_groups`` — the shard's Aux(D) memory — ``macro_rows``,
        ``initialized``).  Only meaningful when the engine runs a sharded
        incremental backend (``workers > 1`` over an incremental-capable
        delegate); other backends raise
        :class:`~repro.exceptions.EngineError`.
        """
        stats = getattr(self.backend, "shard_stats", None)
        if stats is None:
            raise EngineError(
                f"backend {self.backend_name!r} does not expose per-shard statistics; "
                "construct the engine with workers > 1 over an incremental delegate"
            )
        return stats()

    def partition_stats(self) -> dict:
        """The sharded backend's partition-plan and summary accounting.

        Reports the primary hash ``key``, the local/summary fragment split,
        the ``replication_factor`` (1.0 under the single-pass plan — every
        stored row ships to exactly one shard) and the group
        count / wire bytes of the most recent cross-shard summary exchange.
        Only meaningful on sharded engines; other backends raise
        :class:`~repro.exceptions.EngineError`.
        """
        stats = getattr(self.backend, "partition_stats", None)
        if stats is None:
            raise EngineError(
                f"backend {self.backend_name!r} does not expose partition statistics; "
                "construct the engine with workers > 1 (or backend='sharded')"
            )
        return stats()

    @property
    def database(self):
        """The backend's SQLite substrate, when it has one (else ``None``)."""
        return self.backend.database

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources."""
        self.backend.close()

    def __enter__(self) -> "DataQualityEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataQualityEngine(schema={self.schema.name!r}, "
            f"backend={self.backend_name!r}, tuples={self.count()}, "
            f"constraints={len(self.sigma)})"
        )
