"""Pluggable detector backends and the string-keyed backend registry.

The three detectors of :mod:`repro.detection` grew three different call
conventions: ``NaiveDetector(sigma).detect(relation)`` works on in-memory
relations, ``BatchDetector(db, sigma).detect()`` owns a SQLite database, and
``IncrementalDetector(db, sigma)`` adds update entry points on top.  The
engine façade needs one interface, so this module defines

* :class:`DetectorBackend` — the abstract interface every backend
  implements: data lifecycle (``load_rows`` / ``load_relation`` /
  ``apply_delta`` / ``clear``), detection (``detect`` and, for backends
  advertising ``supports_incremental``, ``incremental_update``) and
  introspection (``count`` / ``tids`` / ``to_relation`` /
  ``violation_counts`` / ``breakdown``);
* three adapters wrapping the existing detectors without changing their
  direct use: :class:`NaiveBackend`, :class:`BatchBackend` and
  :class:`IncrementalBackend`;
* a string-keyed registry (:func:`register_backend`,
  :func:`available_backends`, :func:`create_backend`) that further backends
  plug into — :class:`repro.parallel.ShardedBackend` registers itself here
  as ``"sharded"``, wrapping any of the three adapters below as per-shard
  delegates.

Tuple-identifier discipline
---------------------------
All backends assign identifiers exactly like the SQLite substrate does
(fresh rows get ``max(tid) + 1`` onward, relations keep their own tids, and
values are stored as text), so violation sets produced by different backends
over the same load/update history are directly comparable — the invariant
the engine's cross-backend equivalence guarantees rest on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from typing import ClassVar

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.schema import RelationSchema, Value
from repro.core.violations import ViolationSet
from repro.detection.batch import BatchDetector
from repro.detection.database import ECFDDatabase
from repro.detection.encoding import AUX_TABLE, ENC_TABLE, MACRO_TABLE
from repro.detection.incremental import IncrementalDetector
from repro.detection.naive import NaiveDetector
from repro.detection.sqlgen import (
    group_key_join,
    lhs_match_condition,
    rhs_violation_condition,
)
from repro.detection.summaries import summarize_rows
from repro.exceptions import EngineError, SchemaError, UnknownBackendError

__all__ = [
    "DetectorBackend",
    "InMemoryRelationBackend",
    "NaiveBackend",
    "BatchBackend",
    "IncrementalBackend",
    "BatchDuckDBBackend",
    "IncrementalDuckDBBackend",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "create_backend",
    "resolve_backend_factory",
]


class DetectorBackend(ABC):
    """One detection strategy behind the :class:`~repro.engine.DataQualityEngine`.

    Parameters
    ----------
    schema:
        Relation schema of the data the backend stores.
    sigma:
        The eCFD workload to check.
    path:
        Storage location for database-backed backends (ignored by purely
        in-memory ones); the default keeps everything in-process.
    """

    #: Registry key of the backend (set by subclasses).
    name: ClassVar[str] = ""
    #: Whether :meth:`incremental_update` maintains violations without a full pass.
    supports_incremental: ClassVar[bool] = False
    #: Full detection passes run so far — the trace counter the repair
    #: strategies' "no hidden recompute" guarantees are asserted on.
    #: Backends that track it shadow this with an instance attribute (or a
    #: property); 0 means "never counted", not "never detected".
    full_detect_count: int = 0

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        self.schema = schema
        self.sigma = sigma if isinstance(sigma, ECFDSet) else ECFDSet(list(sigma))

    # ------------------------------------------------------------------
    # Data lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def load_rows(self, rows: Sequence[Mapping[str, Value]]) -> list[int]:
        """Insert plain rows; returns the assigned tuple identifiers."""

    @abstractmethod
    def load_relation(self, relation: Relation) -> int:
        """Insert an in-memory relation preserving its tids; returns the row count."""

    @abstractmethod
    def apply_delta(
        self, delete_tids: Sequence[int], insert_rows: Sequence[Mapping[str, Value]]
    ) -> list[int]:
        """Apply an update to *storage only* (no violation maintenance).

        Returns the tids assigned to the inserted rows.  Backends that
        maintain detection state across calls must invalidate it here.
        """

    @abstractmethod
    def clear(self) -> None:
        """Drop every stored tuple (detection state is recomputed on next use)."""

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    @abstractmethod
    def detect(self) -> ViolationSet:
        """The violation set of the currently stored data."""

    def detect_with_breakdown(self) -> ViolationSet:
        """Detect, also preparing :meth:`breakdown` for the same pass.

        For most backends the per-constraint statistics are cheap follow-up
        queries on maintained state, so the default is a plain
        :meth:`detect`.  Backends that would otherwise have to repeat the
        whole detection to answer :meth:`breakdown` (sharded) override this
        to collect both in one pass; the engine calls it when the caller
        asked for a breakdown.
        """
        return self.detect()

    def incremental_update(
        self,
        delete_tids: Sequence[int],
        insert_rows: Sequence[Mapping[str, Value]],
        insert_tids: Sequence[int] | None = None,
    ) -> ViolationSet:
        """Apply an update *and* maintain the violation set in one step.

        Only available when :attr:`supports_incremental` is true; the engine
        falls back to ``apply_delta`` + ``detect`` otherwise.  Deletions are
        processed before insertions (the ΔD⁻ / ΔD⁺ order of INCDETECT).

        ``insert_tids`` optionally pins the identifiers of the inserted rows
        (aligned with ``insert_rows``).  Ordinary callers leave it ``None``
        — fresh ``max(tid) + 1`` identifiers are assigned, exactly like
        ``apply_delta`` — but a *coordinator* holding the global tid
        sequence (the sharded backend driving per-shard delegates) must pin
        them so shard-local state stays tid-compatible with a
        single-threaded pass.
        """
        raise EngineError(
            f"backend {self.name!r} does not support incremental updates"
        )

    def incremental_update_many(
        self,
        batches: Sequence[
            tuple[Sequence[int], Sequence[Mapping[str, Value]], Sequence[int] | None]
        ],
    ) -> ViolationSet:
        """Apply a sequence of updates, maintaining violations throughout.

        ``batches`` is an ordered sequence of ``(delete_tids, insert_rows,
        insert_tids)`` triples with the same per-batch semantics as
        :meth:`incremental_update`; the returned violation set describes the
        state after the *last* batch (for an empty sequence: the current
        maintained state).  The default replays the batches one at a time —
        semantically the reference behaviour every override must match.
        Backends with a fan-out path override it to *pipeline* the whole
        sequence (the sharded backend routes batch ``N+1`` while its lanes
        are still chewing batch ``N``), which must stay bit-exact with this
        sequential replay.
        """
        violations: ViolationSet | None = None
        for delete_tids, insert_rows, insert_tids in batches:
            violations = self.incremental_update(
                delete_tids, insert_rows, insert_tids=insert_tids
            )
        if violations is None:
            self.ensure_ready()
            violations = self.detect()
        return violations

    def ensure_ready(self) -> None:
        """Bring any lazily initialised detection state up to date.

        Called by the engine before timing an incremental update, so
        first-time initialisation cost is never attributed to the update.
        """

    def apply_cell_changes(self, changes: Sequence) -> None:
        """Apply repair cell changes to storage, preserving tuple identifiers.

        ``changes`` is a sequence of :class:`repro.repair.cost.CellChange`
        (duck-typed: ``tid`` / ``attribute`` / ``new_value``), applied in
        order — the in-place fix path of :meth:`DataQualityEngine.repair`,
        replacing the old materialise-and-reload.  Values are stringified
        like every other ingestion path.  Backends that maintain detection
        state across calls must invalidate it here.  The generic fallback
        patches a materialised copy and reloads it; the built-in adapters
        override with true in-place updates.
        """
        patched = self.to_relation()
        for change in changes:
            patched.replace_cell(change.tid, change.attribute, str(change.new_value))
        self.clear()
        self.load_relation(patched)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def count(self) -> int:
        """Number of stored tuples."""

    @abstractmethod
    def tids(self) -> list[int]:
        """All stored tuple identifiers, ascending."""

    @abstractmethod
    def to_relation(self) -> Relation:
        """Materialise the stored data as an in-memory relation (tids preserved)."""

    @abstractmethod
    def violation_counts(self) -> dict[str, int]:
        """SV / MV / dirty counts of the latest detection state."""

    def breakdown(self) -> dict[int, dict[str, int]]:
        """Per-constraint violation statistics keyed by normalized ``CID``.

        Each entry carries ``sv`` (tuples violating the pattern constraint),
        ``mv_groups`` (violating embedded-FD groups) and ``mv_tuples``
        (tuples inside those groups).  Backends without the necessary
        bookkeeping may return an empty mapping.
        """
        return {}

    def fd_group_summary(self, fragments: Sequence[tuple[int, ECFD]]) -> dict:
        """Embedded-FD group summaries of the stored data.

        The shard-side emission hook of single-pass sharded detection
        (:mod:`repro.detection.summaries`): per ``(global CID, fragment)``
        pair, the ``(cid, xv) → (yv multiset, witness tids)`` groups of
        every stored tuple matching the fragment's LHS pattern — bounded
        output (aggregated groups, never raw rows).  The default
        materialises the stored relation and matches in Python, which any
        backend supports; the built-in adapters override it with their
        detectors' cheaper paths (bound relation / pushed-down SQL scan).
        Pattern constants are text, so every path matches like
        :func:`~repro.detection.summaries.summary_delta`, which emits the
        update deltas the lanes later fold into the same store.
        """
        relation = self.to_relation()
        return summarize_rows(fragments, ((t.tid, t) for t in relation.tuples()))

    @property
    def database(self) -> ECFDDatabase | None:
        """The SQL substrate, for backends that have one (else ``None``)."""
        return None

    def close(self) -> None:
        """Release any resources held by the backend."""


# ----------------------------------------------------------------------
# In-memory backends
# ----------------------------------------------------------------------
class InMemoryRelationBackend(DetectorBackend):
    """Shared storage plumbing for backends keeping an in-memory relation.

    Implements the data lifecycle over a :class:`~repro.core.instance.Relation`
    with the SQLite substrate's discipline (fresh rows get ``max(tid) + 1``
    onward, every value stored as text) so violation sets stay comparable
    across backends.  Subclasses provide detection; :meth:`_on_mutation` is
    called after every storage change for cache invalidation.
    """

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        super().__init__(schema, sigma, path)
        self._relation = Relation(schema)

    # -- data lifecycle -------------------------------------------------
    def _max_tid(self) -> int:
        tids = self._relation.tids()
        return tids[-1] if tids else 0

    def _stringified(self, row: Mapping[str, Value]) -> dict[str, str]:
        # Mirror the SQLite substrate, which stores every value as TEXT.
        return {a: str(row[a]) for a in self.schema.attribute_names}

    def _on_mutation(self) -> None:
        """Hook run after every storage change (default: nothing)."""

    def load_rows(self, rows: Sequence[Mapping[str, Value]]) -> list[int]:
        start = self._max_tid() + 1
        assigned = []
        for offset, row in enumerate(rows):
            stored = self._relation.insert_with_tid(start + offset, self._stringified(row))
            assigned.append(stored.tid)
        self._on_mutation()
        return assigned

    def load_relation(self, relation: Relation) -> int:
        if relation.schema != self.schema:
            raise EngineError(
                f"relation over {relation.schema.name!r} cannot be loaded into a "
                f"backend for {self.schema.name!r}"
            )
        for t in relation.tuples():
            assert t.tid is not None
            self._relation.insert_with_tid(t.tid, self._stringified(t))
        self._on_mutation()
        return len(relation)

    def apply_delta(
        self, delete_tids: Sequence[int], insert_rows: Sequence[Mapping[str, Value]]
    ) -> list[int]:
        for tid in delete_tids:
            if self._relation.get(tid) is not None:
                self._relation.delete(tid)
        return self.load_rows(list(insert_rows))

    def clear(self) -> None:
        self._relation = Relation(self.schema)
        self._on_mutation()

    def apply_cell_changes(self, changes: Sequence) -> None:
        # All or nothing, like the SQL backends' rolled-back batch: reject an
        # unknown tid before writing any cell.
        for change in changes:
            if self._relation.get(change.tid) is None:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no tuple with tid={change.tid}"
                )
        try:
            for change in changes:
                self._relation.replace_cell(
                    change.tid, change.attribute, str(change.new_value)
                )
        finally:
            self._on_mutation()

    # -- introspection --------------------------------------------------
    def count(self) -> int:
        return len(self._relation)

    def tids(self) -> list[int]:
        return self._relation.tids()

    def to_relation(self) -> Relation:
        return self._relation.copy()


class NaiveBackend(InMemoryRelationBackend):
    """The reference (pure-Python) detector behind the engine interface.

    Keeps the data as an in-memory :class:`~repro.core.instance.Relation`
    and evaluates the reference semantics on every ``detect()``.  Slowest of
    the backends but dependency-free and fully introspectable — it is the
    oracle the SQL backends are validated against.
    """

    name = "naive"

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        super().__init__(schema, sigma, path)
        self.detector = NaiveDetector(self.sigma, self._relation)
        self.full_detect_count = 0

    def _on_mutation(self) -> None:
        # Any storage change invalidates the cached detection result (and
        # clear() swaps the relation object itself): introspection must
        # lazily re-detect instead of reporting pre-mutation flags.
        self.detector.relation = self._relation
        self.detector.last_violations = None

    # -- detection ------------------------------------------------------
    def detect(self) -> ViolationSet:
        self.full_detect_count += 1
        return self.detector.detect()

    def fd_group_summary(self, fragments: Sequence[tuple[int, ECFD]]) -> dict:
        # The bound relation is the storage itself — no materialising copy.
        return self.detector.fd_group_summary(fragments, relation=self._relation)

    # -- introspection --------------------------------------------------
    def violation_counts(self) -> dict[str, int]:
        return self.detector.violation_counts()

    def breakdown(self) -> dict[int, dict[str, int]]:
        violations = self.detector.last_violations
        if violations is None:
            violations = self.detect()
        per: dict[int, dict[str, object]] = {}

        def entry(cid: int) -> dict[str, object]:
            return per.setdefault(cid, {"sv": 0, "mv_groups": 0, "mv_tuples": set()})

        for record in violations.single_records:
            entry(record.constraint_id)["sv"] += 1  # type: ignore[operator]
        for record in violations.multi_records:
            slot = entry(record.constraint_id)
            slot["mv_groups"] += 1  # type: ignore[operator]
            slot["mv_tuples"].update(record.tids)  # type: ignore[union-attr]
        return {
            cid: {
                "sv": int(slot["sv"]),  # type: ignore[arg-type]
                "mv_groups": int(slot["mv_groups"]),  # type: ignore[arg-type]
                "mv_tuples": len(slot["mv_tuples"]),  # type: ignore[arg-type]
            }
            for cid, slot in sorted(per.items())
        }


# ----------------------------------------------------------------------
# SQL-backed backends
# ----------------------------------------------------------------------
def _sql_breakdown(database: ECFDDatabase) -> dict[int, dict[str, int]]:
    """Per-constraint statistics computed from the encoding/auxiliary tables.

    ``sv`` re-runs ``Q_sv`` grouped by constraint (the flags themselves do
    not record which constraint fired); the MV statistics come straight from
    the maintained Aux(D) and macro relations.
    """
    schema = database.schema
    dialect = database.dialect
    quote = dialect.quote_identifier
    per: dict[int, dict[str, int]] = {}

    def entry(cid: int) -> dict[str, int]:
        return per.setdefault(cid, {"sv": 0, "mv_groups": 0, "mv_tuples": 0})

    sv_rows = database.query(
        f"SELECT c.CID, COUNT(DISTINCT t.tid)\n"
        f"FROM {quote(schema.name)} t, {quote(ENC_TABLE)} c\n"
        f"WHERE {lhs_match_condition(schema, dialect=dialect)}\n"
        f"      AND ({rhs_violation_condition(schema, dialect=dialect)})\n"
        f"GROUP BY c.CID"
    )
    for cid, count in sv_rows:
        entry(cid)["sv"] = count

    for cid, count in database.query(
        f"SELECT cid, COUNT(*) FROM {quote(AUX_TABLE)} GROUP BY cid"
    ):
        entry(cid)["mv_groups"] = count

    for cid, count in database.query(
        f"SELECT a.cid, COUNT(DISTINCT m.tid)\n"
        f"FROM {quote(AUX_TABLE)} a\n"
        f"JOIN {quote(MACRO_TABLE)} m ON {group_key_join('m', 'a')}\n"
        f"GROUP BY a.cid"
    ):
        entry(cid)["mv_tuples"] = count

    return dict(sorted(per.items()))


class _SQLBackend(DetectorBackend):
    """Shared SQL plumbing for the BATCHDETECT / INCDETECT adapters.

    ``engine`` selects the SQL engine of the substrate (``"sqlite"`` is the
    dependency-free default; ``"duckdb"`` runs the same statements on the
    vectorized columnar engine).
    """

    #: SQL engine of the substrate; duckdb subclasses shadow this.
    engine: ClassVar[str] = "sqlite"

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        super().__init__(schema, sigma, path)
        self._database = ECFDDatabase(schema, path, engine=self.engine)

    @property
    def database(self) -> ECFDDatabase:
        return self._database

    def load_rows(self, rows: Sequence[Mapping[str, Value]]) -> list[int]:
        return self._database.insert_tuples(list(rows))

    def load_relation(self, relation: Relation) -> int:
        return self._database.load_relation(relation)

    def apply_delta(
        self, delete_tids: Sequence[int], insert_rows: Sequence[Mapping[str, Value]]
    ) -> list[int]:
        self._database.delete_tuples(delete_tids)
        if insert_rows:
            return self._database.insert_tuples(list(insert_rows))
        return []

    def clear(self) -> None:
        self._database.clear()

    def count(self) -> int:
        return self._database.count()

    def tids(self) -> list[int]:
        return self._database.all_tids()

    def to_relation(self) -> Relation:
        return self._database.to_relation()

    def violation_counts(self) -> dict[str, int]:
        return self._database.flag_counts()

    def apply_cell_changes(self, changes: Sequence) -> None:
        self._database.update_cells(
            (change.tid, change.attribute, change.new_value) for change in changes
        )
        # The flags, Aux(D) and macro rows described the pre-repair data;
        # leave the store looking fresh and never-detected so flag-reading
        # introspection (violation_counts, breakdown) re-detects instead of
        # reporting stale violations on the repaired rows.
        self._database.reset_flags()
        quote = self._database.dialect.quote_identifier
        self._database.execute(f"DELETE FROM {quote(AUX_TABLE)}")
        self._database.execute(f"DELETE FROM {quote(MACRO_TABLE)}")
        self._database.commit()

    def breakdown(self) -> dict[int, dict[str, int]]:
        return _sql_breakdown(self._database)

    def close(self) -> None:
        self._database.close()


class BatchBackend(_SQLBackend):
    """BATCHDETECT (Section V-A) behind the engine interface.

    Every ``detect()`` recomputes the flags, Aux(D) and the macro relation
    from scratch — the right choice for one-shot scans and for workloads
    whose updates rewrite most of the data.
    """

    name = "batch"

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        super().__init__(schema, sigma, path)
        self.detector = BatchDetector(self._database, self.sigma)
        self.full_detect_count = 0

    def detect(self) -> ViolationSet:
        self.full_detect_count += 1
        return self.detector.detect()

    def fd_group_summary(self, fragments: Sequence[tuple[int, ECFD]]) -> dict:
        return self.detector.fd_group_summary(fragments)


class IncrementalBackend(_SQLBackend):
    """INCDETECT (Section V-B) behind the engine interface.

    The first ``detect()`` runs the batch pass; afterwards
    :meth:`incremental_update` repairs the flags and Aux(D) touching only
    the affected part of the database.  Out-of-band loads and deltas reset
    the maintained state so the next detection re-initialises.
    """

    name = "incremental"
    supports_incremental = True

    def __init__(
        self,
        schema: RelationSchema,
        sigma: ECFDSet | Sequence[ECFD],
        path: str = ":memory:",
    ):
        super().__init__(schema, sigma, path)
        self.detector = IncrementalDetector(self._database, self.sigma)

    def detect(self) -> ViolationSet:
        return self.detector.detect()

    def ensure_ready(self) -> None:
        if not self.detector.initialized:
            self.detector.initialize()

    def incremental_update(
        self,
        delete_tids: Sequence[int],
        insert_rows: Sequence[Mapping[str, Value]],
        insert_tids: Sequence[int] | None = None,
    ) -> ViolationSet:
        result: ViolationSet | None = None
        if delete_tids:
            result = self.detector.delete_tuples(delete_tids)
        if insert_rows:
            result = self.detector.insert_tuples(list(insert_rows), tids=insert_tids)
        return result if result is not None else self.detector.violations()

    def fd_group_summary(self, fragments: Sequence[tuple[int, ECFD]]) -> dict:
        return self.detector.fd_group_summary(fragments)

    @property
    def full_detect_count(self) -> int:  # type: ignore[override]
        """Batch initialisation passes run by the maintained INCDETECT state.

        Incremental updates never move this counter — the repair strategies
        assert on it that delta re-validation ran zero full re-detections
        after the seeding scan.
        """
        return self.detector.full_detect_count

    @property
    def last_readback(self) -> dict | None:
        """Flag-readback diagnostics of the most recent incremental update."""
        return self.detector.last_readback

    def aux_size(self) -> int:
        """Number of violating groups in the maintained Aux(D) relation."""
        return self.detector.aux_size()

    def state_stats(self) -> dict[str, int]:
        """Size of the maintained INCDETECT state (tuples, Aux(D), macro rows)."""
        return self.detector.state_stats()

    def load_rows(self, rows: Sequence[Mapping[str, Value]]) -> list[int]:
        assigned = super().load_rows(rows)
        self.detector.reset()
        return assigned

    def load_relation(self, relation: Relation) -> int:
        loaded = super().load_relation(relation)
        self.detector.reset()
        return loaded

    def apply_delta(
        self, delete_tids: Sequence[int], insert_rows: Sequence[Mapping[str, Value]]
    ) -> list[int]:
        assigned = super().apply_delta(delete_tids, insert_rows)
        self.detector.reset()
        return assigned

    def apply_cell_changes(self, changes: Sequence) -> None:
        # An out-of-band storage mutation: the maintained flags / Aux(D) no
        # longer describe the data, so the state resets (the *incremental*
        # repair strategy avoids exactly this by shipping its fixes through
        # incremental_update instead).
        super().apply_cell_changes(changes)
        self.detector.reset()

    def clear(self) -> None:
        super().clear()
        self.detector.reset()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BackendFactory = Callable[..., DetectorBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under ``name`` (last registration wins).

    ``factory`` is called as ``factory(schema=..., sigma=..., path=...)``
    and must return a :class:`DetectorBackend`.
    """
    if not name:
        raise EngineError("backend name must be a non-empty string")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (unknown names raise the usual error)."""
    if name not in _REGISTRY:
        raise UnknownBackendError(name, available_backends())
    del _REGISTRY[name]


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_factory(name: str) -> BackendFactory:
    """The factory registered under ``name``.

    For callers that must carry the construction recipe across process
    boundaries — the sharded backend ships the resolved factory to its pool
    workers so runtime-registered delegates work even under ``spawn`` start
    methods, where child processes re-import a registry containing only the
    built-ins.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, available_backends()) from None


def create_backend(
    name: str,
    schema: RelationSchema,
    sigma: ECFDSet | Sequence[ECFD],
    path: str = ":memory:",
    **options,
) -> DetectorBackend:
    """Instantiate the backend registered under ``name``.

    Extra keyword ``options`` are forwarded to the factory for backends with
    configuration beyond the common trio — e.g. the ``sharded`` backend's
    ``delegate`` / ``workers`` / ``executor``.

    Raises
    ------
    UnknownBackendError
        When no backend is registered under ``name``; the message lists the
        available backends.
    """
    return resolve_backend_factory(name)(schema=schema, sigma=sigma, path=path, **options)


class BatchDuckDBBackend(BatchBackend):
    """BATCHDETECT on the DuckDB columnar engine (``backend="batch-duckdb"``).

    Byte-identical SQL pipeline, vectorized executor: relations bulk-load
    via Arrow/columnar appends and the detection queries run over columnar
    storage.  A plain picklable class (not a closure) so sharded lanes can
    ship it as a delegate factory.  Construction raises an actionable
    :class:`~repro.exceptions.DetectionError` when the optional ``duckdb``
    package is not installed.
    """

    name = "batch-duckdb"
    engine = "duckdb"


class IncrementalDuckDBBackend(IncrementalBackend):
    """INCDETECT on the DuckDB columnar engine (``backend="incremental-duckdb"``).

    The maintained-state SQL of Section V-B is engine-portable, so the
    incremental path runs on DuckDB unchanged — without secondary indexes:
    the affected-group joins are answered by vectorized scans instead
    (see :meth:`~repro.detection.dialect.DuckDBDialect.create_index`).
    """

    name = "incremental-duckdb"
    engine = "duckdb"


register_backend(NaiveBackend.name, NaiveBackend)
register_backend(BatchBackend.name, BatchBackend)
register_backend(IncrementalBackend.name, IncrementalBackend)
register_backend(BatchDuckDBBackend.name, BatchDuckDBBackend)
register_backend(IncrementalDuckDBBackend.name, IncrementalDuckDBBackend)
