"""Sharded INCDETECT: delta routing, stateful shard lanes and exactness.

The tentpole guarantee: an engine with ``workers=N`` over the incremental
delegate *maintains* violations across update batches — persistent per-shard
INCDETECT states, deltas routed through the partition plan, no full
recompute — and its results are identical to both the single-threaded
incremental detector and a full re-detection, on every executor.

The suite shares one seeded 5k-tuple workload and computes the
single-threaded reference trajectories once (module-scoped fixtures), so the
executor matrix only pays for the sharded runs.
"""

import os

import pytest

from repro.core import ECFD, ECFDSet
from repro.core.schema import cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.datagen.updates import UpdateGenerator
from repro.datagen.workload import paper_workload
from repro.engine import (
    DataQualityEngine,
    IncrementalBackend,
    register_backend,
    unregister_backend,
)
from repro.exceptions import EngineError

EXECUTORS = ("serial", "thread", "process")
#: Seeded 5k-tuple noisy base relation shared by the equivalence tests.
EQUIVALENCE_SIZE = 5_000
#: Batches in the shared update workload; insert and delete counts differ
#: so |D| drifts and the tid-assignment discipline is exercised.
BATCH_COUNT, BATCH_INSERTS, BATCH_DELETES = 2, 150, 120
#: Environment variable naming the file _CountingIncremental logs to; the
#: environment reaches process lanes too, so every construction is counted.
CONSTRUCTION_LOG = "REPRO_TEST_CONSTRUCTION_LOG"


class _CountingIncremental(IncrementalBackend):
    """The incremental delegate, logging one line per construction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        with open(os.environ[CONSTRUCTION_LOG], "a") as log:
            log.write("built\n")


@pytest.fixture(scope="module")
def ext_schema():
    return cust_ext_schema()


@pytest.fixture(scope="module")
def sigma(ext_schema):
    """The paper workload plus an empty-LHS eCFD.

    The extra constraint is a summary fragment under the single-pass plan
    (its one global ``X``-group spans every shard), so every update batch
    also exercises the cross-shard summary-delta merge path.
    """
    phi = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
    return ECFDSet(list(paper_workload()) + [phi])


@pytest.fixture(scope="module")
def base_rows():
    return DatasetGenerator(seed=42).generate_rows(EQUIVALENCE_SIZE, 5.0)


@pytest.fixture(scope="module")
def update_workload(base_rows):
    """Successive disjoint batches over the evolving tid population."""
    updates = UpdateGenerator(DatasetGenerator(seed=9), seed=3)
    return updates.make_workload(
        range(1, len(base_rows) + 1),
        batches=BATCH_COUNT,
        insert_count=BATCH_INSERTS,
        delete_count=BATCH_DELETES,
        noise_percent=10.0,
    )


@pytest.fixture(scope="module")
def incremental_reference(ext_schema, sigma, base_rows, update_workload):
    """Violation trajectory of the single-threaded incremental delegate."""
    engine = DataQualityEngine(ext_schema, sigma, backend="incremental")
    engine.load(base_rows)
    engine.detect()
    results = [engine.apply_update(batch) for batch in update_workload]
    engine.close()
    return results


@pytest.fixture(scope="module")
def full_redetection_reference(ext_schema, sigma, base_rows, update_workload):
    """Violation trajectory of full BATCHDETECT re-detection per batch."""
    engine = DataQualityEngine(ext_schema, sigma, backend="batch")
    engine.load(base_rows)
    results = [engine.apply_update(batch) for batch in update_workload]
    engine.close()
    return results


class TestShardedIncrementalEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_single_threaded_and_full_redetect_on_5k(
        self,
        ext_schema,
        sigma,
        base_rows,
        update_workload,
        incremental_reference,
        full_redetection_reference,
        executor,
    ):
        """The tentpole guarantee, for every executor at 5k tuples."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor=executor
        )
        engine.load(base_rows)
        for step, batch in enumerate(update_workload):
            result = engine.apply_update(batch)
            assert result.incremental, "sharded INCDETECT must maintain, not recompute"
            assert result.violations == incremental_reference[step].violations
            assert result.violations == full_redetection_reference[step].violations
            assert result.tuple_count == incremental_reference[step].tuple_count
        engine.close()

    def test_no_full_recompute_during_updates(
        self, ext_schema, sigma, base_rows, update_workload
    ):
        """The acceptance counter: apply_update never runs a sharded detect."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(base_rows)
        backend = engine.backend
        baseline = backend.full_detect_count
        for batch in update_workload:
            engine.apply_update(batch)
        assert backend.full_detect_count == baseline, (
            "sharded apply_update must not fall back to full detection"
        )
        engine.close()

    def test_detect_after_updates_reads_live_shard_states(
        self, ext_schema, sigma, base_rows, update_workload, incremental_reference
    ):
        """Regression: detect() after apply_update used to silently re-fan
        out one-shot tasks instead of reading the maintained shard states."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(base_rows)
        for batch in update_workload:
            engine.apply_update(batch)
        baseline = engine.backend.full_detect_count
        result = engine.detect()
        assert engine.backend.full_detect_count == baseline, (
            "detect() with live shard states must serve the merged "
            "maintained violations, not run a hidden full detection"
        )
        assert result.violations == incremental_reference[-1].violations
        # The breakdown read path must stay recompute-free too.
        with_breakdown = engine.detect(with_breakdown=True)
        assert engine.backend.full_detect_count == baseline
        assert with_breakdown.violations == result.violations
        assert with_breakdown.per_constraint
        engine.close()


class TestDeltaRoutingProportionality:
    def test_single_tuple_delta_touches_exactly_one_shard(
        self, ext_schema, sigma, base_rows
    ):
        """Per-shard work is proportional to the routed delta, not |D|.

        Under the single-pass plan every delta tuple routes to exactly one
        shard — no per-cluster replication."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(base_rows)
        engine.apply_update(delete_tids=[7])
        trace = engine.backend.last_update_trace
        assert trace["mode"] == "incremental"
        assert trace["shards_touched"] == 1
        assert trace["shards_touched"] < trace["shards_total"]
        assert trace["routed_deletes"] == 1
        assert trace["routed_inserts"] == 0
        engine.close()

    def test_untouched_shards_receive_no_tasks(self, ext_schema, sigma, base_rows):
        """Trace a batch and check routed totals equal |ΔD| exactly."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(base_rows)
        batch_inserts = DatasetGenerator(seed=21).generate_rows(25, 20.0)
        engine.apply_update(insert_rows=batch_inserts, delete_tids=[11, 12, 13])
        trace = engine.backend.last_update_trace
        assert trace["routed_deletes"] == 3
        assert trace["routed_inserts"] == 25
        assert trace["shards_touched"] <= trace["shards_total"]
        engine.close()

    def test_update_readback_is_delta_proportional(self, ext_schema):
        """The flag readback scans affected groups, never whole shards.

        High-cardinality LHS values keep every group tiny, so the readback
        bound (the deleted tuples' groups) is orders of magnitude below the
        shard size — the old per-update whole-shard flag scan would read
        hundreds of tids here."""
        phi = ECFD(
            ext_schema, lhs=["ZIP"], rhs=["CT"],
            tableau=[({"ZIP": "_"}, {"CT": "_"})],
        )
        rows = [
            {a: "x" for a in ext_schema.attribute_names}
            | {"ZIP": str(10000 + i), "CT": f"city-{i}"}
            for i in range(600)
        ]
        engine = DataQualityEngine(
            ext_schema, ECFDSet([phi]), backend="incremental", workers=2,
            executor="serial",
        )
        engine.load(rows)
        engine.backend.ensure_ready()
        engine.apply_update(delete_tids=[7, 8])
        trace = engine.backend.last_update_trace
        assert trace["readback_tids"] <= 4
        engine.close()


class TestSummaryMergedAndEmptyShards:
    def test_update_hitting_global_group(self, ext_schema, sigma):
        """Empty-LHS constraints span every shard; summary deltas must merge."""
        rows = DatasetGenerator(seed=13).generate_rows(300, 0.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()

        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(rows)
        # A clean relation still violates ∅ -> CT (mixed CT values); deleting
        # tuples changes the single global group, which no single shard can
        # witness — the summary store has to absorb the deltas.
        expected = reference.apply_update(delete_tids=[1, 2, 3])
        result = engine.apply_update(delete_tids=[1, 2, 3])
        assert result.violations == expected.violations
        assert engine.backend.last_update_trace["summary_groups_touched"] >= 1
        assert not expected.clean
        reference.close()
        engine.close()

    def test_insert_into_previously_empty_shard(self, ext_schema):
        """An insert may route to a shard that held no tuples at bootstrap."""
        phi = ECFD(
            ext_schema,
            lhs=["ZIP"],
            rhs=["CT"],
            tableau=[({"ZIP": "_"}, {"CT": "_"})],
        )
        sigma = ECFDSet([phi])
        # Two rows sharing one ZIP: with 4 workers most shards start empty.
        base = [
            {a: "x" for a in ext_schema.attribute_names} | {"ZIP": "10001", "CT": "NYC"},
            {a: "x" for a in ext_schema.attribute_names} | {"ZIP": "10001", "CT": "NYC"},
        ]
        fresh = [
            {a: "y" for a in ext_schema.attribute_names} | {"ZIP": z, "CT": ct}
            for z, ct in (
                ("90210", "LA"), ("60601", "CHI"), ("73301", "AUS"),
                ("90210", "SF"),  # same ZIP, different CT: a new violation
            )
        ]
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(base)
        reference.detect()
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(base)
        expected = reference.apply_update(insert_rows=fresh)
        result = engine.apply_update(insert_rows=fresh)
        assert result.violations == expected.violations
        assert not result.clean  # the 90210 pair violates ZIP -> CT
        reference.close()
        engine.close()


class TestLifecycleAndContract:
    def test_out_of_band_mutation_invalidates_states(self, ext_schema, sigma):
        rows = DatasetGenerator(seed=5).generate_rows(200, 5.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=3, executor="serial"
        )
        engine.load(rows)
        engine.apply_update(delete_tids=[4])
        reference.apply_update(delete_tids=[4])

        extra = DatasetGenerator(seed=6).generate_rows(40, 25.0)
        engine.load(extra)  # out-of-band: must invalidate the shard states
        assert not engine.backend._states_live
        reference.load(extra)
        reference.detect()
        # Direct backend call (no facade ensure_ready) exposes the rebuild.
        result = engine.backend.incremental_update([8], [])
        expected = reference.apply_update(delete_tids=[8])
        assert result == expected.violations
        assert engine.backend.last_update_trace["bootstrap"] is True
        reference.close()
        engine.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_detect_then_update_builds_each_shard_once(
        self, ext_schema, sigma, executor, tmp_path, monkeypatch
    ):
        """detect() bootstraps the states the following updates maintain."""
        log = tmp_path / "constructions.log"
        log.touch()
        monkeypatch.setenv(CONSTRUCTION_LOG, str(log))
        rows = DatasetGenerator(seed=7).generate_rows(200, 10.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()
        register_backend("counting-incremental", _CountingIncremental)
        try:
            engine = DataQualityEngine(
                ext_schema,
                sigma,
                backend="counting-incremental",
                workers=3,
                executor=executor,
            )
            engine.load(rows)
            assert engine.detect().violations == reference.detect().violations
            inserts = DatasetGenerator(seed=8).generate_rows(10, 30.0)
            expected = reference.apply_update(delete_tids=[2, 5], insert_rows=inserts)
            result = engine.apply_update(delete_tids=[2, 5], insert_rows=inserts)
            assert result.incremental
            assert result.violations == expected.violations
            assert engine.backend.full_detect_count == 1
            engine.close()
        finally:
            unregister_backend("counting-incremental")
            reference.close()
        assert log.read_text().count("built") == 3, "one delegate per shard"

    def test_killed_process_lane_rebuilds_only_its_shard(self, ext_schema, sigma):
        """A dead process lane is re-pinned and its shard rebuilt from storage."""
        rows = DatasetGenerator(seed=9).generate_rows(300, 10.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=3, executor="process"
        )
        engine.load(rows)
        engine.backend.ensure_ready()
        for process in list(engine.backend._lanes._executors[1]._processes.values()):
            process.kill()
            process.join()
        deletes = list(range(1, 301, 10))
        expected = reference.apply_update(delete_tids=deletes)
        result = engine.apply_update(delete_tids=deletes)
        assert result.violations == expected.violations
        assert engine.backend.last_update_trace["lanes_lost"] == [1]
        assert engine.backend.full_detect_count == 0
        # The rebuilt lane keeps maintaining its shard exactly.
        expected = reference.apply_update(delete_tids=[2, 12, 22])
        assert engine.apply_update(delete_tids=[2, 12, 22]).violations == expected.violations
        reference.close()
        engine.close()

    def test_non_incremental_delegate_refuses(self, ext_schema, sigma):
        rows = DatasetGenerator(seed=5).generate_rows(100, 5.0)
        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=2, executor="serial"
        )
        engine.load(rows)
        assert not engine.backend.supports_incremental
        with pytest.raises(EngineError):
            engine.backend.incremental_update([1], [])
        # The facade still serves updates through the recompute fallback.
        result = engine.apply_update(delete_tids=[1])
        assert not result.incremental
        engine.close()

    def test_shard_stats_report_aux_memory(self, ext_schema, sigma):
        rows = DatasetGenerator(seed=5).generate_rows(300, 10.0)
        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=3, executor="serial"
        )
        engine.load(rows)
        stats = engine.shard_stats()
        assert stats, "stateful layout must expose at least one shard"
        for entry in stats:
            assert {"shard", "key", "tuples", "aux_groups",
                    "macro_rows", "initialized"} <= set(entry)
            assert entry["initialized"] == 1
        # The single-pass shards partition the relation.
        assert sum(entry["tuples"] for entry in stats) == len(rows)
        engine.close()

    def test_shard_stats_unavailable_on_plain_backends(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="batch")
        with pytest.raises(EngineError):
            engine.shard_stats()
        engine.close()

    def test_explicit_sharded_workers_one_single_state(self, ext_schema, sigma):
        """An explicit sharded backend at workers=1 keeps one whole-Σ state
        — byte-for-byte the plain incremental delegate's behaviour."""
        from repro.engine import ShardedBackend

        rows = DatasetGenerator(seed=5).generate_rows(150, 10.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()

        backend = ShardedBackend(
            ext_schema, sigma, delegate="incremental", workers=1, executor="serial"
        )
        backend.load_rows(rows)
        assert backend.supports_incremental
        result = backend.incremental_update([2, 3], [])
        expected = reference.apply_update(delete_tids=[2, 3])
        assert result == expected.violations
        assert backend.last_update_trace["shards_total"] == 1
        reference.close()
        backend.close()


class TestReviewHardening:
    def test_update_with_breakdown_served_from_shard_states(
        self, ext_schema, sigma
    ):
        """apply_update(with_breakdown=True) must not hide a full re-detection."""
        rows = DatasetGenerator(seed=31).generate_rows(400, 10.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()

        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=4, executor="serial"
        )
        engine.load(rows)
        engine.backend.ensure_ready()
        baseline = engine.backend.full_detect_count

        delta = DatasetGenerator(seed=32).generate_rows(20, 25.0)
        expected = reference.apply_update(
            insert_rows=delta, delete_tids=[2, 4], with_breakdown=True
        )
        result = engine.apply_update(
            insert_rows=delta, delete_tids=[2, 4], with_breakdown=True
        )
        assert result.violations == expected.violations
        assert result.per_constraint == expected.per_constraint
        assert engine.backend.full_detect_count == baseline, (
            "the breakdown must come from the maintained shard states"
        )
        reference.close()
        engine.close()

    def test_failed_shard_update_invalidates_states(
        self, ext_schema, sigma, monkeypatch
    ):
        """A shard failure mid-update must never leave stale caches behind."""
        from repro.engine import IncrementalBackend

        rows = DatasetGenerator(seed=33).generate_rows(300, 10.0)
        reference = DataQualityEngine(ext_schema, sigma, backend="incremental")
        reference.load(rows)
        reference.detect()

        engine = DataQualityEngine(
            ext_schema, sigma, backend="incremental", workers=3, executor="serial"
        )
        engine.load(rows)
        engine.backend.ensure_ready()

        def exploding(self, *args, **kwargs):
            raise RuntimeError("shard lane died")

        monkeypatch.setattr(IncrementalBackend, "incremental_update", exploding)
        with pytest.raises(RuntimeError):
            engine.backend.incremental_update([3], [])
        assert not engine.backend._states_live, "failed update must invalidate"
        monkeypatch.undo()

        # Storage kept the applied delta; the next update bootstraps afresh
        # from it and the results stay exact.
        expected = reference.apply_update(delete_tids=[3])  # same logical state
        result = engine.backend.incremental_update([], [])
        assert result == expected.violations
        assert engine.backend.last_update_trace["bootstrap"] is True
        reference.close()
        engine.close()
