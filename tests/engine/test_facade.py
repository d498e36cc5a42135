"""End-to-end tests of the DataQualityEngine façade."""

import pytest

from repro.core.schema import cust_ext_schema
from repro.datagen import DatasetGenerator, UpdateGenerator, paper_workload
from repro.engine import DataQualityEngine
from repro.exceptions import EngineError

BACKENDS = ("naive", "batch", "incremental")


@pytest.fixture(scope="module")
def ext_schema():
    return cust_ext_schema()


@pytest.fixture(scope="module")
def workload(ext_schema):
    return paper_workload(ext_schema)


@pytest.fixture(scope="module")
def seeded_rows():
    """The acceptance workload: a seeded 1k-tuple noisy dataset."""
    return DatasetGenerator(seed=42).generate_rows(1_000, 5.0)


class TestBackendEquivalence:
    def test_detect_identical_across_backends_on_1k_workload(
        self, ext_schema, workload, seeded_rows
    ):
        results = {}
        for name in BACKENDS:
            with DataQualityEngine(ext_schema, workload, backend=name) as engine:
                engine.load(seeded_rows)
                results[name] = engine.detect()
        assert results["naive"].violations == results["batch"].violations
        assert results["batch"].violations == results["incremental"].violations
        summaries = {r.dirty_count for r in results.values()}
        assert len(summaries) == 1 and results["batch"].dirty_count > 0

    def test_apply_update_identical_across_backends(self, ext_schema, workload, seeded_rows):
        updates = UpdateGenerator(DatasetGenerator(seed=8), seed=9)
        batch = updates.make_batch(
            existing_tids=range(1, len(seeded_rows) + 1),
            insert_count=120,
            delete_count=120,
            noise_percent=5.0,
        )
        results = {}
        for name in BACKENDS:
            with DataQualityEngine(ext_schema, workload, backend=name) as engine:
                engine.load(seeded_rows)
                engine.detect()
                results[name] = engine.apply_update(batch)
        assert results["naive"].violations == results["batch"].violations
        assert results["batch"].violations == results["incremental"].violations
        assert results["incremental"].incremental
        assert not results["batch"].incremental

    def test_update_routing_reports_apply_time_only_for_fallback(
        self, ext_schema, workload, seeded_rows
    ):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(seeded_rows)
            engine.detect()
            result = engine.apply_update(insert_rows=seeded_rows[:10])
            assert result.apply_seconds >= 0.0 and not result.incremental
        with DataQualityEngine(ext_schema, workload, backend="incremental") as engine:
            engine.load(seeded_rows)
            engine.detect()
            result = engine.apply_update(insert_rows=seeded_rows[:10])
            assert result.apply_seconds == 0.0 and result.incremental


class TestLoading:
    def test_chunked_load_equals_one_shot(self, ext_schema, workload, seeded_rows):
        with DataQualityEngine(ext_schema, workload, backend="batch") as chunked:
            assert chunked.load(seeded_rows, chunk_size=137) == len(seeded_rows)
            chunked_result = chunked.detect()
            chunked_tids = chunked.tids()
        with DataQualityEngine(ext_schema, workload, backend="batch") as one_shot:
            one_shot.load(seeded_rows)
            assert chunked_tids == one_shot.tids()
            assert chunked_result.violations == one_shot.detect().violations

    def test_load_accepts_generators(self, ext_schema, workload, seeded_rows):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            loaded = engine.load((row for row in seeded_rows[:50]), chunk_size=7)
            assert loaded == 50 and engine.count() == 50

    def test_load_relation_preserves_tids(self, ext_schema, workload):
        relation = DatasetGenerator(seed=3).generate(40, 5.0)
        relation.delete(relation.tids()[0])
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(relation)
            assert engine.tids() == relation.tids()

    def test_invalid_chunk_size_raises(self, ext_schema, workload, seeded_rows):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            with pytest.raises(EngineError):
                engine.load(seeded_rows, chunk_size=0)


class TestUpdateDeltas:
    def test_delta_forms_are_equivalent(self, ext_schema, workload, seeded_rows):
        extra = DatasetGenerator(seed=5).generate_rows(20, 5.0)
        outcomes = []
        for delta_call in (
            lambda e: e.apply_update({"delete_tids": [3, 7], "insert_rows": extra}),
            lambda e: e.apply_update(delete_tids=[3, 7], insert_rows=extra),
        ):
            with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
                engine.load(seeded_rows[:200])
                engine.detect()
                outcomes.append(delta_call(engine))
        assert outcomes[0].violations == outcomes[1].violations
        assert outcomes[0].tuple_count == outcomes[1].tuple_count

    def test_bogus_delta_raises(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            with pytest.raises(EngineError):
                engine.apply_update(42)

    def test_typoed_delta_key_raises_instead_of_dropping_data(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            with pytest.raises(EngineError, match="inserts"):
                engine.apply_update({"inserts": [{"CT": "NYC"}]})

    def test_incremental_update_before_detect_excludes_initialisation(
        self, ext_schema, workload, seeded_rows
    ):
        # No prior detect(): the batch initialisation must run via
        # ensure_ready(), outside the reported update timing, and the
        # result must still equal the initialised-first flow.
        with DataQualityEngine(ext_schema, workload, backend="incremental") as cold:
            cold.load(seeded_rows[:200])
            cold_result = cold.apply_update(insert_rows=seeded_rows[200:220])
        with DataQualityEngine(ext_schema, workload, backend="incremental") as warm:
            warm.load(seeded_rows[:200])
            warm.detect()
            warm_result = warm.apply_update(insert_rows=seeded_rows[200:220])
        assert cold_result.incremental and cold_result.violations == warm_result.violations


class TestRepairAndReport:
    def test_repair_applies_clean_data_in_place(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(DatasetGenerator(seed=1).generate(300, 5.0))
            before = engine.detect()
            assert before.dirty_count > 0
            tids_before = engine.tids()
            repair = engine.repair(max_rounds=15)
            assert repair.clean
            assert repair.strategy == "greedy"  # batch backend: baseline
            assert repair.cells_changed >= repair.tuples_changed > 0
            assert engine.detect().dirty_count == 0  # engine now serves repaired data
            assert engine.tids() == tids_before  # in place: identifiers preserved

    def test_repair_routes_through_incremental_strategy(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="incremental") as engine:
            engine.load(DatasetGenerator(seed=1).generate(300, 5.0))
            assert engine.detect().dirty_count > 0
            repair = engine.repair(max_rounds=15)
            assert repair.strategy == "incremental"
            assert repair.clean
            # Zero full re-detections after the seeding scan, and the engine
            # keeps serving the maintained (clean) state.
            assert repair.trace["full_detects"] == 0
            assert repair.trace["maintained_rounds"] == repair.rounds
            assert engine.detect().dirty_count == 0

    def test_repair_dry_run_keeps_dirty_state(self, ext_schema, workload):
        rows = DatasetGenerator(seed=1).generate(300, 5.0)
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(rows)
            engine.detect()
            stored = [(t.tid, t.values()) for t in engine.to_relation().tuples()]
            repair = engine.repair(max_rounds=15, apply=False)
            assert repair.clean  # the planned repair converges ...
            assert repair.strategy == "greedy"
            assert engine.detect().dirty_count > 0  # ... but the store is untouched
            assert [(t.tid, t.values()) for t in engine.to_relation().tuples()] == stored
            with pytest.raises(EngineError, match="greedy"):
                engine.repair(apply=False, strategy="incremental")
            # The dry run's audit is exactly what the applied repair does.
            applied = engine.repair(strategy="greedy", max_rounds=15)
            assert engine.detect().dirty_count == 0
        assert repair.changes == applied.changes
        assert repair.cost == applied.cost
        assert repair.rounds == applied.rounds > 0
        assert repair.trace == applied.trace

    def test_report_summarises_workload_and_detection(self, ext_schema, workload, seeded_rows):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(seeded_rows)
            report = engine.report()
        assert report.schema_name == ext_schema.name
        assert report.backend == "batch"
        assert report.constraint_count == len(workload)
        assert report.pattern_count == workload.pattern_count()
        assert report.satisfiable
        assert report.tuple_count == len(seeded_rows)
        assert 0.0 < report.dirty_ratio < 1.0
        assert report.detection.per_constraint  # breakdown populated

    def test_breakdown_agrees_between_naive_and_sql(self, ext_schema, workload, seeded_rows):
        breakdowns = {}
        for name in ("naive", "batch"):
            with DataQualityEngine(ext_schema, workload, backend=name) as engine:
                engine.load(seeded_rows[:300])
                breakdowns[name] = engine.detect(with_breakdown=True).per_constraint
        assert breakdowns["naive"] == breakdowns["batch"]


class TestDiscoveryAndValidation:
    def test_discover_through_engine(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="batch") as engine:
            engine.load(DatasetGenerator(seed=2).generate(400, 0.0))
            result = engine.discover(["CT"], "AC", min_support=2, min_confidence=0.9)
        assert result.ecfd is not None
        assert result.patterns

    def test_validate_on_satisfiable_workload(self, ext_schema, workload):
        with DataQualityEngine(ext_schema, workload, backend="naive") as engine:
            assert engine.validate()
            assert engine.validate(require=True)
