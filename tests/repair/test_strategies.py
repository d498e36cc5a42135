"""Unit tests for the repair-strategy layer (registry, counters, in-place fixes)."""

import pytest

from repro.core import Relation
from repro.core.schema import cust_ext_schema
from repro.datagen import DatasetGenerator, paper_workload
from repro.detection import NaiveDetector
from repro.engine import DataQualityEngine
from repro.engine.backends import create_backend
from repro.exceptions import (
    EngineError,
    ReproError,
    SchemaError,
    UnknownStrategyError,
)
from repro.repair import (
    CellChange,
    GreedyRepairStrategy,
    IncrementalRepairStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
    unregister_strategy,
)

SCHEMA = cust_ext_schema()


@pytest.fixture(scope="module")
def workload():
    return paper_workload(SCHEMA)


@pytest.fixture()
def noisy_rows():
    return DatasetGenerator(seed=3).generate_rows(250, 5.0)


class TestReplaceCell:
    def test_replace_cell_preserves_tid(self):
        relation = Relation(SCHEMA)
        stored = relation.insert(
            {a: "x" for a in SCHEMA.attribute_names} | {"CT": "NYC"}
        )
        updated = relation.replace_cell(stored.tid, "CT", "Albany")
        assert updated.tid == stored.tid
        assert relation.get(stored.tid)["CT"] == "Albany"
        assert relation.get(stored.tid)["AC"] == "x"  # other cells untouched

    def test_replace_cell_unknown_tid_raises(self):
        with pytest.raises(SchemaError, match="tid=99"):
            Relation(SCHEMA).replace_cell(99, "CT", "Albany")


class TestStrategyRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert {"greedy", "incremental", "sharded"} <= set(names)

    def test_unknown_strategy_raises_with_listing(self, workload):
        with pytest.raises(UnknownStrategyError, match="greedy"):
            create_strategy("no-such-strategy", sigma=workload)

    def test_register_and_unregister_roundtrip(self, workload):
        register_strategy("custom", GreedyRepairStrategy)
        try:
            strategy = create_strategy("custom", sigma=workload, max_rounds=3)
            assert isinstance(strategy, GreedyRepairStrategy)
            assert strategy.max_rounds == 3
        finally:
            unregister_strategy("custom")
        with pytest.raises(UnknownStrategyError):
            unregister_strategy("custom")


class TestApplyCellChanges:
    @pytest.mark.parametrize("backend_name", ("naive", "batch", "incremental"))
    def test_in_place_cell_update_preserves_tids(self, workload, backend_name):
        backend = create_backend(backend_name, schema=SCHEMA, sigma=workload)
        backend.load_rows(
            [{a: "x" for a in SCHEMA.attribute_names} | {"CT": f"c{i}"} for i in range(4)]
        )
        tids = backend.tids()
        backend.apply_cell_changes(
            [CellChange(tids[1], "CT", "c1", "fixed"), CellChange(tids[3], "AC", "x", "518")]
        )
        assert backend.tids() == tids
        relation = backend.to_relation()
        assert relation.get(tids[1])["CT"] == "fixed"
        assert relation.get(tids[3])["AC"] == "518"
        assert relation.get(tids[0])["CT"] == "c0"  # untouched row intact
        backend.close()

    @pytest.mark.parametrize(
        "backend_name, workers",
        (
            pytest.param("naive", 1, id="naive"),
            pytest.param("batch", 1, id="batch"),
            pytest.param("incremental", 1, id="incremental"),
            pytest.param("incremental", 3, id="sharded"),
        ),
    )
    def test_unknown_tid_raises_instead_of_dropping_the_fix(
        self, workload, noisy_rows, backend_name, workers
    ):
        """A batch with an unknown tid is rejected whole: storage and the
        detection state (live shard states included) stay as they were."""
        with DataQualityEngine(
            SCHEMA, workload, backend=backend_name, workers=workers, executor="serial"
        ) as engine:
            engine.load(noisy_rows)
            engine.detect()
            stored = [(t.tid, t.values()) for t in engine.to_relation().tuples()]
            before = engine.to_relation().get(1)["ITEM_TYPE"]
            with pytest.raises(ReproError, match="tid=1000000"):
                engine.backend.apply_cell_changes(
                    [
                        CellChange(1, "ITEM_TYPE", before, before + "-fixed"),
                        CellChange(10**6, "CT", "x", "fixed"),
                    ]
                )
            relation = engine.to_relation()
            assert [(t.tid, t.values()) for t in relation.tuples()] == stored
            assert engine.detect().violations == NaiveDetector(workload).detect(relation)

    @pytest.mark.parametrize("backend_name", ("naive", "batch"))
    def test_detection_state_invalidated_after_in_place_repair(
        self, workload, backend_name, noisy_rows
    ):
        """Regression: flag-reading introspection must not serve pre-repair
        violations on clean data (the old reload path re-detected; the
        in-place path must invalidate instead)."""
        with DataQualityEngine(SCHEMA, workload, backend=backend_name) as engine:
            engine.load(noisy_rows)
            assert engine.detect().dirty_count > 0  # flags / cache populated
            repair = engine.repair(max_rounds=15)
            assert repair.clean
            assert engine.violation_counts()["dirty"] == 0


class TestIncrementalStrategy:
    def test_zero_full_redetects_after_seeding(self, workload, noisy_rows):
        with DataQualityEngine(SCHEMA, workload, backend="incremental") as engine:
            engine.load(noisy_rows)
            assert engine.detect().dirty_count > 0
            strategy = create_strategy("incremental", sigma=workload, max_rounds=15)
            outcome = strategy.repair(engine.backend)
            # The one batch pass is the seeding scan; every repair round was
            # re-validated through INCDETECT delta maintenance.
            assert engine.backend.full_detect_count == 1
            assert outcome.trace["full_detects"] == 0
            assert outcome.trace["maintained_rounds"] == outcome.rounds > 0
            assert outcome.trace["redetect_rows_avoided"] >= outcome.rounds * (
                len(noisy_rows) - len(outcome.changes)
            )
            assert engine.violation_counts()["dirty"] == 0

    def test_incremental_strategy_rejects_non_incremental_backend(self, workload):
        with DataQualityEngine(SCHEMA, workload, backend="batch") as engine:
            engine.load(DatasetGenerator(seed=3).generate_rows(30, 5.0))
            strategy = IncrementalRepairStrategy(workload)
            with pytest.raises(EngineError, match="incremental-capable"):
                strategy.repair(engine.backend)

    def test_sharded_strategy_rejects_plain_backend(self, workload):
        with DataQualityEngine(SCHEMA, workload, backend="incremental") as engine:
            engine.load(DatasetGenerator(seed=3).generate_rows(30, 5.0))
            strategy = create_strategy("sharded", sigma=workload)
            with pytest.raises(EngineError, match="sharded"):
                strategy.repair(engine.backend)


class TestShardedStrategyCounters:
    def test_summary_elected_groups_and_live_states(self, workload, noisy_rows):
        engine = DataQualityEngine(
            SCHEMA, workload, backend="incremental", workers=3, executor="serial"
        )
        engine.load(noisy_rows)
        repair = engine.repair(max_rounds=15)
        assert repair.strategy == "sharded"
        assert repair.clean
        # No full sharded pass ran at all: bootstrap seeds the states and
        # every round is routed delta maintenance.
        assert engine.backend.full_detect_count == 0
        assert repair.trace["full_detects"] == 0
        # The paper workload has summary fragments (ZIP / ITEM_TITLE FDs);
        # their dirty groups were repaired from the merged summary store.
        assert repair.trace["summary_groups_repaired"] > 0
        # The shard states stayed live across the repair and keep serving
        # the maintained clean state.
        assert engine.backend._states_live
        assert engine.detect().dirty_count == 0
        assert engine.backend.full_detect_count == 0
        engine.close()
