"""Unit tests for the greedy repair strategy and the cost model (repro.repair)."""

import pytest

from repro.core import ECFD, ECFDSet, Relation
from repro.datagen import DatasetGenerator, paper_workload
from repro.detection import NaiveDetector
from repro.engine.backends import NaiveBackend
from repro.repair import CellChange, GreedyRepairStrategy, RepairCostModel
from repro.exceptions import RepairError
from tests.conftest import FIG1_ROWS


def greedy_repair(sigma, relation, **options):
    """Greedy-repair a copy of ``relation`` held by a naive backend."""
    backend = NaiveBackend(relation.schema, sigma)
    backend.load_relation(relation)
    outcome = GreedyRepairStrategy(sigma, **options).repair(backend)
    # The fixes were applied in place: the backend serves the repaired data.
    cells = [(t.tid, t.values()) for t in backend.to_relation().tuples()]
    assert cells == [(t.tid, t.values()) for t in outcome.relation.tuples()]
    return outcome


class TestCostModel:
    def test_default_cost_counts_cells(self):
        model = RepairCostModel()
        changes = [
            CellChange(1, "AC", "718", "518"),
            CellChange(4, "AC", "100", "212"),
        ]
        assert model.cost(changes) == 2.0
        assert model.cell_cost("AC") == 1.0

    def test_weighted_cost(self):
        model = RepairCostModel(attribute_weights={"AC": 3.0}, default_weight=0.5)
        changes = [CellChange(1, "AC", "718", "518"), CellChange(1, "ZIP", "1", "2")]
        assert model.cost(changes) == 3.5


class TestGreedyRepairStrategy:
    def test_repairs_paper_example(self, schema, paper_sigma, d0):
        result = greedy_repair(paper_sigma, d0)
        assert NaiveDetector(paper_sigma).detect(result.relation).is_clean()
        # Only the two dirty tuples (t1 and t4) need to change.
        assert result.changed_tids() <= {1, 4}
        assert result.change_count >= 2
        # The original relation is untouched.
        assert d0.get(1)["AC"] == "718"

    def test_repair_fixes_fd_violation_by_majority(self, schema, paper_sigma):
        rows = [
            {"AC": "518", "PN": "1", "NM": "a", "STR": "s", "CT": "Troy", "ZIP": "1"},
            {"AC": "518", "PN": "2", "NM": "b", "STR": "s", "CT": "Troy", "ZIP": "1"},
            {"AC": "999", "PN": "3", "NM": "c", "STR": "s", "CT": "Troy", "ZIP": "1"},
        ]
        relation = Relation(schema, rows)
        result = greedy_repair(paper_sigma, relation)
        assert NaiveDetector(paper_sigma).detect(result.relation).is_clean()
        # The minority tuple is rewritten to the majority value 518.
        assert result.relation.get(3)["AC"] == "518"
        assert result.changed_tids() == {3}

    def test_clean_data_needs_no_changes(self, schema, paper_sigma):
        rows = [
            {"AC": "518", "PN": "1", "NM": "a", "STR": "s", "CT": "Albany", "ZIP": "1"},
            {"AC": "212", "PN": "2", "NM": "b", "STR": "s", "CT": "NYC", "ZIP": "2"},
        ]
        result = greedy_repair(paper_sigma, Relation(schema, rows))
        assert result.change_count == 0
        assert result.cost == 0.0

    def test_unsatisfiable_sigma_rejected(self, schema):
        contradiction = ECFD(
            schema,
            ["CT"],
            ["CT"],
            tableau=[
                ({"CT": {"NYC"}}, {"CT": {"LI"}}),
                ({"CT": "_"}, {"CT": {"NYC"}}),
            ],
        )
        with pytest.raises(RepairError):
            greedy_repair([contradiction], Relation(schema, FIG1_ROWS[:2]))

    def test_repair_generated_noisy_dataset(self):
        sigma = paper_workload()
        relation = DatasetGenerator(seed=5).generate(150, noise_percent=6.0)
        assert not NaiveDetector(sigma).detect(relation).is_clean()
        result = greedy_repair(sigma, relation, max_rounds=12)
        assert NaiveDetector(sigma).detect(result.relation).is_clean()
        assert result.change_count > 0
        # The repair touches at most a small multiple of the corrupted tuples.
        assert len(result.changed_tids()) <= 45

    def test_cost_model_is_applied(self, schema, paper_sigma, d0):
        expensive_ac = RepairCostModel(attribute_weights={"AC": 10.0})
        result = greedy_repair(paper_sigma, d0, cost_model=expensive_ac)
        assert result.cost >= 10.0
