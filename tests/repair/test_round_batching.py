"""Batched repair rounds: local re-validation, one routed delta, exactness.

The sharded strategy plans all its rounds against the coordinator's mirror
(``MirrorValidator`` maintaining exact flags between rounds) and ships the
accumulated fixes as a single delete+reinsert delta.  Pattern constants
are text, so local Python matching is the delegate's for every Σ.  These
tests pin the validator's exactness against the reference semantics, the
one-round-trip accounting, and bit-exact equivalence between batched
rounds and the incremental strategy, which ships every round.
"""

import random

import pytest

from repro.core import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.schema import cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.datagen.workload import paper_workload
from repro.engine import DataQualityEngine
from repro.repair.cost import CellChange
from repro.repair.validate import MirrorValidator
from tests.parallel.test_summary_merge import _random_rows, _random_sigma

SCHEMA = cust_ext_schema()


class TestMirrorValidatorExactness:
    """The validator's flags track the reference semantics under changes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_changes_match_reference_recompute(self, seed):
        rng = random.Random(8100 + seed)
        sigma = _random_sigma(rng)
        relation = Relation(SCHEMA)
        for row in _random_rows(rng, 120):
            relation.insert(row)
        validator = MirrorValidator(sigma, relation)
        assert validator.flags() == sigma.violations(relation)

        attributes = list(SCHEMA.attribute_names)
        domain = sorted({v for t in relation.tuples() for v in t.values()})
        for _ in range(6):
            changes = [
                CellChange(
                    tid=rng.choice(relation.tids()),
                    attribute=rng.choice(attributes),
                    old_value="",
                    new_value=rng.choice(domain),
                )
                for _ in range(rng.randrange(1, 8))
            ]
            for change in changes:
                relation.replace_cell(change.tid, change.attribute, str(change.new_value))
            flags = validator.apply_changes(changes)
            assert flags == sigma.violations(relation), (
                f"validator drifted from the reference on seed {seed}"
            )


def _repair(sigma, rows, strategy="sharded", workers=3, executor="serial"):
    engine = DataQualityEngine(
        SCHEMA, sigma, backend="incremental", workers=workers, executor=executor
    )
    try:
        engine.load(rows)
        outcome = engine.repair(strategy=strategy, max_rounds=25)
        assert engine.violation_counts()["dirty"] == 0
        cells = {t.tid: t.values() for t in engine.to_relation().tuples()}
        return outcome, cells
    finally:
        engine.close()


class TestBatchedRoundShipping:
    def test_multi_round_repair_ships_one_delta(self):
        rows = DatasetGenerator(seed=4).generate_rows(500, 8.0)
        outcome, _ = _repair(paper_workload(SCHEMA), rows)
        trace = outcome.trace
        assert trace["full_detects"] == 0
        assert outcome.rounds > 1, "need a multi-round repair to exercise batching"
        assert trace["lane_round_trips"] == 1
        assert trace["round_trips_saved"] == trace["maintained_rounds"] - 1
        assert len(trace["rounds"]) == trace["maintained_rounds"]

    def test_batched_matches_per_round_shipping_bit_for_bit(self):
        """Sharded batched rounds == the incremental strategy shipping each round."""
        sigma = paper_workload(SCHEMA)
        rows = DatasetGenerator(seed=4).generate_rows(500, 8.0)
        batched, batched_cells = _repair(sigma, rows)
        shipped, shipped_cells = _repair(sigma, rows, strategy="incremental", workers=1)
        assert batched.trace["lane_round_trips"] == 1
        assert shipped.trace["maintained_rounds"] == shipped.rounds > 1
        assert batched_cells == shipped_cells
        assert batched.cost == shipped.cost
        assert batched.cells_changed == shipped.cells_changed
        assert batched.rounds == shipped.rounds

    def test_int_constant_sigma_batches_and_matches_per_round_shipping(self):
        """An integer pattern constant is text like any other: rounds still batch."""
        psi = ECFD(
            SCHEMA, ["CT"], [], ["ZIP"],
            tableau=[({"CT": "Chicago"}, {"ZIP": 60601})],
            name="int_constant_rider",
        )
        sigma = ECFDSet(list(paper_workload(SCHEMA)) + [psi])
        rows = DatasetGenerator(seed=6).generate_rows(400, 8.0)
        batched, batched_cells = _repair(sigma, rows)
        shipped, shipped_cells = _repair(sigma, rows, strategy="incremental", workers=1)
        assert batched.rounds > 0
        assert batched.trace["lane_round_trips"] == 1
        assert batched.trace["full_detects"] == 0
        assert batched_cells == shipped_cells
        assert batched.cost == shipped.cost
        assert batched.rounds == shipped.rounds

    def test_clean_data_ships_nothing(self):
        sigma = paper_workload(SCHEMA)
        rows = DatasetGenerator(seed=2).generate_rows(200, 0.0)
        outcome, _ = _repair(sigma, rows)
        assert outcome.rounds == 0
        assert outcome.trace["lane_round_trips"] == 0
        assert outcome.trace["round_trips_saved"] == 0
