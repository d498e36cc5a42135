"""Integer pattern constants: every detector agrees with the naive oracle.

Pattern constants are text (``ValueSet([518])`` is ``ValueSet(["518"])``),
so an int constant matches the stored ``'518'`` under the Python reference
semantics exactly as it does under the SQL encoding.  This suite pins that
agreement for int constants in LHS and RHS value sets and in complement
sets, on every detector and through the sharded lanes, before and after an
update.
"""

import pytest

from repro.core import ECFD, ECFDSet
from repro.core.patterns import ComplementSet, ValueSet
from repro.core.schema import cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.engine import DataQualityEngine

SCHEMA = cust_ext_schema()


def _sigma(area_code, excluded_codes, price):
    return ECFDSet(
        [
            # RHS value set: Troy's area code is 518.
            ECFD(SCHEMA, ["CT"], ["AC"], tableau=[({"CT": "Troy"}, {"AC": area_code})]),
            # LHS value set: area code 518 belongs to Troy or Albany.
            ECFD(
                SCHEMA, ["AC"], ["CT"],
                tableau=[({"AC": area_code}, {"CT": ValueSet(["Troy", "Albany"])})],
            ),
            # LHS complement set over an embedded FD: outside 518 / 212, AC -> CT.
            ECFD(
                SCHEMA, ["AC"], ["CT"],
                tableau=[({"AC": ComplementSet(excluded_codes)}, {"CT": "_"})],
            ),
            # LHS complement set over an FD whose groups straddle shards (the
            # partition key is AC), so its witnesses travel as summaries.
            ECFD(
                SCHEMA, ["PRICE"], ["ITEM_TYPE"],
                tableau=[({"PRICE": ComplementSet([price])}, {"ITEM_TYPE": "_"})],
            ),
            # RHS complement set in Yp: a book never costs 31.
            ECFD(
                SCHEMA, ["ITEM_TYPE"], [], ["PRICE"],
                tableau=[({"ITEM_TYPE": "book"}, {"PRICE": ComplementSet([price])})],
            ),
        ]
    )


SIGMA = _sigma(518, [518, 212], 31)

#: (backend, workers) — ``workers=3`` runs the sharded lanes (serial executor).
CONFIGS = [
    ("batch", 1),
    ("incremental", 1),
    ("incremental", 3),
    ("naive", 3),
]


def _run(backend, workers, sigma=SIGMA):
    rows = DatasetGenerator(seed=6).generate_rows(400, 8.0)
    inserts = DatasetGenerator(seed=7).generate_rows(40, 25.0)
    engine = DataQualityEngine(
        SCHEMA, sigma, backend=backend, workers=workers, executor="serial"
    )
    try:
        engine.load(rows)
        before = (engine.detect().violations, engine.backend.breakdown())
        result = engine.apply_update(insert_rows=inserts, delete_tids=range(1, 400, 9))
        after = (result.violations, engine.backend.breakdown())
        return before, after
    finally:
        engine.close()


@pytest.fixture(scope="module")
def oracle():
    return _run("naive", 1)


def test_int_constants_detect_like_their_text(oracle):
    """The oracle flags the same tuples for 518 as for "518"."""
    assert _run("naive", 1, _sigma("518", ["518", "212"], "31")) == oracle
    (violations, _), _ = oracle
    assert not violations.is_clean()


@pytest.mark.parametrize(("backend", "workers"), CONFIGS)
def test_detectors_agree_with_the_naive_oracle(oracle, backend, workers):
    before, after = _run(backend, workers)
    assert before == oracle[0], f"{backend}/workers={workers} disagrees on detect()"
    assert after == oracle[1], f"{backend}/workers={workers} disagrees after apply_update"
