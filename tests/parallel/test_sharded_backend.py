"""Sharded backend: registry wiring, façade routing and exactness.

The heart of this suite is the satellite guarantee: for every delegate
backend, an engine with ``workers=N`` returns *identical*
``DetectionResult.violations`` to an engine with ``workers=1`` on a seeded
noisy workload — sharding is an execution strategy, never a semantics
change.
"""

import pickle

import pytest

from repro.core.schema import cust_ext_schema
from repro.core.patterns import ComplementSet, ValueSet
from repro.datagen.generator import DatasetGenerator
from repro.datagen.workload import paper_workload
from repro.engine import DataQualityEngine, ShardedBackend, available_backends, create_backend
from repro.exceptions import EngineError

DELEGATES = ("naive", "batch", "incremental")
#: Seeded 5k-tuple noisy workload shared by the equivalence tests.
EQUIVALENCE_SIZE = 5_000


@pytest.fixture(scope="module")
def ext_schema():
    return cust_ext_schema()


@pytest.fixture(scope="module")
def sigma():
    return paper_workload()


@pytest.fixture(scope="module")
def noisy_rows():
    return DatasetGenerator(seed=42).generate_rows(EQUIVALENCE_SIZE, 5.0)


@pytest.fixture(scope="module")
def small_rows():
    return DatasetGenerator(seed=7).generate_rows(400, 10.0)


class TestRegistryAndConstruction:
    def test_sharded_backend_is_registered(self):
        assert "sharded" in available_backends()

    def test_create_backend_forwards_options(self, ext_schema, sigma):
        backend = create_backend(
            "sharded", schema=ext_schema, sigma=sigma,
            delegate="naive", workers=3, executor="serial",
        )
        assert isinstance(backend, ShardedBackend)
        assert backend.delegate == "naive"
        assert backend.workers == 3

    def test_sharded_cannot_delegate_to_itself(self, ext_schema, sigma):
        with pytest.raises(EngineError):
            ShardedBackend(ext_schema, sigma, delegate="sharded")

    def test_unknown_executor_rejected(self, ext_schema, sigma):
        with pytest.raises(EngineError):
            ShardedBackend(ext_schema, sigma, executor="quantum")

    def test_file_backed_path_rejected(self, ext_schema, sigma, tmp_path):
        # A file-backed store would be silently ignored by the in-memory
        # shards; better to fail loudly than change data visibility.
        with pytest.raises(EngineError):
            ShardedBackend(ext_schema, sigma, path=str(tmp_path / "data.db"))
        with pytest.raises(EngineError):
            DataQualityEngine(
                ext_schema, sigma, backend="batch", workers=2, path=str(tmp_path / "data.db")
            )

    def test_invalid_worker_counts_rejected(self, ext_schema, sigma):
        with pytest.raises(EngineError):
            ShardedBackend(ext_schema, sigma, workers=0)
        with pytest.raises(EngineError):
            DataQualityEngine(ext_schema, sigma, workers=0)

    def test_pattern_values_pickle_for_process_workers(self):
        # Shipping Σ to process-pool workers requires picklable patterns;
        # the frozen/slots dataclasses need their explicit __reduce__.
        for pattern in (ValueSet(["a", "b"]), ComplementSet(["NYC", "LI"])):
            assert pickle.loads(pickle.dumps(pattern)) == pattern


class TestFacadeRouting:
    def test_workers_one_keeps_plain_delegate(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="batch", workers=1)
        assert engine.backend_name == "batch"

    def test_workers_many_route_through_sharded(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="batch", workers=4)
        assert engine.backend_name == "sharded"
        assert isinstance(engine.backend, ShardedBackend)
        assert engine.backend.delegate == "batch"
        assert engine.backend.workers == 4

    def test_explicit_sharded_backend_name(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="sharded", workers=2)
        assert engine.backend_name == "sharded"
        assert engine.backend.workers == 2


class TestShardedEquivalence:
    @pytest.mark.parametrize("delegate", DELEGATES)
    def test_workers_n_matches_workers_1_on_noisy_5k(
        self, ext_schema, sigma, noisy_rows, delegate
    ):
        """The satellite guarantee, on the default (process) executor."""
        single = DataQualityEngine(ext_schema, sigma, backend=delegate, workers=1)
        single.load(noisy_rows)
        reference = single.detect()

        sharded = DataQualityEngine(ext_schema, sigma, backend=delegate, workers=4)
        sharded.load(noisy_rows)
        parallel = sharded.detect()

        assert parallel.violations == reference.violations
        assert parallel.tuple_count == reference.tuple_count
        assert (parallel.sv_count, parallel.mv_count, parallel.dirty_count) == (
            reference.sv_count, reference.mv_count, reference.dirty_count,
        )
        single.close()
        sharded.close()

    @pytest.mark.parametrize("executor", ("serial", "thread", "process"))
    def test_every_executor_agrees(self, ext_schema, sigma, small_rows, executor):
        base = DataQualityEngine(ext_schema, sigma, backend="batch")
        base.load(small_rows)
        expected = base.detect().violations

        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=3, executor=executor
        )
        engine.load(small_rows)
        assert engine.detect().violations == expected
        base.close()
        engine.close()

    def test_breakdown_matches_single_threaded(self, ext_schema, sigma, small_rows):
        base = DataQualityEngine(ext_schema, sigma, backend="batch")
        base.load(small_rows)
        base.detect()

        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=3, executor="serial"
        )
        engine.load(small_rows)
        engine.detect()
        assert engine.backend.breakdown() == base.backend.breakdown()
        base.close()
        engine.close()

    def test_apply_update_routes_through_sharded(self, ext_schema, sigma, small_rows):
        delta = DatasetGenerator(seed=11).generate_rows(60, 25.0)
        deletes = list(range(1, 40))

        base = DataQualityEngine(ext_schema, sigma, backend="batch")
        base.load(small_rows)
        base.detect()
        expected = base.apply_update(insert_rows=delta, delete_tids=deletes)

        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=3, executor="serial"
        )
        engine.load(small_rows)
        engine.detect()
        result = engine.apply_update(insert_rows=delta, delete_tids=deletes)

        assert result.violations == expected.violations
        assert not result.incremental  # sharded recomputes, never maintains
        base.close()
        engine.close()

    def test_empty_relation_detects_clean(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="batch", workers=4)
        assert engine.detect().clean
        engine.close()

    def test_empty_lhs_fd_is_summary_merged_exactly(self, ext_schema):
        """X = ∅ means one global group spanning every shard.

        The single-pass plan splits the group round-robin and reconstructs
        its violations through the cross-shard summary merge — no shard can
        witness them alone, and none may be dropped.
        """
        from repro.core import ECFD, ECFDSet

        phi = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
        sigma = ECFDSet([phi])
        rows = DatasetGenerator(seed=13).generate_rows(40, 0.0)

        single = DataQualityEngine(ext_schema, sigma, backend="naive", workers=1)
        single.load(rows)
        reference = single.detect()
        assert not reference.clean  # mixed CT values violate ∅ -> CT

        for executor in ("serial", "process"):
            sharded = DataQualityEngine(
                ext_schema, sigma, backend="naive", workers=4, executor=executor
            )
            sharded.load(rows)
            assert sharded.detect().violations == reference.violations
            sharded.close()
        single.close()

    def test_riders_parallelise_alongside_empty_lhs_fd(self, ext_schema):
        """Regression: riders sharing Σ with an empty-LHS FD used to be dealt
        onto its single-shard colocate_all cluster, serialising
        embarrassingly-parallel work.  Under the single-pass plan the FD is
        summary-merged and the riders spread over every shard."""
        from repro.core import ECFD, ECFDSet

        fd = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
        rider = ECFD(
            ext_schema,
            lhs=["CT"],
            rhs=[],
            pattern_rhs=["AC"],
            tableau=[({"CT": "_"}, {"AC": {"212", "718"}})],
        )
        sigma = ECFDSet([fd, rider])
        rows = DatasetGenerator(seed=17).generate_rows(80, 10.0)

        single = DataQualityEngine(ext_schema, sigma, backend="naive", workers=1)
        single.load(rows)
        reference = single.detect()

        sharded = DataQualityEngine(
            ext_schema, sigma, backend="naive", workers=4, executor="serial"
        )
        sharded.load(rows)
        assert sharded.detect().violations == reference.violations
        # The work actually fans out: several shards hold tuples, not one.
        assert sum(1 for entry in sharded.shard_stats() if entry["tuples"]) > 1
        stats = sharded.partition_stats()
        assert stats["replication_factor"] == 1.0
        assert stats["summary_fragments"] == 1  # the empty-LHS FD
        assert stats["local_fragments"] == 1  # the rider, on every shard
        single.close()
        sharded.close()


class TestBreakdownSinglePass:
    def test_detect_with_breakdown_runs_one_sharded_pass(
        self, ext_schema, sigma, small_rows, monkeypatch
    ):
        """Regression: detect(with_breakdown=True) used to detect twice."""
        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=2, executor="serial"
        )
        engine.load(small_rows)

        calls = []
        original = type(engine.backend)._detect

        def counting(backend_self, want_breakdown):
            calls.append(want_breakdown)
            return original(backend_self, want_breakdown)

        monkeypatch.setattr(type(engine.backend), "_detect", counting)
        result = engine.detect(with_breakdown=True)
        assert calls == [True]
        assert result.per_constraint  # breakdown actually populated
        engine.close()

    def test_plain_detect_keeps_breakdown_cache(self, ext_schema, sigma, small_rows):
        engine = DataQualityEngine(
            ext_schema, sigma, backend="batch", workers=2, executor="serial"
        )
        engine.load(small_rows)
        first = engine.detect(with_breakdown=True).per_constraint
        engine.detect()  # data unchanged: must not clobber the cache
        assert engine.backend.breakdown() == first
        engine.close()


class TestCustomDelegate:
    def test_runtime_registered_delegate_works_sharded(self, ext_schema, sigma, small_rows):
        """The shard task ships the resolved factory, not the registry name."""
        from repro.engine import NaiveBackend, register_backend, unregister_backend

        register_backend("custom-naive", _CustomNaive)
        try:
            base = DataQualityEngine(ext_schema, sigma, backend="naive")
            base.load(small_rows)
            expected = base.detect().violations

            engine = DataQualityEngine(ext_schema, sigma, backend="custom-naive", workers=3)
            engine.load(small_rows)
            assert engine.backend.delegate == "custom-naive"
            assert engine.detect().violations == expected
            base.close()
            engine.close()
        finally:
            unregister_backend("custom-naive")

    def test_engine_workers_reflects_actual_parallelism(self, ext_schema, sigma):
        engine = DataQualityEngine(ext_schema, sigma, backend="sharded")
        assert engine.workers == 1
        assert engine.backend.workers == 1  # serial single-task, as documented
        engine.close()


from repro.engine import NaiveBackend as _NaiveBackendForCustom


class _CustomNaive(_NaiveBackendForCustom):
    """Top-level (picklable) custom delegate for the registry test."""

    name = "custom-naive"
