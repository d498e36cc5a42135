"""Unit tests for partition planning and hash partitioning.

``extract_partition_plan`` is the legacy LHS clustering (still driving
primary-key selection and replication accounting); ``plan_partitions`` is
the single-pass plan the sharded backend executes.
"""

import pytest

from repro.core import ECFD, Relation
from repro.core.schema import cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.datagen.workload import paper_workload
from repro.parallel import (
    extract_partition_plan,
    partition_rows,
    plan_partitions,
    route_delta,
    shard_index,
)
from repro.core.ecfd import ECFDSet


@pytest.fixture
def ext_schema():
    return cust_ext_schema()


@pytest.fixture
def sigma():
    return paper_workload()


class TestPartitionPlan:
    def test_every_fragment_assigned_exactly_once(self, sigma):
        plan = extract_partition_plan(sigma)
        assigned = [cid for cluster in plan for cid in cluster.fragment_cids()]
        expected = [cid for cid, _ in sigma.normalize()]
        assert sorted(assigned) == sorted(expected)
        assert len(assigned) == len(set(assigned))

    def test_fd_fragments_only_join_subset_keyed_clusters(self, sigma):
        """Co-location safety: an embedded-FD fragment's cluster key ⊆ its LHS."""
        plan = extract_partition_plan(sigma)
        for cluster in plan:
            for _, fragment in cluster.fragments:
                if fragment.requires_colocation():
                    assert set(cluster.key) <= set(fragment.lhs)

    def test_paper_workload_clusters_by_fd_lhs(self, sigma):
        keys = {cluster.key for cluster in extract_partition_plan(sigma)}
        assert keys == {("CT",), ("ZIP",), ("ITEM_TITLE",)}

    def test_sv_only_workload_gets_keyless_cluster(self, ext_schema):
        phi = ECFD(
            ext_schema,
            lhs=["CT"],
            rhs=[],
            pattern_rhs=["AC"],
            tableau=[({"CT": "NYC"}, {"AC": {"212", "718"}})],
        )
        plan = extract_partition_plan(ECFDSet([phi]))
        assert len(plan) == 1
        assert plan[0].key == ()

    def test_empty_lhs_fd_gets_colocate_all_cluster(self, ext_schema):
        """X = ∅ embedded FDs form one global group: single-shard cluster."""
        phi = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
        plan = extract_partition_plan(ECFDSet([phi]))
        assert len(plan) == 1
        assert plan[0].colocate_all
        assert plan[0].key == ()

    def test_sv_only_cluster_is_not_colocate_all(self, ext_schema):
        phi = ECFD(
            ext_schema,
            lhs=["CT"],
            rhs=[],
            pattern_rhs=["AC"],
            tableau=[({"CT": "NYC"}, {"AC": {"212", "718"}})],
        )
        plan = extract_partition_plan(ECFDSet([phi]))
        assert len(plan) == 1
        assert not plan[0].colocate_all

    def test_requires_colocation_tracks_embedded_fd(self, ext_schema):
        fd = ECFD(ext_schema, ["CT"], ["AC"], tableau=[({"CT": "_"}, {"AC": "_"})])
        sv = ECFD(ext_schema, ["CT"], [], ["AC"], tableau=[({"CT": "NYC"}, {"AC": "212"})])
        assert fd.requires_colocation()
        assert not sv.requires_colocation()

    def test_plan_is_deterministic(self, sigma):
        first = [(c.key, c.fragment_cids()) for c in extract_partition_plan(sigma)]
        second = [(c.key, c.fragment_cids()) for c in extract_partition_plan(sigma)]
        assert first == second


class TestSinglePassPlan:
    def test_every_fragment_on_exactly_one_side(self, sigma):
        plan = plan_partitions(sigma)
        assigned = [cid for cid, _ in plan.local_fragments + plan.summary_fragments]
        expected = [cid for cid, _ in sigma.normalize()]
        assert sorted(assigned) == sorted(expected)
        assert len(assigned) == len(set(assigned))

    def test_local_fds_contain_key_summary_fds_do_not(self, sigma):
        plan = plan_partitions(sigma)
        assert plan.key  # the paper workload offers a useful key
        for _, fragment in plan.local_fragments:
            if fragment.requires_colocation():
                assert set(plan.key) <= set(fragment.lhs)
        for _, fragment in plan.summary_fragments:
            assert fragment.requires_colocation()
            assert not set(plan.key) <= set(fragment.lhs)

    def test_primary_key_serves_most_fragments(self, sigma):
        """The key is the greedy cluster key covering the most embedded FDs."""
        plan = plan_partitions(sigma)
        fd_lhs = [
            set(f.lhs) for _, f in sigma.normalize()
            if f.requires_colocation() and f.lhs
        ]
        local = sum(1 for lhs in fd_lhs if set(plan.key) <= lhs)
        for cluster in extract_partition_plan(sigma):
            if cluster.key:
                assert sum(1 for lhs in fd_lhs if set(cluster.key) <= lhs) <= local

    def test_riders_are_always_local(self, ext_schema):
        fd = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
        rider = ECFD(
            ext_schema, lhs=["CT"], rhs=[], pattern_rhs=["AC"],
            tableau=[({"CT": "NYC"}, {"AC": {"212", "718"}})],
        )
        plan = plan_partitions(ECFDSet([fd, rider]))
        assert plan.key == ()  # no embedded-FD LHS offers a hash key
        assert [f.requires_colocation() for _, f in plan.local_fragments] == [False]
        assert [f.lhs for _, f in plan.summary_fragments] == [()]

    def test_empty_lhs_fd_is_summary_merged(self, ext_schema):
        phi = ECFD(ext_schema, lhs=[], rhs=["CT"], tableau=[({}, {"CT": "_"})])
        plan = plan_partitions(ECFDSet([phi]))
        assert plan.local_fragments == []
        assert len(plan.summary_fragments) == 1

    def test_shard_fragments_project_summary_fds(self, sigma):
        plan = plan_partitions(sigma)
        projected = dict(plan.shard_fragments())
        for cid, fragment in plan.summary_fragments:
            projection = projected[cid]
            assert projection.rhs == ()
            assert projection.pattern_rhs == fragment.rhs + fragment.pattern_rhs
            assert projection.lhs == fragment.lhs
        for cid, fragment in plan.local_fragments:
            assert projected[cid] is fragment

    def test_replication_accounting(self, sigma):
        plan = plan_partitions(sigma)
        assert plan.replication_factor == 1.0
        # The clustering behind key selection still finds CT / ZIP / ITEM_TITLE.
        assert len(extract_partition_plan(sigma)) == 3

    def test_plan_is_deterministic(self, sigma):
        first = plan_partitions(sigma)
        second = plan_partitions(sigma)
        assert first.describe() == second.describe()

    def test_route_delta_routes_each_tuple_once(self, sigma):
        plan = plan_partitions(sigma)
        rows = DatasetGenerator(seed=4).generate_rows(50, 10.0)
        pairs = [(tid, {k: str(v) for k, v in row.items()}) for tid, row in enumerate(rows, start=1)]
        routed = route_delta(plan, 4, pairs[:20], pairs[20:])
        deletes = [tid for d, _ in routed.values() for tid, _ in d]
        inserts = [tid for _, i in routed.values() for tid, _ in i]
        assert sorted(deletes) == [tid for tid, _ in pairs[:20]]
        assert sorted(inserts) == [tid for tid, _ in pairs[20:]]
        # Routing agrees with load-time bucketing: keyed on the projection.
        for shard, (dels, ins) in routed.items():
            for tid, row in dels + ins:
                assert shard_index(row, plan.key, 4, tid) == shard


class TestHashPartitioning:
    def test_shards_cover_relation_disjointly(self):
        rows = DatasetGenerator(seed=1).generate_rows(200, 10.0)
        relation = Relation(cust_ext_schema(), rows)
        shards = partition_rows(relation, ("CT",), 4)
        assert len(shards) == 4
        seen = [tid for shard in shards for tid, _ in shard]
        assert sorted(seen) == relation.tids()

    def test_key_groups_are_colocated(self):
        rows = DatasetGenerator(seed=2).generate_rows(300, 10.0)
        relation = Relation(cust_ext_schema(), rows)
        shards = partition_rows(relation, ("CT", "ZIP"), 8)
        location = {}
        for index, shard in enumerate(shards):
            for _, row in shard:
                key = (row["CT"], row["ZIP"])
                assert location.setdefault(key, index) == index

    def test_shard_index_is_stable_and_salt_free(self):
        # crc32, not the per-process-salted builtin hash: the same row must
        # map to the same shard in the coordinator and in every worker.
        row = {"CT": "NYC", "ZIP": "10001"}
        assert shard_index(row, ("CT",), 7) == shard_index(dict(row), ("CT",), 7)
        assert shard_index(row, ("CT",), 1) == 0

    def test_keyless_sharding_deals_by_tid(self):
        row = {"CT": "NYC"}
        assert shard_index(row, (), 4, tid=6) == 2
        assert shard_index(row, (), 4, tid=8) == 0

    def test_single_shard_keeps_everything(self):
        rows = DatasetGenerator(seed=3).generate_rows(50, 5.0)
        relation = Relation(cust_ext_schema(), rows)
        [shard] = partition_rows(relation, ("CT",), 1)
        assert [tid for tid, _ in shard] == relation.tids()

    def test_rows_are_stringified_like_backend_storage(self):
        relation = Relation(cust_ext_schema())
        relation.insert(
            {"AC": 518, "PN": 1, "NM": "a", "STR": "s", "CT": "Albany",
             "ZIP": 12238, "ITEM_TYPE": "book", "ITEM_TITLE": "t", "PRICE": 10}
        )
        [shard] = partition_rows(relation, ("ZIP",), 1)
        (_, row) = shard[0]
        assert row["ZIP"] == "12238" and row["AC"] == "518"
