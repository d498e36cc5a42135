"""Single-pass hash partitioning of relations for sharded eCFD detection.

Sharded detection (see :mod:`repro.parallel.sharded`) splits a relation into
shared-nothing shards and runs an ordinary detector per shard.  Every tuple
is shipped to exactly **one** shard — replication factor 1.0 — under one
partition pass:

* the relation is hashed on a single **primary key** (chosen from the
  embedded-FD LHS structure of Σ), or dealt round-robin by ``tid`` when no
  useful key exists;
* **local fragments** are evaluated natively per shard: pattern-constraint
  riders (``Y = ∅``, single-tuple violations only — exact on any disjoint
  partition) and embedded-FD fragments whose LHS contains the primary key
  (tuples agreeing on ``X ⊇ key`` also agree on ``key``, so their groups
  are complete within one shard);
* **summary fragments** are the remaining embedded-FD fragments — their
  ``X``-groups may be split across shards, so each shard evaluates only
  their *pattern projection* (:meth:`repro.core.ecfd.ECFD.pattern_projection`,
  which carries the identical SV semantics) and emits compact
  ``(cid, xv) → (yv multiset, witness tids)`` group summaries
  (:mod:`repro.detection.summaries`); the coordinator merges the summaries
  across shards (:mod:`repro.parallel.summary`) to materialise the
  multi-tuple violations no single shard can witness.

The primary key is chosen by greedily clustering the embedded-FD fragments
by LHS intersection (fragments whose LHS sets share a non-empty common
subset cluster on that intersection) and taking the key that serves the
most fragments locally.  Empty-LHS embedded FDs (one global ``X``-group)
are always summary fragments — under summaries they parallelise like
everything else, instead of forcing the whole relation onto one shard as
the pre-1.4 ``colocate_all`` cluster did.

Hashing uses :func:`zlib.crc32`, not the builtin ``hash``: Python salts
string hashes per process, and shard assignment must agree between the
coordinating process and (potentially forked-then-respawned) workers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.schema import Value

__all__ = [
    "PartitionCluster",
    "PartitionPlan",
    "bucket_rows",
    "extract_partition_plan",
    "plan_partitions",
    "route_delta",
    "shard_index",
    "partition_rows",
]

#: Separator between projected values inside a hash key; chosen outside the
#: generated data's alphabet so composite keys cannot collide by juxtaposition.
_KEY_SEPARATOR = "\x1f"


@dataclass
class PartitionCluster:
    """One partition pass over the relation and the fragments it serves.

    Attributes
    ----------
    key:
        The attributes the relation is hash-partitioned on, in schema-lhs
        order.  Empty when the cluster holds only co-location-free fragments
        (tuples are then dealt round-robin by ``tid``) or when
        ``colocate_all`` is set.
    fragments:
        Normalized single-pattern fragments evaluated over this cluster's
        shards, as ``(cid, ecfd)`` pairs with their *global* constraint
        identifiers (the CIDs a whole-Σ detection would assign).
    colocate_all:
        ``True`` for the cluster holding embedded-FD fragments with an
        *empty* LHS: every tuple belongs to the one global ``X``-group, so
        the whole relation must go to a single shard — this cluster cannot
        be parallelised, only overlapped with the others.
    """

    key: tuple[str, ...]
    fragments: list[tuple[int, ECFD]] = field(default_factory=list)
    colocate_all: bool = False

    def fragment_cids(self) -> list[int]:
        """The global constraint identifiers served by this cluster, sorted."""
        return sorted(cid for cid, _ in self.fragments)


def extract_partition_plan(sigma: ECFDSet) -> list[PartitionCluster]:
    """Cluster Σ's normalized fragments into co-location-safe partition passes.

    Every fragment of ``sigma.normalize()`` is assigned to exactly one
    cluster; embedded-FD fragments only join clusters whose key is a subset
    of their LHS.  The plan is deterministic for a given Σ.

    This is the *clustered* (multi-pass) plan: detection would replicate
    the relation once per cluster.  The sharded backend no longer executes
    it — :func:`plan_partitions` builds the single-pass summary-merge plan
    instead — but the clustering still drives its primary-key selection.
    """
    fd_fragments: list[tuple[int, ECFD]] = []
    rider_fragments: list[tuple[int, ECFD]] = []
    for cid, fragment in sigma.normalize():
        if fragment.requires_colocation():
            fd_fragments.append((cid, fragment))
        else:
            rider_fragments.append((cid, fragment))

    clusters: list[PartitionCluster] = []
    for cid, fragment in fd_fragments:
        lhs_set = set(fragment.lhs)
        if not lhs_set:
            # X = ∅: one global group — single-shard cluster, never hashed.
            target = next((c for c in clusters if c.colocate_all), None)
            if target is None:
                target = PartitionCluster(key=(), colocate_all=True)
                clusters.append(target)
            target.fragments.append((cid, fragment))
            continue
        placed = False
        for cluster in clusters:
            common = [a for a in cluster.key if a in lhs_set]
            if common:
                cluster.key = tuple(common)
                cluster.fragments.append((cid, fragment))
                placed = True
                break
        if not placed:
            clusters.append(PartitionCluster(key=fragment.lhs, fragments=[(cid, fragment)]))

    if not clusters:
        clusters.append(PartitionCluster(key=()))
    for index, rider in enumerate(rider_fragments):
        clusters[index % len(clusters)].fragments.append(rider)

    # Drop clusters that ended up empty (possible only when Σ is empty) and
    # fix a deterministic fragment order inside each cluster.
    clusters = [c for c in clusters if c.fragments]
    for cluster in clusters:
        cluster.fragments.sort(key=lambda pair: pair[0])
    return clusters


@dataclass
class PartitionPlan:
    """The single-pass partition plan: one hash key, two fragment sides.

    Attributes
    ----------
    key:
        The attributes the relation is hash-partitioned on (the *primary
        key*); empty when no embedded-FD LHS offers one — tuples are then
        dealt round-robin by ``tid``.
    local_fragments:
        ``(global CID, fragment)`` pairs evaluated natively per shard:
        pattern-constraint riders and embedded-FD fragments whose LHS
        contains ``key`` (their ``X``-groups are complete within a shard).
    summary_fragments:
        ``(global CID, fragment)`` pairs whose embedded FD is resolved by
        the cross-shard summary merge; shards evaluate only their pattern
        projection locally and emit ``(cid, xv) → (yv multiset, tids)``
        group summaries.
    """

    key: tuple[str, ...]
    local_fragments: list[tuple[int, ECFD]] = field(default_factory=list)
    summary_fragments: list[tuple[int, ECFD]] = field(default_factory=list)

    @property
    def replication_factor(self) -> float:
        """Rows shipped to shards per stored row — 1.0 by construction.

        The single hash pass sends every tuple to exactly one shard.
        """
        return 1.0

    def shard_fragments(self) -> list[tuple[int, ECFD]]:
        """The fragments every shard evaluates natively, in deterministic order.

        Local fragments verbatim, then the pattern projections of the
        summary fragments (identical SV semantics, no embedded FD) — the
        per-shard Σ a worker builds its delegate from.
        """
        return self.local_fragments + [
            (cid, fragment.pattern_projection())
            for cid, fragment in self.summary_fragments
        ]

    def fragment_cids(self) -> list[int]:
        """Every global constraint identifier served by the plan, sorted."""
        return sorted(
            cid for cid, _ in self.local_fragments + self.summary_fragments
        )

    def describe(self) -> dict:
        """A loggable description: key, fragment split and replication factor."""
        return {
            "key": self.key,
            "local_cids": sorted(cid for cid, _ in self.local_fragments),
            "summary_cids": sorted(cid for cid, _ in self.summary_fragments),
            "replication_factor": self.replication_factor,
        }


def plan_partitions(sigma: "ECFDSet | Sequence[ECFD]") -> PartitionPlan:
    """The single-pass partition plan for a workload — the public entry point.

    Accepts either an :class:`~repro.core.ecfd.ECFDSet` or any sequence of
    eCFDs, mirroring every other public constructor in the library.  The
    primary key is the greedy LHS-cluster key serving the most embedded-FD
    fragments locally (see the module docstring); every other embedded-FD
    fragment — including empty-LHS ones — lands on the summary side.  The
    plan is deterministic for a given Σ, and both ``detect`` and
    ``apply_update`` of the sharded backend route through the *same* plan,
    so a tuple always lands on the shard that examined it at load time.
    """
    ecfds = sigma if isinstance(sigma, ECFDSet) else ECFDSet(list(sigma))
    plan = PartitionPlan(key=())
    fd_fragments: list[tuple[int, ECFD]] = []
    for cid, fragment in ecfds.normalize():
        if not fragment.requires_colocation():
            # Pattern-constraint rider: exact on any disjoint partition.
            plan.local_fragments.append((cid, fragment))
        elif fragment.lhs:
            fd_fragments.append((cid, fragment))
        else:
            # X = ∅: one global group — always summary-merged (the summary
            # protocol handles the split group exactly; forcing the whole
            # relation onto one shard would serialise everything else).
            plan.summary_fragments.append((cid, fragment))

    # Candidate keys come from the one greedy LHS-intersection clustering
    # (:func:`extract_partition_plan`); the primary key is the candidate
    # serving the most fragments locally (ties keep the earliest candidate
    # — deterministic for a given Σ).
    candidates = [
        cluster.key for cluster in extract_partition_plan(ecfds) if cluster.key
    ]

    def served(key: tuple[str, ...]) -> int:
        return sum(1 for _, f in fd_fragments if set(key) <= set(f.lhs))

    if candidates:
        plan.key = max(candidates, key=served)

    for cid, fragment in fd_fragments:
        if plan.key and set(plan.key) <= set(fragment.lhs):
            plan.local_fragments.append((cid, fragment))
        else:
            plan.summary_fragments.append((cid, fragment))
    plan.local_fragments.sort(key=lambda pair: pair[0])
    plan.summary_fragments.sort(key=lambda pair: pair[0])
    return plan


def route_delta(
    plan: PartitionPlan,
    workers: int,
    delete_rows: Sequence[tuple[int, Mapping[str, str]]],
    insert_rows: Sequence[tuple[int, Mapping[str, str]]],
) -> dict[int, tuple[list[tuple[int, Mapping[str, str]]], list[tuple[int, Mapping[str, str]]]]]:
    """Route an update ΔD to the shards it touches (exactly one per tuple).

    Both deletions and insertions arrive as ``(tid, row)`` pairs — deletions
    need their row *values* (resolved before the tuple is dropped from
    storage) both for the hash projection and for the summary deltas the
    stateful lanes emit.  The shard assignment is exactly the one
    :func:`bucket_rows` used at load time: hash of the primary-key
    projection, or round-robin by ``tid`` for a keyless plan.

    Returns a mapping from ``shard_index`` to ``(delete_pairs,
    insert_pairs)`` containing *only* the touched shards — the caller
    dispatches incremental work to those and leaves every other shard
    untouched, which is what makes sharded INCDETECT's cost proportional to
    the delta rather than to |D|.
    """
    routed: dict[int, tuple[list, list]] = {}
    shards = max(1, workers)

    def slot(shard: int) -> tuple[list, list]:
        return routed.setdefault(shard, ([], []))

    for tid, row in delete_rows:
        slot(shard_index(row, plan.key, shards, tid))[0].append((tid, row))
    for tid, row in insert_rows:
        slot(shard_index(row, plan.key, shards, tid))[1].append((tid, row))
    return routed


def shard_index(row: Mapping[str, Value], key: Sequence[str], shards: int, tid: int = 0) -> int:
    """The shard a tuple belongs to under a partition key.

    Keyed clusters hash the stringified projection (values are compared as
    text throughout the detection substrate); keyless clusters deal tuples
    round-robin by ``tid`` for balance.
    """
    if shards <= 1:
        return 0
    if not key:
        return tid % shards
    projected = _KEY_SEPARATOR.join(str(row[attribute]) for attribute in key)
    return zlib.crc32(projected.encode("utf-8")) % shards


def bucket_rows(
    rows: Sequence[tuple[int, dict[str, str]]], key: Sequence[str], shards: int
) -> list[list[tuple[int, dict[str, str]]]]:
    """Bucket pre-materialised ``(tid, row)`` pairs into ``shards`` lists.

    The shard-assignment loop shared by :func:`partition_rows` and the
    sharded backend's task builder: tuples agreeing on ``key`` are
    guaranteed to share a shard; empty shards are kept (callers skip them)
    so shard indices stay aligned.  An empty ``key`` deals rows round-robin,
    which is only sound for co-location-free fragments — ``colocate_all``
    clusters need the whole relation in one shard instead.
    """
    buckets: list[list[tuple[int, dict[str, str]]]] = [[] for _ in range(max(1, shards))]
    for tid, row in rows:
        buckets[shard_index(row, key, shards, tid=tid)].append((tid, row))
    return buckets


def partition_rows(
    relation: Relation, key: Sequence[str], shards: int
) -> list[list[tuple[int, dict[str, str]]]]:
    """Split a relation into ``shards`` lists of ``(tid, stringified row)``.

    Rows are stringified exactly like every backend's storage layer does, so
    per-shard detection sees the same values a whole-relation pass would;
    sharding semantics are those of :func:`bucket_rows`.
    """
    attributes = relation.schema.attribute_names
    rows = []
    for t in relation.tuples():
        assert t.tid is not None
        rows.append((t.tid, {a: str(t[a]) for a in attributes}))
    return bucket_rows(rows, key, shards)
