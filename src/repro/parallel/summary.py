"""Coordinator-side merge of cross-shard embedded-FD group summaries.

The shard side — what a summary *is* and how detectors emit one — lives in
:mod:`repro.detection.summaries`.  This module owns the coordinator's half
of the single-pass protocol: :class:`SummaryStore` folds per-shard
summaries (full, claimed from the lanes at bootstrap) and signed deltas
(from the stateful INCDETECT lanes) into one merged group map and materialises
the multi-tuple violations no single shard could witness.

The merge is exact: shards partition the relation, so summing yv multisets
and unioning witness tids per ``(cid, xv)`` group reconstructs precisely
the group statistics a whole-relation pass computes, and a group violates
its embedded FD iff the merged multiset holds ≥ 2 distinct yv values.
"""

from __future__ import annotations

import pickle

from repro.core.violations import MultiTupleViolation, ViolationSet
from repro.detection.summaries import Summary, SummaryDelta

__all__ = ["SummaryStore", "summary_nbytes"]


def summary_nbytes(summary: object) -> int:
    """Approximate wire size of a summary (its pickled length, in bytes).

    Pickling is exactly what the process executor pays to ship the summary
    back to the coordinator, so this is the honest transfer-cost metric the
    benchmarks and ``shard_stats`` report.
    """
    return len(pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL))


class SummaryStore:
    """The coordinator's merged view of every shard's group summaries.

    Maintains, per ``(cid, xv)`` group, the global yv multiset and witness
    tid set, under both full per-shard summaries (bootstrap) and signed
    deltas (sharded INCDETECT).  The embedded-FD verdict
    is read off the merged state: a group violates iff its yv multiset has
    at least two distinct values with positive count.  The set of violating
    groups is tracked *incrementally* as deltas land, so the per-update
    readback (:meth:`violations`) iterates only the violating groups —
    cost proportional to the current violations, never to the total group
    population.
    """

    def __init__(self) -> None:
        #: (cid, xv) -> [ {yv: count}, {tid: count} ]
        #:
        #: Witness tids are *counted*, not set-collected, so per-shard
        #: deltas commute: when one update round deletes a tuple and
        #: re-inserts its identifier (the ``max(tid) + 1`` discipline reuses
        #: freed maxima), the -1 and +1 may arrive from different shards in
        #: either order — signed arithmetic lands on the right state where
        #: a set union/difference would not.
        self._groups: dict[tuple[int, tuple], list] = {}
        #: Keys of ``_groups`` whose yv multiset currently holds >= 2
        #: distinct values — maintained on every group mutation.
        self._violating: set[tuple[int, tuple]] = set()
        #: Running total of witness tids across all groups.
        self._witnesses = 0

    def _reclassify(self, key: tuple[int, tuple], merged: list) -> None:
        if len(merged[0]) > 1:
            self._violating.add(key)
        else:
            self._violating.discard(key)

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    def apply_summary(self, summary: Summary) -> None:
        """Fold one shard's full summary into the merged state."""
        for cid, groups in summary.items():
            for xv, (counts, tids) in groups.items():
                key = (cid, xv)
                merged = self._groups.setdefault(key, [{}, {}])
                for yv, count in counts.items():
                    merged[0][yv] = merged[0].get(yv, 0) + count
                for tid in tids:
                    merged[1][tid] = merged[1].get(tid, 0) + 1
                self._witnesses += len(tids)
                self._reclassify(key, merged)

    def apply_delta(self, delta: SummaryDelta) -> int:
        """Fold one shard's signed delta in; returns the number of touched groups.

        Groups whose every witness disappeared are pruned, so the store
        never outlives the data it summarises.
        """
        touched = 0
        for cid, groups in delta.items():
            for xv, (counts, added, removed) in groups.items():
                key = (cid, xv)
                merged = self._groups.setdefault(key, [{}, {}])
                touched += 1
                for yv, count in counts.items():
                    updated = merged[0].get(yv, 0) + count
                    if updated > 0:
                        merged[0][yv] = updated
                    else:
                        merged[0].pop(yv, None)
                for tid in added:
                    present = merged[1].get(tid, 0)
                    merged[1][tid] = present + 1
                    if not present:
                        self._witnesses += 1
                for tid in removed:
                    remaining = merged[1].get(tid, 0) - 1
                    if remaining > 0:
                        merged[1][tid] = remaining
                    else:
                        merged[1].pop(tid, None)
                        self._witnesses -= 1
                if merged[1]:
                    self._reclassify(key, merged)
                else:
                    del self._groups[key]
                    self._violating.discard(key)
        return touched

    def clear(self) -> None:
        self._groups.clear()
        self._violating.clear()
        self._witnesses = 0

    # ------------------------------------------------------------------
    # Readback
    # ------------------------------------------------------------------
    def violations(self) -> ViolationSet:
        """The multi-tuple violations witnessed by the merged summaries.

        One :class:`MultiTupleViolation` per violating group (its ``xv`` is
        the group's shared LHS value vector, its tids the union of every
        shard's witnesses) — the same records a whole-relation reference
        pass produces for these fragments.  Iterates the incrementally
        maintained violating subset only: cost is proportional to the
        number of violating tuples, never to |D| or the group population.
        """
        result = ViolationSet()
        for key in sorted(self._violating):
            cid, xv = key
            result.add_multi(
                MultiTupleViolation(
                    constraint_id=cid,
                    lhs_values=xv,
                    tids=frozenset(self._groups[key][1]),
                )
            )
        return result

    def group_counts(self, cid: int, xv: tuple) -> dict[tuple, int] | None:
        """The merged ``{yv: count}`` multiset of one ``(cid, xv)`` group.

        ``None`` when the store holds no such group.  This is the election
        source of sharded repair: a cross-shard embedded-FD group's majority
        RHS is read off the merged multiset directly — no shard ever ships
        its rows to the coordinator for the vote.
        """
        entry = self._groups.get((cid, xv))
        if entry is None:
            return None
        return dict(entry[0])

    def per_constraint_stats(self) -> dict[int, dict[str, int]]:
        """MV statistics per constraint: violating group and tuple counts."""
        stats: dict[int, dict] = {}
        for cid, xv in self._violating:
            slot = stats.setdefault(cid, {"mv_groups": 0, "mv_tuples": set()})
            slot["mv_groups"] += 1
            slot["mv_tuples"].update(self._groups[(cid, xv)][1])
        return {
            cid: {"mv_groups": slot["mv_groups"], "mv_tuples": len(slot["mv_tuples"])}
            for cid, slot in sorted(stats.items())
        }

    def group_count(self) -> int:
        """Number of merged ``(cid, xv)`` groups currently tracked."""
        return len(self._groups)

    def witness_count(self) -> int:
        """Total witness tids tracked across all groups (the store's memory)."""
        return self._witnesses
