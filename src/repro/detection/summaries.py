"""Embedded-FD group-summary emission (the shard side of single-pass sharding).

Single-pass sharded detection (:mod:`repro.parallel`) ships every tuple to
exactly one shard, so a fragment whose LHS is not the shard key cannot
witness its multi-tuple violations locally — an ``X``-group may be split
across shards.  Each shard therefore emits, per such fragment, a compact
**group summary**

    (cid, xv)  →  (multiset of yv projections, witness tids)

where ``xv`` / ``yv`` are a matching tuple's projections on the fragment's
LHS / RHS attributes.  Summaries are sufficient statistics for the
embedded-FD semantics: a group violates ``X → Y`` iff the union of its
per-shard yv multisets holds at least two distinct values, and the
violating tuples are exactly the union of the witness tids.  The
coordinator-side merge lives in :mod:`repro.parallel.summary`; this module
owns the *emission* primitives every detector's ``fd_group_summary`` hook
shares, so shards ship aggregated groups instead of raw rows.

The yv side is a multiset (value → count), not a set: the incremental
lanes emit summary *deltas* (:func:`summary_delta`) and a deleted tuple
must only retire a yv value when its last witness disappears.

Wire formats (plain dicts/tuples, picklable across process pools):

``Summary``
    ``{global_cid: {xv: ({yv: count}, [tids])}}`` — one shard's full
    contribution for its current rows.
``SummaryDelta``
    ``{global_cid: {xv: ({yv: signed_count}, [added_tids], [removed_tids])}}``
    — the contribution change of one routed update slice.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.core.ecfd import ECFD
from repro.exceptions import DetectionError

__all__ = [
    "Summary",
    "SummaryDelta",
    "merge_summaries",
    "summarize_rows",
    "summary_delta",
    "accumulate_group",
]

#: One shard's full per-fragment group summary (see module docstring).
Summary = dict[int, dict[tuple, tuple[dict, list]]]
#: One routed update's signed summary contribution change.
SummaryDelta = dict[int, dict[tuple, tuple[dict, list, list]]]


def _single_pattern(fragment: ECFD) -> ECFD:
    if len(fragment.tableau) != 1:
        raise DetectionError(
            "group summaries are emitted per normalized single-pattern "
            f"fragment; got a tableau of {len(fragment.tableau)} patterns"
        )
    return fragment


def accumulate_group(
    groups: dict[tuple, tuple[dict, list]], xv: tuple, yv: tuple, tid: int
) -> None:
    """Fold one matching tuple's projections into a fragment's group map."""
    counts, tids = groups.setdefault(xv, ({}, []))
    counts[yv] = counts.get(yv, 0) + 1
    tids.append(tid)


def summarize_rows(
    fragments: Sequence[tuple[int, ECFD]],
    rows: Iterable[tuple[int, Mapping[str, str]]],
) -> Summary:
    """Summarise ``(tid, row)`` pairs under every fragment's embedded FD.

    The generic emission path (used by the naive detector and by backends
    without a SQL substrate): one pattern match per (row, fragment) pair —
    the same per-tuple work a whole-relation pass spends on the fragment,
    minus the cross-tuple grouping, which the coordinator performs on the
    far smaller summary.  The SQL detectors override this with a pushed-down
    scan (:func:`repro.detection.sqlgen.summary_scan_query`).
    """
    summary: Summary = {cid: {} for cid, _ in fragments}
    matchers = [
        (cid, fragment, _single_pattern(fragment).tableau[0].matches_lhs)
        for cid, fragment in fragments
    ]
    for tid, row in rows:
        for cid, fragment, matches_lhs in matchers:
            if not matches_lhs(row):
                continue
            accumulate_group(
                summary[cid],
                tuple(row[a] for a in fragment.lhs),
                tuple(row[a] for a in fragment.rhs),
                tid,
            )
    return summary


def merge_summaries(summaries: Iterable[Summary]) -> Summary:
    """Merge several shards' full summaries into one partial summary.

    The reduce stage of the remote fabric: a worker hosting several shard
    lanes folds their bootstrap summaries *worker-side* and ships one
    merged partial, so the coordinator receives ``O(workers)`` summaries
    instead of ``O(shards)`` — the empty-LHS worst case (witness sets of
    size ``O(|D|)``) crosses the network once per worker, not once per
    shard.  Exact by construction: shards partition the relation, so yv
    counts add and witness-tid lists concatenate without collision, and
    folding the merged partial into a :class:`~repro.parallel.summary.SummaryStore`
    lands on the same state as folding each input in turn.
    """
    merged: Summary = {}
    for summary in summaries:
        for cid, groups in summary.items():
            slot = merged.setdefault(cid, {})
            for xv, (counts, tids) in groups.items():
                merged_counts, merged_tids = slot.setdefault(xv, ({}, []))
                for yv, count in counts.items():
                    merged_counts[yv] = merged_counts.get(yv, 0) + count
                merged_tids.extend(tids)
    return merged


def summary_delta(
    fragments: Sequence[tuple[int, ECFD]],
    deleted: Sequence[tuple[int, Mapping[str, str]]],
    inserted: Sequence[tuple[int, Mapping[str, str]]],
) -> SummaryDelta:
    """The signed summary contribution of one update slice.

    Both deletions and insertions arrive as ``(tid, row)`` pairs — a deleted
    tuple's values are needed to know *which* group loses a witness, so the
    caller resolves them before the tuple is dropped from storage.  Cost is
    proportional to the delta, never to the shard: this is what the stateful
    INCDETECT lanes emit alongside their maintained flags.  It matches with
    :meth:`~repro.core.ecfd.PatternTuple.matches_lhs`; pattern constants
    are text, so that is the match every full summary made, in Python or
    in a pushed-down SQL scan.
    """
    delta: SummaryDelta = {}
    for cid, fragment in fragments:
        matches_lhs = _single_pattern(fragment).tableau[0].matches_lhs
        groups: dict[tuple, tuple[dict, list, list]] = {}
        for sign, pairs in ((-1, deleted), (1, inserted)):
            for tid, row in pairs:
                if not matches_lhs(row):
                    continue
                xv = tuple(row[a] for a in fragment.lhs)
                yv = tuple(row[a] for a in fragment.rhs)
                counts, added, removed = groups.setdefault(xv, ({}, [], []))
                counts[yv] = counts.get(yv, 0) + sign
                (added if sign > 0 else removed).append(tid)
        if groups:
            delta[cid] = groups
    return delta
