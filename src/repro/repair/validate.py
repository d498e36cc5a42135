"""Coordinator-local incremental re-validation for batched repair rounds.

Shipping every repair round to the backend costs one lane round-trip per
round; batching several rounds into one routed delta requires the planner's
*input flags* for rounds 2..k before anything was shipped.
:class:`MirrorValidator` supplies them: it maintains the exact violation
flags of the strategy's mirror relation under cell changes, so a repair
strategy can plan round after round locally and ship the accumulated fixes
as a single delta.

Exactness has two halves:

* **against the mirror** the validator is exact by construction: per
  embedded-FD fragment it keeps the ``xv → {tid: yv}`` group index (seeded
  with one pass over the mirror), every cell change moves its tuple between
  groups, and a group violates iff its yv multiset holds ≥ 2 distinct
  values — the reference semantics of
  :meth:`repro.core.ecfd.ECFD.violations`.  SV flags are re-derived for
  exactly the changed tuples;
* **against the backend** it is exact because there is one match
  relation: pattern constants are text (:mod:`repro.core.patterns`), so
  the Python matching here agrees with the SQL encoding on the text-stored
  data for every Σ.  Locally planned rounds are therefore bit-identical to
  rounds planned against shipped backend flags.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.violations import ViolationSet

__all__ = ["MirrorValidator"]


class _FDIndex:
    """The live group index of one embedded-FD fragment."""

    __slots__ = ("fragment", "pattern", "attributes", "members", "counts", "violating")

    def __init__(self, fragment: ECFD):
        self.fragment = fragment
        self.pattern = fragment.tableau[0]
        #: Attributes whose change can move a tuple between groups (LHS
        #: pattern match + xv read the LHS, yv reads the RHS).
        self.attributes = frozenset(fragment.lhs) | frozenset(fragment.rhs)
        #: xv -> {tid: yv} over tuples matching the LHS pattern.
        self.members: dict[tuple, dict[int, tuple]] = {}
        #: xv -> {yv: positive count}; zero entries are pruned, so a group
        #: violates iff len(counts[xv]) >= 2 (reference MV semantics).
        self.counts: dict[tuple, dict[tuple, int]] = {}
        self.violating: set[tuple] = set()

    def _reclassify(self, xv: tuple) -> None:
        if len(self.counts.get(xv, ())) >= 2:
            self.violating.add(xv)
        else:
            self.violating.discard(xv)

    def membership(self, row: Mapping[str, object]) -> tuple[tuple, tuple] | None:
        """The ``(xv, yv)`` slot of a row, or ``None`` if the LHS mismatches."""
        if not self.pattern.matches_lhs(row):
            return None
        return (
            tuple(row[a] for a in self.fragment.lhs),
            tuple(row[a] for a in self.fragment.rhs),
        )

    def add(self, tid: int, xv: tuple, yv: tuple) -> None:
        self.members.setdefault(xv, {})[tid] = yv
        counts = self.counts.setdefault(xv, {})
        counts[yv] = counts.get(yv, 0) + 1
        self._reclassify(xv)

    def remove(self, tid: int, xv: tuple, yv: tuple) -> None:
        group = self.members[xv]
        del group[tid]
        counts = self.counts[xv]
        remaining = counts[yv] - 1
        if remaining > 0:
            counts[yv] = remaining
        else:
            del counts[yv]
        if group:
            self._reclassify(xv)
        else:
            del self.members[xv]
            del self.counts[xv]
            self.violating.discard(xv)


class MirrorValidator:
    """Exact maintained violation flags of a relation under cell changes.

    Parameters
    ----------
    sigma:
        The constraint set; fragments are the normalized single-pattern
        form, like everywhere else in the detection stack.
    relation:
        The relation whose flags to maintain.  The validator snapshots the
        rows at construction (one pass, O(|D| x fragments) index build) and
        afterwards tracks them itself through :meth:`apply_changes` — the
        caller may mutate ``relation`` in lockstep (the fix planner does)
        without confusing the validator.
    """

    def __init__(self, sigma: ECFDSet | Sequence[ECFD], relation: Relation):
        self.sigma = sigma if isinstance(sigma, ECFDSet) else ECFDSet(list(sigma))
        self._fragments = [fragment for _, fragment in self.sigma.normalize()]
        self._rows: dict[int, dict[str, object]] = {
            t.tid: t.as_dict() for t in relation.tuples() if t.tid is not None
        }
        self._fd = [_FDIndex(f) for f in self._fragments if f.rhs]
        self._sv: set[int] = set()
        for tid, row in self._rows.items():
            self._refresh_sv(tid, row)
        for index in self._fd:
            for tid, row in self._rows.items():
                slot = index.membership(row)
                if slot is not None:
                    index.add(tid, *slot)

    def _refresh_sv(self, tid: int, row: Mapping[str, object]) -> None:
        for fragment in self._fragments:
            pattern = fragment.tableau[0]
            if pattern.matches_lhs(row) and not pattern.matches_rhs(row):
                self._sv.add(tid)
                return
        self._sv.discard(tid)

    def apply_changes(self, changes: Sequence) -> ViolationSet:
        """Fold a batch of cell changes in and return the updated flags.

        ``changes`` are :class:`~repro.repair.cost.CellChange`-shaped
        (``tid`` / ``attribute`` / ``new_value``), applied in order —
        exactly the batch a repair round planned.  Cost is proportional to
        the batch, never to |D|.
        """
        touched: set[int] = set()
        for change in changes:
            tid = change.tid
            row = self._rows[tid]
            new_row = dict(row)
            new_row[change.attribute] = str(change.new_value)
            for index in self._fd:
                if change.attribute not in index.attributes:
                    continue
                before = index.membership(row)
                after = index.membership(new_row)
                if before == after:
                    continue
                if before is not None:
                    index.remove(tid, *before)
                if after is not None:
                    index.add(tid, *after)
            self._rows[tid] = new_row
            touched.add(tid)
        for tid in touched:
            self._refresh_sv(tid, self._rows[tid])
        return self.flags()

    def flags(self) -> ViolationSet:
        """The current SV / MV flags (cost proportional to the violations)."""
        mv: set[int] = set()
        for index in self._fd:
            for xv in index.violating:
                mv.update(index.members[xv])
        return ViolationSet.from_flags(self._sv, mv)
