"""Sharded repair: routed fix deltas plus summary-elected group fixes.

The ``"sharded"`` repair strategy extends
:class:`~repro.repair.strategies.IncrementalRepairStrategy` to a
:class:`~repro.parallel.ShardedBackend`, reusing the two sharding layers the
detection path already built instead of bypassing them:

* **fix application is routed**: each round's cell-change batch ships as a
  delete+reinsert delta under pinned tuple identifiers through
  ``ShardedBackend.incremental_update`` — the single-pass partition plan
  hashes every fixed tuple to the one shard that owns it, that shard's
  stateful INCDETECT lane maintains its flags and emits the slice's summary
  delta, and untouched shards do no work at all.  Re-validation cost per
  round is proportional to the routed fixes, never |D|, and the per-shard
  INCDETECT states stay live across the whole repair;
* **cross-shard group fixes are summary-elected**: an embedded-FD fragment
  whose ``X``-groups straddle shards (a *summary fragment* of the partition
  plan) is repaired by electing the majority RHS **directly from the
  coordinator's merged ``(cid, xv) → yv-multiset`` state**
  (:meth:`~repro.parallel.summary.SummaryStore.group_counts`) — the same
  sufficient statistics that detect the violation also decide its fix, so
  no shard ever replicates rows to the coordinator for the vote.  The
  elected values then travel back to the owning shards inside the routed
  delta;
* **rounds are batched into one routed delta**: the strategy re-validates
  each round locally on a :class:`~repro.repair.validate.MirrorValidator`,
  which maintains the exact flags of the coordinator's mirror, and ships
  the accumulated fixes as a **single** delete+reinsert delta once the loop
  has converged.  Local re-validation is exact for every Σ because pattern
  constants are text: the validator's Python matching is the SQL
  encoding's.  A k-round repair costs one lane round-trip instead of k; the
  trace reports ``lane_round_trips`` and ``round_trips_saved``.  Round 1
  elects cross-shard groups from the merged summary store (it describes
  exactly the start state); later rounds elect from the mirror's own rows,
  which the shared planner guarantees gives bit-identical elections for the
  same state.  Batching stays sharded-only: a shipped round is cheap on a
  plain incremental backend, and only here does each one cost a lane
  round-trip.

Because the summary store is only advanced by shipped deltas, its multisets
describe exactly the start state the shared
:class:`~repro.repair.fixes.FixPlanner` plans round 1's multi-tuple fixes
against — summary-elected and row-counted elections agree bit-for-bit,
which is what makes sharded repair produce the identical clean relation
(and identical cell-change audit) as the single-threaded greedy baseline.
The round loop itself is :meth:`~repro.repair.strategies.RepairStrategy.repair`;
this module supplies only the sharded election, re-validation and shipping.

The strategy registers itself as ``"sharded"`` in the repair-strategy
registry; :meth:`repro.engine.DataQualityEngine.repair` selects it
automatically for sharded engines with an incremental-capable delegate.
"""

from __future__ import annotations

from repro.core.instance import Relation
from repro.core.violations import ViolationSet
from repro.exceptions import EngineError, RepairError
from repro.parallel.sharded import ShardedBackend
from repro.repair.cost import CellChange
from repro.repair.fixes import GroupCountsHook
from repro.repair.strategies import IncrementalRepairStrategy, register_strategy
from repro.repair.validate import MirrorValidator

__all__ = ["ShardedRepairStrategy"]


class ShardedRepairStrategy(IncrementalRepairStrategy):
    """Routed, summary-elected repair over the sharded detection backend.

    Rounds are re-validated locally and shipped as one routed delta (see
    the module docstring).
    """

    name = "sharded"

    def _check_backend(self, backend) -> None:
        if not isinstance(backend, ShardedBackend):
            raise EngineError(
                f"the 'sharded' repair strategy runs over the sharded detection "
                f"backend; got backend {backend.name!r} (construct the engine "
                "with workers > 1 over an incremental delegate, or use "
                "strategy='incremental')"
            )
        super()._check_backend(backend)

    def _seed(self, backend) -> tuple[Relation, ViolationSet]:
        mirror, violations = super()._seed(backend)
        self._summary_counts = self._group_counts_hook(backend)
        # Batched rounds snapshot the start state and maintain the mirror's
        # exact flags as the planner writes each round's fixes into it.
        self._validator = MirrorValidator(self.sigma, mirror)
        return mirror, violations

    def _election(self, round_number: int) -> GroupCountsHook | None:
        # Elect from the summary store in round 1 only: the store describes
        # the last *shipped* state, which later (unshipped) rounds have
        # already moved past.  Row-counted elections over the mirror are
        # bit-identical for the same state, so nothing diverges.
        return self._summary_counts if round_number == 1 else None

    def _revalidate(self, backend, mirror: Relation, changes: list[CellChange]) -> ViolationSet:
        return self._validator.apply_changes(changes)

    def _finish(
        self, backend, mirror: Relation, changes: list[CellChange], rounds: list[dict]
    ) -> dict:
        # One routed delta carries every round's fixes (final mirror values).
        lane_round_trips = 0
        if changes:
            shipped = self._ship(backend, mirror, changes)
            lane_round_trips = 1
            if not shipped.is_clean():
                # One match relation makes this unreachable; a dirty
                # readback means local re-validation diverged from the
                # delegate, and silently returning would break the clean
                # guarantee every strategy carries.
                raise RepairError(
                    "batched sharded repair diverged from the backend: "
                    f"{len(shipped)} tuples still dirty after shipping "
                    f"{len(rounds)} locally validated rounds"
                )
        return {
            **super()._finish(backend, mirror, changes, rounds),
            "lane_round_trips": lane_round_trips,
            "round_trips_saved": len(rounds) - lane_round_trips,
        }

    def _group_counts_hook(self, backend: ShardedBackend) -> GroupCountsHook | None:
        """Elect summary-fragment group fixes from the merged summary store.

        Local fragments (LHS ⊇ partition key: their groups are complete on
        one shard, and their flags fold into the coordinator's merged
        violation set) keep the planner's row-counted election; only the
        fragments whose evidence already lives in the store as merged
        ``yv`` multisets are elected from it.
        """
        summary_cids = backend.summary_fragment_cids()
        if not summary_cids:
            return None  # workers <= 1: one whole-Σ shard, nothing summarised
        store = backend.summary_store

        def lookup(cid: int, xv: tuple):
            if cid not in summary_cids:
                return None
            return store.group_counts(cid, xv)

        return lookup


register_strategy(ShardedRepairStrategy.name, ShardedRepairStrategy)
