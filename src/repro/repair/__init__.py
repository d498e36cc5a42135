"""Value-modification repair of eCFD violations (paper future work, Section VIII).

The subsystem is violation-driven and layered like detection:

* :mod:`repro.repair.cost` — the cell-change audit primitives
  (:class:`CellChange`, :class:`RepairCostModel`);
* :mod:`repro.repair.fixes` — :class:`FixPlanner`, the deterministic
  per-round fix derivation every strategy shares (flags in, cell changes
  out), and the :func:`elect_rhs` majority election;
* :mod:`repro.repair.validate` — :class:`~repro.repair.validate.MirrorValidator`,
  exact local re-validation for batched sharded rounds;
* :mod:`repro.repair.strategies` — :meth:`RepairStrategy.repair`, the one
  repair round loop, and the strategy registry the engine routes
  :meth:`~repro.engine.DataQualityEngine.repair` through.  Strategies differ
  only in how a round is re-validated: ``"greedy"`` (full reference
  re-detection of a mirror, fixes applied once at the end),
  ``"incremental"`` (INCDETECT delta re-validation) and — registered from
  :mod:`repro.parallel.repair` — ``"sharded"`` (summary-elected group fixes
  over routed shard deltas).
"""

from repro.repair.cost import CellChange, RepairCostModel
from repro.repair.fixes import FixPlanner, RoundPlan, elect_rhs
from repro.repair.strategies import (
    GreedyRepairStrategy,
    IncrementalRepairStrategy,
    RepairOutcome,
    RepairStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
    resolve_strategy_factory,
    unregister_strategy,
)

__all__ = [
    "CellChange",
    "FixPlanner",
    "GreedyRepairStrategy",
    "IncrementalRepairStrategy",
    "RepairCostModel",
    "RepairOutcome",
    "RepairStrategy",
    "RoundPlan",
    "available_strategies",
    "create_strategy",
    "elect_rhs",
    "register_strategy",
    "resolve_strategy_factory",
    "unregister_strategy",
]
