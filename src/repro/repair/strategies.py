"""The repair round loop and the string-keyed repair-strategy registry.

Value-modification repair of eCFD violations (paper future work, Section
VIII): given data D and a *satisfiable* Σ, a repair is a modified D' that
satisfies Σ, and a good repair changes as little as possible.  Finding a
minimum-cost repair is already intractable for plain CFDs, so — like the
heuristic of Bohannon et al. (SIGMOD 2005) the paper points to — repair
applies local greedy fixes round after round until the data is clean.  The
fixes of a round come from the shared :class:`~repro.repair.fixes.FixPlanner`
(majority election inside violating embedded-FD groups, admissible
replacement values for single-tuple pattern violations).

:meth:`RepairStrategy.repair` is the one round loop: satisfiability check,
seed, then per round "clean? → plan → stall check → record trace →
re-validate", then the convergence check.  A round that plans no fix, or
data still dirty after ``max_rounds``, raises
:class:`~repro.exceptions.RepairError` rather than returning dirty data.
Strategies supply only the steps that differ — how they seed, elect and
re-validate a round, and how the fixes reach the backend — and register
under string names; :meth:`repro.engine.DataQualityEngine.repair` routes
through the registry exactly like ``detect`` routes through the backend
registry.  Two strategies live here; the sharded strategy registers itself
from :mod:`repro.parallel.repair`:

* ``"greedy"`` — the baseline: seeds and re-validates every round with a
  full reference detection (:class:`~repro.detection.naive.NaiveDetector`)
  over a materialised mirror of the data, then applies all fixes to the
  backend once with ``apply_cell_changes``;
* ``"incremental"`` — over any backend advertising ``supports_incremental``:
  the violation set is **seeded once** from the backend's maintained state
  (``ensure_ready`` + ``detect`` — free for a live INCDETECT state) and every
  round's fix batch ships through ``incremental_update`` as a
  delete+reinsert delta under the *same* tuple identifiers, so
  re-validation is INCDETECT delta maintenance — per-round cost
  proportional to the touched groups, never a full re-detection (asserted
  on the backend's ``full_detect_count`` trace counter).

Every strategy plans with the same planner from the same state, so for the
same data and Σ all of them produce bit-identical repaired relations and
cell-change audits — strategies differ in *cost*, never in outcome.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import ClassVar

from repro.analysis.satisfiability import is_satisfiable
from repro.core.ecfd import ECFD, ECFDSet
from repro.core.instance import Relation
from repro.core.violations import ViolationSet
from repro.detection.naive import NaiveDetector
from repro.exceptions import EngineError, RepairError, UnknownStrategyError
from repro.repair.cost import CellChange, RepairCostModel
from repro.repair.fixes import FixPlanner, GroupCountsHook

__all__ = [
    "RepairOutcome",
    "RepairStrategy",
    "GreedyRepairStrategy",
    "IncrementalRepairStrategy",
    "register_strategy",
    "unregister_strategy",
    "available_strategies",
    "create_strategy",
    "resolve_strategy_factory",
]


class RepairOutcome:
    """The outcome of a repair: the repaired relation plus an audit trail.

    This is the repair layer's working result (the engine façade flattens it
    into the serializable :class:`repro.engine.results.RepairResult`, the
    one audit type shipped across process boundaries — the two used to share
    a name, which this class resolves).
    """

    def __init__(
        self,
        relation: Relation | None,
        changes: list[CellChange],
        cost: float,
        rounds: int,
        trace: dict | None = None,
    ):
        self.relation = relation
        self.changes = tuple(changes)
        self.cost = cost
        self.rounds = rounds
        #: Repair-path diagnostics: per-round convergence plus the strategy's
        #: cost counters (full detections run, rounds maintained by deltas,
        #: re-detection rows avoided, summary-elected groups).
        self.trace = dict(trace or {})

    @property
    def change_count(self) -> int:
        """Number of modified cells."""
        return len(self.changes)

    def changed_tids(self) -> frozenset[int]:
        """Identifiers of the tuples touched by the repair."""
        return frozenset(change.tid for change in self.changes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RepairOutcome(cells={self.change_count}, cost={self.cost}, rounds={self.rounds})"
        )


class RepairStrategy(ABC):
    """One repair strategy behind :meth:`~repro.engine.DataQualityEngine.repair`.

    Parameters
    ----------
    sigma:
        The eCFD workload the repaired data must satisfy.
    cost_model:
        Cell-change cost model for the audit (defaults to unit weights).
    max_rounds:
        Convergence bound; a strategy that cannot clean the data within
        this many rounds raises :class:`~repro.exceptions.RepairError`.
    """

    #: Registry key of the strategy (set by subclasses).
    name: ClassVar[str] = ""
    #: Whether the strategy needs a backend with ``supports_incremental``.
    requires_incremental: ClassVar[bool] = False

    def __init__(
        self,
        sigma: ECFDSet | Sequence[ECFD],
        cost_model: RepairCostModel | None = None,
        max_rounds: int = 10,
    ):
        self.sigma = sigma if isinstance(sigma, ECFDSet) else ECFDSet(list(sigma))
        self.cost_model = cost_model if cost_model is not None else RepairCostModel()
        self.max_rounds = max_rounds
        self.planner = FixPlanner(self.sigma)

    def repair(self, backend) -> RepairOutcome:
        """Repair the backend's stored data in place and return the audit.

        On success the backend serves the repaired (clean) state under the
        original tuple identifiers — no materialise-and-reload.  Raises
        :class:`~repro.exceptions.RepairError` when Σ is unsatisfiable, a
        round finds no fix, or the data is still dirty after ``max_rounds``.
        """
        self._check_backend(backend)
        if not is_satisfiable(self.sigma):
            raise RepairError("the constraint set is unsatisfiable; no repair exists")
        mirror, violations = self._seed(backend)
        changes: list[CellChange] = []
        rounds: list[dict] = []
        for round_number in range(1, self.max_rounds + 1):
            if violations.is_clean():
                break
            plan = self.planner.plan_round(
                mirror, violations, group_counts=self._election(round_number)
            )
            if not plan.changes:
                raise RepairError(
                    f"{self.name} repair stalled in round {round_number}: no fix "
                    f"applies to the {len(violations)} remaining dirty tuples"
                )
            changes.extend(plan.changes)
            entry = {
                "round": round_number,
                "dirty": len(violations),
                "mv_fixes": plan.mv_fixes,
                "sv_fixes": plan.sv_fixes,
                "changes": len(plan.changes),
            }
            if self.requires_incremental:
                # Only the delta strategies log summary elections per round.
                entry["summary_groups"] = plan.summary_groups
            rounds.append(entry)
            violations = self._revalidate(backend, mirror, plan.changes)
        if not violations.is_clean():
            raise RepairError(
                f"{self.name} repair did not converge within {self.max_rounds} "
                f"rounds; {len(violations)} tuples remain dirty"
            )
        counters = self._finish(backend, mirror, changes, rounds)
        return RepairOutcome(
            mirror,
            changes,
            self.cost_model.cost(changes),
            rounds=len(rounds),
            trace={"strategy": self.name, **counters, "rounds": rounds},
        )

    # ------------------------------------------------------------------
    # The steps a strategy supplies
    # ------------------------------------------------------------------
    def _check_backend(self, backend) -> None:
        """Reject a backend the strategy cannot run over."""
        if self.requires_incremental and not backend.supports_incremental:
            raise EngineError(
                f"the {self.name!r} repair strategy needs an incremental-capable "
                f"backend; {backend.name!r} does not support incremental updates "
                "(use strategy='greedy')"
            )

    @abstractmethod
    def _seed(self, backend) -> tuple[Relation, ViolationSet]:
        """The working mirror of the backend's data and its start-state flags.

        The planner writes each round's fixes into the mirror; the
        repaired mirror is the outcome's relation.
        """

    def _election(self, round_number: int) -> GroupCountsHook | None:
        """Election source for a round's group fixes (``None`` = count rows)."""
        return None

    @abstractmethod
    def _revalidate(self, backend, mirror: Relation, changes: list[CellChange]) -> ViolationSet:
        """The flags after a round whose ``changes`` are already in ``mirror``."""

    @abstractmethod
    def _finish(
        self, backend, mirror: Relation, changes: list[CellChange], rounds: list[dict]
    ) -> dict:
        """Leave the backend serving the repaired data; return the trace counters."""


class GreedyRepairStrategy(RepairStrategy):
    """The full-re-detection baseline, applied in place to any backend.

    Every round re-runs the reference detector over the whole mirror; the
    trace's ``full_detects`` counts those passes — the re-detect cost the
    delta strategies exist to avoid.  The backend is written once, after
    the loop converged.
    """

    name = "greedy"

    def _seed(self, backend) -> tuple[Relation, ViolationSet]:
        self._detector = NaiveDetector(self.sigma)
        self._full_detects = 0
        mirror = backend.to_relation()
        return mirror, self._revalidate(backend, mirror, [])

    def _revalidate(self, backend, mirror: Relation, changes: list[CellChange]) -> ViolationSet:
        self._full_detects += 1
        return self._detector.detect(mirror)

    def _finish(
        self, backend, mirror: Relation, changes: list[CellChange], rounds: list[dict]
    ) -> dict:
        if changes:
            backend.apply_cell_changes(changes)
        return {
            "full_detects": self._full_detects,
            "maintained_rounds": 0,
            "redetect_rows_avoided": 0,
            "summary_groups_repaired": 0,
        }


class IncrementalRepairStrategy(RepairStrategy):
    """Violation-driven repair through INCDETECT delta maintenance.

    After the seeding scan, each round ships its fix batch as a
    delete+reinsert delta under pinned tuple identifiers; the backend's
    maintained violation set comes back as the next round's input.  Under a
    sharded backend the delta is *routed* — only the shards the fixes land
    on do any work (see :class:`~repro.parallel.ShardedBackend`).
    """

    name = "incremental"
    requires_incremental = True

    def _seed(self, backend) -> tuple[Relation, ViolationSet]:
        # Bring the maintained violation state up (for a live INCDETECT
        # state both calls are free; otherwise this is the one full pass
        # the strategy ever pays).
        backend.ensure_ready()
        violations = backend.detect()
        self._baseline_full_detects = backend.full_detect_count
        return backend.to_relation(), violations

    def _revalidate(self, backend, mirror: Relation, changes: list[CellChange]) -> ViolationSet:
        return self._ship(backend, mirror, changes)

    @staticmethod
    def _ship(backend, mirror: Relation, changes: list[CellChange]) -> ViolationSet:
        """Delete + reinsert the changed tuples (mirror values) under their own tids.

        INCDETECT maintains vio(D) touching only the affected groups; the
        mirror and the backend stay in lockstep because the shipped rows
        *are* the planned fixes.
        """
        tids = sorted({change.tid for change in changes})
        # The planner only rewrites stored tuples, so every tid is in the mirror.
        rows = [mirror.get(tid).as_dict() for tid in tids]
        return backend.incremental_update(tids, rows, insert_tids=tids)

    def _finish(
        self, backend, mirror: Relation, changes: list[CellChange], rounds: list[dict]
    ) -> dict:
        return {
            "full_detects": backend.full_detect_count - self._baseline_full_detects,
            "maintained_rounds": len(rounds),
            # Each maintained round spared a full pass over every stored row.
            "redetect_rows_avoided": len(rounds) * backend.count(),
            "summary_groups_repaired": sum(entry["summary_groups"] for entry in rounds),
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
StrategyFactory = Callable[..., RepairStrategy]

_REGISTRY: dict[str, StrategyFactory] = {}


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register a strategy factory under ``name`` (last registration wins).

    ``factory`` is called as ``factory(sigma=..., cost_model=...,
    max_rounds=...)`` and must return a :class:`RepairStrategy`.
    """
    if not name:
        raise EngineError("repair strategy name must be a non-empty string")
    _REGISTRY[name] = factory


def unregister_strategy(name: str) -> None:
    """Remove a registered strategy (unknown names raise the usual error)."""
    if name not in _REGISTRY:
        raise UnknownStrategyError(name, available_strategies())
    del _REGISTRY[name]


def available_strategies() -> tuple[str, ...]:
    """The registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_strategy_factory(name: str) -> StrategyFactory:
    """The factory registered under ``name`` (unknown names raise)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name, available_strategies()) from None


def create_strategy(
    name: str,
    sigma: ECFDSet | Sequence[ECFD],
    cost_model: RepairCostModel | None = None,
    max_rounds: int = 10,
    **options,
) -> RepairStrategy:
    """Instantiate the repair strategy registered under ``name``."""
    return resolve_strategy_factory(name)(
        sigma=sigma, cost_model=cost_model, max_rounds=max_rounds, **options
    )


register_strategy(GreedyRepairStrategy.name, GreedyRepairStrategy)
register_strategy(IncrementalRepairStrategy.name, IncrementalRepairStrategy)
