"""The four benchmark workloads, driven through the library's public API.

Each workload sets up several times (the median is ``setup_s``), measures
its operation for the requested number of seconds, then checks its outputs
against an oracle outside the timed region.  With ``trace`` set, samples
alternate between untraced and traced operations: the traced ones record
spans around the public calls of every layer and count SQLite's work, and
the difference between the two medians is the tracing overhead.

Why these workloads:

* ``batch-detect`` puts all the work in the BATCHDETECT SQL; the
  incremental, sharded, service and repair layers do nothing.
* ``update-stream`` applies small updates (50 deletes + 50 inserts) to a
  large D, so the |D|-linear regroup of INCDETECT dominates.
* ``service-stream`` is the only workload that runs the service front end
  and the sharded coordinator (route, fan-out, barrier, summary fold).
* ``repair`` rewrites cells under pinned tids inside dirty groups, which
  flips groups between violating and clean, and is the only workload that
  runs ``repro.repair``.
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.engine import DataQualityEngine
from repro.repair.fixes import FixPlanner
from repro.repair.strategies import IncrementalRepairStrategy
from repro.service import QualityService

from inputs import Inputs
from reference import HostReference
from tracing import FAMILIES, SqlCounters, Tracer, patch

#: Statement families whose VM steps are reported one by one.
REPORTED_FAMILIES = ("regroup", "macro", "aux", "sv", "mv_clear", "readback")
#: Layers whose self time is reported, in blocking-path order.
LAYERS = (
    "loadgen", "service", "queue", "engine", "repair", "backend", "sharded",
    "summary", "detection", "database", "sql",
)


@dataclass
class Plan:
    """Sizes of one workload run; the defaults are the benchmark's."""

    size: int
    setups: int = 3
    min_samples: int = 3
    #: Traced operations whose SQL work counts are reported (a fixed prefix,
    #: so the counts do not depend on how many operations fit the time).
    exact_ops: int = 1
    update_size: int = 50
    stream_rate: float = 100.0
    open_events: int = 1000
    saturated_events: int = 4000
    saturated_chunk: int = 400


#: batch-detect and repair run on less data than update-stream, whose point
#: is a small delta on a large D, so that a 20-second run holds 16 or more
#: samples of their second-long operations.
PLANS = {
    "batch-detect": Plan(size=8_000, exact_ops=1),
    "update-stream": Plan(size=16_000, setups=3, exact_ops=4, min_samples=10),
    "service-stream": Plan(size=10_000, setups=3),
    "repair": Plan(size=6_000, exact_ops=1),
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    properties: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_now = time.perf_counter


# ----------------------------------------------------------------------
# Instrumentation of one single-connection engine
# ----------------------------------------------------------------------
_ENGINE_CALLS = ("detect", "apply_update", "repair")
_BACKEND_CALLS = ("detect", "incremental_update", "ensure_ready", "to_relation")
_DETECTOR_CALLS = ("detect", "initialize", "delete_tuples", "insert_tuples")
_DATABASE_CALLS = ("insert_tuples", "delete_tuples", "violations", "to_relation")
_SQL_CALLS = ("execute", "executemany", "query", "commit")


def _wrap_all(tracer: Tracer, owner: Any, calls: tuple[str, ...], layer: str) -> None:
    for call in calls:
        if hasattr(owner, call):
            tracer.wrap(owner, call, f"{layer}.{call}")


@contextmanager
def instrumented(
    tracer: Tracer, engine: DataQualityEngine, counters: SqlCounters
) -> Iterator[None]:
    """Spans on every layer of ``engine``, and its SQL work in ``counters``."""
    backend = engine.backend
    with ExitStack() as stack:
        stack.enter_context(counters.attached(engine.database.engine))
        stack.callback(tracer.restore)
        _wrap_all(tracer, engine, _ENGINE_CALLS, "engine")
        _wrap_all(tracer, backend, _BACKEND_CALLS, "backend")
        _wrap_all(tracer, backend.detector, _DETECTOR_CALLS, "detection")
        _wrap_all(tracer, engine.database, _DATABASE_CALLS, "database")
        _wrap_all(tracer, engine.database.engine, _SQL_CALLS, "sql")
        tracer.wrap(FixPlanner, "plan_round", "repair.plan_round")
        tracer.wrap(IncrementalRepairStrategy, "repair", "repair.strategy")
        yield


class Sampler:
    """Alternates untraced and traced operations and keeps both sets of times."""

    def __init__(self, trace: bool, exact_ops: int):
        self.trace = trace
        self.exact_ops = exact_ops
        self.tracer = Tracer()
        self.reference = HostReference()
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.counts: list[dict] = []
        self.calls = 0

    def run(self, engine: DataQualityEngine, op: Callable[[], Any]) -> Any:
        """Run ``op`` once, timed; returns its result."""
        traced = self.trace and self.calls % 2 == 1
        self.calls += 1
        if not traced:
            self.reference.tick()
            started = _now()
            result = op()
            self.untraced.append(_now() - started)
            return result
        counters = SqlCounters()
        with instrumented(self.tracer, engine, counters):
            started = _now()
            result = op()
            self.traced.append(_now() - started)
        self.counts.append(counters.snapshot())
        return result


def _layer_report(
    outcome: Outcome, tracer: Tracer, covered_s: list[float], root_names: tuple[str, ...],
    traced_s: list[float], untraced_s: list[float],
) -> None:
    """Per-layer self time per op, coverage, residual and tracing overhead.

    ``covered_s`` are the end-to-end times of the operations the root spans
    ``root_names`` ran in; ``traced_s`` and ``untraced_s`` are the samples
    whose medians give the overhead.
    """
    self_ns = tracer.self_times_ns()
    by_layer: dict[str, int] = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns
    per_op = max(1, len(covered_s))
    for layer in LAYERS:
        outcome.layers[f"{layer}.self_ms"] = (by_layer[layer] / 1e6 / per_op, "ms")
    covered_ns = sum(
        span.duration_ns for span in tracer.spans if span.name in root_names
    )
    total_ns = sum(covered_s) * 1e9
    outcome.layers["trace.coverage_frac"] = (
        covered_ns / total_ns if total_ns else 0.0, "frac")
    outcome.layers["trace.residual_ms"] = ((total_ns - covered_ns) / 1e6 / per_op, "ms")
    overhead = (
        statistics.median(traced_s) - statistics.median(untraced_s)
        if traced_s and untraced_s else 0.0
    )
    outcome.layers["trace.overhead_ms"] = (overhead * 1e3, "ms")
    outcome.layers["trace.overhead_frac"] = (
        overhead / statistics.median(untraced_s) if untraced_s else 0.0, "frac")


def _count_report(outcome: Outcome, counts: list[dict]) -> None:
    """Mean SQL work per op over the fixed prefix of traced ops."""
    n = max(1, len(counts))
    for key in ("vm_ksteps", "statements", "rows_read_back"):
        outcome.layers[f"detection.{key}"] = (
            sum(c[key] for c in counts) / n, "count")
    for family in REPORTED_FAMILIES:
        outcome.layers[f"detection.{family}.vm_ksteps"] = (
            sum(c["family_ksteps"].get(family, 0) for c in counts) / n, "count")
    outcome.properties["exact_ops"] = len(counts)
    outcome.properties["family_ksteps"] = {
        family: sum(c["family_ksteps"].get(family, 0) for c in counts)
        for family in FAMILIES
    }


def _detection_call_ms(tracer: Tracer) -> float:
    """Median wall time of the backend's detect / incremental_update calls."""
    times = tracer.durations_ms("backend.detect") + tracer.durations_ms(
        "backend.incremental_update")
    return statistics.median(times) if times else 0.0


def _new_engine(inputs: Inputs, backend: str) -> tuple[DataQualityEngine, float, float, float]:
    """A loaded engine; returns it with its setup, load and bootstrap seconds."""
    gc.collect()  # start every setup from the same heap, not the last one's garbage
    started = _now()
    engine = DataQualityEngine(inputs.schema, inputs.sigma, backend=backend)
    loading = _now()
    engine.load(inputs.rows)
    loaded = _now()
    engine.backend.ensure_ready()
    ready = _now()
    return engine, ready - started, loaded - loading, ready - loaded


def _oracle_violations(inputs: Inputs, data: Any) -> Any:
    """The naive detector's violation set of ``data`` (rows or a relation)."""
    with DataQualityEngine(inputs.schema, inputs.sigma, backend="naive") as oracle:
        oracle.load(data)
        return oracle.detect().violations


def _sql_groups(engine: DataQualityEngine) -> dict[str, int]:
    """Embedded-FD group counts of a SQL engine after detection."""
    [(groups,)] = engine.database.query(
        "SELECT COUNT(*) FROM (SELECT DISTINCT cid, xv_key FROM ecfd_macro)")
    [(violating,)] = engine.database.query("SELECT COUNT(*) FROM ecfd_aux")
    return {"groups": groups, "violating_groups": violating}


def _finish_e2e(
    outcome: Outcome, setup_s: list[float], op_s: list[float], reference_s: float,
    rss_mb: float,
) -> None:
    """The end-to-end metrics of one run, and the raw samples behind them.

    ``reference_s`` is the workload's reference time (see ``op_p50_ref`` in
    ``run.py``).
    """
    median = statistics.median(op_s)
    outcome.metrics["setup_s"] = (statistics.median(setup_s), "s")
    outcome.metrics["op_p50_ref"] = (median / reference_s, "x")
    outcome.samples["op_ms"] = [round(x * 1e3, 3) for x in op_s]
    outcome.samples["setup_s"] = [round(x, 5) for x in setup_s]
    outcome.properties["op_p50_ms"] = round(median * 1e3, 3)
    outcome.properties["reference_ms"] = round(reference_s * 1e3, 3)
    outcome.metrics["peak_rss_mb"] = (rss_mb, "MB")
    outcome.properties["op_samples"] = len(op_s)
    outcome.properties["op_p90_ms"] = round(percentile(op_s, 0.90) * 1e3, 3)


# ----------------------------------------------------------------------
# batch-detect
# ----------------------------------------------------------------------
def batch_detect(inputs: Inputs, plan: Plan, seconds: float, trace: bool) -> Outcome:
    """Repeated full ``detect()`` on a loaded BATCHDETECT engine."""
    outcome = Outcome()
    setup_s, load_s, warm_up_s = [], [], []
    engine = None
    for _ in range(plan.setups):
        if engine is not None:
            engine.close()
        engine, setup, load, _ = _new_engine(inputs, "batch")
        # Warm-up: the first pass fills the macro and aux relations.
        started = _now()
        warm = engine.detect()
        warm_up_s.append(_now() - started)
        setup_s.append(setup + warm_up_s[-1])
        load_s.append(load)
    assert engine is not None
    sampler = Sampler(trace, plan.exact_ops)
    mismatches = 0
    deadline = _now() + seconds
    while _now() < deadline or len(sampler.untraced) < plan.min_samples:
        result = sampler.run(engine, lambda: engine.detect())
        mismatches += result.violations != warm.violations
    rss = peak_rss_mb()
    outcome.attempted = sampler.calls

    op_s = sampler.untraced
    _finish_e2e(outcome, setup_s, op_s, sampler.reference.median(), rss)
    outcome.properties.update(_sql_groups(engine))
    engine.close()

    expected = _oracle_violations(inputs, inputs.rows)
    outcome.checks["every detect equals the naive oracle"] = (
        mismatches == 0 and warm.violations == expected)
    _common_properties(outcome, inputs, len(expected))
    if trace:
        outcome.layers["backend.load_s"] = (statistics.median(load_s), "s")
        outcome.layers["backend.bootstrap_s"] = (statistics.median(warm_up_s), "s")
        _traced_layers(outcome, sampler, ("engine.detect",))
    return outcome


def _common_properties(outcome: Outcome, inputs: Inputs, dirty: int) -> None:
    """The workload properties every run records: |D| and its dirty fraction."""
    outcome.properties["tuples"] = inputs.size
    outcome.properties["dirty_fraction"] = round(dirty / inputs.size, 4)


def _traced_layers(outcome: Outcome, sampler: Sampler, roots: tuple[str, ...]) -> None:
    tracer = sampler.tracer
    _layer_report(outcome, tracer, sampler.traced, roots, sampler.traced, sampler.untraced)
    _count_report(outcome, sampler.counts[: sampler.exact_ops])
    outcome.layers["detection.call_ms"] = (_detection_call_ms(tracer), "ms")
    outcome.spans = tracer.dump()


# ----------------------------------------------------------------------
# update-stream
# ----------------------------------------------------------------------
def update_stream(inputs: Inputs, plan: Plan, seconds: float, trace: bool) -> Outcome:
    """Closed loop, one caller: ``apply_update`` of 50 deletes + 50 inserts.

    Every set-up engine replays the same seeded batch sequence from the
    start for its share of the time.
    """
    outcome = Outcome()
    per_engine = seconds / plan.setups
    # Enough batches for each engine's share even at 50 ms per update.
    batches = inputs.update_batches(
        max(plan.min_samples, math.ceil(per_engine / 0.05)),
        plan.update_size, plan.update_size)
    sampler = Sampler(trace, plan.exact_ops)
    setup_s, load_s, bootstrap_s = [], [], []
    engine = None
    applied = 0
    for _ in range(plan.setups):
        if engine is not None:
            engine.close()
        engine, setup, load, bootstrap = _new_engine(inputs, "incremental")
        setup_s.append(setup)
        load_s.append(load)
        bootstrap_s.append(bootstrap)
        dirty = len(engine.detect().violations)
        deadline = _now() + per_engine
        applied = 0
        for batch in batches:
            if applied >= plan.min_samples and _now() >= deadline:
                break
            sampler.run(engine, lambda b=batch: engine.apply_update(b))
            applied += 1
    assert engine is not None
    rss = peak_rss_mb()
    outcome.attempted = sampler.calls

    op_s = sampler.untraced
    _finish_e2e(outcome, setup_s, op_s, sampler.reference.median(), rss)
    outcome.properties.update(_sql_groups(engine))
    maintained = engine.backend.detect()
    relation = engine.to_relation()
    engine.close()

    expected = _oracle_violations(inputs, relation)
    outcome.checks["final state equals a naive detect of the final relation"] = (
        maintained == expected)
    outcome.checks["final relation has the expected size"] = len(relation) == inputs.size
    _common_properties(outcome, inputs, dirty)
    outcome.properties["updates_last_engine"] = applied
    if trace:
        outcome.layers["backend.load_s"] = (statistics.median(load_s), "s")
        outcome.layers["backend.bootstrap_s"] = (statistics.median(bootstrap_s), "s")
        _traced_layers(outcome, sampler, ("engine.apply_update",))
    return outcome


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def repair(inputs: Inputs, plan: Plan, seconds: float, trace: bool) -> Outcome:
    """``engine.repair()`` (incremental strategy) on a fresh dirty engine per sample."""
    outcome = Outcome()
    sampler = Sampler(trace, plan.exact_ops)
    setup_s, load_s, bootstrap_s = [], [], []
    audits = []
    oracle_clean = None
    deadline = _now() + seconds
    while _now() < deadline or len(sampler.untraced) < plan.min_samples:
        engine, setup, load, bootstrap = _new_engine(inputs, "incremental")
        setup_s.append(setup)
        load_s.append(load)
        bootstrap_s.append(bootstrap)
        dirty = len(engine.detect().violations)
        result = sampler.run(engine, lambda: engine.repair())
        audits.append((result.rounds, result.cells_changed, result.clean,
                       result.trace.get("full_detects"),
                       engine.detect().violations.is_clean()))
        if oracle_clean is None:
            relation = engine.to_relation()
            engine.close()
            oracle_clean = _oracle_violations(inputs, relation).is_clean()
        else:
            engine.close()
    rss = peak_rss_mb()
    outcome.attempted = sampler.calls

    op_s = sampler.untraced
    rounds, cells = audits[0][0], audits[0][1]
    _finish_e2e(outcome, setup_s, op_s, sampler.reference.median(), rss)
    outcome.checks["every repair ends clean with zero full re-detections"] = all(
        clean and full == 0 and maintained_clean
        for _, _, clean, full, maintained_clean in audits)
    outcome.checks["a naive detect of the repaired relation is clean"] = bool(oracle_clean)
    outcome.checks["every repair of the same data makes the same fixes"] = all(
        a[:2] == (rounds, cells) for a in audits)
    _common_properties(outcome, inputs, dirty)
    outcome.properties["rounds"] = rounds
    outcome.properties["cells_changed"] = cells
    if trace:
        tracer = sampler.tracer
        outcome.layers["backend.load_s"] = (statistics.median(load_s), "s")
        outcome.layers["backend.bootstrap_s"] = (statistics.median(bootstrap_s), "s")
        _traced_layers(outcome, sampler, ("engine.repair",))
        n = max(1, len(sampler.traced))
        for metric, span in (
            ("repair.plan_ms", "repair.plan_round"),
            ("repair.revalidate_ms", "backend.incremental_update"),
            ("repair.mirror_ms", "backend.to_relation"),
        ):
            outcome.layers[metric] = (sum(tracer.durations_ms(span)) / n, "ms")
        outcome.layers["repair.rounds"] = (float(rounds), "count")
        outcome.layers["repair.cells_changed"] = (float(cells), "count")
    return outcome


# ----------------------------------------------------------------------
# service-stream
# ----------------------------------------------------------------------
def _new_service(inputs: Inputs) -> QualityService:
    return QualityService(
        inputs.schema, inputs.sigma, workers=2, executor="thread",
        max_batch=256, queue_capacity=512,
    )


#: Open-loop events per traced or untraced stretch of the stream.
TRACE_TOGGLE_EVENTS = 100


def _ns(loop_time: float) -> int:
    """Event-loop time (CLOCK_MONOTONIC seconds) as span nanoseconds."""
    return int(loop_time * 1e9)


class _ShipProbe:
    """Spans around the sharded coordinator's ships and summary folds."""

    def __init__(self, tracer: Tracer, service: QualityService):
        self.tracer = tracer
        self.backend = service.engine.backend
        self.traces: list[dict] = []
        self._unpatch: Callable[[], None] | None = None

    @property
    def on(self) -> bool:
        return self._unpatch is not None

    def attach(self) -> None:
        backend, tracer, traces = self.backend, self.tracer, self.traces
        ship = backend.incremental_update_many

        def traced_ship(batches):
            with tracer.span("sharded.ship"):
                result = ship(batches)
            traces.append(dict(backend.last_update_trace or {}))
            return result

        self._unpatch = patch(backend, "incremental_update_many", traced_ship)
        tracer.wrap(backend.summary_store, "apply_delta", "summary.apply_delta")

    def detach(self) -> None:
        assert self._unpatch is not None
        self._unpatch()
        self._unpatch = None
        self.tracer.restore()


async def _stream(
    service: QualityService, events: list, open_count: int, chunk: int,
    tracer: Tracer, probe: _ShipProbe | None,
) -> dict[str, Any]:
    """Open loop at the events' due times, then saturated rounds of ``chunk`` events."""
    loop = asyncio.get_running_loop()
    open_latency, late, submit_ms = [], [], []
    queue_depth = 0

    async def settle(receipt, due: float, submitted: float, traced: bool) -> bool:
        try:
            done = await receipt.applied
        except Exception:  # noqa: BLE001 - a refused operation is counted, not raised
            return False
        tracer.record("queue.window_wait", _ns(submitted), _ns(done))
        open_latency.append((done - due, traced))
        return True

    origin = loop.time()
    pending = []
    for index, event in enumerate(events[:open_count]):
        traced = probe is not None and (index // TRACE_TOGGLE_EVENTS) % 2 == 1
        if probe is not None and traced != probe.on:
            if traced:
                probe.attach()
            else:
                probe.detach()
        due = origin + event.arrival
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        started = loop.time()
        late.append(started - due)
        receipt = await service.submit(event.batch.delete_tids, event.batch.insert_rows)
        submitted = loop.time()
        submit_ms.append((submitted - started) * 1e3)
        tracer.record("loadgen.late", _ns(due), _ns(started))
        tracer.record("service.submit", _ns(started), _ns(submitted))
        queue_depth = max(queue_depth, service.admission.stats()["pending"])
        pending.append(asyncio.ensure_future(settle(receipt, due, submitted, traced)))
    settled = await asyncio.gather(*pending)
    if probe is not None and probe.on:
        probe.detach()
    failed = settled.count(False)

    # Saturated: rounds of events submitted as fast as admission allows;
    # each round's rate is one capacity sample.
    capacity = []
    sent = open_count
    while sent + chunk <= len(events):
        round_events = events[sent : sent + chunk]
        started = loop.time()
        receipts = [
            await service.submit(e.batch.delete_tids, e.batch.insert_rows)
            for e in round_events
        ]
        outcomes = await asyncio.gather(
            *(r.applied for r in receipts), return_exceptions=True)
        sent += chunk
        failed += sum(isinstance(o, BaseException) for o in outcomes)
        finished = max(
            (o for o in outcomes if not isinstance(o, BaseException)), default=started)
        ops = sum(e.batch.insert_count + e.batch.delete_count for e in round_events)
        if finished > started:
            capacity.append(ops / (finished - started))
    return {
        "open_latency": open_latency,
        "late": late,
        "submit_ms": submit_ms,
        "queue_depth_max": queue_depth,
        "failed": failed,
        "sent": sent,
        "capacity": capacity,
    }


def service_stream(inputs: Inputs, plan: Plan, seconds: float, trace: bool) -> Outcome:
    """An open-loop Poisson stream, then a saturated drive, through the quality service."""
    outcome = Outcome()
    # Most of the time goes to the open loop; the saturated rounds take the rest.
    open_count = max(plan.open_events, int(plan.stream_rate * seconds * 0.8))
    events = inputs.poisson_events(plan.stream_rate, open_count + plan.saturated_events)
    tracer = Tracer()

    async def scenario() -> tuple[list[float], dict[str, Any], Any, Any, dict]:
        setup_s = []
        service = None
        for _ in range(plan.setups):
            if service is not None:
                await service.stop()
            gc.collect()
            started = _now()
            service = _new_service(inputs)
            await service.start(inputs.rows)
            setup_s.append(_now() - started)
        assert service is not None
        probe = _ShipProbe(tracer, service) if trace else None
        try:
            dirty = (await service.detect())["dirty"]
            driven = await _stream(service, events, open_count, plan.saturated_chunk,
                                   tracer, probe)
            stats = await service.stats()
            await service.detect()  # barrier: every submission is applied
            violations = service.engine.backend.detect()
            relation = service.engine.to_relation()
            groups = service.engine.backend.summary_store.group_count()
            driven["ship_traces"] = probe.traces if probe is not None else []
        finally:
            await service.stop()
        return setup_s, driven, violations, relation, {
            "stats": stats, "groups": groups, "dirty": dirty}

    setup_s, driven, violations, relation, info = asyncio.run(scenario())
    rss = peak_rss_mb()
    latency = [seconds_ for seconds_, _ in driven["open_latency"]]
    outcome.attempted = driven["sent"]
    outcome.failed = driven["failed"]
    # The open loop is paced by its arrivals, and its latency does not follow
    # the host's speed the way the kernel does: its reference time is the
    # mean gap between arrivals.
    _finish_e2e(outcome, setup_s, latency, 1 / plan.stream_rate, rss)
    outcome.samples["rate_per_s"] = [round(x, 2) for x in driven["capacity"]]
    outcome.properties["capacity_ops_per_s"] = round(statistics.median(driven["capacity"]), 2)

    with DataQualityEngine(inputs.schema, inputs.sigma, backend="naive") as replay:
        replay.load(inputs.rows)
        expected = replay.apply_updates(
            event.batch for event in events[: driven["sent"]]).violations
        expected_rows = {t.tid: t.as_dict() for t in replay.to_relation()}
    outcome.checks["streamed relation equals a serial replay of the raw stream"] = (
        {t.tid: t.as_dict() for t in relation} == expected_rows)
    outcome.checks["streamed violations equal the replay's naive detect"] = (
        violations == expected)
    outcome.checks["every open-loop event was applied"] = (
        len(latency) == open_count)
    _common_properties(outcome, inputs, info["dirty"])
    outcome.properties["open_events"] = open_count
    outcome.properties["saturated_events"] = driven["sent"] - open_count
    outcome.properties["summary_groups"] = info["groups"]
    outcome.properties["op_p99_ms"] = round(percentile(latency, 0.99) * 1e3, 3)
    if trace:
        _service_layers(outcome, tracer, driven, info["stats"])
    return outcome


def _service_layers(outcome: Outcome, tracer: Tracer, driven: dict, stats: dict) -> None:
    traced = [s for s, on in driven["open_latency"] if on]
    untraced = [s for s, on in driven["open_latency"] if not on]
    roots = ("loadgen.late", "service.submit", "queue.window_wait")
    _layer_report(outcome, tracer, [s for s, _ in driven["open_latency"]], roots,
                  traced, untraced)
    ships = tracer.durations_ms("sharded.ship")
    outcome.layers["sharded.ship_ms_p50"] = (statistics.median(ships), "ms")
    outcome.layers["sharded.ship_ms_p99"] = (percentile(ships, 0.99), "ms")
    traces = driven["ship_traces"]
    n = max(1, len(traces))
    for metric, key in (
        ("sharded.shards_touched_per_ship", "shards_touched"),
        ("sharded.readback_tids_per_ship", "readback_tids"),
        ("sharded.summary_groups_touched_per_ship", "summary_groups_touched"),
    ):
        outcome.layers[metric] = (sum(t.get(key, 0) for t in traces) / n, "count")
    outcome.layers["summary.apply_delta_ms"] = (
        sum(tracer.durations_ms("summary.apply_delta")) / n, "ms")
    outcome.layers["summary.groups"] = (float(outcome.properties["summary_groups"]), "count")
    submit = driven["submit_ms"]
    outcome.layers["service.submit_ms_p50"] = (statistics.median(submit), "ms")
    outcome.layers["service.submit_ms_p99"] = (percentile(submit, 0.99), "ms")
    outcome.layers["service.window_wait_ms"] = (
        statistics.median(tracer.durations_ms("queue.window_wait")), "ms")
    coalescer = stats["coalescer"]
    outcome.layers["service.ops_per_ship"] = (
        coalescer["flushed_ops"] / max(1, stats["ships"]), "count")
    outcome.layers["service.coalesced_frac"] = (
        1 - coalescer["flushed_ops"] / max(1, coalescer["raw_ops"]), "frac")
    outcome.layers["service.admission_waits"] = (float(stats["admission"]["waits"]), "count")
    outcome.layers["service.queue_depth_max"] = (float(driven["queue_depth_max"]), "count")
    outcome.layers["loadgen.late_ms_p99"] = (percentile(driven["late"], 0.99) * 1e3, "ms")
    outcome.spans = tracer.dump()


WORKLOADS: dict[str, Callable[[Inputs, Plan, float, bool], Outcome]] = {
    "batch-detect": batch_detect,
    "update-stream": update_stream,
    "service-stream": service_stream,
    "repair": repair,
}
