"""Spans around the library's public calls, and exact SQL work counters.

Everything here attaches from outside the library: a :class:`Tracer`
replaces a public method of a live object (or, for the repair planner, of
its class) with a wrapper that records a span, and :class:`SqlCounters`
hooks SQLite's progress handler and statement trace callback on the
engine's public connection handle.  :meth:`Tracer.restore` undoes every
wrapper, so untraced samples run the library exactly as shipped.
"""

from __future__ import annotations

import re
import sqlite3
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

#: SQLite VM instructions per progress callback; one callback is one k-step.
STEPS_PER_CALLBACK = 1000

#: Statement families, first match wins, named after the table they build.
_FAMILIES = [
    (name, re.compile(pattern, re.IGNORECASE))
    for name, pattern in (
        ("regroup", r'CREATE TEMP TABLE "?ecfd_tmp_regrouped'),
        ("affected", r'CREATE TEMP TABLE "?ecfd_tmp_affected'),
        ("new_tids", r'(CREATE TEMP TABLE|INSERT INTO) "?ecfd_tmp_new_tids'),
        ("macro", r'(INSERT INTO|DELETE FROM) "?ecfd_macro'),
        ("aux", r'(INSERT INTO|DELETE FROM) "?ecfd_aux'),
        ("reset_flags", r'UPDATE \S+ SET SV = 0, MV = 0'),
        ("sv", r'UPDATE \S+ SET SV = 1'),
        ("mv_set", r'UPDATE \S+ SET MV = 1'),
        ("mv_clear", r'UPDATE \S+ SET MV = 0'),
        ("readback", r'SELECT'),
        ("data", r'(INSERT INTO|DELETE FROM|UPDATE) '),
    )
]

#: Every family a statement can be labelled with.
FAMILIES = tuple(name for name, _ in _FAMILIES) + ("other",)


def statement_family(sql: str) -> str:
    """The family label of one SQL statement."""
    text = sql.lstrip()
    for name, pattern in _FAMILIES:
        if pattern.match(text):
            return name
    return "other"


def patch(owner: Any, attribute: str, replacement: Any) -> Callable[[], None]:
    """Set ``owner.attribute`` to ``replacement``; returns the function that undoes it."""
    own = vars(owner)
    had_own = attribute in own
    previous = own.get(attribute)
    setattr(owner, attribute, replacement)

    def restore() -> None:
        if had_own:
            setattr(owner, attribute, previous)
        else:
            delattr(owner, attribute)

    return restore


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span on the same thread."""

    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder with method wrapping."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, nested under the thread's open span."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else None,
                     threading.get_ident())
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an interval measured elsewhere (a wait, not a call)."""
        with self._lock:
            self.spans.append(Span(name, start_ns, end_ns, None, threading.get_ident()))

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper that records span ``name``.

        ``owner`` is a live object or a class; :meth:`restore` puts the
        original back.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return original(*args, **kwargs)

        self._restore.append(patch(owner, attribute, traced))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            self._restore.pop()()

    def self_times_ns(self) -> dict[str, int]:
        """Per span name, the duration minus the time its child spans cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        totals: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.duration_ns - child_ns[index]
        return dict(totals)

    def durations_ms(self, name: str) -> list[float]:
        """Every recorded duration of span ``name``, in milliseconds."""
        return [s.duration_ns / 1e6 for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        """The spans as plain records, times relative to the first span."""
        origin = min((s.start_ns for s in self.spans), default=0)
        return [
            {
                "name": s.name,
                "start_us": (s.start_ns - origin) / 1e3,
                "end_us": (s.end_ns - origin) / 1e3,
                "parent": s.parent,
                "thread": s.thread,
            }
            for s in self.spans
        ]


@dataclass
class SqlCounters:
    """Exact SQLite work on one connection: VM k-steps, statements, rows read back.

    Install on the thread that owns the connection.  ``vm_ksteps`` counts
    progress callbacks, one per :data:`STEPS_PER_CALLBACK` VM instructions
    of a statement, attributed to the family of the statement that was
    running; ``rows_read_back`` counts rows returned by the engine's
    ``query``.
    """

    vm_ksteps: int = 0
    statements: int = 0
    rows_read_back: int = 0
    family_ksteps: Counter = field(default_factory=Counter)
    _family: str = "other"

    def _on_statement(self, sql: str) -> None:
        self.statements += 1
        self._family = statement_family(sql)

    def _on_progress(self) -> int:
        self.vm_ksteps += 1
        self.family_ksteps[self._family] += 1
        return 0

    @contextmanager
    def attached(self, sql_engine: Any) -> Iterator["SqlCounters"]:
        """Count the work of ``sql_engine`` (a SQLite engine) inside the body."""
        connection: sqlite3.Connection = sql_engine.connection
        query = sql_engine.query

        def counted_query(*args: Any, **kwargs: Any) -> list[tuple]:
            rows = query(*args, **kwargs)
            self.rows_read_back += len(rows)
            return rows

        unpatch = patch(sql_engine, "query", counted_query)
        connection.set_trace_callback(self._on_statement)
        connection.set_progress_handler(self._on_progress, STEPS_PER_CALLBACK)
        try:
            yield self
        finally:
            connection.set_progress_handler(None, 0)
            connection.set_trace_callback(None)
            unpatch()

    def snapshot(self) -> dict[str, Any]:
        return {
            "vm_ksteps": self.vm_ksteps,
            "statements": self.statements,
            "rows_read_back": self.rows_read_back,
            "family_ksteps": dict(self.family_ksteps),
        }
