"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host, other tenants change how fast this process runs by up to
1.6x within minutes, so a latency in milliseconds moves with the host as
much as with the program.  The benchmark therefore also times a fixed
kernel that uses nothing from the library: SQLite inserts, an index, a
``COUNT(DISTINCT)`` group-by, a temp table, an update through a subquery
and a Python pass over the result, the same mix as the detection SQL.  A
latency divided by the kernel's median in the same run keeps the program's
cost and cancels most of the host's.
"""

from __future__ import annotations

import sqlite3
import statistics
import time

#: Seconds between kernel samples; the host's speed drifts over seconds to minutes.
INTERVAL_S = 0.5

_ROWS = [(i % 997, i % 13, f"k{i % 1500}", f"v{i}") for i in range(12_000)]


def kernel_seconds() -> float:
    """Run the kernel once; returns its wall time."""
    started = time.perf_counter()
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (a, b, k, v)")
        connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", _ROWS)
        connection.execute("CREATE INDEX t_ak ON t (a, k)")
        connection.execute(
            "SELECT a, COUNT(DISTINCT b), COUNT(DISTINCT k) FROM t GROUP BY a"
        ).fetchall()
        connection.execute("CREATE TEMP TABLE g AS SELECT a, k FROM t WHERE b < 3")
        connection.execute("UPDATE t SET b = 0 WHERE a IN (SELECT a FROM g)")
        _ = {v: len(v) for (v,) in connection.execute("SELECT v FROM t WHERE b = 0")}
    finally:
        connection.close()
    return time.perf_counter() - started


class HostReference:
    """Kernel samples spread over a run: at most one per :data:`INTERVAL_S`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Sample the kernel if :data:`INTERVAL_S` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()

    def median(self) -> float:
        return statistics.median(self.samples)
