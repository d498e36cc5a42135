"""Per-rule coverage: one violating and one clean fixture per RPL code."""

from __future__ import annotations


def codes(result):
    return [violation.code for violation in result.violations]


# ----------------------------------------------------------------------
# RPL001 — wire-safety
# ----------------------------------------------------------------------
class TestWireSafety:
    def test_lambda_payload_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                def go(pool, lane):
                    pool.submit(lane, "echo", lambda row: row)
                """
            }
        )
        assert codes(result) == ["RPL001"]
        assert "lambda" in result.violations[0].message

    def test_bound_method_and_closure_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                class Coordinator:
                    def _reduce(self, rows):
                        return rows

                    def go(self, pool, lane):
                        def local(row):
                            return row
                        pool.submit(lane, "echo", local)
                        pool.submit(lane, "echo", self._reduce)
                """
            }
        )
        assert codes(result) == ["RPL001", "RPL001"]

    def test_summary_cell_outside_summaries_fires(self, lint_tree):
        source = """
        def fold(groups, xv):
            counts, tids = groups.setdefault(xv, ({}, []))
            return counts, tids
        """
        fires = lint_tree({"src/repro/parallel/merge.py": source})
        assert codes(fires) == ["RPL001"]
        sanctioned = lint_tree({"src/repro/detection/summaries.py": source})
        assert codes(sanctioned) == []

    def test_plain_payload_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                def go(pool, lane, task):
                    pool.submit(lane, "echo", task)
                """
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL002 — retry idempotency
# ----------------------------------------------------------------------
class TestRetryIdempotency:
    def test_retry_on_non_idempotent_op_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("update", idempotent=False)
                def _update(payload):
                    return payload

                def go(pool, lane, task):
                    pool.submit(lane, "update", task, retryable=True)
                """
            }
        )
        assert codes(result) == ["RPL002"]
        assert "not declared idempotent" in result.violations[0].message

    def test_retry_on_unregistered_op_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                def go(pool, lane, task):
                    pool.submit(lane, "ghost", task, retryable=True)
                """
            }
        )
        # RPL007 also flags the unregistered op name at the same site.
        assert sorted(codes(result)) == ["RPL002", "RPL007"]

    def test_freeform_retry_expression_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                SAFE = {"echo"}

                def go(pool, lane, op, task):
                    pool.submit(lane, "echo", task, retryable=op in SAFE)
                """
            }
        )
        assert codes(result) == ["RPL002"]

    def test_conflicting_declarations_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/a.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _a(payload):
                    return payload
                """,
                "src/repro/parallel/b.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=False)
                def _b(payload):
                    return payload
                """,
            }
        )
        assert codes(result) == ["RPL002", "RPL002"]
        assert "conflicting idempotency" in result.violations[0].message

    def test_registered_idempotent_retry_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import is_idempotent, rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                def go(pool, lane, op, task):
                    pool.submit(lane, "echo", task, retryable=True)
                    pool.submit(lane, "echo", task, retryable=False)
                    pool.submit(lane, op, task, retryable=is_idempotent(op))
                """
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL003 — determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_wall_clock_and_unseeded_random_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/tiebreak.py": """
                import random
                import time

                def stamp():
                    return time.time()

                def pick(rows):
                    return random.choice(rows)
                """
            }
        )
        assert codes(result) == ["RPL003", "RPL003"]

    def test_set_iteration_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/order.py": """
                def emit(rows):
                    return [row for row in set(rows)]
                """
            }
        )
        assert codes(result) == ["RPL003"]
        assert "sorted()" in result.violations[0].message

    def test_engine_scope_only(self, lint_tree):
        source = """
        import time

        def stamp():
            return time.time()
        """
        assert codes(lint_tree({"tests/helpers.py": source})) == []
        assert codes(lint_tree({"src/repro/engine/clock.py": source})) == ["RPL003"]

    def test_seeded_and_sorted_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/tiebreak.py": """
                import random
                import time

                def pick(rows, seed):
                    rng = random.Random(seed)
                    started = time.perf_counter()
                    return rng.choice(sorted(rows)), started

                def emit(rows):
                    return [row for row in sorted(set(rows))]
                """
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL004 — asyncio hygiene
# ----------------------------------------------------------------------
class TestAsyncioHygiene:
    def test_blocking_call_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/loop.py": """
                import time

                async def pump(queue):
                    time.sleep(0.1)
                    return await queue.get()
                """
            }
        )
        assert codes(result) == ["RPL004"]
        assert "time.sleep" in result.violations[0].message

    def test_unawaited_coroutine_and_orphan_task_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/loop.py": """
                async def drain(queue):
                    await queue.join()

                async def pump(loop, queue):
                    drain(queue)
                    loop.create_task(drain(queue))
                """
            }
        )
        assert codes(result) == ["RPL004", "RPL004"]

    def test_nested_sync_helper_is_exempt(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/loop.py": """
                import time

                async def pump(loop, queue):
                    def blocking_probe():
                        time.sleep(0.1)
                        return 1
                    return await loop.run_in_executor(None, blocking_probe)
                """
            }
        )
        assert codes(result) == []

    def test_awaited_and_retained_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/loop.py": """
                import asyncio

                async def drain(queue):
                    await queue.join()

                async def pump(loop, queue):
                    await asyncio.sleep(0.1)
                    await drain(queue)
                    task = loop.create_task(drain(queue))
                    await task
                """
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL005 — DB engine thread affinity
# ----------------------------------------------------------------------
class TestEngineAffinity:
    def test_sqlite_import_outside_engine_modules_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/cache.py": """
                import sqlite3

                def open_cache(path):
                    return sqlite3.connect(path)
                """
            }
        )
        assert codes(result) == ["RPL005"]

    def test_duckdb_import_outside_engine_modules_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/detection/database.py": """
                import duckdb

                def open_store(path):
                    return duckdb.connect(path)
                """
            }
        )
        assert codes(result) == ["RPL005"]
        assert "duckdb" in result.violations[0].message

    def test_connection_captured_in_closure_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/detection/engines/sqlite_engine.py": """
                import sqlite3

                def make_runner(path):
                    conn = sqlite3.connect(path)
                    return lambda sql: conn.execute(sql)
                """
            }
        )
        assert codes(result) == ["RPL005"]
        assert "closure" in result.violations[0].message

    def test_duckdb_connection_captured_in_closure_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/detection/engines/duckdb_engine.py": """
                import duckdb

                def make_runner(path):
                    conn = duckdb.connect(path)
                    def run(sql):
                        return conn.execute(sql)
                    return run
                """
            }
        )
        assert codes(result) == ["RPL005"]

    def test_engine_modules_without_capture_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/detection/engines/sqlite_engine.py": """
                import sqlite3

                def open_db(path):
                    conn = sqlite3.connect(path)
                    conn.execute("PRAGMA journal_mode=WAL")
                    return conn
                """,
                "src/repro/detection/engines/duckdb_engine.py": """
                import duckdb

                def open_columnar(path):
                    conn = duckdb.connect(path)
                    return conn
                """,
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL006 — exception taxonomy
# ----------------------------------------------------------------------
class TestExceptionTaxonomy:
    def test_orphan_exception_class_and_raise_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/errors.py": """
                class CacheError(Exception):
                    pass

                def lookup(cache, key):
                    if key not in cache:
                        raise CacheError(key)
                    return cache[key]
                """
            }
        )
        assert codes(result) == ["RPL006", "RPL006"]

    def test_unjustified_broad_except_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/guard.py": """
                def safe(fn):
                    try:
                        return fn()
                    except Exception:
                        return None
                """
            }
        )
        assert codes(result) == ["RPL006"]
        assert "BLE001" in result.violations[0].message

    def test_tests_may_define_throwaway_exceptions(self, lint_tree):
        result = lint_tree(
            {
                "tests/fabric/test_faults.py": """
                class InjectedFault(Exception):
                    pass

                def test_fault():
                    try:
                        raise InjectedFault()
                    except InjectedFault:
                        pass
                """
            }
        )
        assert codes(result) == []

    def test_repro_error_subclass_and_justified_except_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/errors.py": """
                from repro.exceptions import ReproError

                class CacheError(ReproError):
                    pass

                def safe(fn):
                    try:
                        return fn()
                    except Exception:  # noqa: BLE001 - teardown is best-effort
                        return None
                """
            }
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL007 — registry consistency
# ----------------------------------------------------------------------
class TestRegistryConsistency:
    def test_duplicate_and_orphan_registrations_fire(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/reports/figures.py": """
                from repro.reports.registry import register_figure

                @register_figure("fig99", "growth", "first")
                def fig99_first(ctx):
                    return []

                @register_figure("fig99", "growth", "second")
                def fig99_second(ctx):
                    return []
                """,
                "src/repro/experiments/figures.py": """
                from repro.experiments.registry import register_driver

                @register_driver("ghost-figure")
                def drive_ghost(out_dir):
                    return None
                """,
            }
        )
        assert sorted(codes(result)) == ["RPL007", "RPL007"]
        messages = " | ".join(v.message for v in result.violations)
        assert "duplicate figure" in messages
        assert "no registered figure" in messages

    def test_tracked_benchmark_must_exist(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/reports/schema.py": """
                TRACKED_BENCHMARKS = {
                    "test_ghost_scaling[1]": "a benchmark that does not exist",
                }
                EXTRA_INFO_FIELDS = {
                    "test_real": ("tuples",),
                }
                """,
                "benchmarks/test_bench.py": """
                def test_real_scaling(benchmark):
                    pass
                """,
            }
        )
        assert codes(result) == ["RPL007", "RPL007"]
        messages = " | ".join(v.message for v in result.violations)
        assert "names no benchmark function" in messages
        assert "EXTRA_INFO_FIELDS" in messages

    def test_duplicate_rpc_op_declaration_fires(self, lint_tree):
        declaration = '''
        from repro.parallel.transport import rpc_op

        @rpc_op("echo", idempotent=True)
        def _echo(payload):
            return payload
        '''
        result = lint_tree(
            {
                "src/repro/parallel/a.py": declaration,
                "src/repro/parallel/b.py": declaration,
            }
        )
        assert codes(result) == ["RPL007"]
        violation = result.violations[0]
        assert violation.path == "src/repro/parallel/b.py"
        assert "duplicate @rpc_op declaration 'echo'" in violation.message

    def test_unregistered_op_dispatch_fires(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/parallel/pool.py": """
                from repro.parallel.transport import rpc_op

                @rpc_op("echo", idempotent=True)
                def _echo(payload):
                    return payload

                def go(pool, lane, task):
                    pool.submit(lane, "ghost", task, retryable=False)
                """
            }
        )
        assert codes(result) == ["RPL007"]

    def test_consistent_registries_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/reports/figures.py": """
                from repro.reports.registry import register_figure

                @register_figure("fig99", "growth", "the one figure")
                def fig99(ctx):
                    return []
                """,
                "src/repro/experiments/figures.py": """
                from repro.experiments.registry import register_driver

                @register_driver("fig99")
                def drive_fig99(out_dir):
                    return None
                """,
                "src/repro/reports/schema.py": """
                TRACKED_BENCHMARKS = {
                    "test_real_scaling[1]": "the tracked hot path",
                }
                EXTRA_INFO_FIELDS = {
                    "test_real": ("tuples",),
                }
                """,
                "benchmarks/test_bench.py": """
                def test_real_scaling(benchmark):
                    pass
                """,
            }
        )
        assert codes(result) == []
