"""RPL007 — string-keyed registries stay consistent.

The project is deliberately stringly-typed at its seams — backend and
strategy names, figure and driver names, RPC op names, tracked-benchmark
keys — because strings travel well over wires, CLIs, and JSON artifacts.
The compensation is this checker:

* no registry kind registers the same key twice, and no ``@rpc_op`` name
  is declared twice (each op has one implementation; a second
  declaration with a *conflicting* flag is RPL002's to report);
* every experiment driver name resolves to a registered figure;
* every ``TRACKED_BENCHMARKS`` key matches a benchmark function that
  actually exists and an ``EXTRA_INFO_FIELDS`` prefix;
* every RPC op literal dispatched from ``src/``/``benchmarks/`` is a
  registered ``@rpc_op`` name.

Cross-checks that need a file outside the scanned set (e.g. the schema
when only ``tests/`` is linted) are skipped rather than guessed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.checks.common import rpc_op_literal
from repro.lint.model import SourceFile, Violation
from repro.lint.project import ProjectIndex

CODE = "RPL007"


def check_file(file: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
    if not (file.in_src or file.is_benchmark):
        return
    if not index.rpc_ops:
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        op = rpc_op_literal(node, index)
        if op is not None and op not in index.rpc_ops:
            yield Violation(
                CODE,
                file.rel,
                node.lineno,
                node.col_offset,
                f"RPC dispatch of unregistered op {op!r} — every op crossing "
                "the wire is declared via @rpc_op",
            )


def check_project(index: ProjectIndex) -> Iterator[Violation]:
    for kind in sorted(index.registry_keys):
        for key in sorted(index.registry_keys[kind]):
            sites = index.registry_keys[kind][key]
            if len(sites) > 1:
                for rel, line in sites[1:]:
                    yield Violation(
                        CODE,
                        rel,
                        line,
                        0,
                        f"duplicate {kind} registration {key!r} (first "
                        f"registered at {sites[0][0]}:{sites[0][1]})",
                    )

    for name in sorted(index.rpc_ops):
        decl = index.rpc_ops[name]
        if len(decl.flags) == 1:
            first_rel, first_line = decl.sites[0]
            for rel, line in decl.sites[1:]:
                yield Violation(
                    CODE,
                    rel,
                    line,
                    0,
                    f"duplicate @rpc_op declaration {name!r} (first declared "
                    f"at {first_rel}:{first_line}) — each op has one implementation",
                )

    if index.has_figures and index.has_drivers:
        figures = set(index.registry_keys["figure"])
        for name in sorted(index.registry_keys["driver"]):
            if name not in figures:
                for rel, line in index.registry_keys["driver"][name]:
                    yield Violation(
                        CODE,
                        rel,
                        line,
                        0,
                        f"driver {name!r} has no registered figure — every "
                        "driver's output must be renderable",
                    )

    if index.has_schema and index.has_benchmarks:
        for key in sorted(index.tracked_benchmarks):
            rel, line = index.tracked_benchmarks[key]
            base = key.split("[", 1)[0]
            if base not in index.benchmark_funcs:
                yield Violation(
                    CODE,
                    rel,
                    line,
                    0,
                    f"tracked benchmark {key!r} names no benchmark function "
                    f"({base} not defined under benchmarks/)",
                )
            if index.extra_info_prefixes and not any(
                key.startswith(prefix) for prefix in index.extra_info_prefixes
            ):
                yield Violation(
                    CODE,
                    rel,
                    line,
                    0,
                    f"tracked benchmark {key!r} matches no EXTRA_INFO_FIELDS "
                    "prefix — its readings would be dropped from every figure",
                )
