"""SQL generation for eCFD violation detection (Section V-A, Fig. 4).

This module produces the text of the two detection queries and of the
auxiliary statements shared by :class:`~repro.detection.batch.BatchDetector`
and :class:`~repro.detection.incremental.IncrementalDetector`.  All queries
are *schema-generic*: their shape depends only on the relation schema R (one
condition group per attribute), never on the number of eCFDs, the number of
pattern tuples, or the size of the constant sets — those live in the
encoding tables of :mod:`repro.detection.encoding`.

Every generator takes an optional :class:`~repro.detection.dialect.SqlDialect`
and emits engine-specific idioms (identifier quoting, the blank marker, the
``xv_key`` / ``yv_key`` concatenation, parameter placeholders) through it,
defaulting to the SQLite dialect.  The query *shapes* are dialect-invariant —
that is the paper's portability claim made concrete.

``Q_sv`` — single-tuple violations (Fig. 4, top)
    A tuple *matches the LHS pattern* of an encoded constraint when, for
    every attribute, either the attribute is not a set/complement LHS entry
    or the EXISTS / NOT EXISTS probe against the constant table agrees.  It
    is a violation when additionally some RHS entry fails: a value-set entry
    whose probe finds nothing, or a complement-set entry whose probe finds
    the value (``ABS`` handles the ``Yp`` sign convention).

``macro`` / ``Q_mv`` — multiple-tuple violations (Fig. 4, bottom)
    The ``macro`` query projects, for every tuple matching an encoded
    constraint's LHS pattern, the constraint identifier, the tuple
    identifier and the tuple's values on the embedded FD's attributes — all
    other attributes are blanked to ``'@'`` with a ``CASE`` expression.  Two
    derived key columns concatenate the blanked LHS values (``xv_key``) and
    RHS values (``yv_key``); grouping by ``(cid, xv_key)`` and keeping
    groups with more than one distinct ``yv_key`` finds exactly the
    LHS-value groups with at least two distinct RHS combinations, i.e. the
    embedded-FD violations.  The grouped rows ``(cid, p)`` are what the
    paper stores in its auxiliary relation Aux(D).

Implementation refinement over the paper: besides Aux(D), the detectors
materialise the macro projection itself into a helper relation
(``ecfd_macro``, one row per matching (tuple, constraint) pair) indexed by
``(cid, xv_key)`` and by ``tid``.  This keeps every incremental maintenance
step expressible as index-driven joins whose cost is proportional to the
update and the affected groups rather than to |D| — which is precisely the
behaviour the paper reports for INCDETECT on a commercial DBMS.  The number
of SQL statements per update remains fixed and independent of Σ.
"""

from __future__ import annotations

from repro.core.ecfd import ECFD
from repro.core.patterns import ComplementSet
from repro.core.schema import RelationSchema
from repro.detection.dialect import KEY_SEPARATOR, SqlDialect, get_dialect
from repro.detection.encoding import ENC_TABLE, enc_column, pattern_table
from repro.exceptions import DetectionError

__all__ = [
    "XV_SEPARATOR",
    "aux_column",
    "aux_columns",
    "lhs_match_condition",
    "rhs_violation_condition",
    "qsv_query",
    "sv_update_statement",
    "macro_query",
    "group_query",
    "qmv_query",
    "group_key_join",
    "mv_set_statement",
    "mv_clear_statement",
    "summary_scan_query",
]

#: Separator used when concatenating blanked values into xv_key / yv_key.
#: Owned by the dialect layer since the cross-engine split; re-exported under
#: its historical name.
XV_SEPARATOR = KEY_SEPARATOR


def _resolve(dialect: SqlDialect | None) -> SqlDialect:
    """The given dialect, or the SQLite reference dialect."""
    return dialect if dialect is not None else get_dialect("sqlite")


def aux_column(attribute: str) -> str:
    """Name of the blanked LHS-value column for ``attribute`` in macro/aux rows."""
    return f"{attribute}_XV"


def aux_columns(schema: RelationSchema) -> list[str]:
    """All blanked LHS-value column names, in schema order."""
    return [aux_column(a) for a in schema.attribute_names]


def _probe(
    attribute: str, side: str, data_alias: str, enc_alias: str, dialect: SqlDialect
) -> str:
    """The EXISTS probe of the constant table for one attribute/side."""
    table = dialect.quote_identifier(pattern_table(attribute, side))
    return (
        f"SELECT 1 FROM {table} p WHERE p.cid = {enc_alias}.CID "
        f"AND p.val = {data_alias}.{dialect.quote_identifier(attribute)}"
    )


def lhs_match_condition(
    schema: RelationSchema,
    data_alias: str = "t",
    enc_alias: str = "c",
    dialect: SqlDialect | None = None,
) -> str:
    """The conjunction asserting ``t[X] ≍ tp[X]`` for the encoded constraint.

    One pair of guarded probes per attribute; attributes absent from the LHS
    (code 0) and wildcard entries (code 3) satisfy both guards vacuously.
    """
    dialect = _resolve(dialect)
    parts = []
    for attribute in schema.attribute_names:
        column = f"{enc_alias}.{dialect.quote_identifier(enc_column(attribute, 'L'))}"
        probe = _probe(attribute, "L", data_alias, enc_alias, dialect)
        parts.append(f"({column} <> 1 OR EXISTS ({probe}))")
        parts.append(f"({column} <> 2 OR NOT EXISTS ({probe}))")
    return "\n      AND ".join(parts)


def rhs_violation_condition(
    schema: RelationSchema,
    data_alias: str = "t",
    enc_alias: str = "c",
    dialect: SqlDialect | None = None,
) -> str:
    """The disjunction asserting ``t[Y ∪ Yp] ⋬ tp[Y ∪ Yp]``.

    ``ABS`` folds the ``Yp`` sign convention (negative codes) into the same
    probes used for ``Y`` attributes.
    """
    dialect = _resolve(dialect)
    parts = []
    for attribute in schema.attribute_names:
        column = f"ABS({enc_alias}.{dialect.quote_identifier(enc_column(attribute, 'R'))})"
        probe = _probe(attribute, "R", data_alias, enc_alias, dialect)
        parts.append(f"({column} = 1 AND NOT EXISTS ({probe}))")
        parts.append(f"({column} = 2 AND EXISTS ({probe}))")
    return "\n       OR ".join(parts)


def qsv_query(
    schema: RelationSchema,
    restriction: str | None = None,
    dialect: SqlDialect | None = None,
) -> str:
    """``Q_sv``: tids of tuples violating some pattern constraint.

    ``restriction`` is an optional extra SQL condition over the data alias
    ``t`` (the incremental detector passes ``t.tid IN (...)`` to scan only
    newly inserted tuples).
    """
    dialect = _resolve(dialect)
    data_table = dialect.quote_identifier(schema.name)
    extra = f"\n      AND ({restriction})" if restriction else ""
    return (
        f"SELECT DISTINCT t.tid\n"
        f"FROM {data_table} t, {dialect.quote_identifier(ENC_TABLE)} c\n"
        f"WHERE {lhs_match_condition(schema, dialect=dialect)}\n"
        f"      AND ({rhs_violation_condition(schema, dialect=dialect)}){extra}"
    )


def sv_update_statement(
    schema: RelationSchema,
    restriction: str | None = None,
    dialect: SqlDialect | None = None,
) -> str:
    """``UPDATE ... SET SV = 1`` for the tuples returned by ``Q_sv``."""
    dialect = _resolve(dialect)
    data_table = dialect.quote_identifier(schema.name)
    return (
        f"UPDATE {data_table} SET SV = 1 WHERE tid IN (\n"
        f"{qsv_query(schema, restriction, dialect=dialect)}\n)"
    )


def _blanked_value(
    attribute: str, side: str, data_alias: str, enc_alias: str, dialect: SqlDialect
) -> str:
    """The ``CASE`` expression blanking an attribute irrelevant to one FD side."""
    code = f"{enc_alias}.{dialect.quote_identifier(enc_column(attribute, side))}"
    value = f"{data_alias}.{dialect.quote_identifier(attribute)}"
    blank = dialect.string_literal(dialect.blank)
    return f"(CASE WHEN {code} > 0 THEN {value} ELSE {blank} END)"


def macro_query(
    schema: RelationSchema,
    restriction: str | None = None,
    dialect: SqlDialect | None = None,
) -> str:
    """The ``macro`` query of Fig. 4, extended with tid and the two key columns.

    One output row per (tuple, encoded constraint) pair where the tuple
    matches the constraint's LHS pattern; columns are the constraint id, the
    tuple id, the blanked LHS values (one column per attribute plus the
    concatenated ``xv_key``) and the concatenated blanked RHS values
    (``yv_key``).
    """
    dialect = _resolve(dialect)
    data_table = dialect.quote_identifier(schema.name)
    select_parts = ["c.CID AS cid", "t.tid AS tid"]
    xv_fragments = []
    yv_fragments = []
    for attribute in schema.attribute_names:
        xv = _blanked_value(attribute, "L", "t", "c", dialect)
        yv = _blanked_value(attribute, "R", "t", "c", dialect)
        select_parts.append(f"{xv} AS {dialect.quote_identifier(aux_column(attribute))}")
        xv_fragments.append(xv)
        yv_fragments.append(yv)
    select_parts.append(f"({dialect.concat(xv_fragments)}) AS xv_key")
    select_parts.append(f"({dialect.concat(yv_fragments)}) AS yv_key")
    conditions = [lhs_match_condition(schema, dialect=dialect)]
    if restriction:
        conditions.append(f"({restriction})")
    return (
        "SELECT " + ",\n       ".join(select_parts) + "\n"
        f"FROM {data_table} t, {dialect.quote_identifier(ENC_TABLE)} c\n"
        "WHERE " + "\n      AND ".join(conditions)
    )


def group_query(
    schema: RelationSchema, source: str, dialect: SqlDialect | None = None
) -> str:
    """The violating ``(cid, p)`` groups of a macro-shaped row source.

    ``source`` is either the name of a table with the macro columns (e.g.
    the materialised ``ecfd_macro`` helper, possibly joined down to the
    affected groups) or a parenthesised sub-select producing them.  A group
    is violating when it contains at least two distinct RHS combinations.
    """
    dialect = _resolve(dialect)
    columns = (
        ["cid"]
        + [dialect.quote_identifier(name) for name in aux_columns(schema)]
        + ["xv_key"]
    )
    return (
        f"SELECT {', '.join(columns)}\n"
        f"FROM {source}\n"
        f"GROUP BY cid, xv_key\n"
        f"HAVING COUNT(DISTINCT yv_key) > 1"
    )


def qmv_query(
    schema: RelationSchema,
    restriction: str | None = None,
    dialect: SqlDialect | None = None,
) -> str:
    """``Q_mv``: the violating groups computed directly from the data table."""
    dialect = _resolve(dialect)
    return group_query(
        schema,
        f"(\n{macro_query(schema, restriction, dialect=dialect)}\n) AS macro",
        dialect=dialect,
    )


def group_key_join(left_alias: str, right_alias: str) -> str:
    """Join condition equating the (cid, xv_key) group identity of two row sets."""
    return (
        f"{left_alias}.cid = {right_alias}.cid "
        f"AND {left_alias}.xv_key = {right_alias}.xv_key"
    )


def mv_set_statement(
    schema: RelationSchema,
    macro_table: str,
    groups_table: str,
    dialect: SqlDialect | None = None,
) -> str:
    """``UPDATE ... SET MV = 1`` for tuples belonging to a violating group.

    Driven by an index-assisted join between the materialised macro relation
    and the given groups table, so the cost is proportional to the number of
    tuples in those groups.
    """
    dialect = _resolve(dialect)
    data_table = dialect.quote_identifier(schema.name)
    return (
        f"UPDATE {data_table} SET MV = 1 WHERE MV = 0 AND tid IN (\n"
        f"  SELECT m.tid FROM {dialect.quote_identifier(macro_table)} m\n"
        f"  JOIN {dialect.quote_identifier(groups_table)} g ON {group_key_join('m', 'g')}\n"
        f")"
    )


def summary_scan_query(
    fragment: ECFD, dialect: SqlDialect | None = None
) -> tuple[str, list[str]]:
    """The pushed-down scan behind a SQL detector's ``fd_group_summary`` hook.

    Selects ``tid`` plus the LHS and RHS projections of every data tuple
    matching the (single-pattern) fragment's LHS pattern — returned as
    ``(sql, parameters)`` with the (text) pattern constants bound as
    parameters, so the match semantics are those of the encoded ``Q_sv`` /
    macro probes and of :meth:`~repro.core.ecfd.PatternTuple.matches_lhs`.  The
    grouping into ``(cid, xv) → (yv multiset, tids)`` summaries happens on
    the (far smaller) result in Python; the filtering runs inside the
    engine.
    """
    dialect = _resolve(dialect)
    if len(fragment.tableau) != 1:
        raise DetectionError(
            "summary scans operate on normalized single-pattern fragments; "
            f"got a tableau of {len(fragment.tableau)} patterns"
        )
    pattern = fragment.tableau[0]
    conditions: list[str] = []
    parameters: list[str] = []
    for attribute in fragment.lhs:
        entry = pattern.lhs_entry(attribute)
        if entry.is_wildcard:
            continue
        constants = sorted(entry.constants())
        placeholders = ", ".join(dialect.placeholder for _ in constants)
        negate = "NOT " if isinstance(entry, ComplementSet) else ""
        conditions.append(
            f"{dialect.quote_identifier(attribute)} {negate}IN ({placeholders})"
        )
        parameters.extend(constants)
    columns = ["tid"] + [
        dialect.quote_identifier(a) for a in fragment.lhs + fragment.rhs
    ]
    sql = (
        f"SELECT {', '.join(columns)} "
        f"FROM {dialect.quote_identifier(fragment.schema.name)}"
    )
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql, parameters


def mv_clear_statement(
    schema: RelationSchema,
    macro_table: str,
    aux_table: str,
    dialect: SqlDialect | None = None,
) -> str:
    """``UPDATE ... SET MV = 0`` for flagged tuples no longer in any violating group."""
    dialect = _resolve(dialect)
    data_table = dialect.quote_identifier(schema.name)
    return (
        f"UPDATE {data_table} SET MV = 0 WHERE MV = 1 AND tid NOT IN (\n"
        f"  SELECT m.tid FROM {dialect.quote_identifier(macro_table)} m\n"
        f"  JOIN {dialect.quote_identifier(aux_table)} a ON {group_key_join('m', 'a')}\n"
        f")"
    )
