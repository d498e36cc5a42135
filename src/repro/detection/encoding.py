"""Relational encoding of eCFDs (Section V-A, Fig. 3).

The batch and incremental detectors treat the constraint set Σ as *data*,
not as query text: Σ is encoded into auxiliary relations once, and a fixed
pair of SQL queries joins the data table with those relations.  Two kinds of
tables are produced:

``enc``
    One row per (normalized, single-pattern) eCFD.  Besides the constraint
    identifier ``CID`` it has two columns per schema attribute ``A`` —
    ``A_L`` for the left-hand side and ``A_R`` for the right-hand side —
    holding a small integer code:

    =========  ==============================================================
    code       meaning
    =========  ==============================================================
    ``0``      ``A`` does not occur on that side
    ``1``      ``A`` occurs with a value-set pattern ``S``
    ``2``      ``A`` occurs with a complement-set pattern ``S̄``
    ``3``      ``A`` occurs with the wildcard ``'_'``
    ``-1/-2/-3``  same as ``1/2/3`` but ``A`` belongs to ``Yp`` rather than
                  ``Y`` (only possible in the ``A_R`` column)
    =========  ==============================================================

``T_{A}_L`` / ``T_{A}_R``
    For every attribute ``A``, a binary relation ``(cid, val)`` listing the
    constants of the set ``S`` mentioned by constraint ``cid`` on that side
    (used both for ``S`` and ``S̄`` patterns; the ``enc`` code says which
    interpretation applies).

The encoding is linear in the size of Σ and its table *schema* depends only
on the relation schema R, exactly as the paper remarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.ecfd import ECFD, ECFDSet
from repro.core.patterns import ComplementSet, PatternValue, ValueSet, Wildcard
from repro.core.schema import RelationSchema
from repro.detection.database import ECFDDatabase
from repro.exceptions import DetectionError

__all__ = [
    "ENC_TABLE",
    "AUX_TABLE",
    "MACRO_TABLE",
    "ConstraintEncoding",
    "encode_constraints",
    "install_encoding",
    "enc_column",
    "pattern_table",
]

#: Name of the enc relation.
ENC_TABLE = "ecfd_enc"
#: Name of the auxiliary relation maintained by the incremental detector.
AUX_TABLE = "ecfd_aux"
#: Name of the materialised macro relation (per-tuple, per-constraint rows)
#: that makes the incremental maintenance index-driven.
MACRO_TABLE = "ecfd_macro"

#: enc codes (positive = X or Y occurrence, negative = Yp occurrence).
CODE_ABSENT = 0
CODE_SET = 1
CODE_COMPLEMENT = 2
CODE_WILDCARD = 3


def enc_column(attribute: str, side: str) -> str:
    """Name of the enc column for ``attribute`` on side ``"L"`` or ``"R"``."""
    return f"{attribute}_{side}"


def pattern_table(attribute: str, side: str) -> str:
    """Name of the pattern-constant table for ``attribute`` on a side."""
    return f"ecfd_tp_{attribute}_{side}"


def _pattern_code(pattern: PatternValue) -> int:
    if isinstance(pattern, Wildcard):
        return CODE_WILDCARD
    if isinstance(pattern, ValueSet):
        return CODE_SET
    if isinstance(pattern, ComplementSet):
        return CODE_COMPLEMENT
    raise DetectionError(f"cannot encode pattern {pattern!r}")


@dataclass
class ConstraintEncoding:
    """The encoded form of a constraint set.

    Attributes
    ----------
    schema:
        The relation schema the constraints range over.
    fragments:
        The normalized single-pattern eCFDs, keyed by their ``CID``.
    enc_rows:
        Rows of the ``enc`` relation: ``(cid, code_A1_L, code_A1_R, ...)``
        following the attribute order of the schema.
    pattern_rows:
        Rows of the per-attribute constant tables:
        ``{(attribute, side): [(cid, value), ...]}``.
    """

    schema: RelationSchema
    fragments: dict[int, ECFD]
    enc_rows: list[tuple]
    pattern_rows: dict[tuple[str, str], list[tuple[int, str]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of encoded single-pattern constraints."""
        return len(self.fragments)


def encode_constraints(sigma: ECFDSet | Sequence[ECFD]) -> ConstraintEncoding:
    """Encode Σ into ``enc`` / pattern-table rows (Fig. 3).

    Multi-pattern eCFDs are normalized into single-pattern fragments first;
    the fragment identifiers become the ``CID`` values.
    """
    constraints = list(sigma)
    if not constraints:
        raise DetectionError("cannot encode an empty set of eCFDs")
    schema = constraints[0].schema
    for constraint in constraints:
        if constraint.schema != schema:
            raise DetectionError("all eCFDs must be defined over the same schema")

    sigma_set = sigma if isinstance(sigma, ECFDSet) else ECFDSet(constraints)
    fragments = dict(sigma_set.normalize())

    enc_rows: list[tuple] = []
    pattern_rows: dict[tuple[str, str], list[tuple[int, str]]] = {
        (attribute, side): []
        for attribute in schema.attribute_names
        for side in ("L", "R")
    }

    for cid, fragment in fragments.items():
        pattern = fragment.tableau[0]
        codes: dict[tuple[str, str], int] = {
            (attribute, side): CODE_ABSENT
            for attribute in schema.attribute_names
            for side in ("L", "R")
        }
        for attribute in fragment.lhs:
            entry = pattern.lhs_entry(attribute)
            codes[(attribute, "L")] = _pattern_code(entry)
            for value in sorted(entry.constants()):
                pattern_rows[(attribute, "L")].append((cid, value))
        for attribute in fragment.rhs:
            entry = pattern.rhs_entry(attribute)
            codes[(attribute, "R")] = _pattern_code(entry)
            for value in sorted(entry.constants()):
                pattern_rows[(attribute, "R")].append((cid, value))
        for attribute in fragment.pattern_rhs:
            entry = pattern.rhs_entry(attribute)
            codes[(attribute, "R")] = -_pattern_code(entry)
            for value in sorted(entry.constants()):
                pattern_rows[(attribute, "R")].append((cid, value))

        row = [cid]
        for attribute in schema.attribute_names:
            row.append(codes[(attribute, "L")])
            row.append(codes[(attribute, "R")])
        enc_rows.append(tuple(row))

    return ConstraintEncoding(
        schema=schema,
        fragments=fragments,
        enc_rows=enc_rows,
        pattern_rows=pattern_rows,
    )


def install_encoding(database: ECFDDatabase, encoding: ConstraintEncoding) -> None:
    """Create and populate the encoding tables inside ``database``.

    All DDL and DML are emitted through the database's dialect, so the same
    encoding installs identically on every engine (index DDL is skipped when
    the dialect declines it — columnar engines scan the tiny constant tables
    faster than they maintain indexes on them).  Existing encoding tables
    are dropped first, so re-installing a new Σ on the same database is
    safe.
    """
    if database.schema != encoding.schema:
        raise DetectionError("encoding and database must share the same relation schema")
    schema = database.schema
    dialect = database.dialect
    quote = dialect.quote_identifier
    integer = dialect.integer_type
    text = dialect.text_type

    # enc relation ------------------------------------------------------
    database.execute(dialect.drop_table(ENC_TABLE))
    enc_columns = [f"CID {integer} PRIMARY KEY"]
    for attribute in schema.attribute_names:
        enc_columns.append(f"{quote(enc_column(attribute, 'L'))} {integer} NOT NULL")
        enc_columns.append(f"{quote(enc_column(attribute, 'R'))} {integer} NOT NULL")
    database.execute(
        f"CREATE TABLE {quote(ENC_TABLE)} ({', '.join(enc_columns)})"
    )
    placeholders = ", ".join([dialect.placeholder] * (1 + 2 * len(schema)))
    database.executemany(
        f"INSERT INTO {quote(ENC_TABLE)} VALUES ({placeholders})",
        encoding.enc_rows,
    )

    # per-attribute constant tables --------------------------------------
    for (attribute, side), rows in encoding.pattern_rows.items():
        table = pattern_table(attribute, side)
        database.execute(dialect.drop_table(table))
        database.execute(
            f"CREATE TABLE {quote(table)} "
            f"(cid {integer} NOT NULL, val {text} NOT NULL)"
        )
        if rows:
            database.engine.bulk_insert(table, ["cid", "val"], rows)
        index_ddl = dialect.create_index("idx_" + table, table, ["cid", "val"])
        if index_ddl is not None:
            database.execute(index_ddl)
    database.commit()
