"""The eCFD pattern language: wildcards, value sets and complement sets.

Section II of the paper defines a pattern tuple entry ``tp[A]`` to be one of

* the unnamed variable ``'_'`` (any value of ``dom(A)`` matches),
* a finite set ``S ⊆ dom(A)`` (a value matches iff it is **in** ``S``), or
* a complement set ``S̄`` (a value matches iff it is **not** in ``S``).

A data value ``t[A]`` *matches* the pattern entry, written ``t[A] ≍ tp[A]``,
under the conditions above.  CFDs are the special case where every entry is
either ``'_'`` or a singleton set, and standard FDs are the special case
where every entry is ``'_'``.

Constants are text, like every stored value: ``ValueSet([212])`` is
``ValueSet(["212"])``, and a data value matches by its string form, so
``212`` and ``"212"`` both match it.  This is the comparison the SQL
encoding makes, so every detector shares one ``≍``.

This module implements the pattern-value hierarchy together with the small
algebra the rest of the library needs:

* :meth:`PatternValue.matches` — the ``≍`` relation;
* :meth:`PatternValue.constants` — the constants mentioned by the pattern
  (the building block of the *active domain* used in Sections III-IV);
* :meth:`PatternValue.subsumes` — semantic containment between patterns,
  used by the implication analysis and by tableau minimisation;
* :meth:`PatternValue.intersect` — conjunction of two patterns over the same
  attribute (used by the satisfiability search to combine constraints);
* :meth:`PatternValue.pick` / :meth:`PatternValue.admits` — pick a witness
  value / decide emptiness relative to a domain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Iterable

from repro.core.schema import Domain, Value
from repro.exceptions import PatternError

__all__ = [
    "PatternValue",
    "Wildcard",
    "ValueSet",
    "ComplementSet",
    "WILDCARD",
    "constant",
    "pattern_from_literal",
]


class PatternValue(ABC):
    """Abstract base class of the three pattern-entry kinds."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # The match relation  t[A] ≍ tp[A]
    # ------------------------------------------------------------------
    @abstractmethod
    def matches(self, value: Value) -> bool:
        """Return ``True`` iff the data value matches this pattern entry."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def constants(self) -> frozenset[str]:
        """The constants syntactically mentioned by the pattern."""

    @property
    def is_wildcard(self) -> bool:
        """Whether this entry is the unnamed variable ``'_'``."""
        return isinstance(self, Wildcard)

    # ------------------------------------------------------------------
    # Semantic operations
    # ------------------------------------------------------------------
    @abstractmethod
    def subsumes(self, other: "PatternValue") -> bool:
        """Whether every value matching ``other`` also matches ``self``.

        Containment is decided *semantically*: e.g. ``S̄ = {a}ᶜ`` subsumes
        ``{b, c}`` whenever ``a`` is neither ``b`` nor ``c``.  For
        complement-vs-set comparisons the answer may depend on the attribute
        domain being infinite; this method assumes the conservative
        (infinite-domain) reading, which is sound for the uses in this
        library (implication counterexample search re-checks candidates
        explicitly).
        """

    @abstractmethod
    def intersect(self, other: "PatternValue") -> "PatternValue | None":
        """The pattern matching exactly the values both patterns match.

        Returns ``None`` when the conjunction is unsatisfiable over every
        domain (e.g. ``{a} ∩ {b}`` with ``a != b``).  A returned pattern may
        still be empty over a specific *finite* domain; use
        :meth:`admits` to check against a concrete domain.
        """

    @abstractmethod
    def admits(self, domain: Domain) -> bool:
        """Whether at least one value of ``domain`` matches this pattern."""

    @abstractmethod
    def pick(self, domain: Domain, avoid: Iterable[Value] = ()) -> Value | None:
        """Pick a deterministic matching value from ``domain``.

        Values in ``avoid`` are skipped if possible (they are still returned
        as a last resort when the pattern admits nothing else); ``None`` is
        returned when the pattern admits no value of the domain at all.
        """

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    @abstractmethod
    def to_text(self) -> str:
        """Render in the textual syntax understood by :mod:`repro.core.parser`."""

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Wildcard(PatternValue):
    """The unnamed variable ``'_'``: every domain value matches."""

    __slots__ = ()

    def matches(self, value: Value) -> bool:
        return True

    def constants(self) -> frozenset[str]:
        return frozenset()

    def subsumes(self, other: PatternValue) -> bool:
        return True

    def intersect(self, other: PatternValue) -> PatternValue:
        return other

    def admits(self, domain: Domain) -> bool:
        return True

    def pick(self, domain: Domain, avoid: Iterable[Value] = ()) -> Value | None:
        avoided = set(avoid)
        fresh = domain.fresh_value(exclude=avoided)
        if fresh is not None:
            return fresh
        # Every domain value is avoided; fall back to any domain value.
        return domain.fresh_value()

    def to_text(self) -> str:
        return "_"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Wildcard()"


def _normalise_values(values: Iterable[Value], kind: str) -> frozenset[str]:
    # Stored values are text, so constants are too: the int 212 and the
    # string "212" are one constant, matching like the SQL encoding does.
    frozen = frozenset(values)
    if not frozen:
        raise PatternError(f"{kind} pattern must mention at least one constant")
    for value in frozen:
        if not isinstance(value, (str, int)):
            raise PatternError(
                f"{kind} pattern values must be strings or integers, got {value!r}"
            )
    return frozenset(str(value) for value in frozen)


@dataclass(frozen=True)
class ValueSet(PatternValue):
    """A finite set pattern ``S``: a value matches iff it belongs to ``S``.

    The disjunction construct of the paper — e.g. the NYC area codes
    ``{212, 718, 646, 347, 917}`` in eCFD ψ2 of Fig. 2.
    """

    values: frozenset[str]

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Value]):
        object.__setattr__(self, "values", _normalise_values(values, "value-set"))

    def __reduce__(self):
        # Frozen dataclasses with __slots__ cannot round-trip through the
        # default pickle path (state restoration calls the blocked
        # __setattr__); reconstruct through the constructor instead, which
        # the process-pool sharded detector relies on to ship constraints
        # to worker processes.
        return (ValueSet, (sorted(self.values),))

    def matches(self, value: Value) -> bool:
        return str(value) in self.values

    def constants(self) -> frozenset[str]:
        return self.values

    def subsumes(self, other: PatternValue) -> bool:
        if isinstance(other, ValueSet):
            return other.values <= self.values
        # A wildcard or a complement set matches infinitely many values
        # (under the conservative infinite-domain reading), so a finite set
        # can subsume neither.
        return False

    def intersect(self, other: PatternValue) -> PatternValue | None:
        if isinstance(other, Wildcard):
            return self
        if isinstance(other, ValueSet):
            common = self.values & other.values
            return ValueSet(common) if common else None
        if isinstance(other, ComplementSet):
            remaining = self.values - other.values
            return ValueSet(remaining) if remaining else None
        raise PatternError(f"cannot intersect with {other!r}")

    def admits(self, domain: Domain) -> bool:
        return any(value in domain for value in self.values)

    def pick(self, domain: Domain, avoid: Iterable[Value] = ()) -> Value | None:
        avoided = {str(value) for value in avoid}
        in_domain = sorted(v for v in self.values if v in domain)
        if not in_domain:
            return None
        for value in in_domain:
            if value not in avoided:
                return value
        return in_domain[0]

    def to_text(self) -> str:
        rendered = ", ".join(sorted(self.values))
        return "{" + rendered + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueSet({sorted(self.values)!r})"


@dataclass(frozen=True)
class ComplementSet(PatternValue):
    """A complement-set pattern ``S̄``: a value matches iff it is *not* in ``S``.

    The inequality construct of the paper — e.g. ``CT ∉ {NYC, LI}`` in
    eCFD ψ1 of Fig. 2.
    """

    values: frozenset[str]

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Value]):
        object.__setattr__(self, "values", _normalise_values(values, "complement-set"))

    def __reduce__(self):
        # See ValueSet.__reduce__: required for pickling across processes.
        return (ComplementSet, (sorted(self.values),))

    def matches(self, value: Value) -> bool:
        return str(value) not in self.values

    def constants(self) -> frozenset[str]:
        return self.values

    def subsumes(self, other: PatternValue) -> bool:
        if isinstance(other, ValueSet):
            return not (other.values & self.values)
        if isinstance(other, ComplementSet):
            # S̄ subsumes T̄ iff every value outside T is outside S, i.e. S ⊆ T.
            return self.values <= other.values
        return False

    def intersect(self, other: PatternValue) -> PatternValue | None:
        if isinstance(other, Wildcard):
            return self
        if isinstance(other, ValueSet):
            return other.intersect(self)
        if isinstance(other, ComplementSet):
            return ComplementSet(self.values | other.values)
        raise PatternError(f"cannot intersect with {other!r}")

    def admits(self, domain: Domain) -> bool:
        if not domain.is_finite:
            return True
        assert domain.values is not None
        return any(value not in self.values for value in domain.values)

    def pick(self, domain: Domain, avoid: Iterable[Value] = ()) -> Value | None:
        avoided = set(avoid) | set(self.values)
        candidate = domain.fresh_value(exclude=avoided)
        if candidate is not None:
            return candidate
        # Could not avoid the avoid-list; try ignoring it (but never the
        # complemented values themselves).
        return domain.fresh_value(exclude=self.values)

    def to_text(self) -> str:
        rendered = ", ".join(sorted(self.values))
        return "!{" + rendered + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComplementSet({sorted(self.values)!r})"


#: Singleton wildcard instance — pattern tuples share it freely.
WILDCARD = Wildcard()


def constant(value: Value) -> ValueSet:
    """A CFD-style constant pattern, i.e. the singleton set ``{value}``."""
    return ValueSet([value])


def pattern_from_literal(literal: object) -> PatternValue:
    """Coerce a convenient Python literal into a :class:`PatternValue`.

    Accepted literals:

    * ``"_"`` or ``None`` — wildcard;
    * a ``str`` / ``int`` — singleton :class:`ValueSet` (CFD constant);
    * a ``set`` / ``frozenset`` / ``list`` / ``tuple`` — :class:`ValueSet`;
    * a :class:`PatternValue` — returned unchanged.

    Complement sets have no natural Python literal; construct them
    explicitly via :class:`ComplementSet` or the parser syntax ``!{...}``.
    """
    if isinstance(literal, PatternValue):
        return literal
    if literal is None or literal == "_":
        return WILDCARD
    if isinstance(literal, (set, frozenset, list, tuple)):
        return ValueSet(literal)
    if isinstance(literal, (str, int)):
        return constant(literal)
    raise PatternError(f"cannot build a pattern from literal {literal!r}")
