"""Relation schemas, attributes and attribute domains.

The paper (Section II) defines eCFDs over a relation schema ``R`` with a
finite attribute set ``attr(R)``; every attribute ``A`` has a domain
``dom(A)`` which may be *finite* (with at least two elements) or *infinite*.
The distinction matters for the static analyses: Proposition 3.3 shows that,
unlike CFDs, eCFDs remain intractable even when every attribute has an
infinite domain, because a complement-set pattern can force an attribute to
range over a finite set anyway.

This module provides:

* :class:`Domain` — a finite or infinite value domain with membership tests
  and the ability to produce "fresh" values outside a given set (needed by
  the small-model constructions of Section III and the active-domain
  construction of Section IV).
* :class:`Attribute` — a named attribute bound to a domain.
* :class:`RelationSchema` — an ordered collection of attributes with lookup
  helpers, used by every other module in the library.

The concrete ``cust`` schema of the paper (Fig. 1) and the extended
``cust_ext`` schema used by the experimental study (Section VI) are exposed
as convenience constructors at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import DomainError, SchemaError

__all__ = [
    "Domain",
    "Attribute",
    "RelationSchema",
    "cust_schema",
    "cust_ext_schema",
]

#: A value handed to the library: a string, or an integer for convenience.
#: The value model is text.  Pattern constants and finite-domain values are
#: stored as ``str``, and a value is matched and tested for membership by
#: its string form, so ``212`` and ``"212"`` are one value everywhere, as in
#: the SQL substrate, whose engine backends store every cell as text.
Value = str | int


@dataclass(frozen=True)
class Domain:
    """The domain of an attribute.

    A domain is either *infinite* (modelling, e.g., arbitrary strings) or
    *finite*, in which case the full set of admissible values is stored.

    Parameters
    ----------
    name:
        A human-readable name, e.g. ``"string"`` or ``"bool"``.
    values:
        ``None`` for an infinite domain; otherwise the admissible values,
        stored as a frozen set of their string forms.  A finite domain must
        contain at least two elements (the paper assumes ``|dom(A)| >= 2``).
    """

    name: str = "string"
    values: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.values is not None:
            object.__setattr__(self, "values", frozenset(str(v) for v in self.values))
            if len(self.values) < 2:
                raise DomainError(
                    f"finite domain {self.name!r} must have at least two values, "
                    f"got {len(self.values)}"
                )

    # ------------------------------------------------------------------
    # Basic predicates
    # ------------------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        """Whether this is a finite domain."""
        return self.values is not None

    def __contains__(self, value: Value) -> bool:
        if self.values is None:
            return isinstance(value, (str, int))
        return str(value) in self.values

    def size(self) -> int | None:
        """Number of values in the domain, or ``None`` if infinite."""
        return None if self.values is None else len(self.values)

    # ------------------------------------------------------------------
    # Value construction helpers
    # ------------------------------------------------------------------
    def fresh_value(self, exclude: Iterable[Value] = ()) -> str | None:
        """Return a value of the domain not occurring in ``exclude``.

        For an infinite domain a fresh string is synthesised; for a finite
        domain the first unused value (in sorted order, for determinism) is
        returned, or ``None`` when every value is excluded.  This is the
        "extra value outside the active domain" used in the satisfiability
        and implication constructions of Sections III-IV.
        """
        excluded = {str(value) for value in exclude}
        if self.values is None:
            index = 0
            candidate = "_fresh_0"
            while candidate in excluded:
                index += 1
                candidate = f"_fresh_{index}"
            return candidate
        for value in sorted(self.values):
            if value not in excluded:
                return value
        return None

    def sample(self, count: int) -> list[str]:
        """Return up to ``count`` deterministic values from the domain."""
        if self.values is None:
            return [f"_v{i}" for i in range(count)]
        return sorted(self.values)[:count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.values is None:
            return f"Domain({self.name!r}, infinite)"
        return f"Domain({self.name!r}, |{len(self.values)}| values)"


#: Shared default domain: infinite strings.
STRING = Domain("string")


@dataclass(frozen=True)
class Attribute:
    """A named attribute of a relation schema.

    Attributes compare and hash by name only, so the same logical attribute
    referenced from different schema copies is treated as equal; the domain
    is carried along for value checking.
    """

    name: str
    domain: Domain = STRING

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not self.name.replace("_", "").isalnum():
            raise SchemaError(
                f"attribute name {self.name!r} must be alphanumeric (underscores allowed)"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Attribute):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Attribute({self.name!r})"


class RelationSchema:
    """An ordered relation schema ``R(A1, ..., An)``.

    The schema is the anchor object of the library: eCFDs, instances, the
    SQL encoding and the data generators are all defined with respect to a
    schema.  Attribute order is significant only for display and for the
    column order of the SQL substrate.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"cust"``.
    attributes:
        The attributes, either :class:`Attribute` objects or plain strings
        (in which case an infinite string domain is assumed).
    """

    def __init__(self, name: str, attributes: Sequence[Attribute | str]):
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        resolved: list[Attribute] = []
        for attribute in attributes:
            if isinstance(attribute, str):
                attribute = Attribute(attribute)
            resolved.append(attribute)
        names = [a.name for a in resolved]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"duplicate attribute names in schema {name!r}: {sorted(duplicates)}")
        if not resolved:
            raise SchemaError(f"schema {name!r} must have at least one attribute")
        self._attributes: tuple[Attribute, ...] = tuple(resolved)
        self._by_name: dict[str, Attribute] = {a.name: a for a in resolved}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes in declaration order."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The attribute names in declaration order."""
        return tuple(a.name for a in self._attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises
        ------
        SchemaError
            If the schema has no such attribute.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no attribute {name!r}; "
                f"known attributes: {list(self.attribute_names)}"
            ) from None

    def domain(self, name: str) -> Domain:
        """Return the domain of attribute ``name``."""
        return self.attribute(name).domain

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def index_of(self, name: str) -> int:
        """Return the positional index of attribute ``name``."""
        self.attribute(name)
        return self.attribute_names.index(name)

    # ------------------------------------------------------------------
    # Validation helpers used throughout the library
    # ------------------------------------------------------------------
    def check_attributes(self, names: Iterable[str], context: str = "constraint") -> list[str]:
        """Validate that every name in ``names`` belongs to this schema.

        Returns the names as a list (preserving order) so call sites can
        both validate and normalise in one step.
        """
        result = []
        for name in names:
            if name not in self:
                raise SchemaError(
                    f"{context} refers to attribute {name!r} which is not in schema "
                    f"{self.name!r} (attributes: {list(self.attribute_names)})"
                )
            result.append(name)
        return result

    def check_value(self, attribute: str, value: Value) -> Value:
        """Validate that ``value`` lies in the domain of ``attribute``."""
        domain = self.domain(attribute)
        if value not in domain:
            raise DomainError(
                f"value {value!r} is not in the domain of {self.name}.{attribute}"
            )
        return value

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationSchema):
            return self.name == other.name and self._attributes == other._attributes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self._attributes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationSchema({self.name!r}, {list(self.attribute_names)})"


# ----------------------------------------------------------------------
# Paper schemas
# ----------------------------------------------------------------------
def cust_schema() -> RelationSchema:
    """The ``cust(AC, PN, NM, STR, CT, ZIP)`` schema of Fig. 1.

    A customer in New York State described by area code (AC), phone number
    (PN), name (NM), street (STR), city (CT) and zip code (ZIP).  All
    attributes have infinite string domains, matching the paper's setting
    where the interesting finite behaviour comes from the eCFD patterns
    themselves rather than from finite attribute domains.
    """
    return RelationSchema("cust", ["AC", "PN", "NM", "STR", "CT", "ZIP"])


def cust_ext_schema() -> RelationSchema:
    """The extended customer schema used in the experimental study.

    Section VI extends ``cust`` with "information about items bought by
    different customers".  We model that extension with an item type, item
    title and price attribute, which is what the generated workload eCFDs
    range over in addition to the geographic attributes.
    """
    return RelationSchema(
        "cust_ext",
        ["AC", "PN", "NM", "STR", "CT", "ZIP", "ITEM_TYPE", "ITEM_TITLE", "PRICE"],
    )
