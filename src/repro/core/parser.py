"""Textual syntax for eCFDs: parser and serializer.

The paper presents eCFDs in the tableau notation of Fig. 2.  For a library
it is convenient to have a compact single-line syntax that can round-trip
through plain text (configuration files, test fixtures, command-line
arguments).  The grammar implemented here follows the paper's notation as
closely as ASCII allows::

    ecfd       :=  '(' relation ':' attr_list '->' attr_list [ '|' attr_list ]
                       ',' '{' pattern { ';' pattern } '}' ')'
    attr_list  :=  '[' [ ident { ',' ident } ] ']'
    pattern    :=  '(' entries '||' entries ')'
    entries    :=  [ entry { ',' entry } ]
    entry      :=  '_'  |  set  |  '!' set
    set        :=  '{' value { ',' value } '}'
    value      :=  ident | integer | quoted string

All parsed constants are strings (``{518}`` yields the string ``"518"``):
the paper's attribute values — area codes, zip codes, phone numbers — are
string-typed, and keeping a single parsed type avoids silent mismatches
between the constraint text and the data.  Integer constants can still be
used when building :class:`~repro.core.patterns.ValueSet` objects
programmatically; they render as bare digits and parse back as strings.

The LHS entry list of a pattern tuple follows the order of ``X``; the RHS
entry list follows ``Y`` then ``Yp``.  Example (eCFD ψ1 of Fig. 2)::

    (cust: [CT] -> [AC], { (!{NYC, LI} || _); ({Albany, Troy, Colonie} || {518}) })

and eCFD ψ2::

    (cust: [CT] -> [] | [AC], { ({NYC} || {212, 347, 646, 718, 917}) })

:func:`format_ecfd` renders an :class:`~repro.core.ecfd.ECFD` in this syntax
and :func:`parse_ecfd` parses it back; the pair round-trips (property-tested
in ``tests/core/test_parser.py``).
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.core.ecfd import ECFD, PatternTuple
from repro.core.patterns import (
    ComplementSet,
    PatternValue,
    ValueSet,
    Wildcard,
)
from repro.core.schema import RelationSchema, Value
from repro.exceptions import ParseError

__all__ = ["parse_ecfd", "parse_ecfd_set", "format_ecfd"]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<sep>\|\|)
  | (?P<punct>[()\[\]{},;:|!])
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<word>[A-Za-z0-9_.+-]+)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.text!r}, {self.position})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}",
                text=text,
                position=position,
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _Parser:
    """Small recursive-descent parser over the token stream."""

    def __init__(self, text: str, schema: RelationSchema):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.index = 0

    # -------------------------------------------------------------- utils
    def _peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self.text, position=len(self.text))
        self.index += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r} but found {token.text!r} at offset {token.position}",
                text=self.text,
                position=token.position,
            )
        return token

    def _at(self, text: str) -> bool:
        token = self._peek()
        return token is not None and token.text == text

    def at_end(self) -> bool:
        return self._peek() is None

    # ------------------------------------------------------------ grammar
    def parse_ecfd(self) -> ECFD:
        self._expect("(")
        relation = self._next()
        if relation.kind != "word":
            raise ParseError(
                f"expected a relation name at offset {relation.position}",
                text=self.text,
                position=relation.position,
            )
        if relation.text != self.schema.name:
            raise ParseError(
                f"eCFD is over relation {relation.text!r} but the supplied schema is "
                f"{self.schema.name!r}",
                text=self.text,
            )
        self._expect(":")
        lhs = self._parse_attr_list()
        self._expect("->")
        rhs = self._parse_attr_list()
        pattern_rhs: list[str] = []
        if self._at("|"):
            self._expect("|")
            pattern_rhs = self._parse_attr_list()
        self._expect(",")
        self._expect("{")
        patterns = [self._parse_pattern(lhs, rhs, pattern_rhs)]
        while self._at(";"):
            self._expect(";")
            patterns.append(self._parse_pattern(lhs, rhs, pattern_rhs))
        self._expect("}")
        self._expect(")")
        return ECFD(self.schema, lhs, rhs, pattern_rhs, patterns)

    def _parse_attr_list(self) -> list[str]:
        self._expect("[")
        names: list[str] = []
        if not self._at("]"):
            while True:
                token = self._next()
                if token.kind != "word":
                    raise ParseError(
                        f"expected an attribute name at offset {token.position}",
                        text=self.text,
                        position=token.position,
                    )
                names.append(token.text)
                if self._at(","):
                    self._expect(",")
                    continue
                break
        self._expect("]")
        return names

    def _parse_pattern(
        self, lhs: list[str], rhs: list[str], pattern_rhs: list[str]
    ) -> PatternTuple:
        self._expect("(")
        lhs_entries = self._parse_entries(len(lhs))
        self._expect("||")
        rhs_entries = self._parse_entries(len(rhs) + len(pattern_rhs))
        self._expect(")")
        lhs_map = dict(zip(lhs, lhs_entries))
        rhs_map = dict(zip(rhs + pattern_rhs, rhs_entries))
        return PatternTuple(lhs_map, rhs_map)

    def _parse_entries(self, expected: int) -> list[PatternValue]:
        entries: list[PatternValue] = []
        if expected == 0:
            return entries
        while True:
            entries.append(self._parse_entry())
            if self._at(","):
                self._expect(",")
                continue
            break
        if len(entries) != expected:
            token = self._peek()
            position = token.position if token else len(self.text)
            raise ParseError(
                f"pattern tuple lists {len(entries)} entries where {expected} were expected",
                text=self.text,
                position=position,
            )
        return entries

    def _parse_entry(self) -> PatternValue:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in pattern entry", text=self.text)
        if token.text == "_":
            self._next()
            return Wildcard()
        if token.text == "!":
            self._next()
            return ComplementSet(self._parse_set())
        if token.text == "{":
            return ValueSet(self._parse_set())
        raise ParseError(
            f"expected '_', a set or '!set' at offset {token.position}, found {token.text!r}",
            text=self.text,
            position=token.position,
        )

    def _parse_set(self) -> list[Value]:
        self._expect("{")
        values: list[Value] = []
        while True:
            token = self._next()
            if token.kind == "string":
                values.append(_unquote(token.text))
            elif token.kind == "word":
                values.append(_coerce_word(token.text))
            else:
                raise ParseError(
                    f"expected a constant at offset {token.position}, found {token.text!r}",
                    text=self.text,
                    position=token.position,
                )
            if self._at(","):
                self._expect(",")
                continue
            break
        self._expect("}")
        return values


def _coerce_word(word: str) -> Value:
    """Bare tokens (including digit-only ones) are kept as strings."""
    return word


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote_if_needed(value: str) -> str:
    if re.fullmatch(r"[A-Za-z0-9_.+-]+", value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parse_ecfd(text: str, schema: RelationSchema) -> ECFD:
    """Parse one eCFD from ``text`` over ``schema``.

    Raises :class:`~repro.exceptions.ParseError` on malformed input and
    :class:`~repro.exceptions.SchemaError` when the eCFD references unknown
    attributes.
    """
    parser = _Parser(text, schema)
    ecfd = parser.parse_ecfd()
    if not parser.at_end():
        trailing = parser._peek()
        assert trailing is not None
        raise ParseError(
            f"trailing input starting at offset {trailing.position}: {trailing.text!r}",
            text=text,
            position=trailing.position,
        )
    return ecfd


def parse_ecfd_set(text: str, schema: RelationSchema) -> list[ECFD]:
    """Parse several eCFDs, one per non-empty, non-comment line.

    Lines starting with ``#`` are ignored, which makes the format usable as
    a small constraint-definition file format.
    """
    result = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        result.append(parse_ecfd(stripped, schema))
    return result


def _format_entry(entry: PatternValue) -> str:
    if isinstance(entry, Wildcard):
        return "_"
    constants = sorted(entry.constants())
    rendered = "{" + ", ".join(_quote_if_needed(v) for v in constants) + "}"
    if isinstance(entry, ComplementSet):
        return "!" + rendered
    return rendered


def format_ecfd(ecfd: ECFD) -> str:
    """Render an eCFD in the textual syntax accepted by :func:`parse_ecfd`."""
    lhs = "[" + ", ".join(ecfd.lhs) + "]"
    rhs = "[" + ", ".join(ecfd.rhs) + "]"
    yp = ""
    if ecfd.pattern_rhs:
        yp = " | [" + ", ".join(ecfd.pattern_rhs) + "]"
    patterns = []
    for pattern in ecfd.tableau:
        lhs_entries = ", ".join(_format_entry(pattern.lhs_entry(a)) for a in ecfd.lhs)
        rhs_entries = ", ".join(
            _format_entry(pattern.rhs_entry(a)) for a in ecfd.rhs + ecfd.pattern_rhs
        )
        patterns.append(f"({lhs_entries} || {rhs_entries})")
    body = "; ".join(patterns)
    return f"({ecfd.schema.name}: {lhs} -> {rhs}{yp}, {{ {body} }})"
