"""Terms, triples, the fixed prefix table, and the line-oriented triple format.

Every file format in the system (knowledge packs, store exports, delivery
envelopes) is built on the serialization defined here: one
``<subj> <pred> obj .`` line per triple, UTF-8, LF line endings, ``#``
comment lines allowed.  The grammar is deliberately strict so that
serialize -> parse is an exact identity on term values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SSN_NS = "urn:knotgate:ssn#"
M3_NS = "urn:knotgate:m3#"
UNIT_NS = "urn:knotgate:unit#"

#: Closed prefix table; these five labels are the only recognized prefixes.
PREFIXES: dict[str, str] = {
    "rdf": RDF_NS,
    "ssn": SSN_NS,
    "m3": M3_NS,
    "unit": UNIT_NS,
    "xsd": XSD_NS,
}

XSD_DOUBLE = XSD_NS + "double"
XSD_LONG = XSD_NS + "long"
XSD_STRING = XSD_NS + "string"

NUMERIC_DATATYPES = frozenset({XSD_DOUBLE, XSD_LONG})

_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class MalformedIri(ValueError):
    """Text cannot be an IRI: missing scheme, whitespace, or angle brackets."""


class InvalidTerm(ValueError):
    """A literal or blank node violates its structural constraints."""


class InvalidTriple(ValueError):
    """A triple has a literal subject or a non-IRI predicate."""


class NonFiniteValue(ValueError):
    """Numeric term construction was given NaN, an infinity, or a non-number."""


class TripleParseError(ValueError):
    """First offending line of a triple document; aborts the whole parse."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        v = self.value
        if ":" not in v:
            raise MalformedIri(f"missing scheme separator in {v!r}")
        if any(c.isspace() for c in v):
            raise MalformedIri(f"whitespace in IRI {v!r}")
        if "<" in v or ">" in v:
            raise MalformedIri(f"angle bracket in IRI {v!r}")


@dataclass(frozen=True)
class Literal:
    """A typed literal; the datatype is carried as absolute IRI text."""

    lexical: str
    datatype: str = XSD_STRING

    def __post_init__(self) -> None:
        Iri(self.datatype)  # reuse the IRI checks
        if self.datatype in NUMERIC_DATATYPES:
            try:
                d = Decimal(self.lexical)
            except InvalidOperation:
                raise InvalidTerm(f"non-numeric lexical {self.lexical!r}") from None
            if not d.is_finite():
                raise InvalidTerm(f"non-finite lexical {self.lexical!r}")
            if self.datatype == XSD_LONG and d != d.to_integral_value():
                raise InvalidTerm(f"non-integral lexical {self.lexical!r} for long")

    @cached_property
    def number(self) -> Fraction | None:
        """Exact value of a numeric literal, else None; computed on first use."""
        if self.datatype in NUMERIC_DATATYPES:
            return Fraction(Decimal(self.lexical))
        return None


@dataclass(frozen=True)
class Blank:
    """A blank node with a local label."""

    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.match(self.label):
            raise InvalidTerm(f"bad blank node label {self.label!r}")


Term = Iri | Literal | Blank


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise InvalidTriple("literal subject")
        if not isinstance(self.predicate, Iri):
            raise InvalidTriple("predicate must be an IRI")


def expand_prefixed(text: str) -> str:
    """Expand ``prefix:name`` through the prefix table; absolute text passes through.

    Idempotent: no namespace in the table starts with another table label,
    so expanding an already-absolute IRI is the identity.
    """
    head, sep, rest = text.partition(":")
    if sep and head in PREFIXES:
        return PREFIXES[head] + rest
    return text


def make_iri(text: str) -> Iri:
    """Build an IRI term, expanding a registered prefix first.

    Raises MalformedIri when the (expanded) text has no scheme separator,
    contains whitespace or angle brackets, or is empty.
    """
    return Iri(expand_prefixed(text))


def compact_iri(value: str) -> str:
    """Shorten an absolute IRI to ``prefix:name`` when a table namespace matches."""
    for prefix, ns in PREFIXES.items():
        if value.startswith(ns) and len(value) > len(ns):
            return f"{prefix}:{value[len(ns):]}"
    return value


def compact_term(term: Term) -> str:
    """Human-facing rendering: compacted IRIs, bare lexical forms for literals."""
    if isinstance(term, Iri):
        return compact_iri(term.value)
    if isinstance(term, Literal):
        return term.lexical
    return f"_:{term.label}"


def _shortest_double(v: float) -> str:
    s = repr(v)
    if s.endswith(".0"):
        s = s[:-2]
    return s


def make_numeric(value: float | int, datatype: str = XSD_DOUBLE) -> Literal:
    """Numeric literal whose lexical form is the shortest round-trippable rendering.

    Only xsd:double and xsd:long are supported; NaN, infinities and
    non-numbers raise NonFiniteValue.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NonFiniteValue(f"not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value: {value!r}")
    if datatype == XSD_LONG:
        if isinstance(value, float) and not value.is_integer():
            raise InvalidTerm(f"non-integral value {value!r} for long")
        return Literal(str(int(value)), XSD_LONG)
    if datatype == XSD_DOUBLE:
        return Literal(_shortest_double(float(value)), XSD_DOUBLE)
    raise InvalidTerm(f"unsupported numeric datatype {datatype}")


def numeric_value(term: Term) -> Fraction | None:
    """Exact numeric value of a numeric literal, None for everything else."""
    return term.number if isinstance(term, Literal) else None


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
#: string-literal escapes, shared by the line format and the rule lexer
UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape_lexical(text: str) -> str:
    out = []
    for c in text:
        out.append(_ESCAPES.get(c, c))
    return "".join(out)


def serialize_term(term: Term) -> str:
    """The term's line-format lexeme; also the canonical sort key for terms."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, Blank):
        return f"_:{term.label}"
    return f'"{_escape_lexical(term.lexical)}"^^<{term.datatype}>'


def triple_to_line(triple: Triple) -> str:
    """One unterminated line, ``<subj> <pred> obj .`` with single spaces."""
    return (
        f"{serialize_term(triple.subject)} "
        f"{serialize_term(triple.predicate)} "
        f"{serialize_term(triple.object)} ."
    )


def serialize_triples(triples: list[Triple]) -> str:
    """One LF-terminated line per triple, input order preserved."""
    return "".join(triple_to_line(t) + "\n" for t in triples)


class _LineScanner:
    """Parses the three terms and terminator of one triple line."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ValueError(f"expected {ch!r} at column {self.pos + 1}")
        self.pos += 1

    def scan_iri(self) -> Iri:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise ValueError("unterminated IRI")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return Iri(value)

    def scan_blank(self) -> Blank:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return Blank(self.text[start : self.pos])

    def scan_literal(self) -> Literal:
        self.expect('"')
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise ValueError("unterminated literal")
            c = self.text[self.pos]
            self.pos += 1
            if c == "\\":
                if self.pos >= len(self.text):
                    raise ValueError("dangling escape")
                esc = self.text[self.pos]
                self.pos += 1
                if esc not in UNESCAPES:
                    raise ValueError(f"unknown escape \\{esc}")
                out.append(UNESCAPES[esc])
            elif c == '"':
                break
            else:
                out.append(c)
        self.expect("^")
        self.expect("^")
        datatype = self.scan_iri()
        return Literal("".join(out), datatype.value)

    def scan_term(self) -> Term:
        if self.pos >= len(self.text):
            raise ValueError("missing term")
        c = self.text[self.pos]
        if c == "<":
            return self.scan_iri()
        if c == "_":
            return self.scan_blank()
        if c == '"':
            return self.scan_literal()
        raise ValueError(f"unexpected character {c!r} at column {self.pos + 1}")

    def parse(self) -> Triple:
        self.skip_ws()
        subject = self.scan_term()
        self.skip_ws()
        predicate = self.scan_term()
        self.skip_ws()
        obj = self.scan_term()
        self.skip_ws()
        self.expect(".")
        self.skip_ws()
        if self.pos != len(self.text):
            raise ValueError("trailing characters after terminator")
        return Triple(subject, predicate, obj)


def parse_triples(document: str) -> list[Triple]:
    """Parse a triple document; duplicates and line order are preserved.

    The first offending line aborts the parse with TripleParseError.
    """
    triples: list[Triple] = []
    for lineno, raw in enumerate(document.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            triples.append(_LineScanner(line).parse())
        except ValueError as exc:
            raise TripleParseError(lineno, str(exc)) from None
    return triples
