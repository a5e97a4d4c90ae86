"""Terms, triples, the fixed prefix table, the lexeme table, and the triple format.

Every file format in the system (knowledge packs, store exports, delivery
envelopes) is built on the serialization defined here: one
``<subj> <pred> obj .`` line per triple, UTF-8, LF line endings, ``#``
comment lines allowed.  The grammar is deliberately strict so that
serialize -> parse is an exact identity on term values.

The term lexemes (IRI, blank node, escaped string literal, number) and
``unescape`` are defined once, here, as regex fragments.  Both readers are
built from them: parse_triples matches each line whole against three terms
and a ``.``, and lexer.tokenize folds them into the master regex of the
rule and query grammars.

Terms are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML 2006): building an Iri, Literal or Blank returns the one
live object of that value, so term equality is identity, term hashing is
object's own, and the object serves as its own dictionary id.  Each term
keeps its lexeme (its line-format spelling, which is also the canonical
sort key of terms) in a slot, made once when the term is first built.
The intern tables are per process and hold terms weakly: a term no one
references leaves its table.

Triples are not hash-consed: every reading builds new ones, and a weak
intern entry per triple (a weakref.KeyedRef and a table slot) cost as much
as it saved.  A triple instead computes its hash once, into a slot, and two
triples are equal when they hold the same three term objects, which for
hash-consed terms is value equality.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from dataclasses import FrozenInstanceError
from decimal import Decimal, InvalidOperation
from typing import Iterator, TypeVar

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

_BLANK_LABEL = r"[A-Za-z0-9_]+"
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL + r"\Z")
#: the characters IRI text may not hold, found by one search
_IRI_FAULT_RE = re.compile(r"[\s<>]")

_TermT = TypeVar("_TermT", bound="_Term")


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


# -- hash-consing ---------------------------------------------------------------
# Per term class, a table from a term value to a weak reference to its one
# live object.  The miss path validates, mints and tables under one lock, so
# two threads never mint two objects for one value; the hit path reads the
# table without it.  An entry leaves its table when its object dies.

_INTERN_LOCK = threading.RLock()


def _intern(cls: type[_TermT], key: object, *fields: str) -> _TermT:
    """The live term of cls for key, minted from fields when there is none."""
    with _INTERN_LOCK:
        ref = cls._table.get(key)
        term = ref() if ref is not None else None
        if term is None:
            lexeme = cls._lexeme(*fields)  # raises on an invalid value
            term = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(term, name, value)
            object.__setattr__(term, "lexeme", lexeme)
            cls._table[key] = weakref.KeyedRef(term, cls._forget, key)
        return term


class _Term:
    """What the hash-consed term classes share: they are immutable, a pickle
    or copy of one is the one object of its value again, and lexeme is the
    term's line-format spelling."""

    __slots__ = ("__weakref__", "lexeme")
    lexeme: str
    #: a numeric literal's value as (numerator, denominator); None elsewhere
    ratio: tuple[int, int] | None = None

    def __init_subclass__(cls) -> None:
        # the class's intern table, and the one callback by which a dying
        # term's weak reference drops its entry
        table: dict[object, weakref.KeyedRef] = {}

        def forget(ref: weakref.KeyedRef) -> None:
            with _INTERN_LOCK:
                if table.get(ref.key) is ref:
                    del table[ref.key]

        cls._table, cls._forget = table, staticmethod(forget)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Iri(_Term):
    """An absolute IRI, spelled ``<value>``."""

    __slots__ = ("value",)
    __match_args__ = ("value",)
    value: str

    def __new__(cls, value: str) -> Iri:
        ref = _IRIS.get(value)
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, value, value)

    @staticmethod
    def _lexeme(value: str) -> str:
        if ":" not in value:
            raise MalformedIri(f"missing scheme separator in {value!r}")
        fault = _IRI_FAULT_RE.search(value)
        if fault is not None:
            what = "angle bracket" if fault.group() in "<>" else "whitespace"
            raise MalformedIri(f"{what} in IRI {value!r}")
        return f"<{value}>"


class Literal(_Term):
    """A typed literal; the datatype is carried as absolute IRI text.

    ratio is the exact value of a numeric literal as (numerator,
    denominator) in lowest terms, the form guards compare, else None; it is
    computed on first read and then kept in its slot.
    """

    __slots__ = ("lexical", "datatype", "ratio")
    __match_args__ = ("lexical", "datatype")
    lexical: str
    datatype: str

    def __new__(cls, lexical: str, datatype: str = XSD_STRING) -> Literal:
        ref = _LITERALS.get((lexical, datatype))
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, (lexical, datatype), lexical, datatype)

    @staticmethod
    def _lexeme(lexical: str, datatype: str) -> str:
        Iri._lexeme(datatype)  # reuse the IRI checks
        if datatype in NUMERIC_DATATYPES:
            try:
                d = Decimal(lexical)
            except InvalidOperation:
                raise InvalidTerm(f"non-numeric lexical {lexical!r}") from None
            if not d.is_finite():
                raise InvalidTerm(f"non-finite lexical {lexical!r}")
            if datatype == XSD_LONG and d != d.to_integral_value():
                raise InvalidTerm(f"non-integral lexical {lexical!r} for long")
        return f'"{lexical.translate(_ESCAPES)}"^^<{datatype}>'

    def __getattr__(self, name: str) -> object:
        # reached only while the ratio slot is unset
        if name != "ratio":
            raise AttributeError(f"'Literal' object has no attribute {name!r}")
        ratio = Decimal(self.lexical).as_integer_ratio() if self.datatype in NUMERIC_DATATYPES else None
        object.__setattr__(self, "ratio", ratio)
        return ratio


class Blank(_Term):
    """A blank node with a local label, spelled ``_:label``."""

    __slots__ = ("label",)
    __match_args__ = ("label",)
    label: str

    def __new__(cls, label: str) -> Blank:
        ref = _BLANKS.get(label)
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, label, label)

    @staticmethod
    def _lexeme(label: str) -> str:
        if not _BLANK_LABEL_RE.match(label):
            raise InvalidTerm(f"bad blank node label {label!r}")
        return f"_:{label}"


Term = Iri | Literal | Blank

# the intern tables, read by the constructors' hit paths
_IRIS, _LITERALS, _BLANKS = Iri._table, Literal._table, Blank._table

#: sets a slot past a frozen class's own __setattr__
_set = object.__setattr__


class Triple:
    """A statement of three terms: immutable, with no literal subject and an
    IRI predicate.  Its hash is computed once, and two triples are equal when
    they hold the same three term objects."""

    __slots__ = ("subject", "predicate", "object", "_hash")
    __match_args__ = ("subject", "predicate", "object")
    subject: Term
    predicate: Term
    object: Term

    def __init__(self, subject: Term, predicate: Term, object: Term) -> None:
        if isinstance(subject, Literal):
            raise InvalidTriple("literal subject")
        if not isinstance(predicate, Iri):
            raise InvalidTriple("predicate must be an IRI")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)
        _set(self, "_hash", hash((subject, predicate, object)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.subject is other.subject and self.predicate is other.predicate and self.object is other.object

    __setattr__ = _Term.__setattr__
    __delattr__ = _Term.__delattr__

    def __reduce__(self) -> tuple:
        return Triple, (self.subject, self.predicate, self.object)

    def __repr__(self) -> str:
        return f"Triple(subject={self.subject!r}, predicate={self.predicate!r}, object={self.object!r})"


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


# -- the lexeme table ----------------------------------------------------------
# Each fragment captures its payload in one group.

#: ``<text>``: no whitespace or ``>`` inside; the Iri constructor checks the rest
IRI_LEXEME = r"<([^\s>]*)>"
#: ``_:label``, the whole run of label characters: a label never hands its
#: tail on to a next term, so ``_:a_:b`` is no two blank nodes
BLANK_LEXEME = rf"_:({_BLANK_LABEL})(?![A-Za-z0-9_])"
#: ``"body"``: takes any backslash pair, and unescape() decides whether it is one
STRING_LEXEME = r'"([^"\\]*(?:\\[\s\S][^"\\]*)*)"'
#: a bare decimal number; only rules and queries spell numbers bare
NUMBER_LEXEME = r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

#: string-literal escapes: escape letter -> the character it stands for
UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPES = str.maketrans({c: "\\" + e for e, c in UNESCAPES.items()})
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")


class BadEscape(ValueError):
    """A string body holds an escape UNESCAPES does not name, at offset."""

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset


def _unescape_one(m: re.Match) -> str:
    esc = m.group(1)
    if esc not in UNESCAPES:
        raise BadEscape(m.start(), f"unknown escape \\{esc}" if esc else "dangling escape")
    return UNESCAPES[esc]


def unescape(body: str) -> str:
    """The lexical form a string lexeme's body spells; raises BadEscape."""
    return _ESCAPE_RE.sub(_unescape_one, body) if "\\" in body else body


def serialize_term(term: Term) -> str:
    """The term's line-format lexeme; also the canonical sort key for terms."""
    return term.lexeme


def triple_to_line(triple: Triple) -> str:
    """One unterminated line, ``<subj> <pred> obj .`` with single spaces."""
    return f"{triple.subject.lexeme} {triple.predicate.lexeme} {triple.object.lexeme} ."


def serialize_triples(triples: list[Triple]) -> str:
    """One LF-terminated line per triple, input order preserved."""
    return "".join(triple_to_line(t) + "\n" for t in triples)


#: a literal's datatype is always an absolute IRI in the line format
_TERM = rf"(?:{IRI_LEXEME}|{BLANK_LEXEME}|{STRING_LEXEME}\^\^{IRI_LEXEME})"
_TRIPLE_LINE = re.compile(rf"{_TERM}[ \t]*{_TERM}[ \t]*{_TERM}[ \t]*\.")
_TERM_AT = re.compile(rf"{_TERM}[ \t]*")


def _term(iri: str | None, label: str | None, body: str | None, datatype: str | None) -> Term:
    if iri is not None:
        return Iri(iri)
    if label is not None:
        return Blank(label)
    return Literal(unescape(body), datatype)


def _line_fault(line: str) -> str:
    """Where a stripped line that is not a triple line goes wrong."""
    pos = 0
    for slot in ("subject", "predicate", "object"):
        m = _TERM_AT.match(line, pos)
        if m is None:
            return f"expected {slot} term at column {pos + 1}"
        pos = m.end()
    if line[pos:pos + 1] != ".":
        return f"expected '.' at column {pos + 1}"
    return "trailing characters after terminator"


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for every line of text that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_triples(document: str) -> list[Triple]:
    """Parse a triple document; duplicates and line order are preserved.

    The first offending line aborts the parse with TripleParseError.
    """
    triples: list[Triple] = []
    for lineno, line in data_lines(document):
        m = _TRIPLE_LINE.fullmatch(line)
        try:
            if m is None:
                raise ValueError(_line_fault(line))
            g = m.groups()
            triples.append(Triple(_term(*g[:4]), _term(*g[4:8]), _term(*g[8:])))
        except ValueError as exc:
            raise TripleParseError(lineno, str(exc)) from None
    return triples
