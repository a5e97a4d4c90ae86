"""Shared lexer and term reader for the rule-pack and query grammars.

Both grammars use the same term lexemes: ``<absolute-iri>``, ``prefix:name``
(registered prefixes only), ``?var``, ``"lexical"^^datatype`` and bare
numbers.  tokenize is one master regex with a named group per token kind.
Its IRI, blank-node, string and number groups are model's lexeme table,
the one parse_triples is built from, so the two readers cannot disagree on
a lexeme or an escape.  A blank node lexes but is no term of either
grammar.  Positions are (line, column), 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

from .model import (
    BLANK_LEXEME,
    IRI_LEXEME,
    NUMBER_LEXEME,
    STRING_LEXEME,
    BadEscape,
    Literal,
    PREFIXES,
    Term,
    XSD_LONG,
    XSD_STRING,
    make_iri,
    make_numeric,
    unescape,
)
from .store import PatternTerm, TriplePattern, Variable

_T = TypeVar("_T")


class GrammarError(ValueError):
    """Syntax error with a 1-based (line, column) position."""

    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"{reason} at line {line}, column {col}")
        self.line = line
        self.col = col
        self.reason = reason


@dataclass(frozen=True)
class Token:
    kind: str  # NAME PNAME IRI BLANK VAR NUMBER STRING HATHAT DOT COLON LBRACE RBRACE OP EOF
    text: str
    line: int
    col: int


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ".": "DOT", ":": "COLON", "^^": "HATHAT"}

#: the first alternative that matches wins; "<=" is an operator even where
#: an IRI could start
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("SKIP", r"\s+|\#[^\n]*"),
    ("IRI", rf"(?!<=){IRI_LEXEME}"),
    ("OP", r"[<>!]=|[<>=]"),
    ("PUNCT", r"[{}.:]|\^\^"),
    ("VAR", r"\?\w+"),
    ("STRING", STRING_LEXEME),
    # a number run on by an exponent without digits or a non-ASCII digit; the
    # lookahead and backreference match the number atomically, so 1e5 is
    # never cut back to 1 and an "e"
    ("BADNUMBER", rf"(?=(?P<_number>{NUMBER_LEXEME}))(?P=_number)(?:[eE][+-]?|[^\W_A-Za-z]+)"),
    ("NUMBER", NUMBER_LEXEME),
    ("BLANK", BLANK_LEXEME),
    ("WORD", r"[A-Za-z0-9_:-]+"),
    ("ERROR", r"."),
)))


def _where(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _string_body(text: str, start: int, end: int) -> str:
    try:
        return unescape(text[start:end])
    except BadEscape as exc:
        raise GrammarError(*_where(text, start + exc.offset), str(exc)) from None


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme, start = m.lastgroup, m.group(), m.start()
        if kind == "SKIP":
            continue
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        last = start
        col = start - line_start + 1
        if kind == "WORD":
            kind = "PNAME" if ":" in lexeme else "NAME"
        elif kind == "PUNCT":
            kind = _PUNCT[lexeme]
        elif kind == "IRI":
            lexeme = lexeme[1:-1]
        elif kind == "VAR":
            lexeme = lexeme[1:]
        elif kind == "STRING":
            lexeme = _string_body(text, start + 1, m.end() - 1)
        elif kind == "BADNUMBER":
            raise GrammarError(line, col, f"malformed number {lexeme!r}")
        elif kind == "ERROR":
            if lexeme == "?":
                raise GrammarError(line, col + 1, "empty variable name")
            if lexeme != '"':
                raise GrammarError(line, col, f"unexpected character {lexeme!r}")
            _string_body(text, start + 1, len(text))  # an escape error comes first
            raise GrammarError(*_where(text, len(text)), "unterminated string literal")
        tokens.append(Token(kind, lexeme, line, col))
    tokens.append(Token("EOF", "", *_where(text, len(text))))
    return tokens


class TokenCursor:
    """Sequential reader over a token list with positioned errors."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok: Token, reason: str) -> GrammarError:
        return GrammarError(tok.line, tok.col, reason)

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(tok, f"expected {kind}, found {tok.text or tok.kind!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            raise self.error(tok, f"expected {word}, found {tok.text or tok.kind!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word


def _iri_from_pname(cursor: TokenCursor, tok: Token) -> Term:
    prefix, _, _rest = tok.text.partition(":")
    if prefix not in PREFIXES:
        raise cursor.error(tok, f"unknown prefix {prefix!r}")
    return make_iri(tok.text)


def _datatype(cursor: TokenCursor) -> str:
    """The datatype after a string literal's ``^^``, else xsd:string."""
    if cursor.peek().kind != "HATHAT":
        return XSD_STRING
    cursor.next()
    dtok = cursor.next()
    if dtok.kind == "IRI":
        return make_iri(dtok.text).value
    if dtok.kind == "PNAME":
        return _iri_from_pname(cursor, dtok).value
    raise cursor.error(dtok, "expected datatype after ^^")


def read_term(cursor: TokenCursor) -> PatternTerm:
    """One term: IRI, prefixed name, variable, typed string, or number.

    A term the lexeme spells but the model rejects (a malformed IRI, a
    number out of range) is a syntax error at the term.
    """
    tok = cursor.next()
    try:
        if tok.kind == "IRI":
            return make_iri(tok.text)
        if tok.kind == "PNAME":
            return _iri_from_pname(cursor, tok)
        if tok.kind == "VAR":
            return Variable(tok.text)
        if tok.kind == "NUMBER":
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                return make_numeric(float(tok.text))
            try:
                value = int(tok.text)
            except ValueError:  # more digits than int() converts
                raise cursor.error(tok, "integer out of range") from None
            return make_numeric(value, datatype=XSD_LONG)
        if tok.kind == "STRING":
            return Literal(tok.text, _datatype(cursor))
    except GrammarError:
        raise
    except ValueError as exc:
        raise cursor.error(tok, str(exc)) from None
    if tok.kind == "BLANK":
        raise cursor.error(tok, f"blank node {tok.text} in a rule or query")
    raise cursor.error(tok, f"expected a term, found {tok.text or tok.kind!r}")


def read_pattern(cursor: TokenCursor) -> TriplePattern:
    """Three terms forming one triple pattern."""
    s = read_term(cursor)
    p = read_term(cursor)
    o = read_term(cursor)
    try:
        return TriplePattern(s, p, o)
    except ValueError as exc:
        raise cursor.error(cursor.peek(), str(exc)) from None


def parse_text(text: str, read: Callable[[TokenCursor], _T], error: type[GrammarError]) -> _T:
    """read over all of text's tokens; every syntax error is raised as error."""
    try:
        cursor = TokenCursor(tokenize(text))
        result = read(cursor)
        eof = cursor.peek()
        if eof.kind != "EOF":
            raise cursor.error(eof, f"unexpected {eof.text!r}")
        return result
    except GrammarError as exc:
        raise error(exc.line, exc.col, exc.reason) from None
