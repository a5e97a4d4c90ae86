"""Shared lexer and term reader for the rule-pack and query grammars.

Both grammars use the same term lexemes: ``<absolute-iri>``, ``prefix:name``
(registered prefixes only), ``?var``, ``"lexical"^^datatype`` and bare
numbers.  Positions are tracked as (line, column), 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Literal,
    MalformedIri,
    PREFIXES,
    Term,
    UNESCAPES,
    XSD_LONG,
    XSD_STRING,
    make_iri,
    make_numeric,
)
from .store import PatternTerm, TriplePattern, Variable


class GrammarError(ValueError):
    """Syntax error with a 1-based (line, column) position."""

    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"{reason} at line {line}, column {col}")
        self.line = line
        self.col = col
        self.reason = reason


@dataclass(frozen=True)
class Token:
    kind: str  # NAME PNAME IRI VAR NUMBER STRING HATHAT DOT COLON LBRACE RBRACE OP EOF
    text: str
    line: int
    col: int


_OP_CHARS = {"<", ">", "=", "!"}
_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-:")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def err(reason: str) -> GrammarError:
        return GrammarError(line, col, reason)

    while i < n:
        c = text[i]
        if c.isspace():
            advance()
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        tline, tcol = line, col
        if c == "{":
            tokens.append(Token("LBRACE", "{", tline, tcol))
            advance()
            continue
        if c == "}":
            tokens.append(Token("RBRACE", "}", tline, tcol))
            advance()
            continue
        if c == "<":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token("OP", "<=", tline, tcol))
                advance(2)
                continue
            # an IRI iff a '>' closes it before any whitespace
            j = i + 1
            while j < n and not text[j].isspace() and text[j] != ">":
                j += 1
            if j < n and text[j] == ">":
                tokens.append(Token("IRI", text[i + 1 : j], tline, tcol))
                advance(j - i + 1)
                continue
            tokens.append(Token("OP", "<", tline, tcol))
            advance()
            continue
        if c == ">":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token("OP", ">=", tline, tcol))
                advance(2)
                continue
            tokens.append(Token("OP", ">", tline, tcol))
            advance()
            continue
        if c == "=":
            tokens.append(Token("OP", "=", tline, tcol))
            advance()
            continue
        if c == "!":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token("OP", "!=", tline, tcol))
                advance(2)
                continue
            raise err("lone '!'")
        if c == "?":
            advance()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise err("empty variable name")
            tokens.append(Token("VAR", text[i:j], tline, tcol))
            advance(j - i)
            continue
        if c == '"':
            advance()
            out: list[str] = []
            while True:
                if i >= n:
                    raise err("unterminated string literal")
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n:
                        raise err("dangling escape")
                    esc = text[i + 1]
                    mapped = UNESCAPES.get(esc)
                    if mapped is None:
                        raise err(f"unknown escape \\{esc}")
                    out.append(mapped)
                    advance(2)
                    continue
                if ch == '"':
                    advance()
                    break
                out.append(ch)
                advance()
            tokens.append(Token("STRING", "".join(out), tline, tcol))
            continue
        if c == "^":
            if i + 1 < n and text[i + 1] == "^":
                tokens.append(Token("HATHAT", "^^", tline, tcol))
                advance(2)
                continue
            raise err("lone '^'")
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            seen_exp = False
            while j < n:
                ch = text[j]
                if ch.isdigit():
                    j += 1
                elif ch == "." and not seen_dot and not seen_exp and j + 1 < n and text[j + 1].isdigit():
                    seen_dot = True
                    j += 1
                elif ch in "eE" and not seen_exp and j + 1 < n and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    seen_exp = True
                    j += 1
                    if text[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token("NUMBER", text[i:j], tline, tcol))
            advance(j - i)
            continue
        if c == ".":
            tokens.append(Token("DOT", ".", tline, tcol))
            advance()
            continue
        if c == ":":
            tokens.append(Token("COLON", ":", tline, tcol))
            advance()
            continue
        if c in _WORD_CHARS:
            j = i
            while j < n and text[j] in _WORD_CHARS:
                j += 1
            word = text[i:j]
            kind = "PNAME" if ":" in word else "NAME"
            tokens.append(Token(kind, word, tline, tcol))
            advance(j - i)
            continue
        raise err(f"unexpected character {c!r}")
    tokens.append(Token("EOF", "", line, col))
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

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(tok, f"expected {want}, found {tok.text or tok.kind!r}")
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
    try:
        return make_iri(tok.text)
    except MalformedIri as exc:
        raise cursor.error(tok, str(exc)) from None


def read_term(cursor: TokenCursor) -> PatternTerm:
    """One term: IRI, prefixed name, variable, typed string, or number."""
    tok = cursor.next()
    if tok.kind == "IRI":
        try:
            return make_iri(tok.text)
        except MalformedIri as exc:
            raise cursor.error(tok, str(exc)) from None
    if tok.kind == "PNAME":
        return _iri_from_pname(cursor, tok)
    if tok.kind == "VAR":
        return Variable(tok.text)
    if tok.kind == "NUMBER":
        if "." in tok.text or "e" in tok.text or "E" in tok.text:
            return make_numeric(float(tok.text))
        return make_numeric(int(tok.text), datatype=XSD_LONG)
    if tok.kind == "STRING":
        if cursor.peek().kind == "HATHAT":
            cursor.next()
            dtok = cursor.next()
            if dtok.kind == "IRI":
                datatype = make_iri(dtok.text).value
            elif dtok.kind == "PNAME":
                datatype = _iri_from_pname(cursor, dtok).value
            else:
                raise cursor.error(dtok, "expected datatype after ^^")
            try:
                return Literal(tok.text, datatype)
            except ValueError as exc:
                raise cursor.error(tok, str(exc)) from None
        return Literal(tok.text, XSD_STRING)
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
