"""The rule and query grammars read back what they spell.

Random rule packs and queries are written out as grammar text, token by
token, with random whitespace and ``#`` comment lines between the tokens;
parsing the text must give the same pack or query.
"""

import importlib
import pkgutil
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import knotgate
from knotgate.lexer import GrammarError, tokenize
from knotgate.model import Blank, Literal, XSD_DOUBLE, XSD_LONG, serialize_term
from knotgate.query import parse_query
from knotgate.rules import parse_rulepack
from knotgate.store import Variable

from generators import Vocab, rand_query, rand_rulepack

#: comment text that would be wrong grammar outside a comment
_NOISE = ["", "RULE x : IF", '"open string', "?v > 1e+", "<urn:unclosed", "\\q ^ !"]


def spell(term, rng: random.Random) -> str:
    """One term as grammar text; a number sometimes bare, when that reads back."""
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Literal) and rng.random() < 0.5:
        lexical = term.lexical
        if term.datatype == XSD_LONG and str(int(lexical)) == lexical:
            return lexical
        if term.datatype == XSD_DOUBLE and "." in lexical and repr(float(lexical)) == lexical:
            return lexical
    return serialize_term(term)


def spell_patterns(patterns, rng) -> list[str]:
    out: list[str] = []
    for i, pattern in enumerate(patterns):
        assume(not any(isinstance(t, Blank) for t in pattern.positions()))
        out += (["."] if i else []) + [spell(t, rng) for t in pattern.positions()]
    return out


def spell_guards(guards) -> list[str]:
    out: list[str] = []
    for g in guards:
        assert g.constant.denominator == 1
        out += ["FILTER", f"?{g.variable}", g.op, str(g.constant.numerator)]
    return out


def layout(tokens: list[str], rng: random.Random) -> str:
    """Tokens joined by random whitespace, some of it holding a comment line."""
    gaps = [" ", "\t", "\n", " \n\t ", "\r\n"] + [f"\n# {noise}\n" for noise in _NOISE]
    return tokens[0] + "".join(rng.choice(gaps) + tok for tok in tokens[1:])


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rulepack_text_reads_back(seed):
    rng = random.Random(seed)
    pack = rand_rulepack(rng, Vocab(rng), "gen")
    tokens = ["PACK", pack.pack_id]
    for domain in pack.domains:
        tokens += ["DOMAIN", domain]
    for rule in pack.rules:
        tokens += ["RULE", rule.id, ":", "IF"] + spell_patterns(rule.body, rng)
        tokens += spell_guards(rule.guards)
        tokens += ["THEN"] + spell_patterns(rule.head, rng) + ["."]
    assert parse_rulepack(layout(tokens, rng)) == pack


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_query_text_reads_back(seed):
    rng = random.Random(seed)
    query = rand_query(rng, Vocab(rng))
    tokens = ["SELECT"] + [f"?{name}" for name in query.select] + ["WHERE", "{"]
    tokens += spell_patterns(query.patterns, rng) + ["}"] + spell_guards(query.filters)
    if query.limit is not None:
        tokens += ["LIMIT", str(query.limit)]
    assert parse_query(layout(tokens, rng)) == query


def test_tokens_carry_line_and_column_across_strings_and_comments():
    text = 'PACK p # note\n  ?v "two\nlines" <=<urn:a> _:b\n.'
    got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    assert got == [
        ("NAME", "PACK", 1, 1),
        ("NAME", "p", 1, 6),
        ("VAR", "v", 2, 3),
        ("STRING", "two\nlines", 2, 6),
        ("OP", "<=", 3, 8),
        ("IRI", "urn:a", 3, 10),
        ("BLANK", "_:b", 3, 18),
        ("DOT", ".", 4, 1),
        ("EOF", "", 4, 2),
    ]


@pytest.mark.parametrize(
    "text, position",
    [
        ('"a\n\\q"', (2, 1)),  # unknown escape, on the line it stands on
        ('x "ab', (1, 6)),  # unterminated: at the end of the text
        ('"ab\\', (1, 4)),  # dangling escape: at the backslash
        ("x ?", (1, 4)),  # empty variable name: where the name should start
        ("1 2e+5 3e", (1, 8)),
    ],
)
def test_lexer_errors_are_positioned(text, position):
    with pytest.raises(GrammarError) as err:
        tokenize(text)
    assert (err.value.line, err.value.col) == position


def _opcodes(node):
    """Every opcode name in a parsed pattern, nested groups included."""
    if hasattr(node, "data"):  # a parsed (sub)pattern: (opcode, argument) pairs
        for op, arg in node.data:
            yield str(op)
            yield from _opcodes(arg)
    elif isinstance(node, (list, tuple)):
        for part in node:
            yield from _opcodes(part)


def test_patterns_use_no_regex_syntax_newer_than_python_3_10():
    # pyproject allows Python 3.10, whose re module has no atomic groups or
    # possessive quantifiers: a pattern with either fails at import there
    parser = pytest.importorskip("re._parser")
    patterns = [
        value
        for info in pkgutil.iter_modules(knotgate.__path__)
        if info.name != "__main__"  # importing it runs the CLI
        for value in vars(importlib.import_module(f"knotgate.{info.name}")).values()
        if isinstance(value, re.Pattern)
    ]
    assert patterns
    for pattern in patterns:
        found = set(_opcodes(parser.parse(pattern.pattern, pattern.flags)))
        assert not found & {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}, pattern.pattern
