import random

import pytest
from hypothesis import given, strategies as st

from knotgate.lexer import GrammarError, tokenize
from knotgate.model import (
    Blank,
    InvalidTerm,
    InvalidTriple,
    Iri,
    Literal,
    MalformedIri,
    NonFiniteValue,
    PREFIXES,
    Triple,
    TripleParseError,
    XSD_DOUBLE,
    XSD_LONG,
    XSD_STRING,
    compact_iri,
    expand_prefixed,
    make_iri,
    make_numeric,
    numeric_value,
    parse_triples,
    serialize_term,
    serialize_triples,
)

from generators import rand_graph


def test_make_iri_accepts_valid_absolute():
    assert make_iri("urn:dev:thermo1") == Iri("urn:dev:thermo1")


def test_make_iri_expands_prefix():
    assert make_iri("ssn:Observation") == Iri(PREFIXES["ssn"] + "Observation")


@pytest.mark.parametrize("bad", ["not an iri", "noscheme", "", "urn:has<bracket", "a b:c"])
def test_make_iri_rejects(bad):
    with pytest.raises(MalformedIri):
        make_iri(bad)


def test_expand_prefixed_idempotent():
    once = expand_prefixed("m3:Fever")
    assert expand_prefixed(once) == once
    absolute = "urn:dev:thermo1"
    assert expand_prefixed(absolute) == absolute


def test_compact_round_trip():
    absolute = expand_prefixed("unit:DegreeCelsius")
    assert compact_iri(absolute) == "unit:DegreeCelsius"
    assert compact_iri("urn:dev:x") == "urn:dev:x"


def test_make_numeric_double_shortest_form():
    assert make_numeric(38, XSD_DOUBLE) == Literal("38", XSD_DOUBLE)
    assert make_numeric(39.5) == Literal("39.5", XSD_DOUBLE)
    assert make_numeric(1e16) == Literal("1e+16", XSD_DOUBLE)


def test_make_numeric_long_zero():
    assert make_numeric(0, XSD_LONG) == Literal("0", XSD_LONG)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "38", None])
def test_make_numeric_rejects_non_finite(bad):
    with pytest.raises(NonFiniteValue):
        make_numeric(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_make_numeric_round_trips_through_lexical(value):
    lit = make_numeric(value)
    assert float(lit.lexical) == value


def test_numeric_value_ignores_lexical_form():
    assert numeric_value(Literal("38.0", XSD_DOUBLE)) == numeric_value(Literal("38", XSD_DOUBLE))
    assert numeric_value(Literal("hello", XSD_STRING)) is None
    assert numeric_value(Iri("urn:a:b")) is None


def test_literal_numeric_lexical_validated():
    with pytest.raises(InvalidTerm):
        Literal("abc", XSD_DOUBLE)
    with pytest.raises(InvalidTerm):
        Literal("3.5", XSD_LONG)
    with pytest.raises(InvalidTerm):
        Literal("NaN", XSD_DOUBLE)


def test_blank_label_validated():
    with pytest.raises(InvalidTerm):
        Blank("")
    with pytest.raises(InvalidTerm):
        Blank("no spaces")


def test_triple_positions_validated():
    iri = Iri("urn:a:b")
    lit = Literal("x")
    with pytest.raises(InvalidTriple):
        Triple(lit, iri, iri)
    with pytest.raises(InvalidTriple):
        Triple(iri, Blank("b1"), iri)


def test_parse_empty_document():
    assert parse_triples("") == []
    assert parse_triples("\n# a comment\n\n") == []


def test_parse_single_line():
    line = "<urn:dev:t1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:knotgate:ssn#Sensor> .\n"
    [t] = parse_triples(line)
    assert t == Triple(
        Iri("urn:dev:t1"),
        make_iri("rdf:type"),
        make_iri("ssn:Sensor"),
    )


def test_serialize_empty_and_single():
    assert serialize_triples([]) == ""
    t = Triple(Iri("urn:a:1"), Iri("urn:p:1"), Literal("hi"))
    out = serialize_triples([t])
    assert out.endswith(" .\n")
    assert out.count("\n") == 1


def test_parse_error_reports_first_bad_line():
    doc = "<urn:a:1> <urn:p:1> <urn:o:1> .\nbroken line\n"
    with pytest.raises(TripleParseError) as err:
        parse_triples(doc)
    assert err.value.line == 2


@pytest.mark.parametrize("line, column", [("_:a_:b <urn:o:1> .", 5), ("<urn:s:1> _:a_:b .", 15)])
def test_parse_blank_label_takes_every_label_character(line, column):
    # "_:a_" is one label, so the ":b" after it is where the line goes wrong;
    # a label that gave back its "_" would read a blank node predicate instead
    with pytest.raises(TripleParseError, match=f"at column {column}$"):
        parse_triples(line)


def test_parse_rejects_literal_subject():
    with pytest.raises(TripleParseError):
        parse_triples('"lex"^^<urn:knotgate:x#t> <urn:p:1> <urn:o:1> .')


def test_parse_literal_escapes():
    doc = '<urn:a:1> <urn:p:1> "a\\"b\\\\c\\nd"^^<http://www.w3.org/2001/XMLSchema#string> .'
    [t] = parse_triples(doc)
    assert t.object == Literal('a"b\\c\nd', XSD_STRING)


def test_rule_lexer_unescapes_like_line_format():
    for esc in '\\"nrt':
        [t] = parse_triples(f'<urn:a:1> <urn:p:1> "x\\{esc}y"^^<{XSD_STRING}> .')
        [token, _] = tokenize(f'"x\\{esc}y"')
        assert token.kind == "STRING" and token.text == t.object.lexical
    with pytest.raises(GrammarError, match=r"unknown escape \\q"):
        tokenize('"x\\qy"')
    with pytest.raises(GrammarError, match="dangling escape"):
        tokenize('"x\\')


def test_round_trip_200_random_graphs():
    rng = random.Random(1234)
    for _ in range(200):
        graph = rand_graph(rng)
        again = parse_triples(serialize_triples(graph))
        assert again == graph


@given(st.integers(min_value=-(10**15), max_value=10**15))
def test_round_trip_long_literals(n):
    t = Triple(Iri("urn:a:1"), Iri("urn:p:1"), Literal(str(n), XSD_LONG))
    assert parse_triples(serialize_triples([t])) == [t]


def test_serialize_does_not_mutate_input():
    graph = [Triple(Iri("urn:a:1"), Iri("urn:p:1"), Literal("x"))]
    copy = list(graph)
    serialize_triples(graph)
    assert graph == copy


def test_duplicates_and_order_preserved():
    t1 = Triple(Iri("urn:a:1"), Iri("urn:p:1"), Iri("urn:o:1"))
    t2 = Triple(Iri("urn:a:2"), Iri("urn:p:2"), Iri("urn:o:2"))
    doc = serialize_triples([t2, t1, t2])
    assert parse_triples(doc) == [t2, t1, t2]


def test_sort_key_is_serialized_term():
    terms = [Iri("urn:b:1"), Literal("1", XSD_DOUBLE), Blank("z")]
    keys = [serialize_term(t) for t in terms]
    assert sorted(keys) == sorted(keys)  # comparable strings, no raise
