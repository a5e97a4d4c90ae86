import copy
import gc
import pickle
import random
import re
import sys
import threading
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from knotgate import model
from knotgate.annotation import Annotator, RawReading, SensorRegistration, SensorRegistry
from knotgate.gateway import InvalidTarget, MqttTopic
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
    parse_triples,
    serialize_term,
    serialize_triples,
)
from knotgate.query import parse_query
from knotgate.rules import parse_rulepack

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
    assert Literal("38.0", XSD_DOUBLE).ratio == Literal("38", XSD_DOUBLE).ratio == (38, 1)
    assert Literal("hello", XSD_STRING).ratio is None
    assert Iri("urn:a:b").ratio is None


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


# -- hash-consing ------------------------------------------------------------------

_IRI_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), blacklist_characters="<>")
IRI_VALUES = st.text(_IRI_CHARS, max_size=12).map(lambda s: "urn:" + s)
LABELS = st.text("abcXYZ019_", min_size=1, max_size=6)
LEXICALS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False))


def _fresh(text: str) -> str:
    """An equal string that is, where CPython allows, another object."""
    return (text + "!")[:-1]


def _routes(term) -> list:
    """The term rebuilt from its value by every route that builds terms."""
    out = [copy.copy(term), copy.deepcopy(term)]
    out += [pickle.loads(pickle.dumps(term, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    if isinstance(term, Iri):
        out += [Iri(_fresh(term.value)), make_iri(_fresh(term.value))]
    elif isinstance(term, Literal):
        out.append(Literal(_fresh(term.lexical), _fresh(term.datatype)))
    else:
        out.append(Blank(_fresh(term.label)))
    subject = term if not isinstance(term, Literal) else Iri("urn:s")
    predicate = term if isinstance(term, Iri) else Iri("urn:p")
    triple = Triple(subject, predicate, term)
    (parsed,) = parse_triples(serialize_triples([triple]))
    out += [parsed.object, copy.deepcopy(triple).object, pickle.loads(pickle.dumps(triple)).object]
    if not isinstance(term, Blank):
        # the rule and query lexer spells every IRI and literal as the line format does
        atom = f"?s {serialize_term(predicate)} {serialize_term(term)}"
        rule = parse_rulepack(f"PACK p RULE r : IF {atom} THEN {atom} .").rules[0]
        out += [parse_query(f"SELECT ?s WHERE {{ {atom} }}").patterns[0].object, rule.head[0].object]
    return out


@given(st.one_of(
    IRI_VALUES.map(Iri),
    st.builds(Literal, LEXICALS, st.sampled_from([XSD_STRING, "urn:dt"])),
    NUMBERS.map(make_numeric),
    st.integers(-10**6, 10**6).map(lambda n: make_numeric(n, XSD_LONG)),
    LABELS.map(Blank),
))
def test_equal_values_give_the_same_object_on_every_route(term):
    for other in _routes(term):
        assert other is term
        assert other == term and hash(other) == hash(term)


@given(NUMBERS, st.integers(0, 10**9))
def test_make_numeric_and_the_lexer_share_literals(value, seq):
    lit = make_numeric(value)
    assert lit is Literal(_fresh(lit.lexical), XSD_DOUBLE)
    spelled = lit.lexical if "." in lit.lexical or "e" in lit.lexical else lit.lexical + ".0"
    query = parse_query(f"SELECT ?o WHERE {{ ?o <urn:p> {spelled} }}")
    assert query.patterns[0].object is lit
    long = make_numeric(seq, XSD_LONG)
    assert parse_query(f"SELECT ?o WHERE {{ ?o <urn:p> {seq} }}").patterns[0].object is long


def test_annotated_observations_share_terms_with_every_other_route():
    registry = SensorRegistry()
    registry.register(SensorRegistration.from_strings("t1", "m3:BodyTemperature", "m3:Patient", "unit:DegreeCelsius"))
    reading = RawReading("t1", "temperature", 38.5, "cel", 1000)
    first, again = Annotator(registry).annotate(reading), Annotator(registry).annotate(reading)
    assert first.observation_iri is again.observation_iri is Iri(_fresh("urn:obs:t1:1"))
    for mine, other in zip(first.triples, again.triples):
        assert (mine.subject, mine.predicate, mine.object) == (other.subject, other.predicate, other.object)
        assert all(a is b for a, b in zip(
            (mine.subject, mine.predicate, mine.object), (other.subject, other.predicate, other.object)))
    assert first.triples[2].object is make_numeric(38.5)
    assert first.triples[5].object is Literal("1000", XSD_LONG)
    assert first.triples[3].object is make_iri("unit:DegreeCelsius")


def test_unequal_values_give_unequal_terms():
    assert Literal("1", XSD_LONG) is not Literal("1", XSD_DOUBLE)
    assert Literal("1.0", XSD_DOUBLE) != Literal("1", XSD_DOUBLE)
    assert Iri("urn:a") != Iri("urn:A")
    assert Blank("a") != Iri("urn:a")
    assert Iri.__eq__ is object.__eq__ and Iri.__hash__ is object.__hash__


def test_terms_are_immutable_and_keep_their_reprs():
    lit = Literal("a\"b", XSD_STRING)
    with pytest.raises(FrozenInstanceError):
        lit.lexical = "c"
    with pytest.raises(FrozenInstanceError):
        del Iri("urn:a").value
    assert repr(Iri("urn:a")) == "Iri(value='urn:a')"
    assert repr(lit) == f"Literal(lexical='a\"b', datatype={XSD_STRING!r})"
    assert repr(Blank("b")) == "Blank(label='b')"
    assert lit.lexeme == serialize_term(lit) == f'"a\\"b"^^<{XSD_STRING}>'


def _run_threads(target, n: int) -> None:
    """n threads of target, more than this machine has cores, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_builds_of_one_iri_give_one_object(monkeypatch):
    # widen the miss path so that threads racing past the table lookup would
    # each mint their own object, were the miss path not serialized
    check = Iri._lexeme

    def slow_check(value):
        time.sleep(0.01)
        return check(value)

    monkeypatch.setattr(Iri, "_lexeme", staticmethod(slow_check))
    value = f"urn:race:{time.monotonic_ns()}"
    start = threading.Barrier(8)
    built: list = []

    def build():
        start.wait(timeout=10)
        built.append(Iri(_fresh(value)))

    _run_threads(build, 8)
    assert len(built) == 8 and all(term is built[0] for term in built)


def test_terms_built_and_dropped_across_threads_stay_one_per_value(monkeypatch):
    # a dying term's entry leaves its table after a pause here, so that other
    # threads mint the value again meanwhile; a removal that took their entry
    # with it would leave two live objects for one value
    forget = Literal._forget

    def slow_forget(ref):
        time.sleep(0.0001)
        forget(ref)

    monkeypatch.setattr(Literal, "_forget", staticmethod(slow_forget))
    values = [f"urn:churn:{time.monotonic_ns()}:{i}" for i in range(4)]
    split: list = []

    def churn():
        for i in range(400):
            held = Literal(values[i % 4], XSD_STRING)  # the others drop theirs meanwhile
            if Literal(_fresh(values[i % 4]), XSD_STRING) is not held:
                split.append(values[i % 4])

    _run_threads(churn, 8)
    assert split == []


def test_an_unreferenced_term_leaves_its_table():
    value = f"urn:gc:{time.monotonic_ns()}"
    term = Iri(value)
    lit = Literal(value, XSD_STRING)
    assert value in model._IRIS and (value, XSD_STRING) in model._LITERALS
    del term, lit
    gc.collect()
    assert value not in model._IRIS and (value, XSD_STRING) not in model._LITERALS
    assert Iri(value).value == value  # and a later build mints it afresh


def test_whitespace_search_agrees_with_isspace_on_every_code_point():
    whitespace = re.compile(r"\s")
    disagree = [cp for cp in range(sys.maxunicode + 1) if bool(whitespace.match(chr(cp))) != chr(cp).isspace()]
    assert disagree == []
    for c in filter(str.isspace, map(chr, range(sys.maxunicode + 1))):
        with pytest.raises(MalformedIri, match="whitespace"):
            Iri(f"urn:a{c}b")
        with pytest.raises(InvalidTarget):
            MqttTopic(f"a{c}b")
    with pytest.raises(MalformedIri, match="angle bracket"):
        Iri("urn:a>b")
    assert MqttTopic("a<b>").topic == "a<b>"
