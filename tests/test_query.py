import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from knotgate.model import Iri, Literal, Triple, XSD_DOUBLE, XSD_STRING, make_iri, serialize_term
from knotgate.query import (
    Query,
    QuerySyntaxError,
    UnsafeQuery,
    evaluate_query,
    parse_query,
    prepare_query,
)
import knotgate.query as query_module
import knotgate.store as store_module
from knotgate.store import Asserted, Inferred, Loaded, Store, TriplePattern, Variable

from generators import Vocab, compiled_steps, query_text, rand_query
from oracles import oracle_alias_classes, oracle_query


def test_parse_remedy_query():
    q = parse_query("SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }")
    assert q.select == ("r",)
    assert len(q.patterns) == 1
    assert q.filters == ()
    assert q.limit is None
    assert q.patterns[0].subject == make_iri("m3:Fever")


def test_parse_unsafe_query():
    with pytest.raises(UnsafeQuery) as err:
        parse_query("SELECT ?x WHERE { ?y rdf:type ssn:Sensor }")
    assert err.value.variable == "x"


def test_parse_filter_and_limit():
    q = parse_query("SELECT ?o ?v WHERE { ?o ssn:observationResult ?v } FILTER ?v > 38.0 LIMIT 10")
    assert q.select == ("o", "v")
    assert len(q.filters) == 1
    assert q.filters[0].op == ">"
    assert q.limit == 10


def test_parse_syntax_error_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT ?x WHERE ?x rdf:type ssn:Sensor }")
    assert err.value.line == 1


@pytest.mark.parametrize("number", ["1e+", "1e-", "2²", "7E"])
def test_malformed_number_is_a_positioned_syntax_error(number):
    text = f"SELECT ?v WHERE {{ ?o ssn:observationResult ?v }}\nFILTER ?v > {number}"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert (err.value.line, err.value.col) == (2, len("FILTER ?v > ") + 1)


def test_number_out_of_range_is_a_positioned_syntax_error():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT ?o WHERE { ?o ssn:observationResult 1e999 }")
    assert (err.value.line, err.value.col) == (1, 44)


def test_a_limit_of_more_digits_than_int_reads_is_a_positioned_syntax_error():
    text = "SELECT ?o WHERE { ?o ?p ?x } LIMIT " + "9" * 5000
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert (err.value.line, err.value.col) == (1, text.index("9") + 1)


def test_an_integer_term_of_more_digits_than_int_reads_is_out_of_range_at_its_position():
    text = "SELECT ?o WHERE { ?o ?p " + "9" * 5000 + " }"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert (err.value.line, err.value.col) == (1, text.index("9") + 1)
    assert err.value.reason == "integer out of range"


def test_parse_unsafe_filter_variable():
    with pytest.raises(UnsafeQuery):
        parse_query("SELECT ?o WHERE { ?o rdf:type ssn:Sensor } FILTER ?v > 1")


def test_presumed_bound_variables_are_safe():
    q = parse_query("SELECT ?s ?r WHERE { ?s m3:hasRemedy ?r }", presumed_bound=frozenset({"s"}))
    assert q.select == ("s", "r")


def test_query_on_empty_store():
    q = parse_query("SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }")
    table = evaluate_query(q, Store())
    assert table.rows == []


def test_remedy_fixture_rows(remedies_pack_text):
    store = Store()
    store.load_pack(remedies_pack_text, "remedies")
    q = parse_query("SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }")
    table = evaluate_query(q, store)
    assert table.columns == ("r",)
    assert [serialize_term(t) for row in table.rows for t in row] == [
        "<urn:knotgate:m3#ColdCompress>",
        "<urn:knotgate:m3#GingerTea>",
        "<urn:knotgate:m3#Hydration>",
    ]


ALIAS = "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n"


def remedy_rows(store: Store) -> list:
    return evaluate_query(parse_query("SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }"), store).rows


def test_alias_stated_after_the_data_it_renames(remedies_pack_text):
    store = Store()
    store.load_pack(remedies_pack_text, "remedies")
    store.load_pack(ALIAS, "alias")
    assert len(remedy_rows(store)) == 3


def test_alias_retract_serves_the_stated_forms_again(remedies_pack_text):
    store = Store()
    store.load_pack(ALIAS, "alias")
    store.load_pack(remedies_pack_text, "remedies")
    store.retract(Loaded("alias"))
    assert len(remedy_rows(store)) == 3
    has_remedy = TriplePattern(Variable("s"), make_iri("m3:hasRemedy"), Variable("r"))
    assert {s for s, _ in store.match(has_remedy)} == {make_iri("m3:Fever")}


def test_join_on_shared_variable():
    store = Store()
    p1, p2 = Iri("urn:rel:a"), Iri("urn:rel:b")
    store.insert(Triple(Iri("urn:n:1"), p1, Iri("urn:n:2")), Loaded("seed"))
    store.insert(Triple(Iri("urn:n:2"), p2, Iri("urn:n:3")), Loaded("seed"))
    q = Query(
        ("x", "z"),
        (
            TriplePattern(Variable("x"), p1, Variable("y")),
            TriplePattern(Variable("y"), p2, Variable("z")),
        ),
        (),
    )
    table = evaluate_query(q, store)
    assert table.rows == [(Iri("urn:n:1"), Iri("urn:n:3"))]


def test_filter_excludes_non_numeric_rows():
    store = Store()
    pred = Iri("urn:rel:v")
    store.insert(Triple(Iri("urn:n:1"), pred, Literal("39", XSD_DOUBLE)), Loaded("seed"))
    store.insert(Triple(Iri("urn:n:2"), pred, Literal("high", XSD_STRING)), Loaded("seed"))
    q = parse_query("SELECT ?o WHERE { ?o <urn:rel:v> ?v } FILTER ?v > 38")
    table = evaluate_query(q, store)
    assert table.rows == [(Iri("urn:n:1"),)]


def test_500_random_instances_match_nested_loop_oracle():
    rng = random.Random(16)
    for _ in range(500):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 100))
        query = rand_query(rng, vocab)
        unlimited = Query(query.select, query.patterns, query.filters, None)
        expected = oracle_query(list(store), unlimited)
        got = evaluate_query(unlimited, store)
        assert set(got.rows) == expected
        assert len(got.rows) == len(expected)  # distinct rows


def test_pattern_order_invariance():
    rng = random.Random(17)
    for _ in range(100):
        vocab = Vocab(rng)
        store, _ = vocab.store(rng.randint(0, 60))
        query = rand_query(rng, vocab)
        if len(query.patterns) < 2:
            continue
        permuted = list(query.patterns)
        rng.shuffle(permuted)
        q1 = Query(query.select, query.patterns, query.filters, None)
        q2 = Query(query.select, tuple(permuted), query.filters, None)
        assert evaluate_query(q1, store).rows == evaluate_query(q2, store).rows


def test_limit_is_prefix_of_sorted_result():
    rng = random.Random(18)
    for _ in range(100):
        vocab = Vocab(rng)
        store, _ = vocab.store(rng.randint(0, 60))
        query = rand_query(rng, vocab)
        k = rng.randint(1, 5)
        full = evaluate_query(Query(query.select, query.patterns, query.filters, None), store)
        limited = evaluate_query(Query(query.select, query.patterns, query.filters, k), store)
        assert limited.rows == full.rows[:k]


def _serialized(row: tuple) -> tuple[str, ...]:
    return tuple(serialize_term(t) for t in row)


def _oracle_case(seed: int, alias: bool):
    """A random store and query, with one m3:equivalentTo alias between two
    subjects when alias is set, and the query's patterns in the canonical
    form the store serves (what oracle_query must match against).  None when
    a variable predicate would bind the equivalence statement's verbatim terms."""
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store, _ = vocab.store(rng.randint(0, 60))
    query = rand_query(rng, vocab)
    classes: dict[str, str] = {}
    if alias:
        if any(isinstance(p.predicate, Variable) for p in query.patterns):
            return None
        a, b = rng.sample(vocab.subjects, 2)
        store.insert(Triple(a, make_iri("m3:equivalentTo"), b), Loaded("alias"))
        classes = oracle_alias_classes([(a.value, b.value)])

    def canon(term):
        return Iri(classes.get(term.value, term.value)) if isinstance(term, Iri) else term

    patterns = tuple(
        TriplePattern(*(p if isinstance(p, Variable) else canon(p) for p in pattern.positions()))
        for pattern in query.patterns
    )
    return rng, store, query, patterns


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), alias=st.booleans())
@settings(max_examples=300, deadline=None)
def test_limit_rows_are_the_sorted_oracle_rows_cut(seed, alias):
    case = _oracle_case(seed, alias)
    if case is None:
        return
    rng, store, query, patterns = case
    full = oracle_query(list(store), Query(query.select, patterns, query.filters, None))
    k = rng.randint(1, 8)
    got = evaluate_query(Query(query.select, query.patterns, query.filters, k), store)
    assert got.rows == sorted(full, key=_serialized)[:k]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alias=st.booleans(),
    width=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_unlimited_rows_are_the_sorted_oracle_rows(seed, alias, width):
    case = _oracle_case(seed, alias)
    if case is None:
        return
    rng, store, query, patterns = case
    # 1-3 columns: the pattern variables in random order, repeated when the
    # width exceeds them (SELECT ?x ?x)
    names = sorted(query.pattern_variables())
    rng.shuffle(names)
    select = tuple((names * 3)[:width])
    full = oracle_query(list(store), Query(select, patterns, query.filters, None))
    got = evaluate_query(Query(select, query.patterns, query.filters, None), store)
    assert got.rows == sorted(full, key=_serialized)


@given(
    edges=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 6)), max_size=30),
    width=st.integers(min_value=1, max_value=3),
    limit=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_limit_selection_equals_a_full_sort_cut(edges, width, limit):
    # three subjects, so many rows tie on the first column; LIMIT runs
    # from 1 to beyond the row count (at most 30)
    store = Store()
    for s, p, o in edges:
        obj = Iri(f"urn:t:o{o}") if o % 2 else Literal(str(o), XSD_DOUBLE)
        store.insert(Triple(Iri(f"urn:t:s{s}"), Iri(f"urn:t:p{p}"), obj), Loaded("t"))
    select = ("s", "o", "p")[:width]
    patterns = (TriplePattern(Variable("s"), Variable("p"), Variable("o")),)
    full = sorted(oracle_query(list(store), Query(select, patterns, ())), key=_serialized)
    assert evaluate_query(Query(select, patterns, (), limit), store).rows == full[:limit]


@given(
    edges=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 3)), max_size=40),
    select=st.lists(st.sampled_from("xyz"), min_size=1, max_size=4),
    bound=st.lists(st.sampled_from("xyz"), unique=True, max_size=2),
    limit=st.none() | st.integers(min_value=1, max_value=70),
    alias=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_rows_are_the_sorted_oracle_rows_whether_or_not_a_select_can_repeat_one(
    edges, select, bound, limit, alias, data
):
    # ?x p0 ?y . ?y p1 ?z over four nodes.  A select that keeps every
    # variable not prebound reads rows that are distinct as joined; one that
    # drops ?y meets one row per path between the same ends, so rows repeat.
    # Few values per column tie under LIMIT, which runs past the row count.
    nodes = [Iri(f"urn:t:n{i}") for i in range(4)]
    p0, p1 = Iri("urn:t:p0"), Iri("urn:t:p1")
    store = Store()
    for s, p, o in edges:
        store.insert(Triple(nodes[s], (p0, p1)[p], nodes[o]), Loaded("t"))
    if alias:  # n1 serves for n3
        store.insert(Triple(nodes[3], make_iri("m3:equivalentTo"), nodes[1]), Loaded("alias"))
    patterns = (
        TriplePattern(Variable("x"), p0, Variable("y")),
        TriplePattern(Variable("y"), p1, Variable("z")),
    )
    full = oracle_query(list(store), Query(("x", "y", "z"), patterns, ()))
    served = nodes[:3] if alias else nodes
    bindings = {name: data.draw(st.sampled_from(served)) for name in bound}
    rows = {
        tuple(row["xyz".index(name)] for name in select)
        for row in full
        if all(row["xyz".index(name)] is term for name, term in bindings.items())
    }
    got = evaluate_query(Query(tuple(select), patterns, (), limit), store, bindings)
    assert got.rows == sorted(rows, key=_serialized)[:limit]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), alias=st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_query_prepared_as_a_lookup_compiles_no_step_when_evaluated(seed, alias):
    # a composition binds some of the lookup's variables, and may bind one it does not use
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store, _ = vocab.store(rng.randint(0, 40))
    if alias:
        a, b = rng.sample(vocab.subjects, 2)
        store.insert(Triple(a, make_iri("m3:equivalentTo"), b), Loaded("alias"))
    query = rand_query(rng, vocab)
    names = sorted(query.pattern_variables()) + ["w"]
    names = rng.sample(names, rng.randint(0, len(names)))
    bindings = {name: rng.choice(vocab.subjects + vocab.objects) for name in names}
    prepare_query(query, tuple(names))
    prepared = compiled_steps(query.patterns)
    assert prepared
    evaluate_query(query, store, bindings)
    assert compiled_steps(query.patterns) == prepared


def test_rows_sorted_by_serialized_terms():
    rng = random.Random(19)
    vocab = Vocab(rng)
    store, _ = vocab.store(80)
    q = Query(("s", "o"), (TriplePattern(Variable("s"), vocab.predicates[0], Variable("o")),), ())
    rows = evaluate_query(q, store).rows
    keys = [tuple(serialize_term(t) for t in row) for row in rows]
    assert keys == sorted(keys)


def test_monotonicity_without_filters():
    rng = random.Random(20)
    for _ in range(50):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 40))
        query = rand_query(rng, vocab)
        if query.filters:
            continue
        unlimited = Query(query.select, query.patterns, (), None)
        before = set(evaluate_query(unlimited, store).rows)
        for _ in range(10):
            store.insert(vocab.triple(), Loaded("extra"))
        after = set(evaluate_query(unlimited, store).rows)
        assert before <= after


def test_prebound_evaluation():
    store = Store()
    store.load_pack(
        "<urn:knotgate:m3#Fever> <urn:knotgate:m3#hasRemedy> <urn:knotgate:m3#GingerTea> .\n"
        "<urn:knotgate:m3#Chill> <urn:knotgate:m3#hasRemedy> <urn:knotgate:m3#Blanket> .\n",
        "remedies",
    )
    q = parse_query("SELECT ?r WHERE { ?s m3:hasRemedy ?r }", presumed_bound=frozenset({"s"}))
    table = evaluate_query(q, store, bindings={"s": make_iri("m3:Fever")})
    assert table.rows == [(make_iri("m3:GingerTea"),)]


def test_query_reads_one_snapshot_while_writer_commits(monkeypatch):
    o1, a, b, x = (Iri(f"urn:t:{name}") for name in ("o1", "a", "b", "X"))
    five, six = Literal("5", XSD_DOUBLE), Literal("6", XSD_DOUBLE)
    store = Store()
    store.insert(Triple(o1, a, x), Loaded("old"))
    store.insert(Triple(o1, b, five), Loaded("old"))

    def write() -> None:
        store.retract(Loaded("old"))
        store.insert(Triple(o1, b, six), Asserted("urn:dev:1"))

    writer = threading.Thread(target=write)
    original = store_module._step

    def step(pattern, kind, names):
        run = original(pattern, kind, names)

        def hooked(store, bindings, among, exclude):
            # the join's second step, run on the binding of ?o to o1 (its
            # tuple holds ?o in the slot names gives): let the writer
            # commit between the two patterns
            bound = "o" in names and any(x[names.index("o")] is o1 for x in bindings)
            if kind == "join" and bound and writer.ident is None:
                writer.start()
                writer.join(timeout=0.2)
            return run(store, bindings, among, exclude)

        return hooked

    monkeypatch.setattr(store_module, "_step", step)
    q = parse_query("SELECT ?o ?v WHERE { ?o <urn:t:a> <urn:t:X> . ?o <urn:t:b> ?v }")
    rows = evaluate_query(q, store).rows
    assert writer.ident is not None  # the writer ran mid-join
    writer.join(timeout=5)
    assert not writer.is_alive()
    # the state before the writer ran, or the state after it: never a mix
    assert rows in ([(o1, five)], [])
    assert list(store) == [Triple(o1, b, six)]


# -- prepared queries ----------------------------------------------------------


def test_a_text_is_parsed_once_per_presumed_bound_set():
    text = "SELECT ?s ?r WHERE { ?s m3:hasRemedy ?r }"
    assert parse_query(text) is parse_query(text)
    # a plain set keys as the frozenset of its names
    assert parse_query(text, {"s"}) is parse_query(text, frozenset({"s"}))
    assert parse_query(text, {"s"}) is not parse_query(text)


def test_a_syntax_error_is_raised_at_its_position_on_every_call():
    size = query_module._prepare.cache_info().currsize
    positions = []
    for _ in range(3):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT ?x WHERE { ?x rdf:type }")
        positions.append((err.value.line, err.value.col))
    assert positions == [positions[0]] * 3
    assert query_module._prepare.cache_info().currsize == size  # errors are not kept


def test_a_text_prepared_with_presumed_bound_is_unsafe_without_it():
    text = "SELECT ?s ?r WHERE { ?p m3:hasRemedy ?r }"  # ?s only a composition can bind
    assert parse_query(text, presumed_bound=frozenset({"s"})).select == ("s", "r")
    for _ in range(2):
        with pytest.raises(UnsafeQuery) as err:
            parse_query(text)
        assert err.value.variable == "s"


def test_prepared_queries_are_bounded_in_number_and_text_length(remedies_pack_text):
    texts = [f"SELECT ?r WHERE {{ <urn:t:s{i}> <urn:t:p> ?r }}" for i in range(query_module.PREPARED_QUERIES + 10)]
    first = parse_query(texts[0])
    for text in texts:
        parse_query(text)
    assert query_module._prepare.cache_info().currsize <= query_module.PREPARED_QUERIES
    assert parse_query(texts[0]) is not first  # evicted, so parsed afresh

    store = Store()
    store.load_pack(remedies_pack_text, "remedies")
    text = "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }" + " " * query_module.PREPARED_TEXT_MAX
    size = query_module._prepare.cache_info().currsize
    long, again = parse_query(text), parse_query(text)
    assert long is not again and long == again
    assert query_module._prepare.cache_info().currsize == size
    expected = sorted(oracle_query(list(store), long), key=_serialized)
    assert len(expected) == 3
    assert evaluate_query(long, store).rows == evaluate_query(again, store).rows == expected


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_prepared_query_follows_the_store_between_calls(seed):
    # one prepared query, evaluated with and without prebound variables
    # after every change to the store: inserts stated and inferred, an alias
    # stated and retracted, and the inferred triples retracted.  Its plans,
    # built on earlier calls, must hold nothing of the store or alias map.
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store, _ = vocab.store(rng.randint(0, 30))
    query = parse_query(query_text(rand_query(rng, vocab)))
    names = sorted(query.pattern_variables())
    aliasable = not any(isinstance(p.predicate, Variable) for p in query.patterns)
    alias: tuple[Iri, Iri] | None = None
    for _ in range(8):
        step = rng.choice(["asserted", "inferred", "alias", "retract"])
        if step == "asserted":
            for t in vocab.graph(rng.randint(1, 6)):
                store.insert(t, Asserted("urn:dev:1"))
        elif step == "inferred":
            for t in vocab.graph(rng.randint(1, 6)):
                store.insert(t, Inferred("r1"))
        elif step == "alias" and aliasable and alias is None:
            alias = tuple(rng.sample(vocab.subjects, 2))
            store.insert(Triple(alias[0], make_iri("m3:equivalentTo"), alias[1]), Loaded("alias"))
        elif step == "alias" and alias is not None:
            store.retract(Loaded("alias"))
            alias = None
        else:
            store.retract(Inferred)
        classes = oracle_alias_classes([(alias[0].value, alias[1].value)]) if alias else {}

        def canon(term):
            return Iri(classes.get(term.value, term.value)) if isinstance(term, Iri) else term

        patterns = tuple(
            TriplePattern(*(p if isinstance(p, Variable) else canon(p) for p in pattern.positions()))
            for pattern in query.patterns
        )
        full = sorted(oracle_query(list(store), Query(tuple(names), patterns, query.filters)), key=_serialized)
        bound = rng.sample(names, rng.randint(0, len(names)))
        if full and rng.random() < 0.7:
            row = rng.choice(full)
            bindings = {name: row[names.index(name)] for name in bound}
        else:
            bindings = {name: canon(rng.choice(vocab.subjects + vocab.objects)) for name in bound}
        for given_bindings in ({}, bindings):
            rows = {
                tuple(row[names.index(name)] for name in query.select)
                for row in full
                if all(row[names.index(name)] is term for name, term in given_bindings.items())
            }
            got = evaluate_query(query, store, given_bindings)
            assert got.rows == sorted(rows, key=_serialized)[:query.limit]


def test_readers_share_a_prepared_query_while_a_writer_commits():
    # each state the writer commits has every ?o with six too, or none: a
    # join reading two states would give some of them six and not others,
    # or u without six
    a, b, x = Iri("urn:t:a"), Iri("urn:t:b"), Iri("urn:t:X")
    five, six = Literal("5", XSD_DOUBLE), Literal("6", XSD_DOUBLE)
    subjects = [Iri(f"urn:t:o{i}") for i in range(4)]
    store = Store()
    for o in subjects:
        store.insert(Triple(o, a, x), Loaded("base"))
        store.insert(Triple(o, b, five), Loaded("base"))
    pack = "".join(f"{serialize_term(o)} <urn:t:b> {serialize_term(six)} .\n" for o in subjects)
    pack += "<urn:t:u> <urn:t:a> <urn:t:X> .\n<urn:t:u> <urn:t:b> " + serialize_term(six) + " .\n"
    before = sorted([(o, five) for o in subjects], key=_serialized)
    after = sorted(before + [(o, six) for o in subjects] + [(Iri("urn:t:u"), six)], key=_serialized)
    text = "SELECT ?o ?v WHERE { ?o <urn:t:a> <urn:t:X> . ?o <urn:t:b> ?v } # shared by the readers"
    stop = threading.Event()
    results: list[list] = []
    errors: list[BaseException] = []

    def write() -> None:
        while not stop.is_set():  # each state held a moment, so readers see both
            store.load_pack(pack, "six")
            time.sleep(0.0002)
            store.retract(Loaded("six"))
            time.sleep(0.0002)

    def read() -> None:
        try:
            for _ in range(300):
                results.append(evaluate_query(parse_query(text), store).rows)
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(4)]
        writer.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=30)
        stop.set()
        writer.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert errors == []
    assert len(results) == 4 * 300
    assert all(rows in (before, after) for rows in results)
    assert before in results and after in results  # the writer ran meanwhile


def test_a_prepared_query_seeds_from_the_smallest_bucket_of_each_call():
    query = parse_query("SELECT ?o WHERE { ?o <urn:t:b> <urn:t:X> . ?o <urn:t:a> <urn:t:X> }")
    for small in ("a", "b"):  # one triple with the small predicate, three with the other
        store = Store()
        for i in range(4):
            p = Iri(f"urn:t:{small if i == 0 else 'ab'.replace(small, '')}")
            store.insert(Triple(Iri(f"urn:t:o{i}"), p, Iri("urn:t:X")), Loaded("t"))
        assert evaluate_query(query, store).rows == []
    # the a pattern seeded the first call's join, the b pattern the second's
    assert list(query.plans) == [((), 1), ((), 0)]
