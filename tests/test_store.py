import ast
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotgate.model import Blank, Iri, Literal, Triple, XSD_DOUBLE, make_iri, serialize_term, serialize_triples
from knotgate.query import Query, evaluate_query, parse_query
from knotgate.rules import _GUARD_FACTORIES, GUARD_OPS, Guard, _guard_source, compile_guards
import knotgate.store as store_module
from knotgate.store import (
    Asserted,
    Inferred,
    InvalidProvenance,
    Loaded,
    Store,
    TriplePattern,
    Variable,
    layout,
)

from generators import Vocab, rand_query, rand_triple
from oracles import oracle_alias_classes, oracle_match, oracle_query

P = Iri("urn:rel:p0")


def triple(s: str, p: str, o: str) -> Triple:
    return Triple(Iri(s), Iri(p), Iri(o))


def test_insert_into_empty_store():
    store = Store()
    t = rand_triple(random.Random(1))
    assert store.insert(t, Asserted("urn:dev:x")) is True
    assert len(store) == 1


def test_duplicate_insert_keeps_first_provenance():
    store = Store()
    t = rand_triple(random.Random(2))
    assert store.insert(t, Asserted("urn:dev:x")) is True
    assert store.insert(t, Inferred("r1")) is False
    assert len(store) == 1
    assert store.provenance(t) == Asserted("urn:dev:x")


def test_insert_sequence_matches_set_oracle():
    rng = random.Random(3)
    pool = [rand_triple(rng) for _ in range(60)]
    store = Store()
    seen = set()
    for _ in range(1000):
        t = rng.choice(pool)
        inserted = store.insert(t, Loaded("seed"))
        assert inserted == (t not in seen)
        seen.add(t)
    assert len(store) == len(seen)
    assert set(store) == seen


def test_provenance_ids_validated():
    with pytest.raises(InvalidProvenance):
        Inferred("")
    with pytest.raises(InvalidProvenance):
        Loaded("")
    with pytest.raises(InvalidProvenance):
        Asserted("")


def test_match_empty_store():
    store = Store()
    pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    assert store.match(pattern) == []


def test_match_fully_concrete():
    store = Store()
    t = triple("urn:a:1", "urn:p:1", "urn:o:1")
    store.insert(t, Asserted("urn:dev:x"))
    [(found, bindings)] = store.match(TriplePattern(t.subject, t.predicate, t.object))
    assert found == t and bindings == {}


def test_match_against_linear_scan_oracle():
    rng = random.Random(4)
    for _ in range(500):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 100))
        pattern = TriplePattern(
            *(
                Variable(rng.choice("xyz")) if rng.random() < 0.5 else pos
                for pos in (
                    rng.choice(vocab.subjects),
                    rng.choice(vocab.predicates),
                    rng.choice(vocab.objects + vocab.subjects),
                )
            )
        )
        expected = {(t, tuple(sorted(b.items()))) for t, b in oracle_match(list(store), pattern)}
        got = {(t, tuple(sorted(b.items()))) for t, b in store.match(pattern)}
        assert got == expected


def test_match_all_variables_returns_whole_store():
    rng = random.Random(5)
    store = Store()
    triples = {rand_triple(rng) for _ in range(30)}
    for t in triples:
        store.insert(t, Loaded("seed"))
    results = store.match(TriplePattern(Variable("s"), Variable("p"), Variable("o")))
    assert {r.triple for r in results} == set(store)


def test_match_deterministic_for_fixed_state():
    rng = random.Random(6)
    store = Store()
    for _ in range(40):
        store.insert(rand_triple(rng), Loaded("seed"))
    pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    assert store.match(pattern) == store.match(pattern)


def test_index_consistency_single_position_patterns():
    rng = random.Random(7)
    vocab = Vocab(rng)
    store, _ = vocab.store(80)
    for t in store:
        v = Variable("v")
        w = Variable("w")
        assert t in {r.triple for r in store.match(TriplePattern(t.subject, v, w))}
        assert t in {r.triple for r in store.match(TriplePattern(v, t.predicate, w))}
        assert t in {r.triple for r in store.match(TriplePattern(v, w, t.object))}


def test_retract_on_clean_store_returns_zero():
    store = Store()
    store.insert(triple("urn:a:1", "urn:p:1", "urn:o:1"), Asserted("urn:dev:x"))
    assert store.retract(Inferred) == 0
    assert len(store) == 1


def test_retract_by_rule_id():
    store = Store()
    for i in range(3):
        store.insert(triple(f"urn:a:{i}", "urn:p:1", "urn:o:1"), Asserted("urn:dev:x"))
    store.insert(triple("urn:i:1", "urn:p:1", "urn:o:1"), Inferred("r1"))
    store.insert(triple("urn:i:2", "urn:p:1", "urn:o:1"), Inferred("r1"))
    assert store.retract(Inferred("r1")) == 2
    assert len(store) == 3
    assert all(isinstance(store.provenance(t), Asserted) for t in store)


def test_retract_matches_filter_oracle():
    rng = random.Random(8)
    for _ in range(50):
        store = Store()
        expected: dict[Triple, object] = {}
        for _ in range(rng.randint(0, 60)):
            t = rand_triple(rng)
            prov = rng.choice(
                [Asserted("urn:dev:x"), Inferred("r1"), Inferred("r2"), Loaded("p1")]
            )
            if store.insert(t, prov):
                expected[t] = prov
        selector = rng.choice([Inferred, Loaded, Asserted, Inferred("r1"), Loaded("p1")])
        if isinstance(selector, type):
            keep = {t: p for t, p in expected.items() if not isinstance(p, selector)}
        else:
            keep = {t: p for t, p in expected.items() if p != selector}
        size_before = len(store)
        removed = store.retract(selector)
        assert removed + len(store) == size_before
        assert store.snapshot() == keep
        # no survivor matches the selector
        pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        for r in store.match(pattern):
            prov = store.provenance(r.triple)
            if isinstance(selector, type):
                assert not isinstance(prov, selector)
            else:
                assert prov != selector


def test_load_pack_empty_document():
    store = Store()
    assert store.load_pack("", "p1") == 0


def test_load_pack_remedy_fixture(remedies_pack_text):
    store = Store()
    assert store.load_pack(remedies_pack_text, "remedies") == 3
    results = store.match(
        TriplePattern(make_iri("m3:Fever"), make_iri("m3:hasRemedy"), Variable("r"))
    )
    assert len(results) == 3


def test_load_pack_all_or_nothing():
    store = Store()
    doc = "<urn:a:1> <urn:p:1> <urn:o:1> .\nbroken\n"
    with pytest.raises(Exception):
        store.load_pack(doc, "bad")
    assert len(store) == 0


def test_load_then_retract_restores_snapshot():
    rng = random.Random(9)
    for _ in range(30):
        store = Store()
        for _ in range(rng.randint(0, 20)):
            store.insert(rand_triple(rng), Asserted("urn:dev:x"))
        before = store.snapshot()
        pack = serialize_triples([rand_triple(rng) for _ in range(rng.randint(0, 15))])
        loaded = store.load_pack(pack, "tmp")
        assert len(store) == len(before) + loaded
        removed = store.retract(Loaded("tmp"))
        assert removed == loaded
        assert store.snapshot() == before


def test_resolve_alias_identity_without_aliases():
    store = Store()
    term = Iri("urn:a:1")
    assert store.resolve_alias(term) == term
    lit = Literal("38", "http://www.w3.org/2001/XMLSchema#double")
    assert store.resolve_alias(lit) == lit


def test_alias_canonicalizes_to_smaller_iri():
    store = Store()
    eq = make_iri("m3:equivalentTo")
    store.insert(Triple(Iri("urn:b:x"), eq, Iri("urn:a:x")), Loaded("links"))
    assert store.resolve_alias(Iri("urn:b:x")) == Iri("urn:a:x")
    assert store.resolve_alias(Iri("urn:a:x")) == Iri("urn:a:x")


def test_alias_chain_matches_union_find_oracle():
    rng = random.Random(10)
    eq = make_iri("m3:equivalentTo")
    for _ in range(50):
        store = Store()
        names = [f"urn:n:{i}" for i in range(rng.randint(2, 12))]
        pairs = [
            (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 15))
        ]
        for a, b in pairs:
            store.insert(Triple(Iri(a), eq, Iri(b)), Loaded("links"))
        expected = oracle_alias_classes(pairs)
        for name in names:
            resolved = store.resolve_alias(Iri(name)).value
            assert resolved == expected.get(name, name)
            # idempotence
            assert store.resolve_alias(Iri(resolved)).value == resolved


def test_insert_canonicalizes_terms():
    store = Store()
    eq = make_iri("m3:equivalentTo")
    store.insert(Triple(Iri("urn:b:x"), eq, Iri("urn:a:x")), Loaded("links"))
    t = triple("urn:b:x", "urn:p:1", "urn:o:1")
    store.insert(t, Asserted("urn:dev:x"))
    stored = [r.triple for r in store.match(TriplePattern(Variable("s"), Iri("urn:p:1"), Variable("o")))]
    assert stored == [triple("urn:a:x", "urn:p:1", "urn:o:1")]
    # matching via either name finds the canonical triple
    assert store.match(TriplePattern(Iri("urn:b:x"), Iri("urn:p:1"), Variable("o")))


def test_canonical_form():
    store = Store()
    eq = make_iri("m3:equivalentTo")
    t = triple("urn:b:x", "urn:p:1", "urn:o:1")
    store.insert(Triple(Iri("urn:a:x"), eq, Iri("urn:a:x")), Loaded("links"))
    assert store.canonical(t) == t  # a class of one IRI is trivial
    store.insert(Triple(Iri("urn:b:x"), eq, Iri("urn:a:x")), Loaded("links"))
    assert store.canonical(t) == triple("urn:a:x", "urn:p:1", "urn:o:1")
    link = Triple(Iri("urn:b:x"), eq, Iri("urn:c:x"))
    assert store.canonical(link) == link  # equivalence statements stay verbatim


def test_alias_statements_stored_verbatim():
    store = Store()
    eq = make_iri("m3:equivalentTo")
    t = Triple(Iri("urn:b:x"), eq, Iri("urn:a:x"))
    store.insert(t, Loaded("links"))
    assert t in store


def test_retract_pack_rebuilds_aliases():
    store = Store()
    eq = make_iri("m3:equivalentTo")
    store.load_pack("<urn:b:x> <urn:knotgate:m3#equivalentTo> <urn:a:x> .\n", "links")
    assert store.resolve_alias(Iri("urn:b:x")) == Iri("urn:a:x")
    store.retract(Loaded("links"))
    assert store.resolve_alias(Iri("urn:b:x")) == Iri("urn:b:x")


def test_load_pack_rebuilds_the_view_at_most_once(monkeypatch):
    store = Store()
    rebuilds = []
    real = store._rebuild

    def counting() -> None:
        rebuilds.append(len(store))
        real()

    monkeypatch.setattr(store, "_rebuild", counting)
    eq = "<urn:knotgate:m3#equivalentTo>"
    store.load_pack("".join(f"<urn:n:b{i}> <urn:p:1> <urn:o:1> .\n" for i in range(5)), "data")
    store.load_pack("<urn:n:x> <urn:p:1> <urn:o:1> .\n", "extra")
    store.retract(Loaded("extra"))
    assert rebuilds == []  # without aliases each triple is served as stated
    links = "".join(f"<urn:n:b{i}> {eq} <urn:n:a{i}> .\n" for i in range(5))
    store.load_pack(links + links, "links")
    assert len(rebuilds) == 1
    served = store.match(TriplePattern(Variable("s"), Iri("urn:p:1"), Variable("o")))
    assert [r.triple.subject for r in served] == [Iri(f"urn:n:a{i}") for i in range(5)]
    store.load_pack(links + f"<urn:n:a0> {eq} <urn:n:a0> .\n", "again")  # no new class
    assert len(rebuilds) == 1
    store.insert(Triple(Iri("urn:n:b5"), make_iri("m3:equivalentTo"), Iri("urn:n:a5")), Loaded("one"))
    assert len(rebuilds) == 2
    store.retract(Loaded("data"))  # with aliases every retract rebuilds
    assert len(rebuilds) == 3
    store.retract(Loaded)
    assert len(rebuilds) == 4 and len(store) == 0
    store.retract(Loaded)  # nothing left to retract
    assert len(rebuilds) == 4


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_served_view_is_independent_of_statement_order(seed):
    # random interleavings of load_pack, insert, retract and equivalence
    # statements; the model is the stated triples in statement order
    rng = random.Random(seed)
    vocab = Vocab(rng)
    eq = make_iri("m3:equivalentTo")
    nodes = vocab.subjects + [o for o in vocab.objects if isinstance(o, Iri)]
    store = Store()
    stated: dict[Triple, object] = {}

    def link() -> Triple:
        return Triple(rng.choice(nodes), eq, rng.choice(nodes))

    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.3:
            pack_id = rng.choice(["p0", "p1"])
            triples = vocab.graph(rng.randint(0, 8)) + [link() for _ in range(rng.randint(0, 2))]
            rng.shuffle(triples)
            store.load_pack(serialize_triples(triples), pack_id)
            for t in triples:
                stated.setdefault(t, Loaded(pack_id))
        elif roll < 0.75:
            t = link() if roll < 0.45 else vocab.triple()
            prov = rng.choice([Asserted("urn:dev:x"), Loaded("p0"), Inferred("r1")])
            store.insert(t, prov)
            stated.setdefault(t, prov)
        else:
            selector = rng.choice([Loaded("p0"), Loaded("p1"), Asserted("urn:dev:x"), Inferred, Loaded])
            store.retract(selector)
            kind = selector if isinstance(selector, type) else None
            stated = {t: p for t, p in stated.items() if not (isinstance(p, kind) if kind else p == selector)}
        classes = oracle_alias_classes([(t.subject.value, t.object.value) for t in stated if t.predicate == eq])

        def canon(term):
            return Iri(classes.get(term.value, term.value)) if isinstance(term, Iri) else term

        served: dict[Triple, object] = {}
        for t, p in stated.items():  # equivalence statements stay verbatim
            key = t if t.predicate == eq else Triple(canon(t.subject), canon(t.predicate), canon(t.object))
            served.setdefault(key, p)
        assert list(store.snapshot().items()) == list(served.items())
        for _ in range(3):
            query = rand_query(rng, vocab)
            if any(isinstance(p.predicate, Variable) for p in query.patterns):
                continue  # would bind the verbatim terms of equivalence statements
            canonical = tuple(
                TriplePattern(*(p if isinstance(p, Variable) else canon(p) for p in pattern.positions()))
                for pattern in query.patterns
            )
            got = evaluate_query(Query(query.select, query.patterns, query.filters, None), store)
            assert set(got.rows) == oracle_query(list(served), Query(query.select, canonical, query.filters, None))
    shuffled = list(stated.items())
    rng.shuffle(shuffled)
    again = Store()
    for t, p in shuffled:
        again.insert(t, p)
    assert set(again) == set(store)


@given(st.sets(st.integers(min_value=0, max_value=30), max_size=30))
@settings(max_examples=50)
def test_set_semantics_property(values):
    store = Store()
    triples = [triple(f"urn:a:{v}", "urn:p:1", "urn:o:1") for v in values]
    for t in triples + triples:
        store.insert(t, Loaded("seed"))
    assert len(store) == len(set(triples))


def test_concurrent_readers_see_consistent_snapshots():
    import threading

    rng = random.Random(22)
    vocab = Vocab(rng)
    store, _ = vocab.store(50)
    pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    errors = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                results = store.match(pattern)
                for r in results:
                    assert r.triple.predicate  # torn state would blow up here
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers:
        t.start()
    for i in range(300):
        store.insert(vocab.triple(), Loaded(f"batch{i % 3}"))
        if i % 50 == 49:
            store.retract(Loaded(f"batch{i % 3}"))
    stop.set()
    for t in readers:
        t.join(timeout=5)
    assert errors == []
    # every index entry still corresponds to a stored triple
    for t in store:
        assert store.match(TriplePattern(t.subject, t.predicate, t.object))


def test_match_repeated_variable():
    store = Store()
    pattern = TriplePattern(Variable("x"), P, Variable("x"))
    same = Triple(Iri("urn:a:1"), P, Iri("urn:a:1"))
    different = Triple(Iri("urn:a:1"), P, Iri("urn:a:2"))
    assert store.match(pattern, among=[same]) == [(same, {"x": Iri("urn:a:1")})]
    assert store.match(pattern, among=[different]) == []


def _row_key(row) -> tuple[str, ...]:
    return tuple(serialize_term(t) for t in row)


EQ = make_iri("m3:equivalentTo")


def _served_match(stored: list[Triple], pattern: TriplePattern, b: dict, classes: dict) -> list:
    """oracle_match of the pattern under b on the served triples, as the store
    reads it: constants and bound values alias-canonicalized unless the
    predicate is the equivalence predicate, and nothing for a non-IRI in the
    predicate slot."""
    values = [b.get(p.name, p) if isinstance(p, Variable) else p for p in pattern.positions()]
    if not isinstance(values[1], (Iri, Variable)):
        return []
    if values[1] != EQ:  # equivalence lookups read the verbatim stored form
        values = [Iri(classes.get(v.value, v.value)) if isinstance(v, Iri) else v for v in values]
    return oracle_match(stored, TriplePattern(*values))


def _oracle_join(stored: list[Triple], patterns, seeds: list[dict], exclude, classes: dict) -> list[dict]:
    """Each seed extended through the patterns by nested loops over the
    served triples in store order: the rows, in the order the join gives them."""
    rows = []
    for seed in seeds:
        partial = [seed]
        for pattern in patterns:
            partial = [
                {**b, **found}
                for b in partial
                for t, found in _served_match(stored, pattern, b, classes)
                if not exclude or t not in exclude
            ]
        rows += partial
    return rows


def _join(store: Store, patterns, seeds: list[dict], exclude=None) -> list[dict]:
    """Store.join over dict seeds of mixed key sets: each run of seeds that
    bind the same names, in the same order, is one join over their tuples,
    laid out as their keys; its rows are read back as dicts through the
    layout, which must name each slot once."""
    rows = []
    for keys, run in itertools.groupby(seeds, lambda b: tuple(b)):
        names = layout(patterns, keys)
        assert len(set(names)) == len(names) and names[:len(keys)] == keys
        got = store.join(patterns, [tuple(b.values()) for b in run], keys, exclude=exclude)
        assert all(len(row) == len(names) for row in got)
        rows += [dict(zip(names, row)) for row in got]
    return rows


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_join_matches_nested_loop_oracle(seed):
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store, _ = vocab.store(rng.randint(0, 40))
    stored = list(store)
    exclude = set(rng.sample(stored, rng.randint(0, len(stored) // 2))) if rng.random() < 0.7 else None
    patterns = rand_query(rng, vocab).patterns
    names = sorted(set().union(*(p.variables() for p in patterns)))
    kept = [t for t in stored if not exclude or t not in exclude]
    full = sorted(oracle_query(kept, Query(tuple(names), patterns, ())), key=_row_key)
    # seeds bind a pattern variable to any vocabulary term (a literal may land
    # in a predicate slot) or to a value some full row holds
    terms = vocab.subjects + vocab.predicates + vocab.objects
    seeds = [{}] + [{rng.choice(names): rng.choice(terms)} for _ in range(rng.randint(1, 3))]
    if full:
        row = rng.choice(full)
        i = rng.randrange(len(names))
        seeds.append({names[i]: row[i]})
    got = _join(store, patterns, seeds, exclude=exclude)
    assert all(set(b) == set(names) for b in got)
    expected = [
        row
        for s in seeds
        for row in full
        if all(row[names.index(name)] == term for name, term in s.items())
    ]
    assert sorted(_row_key(tuple(b[n] for n in names)) for b in got) == sorted(
        _row_key(row) for row in expected
    )
    # the same rows in the order of nested loops over the store
    assert got == _oracle_join(stored, patterns, seeds, exclude, {})

    # the alias variant: equivalence links among the vocabulary and fresh
    # IRIs, and seeds that bind a predicate variable, the equivalence
    # predicate included, in runs that share one step
    alts = [Iri(f"urn:alt:{i}") for i in range(3)]
    iris = vocab.subjects + vocab.predicates + alts
    pairs = [(rng.choice(iris), rng.choice(iris)) for _ in range(rng.randint(1, 4))]
    for a, b in pairs:
        store.insert(Triple(a, EQ, b), Loaded("links"))
    classes = oracle_alias_classes([(a.value, b.value) for a, b in pairs])
    stored = list(store)
    predicate_names = sorted({p.predicate.name for p in patterns if isinstance(p.predicate, Variable)})
    for name in predicate_names[:1]:
        values = [EQ, rng.choice(vocab.predicates), rng.choice(alts), rng.choice(vocab.objects)]
        seeds += [{name: v} for v in rng.sample(values, len(values))]
    exclude = set(rng.sample(stored, rng.randint(0, len(stored) // 2))) if exclude is not None else None
    assert _join(store, patterns, seeds, exclude=exclude) == _oracle_join(stored, patterns, seeds, exclude, classes)


@pytest.mark.parametrize("aliased", [False, True])
def test_one_step_over_a_large_batch_matches_the_oracle(aliased):
    # the shape test runs 3 bindings per step; a query step can run hundreds
    # (780 in the benchmark's threshold query), so run 600 through the shapes
    # ('b', 'c', 'f') and ('b', 'c', 'b') and compare rows and their order
    rng = random.Random(21)
    vocab = Vocab(rng)
    store, _ = vocab.store(300)
    pairs = [tuple(rng.sample(vocab.subjects, 2))] if aliased else []
    for a, b in pairs:
        store.insert(Triple(a, EQ, b), Loaded("alias"))
    classes = oracle_alias_classes([(a.value, b.value) for a, b in pairs])
    stored = list(store)
    pools = {"s": vocab.subjects, "o": vocab.objects + vocab.subjects}
    for bound in (("s",), ("s", "o")):
        pattern = TriplePattern(Variable("s"), vocab.predicates[0], Variable("o"))
        seeds = [{name: rng.choice(pools[name]) for name in bound} for _ in range(600)]
        for exclude in (None, set(rng.sample(stored, 50))):
            got = _join(store, [pattern], seeds, exclude=exclude)
            assert got == _oracle_join(stored, [pattern], seeds, exclude, classes)
            assert len(got) >= 100


def test_join_step_with_a_bound_predicate_reads_equivalence_statements_verbatim():
    # two bindings enter the second step, one binding ?p to m3:equivalentTo
    # (a verbatim lookup of <b>) and one to <q> (a lookup of <b>'s class, <a>)
    eq, sel = make_iri("m3:equivalentTo"), Iri("urn:p:sel")
    a, b, c, q = Iri("urn:a"), Iri("urn:b"), Iri("urn:c"), Iri("urn:q")
    store = Store()
    for t in (Triple(b, eq, a), Triple(b, q, c), Triple(a, sel, eq), Triple(a, sel, q)):
        store.insert(t, Loaded("seed"))
    patterns = [TriplePattern(a, sel, Variable("p")), TriplePattern(b, Variable("p"), Variable("o"))]
    assert store.join(patterns, [()]) == [(eq, a), (q, c)]


def test_candidate_count_reads_the_bucket_match_scans():
    rng = random.Random(21)
    for _ in range(50):
        vocab = Vocab(rng)
        store, _ = vocab.store(rng.randint(0, 40))
        for _ in range(10):
            pattern = TriplePattern(
                rng.choice([Variable("s"), *vocab.subjects]),
                rng.choice([Variable("p"), *vocab.predicates]),
                rng.choice([Variable("o"), *vocab.objects]),
            )
            assert store.candidate_count(pattern) >= len(store.match(pattern))
    store = Store()
    eq = make_iri("m3:equivalentTo")
    store.insert(Triple(Iri("urn:b:x"), eq, Iri("urn:a:x")), Loaded("links"))
    store.insert(triple("urn:b:x", "urn:p:1", "urn:o:1"), Asserted("urn:dev:x"))
    store.insert(triple("urn:a:x", "urn:p:2", "urn:o:1"), Asserted("urn:dev:x"))
    # an alias resolves to its class's subject bucket, as in match
    aliased = TriplePattern(Iri("urn:b:x"), Variable("p"), Variable("o"))
    assert store.candidate_count(aliased) == len(store.match(aliased)) == 2
    # equivalence lookups read the verbatim stored form
    verbatim = TriplePattern(Iri("urn:b:x"), eq, Variable("o"))
    assert store.candidate_count(verbatim) == len(store.match(verbatim)) == 1


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_match_probe_matches_linear_scan_oracle(seed):
    rng = random.Random(seed)
    vocab = Vocab(rng)
    eq = make_iri("m3:equivalentTo")
    iris = vocab.subjects + [o for o in vocab.objects if isinstance(o, Iri)]
    alts = [Iri(f"urn:alt:{i}") for i in range(3)]
    pairs = [
        (rng.choice(iris + alts), rng.choice(iris + alts))
        for _ in range(rng.randint(1, 4) if rng.random() < 0.5 else 0)
    ]
    store = Store()
    for a, b in pairs:  # the view is canonical whether links come first or not
        store.insert(Triple(a, eq, b), Loaded("links"))
    for t in vocab.graph(rng.randint(0, 40)):
        store.insert(t, Loaded("seed"))
    classes = oracle_alias_classes([(a.value, b.value) for a, b in pairs])
    stored = list(store)
    # terms for constants and bound values: aliases, the equivalence
    # predicate, and non-IRIs that a binding may put in the predicate slot
    terms = vocab.subjects + vocab.predicates + vocab.objects + alts + [eq, Blank("b1")]

    def position(constants: list) -> object:  # three names, so variables repeat
        return Variable(rng.choice("xyz")) if rng.random() < 0.5 else rng.choice(constants)

    for _ in range(10):
        pattern = TriplePattern(
            position(vocab.subjects + alts), position(vocab.predicates + [eq]), position(terms)
        )
        bindings = {name: rng.choice(terms) for name in rng.sample("xyzw", rng.randint(0, 4))}
        got = store.match(pattern, bindings)
        count = store.candidate_count(pattern, bindings)
        # among scans a random subset, in its own order, in place of a bucket
        subset = rng.sample(stored, rng.randint(0, len(stored)))
        got_among = store.match(pattern, bindings, among=subset)
        values = [bindings.get(p.name, p) if isinstance(p, Variable) else p for p in pattern.positions()]
        if not isinstance(values[1], (Iri, Variable)):
            assert got == [] and count == 0 and got_among == []
            continue
        if values[1] != eq:  # equivalence lookups read the verbatim stored form
            values = [Iri(classes.get(v.value, v.value)) if isinstance(v, Iri) else v for v in values]
        expected = oracle_match(stored, TriplePattern(*values))
        assert [(r.triple, r.bindings) for r in got] == expected  # same rows, same order
        assert [(r.triple, r.bindings) for r in got_among] == oracle_match(subset, TriplePattern(*values))
        buckets = [
            sum(1 for t in stored if (t.subject, t.predicate, t.object)[i] == v)
            for i, v in enumerate(values)
            if not isinstance(v, Variable)
        ]
        assert count == min(buckets, default=len(stored)) >= len(got)


def _shape_store(aliased: bool) -> tuple[Store, dict]:
    """A small store where every position kind meets matches: repeated terms
    (so repeats match), a literal object and, when aliased, equivalence links
    whose classes rename subjects, a predicate and an object."""
    s, t, u, alt = (Iri(f"urn:shape:{n}") for n in ("s", "t", "u", "alt"))
    p, q = Iri("urn:shape:p"), Iri("urn:shape:q")
    store = Store()
    for triple_ in (
        Triple(s, p, s), Triple(s, p, t), Triple(t, q, s), Triple(u, p, Literal("5", XSD_DOUBLE)),
        Triple(p, p, p), Triple(alt, q, u), Triple(t, p, alt),
    ):
        store.insert(triple_, Loaded("seed"))
    pairs = [(alt, s), (q, Iri("urn:shape:q2"))] if aliased else []
    for a, b in pairs:
        store.insert(Triple(a, EQ, b), Loaded("links"))
    return store, oracle_alias_classes([(a.value, b.value) for a, b in pairs])


def test_every_step_shape_matches_the_oracle():
    # every shape: each position a constant or one of three variables (so
    # repeats of free and of bound variables occur), every subset of the
    # variables bound, with and without among, on a store with and without
    # aliases; constants and bound values range over aliases, the
    # equivalence predicate and a literal (a non-IRI in the predicate slot)
    rng = random.Random(11)
    for aliased in (False, True):
        store, classes = _shape_store(aliased)
        stored = list(store)
        terms = sorted({x for t in stored for x in (t.subject, t.predicate, t.object)}, key=serialize_term)
        terms += [Iri("urn:shape:alt"), Iri("urn:shape:q2")]
        predicates = [x for x in terms if isinstance(x, Iri)]
        for layout in itertools.product("cxyz", repeat=3):
            names = sorted(set(layout) - {"c"})
            for bound in itertools.chain.from_iterable(itertools.combinations(names, k) for k in range(len(names) + 1)):
                for _ in range(4):
                    pattern = TriplePattern(*(
                        Variable(kind) if kind != "c" else rng.choice(predicates if i == 1 else terms)
                        for i, kind in enumerate(layout)
                    ))
                    seeds = [{name: rng.choice(terms) for name in bound} for _ in range(3)]
                    b = seeds[0]
                    expected = _served_match(stored, pattern, b, classes)
                    assert [tuple(r) for r in store.match(pattern, b)] == expected
                    subset = rng.sample(stored, rng.randint(0, len(stored)))
                    assert [tuple(r) for r in store.match(pattern, b, among=subset)] == _served_match(
                        subset, pattern, b, classes
                    )
                    assert store.candidate_count(pattern, b) >= len(expected)
                    for exclude in (None, set(rng.sample(stored, 3))):
                        assert _join(store, [pattern], seeds, exclude=exclude) == _oracle_join(
                            stored, [pattern], seeds, exclude, classes
                        )


def test_step_shapes_are_bounded_and_hold_no_term():
    store, _ = _shape_store(True)
    terms = [x for t in store for x in (t.subject, t.predicate, t.object)]
    rng = random.Random(12)

    def run(pattern: TriplePattern, bound: list[str]) -> None:
        b = {name: rng.choice(terms) for name in bound}
        store.match(pattern, b)
        store.match(pattern, b, among=list(store))
        store.candidate_count(pattern, b)
        # join bindings hold fresh filler slots too, in a random order, so
        # the bound variables' slots vary as well as their names
        names = [*bound, *(f"pad{rng.random()}" for _ in range(rng.randint(0, 2)))]
        rng.shuffle(names)
        seed = tuple(b.get(name, terms[0]) for name in names)
        store.join([pattern], [seed], tuple(names))
        store.join([pattern], [seed], tuple(names), exclude=set())
        guards = [Guard(name, rng.choice(GUARD_OPS), Fraction(rng.randint(0, 9))) for name in bound]
        compile_guards(guards * rng.randint(1, 3), tuple(names))

    def position(i: int, names: list[str]) -> object:
        return Variable(rng.choice(names)) if rng.random() < 0.6 else rng.choice(terms if i != 1 else [EQ, P])

    for layout in itertools.product("cxyz", repeat=3):  # every shape, once
        names = sorted(set(layout) - {"c"})
        for bound in itertools.chain.from_iterable(itertools.combinations(names, k) for k in range(len(names) + 1)):
            run(TriplePattern(*(Variable(x) if x != "c" else P for x in layout)), list(bound))
    shapes = len(store_module._FACTORIES)
    for n in range(1000):  # fresh names, so a cache keyed by names would grow
        names = [f"v{n}_{i}" for i in range(3)]
        pattern = TriplePattern(*(position(i, names) for i in range(3)))
        run(pattern, [x for x in names if rng.random() < 0.5])
    assert len(store_module._FACTORIES) == shapes
    # queries with many filters in random operator order, each filter over
    # either variable: one generated filter per operator, whatever the
    # sequence, and the rows the nested-loop oracle gives
    numbers, Q = Store(), Iri("urn:rel:q0")
    for i in range(12):
        numbers.insert(Triple(Iri(f"urn:n:{i}"), P, Literal(str(i), XSD_DOUBLE)), Loaded("seed"))
        numbers.insert(Triple(Iri(f"urn:n:{i}"), Q, Literal(str(i % 5), XSD_DOUBLE)), Loaded("seed"))
    numbers.insert(Triple(Iri("urn:n:text"), P, Literal("hot")), Loaded("seed"))
    numbers.insert(Triple(Iri("urn:n:text"), Q, Literal("2", XSD_DOUBLE)), Loaded("seed"))
    for k in (1, 2, 3, 8, 40, 300):
        for _ in range(5):
            filters = " ".join(
                f"FILTER ?{rng.choice('ab')} {rng.choice(GUARD_OPS)} {rng.randint(-1, 12)}" for _ in range(k)
            )
            query = parse_query(f"SELECT ?s WHERE {{ ?s <{P.value}> ?a . ?s <{Q.value}> ?b }} {filters}")
            assert set(evaluate_query(query, numbers).rows) == oracle_query(list(numbers), query)
    assert set(_GUARD_FACTORIES) <= set(GUARD_OPS)
    # compiled steps live on their pattern: a constant only a dropped pattern
    # used leaves the intern table
    value = f"urn:shape:dropped:{rng.random()}"
    pattern = TriplePattern(Variable("s"), P, Iri(value))
    run(pattern, ["s"])
    assert pattern.steps and value in Iri._table
    del pattern
    gc.collect()
    assert value not in Iri._table


def _step_shapes():
    """Every step shape: each position a constant, bound, free, or the digit
    of an earlier free position it repeats."""
    for kind in ("join", "exclude", "match", "among", "count"):
        for shape in itertools.product("cbf01", repeat=3):
            if all(not s.isdigit() or (int(s) < i and shape[int(s)] == "f") for i, s in enumerate(shape)):
                yield kind, shape


def test_generated_sources_parse_as_python_3_10():
    # the package supports Python 3.10: every step and guard source the
    # generators can emit must use 3.10 syntax only
    shapes = list(_step_shapes())
    assert len(shapes) == 5 * (27 + 10)  # ten with repeats: f0?, f00, ?f1, f?0
    for kind, shape in shapes:
        ast.parse(store_module._source(kind, shape), feature_version=(3, 10))
    for op in GUARD_OPS:
        ast.parse(_guard_source(op), feature_version=(3, 10))
