"""Store.join's tuple rows and the generated guards against the oracles:
rule applications (whole store and delta, their guard skips counted per
binding), chaining to the closure, and queries with pre-bound variables."""

import random

from hypothesis import given, settings, strategies as st

from knotgate.model import Iri, Literal, Triple, XSD_STRING, make_iri, serialize_term
from knotgate.query import Query, evaluate_query
from knotgate.rules import RulePack, Rule, evaluate_rule, forward_chain
from knotgate.store import Loaded, TriplePattern, Variable

from generators import Vocab, rand_query, rand_safe_rule
from oracles import oracle_alias_classes, oracle_closure, oracle_query, oracle_rule_outcome

EQ = make_iri("m3:equivalentTo")
#: string literals a guard meets as non-numeric terms ("38" included)
WORDS = [Literal("high", XSD_STRING), Literal("38", XSD_STRING)]


def _store_with_words(rng: random.Random, vocab: Vocab):
    store, _ = vocab.store(rng.randint(0, 40))
    for _ in range(rng.randint(0, 6)):
        triple = Triple(rng.choice(vocab.subjects), rng.choice(vocab.predicates), rng.choice(WORDS))
        store.insert(triple, Loaded("words"))
    return store


def _canonical(pattern: TriplePattern, classes: dict[str, str]) -> TriplePattern:
    return TriplePattern(*(
        Iri(classes.get(p.value, p.value)) if isinstance(p, Iri) else p for p in pattern.positions()
    ))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), aliases=st.booleans(), use_delta=st.booleans())
@settings(max_examples=300, deadline=None)
def test_rule_heads_and_guard_skips_match_the_oracle(seed, aliases, use_delta):
    # random safe rules repeat variables across and within atoms; guards
    # meet numbers, IRIs and string literals; with aliases the body's
    # constants are matched in the canonical form the store serves
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store = _store_with_words(rng, vocab)
    rule = rand_safe_rule(rng, vocab, "r")
    classes: dict[str, str] = {}
    if aliases and not any(isinstance(p.predicate, Variable) for p in rule.body):
        a, b = rng.sample(vocab.subjects, 2)
        store.insert(Triple(a, EQ, b), Loaded("alias"))
        classes = oracle_alias_classes([(a.value, b.value)])
    served = list(store)
    delta = set(rng.sample(served, rng.randint(0, len(served)))) if use_delta else None
    canon = Rule(rule.id, tuple(_canonical(p, classes) for p in rule.body), rule.guards, rule.head)
    triples, skips = oracle_rule_outcome(served, canon, delta)
    fire = evaluate_rule(rule, store, delta)
    assert fire.triples == triples
    assert fire.guard_skips == skips
    assert fire.guard_type_errors == len(skips)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_chain_reaches_the_closure_and_counts_each_skipped_binding_once(seed):
    # a whole-store chain forms every binding of the closure: each binding
    # a guard skips is counted once, in the round it first forms
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store = _store_with_words(rng, vocab)
    facts = set(store)
    rules = [rand_safe_rule(rng, vocab, f"r{i}") for i in range(rng.randint(1, 3))]
    stats = forward_chain(store, [RulePack("p", ("generated",), tuple(rules))])
    closure = oracle_closure(facts, rules)
    assert set(store) == closure
    assert stats.guard_type_errors == sum(len(oracle_rule_outcome(list(closure), r)[1]) for r in rules)


def _serialized(row: tuple) -> tuple[str, ...]:
    return tuple(serialize_term(t) for t in row)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_query_with_prebound_variables_matches_the_oracle(seed):
    # pre-bound variables in any subset and order, so the seed's slots
    # differ from pattern order; bound to a term of some oracle row, or to
    # any term (a literal may land in a predicate slot)
    rng = random.Random(seed)
    vocab = Vocab(rng)
    store = _store_with_words(rng, vocab)
    query = rand_query(rng, vocab)
    names = sorted(query.pattern_variables())
    full = sorted(oracle_query(list(store), Query(tuple(names), query.patterns, query.filters)), key=_serialized)
    bound = rng.sample(names, rng.randint(0, len(names)))
    if full and rng.random() < 0.7:
        row = rng.choice(full)
        bindings = {name: row[names.index(name)] for name in bound}
    else:
        terms = vocab.subjects + vocab.predicates + vocab.objects + WORDS
        bindings = {name: rng.choice(terms) for name in bound}
    rows = {
        tuple(row[names.index(name)] for name in query.select)
        for row in full
        if all(row[names.index(name)] is term for name, term in bindings.items())
    }
    got = evaluate_query(query, store, bindings)
    assert got.rows == sorted(rows, key=_serialized)[:query.limit]
