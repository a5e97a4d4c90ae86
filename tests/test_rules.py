import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotgate.model import (
    Iri,
    Literal,
    Triple,
    XSD_DOUBLE,
    XSD_LONG,
    XSD_STRING,
    make_iri,
    serialize_term,
)
from knotgate.rules import (
    GUARD_OPS,
    ChainStats,
    Guard,
    Rule,
    RulePack,
    RuleSafetyError,
    RuleSyntaxError,
    check_safety,
    evaluate_rule,
    compile_guards,
    forward_chain,
    parse_pattern,
    parse_rulepack,
)
from knotgate.store import (
    M3_EQUIVALENT_TO,
    Asserted,
    Inferred,
    Loaded,
    Store,
    TriplePattern,
    Variable,
)

from generators import Vocab, rand_rulepack, rand_safe_rule
from oracles import _guard_holds, oracle_alias_classes, oracle_closure, oracle_rule_fire

CHAINED_PACK = """
PACK slor-health DOMAIN health
RULE fever : IF ?o rdf:type ssn:Observation . ?o ssn:observedProperty m3:BodyTemperature . ?o ssn:observationResult ?v FILTER ?v > 38.0 THEN ?o m3:indicates m3:Fever .
RULE unwell : IF ?o m3:indicates m3:Fever THEN ?o m3:hasState m3:Unwell .
"""


def observation_triples(value: str, device: str = "thermo1", seq: int = 1) -> list[Triple]:
    obs = Iri(f"urn:obs:{device}:{seq}")
    return [
        Triple(obs, make_iri("rdf:type"), make_iri("ssn:Observation")),
        Triple(obs, make_iri("ssn:observedProperty"), make_iri("m3:BodyTemperature")),
        Triple(obs, make_iri("ssn:observationResult"), Literal(value, XSD_DOUBLE)),
    ]


def store_with(triples) -> Store:
    store = Store()
    for t in triples:
        store.insert(t, Asserted("urn:dev:test"))
    return store


# -- parsing -----------------------------------------------------------------


def test_parse_fever_pack_fixture(fever_pack_text):
    pack = parse_rulepack(fever_pack_text)
    assert pack.pack_id == "slor-health"
    assert pack.domains == ("health",)
    [rule] = pack.rules
    assert rule.id == "fever"
    assert len(rule.body) == 3
    assert rule.guards == (Guard("v", ">", Fraction(38)),)
    assert len(rule.head) == 1
    assert rule.head[0].predicate == make_iri("m3:indicates")
    assert rule.head[0].object == make_iri("m3:Fever")


def test_parse_pack_with_zero_rules():
    pack = parse_rulepack("PACK empty DOMAIN misc")
    assert pack.pack_id == "empty"
    assert pack.rules == ()


def test_parse_pack_multiple_domains_and_rules():
    pack = parse_rulepack(CHAINED_PACK)
    assert [r.id for r in pack.rules] == ["fever", "unwell"]


def test_parse_rejects_unsafe_head_variable():
    text = "PACK p RULE r : IF ?o rdf:type ssn:Observation THEN ?x m3:indicates m3:Fever ."
    with pytest.raises(RuleSafetyError) as err:
        parse_rulepack(text)
    assert err.value.rule_id == "r"
    assert err.value.variables == ["x"]


def test_parse_rejects_unsafe_guard_variable():
    text = "PACK p RULE r : IF ?o rdf:type ssn:Observation FILTER ?v > 1 THEN ?o m3:x m3:y ."
    with pytest.raises(RuleSafetyError) as err:
        parse_rulepack(text)
    assert err.value.variables == ["v"]


def test_parse_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rulepack("PACK p RULE r IF ?o rdf:type ssn:Observation THEN ?o m3:a m3:b .")
    assert err.value.line == 1
    assert err.value.col > 0


def test_parse_rejects_unknown_prefix():
    with pytest.raises(RuleSyntaxError, match="unknown prefix"):
        parse_rulepack("PACK p RULE r : IF ?o wrong:type ssn:Observation THEN ?o m3:a m3:b .")


def test_parse_rejects_missing_final_dot():
    with pytest.raises(RuleSyntaxError):
        parse_rulepack("PACK p RULE r : IF ?o rdf:type ssn:Observation THEN ?o m3:a m3:b")


def test_parse_rejects_malformed_number_with_position():
    text = "PACK p RULE r : IF ?o ssn:observationResult ?v FILTER ?v > 1e- THEN ?o m3:a m3:b ."
    with pytest.raises(RuleSyntaxError, match="malformed number") as err:
        parse_rulepack(text)
    assert (err.value.line, err.value.col) == (1, text.index("1e-") + 1)


def test_parse_rejects_blank_node_terms():
    with pytest.raises(RuleSyntaxError) as err:
        parse_pattern("?o m3:a _:b")
    assert (err.value.line, err.value.col) == (1, 9)


def test_parse_typed_literal_and_number_terms():
    text = (
        'PACK p RULE r : IF ?o m3:level "5"^^xsd:long . ?o m3:name "x"^^xsd:string '
        "THEN ?o m3:score 2.5 ."
    )
    pack = parse_rulepack(text)
    [rule] = pack.rules
    assert rule.body[0].object == Literal("5", "http://www.w3.org/2001/XMLSchema#long")
    assert rule.body[1].object == Literal("x", XSD_STRING)
    assert rule.head[0].object == Literal("2.5", XSD_DOUBLE)


def test_parse_number_lexical_canonicalized():
    pack = parse_rulepack("PACK p RULE r : IF ?o m3:level 38.0 THEN ?o m3:a m3:b .")
    assert pack.rules[0].body[0].object == Literal("38", XSD_DOUBLE)


def test_duplicate_rule_ids_rejected():
    text = (
        "PACK p "
        "RULE r : IF ?o rdf:type ssn:Observation THEN ?o m3:a m3:b . "
        "RULE r : IF ?o rdf:type ssn:Observation THEN ?o m3:c m3:d ."
    )
    with pytest.raises(ValueError, match="duplicate"):
        parse_rulepack(text)


def test_parse_pattern_helper():
    pattern = parse_pattern("?o m3:indicates m3:Fever")
    assert pattern.subject == Variable("o")
    assert pattern.object == make_iri("m3:Fever")


# -- safety ------------------------------------------------------------------


def test_check_safety_fever_rule(fever_pack_text):
    [rule] = parse_rulepack(fever_pack_text).rules
    assert check_safety(rule) == []


def test_check_safety_reports_head_only_variable():
    with pytest.raises(RuleSafetyError) as err:
        Rule(
            "r",
            (TriplePattern(Variable("o"), make_iri("rdf:type"), make_iri("ssn:Observation")),),
            (),
            (TriplePattern(Variable("y"), make_iri("m3:a"), make_iri("m3:b")),),
        )
    assert err.value.variables == ["y"]


def test_check_safety_matches_set_difference_oracle():
    rng = random.Random(11)
    vocab = Vocab(rng)
    for _ in range(200):
        rule = rand_safe_rule(rng, vocab, "r")
        # perturb: occasionally swap a head position for a fresh variable
        head = list(rule.head)
        if rng.random() < 0.5:
            h = head[0]
            head[0] = TriplePattern(h.subject, h.predicate, Variable("fresh"))
        body_vars = set().union(*(p.variables() for p in rule.body))
        head_vars = set().union(*(p.variables() for p in head))
        guard_vars = {g.variable for g in rule.guards}
        expected = sorted((head_vars | guard_vars) - body_vars)
        if expected:
            with pytest.raises(RuleSafetyError) as err:
                Rule(rule.id, rule.body, rule.guards, tuple(head))
            assert err.value.variables == expected
        else:
            rule = Rule(rule.id, rule.body, rule.guards, tuple(head))
            assert check_safety(rule) == expected


# -- evaluation --------------------------------------------------------------


def test_fever_rule_fires_above_threshold(fever_pack_text):
    [rule] = parse_rulepack(fever_pack_text).rules
    store = store_with(observation_triples("39"))
    fire = evaluate_rule(rule, store)
    assert fire.triples == {
        Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    }


def test_fever_rule_boundary_is_strict(fever_pack_text):
    [rule] = parse_rulepack(fever_pack_text).rules
    store = store_with(observation_triples("38"))
    assert evaluate_rule(rule, store).triples == set()
    # lexical form must not matter
    store2 = store_with(observation_triples("38.0"))
    assert evaluate_rule(rule, store2).triples == set()


def test_guard_compares_numerically_across_lexical_forms(fever_pack_text):
    [rule] = parse_rulepack(fever_pack_text).rules
    store = store_with(observation_triples("39.00"))
    assert len(evaluate_rule(rule, store).triples) == 1


def test_guard_on_non_numeric_binding_skips_and_counts(fever_pack_text):
    [rule] = parse_rulepack(fever_pack_text).rules
    obs = Iri("urn:obs:thermo1:1")
    store = store_with(
        [
            Triple(obs, make_iri("rdf:type"), make_iri("ssn:Observation")),
            Triple(obs, make_iri("ssn:observedProperty"), make_iri("m3:BodyTemperature")),
            Triple(obs, make_iri("ssn:observationResult"), Literal("high", XSD_STRING)),
        ]
    )
    fire = evaluate_rule(rule, store)
    assert fire.triples == set()
    assert fire.guard_type_errors == 1


_SIGNS = st.sampled_from(["", "-", "+"])
#: numeric lexical forms: signs, long integers, trailing zeros, -0, exponents
NUMERIC_LEXICALS = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp,
    _SIGNS,
    st.one_of(st.just("0"), st.integers(min_value=0, max_value=10**30).map(str)),
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=8).map(lambda d: "." + d)),
    st.one_of(
        st.just(""),
        st.builds(lambda e, sign, n: f"{e}{sign}{n}", st.sampled_from("eE"), _SIGNS, st.integers(0, 30)),
    ),
)


@given(lexical=NUMERIC_LEXICALS, constant=NUMERIC_LEXICALS, op=st.sampled_from(GUARD_OPS))
@settings(max_examples=300, deadline=None)
def test_cached_ratio_and_generated_guard_match_the_oracle(lexical, constant, op):
    exact = Fraction(Decimal(lexical))
    literals = [Literal(lexical, XSD_DOUBLE)]
    if exact.denominator == 1:
        literals.append(Literal(lexical, XSD_LONG))
    guard = Guard("v", op, Fraction(Decimal(constant)))
    run = compile_guards([guard], ("v",))
    for lit in literals:
        ratio = lit.ratio
        assert ratio == exact.as_integer_ratio()
        assert lit.ratio is ratio  # computed once, then read
        passed = [(lit,)] if _guard_holds(guard, exact) else []
        skipped: list = []
        assert run([(lit,)], skipped) == passed
        assert skipped == []
    text = Literal(lexical, XSD_STRING)
    assert text.ratio is None
    skipped = []
    assert run([(text,)], skipped) == []
    assert skipped == [(text,)]


@given(value=st.decimals(allow_nan=False, allow_infinity=False), constant=st.fractions())
@settings(max_examples=300, deadline=None)
def test_generated_guards_agree_with_fraction_comparison(value, constant):
    # the guard compares n/d with c/e as n*e op c*d: every operator, against
    # any rational constant
    exact = Fraction(value)
    term = Literal(str(value), XSD_DOUBLE)
    plain = {"<": exact < constant, "<=": exact <= constant, ">": exact > constant,
             ">=": exact >= constant, "=": exact == constant, "!=": exact != constant}
    assert sorted(plain) == sorted(GUARD_OPS)
    for op, expected in plain.items():
        skipped: list = []
        assert compile_guards([Guard("v", op, constant)], ("v",))([(term,)], skipped) == ([(term,)] if expected else [])
        assert skipped == []


def test_first_failing_guard_decides_whether_a_row_is_skipped():
    # a numeric guard that fails first drops the row uncounted; a guard on a
    # non-numeric term that fails first drops it and reports it
    number, text = Literal("5", XSD_DOUBLE), Literal("hot", XSD_STRING)
    guards = [Guard("x", ">", Fraction(9)), Guard("y", ">", Fraction(0))]
    skipped: list = []
    assert compile_guards(guards, ("y", "x"))([(text, number)], skipped) == []
    assert skipped == []
    assert compile_guards(guards[::-1], ("y", "x"))([(text, number)], skipped) == []
    assert skipped == [(text, number)]


def test_guard_type_error_counted_once_in_its_first_round():
    pack = parse_rulepack(CHAINED_PACK)
    high = Iri("urn:obs:thermo1:9")
    store = store_with(
        observation_triples("39")
        + [
            Triple(high, make_iri("rdf:type"), make_iri("ssn:Observation")),
            Triple(high, make_iri("ssn:observedProperty"), make_iri("m3:BodyTemperature")),
            Triple(high, make_iri("ssn:observationResult"), Literal("high", XSD_STRING)),
        ]
    )
    stats = forward_chain(store, [pack])
    assert (stats.rounds, stats.guard_type_errors) == (3, 1)
    unrelated = observation_triples("36", seq=2)
    for t in unrelated:
        store.insert(t, Asserted("urn:dev:test"))
    assert forward_chain(store, [pack], delta=set(unrelated)).guard_type_errors == 0


def test_evaluate_rule_matches_enumeration_oracle():
    rng = random.Random(12)
    for _ in range(200):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 40))
        rule = rand_safe_rule(rng, vocab, "r")
        expected = oracle_rule_fire(set(store), rule)
        got = evaluate_rule(rule, store).triples
        assert got == expected


# -- chaining ----------------------------------------------------------------


def test_chain_empty_rule_set():
    store = store_with(observation_triples("39"))
    before = store.snapshot()
    stats = forward_chain(store, [])
    assert stats.rounds == 1
    assert stats.derived == 0
    assert store.snapshot() == before


def test_chain_fever_plus_chained_rule():
    pack = parse_rulepack(CHAINED_PACK)
    store = store_with(observation_triples("39"))
    stats = forward_chain(store, [pack])
    assert stats.derived == 2
    assert stats.rounds == 3  # two productive rounds plus the empty one
    assert stats.per_rule == {"fever": 1, "unwell": 1}
    obs = Iri("urn:obs:thermo1:1")
    assert Triple(obs, make_iri("m3:indicates"), make_iri("m3:Fever")) in store
    assert Triple(obs, make_iri("m3:hasState"), make_iri("m3:Unwell")) in store


def test_chain_is_idempotent():
    pack = parse_rulepack(CHAINED_PACK)
    store = store_with(observation_triples("39"))
    forward_chain(store, [pack])
    again = forward_chain(store, [pack])
    assert again.derived == 0
    assert again.rounds == 1


def test_chain_requires_safe_rules():
    with pytest.raises(RuleSafetyError) as err:
        Rule(
            "bad",
            (TriplePattern(Variable("o"), make_iri("rdf:type"), make_iri("ssn:Observation")),),
            (),
            (TriplePattern(Variable("y"), make_iri("m3:a"), make_iri("m3:b")),),
        )
    assert err.value.variables == ["y"]


def test_inferred_provenance_carries_rule_id(fever_pack_text):
    pack = parse_rulepack(fever_pack_text)
    store = store_with(observation_triples("39"))
    forward_chain(store, [pack])
    derived = [t for t in store if isinstance(store.provenance(t), Inferred)]
    assert [store.provenance(t).rule_id for t in derived] == ["fever"]


def test_chain_against_closure_oracle_small():
    rng = random.Random(13)
    for _ in range(60):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 30))
        pack = rand_rulepack(rng, vocab, "gen", max_rules=4)
        expected = oracle_closure(set(store), list(pack.rules))
        stats = forward_chain(store, [pack])
        assert set(store) == expected
        assert stats.rounds <= stats.derived + 1
        # soundness: every inferred triple is reproducible from the fixpoint
        for t in store:
            prov = store.provenance(t)
            if isinstance(prov, Inferred):
                rule = next(r for r in pack.rules if r.id == prov.rule_id)
                assert t in oracle_rule_fire(set(store), rule)


def test_chain_order_independence():
    rng = random.Random(14)
    for _ in range(30):
        vocab = Vocab(rng)
        base = vocab.graph(rng.randint(0, 25))
        pack = rand_rulepack(rng, vocab, "gen", max_rules=4)
        rules = list(pack.rules)
        rng.shuffle(rules)
        shuffled = RulePack("gen", pack.domains, tuple(rules))

        s1 = store_with(base)
        s2 = store_with(base)
        forward_chain(s1, [pack])
        forward_chain(s2, [shuffled])
        assert set(s1) == set(s2)


def test_chain_monotonicity():
    rng = random.Random(15)
    vocab = Vocab(rng)
    store, triples = vocab.store(25)
    before = set(store)
    forward_chain(store, [rand_rulepack(rng, vocab, "gen")])
    assert before <= set(store)


def test_conflicting_derivations_are_benign():
    text = (
        "PACK p "
        "RULE r1 : IF ?o rdf:type ssn:Observation THEN ?o m3:flag m3:Seen . "
        "RULE r2 : IF ?o rdf:type ssn:Observation THEN ?o m3:flag m3:Seen ."
    )
    pack = parse_rulepack(text)
    store = store_with(observation_triples("39"))
    stats = forward_chain(store, [pack])
    assert stats.derived == 1
    assert set(stats.per_rule) == {"r1", "r2"}
    assert sum(stats.per_rule.values()) == stats.derived


def test_head_instantiation_with_literal_subject_is_skipped():
    # ?v binds a literal; using it as head subject cannot form a triple
    rule = Rule(
        "r",
        (TriplePattern(Variable("o"), make_iri("ssn:observationResult"), Variable("v")),),
        (),
        (TriplePattern(Variable("v"), make_iri("m3:a"), make_iri("m3:b")),),
    )
    store = store_with(observation_triples("39"))
    fire = evaluate_rule(rule, store)
    assert fire.triples == set()


def test_delta_chain_forms_only_instances_using_the_delta():
    pack = parse_rulepack(CHAINED_PACK)
    store = store_with(observation_triples("39"))
    forward_chain(store, [pack])
    new = observation_triples("40", seq=2)
    for t in new:
        store.insert(t, Asserted("urn:dev:test"))
    stats = forward_chain(store, [pack], delta=set(new))
    obs = Iri("urn:obs:thermo1:2")
    assert stats.committed == [
        Triple(obs, make_iri("m3:indicates"), make_iri("m3:Fever")),
        Triple(obs, make_iri("m3:hasState"), make_iri("m3:Unwell")),
    ]
    assert (stats.rounds, stats.derived) == (3, 2)
    # the first observation's instance is not formed again
    assert evaluate_rule(pack.rules[0], store, delta=set(new)).triples == {stats.committed[0]}


def test_rule_deriving_an_alias_chains_whole_store_rounds():
    # "merge" unites a and b mid-round; the store then serves (b q c) and
    # (a r b) as (a q c) and (a r a), triples outside the round's delta, so
    # "merge" derives (a = a) next, which only a whole-store round forms
    a, b, c = Iri("urn:node:a"), Iri("urn:node:b"), Iri("urn:node:c")
    q, r = Iri("urn:rel:q"), Iri("urn:rel:r")
    x, y = Variable("x"), Variable("y")
    pack = RulePack("p", (), (
        Rule("merge", (TriplePattern(x, r, y),), (), (TriplePattern(x, M3_EQUIVALENT_TO, y),)),
        Rule("copy", (TriplePattern(x, q, y),), (), (TriplePattern(x, q, y),)),
    ))

    def chained_then_merge() -> Store:
        store = store_with([Triple(b, q, c)])
        forward_chain(store, [pack])
        store.insert(Triple(a, r, b), Asserted("urn:dev:test"))
        return store

    # the other order: the triple that derives the alias is stated first
    merge_first = store_with([Triple(a, r, b), Triple(b, q, c)])
    first = forward_chain(merge_first, [pack])
    by_delta = chained_then_merge()
    got = forward_chain(by_delta, [pack], delta={Triple(a, r, b)})
    want = forward_chain(chained_then_merge(), [pack])
    assert got.committed == want.committed == first.committed
    assert first.committed == [Triple(a, M3_EQUIVALENT_TO, b), Triple(a, M3_EQUIVALENT_TO, a)]
    assert got.rounds == want.rounds == first.rounds == 3
    assert by_delta.snapshot() == merge_first.snapshot()  # provenance included
    # a store that states the alias itself first serves the same triples
    alias_first = store_with([Triple(a, M3_EQUIVALENT_TO, b), Triple(b, q, c), Triple(a, r, b)])
    forward_chain(alias_first, [pack])
    assert set(alias_first) == set(by_delta)


def test_committed_names_served_triples_when_a_later_commit_aliases_them():
    # "copy" commits (b q2 c) before "merge" commits (a = b) in the same
    # round, so the store serves it as (a q2 c) once the round is in
    a, b, c = Iri("urn:a"), Iri("urn:b"), Iri("urn:c")
    q, q2, r = Iri("urn:q"), Iri("urn:q2"), Iri("urn:r")
    x, y = Variable("x"), Variable("y")
    pack = RulePack("p", (), (
        Rule("copy", (TriplePattern(x, q, y),), (), (TriplePattern(x, q2, y),)),
        Rule("merge", (TriplePattern(x, r, y),), (), (TriplePattern(x, M3_EQUIVALENT_TO, y),)),
    ))
    store = store_with([Triple(b, q, c), Triple(a, r, b)])
    stats = forward_chain(store, [pack])
    assert Triple(a, q2, c) in stats.committed
    assert len(set(stats.committed)) == len(stats.committed) == stats.derived
    for t in stats.committed:
        assert t in store
        assert store.provenance(t) == Inferred("merge" if t.predicate == M3_EQUIVALENT_TO else "copy")


def test_alias_in_store_chains_by_delta():
    # the rule names <b>, which the store aliases to <a>, as an object or as
    # a predicate: the delta round canonicalizes the atom before comparing
    # it with (s p a), and looks (s a c) up under its served predicate
    a, b, c, s_ = (Iri(f"urn:node:{n}") for n in "abcs")
    p, r, x = Iri("urn:rel:p"), Iri("urn:rel:r"), Variable("x")
    for atom in (TriplePattern(x, p, b), TriplePattern(x, b, c)):
        pack = RulePack("p", (), (Rule("named", (atom,), (), (TriplePattern(x, r, c),)),))
        store = store_with([Triple(b, M3_EQUIVALENT_TO, a)])
        forward_chain(store, [pack])
        stated = Triple(s_, atom.predicate, atom.object)
        store.insert(stated, Asserted("urn:dev:test"))
        stats = forward_chain(store, [pack], delta={store.canonical(stated)})
        assert stats.committed == [Triple(s_, r, c)]
        assert stats.whole_store is False


def test_rule_reading_equivalence_statements_chains_whole_store_rounds():
    # (b = a) is served verbatim, (a r b) as (a r a): seeded by the delta
    # triple, the rule would look up (a = a) and miss, where the whole
    # store binds c to <b> from the statement first
    a, b = Iri("urn:node:a"), Iri("urn:node:b")
    q, r = Iri("urn:rel:q"), Iri("urn:rel:r")
    c_, a_ = Variable("c"), Variable("a")
    for predicate in (M3_EQUIVALENT_TO, Variable("p")):
        body = (TriplePattern(c_, predicate, a_), TriplePattern(a_, r, c_))
        pack = RulePack("p", (), (Rule("read", body, (), (TriplePattern(c_, q, a_),)),))
        store = store_with([Triple(b, M3_EQUIVALENT_TO, a)])
        forward_chain(store, [pack])
        store.insert(Triple(a, r, b), Asserted("urn:dev:test"))
        stats = forward_chain(store, [pack], delta={Triple(a, r, a)})
        assert stats.committed == [Triple(a, q, a)]
        assert stats.whole_store is True


# -- delta chaining against whole-store rounds ----------------------------------


def sort_key(t: Triple) -> tuple[str, str, str]:
    return (serialize_term(t.subject), serialize_term(t.predicate), serialize_term(t.object))


def whole_store_rounds(store: Store, packs: list[RulePack]) -> ChainStats:
    """Reference chain: every round evaluates every rule over the whole store."""
    rules = [r for pack in packs for r in pack.rules]
    stats = ChainStats(rounds=0, derived=0, per_rule={r.id: 0 for r in rules})
    while True:
        stats.rounds += 1
        pending = [
            (rule.id, t)
            for rule in rules
            for t in sorted(evaluate_rule(rule, store).triples, key=sort_key)
        ]
        committed = 0
        for rule_id, t in pending:
            if store.insert(t, Inferred(rule_id)):
                stats.per_rule[rule_id] += 1
                stats.committed.append(store.canonical(t))
                committed += 1
        if not committed:
            # as served once every commit is in: a later one may alias an
            # earlier one, even onto a stated triple, which is then not derived
            served = dict.fromkeys(map(store.canonical, stats.committed))
            stats.committed = [t for t in served if isinstance(store.provenance(t), Inferred)]
            return stats


def chained_store_then_batch(seed: int, aliases: bool):
    """A random store chained to fixpoint, then a random batch inserted.

    Deterministic in its arguments, so two calls build identical stores.
    Half the packs carry a transitive rule, which chains over many rounds;
    with aliases, m3:equivalentTo is one of the predicates.
    """
    rng = random.Random(seed)
    vocab = Vocab(rng)
    links = []
    if aliases:
        vocab.predicates.append(M3_EQUIVALENT_TO)
        nodes = vocab.subjects + [o for o in vocab.objects if isinstance(o, Iri)]
        links = [Triple(rng.choice(nodes), M3_EQUIVALENT_TO, rng.choice(nodes)) for _ in range(6)]
    packs = [rand_rulepack(rng, vocab, "gen", max_rules=4)]
    if rng.random() < 0.5:
        p = rng.choice(vocab.predicates)
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        transitive = Rule(
            "trans", (TriplePattern(a, p, b), TriplePattern(b, p, c)), (), (TriplePattern(a, p, c),)
        )
        packs.append(RulePack("trans", (), (transitive,)))
    store, base = vocab.store(rng.randint(0, 30))
    for t in links:
        store.insert(t, Loaded("links"))
    forward_chain(store, packs)
    batch = vocab.graph(rng.randint(0, 6))
    inserted = {store.canonical(t) for t in batch if store.insert(t, Asserted("urn:dev:test"))}
    return store, packs, links + base + batch, inserted


def test_committed_omits_a_derived_triple_aliased_onto_a_stated_one():
    # seed 161: a rule derives an alias that renames a committed triple onto
    # one the batch stated, so the store serves it as Asserted
    store, packs, _, inserted = chained_store_then_batch(161, aliases=True)
    stats = forward_chain(store, packs, delta=inserted)
    assert stats.committed and stats.derived == len(stats.committed)
    for t in stats.committed:
        assert isinstance(store.provenance(t), Inferred)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), aliases=st.booleans())
@settings(max_examples=300, deadline=None)
def test_delta_chain_equals_whole_store_chain(seed, aliases):
    by_delta, packs, facts, inserted = chained_store_then_batch(seed, aliases)
    whole, _, _, _ = chained_store_then_batch(seed, aliases)
    reference, _, _, _ = chained_store_then_batch(seed, aliases)
    got = forward_chain(by_delta, packs, delta=inserted)
    want = forward_chain(whole, packs, delta=None)
    ref = whole_store_rounds(reference, packs)
    assert list(by_delta.snapshot().items()) == list(whole.snapshot().items())
    assert list(whole.snapshot().items()) == list(reference.snapshot().items())
    for stats in (got, want):
        assert (stats.rounds, stats.per_rule, stats.committed) == (
            ref.rounds, ref.per_rule, ref.committed
        )
        assert stats.rounds <= sum(stats.per_rule.values()) + 1
    closure = oracle_closure(set(facts), [r for p in packs for r in p.rules])
    links = [
        (t.subject.value, t.object.value)
        for t in closure
        if t.predicate == M3_EQUIVALENT_TO and isinstance(t.subject, Iri) and isinstance(t.object, Iri)
    ]
    if all(a == b for a, b in oracle_alias_classes(links).items()):  # no class of two IRIs
        assert set(by_delta) == closure
