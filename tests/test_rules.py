import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from knotgate.model import (
    InvalidTriple,
    Iri,
    Literal,
    Triple,
    XSD_DOUBLE,
    XSD_LONG,
    XSD_STRING,
    make_iri,
    serialize_term,
)
from knotgate import rules as rules_module
from knotgate.rules import (
    GUARD_OPS,
    ChainStats,
    Guard,
    Rule,
    RuleFire,
    RulePack,
    RuleSafetyError,
    RuleSet,
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

from generators import Vocab, rand_rule_family, rand_rulepack, rand_safe_rule
from oracles import _guard_holds, oracle_alias_classes, oracle_closure, oracle_rule_fire, oracle_rule_outcome

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
    stats = forward_chain(store, RuleSet([pack]))
    assert (stats.rounds, stats.guard_type_errors) == (3, 1)
    unrelated = observation_triples("36", seq=2)
    for t in unrelated:
        store.insert(t, Asserted("urn:dev:test"))
    assert forward_chain(store, RuleSet([pack]), delta=set(unrelated)).guard_type_errors == 0


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
    stats = forward_chain(store, RuleSet([]))
    assert stats.rounds == 1
    assert stats.derived == 0
    assert store.snapshot() == before


def test_chain_fever_plus_chained_rule():
    pack = parse_rulepack(CHAINED_PACK)
    store = store_with(observation_triples("39"))
    stats = forward_chain(store, RuleSet([pack]))
    assert stats.derived == 2
    assert stats.rounds == 3  # two productive rounds plus the empty one
    assert stats.per_rule == {"fever": 1, "unwell": 1}
    obs = Iri("urn:obs:thermo1:1")
    assert Triple(obs, make_iri("m3:indicates"), make_iri("m3:Fever")) in store
    assert Triple(obs, make_iri("m3:hasState"), make_iri("m3:Unwell")) in store


def test_chain_is_idempotent():
    pack = parse_rulepack(CHAINED_PACK)
    store = store_with(observation_triples("39"))
    forward_chain(store, RuleSet([pack]))
    again = forward_chain(store, RuleSet([pack]))
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
    forward_chain(store, RuleSet([pack]))
    derived = [t for t in store if isinstance(store.provenance(t), Inferred)]
    assert [store.provenance(t).rule_id for t in derived] == ["fever"]


def test_chain_against_closure_oracle_small():
    rng = random.Random(13)
    for _ in range(60):
        vocab = Vocab(rng)
        store, triples = vocab.store(rng.randint(0, 30))
        pack = rand_rulepack(rng, vocab, "gen", max_rules=4)
        expected = oracle_closure(set(store), list(pack.rules))
        stats = forward_chain(store, RuleSet([pack]))
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
        forward_chain(s1, RuleSet([pack]))
        forward_chain(s2, RuleSet([shuffled]))
        assert set(s1) == set(s2)


def test_chain_monotonicity():
    rng = random.Random(15)
    vocab = Vocab(rng)
    store, triples = vocab.store(25)
    before = set(store)
    forward_chain(store, RuleSet([rand_rulepack(rng, vocab, "gen")]))
    assert before <= set(store)


def test_conflicting_derivations_are_benign():
    text = (
        "PACK p "
        "RULE r1 : IF ?o rdf:type ssn:Observation THEN ?o m3:flag m3:Seen . "
        "RULE r2 : IF ?o rdf:type ssn:Observation THEN ?o m3:flag m3:Seen ."
    )
    pack = parse_rulepack(text)
    store = store_with(observation_triples("39"))
    stats = forward_chain(store, RuleSet([pack]))
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
    forward_chain(store, RuleSet([pack]))
    new = observation_triples("40", seq=2)
    for t in new:
        store.insert(t, Asserted("urn:dev:test"))
    stats = forward_chain(store, RuleSet([pack]), delta=set(new))
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
        forward_chain(store, RuleSet([pack]))
        store.insert(Triple(a, r, b), Asserted("urn:dev:test"))
        return store

    # the other order: the triple that derives the alias is stated first
    merge_first = store_with([Triple(a, r, b), Triple(b, q, c)])
    first = forward_chain(merge_first, RuleSet([pack]))
    by_delta = chained_then_merge()
    got = forward_chain(by_delta, RuleSet([pack]), delta={Triple(a, r, b)})
    want = forward_chain(chained_then_merge(), RuleSet([pack]))
    assert got.committed == want.committed == first.committed
    assert first.committed == [Triple(a, M3_EQUIVALENT_TO, b), Triple(a, M3_EQUIVALENT_TO, a)]
    assert got.rounds == want.rounds == first.rounds == 3
    assert by_delta.snapshot() == merge_first.snapshot()  # provenance included
    # a store that states the alias itself first serves the same triples
    alias_first = store_with([Triple(a, M3_EQUIVALENT_TO, b), Triple(b, q, c), Triple(a, r, b)])
    forward_chain(alias_first, RuleSet([pack]))
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
    stats = forward_chain(store, RuleSet([pack]))
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
        forward_chain(store, RuleSet([pack]))
        stated = Triple(s_, atom.predicate, atom.object)
        store.insert(stated, Asserted("urn:dev:test"))
        stats = forward_chain(store, RuleSet([pack]), delta={store.canonical(stated)})
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
        forward_chain(store, RuleSet([pack]))
        store.insert(Triple(a, r, b), Asserted("urn:dev:test"))
        stats = forward_chain(store, RuleSet([pack]), delta={Triple(a, r, a)})
        assert stats.committed == [Triple(a, q, a)]
        assert stats.whole_store is True


# -- delta chaining against whole-store rounds ----------------------------------


def sort_key(t: Triple) -> tuple[str, str, str]:
    return (serialize_term(t.subject), serialize_term(t.predicate), serialize_term(t.object))


def whole_store_rounds(store: Store, packs: list[RulePack]) -> ChainStats:
    """Reference chain: every round evaluates every rule on its own, over the
    whole store; a binding a guard skips is counted once."""
    rules = [r for pack in packs for r in pack.rules]
    stats = ChainStats(rounds=0, derived=0, per_rule={r.id: 0 for r in rules})
    skipped: set[tuple[int, frozenset]] = set()
    while True:
        stats.rounds += 1
        fires = [evaluate_rule(rule, store) for rule in rules]
        skipped.update((i, b) for i, fire in enumerate(fires) for b in fire.guard_skips)
        stats.guard_type_errors = len(skipped)
        pending = [
            (rule.id, t)
            for rule, fire in zip(rules, fires)
            for t in sorted(fire.triples, key=sort_key)
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
    forward_chain(store, RuleSet(packs))
    batch = vocab.graph(rng.randint(0, 6))
    inserted = {store.canonical(t) for t in batch if store.insert(t, Asserted("urn:dev:test"))}
    return store, packs, links + base + batch, inserted


def test_committed_omits_a_derived_triple_aliased_onto_a_stated_one():
    # seed 161: a rule derives an alias that renames a committed triple onto
    # one the batch stated, so the store serves it as Asserted
    store, packs, _, inserted = chained_store_then_batch(161, aliases=True)
    stats = forward_chain(store, RuleSet(packs), delta=inserted)
    assert stats.committed and stats.derived == len(stats.committed)
    for t in stats.committed:
        assert isinstance(store.provenance(t), Inferred)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), aliases=st.booleans())
@settings(max_examples=300, deadline=None)
def test_delta_chain_equals_whole_store_chain(seed, aliases):
    by_delta, packs, facts, inserted = chained_store_then_batch(seed, aliases)
    whole, _, _, _ = chained_store_then_batch(seed, aliases)
    reference, _, _, _ = chained_store_then_batch(seed, aliases)
    got = forward_chain(by_delta, RuleSet(packs), delta=inserted)
    want = forward_chain(whole, RuleSet(packs), delta=None)
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


# -- rule families --------------------------------------------------------------

#: string literals a guard meets as non-numeric terms
WORDS = [Literal("high", XSD_STRING), Literal("38", XSD_STRING)]


def family_store_then_batch(seed: int, aliases: bool):
    """A random store chained to fixpoint under a rule family (and, half the
    time, more random rules), then a random batch inserted.  The store
    holds string literals for guards to skip, and most atoms of each
    member's body grounded by one binding of its own, so members fire.

    Deterministic in its arguments, like chained_store_then_batch.  With
    aliases, links join some of the family's constants and other nodes,
    and m3:equivalentTo is one of the predicates.  Returns the store, the
    packs, every stated triple, the batch's canonical triples and the stats
    of the chain before the batch.
    """
    rng = random.Random(seed)
    vocab = Vocab(rng)
    if aliases:
        vocab.predicates.append(M3_EQUIVALENT_TO)
    family, constants = rand_rule_family(rng, vocab, "fam")
    packs = [family]
    if rng.random() < 0.5:
        packs.append(rand_rulepack(rng, vocab, "gen", max_rules=3))
    store, base = vocab.store(rng.randint(5, 40))
    extra = [
        Triple(rng.choice(vocab.subjects), rng.choice(vocab.predicates[:-1]), rng.choice(WORDS))
        for _ in range(rng.randint(0, 5))
    ]
    for rule in family.rules:  # ground some members' bodies, so that they fire
        binding = {name: rng.choice(vocab.subjects + vocab.objects + WORDS) for name in rule.body_variables()}
        for atom in rule.body:
            if rng.random() < 0.7:
                try:
                    extra.append(Triple(*(binding[p.name] if isinstance(p, Variable) else p for p in atom.positions())))
                except InvalidTriple:
                    pass
    links = []
    if aliases:
        nodes = [c for c in constants if isinstance(c, Iri)] or vocab.subjects
        others = vocab.subjects + [o for o in vocab.objects if isinstance(o, Iri)]
        links = [Triple(rng.choice(nodes), M3_EQUIVALENT_TO, rng.choice(nodes + others)) for _ in range(3)]
    for t in extra + links:
        store.insert(t, Loaded("extra"))
    before = forward_chain(store, RuleSet(packs))
    batch = vocab.graph(rng.randint(0, 6))
    inserted = {store.canonical(t) for t in batch if store.insert(t, Asserted("urn:dev:test"))}
    return store, packs, base + extra + links + batch, inserted, before


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), aliases=st.booleans())
@settings(max_examples=300, deadline=None)
def test_families_chain_as_their_rules_one_by_one(seed, aliases):
    by_delta, packs, facts, inserted, before = family_store_then_batch(seed, aliases)
    whole, _, _, _, _ = family_store_then_batch(seed, aliases)
    reference, _, _, _, _ = family_store_then_batch(seed, aliases)
    assert max(len(members) for _, members in RuleSet(packs).families) >= 2
    got = forward_chain(by_delta, RuleSet(packs), delta=inserted)
    want = forward_chain(whole, RuleSet(packs), delta=None)
    ref = whole_store_rounds(reference, packs)
    assert list(by_delta.snapshot().items()) == list(whole.snapshot().items())
    assert list(whole.snapshot().items()) == list(reference.snapshot().items())
    for stats in (got, want):
        assert (stats.rounds, stats.per_rule, stats.committed) == (ref.rounds, ref.per_rule, ref.committed)
    # a delta chain counts the bindings it forms; with the ones before, that is all of them
    assert want.guard_type_errors == ref.guard_type_errors
    assert got.guard_type_errors + (0 if got.whole_store else before.guard_type_errors) == ref.guard_type_errors
    rules = [r for p in packs for r in p.rules]
    closure = oracle_closure(set(facts), rules)
    links = [
        (t.subject.value, t.object.value)
        for t in closure
        if t.predicate == M3_EQUIVALENT_TO and isinstance(t.subject, Iri) and isinstance(t.object, Iri)
    ]
    if all(a == b for a, b in oracle_alias_classes(links).items()):  # no class of two IRIs
        assert set(by_delta) == closure


def _served_rule(rule: Rule, classes: dict[str, str]) -> Rule:
    """The rule with its constants in the canonical form the store serves."""
    body = tuple(
        TriplePattern(*(Iri(classes.get(t.value, t.value)) if isinstance(t, Iri) else t for t in p.positions()))
        for p in rule.body
    )
    return Rule(rule.id, body, rule.guards, rule.head)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), aliases=st.booleans(), use_delta=st.booleans())
@settings(max_examples=300, deadline=None)
def test_family_members_form_their_own_instances(seed, aliases, use_delta):
    # each member's heads and guard skips from one family join, against the
    # member's own application by the oracle
    store, packs, _, _, _ = family_store_then_batch(seed, aliases)
    # an atom that can match an equivalence statement binds terms verbatim,
    # which a later probe canonicalizes: plain unification does not model that
    assume(not store.has_aliases() or not RuleSet(packs).reads_equivalences)
    served = list(store)
    links = [(t.subject.value, t.object.value) for t in served if t.predicate == M3_EQUIVALENT_TO
             and isinstance(t.subject, Iri) and isinstance(t.object, Iri)]
    classes = oracle_alias_classes(links)
    rng = random.Random(seed)
    delta = set(rng.sample(served, rng.randint(0, len(served)))) if use_delta else None
    rules = RuleSet(packs)
    rules.resolve(store)
    for family, members in rules.families:
        fire = evaluate_rule(family, store, delta)
        for m, rule in enumerate(family.rules):
            triples, skips = oracle_rule_outcome(served, _served_rule(rule, classes), delta)
            own = fire.get(m, RuleFire(set()))
            assert (own.triples, own.guard_skips) == (triples, skips)


FAMILY_PACK = """
PACK p
RULE hot : IF ?o rdf:type ssn:Observation . ?o ssn:observedProperty m3:BodyTemperature . ?o ssn:observationResult ?v FILTER ?v > 38 THEN ?o m3:indicates m3:Fever .
RULE burning : IF ?obs rdf:type ssn:Observation . ?obs ssn:observedProperty m3:AmbientTemperature . ?obs ssn:observationResult ?t FILTER ?t > 60 THEN ?obs m3:indicates m3:FireRisk .
"""


def reading_of(property_name: str, value: Literal, seq: int) -> list[Triple]:
    obs = Iri(f"urn:obs:dev:{seq}")
    return [
        Triple(obs, make_iri("rdf:type"), make_iri("ssn:Observation")),
        Triple(obs, make_iri("ssn:observedProperty"), make_iri(property_name)),
        Triple(obs, make_iri("ssn:observationResult"), value),
    ]


def test_guard_type_errors_in_a_family_are_keyed_by_the_members_own_names():
    pack = parse_rulepack(FAMILY_PACK)
    rules = RuleSet([pack])
    [(family, members)] = rules.families
    assert (family.rules, members) == (pack.rules, (0, 1))
    high = Literal("high", XSD_STRING)
    store = store_with(
        reading_of("m3:BodyTemperature", high, 1)
        + reading_of("m3:AmbientTemperature", high, 2)
        + reading_of("m3:BodyTemperature", Literal("39", XSD_DOUBLE), 3)
    )
    rules.resolve(store)
    fire = evaluate_rule(family, store)
    assert fire[0].guard_skips == {frozenset({("o", Iri("urn:obs:dev:1")), ("v", high)})}
    assert fire[1].guard_skips == {frozenset({("obs", Iri("urn:obs:dev:2")), ("t", high)})}
    one_by_one = [evaluate_rule(rule, store) for rule in pack.rules]
    assert [f.guard_skips for f in one_by_one] == [fire[0].guard_skips, fire[1].guard_skips]
    stats = forward_chain(store, rules)
    assert stats.guard_type_errors == 2 == sum(f.guard_type_errors for f in one_by_one)
    assert stats.per_rule == {"hot": 1, "burning": 0}
    later = reading_of("m3:AmbientTemperature", Literal("hot", XSD_STRING), 4)
    for t in later:
        store.insert(t, Asserted("urn:dev:test"))
    assert forward_chain(store, rules, delta=set(later)).guard_type_errors == 1


def test_shipped_packs_are_one_family_and_a_round_no_atom_reads_evaluates_nothing(monkeypatch, fixtures_dir):
    packs = [parse_rulepack(p.read_text(encoding="utf-8")) for p in sorted((fixtures_dir / "rules").iterdir())]
    rules = RuleSet(packs)
    [(family, members)] = rules.families
    assert members == (0, 1, 2)
    assert family.constants == tuple(
        make_iri(f"m3:{name}") for name in ("SystolicBloodPressure", "BodyTemperature", "AmbientTemperature")
    )
    calls = []
    real = rules_module.evaluate_rule

    def counting(rule, *args):
        calls.append(rule)
        return real(rule, *args)

    monkeypatch.setattr(rules_module, "evaluate_rule", counting)
    fever = reading_of("m3:BodyTemperature", Literal("39.5", XSD_DOUBLE), 1)
    store = store_with(fever)
    stats = forward_chain(store, rules, delta=set(fever))
    # the second round's delta, one m3:indicates triple, seeds no atom
    assert (stats.rounds, stats.per_rule, calls) == (2, {"elevated-bp": 0, "fever": 1, "fire-risk": 0}, [family])


def test_a_rule_set_follows_alias_map_changes():
    # the seeding index is keyed by canonical predicates and the routes by
    # canonical constants: both move when a later alias renames them
    pack = parse_rulepack(
        "PACK p\n"
        "RULE rb : IF ?x <urn:rel:t> <urn:node:T> . ?x <urn:rel:q> <urn:node:b> THEN ?x <urn:rel:is> <urn:node:B> .\n"
        "RULE rc : IF ?y <urn:rel:t> <urn:node:T> . ?y <urn:rel:q> <urn:node:c> THEN ?y <urn:rel:is> <urn:node:C> .\n"
    )
    rules = RuleSet([pack])
    assert [members for _, members in rules.families] == [(0, 1)]
    t, T = Iri("urn:rel:t"), Iri("urn:node:T")
    q, is_ = Iri("urn:rel:q"), Iri("urn:rel:is")
    s1, s2, b = Iri("urn:node:s1"), Iri("urn:node:s2"), Iri("urn:node:b")
    store = store_with([Triple(s1, t, T), Triple(s2, t, T), Triple(s1, q, b)])
    assert forward_chain(store, rules, delta={Triple(s1, q, b)}).committed == [Triple(s1, is_, Iri("urn:node:B"))]
    for link in (Triple(q, M3_EQUIVALENT_TO, Iri("urn:rel:a")), Triple(b, M3_EQUIVALENT_TO, Iri("urn:node:a"))):
        store.insert(link, Loaded("links"))
    store.insert(Triple(s2, q, b), Asserted("urn:dev:test"))
    delta = {store.canonical(Triple(s2, q, b))}
    assert delta == {Triple(s2, Iri("urn:rel:a"), Iri("urn:node:a"))}
    assert forward_chain(store, rules, delta=delta).committed == [Triple(s2, is_, Iri("urn:node:B"))]


def test_a_family_opens_no_hole_in_an_atom_it_would_join_unbound():
    # a hole in the first atom, or in one that shares no variable with an
    # earlier atom, would make the family scan every triple of its predicate
    # where each member reads one (predicate, constant) bucket
    pack = parse_rulepack(
        "PACK p\n"
        "RULE a1 : IF ?x rdf:type <urn:c:A> . ?x <urn:p:v> ?v THEN ?x <urn:p:is> <urn:c:A> .\n"
        "RULE b1 : IF ?x rdf:type <urn:c:B> . ?x <urn:p:v> ?v THEN ?x <urn:p:is> <urn:c:B> .\n"
        "RULE a2 : IF ?x <urn:p:v> ?v . ?y rdf:type <urn:c:A> THEN ?x <urn:p:is> <urn:c:A> .\n"
        "RULE b2 : IF ?x <urn:p:v> ?v . ?y rdf:type <urn:c:B> THEN ?x <urn:p:is> <urn:c:B> .\n"
        "RULE a3 : IF ?x <urn:p:v> ?v . ?x rdf:type <urn:c:A> THEN ?x <urn:p:is> <urn:c:A> .\n"
        "RULE b3 : IF ?x <urn:p:v> ?v . ?x rdf:type <urn:c:B> THEN ?x <urn:p:is> <urn:c:B> .\n"
    )
    rules = RuleSet([pack])
    assert sorted(members for _, members in rules.families) == [(0,), (1,), (2,), (3,), (4, 5)]
