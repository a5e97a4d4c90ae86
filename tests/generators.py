"""Seeded random generators shared by the property and acceptance tests.

Everything takes an explicit random.Random so runs are reproducible and
the acceptance suite can pin instance counts exactly.
"""

from __future__ import annotations

import random
import string

from knotgate.model import (
    Blank,
    Iri,
    Literal,
    Term,
    Triple,
    XSD_DOUBLE,
    XSD_LONG,
    XSD_STRING,
    serialize_term,
)
from knotgate.query import Query
from knotgate.rules import GUARD_OPS, Guard, Rule, RulePack
from knotgate.store import Store, Loaded, TriplePattern, Variable

from fractions import Fraction

_IRI_BODY = string.ascii_letters + string.digits + "-._~/#?@!$&*+,;="
_LEXICAL_EXTRAS = '"\\\n\r\t\x0b\N{DEGREE SIGN}\N{GREEK SMALL LETTER ALPHA}'


def rand_iri(rng: random.Random, max_len: int = 12) -> Iri:
    scheme = rng.choice(["urn", "http", "tag"])
    body = "".join(rng.choice(_IRI_BODY) for _ in range(rng.randint(1, max_len)))
    return Iri(f"{scheme}:{body}")


def rand_blank(rng: random.Random) -> Blank:
    label = "".join(
        rng.choice(string.ascii_letters + string.digits + "_")
        for _ in range(rng.randint(1, 8))
    )
    return Blank(label)


def rand_string_literal(rng: random.Random) -> Literal:
    chars = string.ascii_letters + string.digits + " .,:" + _LEXICAL_EXTRAS
    lexical = "".join(rng.choice(chars) for _ in range(rng.randint(0, 16)))
    return Literal(lexical, XSD_STRING)


def rand_numeric_literal(rng: random.Random) -> Literal:
    if rng.random() < 0.5:
        return Literal(str(rng.randint(-1000, 1000)), XSD_LONG)
    lexical = f"{rng.uniform(-100, 100):.{rng.randint(0, 4)}f}"
    return Literal(lexical, XSD_DOUBLE)


def rand_term(rng: random.Random) -> Term:
    roll = rng.random()
    if roll < 0.5:
        return rand_iri(rng)
    if roll < 0.65:
        return rand_blank(rng)
    if roll < 0.85:
        return rand_numeric_literal(rng)
    return rand_string_literal(rng)


def rand_triple(rng: random.Random) -> Triple:
    subject = rand_blank(rng) if rng.random() < 0.2 else rand_iri(rng)
    return Triple(subject, rand_iri(rng), rand_term(rng))


def rand_graph(rng: random.Random, max_triples: int = 20) -> list[Triple]:
    return [rand_triple(rng) for _ in range(rng.randint(0, max_triples))]


# -- structured vocabulary for joins, rules, and queries ---------------------


class Vocab:
    """Small pools of terms so random patterns actually join."""

    def __init__(self, rng: random.Random, subjects: int = 8, predicates: int = 4, objects: int = 6):
        self.subjects = [Iri(f"urn:node:s{i}") for i in range(subjects)]
        self.predicates = [Iri(f"urn:rel:p{i}") for i in range(predicates)]
        self.objects: list[Term] = [Iri(f"urn:node:o{i}") for i in range(objects)]
        self.objects += [Literal(str(v), XSD_DOUBLE) for v in (0, 10, 25.5, 38, 41.2, 100)]
        self.rng = rng

    def triple(self) -> Triple:
        return Triple(
            self.rng.choice(self.subjects),
            self.rng.choice(self.predicates),
            self.rng.choice(self.objects + self.subjects),
        )

    def graph(self, n: int) -> list[Triple]:
        return [self.triple() for _ in range(n)]

    def store(self, n: int) -> tuple[Store, list[Triple]]:
        store = Store()
        triples = self.graph(n)
        for t in triples:
            store.insert(t, Loaded("seed"))
        return store, triples


def rand_pattern(rng: random.Random, vocab: Vocab, variables: list[str]) -> TriplePattern:
    def pos(pool: list, var_chance: float):
        if rng.random() < var_chance:
            return Variable(rng.choice(variables))
        return rng.choice(pool)

    return TriplePattern(
        pos(vocab.subjects, 0.6),
        pos(vocab.predicates, 0.3),
        pos(vocab.objects + vocab.subjects, 0.6),
    )


def rand_safe_rule(rng: random.Random, vocab: Vocab, rule_id: str) -> Rule:
    """A safe rule: heads and guards only use body variables.

    Head subject/predicate variables are drawn from body subject/predicate
    positions so instantiation yields structurally valid triples.
    """
    variables = ["a", "b", "c", "d"]
    body = tuple(
        rand_pattern(rng, vocab, variables) for _ in range(rng.choice([1, 1, 2, 2, 3]))
    )
    subject_vars = [p.subject.name for p in body if isinstance(p.subject, Variable)]
    predicate_vars = [p.predicate.name for p in body if isinstance(p.predicate, Variable)]
    object_vars = [p.object.name for p in body if isinstance(p.object, Variable)]
    all_vars = sorted(set(subject_vars + predicate_vars + object_vars))

    guards = []
    if object_vars and rng.random() < 0.6:
        guards.append(
            Guard(
                rng.choice(object_vars),
                rng.choice(GUARD_OPS),
                Fraction(rng.choice([0, 10, 25, 38, 50, 100])),
            )
        )

    def head_subject():
        if subject_vars and rng.random() < 0.5:
            return Variable(rng.choice(subject_vars))
        return rng.choice(vocab.subjects)

    def head_predicate():
        if predicate_vars and rng.random() < 0.3:
            return Variable(rng.choice(predicate_vars))
        return rng.choice(vocab.predicates)

    def head_object():
        if all_vars and rng.random() < 0.5:
            return Variable(rng.choice(all_vars))
        return rng.choice(vocab.objects + vocab.subjects)

    head = tuple(
        TriplePattern(head_subject(), head_predicate(), head_object())
        for _ in range(rng.randint(1, 2))
    )
    return Rule(rule_id, body, tuple(guards), head)


def rand_rulepack(rng: random.Random, vocab: Vocab, pack_id: str, max_rules: int = 5) -> RulePack:
    n = rng.randint(1, max_rules)
    rules = tuple(rand_safe_rule(rng, vocab, f"{pack_id}-r{i}") for i in range(n))
    return RulePack(pack_id, ("generated",), rules)


def rand_query(rng: random.Random, vocab: Vocab) -> Query:
    """A safe query whose patterns stay connected enough to join cheaply."""
    variables = ["x", "y", "z"]
    patterns = [rand_pattern(rng, vocab, variables)]
    while len(patterns) < 3 and rng.random() < 0.5:
        candidate = rand_pattern(rng, vocab, variables)
        shared = candidate.variables() & set().union(*(p.variables() for p in patterns))
        if not shared and candidate.concrete_count() == 0:
            continue  # would explode into a full cross product
        patterns.append(candidate)
    bound = sorted(set().union(*(p.variables() for p in patterns)))
    if not bound:
        patterns[0] = TriplePattern(Variable("x"), patterns[0].predicate, patterns[0].object)
        bound = ["x"]
    select = tuple(rng.sample(bound, rng.randint(1, len(bound))))
    filters = ()
    if rng.random() < 0.4:
        filters = (
            Guard(rng.choice(bound), rng.choice(GUARD_OPS), Fraction(rng.choice([0, 10, 38, 50]))),
        )
    limit = rng.choice([None, None, None, rng.randint(1, 5)])
    return Query(select, tuple(patterns), filters, limit)


def query_text(query: Query) -> str:
    """A query from rand_query as grammar text, every term serialized."""

    def spell(term) -> str:
        return f"?{term.name}" if isinstance(term, Variable) else serialize_term(term)

    where = " . ".join(" ".join(map(spell, p.positions())) for p in query.patterns)
    filters = "".join(f" FILTER ?{g.variable} {g.op} {g.constant.numerator}" for g in query.filters)
    limit = "" if query.limit is None else f" LIMIT {query.limit}"
    return f"SELECT {' '.join('?' + n for n in query.select)} WHERE {{ {where} }}{filters}{limit}"


def rand_rule_family(
    rng: random.Random, vocab: Vocab, pack_id: str, max_members: int = 4
) -> tuple[RulePack, list[Term]]:
    """Rules of one body shape that differ in one constant, and those constants.

    The constant sits in the subject or object of a body atom after the
    first, with a constant predicate other than m3:equivalentTo, that shares
    a variable with an earlier atom (rules.RuleFamily opens a hole only
    there).  Each member renames the
    shape's variables its own way, draws its constant from a pool of two or
    three (so members may share one, or alias one another in a store with
    aliases), and has its own guards and heads over its own variables;
    heads draw from a small pool, so members often derive the same triple,
    and now and then use the last predicate (m3:equivalentTo, when the
    vocabulary has it).
    """
    variables = ["a", "b", "c", "d"]
    predicates = [p for p in vocab.predicates if p.value != "urn:knotgate:m3#equivalentTo"]
    body = [rand_pattern(rng, vocab, variables) for _ in range(rng.choice([2, 2, 2, 3]))]
    k, i = rng.randrange(1, len(body)), rng.choice([0, 2])
    earlier = sorted(set().union(*(p.variables() for p in body[:k])))
    if not earlier:
        earlier = ["a"]
        body[0] = TriplePattern(Variable("a"), body[0].predicate, body[0].object)
    terms = list(body[k].positions())
    terms[1] = rng.choice(predicates)
    terms[2 - i] = Variable(rng.choice(earlier))  # shared with an earlier atom
    pool = vocab.subjects if i == 0 else vocab.objects + vocab.subjects
    terms[i] = pool[0]  # replaced by each member's own constant
    body[k] = TriplePattern(*terms)
    constants = rng.sample(pool, rng.randint(2, 3))
    names = sorted(set().union(*(p.variables() for p in body)))
    members = []
    for m in range(rng.randint(2, max_members)):
        own = dict(zip(names, rng.sample(["a", "b", "c", "d", "x", "y", "z", "w"], len(names))))

        def rename(term, position):
            if (position[0], position[1]) == (k, i):
                return rng.choice(constants)
            return Variable(own[term.name]) if isinstance(term, Variable) else term

        member_body = tuple(
            TriplePattern(*(rename(t, (j, n)) for n, t in enumerate(p.positions())))
            for j, p in enumerate(body)
        )
        subject_vars = [p.subject.name for p in member_body if isinstance(p.subject, Variable)]
        object_vars = [p.object.name for p in member_body if isinstance(p.object, Variable)]
        bound = sorted(set().union(*(p.variables() for p in member_body)))
        guards = ()
        if object_vars and rng.random() < 0.6:
            guards = (Guard(rng.choice(object_vars), rng.choice(GUARD_OPS), Fraction(rng.choice([0, 10, 38, 50]))),)
        head = tuple(
            TriplePattern(
                Variable(rng.choice(subject_vars)) if subject_vars and rng.random() < 0.6 else vocab.subjects[0],
                rng.choice(vocab.predicates[:2] if rng.random() < 0.9 else vocab.predicates[-1:]),
                Variable(rng.choice(bound)) if bound and rng.random() < 0.5 else rng.choice(vocab.objects[:2]),
            )
            for _ in range(rng.randint(1, 2))
        )
        members.append(Rule(f"{pack_id}-m{m}", member_body, guards, head))
    return RulePack(pack_id, ("generated",), tuple(members)), constants


def fresh_pack(pack: RulePack) -> RulePack:
    """The pack with every body pattern built afresh, so that none holds a
    step compiled before."""
    rules = tuple(
        Rule(r.id, tuple(TriplePattern(*p.positions()) for p in r.body), r.guards, r.head) for r in pack.rules
    )
    return RulePack(pack.pack_id, pack.domains, rules)


def compiled_steps(patterns) -> set:
    """(pattern identity, step key) of each step compiled on the patterns."""
    return {(id(p), key) for p in patterns for key in p.steps}
