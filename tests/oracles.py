"""Independent reference implementations the engines are checked against.

Deliberately naive: linear scans, nested loops, and set fixpoints with
their own unification, so they share no evaluation machinery with the
code under test.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from knotgate.model import InvalidTriple, Literal, NUMERIC_DATATYPES, Term, Triple
from knotgate.query import Query
from knotgate.rules import Guard, Rule
from knotgate.store import TriplePattern, Variable


def oracle_unify(
    pattern: TriplePattern, triple: Triple, binding: dict[str, Term] | None = None
) -> dict[str, Term] | None:
    result = dict(binding or {})
    pairs = [
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ]
    for pat, actual in pairs:
        if isinstance(pat, Variable):
            if pat.name in result:
                if result[pat.name] != actual:
                    return None
            else:
                result[pat.name] = actual
        else:
            if pat != actual:
                return None
    return result


def oracle_match(triples: list[Triple], pattern: TriplePattern) -> list[tuple[Triple, dict]]:
    out = []
    for t in triples:
        b = oracle_unify(pattern, t)
        if b is not None:
            out.append((t, b))
    return out


def _lexical_fraction(term: Term) -> Fraction | None:
    if isinstance(term, Literal) and term.datatype in NUMERIC_DATATYPES:
        return Fraction(Decimal(term.lexical))
    return None


def _guard_holds(guard: Guard, value: Fraction) -> bool:
    c = guard.constant
    return {
        "<": value < c,
        "<=": value <= c,
        ">": value > c,
        ">=": value >= c,
        "=": value == c,
        "!=": value != c,
    }[guard.op]


def _instantiate(pattern: TriplePattern, binding: dict[str, Term]) -> Triple:
    def resolve(p):
        return binding[p.name] if isinstance(p, Variable) else p

    return Triple(resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object))


def oracle_query(triples: list[Triple], query: Query) -> set[tuple[Term, ...]]:
    """All satisfying select-projections via nested loops over the triples."""
    rows: set[tuple[Term, ...]] = set()

    def recurse(i: int, binding: dict[str, Term]) -> None:
        if i == len(query.patterns):
            for guard in query.filters:
                value = _lexical_fraction(binding[guard.variable])
                if value is None or not _guard_holds(guard, value):
                    return
            rows.add(tuple(binding[name] for name in query.select))
            return
        for t in triples:
            extended = oracle_unify(query.patterns[i], t, binding)
            if extended is not None:
                recurse(i + 1, extended)

    recurse(0, {})
    return rows


def oracle_rule_fire(facts: set[Triple], rule: Rule) -> set[Triple]:
    """All head instantiations producible from the facts in one application."""
    out: set[Triple] = set()

    def recurse(i: int, binding: dict[str, Term]) -> None:
        if i == len(rule.body):
            for guard in rule.guards:
                value = _lexical_fraction(binding[guard.variable])
                if value is None or not _guard_holds(guard, value):
                    return
            for template in rule.head:
                try:
                    out.add(_instantiate(template, binding))
                except InvalidTriple:
                    pass  # same skip the engine applies
            return
        for fact in facts:
            extended = oracle_unify(rule.body[i], fact, binding)
            if extended is not None:
                recurse(i + 1, extended)

    recurse(0, {})
    return out


def oracle_rule_outcome(
    facts: list[Triple], rule: Rule, delta: set[Triple] | None = None
) -> tuple[set[Triple], set[frozenset]]:
    """One application of the rule, binding by binding: the head
    instantiations of the bindings that pass every guard, and the bindings
    (as frozensets of their items) whose first failing guard met a
    non-numeric term.  With a delta, only bindings whose matched facts
    include a delta triple count."""
    bindings: list[tuple[dict[str, Term], bool]] = []

    def recurse(i: int, binding: dict[str, Term], used: bool) -> None:
        if i == len(rule.body):
            bindings.append((binding, used))
            return
        for fact in facts:
            extended = oracle_unify(rule.body[i], fact, binding)
            if extended is not None:
                recurse(i + 1, extended, used or (delta is not None and fact in delta))

    recurse(0, {}, delta is None)
    triples: set[Triple] = set()
    skips: set[frozenset] = set()
    for binding, used in bindings:
        if not used:
            continue
        for guard in rule.guards:
            value = _lexical_fraction(binding[guard.variable])
            if value is None:
                skips.add(frozenset(binding.items()))
                break
            if not _guard_holds(guard, value):
                break
        else:
            for template in rule.head:
                try:
                    triples.add(_instantiate(template, binding))
                except InvalidTriple:
                    pass  # same skip the engine applies
    return triples, skips


def oracle_closure(facts: set[Triple], rules: list[Rule]) -> set[Triple]:
    """Least fixpoint of the rules over the facts, by plain iteration."""
    current = set(facts)
    while True:
        fresh: set[Triple] = set()
        for rule in rules:
            fresh |= oracle_rule_fire(current, rule)
        if fresh <= current:
            return current
        current |= fresh


def oracle_alias_classes(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """IRI text -> class minimum, by repeated merging of plain sets."""
    classes: list[set[str]] = []
    for a, b in pairs:
        hits = [c for c in classes if a in c or b in c]
        merged = {a, b}
        for c in hits:
            merged |= c
            classes.remove(c)
        classes.append(merged)
    out: dict[str, str] = {}
    for c in classes:
        rep = min(c)
        for member in c:
            out[member] = rep
    return out
