"""Shareable if-then rule packs and delta-driven forward chaining to fixpoint.

A rule joins its body patterns against the store, filters the resulting
bindings through numeric guards, and instantiates its head templates.
Safety (every head/guard variable bound in the body, enforced when a Rule
is constructed) guarantees that only ground terms already in the finite
store can appear in conclusions, so chaining always terminates.

Chaining is round-based: each round evaluates every rule against the store
as it stood when the round began, then commits the union of the
conclusions.  A round that commits nothing is the fixpoint.  Rounds are
semi-naive (Bancilhon & Ramakrishnan 1986): given the triples the previous
round committed (its delta), a round forms only the rule instances with at
least one body atom matching a delta triple, because every other instance
already fired in an earlier round.  A whole-store round stands in wherever
that shortcut is not exact: when the caller gives no delta, and when the
alias map can change (see forward_chain).  Either way round i commits
exactly the facts a plain whole-store round i would, so round counts stay
independent of rule order and the engine stays easy to check against a
brute-force closure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import AbstractSet, Callable, NamedTuple, Sequence

from .lexer import GrammarError, TokenCursor, parse_text, read_pattern
from .model import InvalidTriple, Term, Triple
from .store import M3_EQUIVALENT_TO, Inferred, Store, TriplePattern, Variable, layout

log = logging.getLogger(__name__)

#: guard operator -> its Python spelling
_OPERATORS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "!=": "!="}
GUARD_OPS = tuple(_OPERATORS)


class RuleSyntaxError(GrammarError):
    """Rule-pack text does not conform to the grammar."""


class RuleSafetyError(ValueError):
    """A head or guard variable is not bound by the rule body."""

    def __init__(self, rule_id: str, variables: list[str]):
        super().__init__(f"rule {rule_id!r}: unbound variables {', '.join(variables)}")
        self.rule_id = rule_id
        self.variables = variables


@dataclass(frozen=True)
class Guard:
    """Numeric comparison applied to a bound variable."""

    variable: str
    op: str
    constant: Fraction

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"bad guard operator {self.op!r}")


@dataclass(frozen=True)
class Rule:
    """An if-then rule; constructing an unsafe one raises RuleSafetyError."""

    id: str
    body: tuple[TriplePattern, ...]
    guards: tuple[Guard, ...]
    head: tuple[TriplePattern, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("empty rule id")
        if not self.body or not self.head:
            raise ValueError(f"rule {self.id!r}: body and head must be nonempty")
        violations = check_safety(self)
        if violations:
            raise RuleSafetyError(self.id, violations)
        # per seeding body atom, how the rule evaluates from it (_plan)
        object.__setattr__(self, "plans", {})

    def body_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.body:
            out |= p.variables()
        return out


@dataclass(frozen=True)
class RulePack:
    pack_id: str
    domains: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.pack_id:
            raise ValueError("empty pack id")
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"pack {self.pack_id!r}: duplicate rule ids")


@dataclass
class ChainStats:
    """What one forward_chain call did; see forward_chain for each field."""

    rounds: int
    derived: int
    per_rule: dict[str, int] = field(default_factory=dict)
    #: guard-skipped bindings, each counted once, in the round where it first forms
    guard_type_errors: int = 0
    committed: list[Triple] = field(default_factory=list)
    #: the first round evaluated the whole store, so guard_type_errors covers all of it
    whole_store: bool = False


def check_safety(rule: Rule) -> list[str]:
    """Head and guard variables not bound by the body, sorted; [] means safe."""
    bound = rule.body_variables()
    unbound: set[str] = set()
    for pattern in rule.head:
        unbound |= pattern.variables() - bound
    for guard in rule.guards:
        if guard.variable not in bound:
            unbound.add(guard.variable)
    return sorted(unbound)


# -- parsing ----------------------------------------------------------------


def read_guard(cursor: TokenCursor) -> Guard:
    """One ``?var op number`` guard; the FILTER keyword is already consumed."""
    var = cursor.expect("VAR")
    op = cursor.expect("OP")
    num = cursor.expect("NUMBER")
    return Guard(var.text, op.text, Fraction(Decimal(num.text)))


def _read_rule(cursor: TokenCursor) -> Rule:
    cursor.expect_keyword("RULE")
    rid = cursor.expect("NAME")
    cursor.expect("COLON")
    cursor.expect_keyword("IF")
    body = [read_pattern(cursor)]
    while cursor.peek().kind == "DOT":
        cursor.next()
        body.append(read_pattern(cursor))
    guards = []
    while cursor.at_keyword("FILTER"):
        cursor.next()
        guards.append(read_guard(cursor))
    cursor.expect_keyword("THEN")
    head = [read_pattern(cursor)]
    seen_final_dot = False
    while cursor.peek().kind == "DOT":
        cursor.next()
        nxt = cursor.peek()
        if nxt.kind == "EOF" or (nxt.kind == "NAME" and nxt.text == "RULE"):
            seen_final_dot = True
            break
        head.append(read_pattern(cursor))
        if cursor.peek().kind != "DOT":
            raise cursor.error(cursor.peek(), "expected '.' after head pattern")
    if not seen_final_dot:
        raise cursor.error(cursor.peek(), "rule must end with '.'")
    return Rule(rid.text, tuple(body), tuple(guards), tuple(head))


def _read_pack(cursor: TokenCursor) -> RulePack:
    cursor.expect_keyword("PACK")
    pack_tok = cursor.peek()
    if pack_tok.kind != "NAME":
        raise cursor.error(pack_tok, "expected pack id")
    pack_id = cursor.next().text
    domains = []
    while cursor.at_keyword("DOMAIN"):
        cursor.next()
        domains.append(cursor.expect("NAME").text)
    rules = []
    while cursor.at_keyword("RULE"):
        rules.append(_read_rule(cursor))
    return RulePack(pack_id, tuple(domains), tuple(rules))


def parse_rulepack(text: str) -> RulePack:
    """Parse a rule pack, expand prefixes; every rule is safe by construction.

    Raises RuleSyntaxError with a (line, column) position, or
    RuleSafetyError naming the offending rule and variables.
    """
    return parse_text(text, _read_pack, RuleSyntaxError)


def parse_pattern(text: str) -> TriplePattern:
    """One standalone triple pattern in the rule grammar's term syntax."""
    return parse_text(text, read_pattern, RuleSyntaxError)


# -- evaluation --------------------------------------------------------------


@dataclass
class RuleFire:
    triples: set[Triple]
    #: bindings skipped because a guard variable held a non-numeric term
    guard_skips: set[frozenset] = field(default_factory=set)

    @property
    def guard_type_errors(self) -> int:
        return len(self.guard_skips)


def _by_predicate(delta: AbstractSet[Triple]) -> dict[Term, list[Triple]]:
    groups: dict[Term, list[Triple]] = {}
    for t in delta:
        groups.setdefault(t.predicate, []).append(t)
    return groups


def _join_delta(rule: Rule, store: Store, delta: AbstractSet[Triple]) -> list[tuple[_Plan, list[tuple[Term, ...]]]]:
    """The rows of every body match that uses a delta triple, with the plan
    of each body atom that seeds some."""
    by_predicate = _by_predicate(delta)
    out = []
    for k, atom in enumerate(rule.body):
        # an atom with a constant predicate can only match delta triples of
        # that predicate's canonical form
        key = store.resolve_alias(atom.predicate)
        tries = delta if isinstance(key, Variable) else by_predicate.get(key)
        # a match binds the atom's variables, in atom.names order
        seeds = [tuple(b.values()) for _, b in store.match(atom, among=tries)] if tries else []
        if seeds:
            # atoms before k match only non-delta triples, so each binding is
            # formed once: at the first of its atoms that matches the delta
            plan = _plan(rule, k)
            early = store.join(plan.early, seeds, atom.names, exclude=delta)
            out.append((plan, store.join(plan.late, early, plan.joined)))
    return out


#: run(rows, skipped) -> the rows that pass every guard
_Guards = Callable[[list, list], list]

#: one guard's filter factory per operator, so six at most: a factory holds
#: no slot, constant or name
_GUARD_FACTORIES: dict[str, Callable[[int, int, int], _Guards]] = {}


def _unguarded(rows: list, skipped: list) -> list:
    return rows


def compile_guards(guards: Sequence[Guard], names: tuple[str, ...]) -> _Guards:
    """The filter of rows laid out as names through the guards, for rules
    and queries alike: run(rows, skipped) returns the rows that pass every
    guard.  The guards run in order, each over the rows the one before
    kept, so the first failing guard drops a row; a guard on a non-numeric
    term fails, and appends the row to skipped.

    Each operator's filter is generated once (_guard_source), so per row
    there is no Python call: a guard compares the term's cached ratio n/d
    with its constant c/e exactly, as n*e op c*d (both denominators are
    positive).
    """
    filters = [_guard(g, names.index(g.variable)) for g in guards]
    if len(filters) < 2:
        return filters[0] if filters else _unguarded

    def run(rows: list, skipped: list) -> list:
        for one in filters:
            rows = one(rows, skipped)
        return rows

    return run


def _guard(guard: Guard, slot: int) -> _Guards:
    factory = _GUARD_FACTORIES.get(guard.op)
    if factory is None:
        namespace: dict[str, Callable[[int, int, int], _Guards]] = {}
        exec(_guard_source(guard.op), {}, namespace)
        factory = _GUARD_FACTORIES[guard.op] = namespace["factory"]
    return factory(slot, *guard.constant.as_integer_ratio())


def _guard_source(op: str) -> str:
    """The source of one operator's filter factory, which takes the guard's
    slot s and its constant's numerator c and denominator e."""
    return "\n".join([
        "def factory(s, c, e):",
        " def run(rows, skipped):",
        "  out = []",
        "  append = out.append",
        "  for row in rows:",
        "   r = row[s].ratio",
        "   if r is None:",
        "    skipped.append(row)",
        "    continue",
        "   n, d = r",
        f"   if n * e {_OPERATORS[op]} c * d:",
        "    append(row)",
        "  return out",
        " return run",
    ])


class _Plan(NamedTuple):
    """How a rule evaluates from the matches of one body atom, the seeding
    one, or from the whole store: found once per rule and seeding atom."""

    early: tuple[TriplePattern, ...]  # the atoms before it, joined off the delta
    late: tuple[TriplePattern, ...]  # the atoms after it
    joined: tuple[str, ...]  # the layout of the rows that reach late
    names: tuple[str, ...]  # the layout of the finished rows
    guards: _Guards
    constants: tuple[Term, ...]  # the head constants
    heads: list[itemgetter]  # per head template, its terms from a row + constants


def _plan(rule: Rule, k: int | None) -> _Plan:
    """The plan of the rule seeded by its body atom k, or by the whole store
    when k is None."""
    plan = rule.plans.get(k)
    if plan is None:
        if k is None:
            early, seeded, late = (), (), rule.body
        else:
            early, seeded, late = rule.body[:k], rule.body[k].names, rule.body[k + 1:]
        joined = layout(early, seeded)
        names = layout(late, joined)
        constants = tuple(dict.fromkeys(
            p for template in rule.head for p in template.positions() if not isinstance(p, Variable)
        ))
        slot = {name: i for i, name in enumerate(names)}  # safety binds every head variable
        heads = [
            itemgetter(*(
                slot[p.name] if isinstance(p, Variable) else len(names) + constants.index(p)
                for p in template.positions()
            ))
            for template in rule.head
        ]
        guards = compile_guards(rule.guards, names)
        plan = rule.plans[k] = _Plan(early, late, joined, names, guards, constants, heads)
    return plan


def evaluate_rule(rule: Rule, store: Store, delta: AbstractSet[Triple] | None = None) -> RuleFire:
    """Ground head instantiations for every body match passing all guards.

    With a delta (stored triples), only body matches that use at least one
    delta triple count; the other atoms match anywhere in the store.  That
    is exact while the alias map is as it was when the delta was stored.

    Guards compare exact numeric values, so lexical form is irrelevant
    ("38.0" equals "38").  A guard variable bound to a non-numeric term
    skips that one binding and records it in guard_skips.  A head
    instantiation that cannot form a triple (a literal in the subject or
    predicate slot) is skipped.

    Bindings are Store.join's tuple rows.  Guards filter the finished rows
    through generated code (compile_guards), not the join step that binds
    their variable: in every shipped rule, benchmark query and delta
    seeding that is the last step producing rows, so pruning there saves
    nothing, and guard_skips would count partial bindings, not whole ones.
    Heads are read from each row's slots by one getter per template.
    """
    fire = RuleFire(set())
    if delta is None:
        plan = _plan(rule, None)
        joins = [(plan, store.join(plan.late, [()]))]
    else:
        joins = _join_delta(rule, store, delta)
    for plan, rows in joins:
        skipped: list[tuple[Term, ...]] = []
        for row in plan.guards(rows, skipped):
            row += plan.constants
            for head in plan.heads:
                try:
                    fire.triples.add(Triple(*head(row)))
                except InvalidTriple:
                    log.debug("rule %s: structurally invalid head instantiation skipped", rule.id)
        if skipped:
            fire.guard_skips.update(frozenset(zip(plan.names, row)) for row in skipped)
    return fire


def _triple_sort_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject.lexeme, t.predicate.lexeme, t.object.lexeme)


def forward_chain(
    store: Store, packs: list[RulePack], delta: AbstractSet[Triple] | None = None
) -> ChainStats:
    """Run all rules to fixpoint, inserting conclusions as Inferred(rule_id).

    delta holds the stored triples added since the store was last a fixpoint
    of these packs (on ingest, what the reading inserted); the first round
    then forms only rule instances that use one of them.  delta=None makes
    the first round evaluate the whole store, which is exact for any store.
    Each later round's delta is what the round before committed.  A round
    also evaluates the whole store when its delta holds an equivalence
    statement, or when some rule's head predicate is m3:equivalentTo or a
    variable: only then can the alias map change mid-chain, renaming
    triples outside the delta.  With the map fixed the store serves every
    other triple in canonical form, so delta rounds stay exact with aliases
    unless a body atom can match an equivalence statement (its predicate
    is m3:equivalentTo or a variable): such a statement is served verbatim,
    so a join that binds its terms from a canonical triple first misses it.
    While the store has aliases, a chain with such a rule evaluates the
    whole store every round.

    Every rule is evaluated against the store as of the start of the round;
    the round's conclusions are committed together afterwards, in rule
    order and sorted within a rule.  per_rule counts the triples each rule
    newly added (first producer wins when two rules derive the same triple
    in one round); every rule id appears in the map.  committed lists the
    added triples in commit order, each once, as served when the chain
    ends: an alias committed later renames triples committed before it, so
    every entry is in the store.  An entry renamed onto a stated triple is
    dropped (first write wins, so the store serves it as stated): every
    entry has Inferred provenance.  rounds includes the final empty round,
    and every other round commits, so rounds <= sum(per_rule.values()) + 1.
    While no rule derives an m3:equivalentTo statement the alias map stays
    fixed, committed keeps every commit, and so rounds <= derived + 1.
    guard_type_errors counts each guard-skipped binding once, in the round
    where it first forms: a delta round sees only bindings that use a delta
    triple, a whole-store round every binding in the store.  whole_store
    tells whether the first round was one; rules that derive equivalence
    statements make every round one, so a chain whose first round used a
    delta used one in all.
    """
    rules: list[Rule] = [r for pack in packs for r in pack.rules]
    whole_store_only = any(
        isinstance(h.predicate, Variable) or h.predicate == M3_EQUIVALENT_TO
        for r in rules
        for h in r.head
    )
    reads_equivalences = any(
        isinstance(a.predicate, Variable) or a.predicate == M3_EQUIVALENT_TO
        for r in rules
        for a in r.body
    )
    stats = ChainStats(rounds=0, derived=0, per_rule={r.id: 0 for r in rules})
    skipped: set[tuple[int, frozenset]] = set()
    while True:
        stats.rounds += 1
        if delta is not None and (
            whole_store_only
            or (reads_equivalences and store.has_aliases())
            or any(t.predicate == M3_EQUIVALENT_TO for t in delta)
        ):
            delta = None
        if stats.rounds == 1:
            stats.whole_store = delta is None
        pending: list[tuple[str, Triple]] = []
        for i, rule in enumerate(rules):
            fire = evaluate_rule(rule, store, delta)
            skipped.update((i, b) for b in fire.guard_skips)
            pending.extend((rule.id, t) for t in sorted(fire.triples, key=_triple_sort_key))
        committed: list[Triple] = []
        for rule_id, triple in pending:
            if store.insert(triple, Inferred(rule_id)):
                stats.per_rule[rule_id] += 1
                committed.append(store.canonical(triple))
        if not committed:
            break
        stats.committed.extend(committed)
        delta = set(committed)
    if whole_store_only:
        # a later commit may have aliased an earlier one, even onto a
        # stated triple: keep what the store serves as derived
        served = dict.fromkeys(map(store.canonical, stats.committed))
        stats.committed = [t for t in served if isinstance(store.provenance(t), Inferred)]
    stats.derived = len(stats.committed)
    stats.guard_type_errors = len(skipped)
    return stats
