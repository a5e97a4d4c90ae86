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

Rules are compiled once per set of packs (RuleSet) into families: rules
whose bodies differ only in one constant share one join per round and
dispatch its rows on the term bound in that constant's place (RuleFamily).
A round evaluates only the families with a body atom that can match its
delta, so ingest cost grows with the families a reading reaches, not with
the rules loaded.
"""

from __future__ import annotations

import logging
from collections import Counter
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


class FamilyFire(dict):
    """What evaluating a family formed: member position -> its RuleFire,
    for each member that some binding reached."""

    @property
    def triples(self) -> list[Triple]:
        """Every member's head instantiations, one entry per member forming one."""
        return [t for fire in self.values() for t in fire.triples]


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


class _Member(NamedTuple):
    """How one member of a family finishes the family's rows."""

    names: tuple[str, ...]  # the member's variable per row slot; the hole's is the fresh one
    guards: _Guards
    constants: tuple[Term, ...]  # the head constants
    heads: list[itemgetter]  # per head template, its terms from a row + constants


class _Plan(NamedTuple):
    """How a family evaluates from the matches of one body atom, the seeding
    one: found once per family and seeding atom."""

    early: tuple[TriplePattern, ...]  # the atoms before it, joined off the delta
    late: tuple[TriplePattern, ...]  # the atoms after it
    joined: tuple[str, ...]  # the layout of the rows that reach late
    hole: int | None  # the slot of the hole's term in the finished rows
    members: tuple[_Member, ...]


def _member(rule: Rule, names: tuple[str, ...]) -> _Member:
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
    return _Member(names, compile_guards(rule.guards, names), constants, heads)


class RuleFamily:
    """Rules evaluated as one, from one join.

    The members' bodies are equal up to variable renaming except for the
    constant in one subject or object position, the hole, of an atom whose
    predicate is a constant other than m3:equivalentTo (see _holes).  The
    family's body is its first member's with a fresh variable in the hole,
    and each row goes to the members whose constant, as the store serves it
    under the current alias map, is the term bound there.  Those rows are
    exactly the member's own bindings: the member's join step would have
    matched its constant canonicalized the same way, and the atom cannot
    match an equivalence statement, the one triple served verbatim.  Each
    member then runs its own guards and heads on its own rows, under its
    own variable names.  A rule with no partner is a family of one without
    a hole, and takes the same path.

    What depends on the alias map (the canonical predicate of each atom and
    the routes) is set by resolve, which RuleSet.resolve calls for each of
    its families; evaluate reads it as last resolved.
    """

    def __init__(self, rules: Sequence[Rule], hole: tuple[int, int] | None = None):
        self.rules = tuple(rules)
        body = self.rules[0].body
        #: the hole's variable; the member constants it is routed on
        self.fresh: str | None = None
        self.constants: tuple[Term, ...] = ()
        if hole is not None:
            k, i = hole
            used = frozenset().union(*(r.body_variables() for r in self.rules))
            self.fresh = "_"
            while self.fresh in used:
                self.fresh += "_"
            terms = list(body[k].positions())
            terms[i] = Variable(self.fresh)
            body = (*body[:k], TriplePattern(*terms), *body[k + 1:])
            self.constants = tuple(r.body[k].positions()[i] for r in self.rules)
        self.body = body
        #: per member, its name of each of the first member's variables
        self.renames = [_renaming(self.rules[0], r) for r in self.rules]
        self.plans: dict[int, _Plan] = {}
        #: per body atom, its predicate as the store serves it (None for a
        #: variable); canonical constant -> the members it routes rows to
        self.keys: list[Term | None] = []
        self._routes: dict[Term, list[int]] = {}

    def resolve(self, store: Store) -> None:
        """Key the seeding predicates and the routes by the terms the store
        serves under its current alias map."""
        self.keys = [
            None if isinstance(atom.predicate, Variable) else store.resolve_alias(atom.predicate)
            for atom in self.body
        ]
        self._routes = {}
        for m, constant in enumerate(self.constants):
            self._routes.setdefault(store.resolve_alias(constant), []).append(m)

    def _plan(self, k: int) -> _Plan:
        """The plan seeded by body atom k."""
        plan = self.plans.get(k)
        if plan is None:
            early, late = self.body[:k], self.body[k + 1:]
            joined = layout(early, self.body[k].names)
            names = layout(late, joined)
            members = tuple(
                _member(rule, tuple(rename.get(n, n) for n in names))
                for rule, rename in zip(self.rules, self.renames)
            )
            hole = names.index(self.fresh) if self.fresh else None
            plan = self.plans[k] = _Plan(early, late, joined, hole, members)
        return plan

    def _route(self, hole: int | None, rows: list) -> dict[int, list]:
        """Member position -> the rows for it."""
        if hole is None:
            return {0: rows}
        routes = self._routes
        out: dict[int, list] = {}
        for row in rows:
            for m in routes.get(row[hole], ()):
                out.setdefault(m, []).append(row)
        return out

    def evaluate(self, store: Store, delta: AbstractSet[Triple] | None = None) -> FamilyFire:
        """See evaluate_rule."""
        seeds: list = [(0, None)]  # a whole-store round: every binding extends a match of atom 0
        if delta is not None:
            # only the delta triples of the atom's predicate can match it
            groups: dict[Term, list[Triple]] = {}
            for t in delta:
                groups.setdefault(t.predicate, []).append(t)
            tries = (delta if key is None else groups.get(key) for key in self.keys)
            seeds = [(k, among) for k, among in enumerate(tries) if among]
        fires = FamilyFire()
        for k, among in seeds:
            # a match row binds the atom's variables, in atom.names order
            rows = store.match(self.body[k], among=among)
            if not rows:
                continue
            # atoms before k match only non-delta triples, so each binding
            # is formed once: at the first of its atoms that matches the delta
            plan = self._plan(k)
            early = store.join(plan.early, rows, self.body[k].names, exclude=delta)
            rows = store.join(plan.late, early, plan.joined)
            if not rows:
                continue
            for m, routed in self._route(plan.hole, rows).items():
                member = plan.members[m]
                fire = fires.get(m)
                if fire is None:
                    fire = fires[m] = RuleFire(set())
                skipped: list[tuple[Term, ...]] = []
                for row in member.guards(routed, skipped):
                    row += member.constants
                    for head in member.heads:
                        try:
                            fire.triples.add(Triple(*head(row)))
                        except InvalidTriple:
                            log.debug("rule %s: structurally invalid head instantiation skipped",
                                      self.rules[m].id)
                # a skipped binding is the member's own: the hole holds its constant
                fire.guard_skips.update(
                    frozenset(pair for pair in zip(member.names, row) if pair[0] != self.fresh)
                    for row in skipped
                )
        return fires


def _renaming(first: Rule, member: Rule) -> dict[str, str]:
    """first's variable -> member's, of two bodies equal up to renaming."""
    return {
        p.name: q.name
        for a, b in zip(first.body, member.body)
        for p, q in zip(a.positions(), b.positions())
        if isinstance(p, Variable)
    }


def evaluate_rule(
    rule: Rule | RuleFamily, store: Store, delta: AbstractSet[Triple] | None = None
) -> RuleFire | FamilyFire:
    """Ground head instantiations for every body match passing all guards:
    a RuleFire for a rule, a FamilyFire, one per member, for a family.

    With a delta (stored triples), only body matches that use at least one
    delta triple count; the other atoms match anywhere in the store.  That
    is exact while the alias map is as it was when the delta was stored.
    Without one, the same path is seeded by every match of the first atom.

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

    A family is evaluated as its RuleSet last resolved it (RuleSet.resolve);
    a rule is evaluated as a family of one, resolved for this call.
    """
    if isinstance(rule, Rule):
        family = RuleFamily((rule,))
        family.resolve(store)
        return family.evaluate(store, delta).get(0) or RuleFire(set())
    return rule.evaluate(store, delta)


# -- compilation -------------------------------------------------------------


def _holes(body: tuple[TriplePattern, ...]) -> list[tuple[int, int]]:
    """(atom, position) of each constant subject or object that a family may
    route on: its atom's predicate is a constant other than m3:equivalentTo,
    and the atom shares a variable with an earlier one.  Joins run in body
    order, so then every plan joins the hole's atom with a variable bound,
    as its members join it with their constant too; a hole in the first
    atom would make a whole-store round scan every triple of its predicate.
    """
    out = []
    seen: frozenset[str] = frozenset()
    for k, atom in enumerate(body):
        if seen & atom.variables() and not _reads_links(atom):
            out += [(k, i) for i in (0, 2) if not isinstance(atom.positions()[i], Variable)]
        seen |= atom.variables()
    return out


def _shape(body: tuple[TriplePattern, ...], hole: tuple[int, int]) -> tuple:
    """The body up to variable renaming, each variable numbered by its first
    occurrence, with None in the hole."""
    numbers: dict[str, int] = {}
    return tuple(
        None if (k, i) == hole
        else numbers.setdefault(p.name, len(numbers)) if isinstance(p, Variable)
        else p
        for k, atom in enumerate(body)
        for i, p in enumerate(atom.positions())
    )


def _families(rules: Sequence[Rule]) -> list[tuple[RuleFamily, tuple[int, ...]]]:
    """The rules partitioned into families, each with its members' positions
    in rules: greedily, the largest family first."""
    keys = [[(hole, _shape(r.body, hole)) for hole in _holes(r.body)] for r in rules]
    left = list(range(len(rules)))
    out = []
    while left:
        counts = Counter(key for i in left for key in keys[i])
        best, n = max(counts.items(), key=itemgetter(1), default=(None, 0))
        if n < 2:
            break
        members = tuple(i for i in left if best in keys[i])
        out.append((RuleFamily([rules[i] for i in members], best[0]), members))
        left = [i for i in left if i not in members]
    out += [(RuleFamily((rules[i],)), (i,)) for i in left]
    return out


def _reads_links(pattern: TriplePattern) -> bool:
    """Whether the pattern can match or form an equivalence statement."""
    return isinstance(pattern.predicate, Variable) or pattern.predicate == M3_EQUIVALENT_TO


class RuleSet:
    """Rule packs compiled for forward_chain, once per set of packs: the
    rules in order, their families, and the facts about them that a chain
    would otherwise recompute.

    A round evaluates only the families with an atom that can match its
    delta, found through an index from the canonical predicate of each body
    atom.  The index and every family's alias-dependent keys are resolved
    against one store, again after each change of its alias map (resolve).
    """

    def __init__(self, packs: Sequence[RulePack]):
        self.rules: list[Rule] = [r for pack in packs for r in pack.rules]
        #: rule id -> the pack defining it (Gateway.set_rulepack keeps rule
        #: ids unique among the active packs)
        self.owners: dict[str, RulePack] = {r.id: pack for pack in packs for r in pack.rules}
        self.per_rule = dict.fromkeys((r.id for r in self.rules), 0)
        #: each rule's provenance, built once and shared by all it derives
        self.inferred = [Inferred(r.id) for r in self.rules]
        # only a rule that derives an equivalence statement changes the alias map mid-chain
        self.whole_store_only = any(_reads_links(h) for r in self.rules for h in r.head)
        self.reads_equivalences = any(_reads_links(a) for r in self.rules for a in r.body)
        self.families = _families(self.rules)
        #: the families with a variable predicate: they can match any delta triple
        self._wild = {
            f
            for f, (family, _) in enumerate(self.families)
            if any(isinstance(atom.predicate, Variable) for atom in family.body)
        }
        #: canonical predicate -> the families with an atom of it
        self._index: dict[Term, set[int]] = {}
        self._resolved_for: tuple[Store | None, int] = (None, -1)

    def resolve(self, store: Store) -> None:
        """Resolve the index and every family (RuleFamily.resolve) against
        the store's alias map, unless they already are."""
        if self._resolved_for == (store, store.alias_version):
            return
        self._index = {}
        for f, (family, _) in enumerate(self.families):
            family.resolve(store)
            for key in family.keys:
                if key is not None:
                    self._index.setdefault(key, set()).add(f)
        self._resolved_for = (store, store.alias_version)

    def reached(
        self, store: Store, delta: AbstractSet[Triple] | None
    ) -> list[tuple[RuleFamily, tuple[int, ...]]]:
        """(family, its members' rule positions) for each family a round
        evaluates, resolved against the store: every family when delta is
        None, else those with an atom that can match a delta triple."""
        self.resolve(store)
        if delta is None:
            return self.families
        reached = set(self._wild)
        for predicate in {t.predicate for t in delta}:
            reached.update(self._index.get(predicate, ()))
        return [self.families[f] for f in sorted(reached)]


def _triple_sort_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject.lexeme, t.predicate.lexeme, t.object.lexeme)


def forward_chain(store: Store, rules: RuleSet, delta: AbstractSet[Triple] | None = None) -> ChainStats:
    """Run all rules of the compiled packs to fixpoint, inserting
    conclusions with their rule's one Inferred (RuleSet.inferred).

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

    Every rule is evaluated against the store as of the start of the round,
    family by family (RuleFamily); the round's conclusions are committed
    together afterwards, in rule order and sorted within a rule.  per_rule
    counts the triples each rule newly added (first producer wins when two
    rules derive the same triple in one round); every rule id appears in
    the map.  committed lists the
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
    stats = ChainStats(rounds=0, derived=0, per_rule=dict(rules.per_rule))
    skipped: set[tuple[int, frozenset]] = set()
    while True:
        stats.rounds += 1
        if delta is not None and (
            rules.whole_store_only
            or (rules.reads_equivalences and store.has_aliases())
            or any(t.predicate == M3_EQUIVALENT_TO for t in delta)
        ):
            delta = None
        if stats.rounds == 1:
            stats.whole_store = delta is None
        found: dict[int, RuleFire] = {}
        for family, members in rules.reached(store, delta):
            for m, fire in evaluate_rule(family, store, delta).items():
                found[members[m]] = fire
        # every family was evaluated before this first insert
        committed: list[Triple] = []
        for i in sorted(found):
            fire = found[i]
            skipped.update((i, b) for b in fire.guard_skips)
            prov = rules.inferred[i]
            for triple in sorted(fire.triples, key=_triple_sort_key):
                if store.insert(triple, prov):
                    stats.per_rule[prov.rule_id] += 1
                    committed.append(store.canonical(triple))
        if not committed:
            break
        stats.committed.extend(committed)
        delta = set(committed)
    if rules.whole_store_only:
        # a later commit may have aliased an earlier one, even onto a
        # stated triple: keep what the store serves as derived
        served = dict.fromkeys(map(store.canonical, stats.committed))
        stats.committed = [t for t in served if isinstance(store.provenance(t), Inferred)]
    stats.derived = len(stats.committed)
    stats.guard_type_errors = len(skipped)
    return stats
