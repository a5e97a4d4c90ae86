"""SELECT queries over the store: basic graph patterns, numeric filters, LIMIT.

Grammar: ``SELECT ?v+ WHERE { pattern (. pattern)* } (FILTER guard)* (LIMIT n)?``
with the same term and guard lexemes as the rule grammar.  Evaluation is
one Store.join over the patterns, cheapest index bucket first, so a query
reads one store snapshot; the finished tuple rows pass the generated guard
filter rules use (rules.compile_guards), and an itemgetter over their slots
projects them.  Rows are distinct and ordered by their terms' lexemes (the
serialized terms), compared column by column from the first select
variable.  A set makes them distinct only when the select list drops a
variable the join binds: rows keeping every one are distinct as joined, and
reach the sort in join order.  LIMIT n first keeps the rows whose first
lexeme is at most the n-th smallest one, found by a heap of those strings,
and then sorts only those rows by the whole key.

Queries are prepared once.  parse_query keeps the safety-checked Query of
each (text, presumed_bound) pair it parsed, for the PREPARED_QUERIES most
recently used pairs.  A text longer than PREPARED_TEXT_MAX characters is
parsed on every call and never kept, so the kept texts hold at most
PREPARED_QUERIES * PREPARED_TEXT_MAX characters whatever clients send; an
error is raised afresh on every call.  A Query keeps its plans as a pattern
keeps its steps: per (prebound names, seed pattern), the join order, the
guard filter and the select projection.  Which pattern seeds the join
depends on the store, so evaluate_query costs the patterns on every call;
the rows are never kept, as every call joins the live store.  A
composition's lookup is prepared further when it is registered
(prepare_query): every plan and step it runs for its trigger's bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop
from itertools import compress
from operator import itemgetter
from typing import AbstractSet, Callable, Mapping, NamedTuple

from .lexer import GrammarError, TokenCursor, parse_text, read_pattern
from .model import Term
from .rules import Guard, compile_guards, read_guard
from .store import Store, TriplePattern, layout, prepare


class QuerySyntaxError(GrammarError):
    """Query text does not conform to the grammar."""


class UnsafeQuery(ValueError):
    """A selected or filtered variable does not occur in any pattern."""

    def __init__(self, variable: str):
        super().__init__(f"variable ?{variable} does not occur in any pattern")
        self.variable = variable


@dataclass(frozen=True)
class Query:
    select: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Guard, ...]
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.select or not self.patterns:
            raise ValueError("select list and patterns must be nonempty")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")
        # the query's plans, keyed as _plan keys them: set here, as a
        # prepared query is evaluated many times
        object.__setattr__(self, "plans", {})

    def pattern_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.patterns:
            out |= p.variables()
        return out


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple[Term, ...]]


def check_query_safety(query: Query, presumed_bound: frozenset[str] = frozenset()) -> None:
    """Raise UnsafeQuery for the first select/filter variable bound nowhere."""
    bound = query.pattern_variables() | presumed_bound
    for name in query.select:
        if name not in bound:
            raise UnsafeQuery(name)
    for guard in query.filters:
        if guard.variable not in bound:
            raise UnsafeQuery(guard.variable)


def _read_query(cursor: TokenCursor) -> Query:
    cursor.expect_keyword("SELECT")
    select = [cursor.expect("VAR").text]
    while cursor.peek().kind == "VAR":
        select.append(cursor.next().text)
    cursor.expect_keyword("WHERE")
    cursor.expect("LBRACE")
    patterns = [read_pattern(cursor)]
    while cursor.peek().kind == "DOT":
        cursor.next()
        patterns.append(read_pattern(cursor))
    cursor.expect("RBRACE")
    filters = []
    while cursor.at_keyword("FILTER"):
        cursor.next()
        filters.append(read_guard(cursor))
    limit = None
    if cursor.at_keyword("LIMIT"):
        cursor.next()
        num = cursor.expect("NUMBER")
        try:
            limit = int(num.text) if num.text.isdigit() else 0
        except ValueError:  # more digits than int() converts
            raise cursor.error(num, "LIMIT out of range") from None
        if limit <= 0:
            raise cursor.error(num, "LIMIT must be a positive integer")
    return Query(tuple(select), tuple(patterns), tuple(filters), limit)


#: how many prepared queries parse_query keeps, least recently used out first
PREPARED_QUERIES = 256
#: the longest query text parse_query keeps, in characters: HTTP request
#: lines run to 64 KB, so this bounds the memory clients' texts can hold
PREPARED_TEXT_MAX = 4096


def parse_query(text: str, presumed_bound: AbstractSet[str] = frozenset()) -> Query:
    """Parse and safety-check a query, once per (text, presumed_bound) pair
    while it stays among the PREPARED_QUERIES most recently used.

    presumed_bound names variables supplied externally at evaluation time
    (composition pipelines bind trigger variables this way); they count as
    bound for the safety check.
    """
    if len(text) > PREPARED_TEXT_MAX:
        return _prepare.__wrapped__(text, frozenset(presumed_bound))
    return _prepare(text, frozenset(presumed_bound))


@lru_cache(maxsize=PREPARED_QUERIES)
def _prepare(text: str, presumed_bound: frozenset[str]) -> Query:
    query = parse_text(text, _read_query, QuerySyntaxError)
    check_query_safety(query, presumed_bound)
    return query


class _Plan(NamedTuple):
    """How a query evaluates for one choice of prebound names and seed."""

    patterns: tuple[TriplePattern, ...]  # the join order, the seed first
    guards: Callable[[list, list], list]  # compile_guards' filter of the join's rows
    select: itemgetter  # the select variables' slots in a row
    repeats: bool  # whether two rows can project to one


def _plan(query: Query, names: tuple[str, ...], first: int) -> _Plan:
    """The query's plan for seeds laid out as names, with its first-th
    pattern seeding the join: built once, as it depends on no store."""
    key = (names, first)
    plan = query.plans.get(key)
    if plan is None:
        patterns = list(query.patterns)
        patterns.insert(0, patterns.pop(first))
        slots = layout(patterns, names)
        where = [slots.index(name) for name in query.select]
        # one slot's itemgetter would return the term itself, not a row
        select = itemgetter(*where) if len(where) > 1 else itemgetter(slice(where[0], where[0] + 1))
        # a row fixes one stored triple per pattern, a bucket holds it once,
        # and the prebound slots hold the one seed: rows keeping the rest differ
        repeats = not set(where) >= set(range(len(names), len(slots)))
        plan = query.plans[key] = _Plan(tuple(patterns), compile_guards(query.filters, slots), select, repeats)
    return plan


def prepare_query(query: Query, names: tuple[str, ...] = ()) -> None:
    """Build the plans and compile the steps that evaluate_query runs for
    bindings laid out as names, so that its first call compiles nothing:
    each pattern's count and the join of each choice of seed pattern."""
    for first, pattern in enumerate(query.patterns):
        prepare([pattern], names, "count")
        prepare(_plan(query, names, first).patterns, names)


_KEY = itemgetter(0)  # compare keys only: a Term defines no order
_ROW = itemgetter(1)


def evaluate_query(
    query: Query,
    store: Store,
    bindings: Mapping[str, Term] | None = None,
) -> ResultTable:
    """Distinct satisfying rows, sorted by serialized terms, then truncated.

    Filters run after the join, through the guard filter rules use
    (rules.compile_guards); a filter over a non-numeric binding excludes
    that row.  `bindings` pre-binds variables before evaluation.
    """
    names, seed = (tuple(bindings), tuple(bindings.values())) if bindings else ((), ())
    # seed the join with the pattern whose index bucket is currently smallest
    costs = [store.candidate_count(p, seed, names) for p in query.patterns]
    plan = _plan(query, names, costs.index(min(costs)))
    rows = store.join(plan.patterns, [seed], names)
    found = map(plan.select, plan.guards(rows, []))
    found = list(set(found) if plan.repeats else found)
    if query.limit is not None and query.limit < len(found):
        # the rows whose first lexeme is at most the limit-th smallest one
        # hold the limit smallest rows (ties included): a C heap of strings
        firsts = [row[0].lexeme for row in found]
        heap = firsts.copy()
        heapify(heap)
        for _ in range(query.limit - 1):
            heappop(heap)
        found = list(compress(found, map(heap[0].__ge__, firsts)))
    # (key, row) pairs: one comprehension per column, zipped in C, so no
    # Python call runs per row; one column's key is its lexeme alone
    columns = [[t.lexeme for t in column] for column in zip(*found)] or [[]]
    keys = zip(*columns) if len(columns) > 1 else columns[0]
    ordered = sorted(zip(keys, found), key=_KEY)[:query.limit]
    return ResultTable(tuple(query.select), list(map(_ROW, ordered)))
