"""SELECT queries over the store: basic graph patterns, numeric filters, LIMIT.

Grammar: ``SELECT ?v+ WHERE { pattern (. pattern)* } (FILTER guard)* (LIMIT n)?``
with the same term and guard lexemes as the rule grammar.  Evaluation is
one Store.join over the patterns, cheapest index bucket first, so a query
reads one store snapshot; the finished bindings pass the guard filter rules
use (rules.guard_filter).  Rows are distinct and ordered by their terms'
lexemes (the serialized terms), compared column by column from the first
select variable; LIMIT n takes the n smallest from a heap, not a sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .lexer import GrammarError, TokenCursor, parse_text, read_pattern
from .model import Term
from .rules import Guard, guard_filter, read_guard
from .store import Store, TriplePattern


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
        if not num.text.isdigit() or int(num.text) <= 0:
            raise cursor.error(num, "LIMIT must be a positive integer")
        limit = int(num.text)
    return Query(tuple(select), tuple(patterns), tuple(filters), limit)


def parse_query(text: str, presumed_bound: frozenset[str] = frozenset()) -> Query:
    """Parse and safety-check a query.

    presumed_bound names variables supplied externally at evaluation time
    (composition pipelines bind trigger variables this way); they count as
    bound for the safety check.
    """
    query = parse_text(text, _read_query, QuerySyntaxError)
    check_query_safety(query, presumed_bound)
    return query


_KEY = itemgetter(0)  # compare keys only: a Term defines no order
_ROW = itemgetter(1)


def evaluate_query(
    query: Query,
    store: Store,
    bindings: Mapping[str, Term] | None = None,
) -> ResultTable:
    """Distinct satisfying rows, sorted by serialized terms, then truncated.

    Filters run after the join, through the guard filter rules use
    (rules.guard_filter); a filter over a non-numeric binding excludes
    that row.  `bindings` pre-binds variables before evaluation.
    """
    seed: dict[str, Term] = dict(bindings) if bindings else {}
    patterns = list(query.patterns)
    # seed the join with the pattern whose index bucket is currently smallest
    costs = [store.candidate_count(p, seed) for p in patterns]
    patterns.insert(0, patterns.pop(costs.index(min(costs))))
    passed = guard_filter(query.filters, store.join(patterns, [seed]))
    found = set(map(itemgetter(*query.select), passed))
    # (key, row) pairs: one comprehension per column, zipped in C, so no
    # Python call runs per row
    if len(query.select) == 1:  # one name's itemgetter returns the term itself
        keyed = zip([t.lexeme for t in found], zip(found))
    else:
        keyed = zip(zip(*([t.lexeme for t in column] for column in zip(*found))), found)
    if query.limit is None:
        ordered = sorted(keyed, key=_KEY)
    else:
        ordered = heapq.nsmallest(query.limit, keyed, key=_KEY)
    return ResultTable(tuple(query.select), list(map(_ROW, ordered)))
