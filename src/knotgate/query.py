"""SELECT queries over the store: basic graph patterns, numeric filters, LIMIT.

Grammar: ``SELECT ?v+ WHERE { pattern (. pattern)* } (FILTER guard)* (LIMIT n)?``
with the same term and guard lexemes as the rule grammar.  Evaluation is
one Store.join over the patterns, cheapest index bucket first, so a query
reads one store snapshot; the finished bindings pass the guard filter rules
use (rules.guard_filter).  Rows are distinct and deterministically ordered
by the serialized terms; LIMIT n takes the n smallest from a heap, not a sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .lexer import GrammarError, TokenCursor, read_pattern, tokenize
from .model import Term, serialize_term
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


def parse_query(text: str, presumed_bound: frozenset[str] = frozenset()) -> Query:
    """Parse and safety-check a query.

    presumed_bound names variables supplied externally at evaluation time
    (composition pipelines bind trigger variables this way); they count as
    bound for the safety check.
    """
    try:
        cursor = TokenCursor(tokenize(text))
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
        eof = cursor.peek()
        if eof.kind != "EOF":
            raise cursor.error(eof, f"unexpected {eof.text!r}")
    except QuerySyntaxError:
        raise
    except GrammarError as exc:
        raise QuerySyntaxError(exc.line, exc.col, exc.reason) from None
    query = Query(tuple(select), tuple(patterns), tuple(filters), limit)
    check_query_safety(query, presumed_bound)
    return query


def _row_key(row: tuple[Term, ...]) -> tuple[str, ...]:
    return tuple(serialize_term(t) for t in row)


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
    rows = {tuple(b[name] for name in query.select) for b in passed}
    if query.limit is None:
        return ResultTable(tuple(query.select), sorted(rows, key=_row_key))
    return ResultTable(tuple(query.select), heapq.nsmallest(query.limit, rows, key=_row_key))
