"""In-memory indexed triple store with provenance tags and IRI aliasing.

Set semantics throughout: a triple is stated at most once and the first
provenance wins, which makes replays idempotent.  The store keeps each
stated triple verbatim and serves it in canonical form, every IRI replaced
by the smallest IRI of its class under the equivalences that the stated
m3:equivalentTo triples (served verbatim) define.  That view is a pure
function of the stated triples, whatever their order, and every read
serves it, so matching never chases aliases.

Reads are index probes (Store.match): each pattern position is a constant,
a value the caller's bindings give its variable, or a free variable.  A
probe scans the smallest subject, predicate or object bucket its bound
positions key and checks each candidate only on the positions that bucket
leaves open; every bucket keeps insertion order, so the rows come in the
same order whichever bucket is scanned.  Given among (stored triples such
as a chaining round's delta or one derived fact), a probe scans those
instead and checks every bound position.  match is the only pattern
matcher: Store.join, the one join behind rules and queries, makes one
probe per binding per pattern, and delta seeding, subscriptions and
composition triggers probe with among, so all of them see aliases alike.

Concurrency: single writer, any number of readers.  A re-entrant lock
guards every operation, so each call reads one snapshot: a join (every
binding of every pattern), a match, a snapshot copy or iteration.  Two
separate calls may see different states, since the writer can commit
between them.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import AbstractSet, Collection, Iterator, NamedTuple, Sequence, Union

from .model import (
    Iri,
    Term,
    Triple,
    make_iri,
    parse_triples,
)

M3_EQUIVALENT_TO = make_iri("m3:equivalentTo")

_VARIABLE_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class InvalidProvenance(ValueError):
    """Provenance id fields must be nonempty."""


class InvalidPattern(ValueError):
    """A concrete predicate position must hold an IRI."""


@dataclass(frozen=True)
class Asserted:
    """Triple stated by a device; source is the device IRI text."""

    source: str

    def __post_init__(self) -> None:
        if not self.source:
            raise InvalidProvenance("empty source")


@dataclass(frozen=True)
class Inferred:
    """Triple produced by a rule."""

    rule_id: str

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise InvalidProvenance("empty rule_id")


@dataclass(frozen=True)
class Loaded:
    """Triple loaded from a knowledge pack file."""

    pack_id: str

    def __post_init__(self) -> None:
        if not self.pack_id:
            raise InvalidProvenance("empty pack_id")


Provenance = Union[Asserted, Inferred, Loaded]

#: retract() accepts either a concrete Provenance or one of these classes.
ProvenanceSelector = Union[Provenance, type]


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        if not _VARIABLE_RE.match(self.name):
            raise InvalidPattern(f"bad variable name {self.name!r}")


PatternTerm = Union[Term, Variable]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, (Variable, Iri)):
            raise InvalidPattern("concrete predicate must be an IRI")

    def positions(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> frozenset[str]:
        return frozenset(
            p.name for p in self.positions() if isinstance(p, Variable)
        )

    def concrete_count(self) -> int:
        return sum(1 for p in self.positions() if not isinstance(p, Variable))


def _link(t: Triple) -> bool:
    """Whether t is an equivalence statement between two IRIs."""
    return t.predicate == M3_EQUIVALENT_TO and isinstance(t.subject, Iri) and isinstance(t.object, Iri)


class MatchResult(NamedTuple):
    triple: Triple
    bindings: dict[str, Term]


class Store:
    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: every stated triple, verbatim and in statement order
        self._stated: dict[Triple, Provenance] = {}
        #: the served view of _stated, indexed below
        self._triples: dict[Triple, Provenance] = {}
        #: the subject, predicate and object indexes: term -> its triples
        self._indexes: tuple[dict[Term, dict[Triple, None]], ...] = ({}, {}, {})
        #: aliased IRI -> the smallest IRI of its class
        self._alias_root: dict[Term, Term] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        with self._lock:
            return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        with self._lock:
            return iter(list(self._triples))

    def provenance(self, triple: Triple) -> Provenance | None:
        with self._lock:
            return self._triples.get(triple)

    def snapshot(self) -> dict[Triple, Provenance]:
        """Insertion-ordered copy of the (triple, provenance) map."""
        with self._lock:
            return dict(self._triples)

    # -- aliases -----------------------------------------------------------

    def resolve_alias(self, term: Term) -> Term:
        """The smallest IRI of the term's equivalence class; the term itself
        for non-IRIs and for IRIs with no recorded equivalence."""
        with self._lock:
            return self._alias_root.get(term, term)

    def canonical(self, triple: Triple) -> Triple:
        """The form the view serves the triple in under the current alias map."""
        with self._lock:
            return self._canonical_triple(triple)

    def _relinks(self, t: Triple) -> bool:
        """Whether stating t changes the alias map."""
        return _link(t) and self.resolve_alias(t.subject) != self.resolve_alias(t.object)

    def _rebuild(self) -> None:
        """Recompute the alias map, the view and its indexes from _stated."""
        parent: dict[Term, Term] = {}

        def root(term: Term) -> Term:
            while term in parent:
                term = parent[term]
            return term

        for t in filter(_link, self._stated):
            low, high = sorted((root(t.subject), root(t.object)), key=lambda iri: iri.value)
            if low != high:
                parent[high] = low
        self._alias_root = {iri: root(iri) for iri in parent}
        self._triples = {}
        self._indexes = ({}, {}, {})
        for t, prov in self._stated.items():
            self._serve(t, prov)

    def _serve(self, triple: Triple, prov: Provenance) -> bool:
        """Add the triple's canonical form to the view unless it is there."""
        t = self._canonical_triple(triple)
        if t in self._triples:
            return False
        self._triples[t] = prov
        for index, term in zip(self._indexes, (t.subject, t.predicate, t.object)):
            index.setdefault(term, {})[t] = None
        return True

    def _canonical_triple(self, triple: Triple) -> Triple:
        # equivalence statements are served verbatim: they define the map
        if not self._alias_root or triple.predicate == M3_EQUIVALENT_TO:
            return triple
        root = self._alias_root
        s, p, o = triple.subject, triple.predicate, triple.object
        return Triple(root.get(s, s), root.get(p, p), root.get(o, o))

    # -- mutation ----------------------------------------------------------

    def insert(self, triple: Triple, prov: Provenance) -> bool:
        """State the triple; True iff the view gained its canonical form.

        First write wins, also among triples of one canonical form.  A
        statement that changes the alias map rebuilds the view, in O(store
        size): a rule that derives k new aliases in one round rebuilds k
        times, which only whole-store rounds do (see rules.forward_chain).
        """
        with self._lock:
            if triple in self._stated:
                return False
            self._stated[triple] = prov
            if self._relinks(triple):
                self._rebuild()
                return True
            return self._serve(triple, prov)

    def retract(self, selector: ProvenanceSelector) -> int:
        """Unstate all triples whose provenance matches; returns the count.

        The selector is a Provenance class (whole kind) or instance (exact).
        With aliases the view is rebuilt, so retracting an alias serves the
        triples it renamed in their stated forms again.
        """
        if isinstance(selector, type):
            matches = lambda prov: isinstance(prov, selector)
        else:
            matches = lambda prov: prov == selector
        with self._lock:
            victims = [t for t, p in self._stated.items() if matches(p)]
            for t in victims:
                del self._stated[t]
                if not self._alias_root:  # the view is the stated triples
                    del self._triples[t]
                    for index, term in zip(self._indexes, (t.subject, t.predicate, t.object)):
                        del index[term][t]
                        if not index[term]:
                            del index[term]
            if victims and self._alias_root:
                self._rebuild()
            return len(victims)

    def load_pack(self, document: str, pack_id: str) -> int:
        """Parse and state a whole pack with Loaded provenance, all or nothing.

        Rebuilds the view at most once, however many aliases the pack holds.
        Returns the count of newly stated triples.
        """
        parsed = parse_triples(document)  # raises before anything is stated
        prov = Loaded(pack_id)
        with self._lock:
            fresh = [t for t in dict.fromkeys(parsed) if t not in self._stated]
            self._stated.update(dict.fromkeys(fresh, prov))
            if any(self._relinks(t) for t in fresh):
                self._rebuild()
            else:
                for t in fresh:
                    self._serve(t, prov)
            return len(fresh)

    # -- reads -------------------------------------------------------------

    def match(
        self,
        pattern: TriplePattern,
        bindings: dict[str, Term] | None = None,
        among: Collection[Triple] | None = None,
    ) -> list[MatchResult]:
        """Stored triples matching the pattern under bindings, with the
        bindings of the pattern's free variables.

        The only pattern matcher: rules, queries, subscriptions and
        composition triggers all match through it.  Each position is a
        constant, a value bindings gives its variable, or a free variable.
        Constants and bound values are alias-canonicalized first (as the
        view is), except on equivalence-statement lookups which match the
        verbatim served form; a non-IRI bound into the predicate slot
        matches nothing.  Without among, the probe scans the smallest index
        bucket among the bound positions and checks each candidate only on
        the other bound positions; every bucket keeps insertion order, so
        rows follow the insertion order of the matching triples, whichever
        bucket is scanned.  among (stored triples, e.g. a round's delta or
        one derived fact) is scanned in its own order instead, each triple
        checked on every bound position.  Either way the free variables are
        bound, and a repeated one must meet the same term twice.
        """
        with self._lock:
            bucket, fixed, free = self._probe(pattern, bindings, among)
            out: list[MatchResult] = []
            for t in bucket:
                terms = (t.subject, t.predicate, t.object)
                for i, term in fixed:
                    if terms[i] is not term and terms[i] != term:
                        break
                else:
                    b: dict[str, Term] = {}
                    for i, name in free:
                        if b.setdefault(name, terms[i]) != terms[i]:
                            break
                    else:
                        out.append(MatchResult(t, b))
            return out

    def candidate_count(
        self, pattern: TriplePattern, bindings: dict[str, Term] | None = None
    ) -> int:
        """Size of the index bucket match scans: an upper bound on its rows."""
        with self._lock:
            return len(self._probe(pattern, bindings)[0])

    def join(
        self,
        patterns: Sequence[TriplePattern],
        seeds: list[dict[str, Term]],
        exclude: AbstractSet[Triple] | None = None,
    ) -> list[dict[str, Term]]:
        """Extend each seed binding through the patterns, in the order given.

        The whole join holds the lock, so every binding it returns reads
        the same store state.  Each binding makes one match probe per
        pattern, so a binding that puts a literal in the predicate slot
        matches nothing; triples in exclude are skipped.
        """
        bindings = seeds
        with self._lock:
            for pattern in patterns:
                if not bindings:
                    break
                extended: list[dict[str, Term]] = []
                for b in bindings:
                    for t, mb in self.match(pattern, b):
                        if exclude is None or t not in exclude:
                            extended.append({**b, **mb})
                bindings = extended
        return bindings

    def _probe(
        self,
        pattern: TriplePattern,
        bindings: dict[str, Term] | None,
        among: Collection[Triple] | None = None,
    ) -> tuple[Collection[Triple], list[tuple[int, Term]], list[tuple[int, str]]]:
        """The bucket a probe scans (among, when given), the bound
        (position, term) pairs left to check, and the free (position, name)
        pairs.

        A non-IRI bound into the predicate slot keys the predicate index,
        which holds none, so that empty bucket is the smallest; under among
        it fails the predicate check instead."""
        values: list[Term | None] = []
        free: list[tuple[int, str]] = []
        for i, p in enumerate(pattern.positions()):
            term = p
            if isinstance(p, Variable):
                term = bindings.get(p.name) if bindings else None
                if term is None:
                    free.append((i, p.name))
            values.append(term)
        if self._alias_root and values[1] != M3_EQUIVALENT_TO:
            values = [v if v is None else self.resolve_alias(v) for v in values]
        key = -1
        if among is not None:
            bucket: Collection[Triple] = among
        else:
            bucket = self._triples
            for i, index in enumerate(self._indexes):
                if values[i] is not None:
                    candidates = index.get(values[i], {})
                    if key < 0 or len(candidates) < len(bucket):
                        bucket, key = candidates, i
        fixed = [(i, v) for i, v in enumerate(values) if v is not None and i != key]
        return bucket, fixed, free
