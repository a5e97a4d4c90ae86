"""In-memory indexed triple store with provenance tags and IRI aliasing.

Set semantics throughout: a triple is stored at most once and the first
provenance wins, which makes replays idempotent.  IRI equivalences
(predicate m3:equivalentTo) are folded into a union-find whose canonical
representative is the lexicographically smallest IRI of the class; terms
are canonicalized on the way in, so matching never chases aliases.

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


class MatchResult(NamedTuple):
    triple: Triple
    bindings: dict[str, Term]


class Store:
    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._triples: dict[Triple, Provenance] = {}
        self._by_subject: dict[Term, dict[Triple, None]] = {}
        self._by_predicate: dict[Term, dict[Triple, None]] = {}
        self._by_object: dict[Term, dict[Triple, None]] = {}
        self._alias_parent: dict[Iri, Iri] = {}

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
        """Canonical representative of the term's equivalence class.

        Identity for non-IRIs and for IRIs with no recorded equivalence.
        Idempotent by construction (the canonical element maps to itself).
        """
        if not isinstance(term, Iri):
            return term
        with self._lock:
            cur = term
            while True:
                parent = self._alias_parent.get(cur)
                if parent is None or parent == cur:
                    return cur
                cur = parent

    def has_aliases(self) -> bool:
        """True iff some equivalence class holds two or more IRIs."""
        with self._lock:
            return bool(self._alias_parent)

    def canonical(self, triple: Triple) -> Triple:
        """The form insert stores the triple in under the current alias map."""
        with self._lock:
            return self._canonical_triple(triple)

    def _union(self, a: Iri, b: Iri) -> None:
        ra = self.resolve_alias(a)
        rb = self.resolve_alias(b)
        if ra == rb:
            return
        # smaller IRI becomes the root, so the root is always the class minimum
        root, child = (ra, rb) if ra.value < rb.value else (rb, ra)
        self._alias_parent[child] = root
        # flatten both entry points onto the new root
        for node in (a, b):
            cur = node
            while cur != root:
                nxt = self._alias_parent.get(cur, root)
                self._alias_parent[cur] = root
                if nxt == cur:
                    break
                cur = nxt

    def _rebuild_aliases(self) -> None:
        self._alias_parent = {}
        for triple in self._triples:
            if triple.predicate == M3_EQUIVALENT_TO and isinstance(
                triple.subject, Iri
            ) and isinstance(triple.object, Iri):
                self._union(triple.subject, triple.object)

    def _canonical_triple(self, triple: Triple) -> Triple:
        # equivalence statements are stored verbatim so the alias map can be
        # rebuilt from them after a retract
        if triple.predicate == M3_EQUIVALENT_TO:
            return triple
        return Triple(
            self.resolve_alias(triple.subject),
            self.resolve_alias(triple.predicate),
            self.resolve_alias(triple.object),
        )

    # -- mutation ----------------------------------------------------------

    def insert(self, triple: Triple, prov: Provenance) -> bool:
        """Insert with set semantics; True iff the triple was absent.

        Terms are alias-canonicalized on the way in.  Re-insertion keeps
        the original provenance (first write wins).
        """
        with self._lock:
            if (
                triple.predicate == M3_EQUIVALENT_TO
                and isinstance(triple.subject, Iri)
                and isinstance(triple.object, Iri)
            ):
                self._union(triple.subject, triple.object)
            t = self._canonical_triple(triple)
            if t in self._triples:
                return False
            self._triples[t] = prov
            self._by_subject.setdefault(t.subject, {})[t] = None
            self._by_predicate.setdefault(t.predicate, {})[t] = None
            self._by_object.setdefault(t.object, {})[t] = None
            return True

    def retract(self, selector: ProvenanceSelector) -> int:
        """Remove all triples whose provenance matches; returns the count.

        The selector is a Provenance class (whole kind) or instance (exact).
        The alias map is rebuilt if any equivalence statement was removed.
        """
        if isinstance(selector, type):
            matches = lambda prov: isinstance(prov, selector)
        else:
            matches = lambda prov: prov == selector
        with self._lock:
            victims = [t for t, p in self._triples.items() if matches(p)]
            rebuild = False
            for t in victims:
                del self._triples[t]
                self._unindex(self._by_subject, t.subject, t)
                self._unindex(self._by_predicate, t.predicate, t)
                self._unindex(self._by_object, t.object, t)
                if t.predicate == M3_EQUIVALENT_TO:
                    rebuild = True
            if rebuild:
                self._rebuild_aliases()
            return len(victims)

    @staticmethod
    def _unindex(index: dict[Term, dict[Triple, None]], key: Term, t: Triple) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.pop(t, None)
            if not bucket:
                del index[key]

    def load_pack(self, document: str, pack_id: str) -> int:
        """Parse and insert a whole pack with Loaded provenance, all or nothing.

        Equivalence statements in the pack are applied to the alias map
        before any triple is inserted, so the pack's own data is stored in
        canonical form.  Returns the count of newly inserted triples.
        """
        parsed = parse_triples(document)  # raises before anything is inserted
        prov = Loaded(pack_id)
        with self._lock:
            for t in parsed:
                if (
                    t.predicate == M3_EQUIVALENT_TO
                    and isinstance(t.subject, Iri)
                    and isinstance(t.object, Iri)
                ):
                    self._union(t.subject, t.object)
            return sum(1 for t in parsed if self.insert(t, prov))

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
        Constants and bound values are alias-canonicalized first (mirroring
        insert), except on equivalence-statement lookups which match the
        verbatim stored form; a non-IRI bound into the predicate slot
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
        if self._alias_parent and values[1] != M3_EQUIVALENT_TO:
            values = [v if v is None else self.resolve_alias(v) for v in values]
        key = -1
        if among is not None:
            bucket: Collection[Triple] = among
        else:
            bucket = self._triples
            for i, index in enumerate((self._by_subject, self._by_predicate, self._by_object)):
                if values[i] is not None:
                    candidates = index.get(values[i], {})
                    if key < 0 or len(candidates) < len(bucket):
                        bucket, key = candidates, i
        fixed = [(i, v) for i, v in enumerate(values) if v is not None and i != key]
        return bucket, fixed, free
