"""In-memory indexed triple store with provenance tags and IRI aliasing.

Set semantics throughout: a triple is stated at most once and the first
provenance wins, which makes replays idempotent.  The store keeps each
stated triple verbatim and serves it in canonical form, every IRI replaced
by the smallest IRI of its class under the equivalences that the stated
m3:equivalentTo triples (served verbatim) define.  That view is a pure
function of the stated triples, whatever their order, and every read
serves it, so matching never chases aliases.

Reads are index probes, each a step compiled from a pattern (Store._step,
the one probe routine): every position is a constant, a variable the
bindings bind, or a free variable.  A step scans the smallest subject,
predicate or object bucket its bound positions key and checks each
candidate only on the positions that bucket leaves open; every bucket keeps
insertion order, so the rows come in the same order whichever bucket is
scanned.  Given among (stored triples such as a chaining round's delta or
one derived fact), a step scans those instead.  Store.join, the one join of
rules and queries, compiles each pattern once per step, not per binding.
Store.match runs the same step on one binding, for delta seeding,
subscriptions and composition triggers, so all see aliases alike.

Concurrency: single writer, any number of readers.  A re-entrant lock
guards every operation, so each call reads one snapshot: a join (every
binding of every pattern), a match, a snapshot copy or iteration.  Two
separate calls may see different states, since the writer can commit
between them.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def layout(self) -> tuple[tuple[int, str | None, PatternTerm], ...]:
        """(position, variable name or None, term) per position, found once."""
        return tuple((i, p.name if isinstance(p, Variable) else None, p) for i, p in enumerate(self.positions()))


def _link(t: Triple) -> bool:
    """Whether t is an equivalence statement between two IRIs."""
    return t.predicate == M3_EQUIVALENT_TO and isinstance(t.subject, Iri) and isinstance(t.object, Iri)


class MatchResult(NamedTuple):
    triple: Triple
    bindings: dict[str, Term]


_NONE: dict[Triple, None] = {}


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

        The join's step (see the module docstring) run on one binding.
        Constants and bound values are alias-canonicalized first (as the
        view is), except on equivalence-statement lookups which match the
        verbatim served form; a non-IRI bound into the predicate slot
        matches nothing.  Rows follow the insertion order of the matching
        triples, or among's own order when among is given.  A repeated
        free variable must meet the same term twice.
        """
        with self._lock:
            step = self._step(pattern, bindings or {}, among)
            return [MatchResult(t, b) for t, b in self._scan(step, {})]

    def candidate_count(
        self, pattern: TriplePattern, bindings: dict[str, Term] | None = None
    ) -> int:
        """Size of the index bucket match scans: an upper bound on its rows."""
        with self._lock:
            return len(self._step(pattern, bindings or {})[0])

    def join(
        self,
        patterns: Sequence[TriplePattern],
        seeds: list[dict[str, Term]],
        exclude: AbstractSet[Triple] | None = None,
    ) -> list[dict[str, Term]]:
        """Extend each seed binding through the patterns, in the order given.

        The whole join holds the lock, so every binding it returns reads
        the same store state.  Seeds that bind different variables extend
        in runs that bind the same ones, so the bindings entering a step all
        bind alike and the step compiles once for them.  A binding that
        puts a literal in the predicate slot matches nothing; triples in
        exclude are skipped.
        """
        bindings = seeds
        with self._lock:
            if len(seeds) > 1 and any(s.keys() != seeds[0].keys() for s in seeds):
                groups = (list(g) for _, g in itertools.groupby(seeds, dict.keys))
                return [b for g in groups for b in self.join(patterns, g, exclude)]
            for pattern in patterns:
                if not bindings:
                    break
                step = self._step(pattern, bindings[0], None, len(bindings) > 1)
                extended: list[dict[str, Term]] = []
                for b in bindings:
                    for t, row in self._scan(step or self._step(pattern, b), b):
                        if exclude is None or t not in exclude:
                            extended.append(row)
                bindings = extended
        return bindings

    def _step(self, pattern: TriplePattern, b: dict[str, Term],
              among: Collection[Triple] | None = None, shared: bool = False) -> tuple | None:
        """Compile the pattern for bindings that bind what b binds: (bucket, its
        key position or -1, constants, those left to check, slots, free name
        -> position, repeated free positions, whether slots canonicalize).
        Only a shared step keeps b's variables as slots; with aliases, one whose
        predicate is a slot cannot tell equivalence lookups apart: None."""
        consts, slots, free, repeats = [], [], {}, []
        for i, name, p in pattern.layout:
            if name is not None:
                if name not in b:
                    if name in free:
                        repeats.append((free[name], i))
                    free.setdefault(name, i)
                    continue
                if shared:
                    slots.append((i, name))
                    continue
                p = b[name]
            consts.append((i, p))
        root = self._alias_root
        canon = bool(root) and (1, M3_EQUIVALENT_TO) not in consts
        if canon:
            if any(i == 1 for i, _ in slots):
                return None
            consts = [(i, root.get(t, t)) for i, t in consts]
        bucket: Collection[Triple] = self._triples if among is None else among
        key = k = -1
        for n, (i, t) in enumerate(consts if among is None else ()):
            candidates = self._indexes[i].get(t, _NONE)
            if key < 0 or len(candidates) < len(bucket):
                bucket, key, k = candidates, i, n
        checks = consts[:k] + consts[k + 1:] if k >= 0 else consts
        return bucket, key, consts, checks, slots, free, repeats, canon

    def _scan(self, step: tuple, b: dict[str, Term]) -> list[tuple[Triple, dict[str, Term]]]:
        """Each triple the step matches under b, with a copy of b binding its
        free variables; a shared step first reads and canonicalizes b's slot
        values and lets them pick a smaller bucket.  Terms are hash-consed,
        so each check is an identity test."""
        bucket, key, consts, checks, slots, free, repeats, canon = step
        if slots:
            root = self._alias_root
            bound = [(i, root.get(b[n], b[n]) if canon else b[n]) for i, n in slots]
            for i, t in bound:
                candidates = self._indexes[i].get(t, _NONE)
                if key < 0 or len(candidates) < len(bucket):
                    bucket, key = candidates, i
            checks = [c for c in consts + bound if c[0] != key]
        out: list[tuple[Triple, dict[str, Term]]] = []
        for t in bucket:
            terms = (t.subject, t.predicate, t.object)
            for i, term in checks:
                if terms[i] is not term:
                    break
            else:
                if repeats and any(terms[i] is not terms[j] for i, j in repeats):
                    continue
                row = b.copy()
                for name, i in free.items():
                    row[name] = terms[i]
                out.append((t, row))
        return out
