"""In-memory indexed triple store with provenance tags and IRI aliasing.

Set semantics throughout: a triple is stated at most once and the first
provenance wins, which makes replays idempotent.  The store keeps each
stated triple verbatim and serves it in canonical form, every IRI replaced
by the smallest IRI of its class under the equivalences that the stated
m3:equivalentTo triples (served verbatim) define.  That view is a pure
function of the stated triples, whatever their order, and every read
serves it, so matching never chases aliases.

Reads are index probes, each a compiled step (_step, the one probe
routine).  A step's shape says what each position is: a constant, a
variable the incoming bindings bind, a free variable, or a repeat of an
earlier free one.  Each shape is generated once into straight-line code,
and a pattern keeps its steps, that code closed over its own constants,
slots and names.  Bindings are tuples of terms with one slot per variable,
in the order the patterns bind them (layout), so a step reads a bound value
as b[i] and a join row is b extended by the free positions' terms: no dict
per binding.  A step runs over a whole batch of bindings: it canonicalizes
the constants and picks their smallest subject, predicate or object bucket
once, then per binding reads the bound values, lets them pick a smaller
bucket, and appends the rows from one plain loop of identity checks over it.
Every bucket keeps insertion order, so the rows come in the same order
whichever bucket is scanned.  Given among (stored triples such as a
chaining round's delta or one derived fact), a step scans those instead.
Store.join, the one join of rules and queries, runs each pattern's step
once over all the bindings that reach it.  Store.match runs the same step
on one binding, for delta seeding, subscriptions and composition triggers,
so all see aliases alike.

Concurrency: one writer at a time, any number of readers.  The gateway's
write lock makes the writer single: every ingest, rule-pack install and
knowledge-pack load holds it.  A re-entrant lock guards every store
operation, so each call reads one snapshot: a join (every binding of
every pattern), a match, a snapshot copy or iteration.  Two separate
calls may see different states, since the writer can commit between them.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import AbstractSet, Callable, Collection, Iterator, NamedTuple, Sequence, Union

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
        # the variable names, each once in position order, the pattern's
        # compiled steps, keyed as _step keys them, and its row layouts, keyed
        # by the incoming one: set here, not lazily, as a query's patterns are
        # built and compiled once per query
        names = [p.name for p in (self.subject, self.predicate, self.object) if isinstance(p, Variable)]
        object.__setattr__(self, "names", tuple(dict.fromkeys(names)))
        object.__setattr__(self, "steps", {})
        object.__setattr__(self, "layouts", {})

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

    def has_aliases(self) -> bool:
        """Whether some IRI has a recorded equivalence, so that the view
        serves some stated triples renamed."""
        with self._lock:
            return bool(self._alias_root)

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
        names, seed = (tuple(bindings), tuple(bindings.values())) if bindings else ((), ())
        with self._lock:
            return _step(pattern, "match" if among is None else "among", names)(self, (seed,), among, None)

    def candidate_count(
        self, pattern: TriplePattern, bindings: dict[str, Term] | None = None
    ) -> int:
        """Size of the index bucket match scans: an upper bound on its rows."""
        names, seed = (tuple(bindings), tuple(bindings.values())) if bindings else ((), ())
        with self._lock:
            return _step(pattern, "count", names)(self, (seed,), None, None)[0]

    def join(
        self,
        patterns: Sequence[TriplePattern],
        seeds: list[tuple[Term, ...]],
        names: tuple[str, ...] = (),
        exclude: AbstractSet[Triple] | None = None,
    ) -> list[tuple[Term, ...]]:
        """Extend each seed through the patterns, in the order given.

        Seeds and rows are tuples of terms, one slot per variable: a seed
        holds the variables that names lists, in that order, and each
        pattern appends those it binds first, so the rows are laid out as
        layout(patterns, names) gives.  The whole join holds the lock, so
        every row it returns reads the same store state.  A binding that
        puts a literal in the predicate slot matches nothing; triples in
        exclude are skipped.
        """
        rows = seeds
        kind = "join" if exclude is None else "exclude"
        with self._lock:
            for pattern in patterns:
                if not rows:
                    break
                rows = _step(pattern, kind, names)(self, rows, None, exclude)
                names = _after(pattern, names)
        return rows


def layout(patterns: Sequence[TriplePattern], names: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The variables of Store.join's rows, one per slot: the seeds' names,
    then each variable the patterns bind, in pattern and position order."""
    for pattern in patterns:
        names = _after(pattern, names)
    return names


def _after(pattern: TriplePattern, names: tuple[str, ...]) -> tuple[str, ...]:
    """The layout of the pattern's rows from bindings laid out as names.

    Kept per pattern and incoming layout, as a join asks once per pattern:
    on a shared 2-vCPU host the replay benchmark read about 4% more
    ops_per_s with this cache than with each layout computed afresh (eight
    alternating 36 s pairs, all won by the cache).
    """
    out = pattern.layouts.get(names)
    if out is None:
        out = pattern.layouts[names] = names + tuple(n for n in pattern.names if n not in names)
    return out


#: run(store, bindings, among, exclude) -> the rows of every binding
_Step = Callable[..., list]

#: step factory per shape: (kind, what each position is).  A shape holds no
#: term or name, and there are finitely many, so this never needs evicting.
_FACTORIES: dict[tuple[str, ...], Callable[..., _Step]] = {}


def _step(pattern: TriplePattern, kind: str, names: tuple[str, ...]) -> _Step:
    """The pattern's step for bindings laid out as names.

    kind is what the step returns: "join" rows (each binding extended by
    the free variables), "exclude" the same skipping the exclude set,
    "match" or "among" MatchResults of the free variables alone (among:
    scanning the given triples), or "count" the size of the bucket it would
    scan.
    """
    key = (kind, names)
    run = pattern.steps.get(key)
    if run is None:
        terms: list[PatternTerm | None] = [None, None, None]
        # per position: the slot of a bound variable, the name of a free one
        args: list[int | str | None] = [None, None, None]
        shape: list[str] = []
        for i, p in enumerate((pattern.subject, pattern.predicate, pattern.object)):
            if not isinstance(p, Variable):
                shape.append("c")
                terms[i] = p
            elif p.name in names:
                shape.append("b")
                args[i] = names.index(p.name)
            elif p.name in args:
                shape.append(str(args.index(p.name)))
            else:
                shape.append("f")
                args[i] = p.name
        factory = _FACTORIES.get((kind, *shape))
        if factory is None:
            factory = _FACTORIES[(kind, *shape)] = _compile(kind, tuple(shape))
        run = pattern.steps[key] = factory(*terms, *args)
    return run


_FIELDS = ("subject", "predicate", "object")


def _compile(kind: str, shape: tuple[str, ...]) -> Callable[..., _Step]:
    """The factory of one step shape, generated from _source."""
    namespace: dict[str, Callable[..., _Step]] = {}
    exec(_source(kind, shape), globals(), namespace)
    return namespace["factory"]


def _source(kind: str, shape: tuple[str, ...]) -> str:
    """The source of one step shape's factory.  Each position is "c" (a
    constant), "b" (bound by the incoming bindings), "f" (free) or the
    digit of the earlier free position it repeats.  The factory takes the
    constants c0-c2 and n0-n2, the slot of each bound variable and the name
    of each free one, and returns run(store, bindings, among, exclude),
    straight-line code that picks the smallest bucket once per binding and
    appends its rows from one loop over it.  A join row is the binding
    tuple extended by the free positions' terms.  A loop, not a
    comprehension: on Python 3.11 a comprehension is a function call, paid
    per binding.  Terms are hash-consed, so each check is an identity test.
    """
    known = [i for i, s in enumerate(shape) if s in "cb"]
    # read once per binding: bound values, and with a bound predicate the
    # constants too, as whether to canonicalize depends on the binding
    loose = [i for i in known if shape[i] == "b" or shape[1] == "b"]
    fixed = [i for i in known if i not in loose]

    def pick(indent: str, bucket: str, positions: list[int]) -> list[str]:
        return [
            line
            for i in positions
            for line in (f"{indent}x = index[{i}].get(k{i}, _NONE)", f"{indent}if len(x) < len({bucket}): {bucket} = x")
        ]

    lines = [
        "def factory(c0, c1, c2, n0, n1, n2):",
        " def run(store, bindings, among, exclude):",
        "  root = store._alias_root",
        "  index = store._indexes",
        "  canon = root and c1 is not M3_EQUIVALENT_TO",
        *(f"  k{i} = root.get(c{i}, c{i}) if canon else c{i}" for i in fixed),
        f"  base = {'among' if kind == 'among' else 'store._triples'}",
        *(pick("  ", "base", fixed) if kind != "among" else []),
        "  out = []",
        "  append = out.append",
        "  for b in bindings:",
        *(f"   k{i} = b[n{i}]" if shape[i] == "b" else f"   k{i} = c{i}" for i in loose),
        *(["   canon = root and k1 is not M3_EQUIVALENT_TO"] if shape[1] == "b" else []),
        *(f"   if canon: k{i} = root.get(k{i}, k{i})" for i in loose),
        "   bucket = base",
        *(pick("   ", "bucket", loose) if kind != "among" else []),
    ]
    checks = [f"t.{_FIELDS[i]} is k{i}" for i in known]
    checks += [f"t.{_FIELDS[i]} is t.{_FIELDS[int(s)]}" for i, s in enumerate(shape) if s.isdigit()]
    if kind == "exclude":
        checks.append("t not in exclude")
    free = [i for i, s in enumerate(shape) if s == "f"]
    if kind == "count":
        lines.append("   append(len(bucket))")
    else:
        if kind in ("match", "among"):
            row = f"MatchResult(t, {{{', '.join(f'n{i}: t.{_FIELDS[i]}' for i in free)}}})"
        else:  # the binding itself when the step binds nothing new
            row = f"b + ({''.join(f't.{_FIELDS[i]}, ' for i in free)})" if free else "b"
        keep = f"if {' and '.join(checks)}: " if checks else ""
        lines += ["   for t in bucket:", f"    {keep}append({row})"]
    lines += ["  return out", " return run"]
    return "\n".join(lines)
