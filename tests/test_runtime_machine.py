"""One stateful model of the runtime: its rules are the writes, on a runtime from fixtures/gateway.toml with
the MQTT bridge on and the clock pinned to 0.  After every step, against the oracles: (1) the store is the
closure of what was stated and kept, under the stated aliases; (2) the real outbox delivers, per target,
one item per fact the write newly derived, in commit order; (3) the counts are a fresh chain's."""

import threading
from contextlib import ExitStack
from dataclasses import replace
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from knotgate.annotation import Annotator, RawReading
from knotgate.config import load_config
from knotgate.gateway import MqttTopic, Webhook
from knotgate.model import Iri, compact_term, parse_triples, serialize_triples, triple_to_line
from knotgate.query import Query, parse_query
from knotgate.rules import RuleSet, forward_chain, parse_pattern, parse_rulepack
from knotgate.services import Runtime
from knotgate.store import M3_EQUIVALENT_TO, Store, TriplePattern, Variable

from conftest import FIXTURES, flat_json
from oracles import oracle_alias_classes, oracle_closure, oracle_match, oracle_query

_FEVER = (FIXTURES / "rules" / "fever.rules").read_text(encoding="utf-8")
RULE_PACKS = {
    "fever": _FEVER,
    "hot": _FEVER.replace("?v > 38.0", "?v > 60.0"),  # replaces fever under its pack id
    "fire": (FIXTURES / "rules" / "fire.rules").read_text(encoding="utf-8"),
    "suggest": "PACK suggest RULE suggest : IF ?o m3:indicates ?s . ?s m3:hasRemedy ?r THEN ?o m3:suggests ?r .",
    "rank": "PACK rank DOMAIN ranks RULE rank : IF ?o m3:label ?v FILTER ?v > 1 THEN ?o m3:indicates m3:Ranked .",
}
KNOWLEDGE = {
    "remedies": (FIXTURES / "packs" / "remedies.nt").read_text(encoding="utf-8"),
    "observation": (FIXTURES / "packs" / "fever-observation.nt").read_text(encoding="utf-8"),
    "fire-remedy": "<urn:knotgate:m3#FireRisk> <urn:knotgate:m3#hasRemedy> <urn:knotgate:m3#Evacuate> .\n",
    # a string, which the rank guard skips, and a number
    "labels": '<urn:x:1> <urn:knotgate:m3#label> "high"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
              '<urn:x:2> <urn:knotgate:m3#label> "2"^^<http://www.w3.org/2001/XMLSchema#long> .\n',
    "fever-alias": "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n",
    "fire-alias": "<urn:knotgate:m3#Blaze> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#FireRisk> .\n",
}
PATTERNS = ["?o m3:indicates m3:Fever", "?o m3:indicates ?s", "?o m3:indicates m3:AFever",
            "?o m3:indicates m3:FireRisk"]
COMPOSITIONS = [
    ("?o m3:indicates ?s", "SELECT ?r WHERE { ?s m3:hasRemedy ?r }", {"state": "{s}", "suggestions": "{r}"}),
    ("?o m3:indicates m3:Fever", "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }",
     {"observation": "{o}", "remedies": "{r}"}),
]
#: few targets, so that several triggers share one and its order is checked
TARGETS = st.sampled_from(["http://a.test/h", "http://b.test/h", "alerts/a", "alerts/b"])


def _endpoint(target: str):
    return Webhook(target) if "://" in target else MqttTopic(target)


def _served(term, t):
    """A triple or pattern as the store serves it: equivalence statements verbatim, others renamed."""
    return t if t.predicate == M3_EQUIVALENT_TO else type(t)(term(t.subject), term(t.predicate), term(t.object))


def _composition_payload(served, term, trigger, lookup_text, template, bindings) -> dict:
    """The payload by the query oracle, arrays sorted: the lookup, the trigger's bindings put in."""
    def ground(x):
        return bindings[x.name] if isinstance(x, Variable) and x.name in bindings else term(x)

    lookup = parse_query(lookup_text, presumed_bound=trigger.variables())
    patterns = tuple(TriplePattern(*map(ground, p.positions())) for p in lookup.patterns)
    select = tuple(name for name in lookup.select if name not in bindings)
    rows = oracle_query(list(served), Query(select, patterns, lookup.filters))
    arrays = {name: sorted({compact_term(row[i]) for row in rows}) for i, name in enumerate(select)}
    scalars = {name: compact_term(x) for name, x in bindings.items()}
    return {key: arrays.get(value[1:-1], scalars.get(value[1:-1])) for key, value in template.items()}


class RuntimeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.chains, self.sent = [], []  # the step's chain stats; every (target, payload) delivered
        self.written = threading.Event()  # clear while a write is under way
        self.rt = Runtime.from_config(*load_config(FIXTURES / "gateway.toml"))
        self.stack = ExitStack()
        self.stack.callback(self.rt.stop)
        self.stack.enter_context(mock.patch("knotgate.gateway.now_ms", return_value=0))
        self.stack.enter_context(mock.patch("knotgate.gateway.forward_chain", self._record))
        self.rt.egress.http_post = self.rt.egress.mqtt_publish = self._sink
        self.rt.gateway.add_derived_hook(self.rt._bridge_derived_to_mqtt)
        self.annotator = Annotator(self.rt.registry)  # the model's own copy of the readings' triples
        self.stated = set(self.rt.store)  # the booted store holds its packs' triples and nothing derived
        self.active = {pack.pack_id: pack for pack in self.rt.gateway.active_packs()}
        self.kept = set()  # what replacements without rechain kept since the last rechain
        self.triggers = []  # (pattern, lookup or None, template, target) in registration order
        self.served = self._closure()
        self._step(lambda: None)  # the boot, as a step that writes nothing

    def teardown(self):
        self.stack.close()

    def _record(self, *args):
        self.chains.append(forward_chain(*args))
        return self.chains[-1]

    def _sink(self, target, payload):
        self.written.wait(5)  # a step's first delivery waits for its write: the outbox orders the rest
        self.sent.append((target, payload))
        return 200

    def _closure(self) -> set:
        """The oracle's closure of the model; sets self.term, IRI -> its class's smallest under the stated aliases."""
        classes = oracle_alias_classes([(t.subject.value, t.object.value)
                                        for t in self.stated if t.predicate == M3_EQUIVALENT_TO])
        self.term = term = lambda x: Iri(classes.get(x.value, x.value)) if isinstance(x, Iri) else x
        rules = [replace(r, body=tuple(_served(term, p) for p in r.body), head=tuple(_served(term, p) for p in r.head))
                 for pack in self.active.values() for r in pack.rules]
        return oracle_closure({_served(term, t) for t in self.stated | self.kept}, rules)

    def _step(self, write, *args, context=("", 0)):
        """Run one write; context is its envelopes' (observation IRI, timestamp)."""
        self.before, self.mark, self.context, self.queued = self.served, len(self.sent), context, None
        self.chains.clear()
        self.written.clear()
        try:
            result = write(*args)
        finally:
            self.written.set()
        self.served = self._closure()
        return result

    @rule(device=st.sampled_from(["thermo1", "ambient1"]), tenths=st.integers(300, 900))
    def ingest(self, device, tenths):
        reading = RawReading(device, "temperature", tenths / 10, "cel", tenths)
        graph = self.annotator.annotate(reading)
        self.stated.update(graph.triples)
        receipt = self._step(self.rt.gateway.ingest, reading, context=(graph.observation_iri.value, tenths))
        self.queued = receipt.notifications_queued

    @rule(name=st.sampled_from(sorted(RULE_PACKS)), rechain=st.booleans())
    def install(self, name, rechain):
        pack = parse_rulepack(RULE_PACKS[name])
        if rechain:
            self.kept = set()
        elif pack.pack_id in self.active:  # the replaced pack's facts stay, and per_rule counts them
            self.kept = self.served
        self.active[pack.pack_id] = pack
        self._step(self.rt.gateway.set_rulepack, pack, rechain)

    @rule(name=st.sampled_from(sorted(KNOWLEDGE)))
    def load(self, name):
        self.stated.update(parse_triples(KNOWLEDGE[name]))
        self._step(self.rt.gateway.load_knowledge_pack, KNOWLEDGE[name], name)

    @rule(pattern=st.sampled_from(PATTERNS), to=TARGETS)
    def subscribe(self, pattern, to):
        self.triggers.append((parse_pattern(pattern), None, None, to))
        self._step(self.rt.subscriptions.register, self.triggers[-1][0], _endpoint(to))

    @rule(composition=st.sampled_from(COMPOSITIONS), to=TARGETS)
    def compose(self, composition, to):
        trigger, lookup, template = composition
        self.triggers.append((parse_pattern(trigger), lookup, template, to))
        self._step(self.rt.compositions.register, self.triggers[-1][0], lookup, template, _endpoint(to))

    @invariant()
    def the_store_is_the_closure_of_what_was_stated(self):
        assert set(self.rt.store) == self.served

    @invariant()
    def each_write_notifies_the_facts_it_newly_derived(self):
        assert self.rt.egress.drain(5) == 0
        held = {_served(self.term, t) for t in self.before | self.stated}
        fresh = [t for stats in self.chains for t in stats.committed if t not in held]
        assert len(set(fresh)) == len(fresh) and set(fresh) == self.served - held
        domains = {r.id: (pack.domains or ("default",))[0] for pack in self.active.values() for r in pack.rules}
        subscriptions_first = sorted(self.triggers, key=lambda trigger: trigger[1] is not None)  # a stable sort
        items = []
        for fact in fresh:  # the subscriptions, then the compositions, each in registration order, then the bridge
            rule_id = self.rt.store.provenance(fact).rule_id
            envelope = {"triple": triple_to_line(fact), "rule_id": rule_id,
                        "observation_iri": self.context[0], "timestamp": self.context[1]}
            for pattern, lookup, template, to in subscriptions_first:
                for _, bindings in oracle_match([fact], _served(self.term, pattern)):
                    items.append((to, envelope if lookup is None else
                                  _composition_payload(self.served, self.term, pattern, lookup, template, bindings)))
            items.append((f"derived/{domains[rule_id]}", envelope))
        if self.queued is not None:
            assert self.queued == len(items) - len(fresh)  # the bridge counts none
        delivered = [(to, flat_json(payload)) for to, payload in self.sent[self.mark:]]
        target = itemgetter(0)  # a stable sort keeps each target's order
        assert sorted(delivered, key=target) == sorted(items, key=target)

    @invariant()
    def the_counts_are_a_fresh_chains(self):
        store = Store()
        store.load_pack(serialize_triples(self.stated | self.kept), "model")
        stats = forward_chain(store, RuleSet(list(self.active.values())))
        assert self.rt.gateway.guard_type_errors == stats.guard_type_errors
        if not self.kept:
            assert self.rt.gateway.per_rule == stats.per_rule


def test_every_write_keeps_the_runtime_its_model():
    run_state_machine_as_test(RuntimeMachine, settings=settings(max_examples=60, stateful_step_count=20, deadline=None))


@pytest.mark.parametrize("steps", [  # pinned: writes that add several facts (a rechain after a replacement,
    # a stale ingest); installs and loads between ingests; a guard skip that whole-store chains recount;
    # two compositions that share a target
    [("subscribe", PATTERNS[0], "http://a.test/h"), ("compose", COMPOSITIONS[0], "alerts/a"),
     ("ingest", "thermo1", 390), ("ingest", "thermo1", 450), ("ingest", "ambient1", 700), ("install", "hot", True),
     ("load", "fever-alias"), ("install", "fever", True), ("install", "fever", True),
     ("subscribe", PATTERNS[2], "alerts/b"), ("install", "hot", True), ("install", "fever", False),
     ("ingest", "thermo1", 380)],
    [("ingest", "thermo1", 395), ("install", "fever", False), ("load", "observation"), ("install", "suggest", False),
     ("load", "remedies"), ("install", "hot", True)],
    [("load", "labels"), ("install", "rank", False), ("load", "fever-alias"), ("install", "fire", False)],
    [("compose", COMPOSITIONS[0], "alerts/a"), ("compose", COMPOSITIONS[1], "alerts/a"), ("ingest", "thermo1", 390)],
])
def test_pinned_sequences_keep_the_runtime_its_model(steps):
    machine = RuntimeMachine()
    try:
        for name, *args in steps:
            getattr(machine, name)(*args)
            for check in machine.invariants:
                check.function(machine)
    finally:
        machine.teardown()
