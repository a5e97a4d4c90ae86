import gc
import logging
import random
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time

import pytest

from knotgate.annotation import (
    Annotator,
    RawReading,
    SensorRegistry,
    UnknownUnit,
    UnregisteredDevice,
)
from knotgate import gateway as gateway_module
from knotgate.gateway import (
    BadTopic,
    DecodeError,
    Egress,
    Gateway,
    InvalidTarget,
    MqttTopic,
    Webhook,
    decode_reading,
    fact_envelope,
    sniff_format,
    topic_to_route,
)
from knotgate.model import (
    XSD_STRING,
    Iri,
    Literal,
    Triple,
    make_iri,
    parse_triples,
    serialize_triples,
)
from knotgate.rules import RuleSet, forward_chain, parse_rulepack
from knotgate.store import Asserted, Inferred, Store

from generators import Vocab

JSON_READING = b'{"device_id":"thermo1","sensor_kind":"temperature","value":39.0,"unit":"cel","timestamp":1700000000000}'
CSV_READING = b"thermo1,temperature,39.0,cel,1700000000000"


def recorded_chains(monkeypatch) -> list:
    """The stats of every forward_chain the gateway runs from now on, in order."""
    chains = []
    real = gateway_module.forward_chain

    def recording(store, packs, delta=None):
        chains.append(real(store, packs, delta))
        return chains[-1]

    monkeypatch.setattr(gateway_module, "forward_chain", recording)
    return chains


def make_gateway(packs=()) -> Gateway:
    registry = SensorRegistry()
    registry.load_csv(
        "thermo1,m3:BodyTemperature,m3:Patient,unit:DegreeCelsius\n"
        "ambient1,m3:AmbientTemperature,m3:Building,unit:DegreeCelsius\n"
    )
    gateway = Gateway(Store(), Annotator(registry))
    for pack in packs:
        gateway.set_rulepack(pack)
    return gateway


# -- decoding ----------------------------------------------------------------


def test_decode_json_reading():
    reading = decode_reading(JSON_READING, "json")
    assert reading == RawReading("thermo1", "temperature", 39.0, "cel", 1700000000000)


def test_decode_csv_equals_json():
    assert decode_reading(CSV_READING, "csv") == decode_reading(JSON_READING, "json")


def test_decode_missing_value():
    with pytest.raises(DecodeError, match="value"):
        decode_reading(b'{"device_id":"x","sensor_kind":"t","unit":"cel","timestamp":1}', "json")


def test_decode_missing_timestamp_defaults_to_received_at():
    reading = decode_reading(
        b'{"device_id":"thermo1","sensor_kind":"t","value":1.0,"unit":"cel"}',
        "json",
        received_at=123,
    )
    assert reading.timestamp == 123
    csv_reading = decode_reading(b"thermo1,t,1.0,cel", "csv", received_at=123)
    assert csv_reading.timestamp == 123


def test_decode_missing_timestamp_without_received_at():
    with pytest.raises(DecodeError, match="timestamp"):
        decode_reading(b"thermo1,t,1.0,cel", "csv")


def test_decode_bad_number():
    with pytest.raises(DecodeError):
        decode_reading(b"thermo1,t,abc,cel,1", "csv")
    with pytest.raises(DecodeError):
        decode_reading(b'{"device_id":"x","sensor_kind":"t","value":"39","unit":"cel"}', "json")


def test_decode_bad_encoding():
    with pytest.raises(DecodeError, match="encoding"):
        decode_reading(b"\xff\xfe\x00bad", "json")


def test_decode_route_hint_fills_missing_fields():
    reading = decode_reading(
        b'{"value":1.0,"unit":"cel","timestamp":5}', "json", route_hint=("thermo1", "temperature")
    )
    assert reading.device_id == "thermo1"
    assert reading.sensor_kind == "temperature"


def test_decode_payload_wins_over_hint():
    reading = decode_reading(JSON_READING, "json", route_hint=("other", "humidity"))
    assert reading.device_id == "thermo1"


def test_sniff_format():
    assert sniff_format(JSON_READING) == "json"
    assert sniff_format(CSV_READING) == "csv"


def test_topic_to_route():
    assert topic_to_route("iot/thermo1/temperature") == ("thermo1", "temperature")


@pytest.mark.parametrize("bad", ["iot//temperature", "weather/x/y/z", "iot/thermo1", "x/y/z"])
def test_topic_to_route_rejects(bad):
    with pytest.raises(BadTopic):
        topic_to_route(bad)


# -- ingestion pipeline --------------------------------------------------------


def test_ingest_39_derives_fever(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    receipt = gateway.ingest(decode_reading(JSON_READING, "json"))
    assert receipt.observation_iri == "urn:obs:thermo1:1"
    assert receipt.triples_added == 6
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert receipt.derived == [fever]
    assert isinstance(gateway.store.provenance(fever), Inferred)
    gateway.shutdown()


def test_ingest_38_derives_nothing(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    receipt = gateway.ingest(RawReading("thermo1", "temperature", 38.0, "cel", 1))
    assert receipt.derived == []
    gateway.shutdown()


def test_ingest_unregistered_device_leaves_store_unchanged(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    with pytest.raises(UnregisteredDevice):
        gateway.ingest(RawReading("ghost", "temperature", 39.0, "cel", 1))
    assert len(gateway.store) == 0
    gateway.shutdown()


def test_ingest_unknown_unit_leaves_store_unchanged(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    with pytest.raises(UnknownUnit):
        gateway.ingest(RawReading("thermo1", "temperature", 39.0, "parsec", 1))
    assert len(gateway.store) == 0
    gateway.shutdown()


def test_per_device_sequences_follow_arrival_order(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    receipts = [
        gateway.ingest(RawReading("thermo1", "temperature", 36.0 + i, "cel", i)) for i in range(5)
    ]
    seqs = [int(r.observation_iri.rsplit(":", 1)[1]) for r in receipts]
    assert seqs == [1, 2, 3, 4, 5]
    gateway.shutdown()


def test_concurrent_submitters_all_complete(fever_pack_text):
    # four submitters and a thread reinstalling the pack with rechain, with
    # threads switching often: no reading is lost and the store ends as the
    # from-scratch closure of what was stated
    pack = parse_rulepack(fever_pack_text)
    gateway = make_gateway([pack])
    futures = []

    def submit_batch(base: int):
        for i in range(10):
            value = 39.5 if i % 2 else 36.5
            futures.append(gateway.submit(RawReading("thermo1", "temperature", value, "cel", base + i)))

    def rechain():
        for _ in range(10):
            gateway.set_rulepack(pack, rechain=True)

    threads = [threading.Thread(target=submit_batch, args=(100 * k,)) for k in range(4)]
    threads.append(threading.Thread(target=rechain))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    receipts = [f.result(timeout=10) for f in futures]
    seqs = sorted(int(r.observation_iri.rsplit(":", 1)[1]) for r in receipts)
    assert seqs == list(range(1, 41))
    live = set(gateway.store)
    gateway.store.retract(Inferred)
    forward_chain(gateway.store, RuleSet(gateway.active_packs()))
    assert set(gateway.store) == live
    assert sum(t.predicate == make_iri("m3:indicates") for t in live) == 20
    assert gateway.per_rule == {"fever": 20}
    gateway.shutdown()


def test_incremental_equals_from_scratch_rechain(fever_pack_text):
    rng = random.Random(21)
    fire_text = (
        "PACK slor-fire DOMAIN fire\n"
        "RULE fire-risk : IF ?o rdf:type ssn:Observation . "
        "?o ssn:observedProperty m3:AmbientTemperature . "
        "?o ssn:observationResult ?v FILTER ?v > 60.0 THEN ?o m3:indicates m3:FireRisk .\n"
    )
    for _ in range(10):
        gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(fire_text)])
        for i in range(rng.randint(1, 30)):
            device = rng.choice(["thermo1", "ambient1"])
            gateway.ingest(RawReading(device, "temperature", rng.uniform(30, 90), "cel", i))
        live = gateway.store.snapshot()
        gateway.store.retract(Inferred)
        forward_chain(gateway.store, RuleSet(gateway.active_packs()))
        assert set(gateway.store) == set(live)
        gateway.shutdown()


def test_derived_hooks_receive_context(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    seen = []
    gateway.add_derived_hook(lambda fact, ctx: (seen.append((fact, ctx)), 2)[1])
    receipt = gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 777))
    assert receipt.notifications_queued == 2
    [(fact, ctx)] = seen
    assert ctx.rule_id == "fever"
    assert ctx.observation_iri == "urn:obs:thermo1:1"
    assert ctx.timestamp == 777
    gateway.shutdown()


def test_a_failing_hook_is_logged_and_neither_the_write_nor_later_hooks_stop(fever_pack_text, caplog):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    seen = []

    def broken(fact, ctx):
        raise RuntimeError("hook bug")

    gateway.add_derived_hook(lambda fact, ctx: 2)
    gateway.add_derived_hook(broken)
    gateway.add_derived_hook(lambda fact, ctx: (seen.append(fact), 1)[1])
    with caplog.at_level(logging.ERROR, logger="knotgate.gateway"):
        receipt = gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 777))
    assert "derived-fact hook failed" in caplog.text
    assert len(receipt.derived) == 1 and seen == receipt.derived
    assert receipt.notifications_queued == 3  # what the other two hooks queued
    assert set(receipt.derived) <= set(gateway.store) and len(gateway.store) == 7
    gateway.shutdown()


def test_stats_accumulate(fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    gateway.ingest(RawReading("thermo1", "temperature", 39.0, "cel", 1))
    gateway.ingest(RawReading("thermo1", "temperature", 40.0, "cel", 2))
    gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 3))
    stats = gateway.stats()
    assert stats["per_rule"]["fever"] == 2
    assert stats["store_size"] == 18 + 2
    gateway.shutdown()


def test_provenance_is_made_once_per_device_and_per_rule(fever_pack_text):
    seen = parse_rulepack("PACK s RULE seen : IF ?o rdf:type ssn:Observation THEN ?o m3:seen m3:Yes .")
    labelled = parse_rulepack("PACK l RULE label : IF ?o m3:label ?v FILTER ?v > 1 THEN ?o m3:a m3:b .")
    gateway = make_gateway([parse_rulepack(fever_pack_text), seen, labelled])
    high = Triple(Iri("urn:x:1"), make_iri("m3:label"), Literal("high", XSD_STRING))
    gateway.load_knowledge_pack(serialize_triples([high]), "labels")
    for i, (device, value) in enumerate([("thermo1", 39.0), ("thermo1", 40.0), ("ambient1", 39.0)], start=1):
        gateway.ingest(RawReading(device, "temperature", value, "cel", i))
    store = gateway.store
    typed = [Triple(Iri(f"urn:obs:thermo1:{n}"), make_iri("rdf:type"), make_iri("ssn:Observation")) for n in (1, 2)]
    assert store.provenance(typed[0]) is store.provenance(typed[1]) == Asserted("urn:dev:thermo1")
    # one object per provenance value, and a rule's is its rule set's
    objects: dict = {}
    for prov in store.snapshot().values():
        objects.setdefault(prov, set()).add(id(prov))
    assert all(len(ids) == 1 for ids in objects.values())
    assert {id(p) for p in objects if isinstance(p, Inferred)} == {
        id(p) for p in gateway.rules.inferred if p.rule_id != "label"
    }
    assert gateway.stats() == {
        "store_size": 1 + 18 + 2 + 3,
        "per_rule": {"fever": 2, "label": 0, "seen": 3},
        "guard_type_errors": 1,
    }
    # a selector built afresh retracts by value
    assert store.retract(Inferred("fever")) == 2
    assert store.retract(Inferred("seen")) == 3
    assert not any(isinstance(p, Inferred) for p in store.snapshot().values())
    gateway.shutdown()


def test_pack_installed_without_rechain_applies_to_earlier_readings(fever_pack_text):
    gateway = make_gateway()
    assert gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1)).derived == []
    stats = gateway.set_rulepack(parse_rulepack(fever_pack_text))
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert stats.committed == [fever] and fever in set(gateway.store)
    assert gateway.stats()["per_rule"] == {"fever": 1}
    # the install chained it, so an unrelated reading derives nothing
    assert gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 2)).derived == []
    gateway.shutdown()


DUPLICATE_PACKS = {
    "a": "PACK a DOMAIN health\nRULE r1 : IF ?o ssn:observationResult ?v FILTER ?v > 38 THEN ?o m3:indicates m3:Fever .\n",
    "b": "PACK b DOMAIN fire\nRULE r1 : IF ?o ssn:observationResult ?v FILTER ?v > 60 THEN ?o m3:indicates m3:FireRisk .\n",
}


def test_rule_id_used_by_another_active_pack_is_refused():
    gateway = make_gateway([parse_rulepack(DUPLICATE_PACKS["a"])])
    with pytest.raises(ValueError, match="r1"):
        gateway.set_rulepack(parse_rulepack(DUPLICATE_PACKS["b"]), rechain=True)
    assert list(gateway.rulepacks) == ["a"]
    assert gateway.domains_for_rule("r1") == ("health",)
    receipt = gateway.ingest(RawReading("thermo1", "temperature", 70.0, "cel", 1))
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert receipt.derived == [fever]
    assert gateway.stats()["per_rule"] == {"r1": 1}
    gateway.shutdown()


def test_replacing_a_pack_may_reuse_its_rule_ids():
    gateway = make_gateway([parse_rulepack(DUPLICATE_PACKS["a"])])
    replacement = DUPLICATE_PACKS["b"].replace("PACK b", "PACK a")
    gateway.set_rulepack(parse_rulepack(replacement), rechain=True)
    assert gateway.domains_for_rule("r1") == ("fire",)
    assert gateway.domains_for_rule("r2") == ()
    receipt = gateway.ingest(RawReading("thermo1", "temperature", 70.0, "cel", 1))
    risk = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:FireRisk"))
    assert receipt.derived == [risk]
    gateway.shutdown()


def test_knowledge_pack_applies_to_earlier_readings(monkeypatch, fever_pack_text, remedies_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(SUGGEST_PACK)])
    gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1))
    chains = recorded_chains(monkeypatch)
    gateway.load_knowledge_pack(remedies_pack_text, "remedies")
    assert [stats.committed for stats in chains] == [SUGGESTS]
    assert set(SUGGESTS) <= set(gateway.store)
    # the load chained them, so an unrelated reading derives nothing
    assert gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 2)).derived == []
    gateway.shutdown()


def test_reloading_an_unchanged_knowledge_pack_chains_nothing(monkeypatch, remedies_pack_text):
    gateway = make_gateway([parse_rulepack(SUGGEST_PACK)])
    chains = recorded_chains(monkeypatch)
    assert gateway.load_knowledge_pack(remedies_pack_text, "remedies") == 3
    assert len(chains) == 1
    assert gateway.load_knowledge_pack(remedies_pack_text, "remedies") == 0
    assert len(chains) == 1
    gateway.shutdown()


SUGGEST_PACK = (
    "PACK suggest RULE suggest : IF ?o m3:indicates ?s . ?s m3:hasRemedy ?r "
    "THEN ?o m3:suggests ?r ."
)
#: what SUGGEST_PACK derives, in commit order, for a fever at urn:obs:thermo1:1 once the remedies are loaded
SUGGESTS = [
    Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:suggests"), make_iri(f"m3:{remedy}"))
    for remedy in ("ColdCompress", "GingerTea", "Hydration")
]


@pytest.mark.parametrize("write", ["load_knowledge_pack", "set_rulepack rechain"])
def test_pack_writes_wait_for_the_ingest_under_way(write, fever_pack_text, remedies_pack_text):
    # one writer: a pack write issued while an ingest is still notifying
    # changes nothing until that ingest ends, and then chains what it changed
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    if write == "load_knowledge_pack":
        gateway.set_rulepack(parse_rulepack(SUGGEST_PACK))
        def pack_write():
            gateway.load_knowledge_pack(remedies_pack_text, "remedies")
    else:
        gateway.load_knowledge_pack(remedies_pack_text, "remedies")
        def pack_write():
            gateway.set_rulepack(parse_rulepack(SUGGEST_PACK), rechain=True)
    notifying, release = threading.Event(), threading.Event()

    def held(fact, ctx):
        notifying.set()
        release.wait(timeout=10)
        return 0

    gateway.add_derived_hook(held)
    fever = RawReading("thermo1", "temperature", 39.5, "cel", 1)
    threads = [threading.Thread(target=gateway.ingest, args=(fever,), daemon=True)]
    threads[0].start()
    try:
        assert notifying.wait(timeout=5)
        before = (gateway.store.snapshot(), dict(gateway.per_rule))
        threads.append(threading.Thread(target=pack_write, daemon=True))
        threads[1].start()
        time.sleep(0.2)  # time enough for the write to land, were it not held
        assert (gateway.store.snapshot(), dict(gateway.per_rule)) == before
    finally:
        release.set()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert set(SUGGESTS) <= set(gateway.store)
    assert gateway.stats()["per_rule"] == {"fever": 1, "suggest": 3}
    gateway.shutdown()


ALIAS = "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n"


def test_ingest_on_an_alias_store_chains_by_delta(monkeypatch, fever_pack_text, remedies_pack_text):
    chains = recorded_chains(monkeypatch)
    derived = {}
    for order in ("alias first", "alias last"):
        gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(SUGGEST_PACK)])
        packs = [(ALIAS, "alias"), (remedies_pack_text, "remedies")]
        for document, pack_id in packs if order == "alias first" else reversed(packs):
            gateway.load_knowledge_pack(document, pack_id)
        del chains[:]
        derived[order] = gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1)).derived
        assert [stats.whole_store for stats in chains] == [False]
        gateway.shutdown()
    obs = Iri("urn:obs:thermo1:1")
    assert derived["alias last"] == derived["alias first"]
    assert derived["alias first"] == [Triple(obs, make_iri("m3:indicates"), make_iri("m3:AFever"))] + [
        Triple(obs, make_iri("m3:suggests"), make_iri(f"m3:{remedy}"))
        for remedy in ("ColdCompress", "GingerTea", "Hydration")
    ]


def recorded_deltas(monkeypatch) -> list:
    """The (delta, stats) of every forward_chain the gateway runs from now on, in order."""
    calls = []
    real = gateway_module.forward_chain

    def recording(store, packs, delta=None):
        calls.append((None if delta is None else set(delta), real(store, packs, delta)))
        return calls[-1][1]

    monkeypatch.setattr(gateway_module, "forward_chain", recording)
    return calls


def test_an_alias_free_knowledge_pack_load_chains_from_what_it_states(monkeypatch, fever_pack_text,
                                                                      remedies_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(SUGGEST_PACK)])
    gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1))
    calls = recorded_deltas(monkeypatch)
    unread = "<urn:x:label> <urn:x:says> <urn:x:nothing> .\n"  # a triple no rule reads
    gateway.load_knowledge_pack(unread, "unread")
    gateway.load_knowledge_pack(remedies_pack_text, "remedies")
    assert [delta for delta, _ in calls] == [set(parse_triples(unread)), set(parse_triples(remedies_pack_text))]
    assert [stats.whole_store for _, stats in calls] == [False, False]
    assert [stats.committed for _, stats in calls] == [[], SUGGESTS]
    gateway.shutdown()


def test_a_knowledge_pack_load_that_links_aliases_chains_the_whole_store(monkeypatch, fever_pack_text,
                                                                         remedies_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(SUGGEST_PACK)])
    gateway.load_knowledge_pack(remedies_pack_text, "remedies")
    gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1))
    calls = recorded_deltas(monkeypatch)
    gateway.load_knowledge_pack(ALIAS, "alias")
    assert [stats.whole_store for _, stats in calls] == [True]
    assert set(SUGGESTS) <= set(gateway.store)
    gateway.shutdown()


def test_a_chain_run_mid_load_does_not_stop_the_loads_own_chain(monkeypatch, fever_pack_text, remedies_pack_text):
    # a chain that runs while the pack is being loaded, before its triples
    # are stated, leaves them to the chain that ends the load
    gateway = make_gateway([parse_rulepack(fever_pack_text), parse_rulepack(SUGGEST_PACK)])
    gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1))
    real = gateway.store.load_pack

    def chain_mid_load(document, pack_id):
        gateway._chain([], "", 0)
        return real(document, pack_id)

    monkeypatch.setattr(gateway.store, "load_pack", chain_mid_load)
    gateway.load_knowledge_pack(remedies_pack_text, "remedies")
    assert set(SUGGESTS) <= set(gateway.store)
    assert gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 2)).derived == []
    gateway.shutdown()


def test_reading_whose_chain_failed_is_chained_next(monkeypatch, fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 1))
    real = gateway_module.forward_chain

    def fail_once(store, packs, delta=None):
        monkeypatch.setattr(gateway_module, "forward_chain", real)
        raise RuntimeError("chain interrupted")

    monkeypatch.setattr(gateway_module, "forward_chain", fail_once)
    with pytest.raises(RuntimeError):
        gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 2))
    receipt = gateway.ingest(RawReading("thermo1", "temperature", 36.5, "cel", 3))
    fever = Triple(Iri("urn:obs:thermo1:2"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert receipt.derived == [fever]
    gateway.shutdown()


def test_triples_terms_and_the_store_form_no_reference_cycles(fever_pack_text):
    # so that gc.freeze() may one day keep them out of every collection: a frozen cycle is never freed
    flags, enabled = gc.get_debug(), gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
    try:
        gateway = make_gateway([parse_rulepack(fever_pack_text)])
        for n in range(200):
            gateway.ingest(RawReading("thermo1", "temperature", 36.0 + n % 5, "cel", n))
        gateway.set_rulepack(parse_rulepack(SUGGEST_PACK), rechain=True)
        gateway.load_knowledge_pack(
            "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n", "aliases")
        gateway.store.retract(Inferred)
        del gateway
        gc.collect()
        assert [obj for obj in gc.garbage if type(obj).__module__.startswith("knotgate.")] == []
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_guard_type_errors_count_each_skipped_binding_once():
    labelled = parse_rulepack("PACK p RULE r : IF ?o m3:label ?v FILTER ?v > 1 THEN ?o m3:a m3:b .")
    for links in ("", "<urn:x:b> <urn:knotgate:m3#equivalentTo> <urn:x:a> .\n"):
        gateway = make_gateway([labelled])
        high = Triple(Iri("urn:x:1"), make_iri("m3:label"), Literal("high", XSD_STRING))
        gateway.load_knowledge_pack(serialize_triples([high]) + links, "labels")
        for i in range(3):
            gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", i))
            assert gateway.guard_type_errors == 1
        gateway.shutdown()


def test_stats_expose_guard_type_errors():
    labelled = parse_rulepack("PACK p RULE r : IF ?o m3:label ?v FILTER ?v > 1 THEN ?o m3:a m3:b .")
    gateway = make_gateway([labelled])
    assert gateway.stats()["guard_type_errors"] == 0
    high = Triple(Iri("urn:x:1"), make_iri("m3:label"), Literal("high", XSD_STRING))
    gateway.load_knowledge_pack(serialize_triples([high]), "labels")
    gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 1))
    assert gateway.stats() == {"store_size": 1 + 6, "per_rule": {"r": 0}, "guard_type_errors": 1}
    gateway.shutdown()


# -- egress -------------------------------------------------------------------


def test_webhook_delivery_success(capture_server, fever_pack_text):
    gateway = make_gateway([parse_rulepack(fever_pack_text)])
    egress = Egress()
    records = []
    gateway.add_derived_hook(
        lambda fact, ctx: records.append(egress.deliver(Webhook(capture_server.url), fact_envelope(fact, ctx)))
        or 1
    )
    receipt = gateway.ingest(decode_reading(JSON_READING, "json"))
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert receipt.derived == [fever]
    assert receipt.notifications_queued == 1
    [record] = records
    assert record.ok and record.attempts == 1
    [envelope] = capture_server.requests
    assert set(envelope) == {"triple", "rule_id", "observation_iri", "timestamp"}
    assert parse_triples(envelope["triple"] + "\n") == [fever]
    assert envelope["rule_id"] == "fever"
    assert envelope["observation_iri"] == "urn:obs:thermo1:1"
    assert envelope["timestamp"] == 1700000000000
    gateway.shutdown()


def test_webhook_500_exhausts_retry_budget(capture_server):
    capture_server.fail_times = 5
    egress = Egress(spacing_s=0.01)
    record = egress.deliver(Webhook(capture_server.url), b"{}")
    assert not record.ok
    assert record.attempts == 3


def test_webhook_retry_then_success(capture_server):
    capture_server.fail_times = 2
    egress = Egress(spacing_s=0.01)
    record = egress.deliver(Webhook(capture_server.url), b'{"n":1}')
    assert record.ok
    assert record.attempts == 3
    assert capture_server.requests == [{"n": 1}]


def test_webhook_post_keeps_the_query_and_sends_json(capture_server):
    egress = Egress()
    record = egress.deliver(Webhook(capture_server.url + "?k=v&n=1"), b'{"n":1}')
    assert record.ok and record.attempts == 1
    assert capture_server.paths == ["/hook?k=v&n=1"]
    assert capture_server.requests == [{"n": 1}]
    [headers] = capture_server.headers
    assert headers["Host"] == f"127.0.0.1:{capture_server.port}"
    assert headers["Content-Type"] == "application/json"


def test_mqtt_target_without_client_fails_cleanly():
    egress = Egress()
    record = egress.deliver(MqttTopic("derived/health"), b"{}")
    assert not record.ok
    assert record.attempts == 0


@pytest.mark.parametrize("url", [
    "http://example.com/x",
    "https://example.com:8443/x?k=v",
    "http://[::1]:8080/x",
    "http://user@example.com/x",
    "http://example.com./x",
    f"http://{'a' * 63}.example/x",
])
def test_egress_target_accepts_a_well_formed_url(url):
    assert Webhook(url).url == url


def test_egress_target_validation():
    with pytest.raises(InvalidTarget):
        MqttTopic("")
    for url in [
        "ftp://example.com/x",
        "http://",
        "http:///x",
        "http://user@/x",
        "http://example.com:99999/x",
        "http://example.com:http/x",
        "http://example.com:0/x",
        "http://[::1/x",
        "http://h/a b\r\nX: y",  # request splitting, were it sent
        "http://h/a\tb",
        "http://h/\x00",
        "http://h/\x7f",
        "http://h/caf\u00e9",
        # host names socket.getaddrinfo cannot encode: an empty label, one over 63 characters
        "http://a..b/x",
        "http://.example/x",
        f"http://{'a' * 64}.example/x",
        f"http://{'a' * 64}/x",
    ]:
        with pytest.raises(InvalidTarget, match="webhook URL"):
            Webhook(url)


# -- the webhook poster against local sockets -------------------------------------


class ScriptedPeer:
    """A local listening socket that reads each connection's request (head and
    Content-Length body) into requests, then hands the connection to answer.
    With a server TLS context, each connection is a TLS handshake first."""

    def __init__(self, answer, tls: ssl.SSLContext | None = None):
        self.requests: list[bytes] = []
        self._answer = answer
        self._tls = tls
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}/hook"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            try:
                conn.settimeout(5)
                if self._tls is not None:
                    conn = self._tls.wrap_socket(conn, server_side=True)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                                  if line.lower().startswith(b"content-length:")))
                while len(body) < length:
                    body += conn.recv(4096)
                self.requests.append(head + b"\r\n\r\n" + body)
                self._answer(conn)
            except OSError:  # the poster gave up, or refused the handshake
                pass
            finally:
                conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(5)
        assert not self._thread.is_alive()
        self._listener.close()


def replying(reply: bytes):
    return lambda conn: conn.sendall(reply)


def test_the_poster_sends_its_request_as_these_bytes():
    with ScriptedPeer(replying(b"HTTP/1.1 204 No Content\r\n\r\n")) as peer:
        status = gateway_module._post_webhook(peer.url + "?k=v&n=1", b'{"n":1}')
    assert status == 204
    assert peer.requests == [
        b"POST /hook?k=v&n=1 HTTP/1.1\r\n"
        + f"Host: 127.0.0.1:{peer.port}\r\n".encode()
        + b"Content-Type: application/json\r\nContent-Length: 7\r\nConnection: close\r\n\r\n"
        + b'{"n":1}'
    ]


@pytest.mark.parametrize("status, ok", [
    (200, True), (201, True), (204, True),
    (301, False), (302, False), (307, False), (404, False), (500, False), (503, False),
])
def test_a_2xx_reply_is_a_delivery_and_any_other_a_failed_attempt_with_no_redirect_followed(status, ok):
    reply = f"HTTP/1.1 {status} Whatever\r\nLocation: /elsewhere\r\nContent-Length: 0\r\n\r\n".encode()
    with ScriptedPeer(replying(reply)) as peer:
        record = Egress(spacing_s=0.01).deliver(Webhook(peer.url), b"{}")
    assert (record.ok, record.attempts) == ((True, 1) if ok else (False, 3))
    assert record.error == (None if ok else f"HTTP {status}")
    assert all(request.startswith(b"POST /hook HTTP/1.1\r\n") for request in peer.requests)
    assert len(peer.requests) == record.attempts


@pytest.mark.parametrize("answer, error", [
    pytest.param(replying(b"HTTP/1.1 OK\r\n\r\n"), "malformed status line b'HTTP/1.1 OK", id="no-status"),
    pytest.param(replying(b"ICY 200 OK\r\n\r\n"), "malformed status line b'ICY 200 OK", id="not-HTTP"),
    pytest.param(lambda conn: None, "connection closed before the reply head ended", id="closed-unanswered"),
    pytest.param(replying(b"HTTP/1.1 200 OK\r\nX-A: 1\r\n"), "connection closed before the reply head ended",
                 id="closed-mid-head"),
])
def test_a_malformed_or_missing_reply_is_a_failed_attempt_with_its_error(answer, error):
    with ScriptedPeer(answer) as peer:
        record = Egress(spacing_s=0.01).deliver(Webhook(peer.url), b"{}")
    assert (record.ok, record.attempts) == (False, 3)
    assert record.error.startswith(error), record.error
    assert len(peer.requests) == 3


def test_a_reply_head_over_the_limit_is_a_failed_attempt():
    reply = b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * gateway_module.REPLY_HEAD_LIMIT + b"\r\n\r\n"
    with ScriptedPeer(replying(reply)) as peer:
        with pytest.raises(ValueError, match="reply head over"):
            gateway_module._post_webhook(peer.url, b"{}")


def test_a_peer_that_trickles_its_reply_ends_the_attempt_at_the_deadline(monkeypatch):
    monkeypatch.setattr(gateway_module, "WEBHOOK_TIMEOUT_S", 0.5)

    def trickle(conn):  # one byte every 0.2 s: each read waits far less than the deadline
        for byte in b"HTTP/1.1 200 OK\r\nX-Slow: yes\r\n\r\n":
            conn.sendall(bytes([byte]))
            time.sleep(0.2)

    with ScriptedPeer(trickle) as peer:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            gateway_module._post_webhook(peer.url, b"{}")
        elapsed = time.monotonic() - start
    assert 0.45 <= elapsed < 0.9, elapsed


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
def test_an_https_target_with_a_self_signed_certificate_fails_verification(tmp_path):
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
         "-keyout", str(key), "-out", str(cert), "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=30,
    )
    server_tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_tls.load_cert_chain(cert, key)
    with ScriptedPeer(replying(b"HTTP/1.1 200 OK\r\n\r\n"), tls=server_tls) as peer:
        with pytest.raises(ssl.SSLCertVerificationError, match="certificate verify failed"):
            gateway_module._post_webhook(f"https://127.0.0.1:{peer.port}/hook", b"{}")
    assert peer.requests == []  # nothing was sent over the unverified connection
