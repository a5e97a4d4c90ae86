import errno
import json
import logging
import socket
import socketserver
import statistics
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from knotgate.annotation import (
    InvalidRegistration,
    RawReading,
    UnknownUnit,
    UnregisteredDevice,
    UnsupportedConversion,
)
from knotgate.config import AppConfig, load_config
from knotgate.gateway import (
    OUTBOX_CAPACITY,
    RETRY_ATTEMPTS,
    BadTopic,
    DecodeError,
    DerivedContext,
    Egress,
    MqttTopic,
    Webhook,
)
from knotgate.lexer import GrammarError
from knotgate.model import Iri, Triple, TripleParseError, compact_term, make_iri, parse_triples, triple_to_line
from knotgate.query import Query, UnsafeQuery, evaluate_query, parse_query
from knotgate.rules import RuleSafetyError, parse_pattern, parse_rulepack
from knotgate import services
from knotgate.services import (
    HTTP_READ_TIMEOUT_S,
    HTTP_WORKERS,
    MAX_BODY_BYTES,
    BodyTooLarge,
    InvalidSubscription,
    Runtime,
    SubscriptionManager,
    TemplateError,
    _ApiHandler,
    _ApiServer,
    error_body,
    parse_endpoint,
)
from knotgate.store import Inferred, Store, TriplePattern, Variable

from conftest import FIXTURES
from oracles import oracle_alias_classes, oracle_match, oracle_query


@pytest.fixture
def runtime(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    rt = Runtime.from_config(cfg, base)
    rt.start_http()
    yield rt
    rt.stop()


@pytest.fixture
def base_url(runtime):
    return f"http://127.0.0.1:{runtime.http_port}"


def ingest_body(value, device="thermo1", unit="cel", ts=1700000000000):
    return {
        "device_id": device,
        "sensor_kind": "temperature",
        "value": value,
        "unit": unit,
        "timestamp": ts,
    }


def drained(runtime):
    """Wait for the outbox to deliver everything queued; deliveries leave on another thread."""
    assert runtime.egress.drain(5) == 0


FEVER_LINE = "<urn:obs:thermo1:1> <urn:knotgate:m3#indicates> <urn:knotgate:m3#Fever> ."


# -- observations endpoint ---------------------------------------------------


def test_ingest_endpoint_derives_fever(base_url):
    resp = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    assert resp.status_code == 202
    receipt = resp.json()
    assert receipt["observation_iri"] == "urn:obs:thermo1:1"
    assert receipt["triples_added"] == 6
    assert FEVER_LINE in receipt["derived"]


def test_ingest_endpoint_unknown_device(base_url):
    resp = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0, device="ghost"))
    assert resp.status_code == 404
    assert resp.json()["error"] == "UnregisteredDevice"


def test_ingest_endpoint_unknown_unit(base_url):
    resp = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0, unit="parsec"))
    assert resp.status_code == 422
    assert resp.json()["error"] == "UnknownUnit"


@pytest.mark.parametrize("length, status", [(-1, 400), (MAX_BODY_BYTES + 1, 413)])
def test_bad_content_length_is_refused_unread(runtime, length, status):
    # no body follows the headers: reading one would block until the timeout
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=2) as sock:
        sock.sendall(
            f"POST /api/v1/observations HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            assert chunk, "connection closed without a reply"
            reply += chunk
    assert reply.split()[1] == str(status).encode()


def test_ingest_endpoint_malformed_json(base_url):
    resp = requests.post(
        f"{base_url}/api/v1/observations",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    assert resp.status_code == 400
    assert resp.json()["error"] == "DecodeError"


def test_unknown_path_is_404(base_url):
    assert requests.get(f"{base_url}/api/v1/nope").status_code == 404


# -- query endpoint ------------------------------------------------------------


def test_query_endpoint_matches_engine(runtime, base_url):
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    q = "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }"
    resp = requests.get(f"{base_url}/api/v1/query", params={"q": q})
    assert resp.status_code == 200
    body = resp.json()
    table = evaluate_query(parse_query(q), runtime.store)
    assert body["columns"] == list(table.columns)
    assert len(body["rows"]) == 3
    from knotgate.model import serialize_term

    assert body["rows"] == [[serialize_term(t) for t in row] for row in table.rows]


def test_query_endpoint_empty_store(fixtures_dir):
    rt = Runtime(AppConfig())
    rt.config.http.port = 0
    rt.start_http()
    try:
        q = "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }"
        resp = requests.get(
            f"http://127.0.0.1:{rt.http_port}/api/v1/query", params={"q": q}
        )
        assert resp.status_code == 200
        assert resp.json()["rows"] == []
    finally:
        rt.stop()


def test_query_endpoint_syntax_error_carries_position(base_url):
    resp = requests.get(f"{base_url}/api/v1/query", params={"q": "SELECT WHERE {}"})
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "QuerySyntaxError"
    assert "position" in body


def test_query_endpoint_limit_of_more_digits_than_int_reads_carries_position(base_url):
    q = "SELECT ?o WHERE { ?o ?p ?x } LIMIT " + "9" * 5000
    resp = requests.get(f"{base_url}/api/v1/query", params={"q": q})
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "QuerySyntaxError"
    assert body["position"] == {"line": 1, "column": q.index("9") + 1}


def test_query_endpoint_integer_of_more_digits_than_int_reads_says_out_of_range(base_url):
    q = "SELECT ?o WHERE { ?o ?p " + "9" * 5000 + " }"
    resp = requests.get(f"{base_url}/api/v1/query", params={"q": q})
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "QuerySyntaxError"
    assert body["position"] == {"line": 1, "column": q.index("9") + 1}
    assert body["detail"].startswith("integer out of range at line 1")
    assert "set_int_max_str_digits" not in body["detail"]


def test_query_endpoint_unsafe_variable(base_url):
    resp = requests.get(
        f"{base_url}/api/v1/query",
        params={"q": "SELECT ?x WHERE { ?y rdf:type ssn:Sensor }"},
    )
    assert resp.status_code == 400
    assert resp.json()["error"] == "UnsafeQuery"


@pytest.mark.parametrize(
    "exc, status",
    [
        (UnregisteredDevice("d"), 404),
        (UnknownUnit("u"), 422),
        (UnsupportedConversion("u"), 422),
        (DecodeError("d"), 400),
        (BadTopic("t"), 400),
        (GrammarError(1, 2, "r"), 400),
        (TripleParseError(3, "r"), 400),
        (RuleSafetyError("r", ["x"]), 400),
        (UnsafeQuery("x"), 400),
        (InvalidRegistration("r"), 400),
        (TemplateError("t"), 400),
        (InvalidSubscription("s"), 400),
        (BodyTooLarge("b"), 413),
        (ValueError("v"), 400),
        (RuntimeError("bug"), 500),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_body_status_per_exception(exc, status):
    code, body = error_body(exc)
    assert code == status
    assert body["error"] == type(exc).__name__


# -- admin endpoints -------------------------------------------------------------


def test_sensors_endpoint_csv_and_json(base_url):
    csv_body = "new1,m3:BodyTemperature,m3:Patient,unit:DegreeCelsius\n"
    resp = requests.post(
        f"{base_url}/api/v1/sensors", data=csv_body, headers={"Content-Type": "text/csv"}
    )
    assert resp.status_code == 200 and resp.json()["registered"] == 1
    resp = requests.post(
        f"{base_url}/api/v1/sensors",
        json={
            "device_id": "new2",
            "observed_property": "m3:AmbientTemperature",
            "feature_of_interest": "m3:Room",
            "canonical_unit": "unit:DegreeCelsius",
        },
    )
    assert resp.status_code == 200 and resp.json()["registered"] == 1
    ok = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(20.0, device="new2"))
    assert ok.status_code == 202


def test_rulepack_post_is_idempotent(runtime, base_url, fever_pack_text):
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    before = runtime.store.snapshot()
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data=fever_pack_text)
    assert resp.status_code == 200
    assert runtime.store.snapshot() == before


def test_rulepack_replacement_equals_fresh_start(runtime, base_url, fixtures_dir):
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    v2 = (
        "PACK slor-health DOMAIN health\n"
        "RULE fever : IF ?o rdf:type ssn:Observation . "
        "?o ssn:observedProperty m3:BodyTemperature . "
        "?o ssn:observationResult ?v FILTER ?v > 40.0 "
        "THEN ?o m3:indicates m3:Fever .\n"
    )
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data=v2)
    assert resp.status_code == 200
    # the 39 degree observation no longer qualifies under the v2 threshold
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    assert fever not in runtime.store
    assert runtime.gateway.stats()["per_rule"]["fever"] == 0

    # fresh-start oracle: a new instance that only ever saw v2 ends up equal
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    cfg.load.rulepacks = [str(fixtures_dir / "rules" / "bloodpressure.rules"),
                          str(fixtures_dir / "rules" / "fire.rules")]
    fresh = Runtime.from_config(cfg, base)
    try:
        fresh.gateway.set_rulepack(parse_rulepack(v2))
        fresh.gateway.ingest(
            RawReading("thermo1", "temperature", 39.0, "cel", 1700000000000)
        )
        assert set(fresh.store) == set(runtime.store)
    finally:
        fresh.stop()


def test_rulepack_post_reusing_another_packs_rule_id_is_refused(runtime, base_url):
    # slor-fire is active (DOMAIN fire) and owns fire-risk
    clash = (
        "PACK other DOMAIN health\n"
        "RULE fire-risk : IF ?o ssn:observationResult ?v FILTER ?v > 1.0 THEN ?o m3:indicates m3:Fever .\n"
    )
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data=clash)
    assert resp.status_code == 400
    assert resp.json()["error"] == "ValueError" and "fire-risk" in resp.json()["detail"]
    assert "other" not in runtime.gateway.rulepacks
    assert runtime.gateway.domains_for_rule("fire-risk") == ("fire",)


def test_rulepack_post_syntax_error(base_url):
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data="PACK broken RULE x IF")
    assert resp.status_code == 400
    assert "position" in resp.json()


def test_rulepack_post_malformed_number_is_a_syntax_error(base_url):
    bad = "PACK p RULE r : IF ?o ssn:observationResult ?v FILTER ?v > 1e- THEN ?o m3:a m3:b ."
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data=bad)
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "RuleSyntaxError"
    assert body["position"] == {"line": 1, "column": bad.index("1e-") + 1}


def test_rulepack_post_safety_error(base_url):
    bad = "PACK p RULE r : IF ?o rdf:type ssn:Observation THEN ?x m3:a m3:b ."
    resp = requests.post(f"{base_url}/api/v1/rulepacks", data=bad)
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "RuleSafetyError"
    assert "x" in body["detail"]


def test_packs_endpoint_loads_triples(base_url, runtime):
    doc = "<urn:knotgate:m3#Chill> <urn:knotgate:m3#hasRemedy> <urn:knotgate:m3#Blanket> .\n"
    resp = requests.post(f"{base_url}/api/v1/packs", params={"id": "extra"}, data=doc)
    assert resp.status_code == 200
    assert resp.json() == {"pack_id": "extra", "loaded": 1}
    resp = requests.post(f"{base_url}/api/v1/packs", data=doc)
    assert resp.status_code == 400  # id is required


def test_stats_endpoint(base_url):
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    resp = requests.get(f"{base_url}/api/v1/stats")
    assert resp.status_code == 200
    body = resp.json()
    assert body["per_rule"]["fever"] == 1
    assert body["store_size"] > 6


# -- subscriptions ----------------------------------------------------------------


def test_subscription_invariant_needs_concrete_position():
    subscriptions = SubscriptionManager(Store(), Egress())
    with pytest.raises(InvalidSubscription):
        subscriptions.register(TriplePattern(Variable("a"), Variable("b"), Variable("c")), Webhook("http://x:1/h"))


def test_subscription_delivers_once_per_fact(base_url, runtime, capture_server):
    resp = requests.post(
        f"{base_url}/api/v1/subscriptions",
        json={
            "pattern": "?o m3:indicates m3:Fever",
            "endpoint": {"kind": "webhook", "url": capture_server.url},
        },
    )
    assert resp.status_code == 201
    r1 = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    assert r1.json()["notifications_queued"] == 1
    drained(runtime)
    [envelope] = capture_server.requests
    assert set(envelope) == {"triple", "rule_id", "observation_iri", "timestamp"}
    assert parse_triples(envelope["triple"] + "\n")[0].object == make_iri("m3:Fever")
    assert envelope["rule_id"] == "fever"
    assert envelope["observation_iri"] == "urn:obs:thermo1:1"
    assert envelope["timestamp"] == 1700000000000


def test_subscription_not_notified_below_threshold(base_url, runtime, capture_server):
    requests.post(
        f"{base_url}/api/v1/subscriptions",
        json={
            "pattern": "?o m3:indicates m3:Fever",
            "endpoint": {"kind": "webhook", "url": capture_server.url},
        },
    )
    r = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(37.0))
    assert r.json()["notifications_queued"] == 0
    drained(runtime)
    assert capture_server.requests == []


def test_k_subscriptions_yield_k_deliveries(runtime, capture_server):
    k = 4
    for _ in range(k):
        runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook(capture_server.url))
    receipt = runtime.gateway.ingest(RawReading("thermo1", "temperature", 41.0, "cel", 1))
    assert receipt.notifications_queued == k
    drained(runtime)
    assert len(capture_server.requests) == k


def test_subscription_not_redelivered_after_rechain(base_url, runtime, capture_server, fever_pack_text):
    requests.post(
        f"{base_url}/api/v1/subscriptions",
        json={
            "pattern": "?o m3:indicates m3:Fever",
            "endpoint": {"kind": "webhook", "url": capture_server.url},
        },
    )
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    drained(runtime)
    assert len(capture_server.requests) == 1
    # replacing the pack re-derives the fact, which the store held before: no new fact, no delivery
    requests.post(f"{base_url}/api/v1/rulepacks", data=fever_pack_text)
    drained(runtime)
    assert len(capture_server.requests) == 1


def _bridged_runtime(fixtures_dir):
    """A runtime from the fixture config with the MQTT bridge on, and the list that records
    each delivery it makes, as (webhook URL or MQTT topic, payload), in delivery order."""
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    rt = Runtime.from_config(cfg, base)
    sent = []
    rt.egress.http_post = lambda url, payload: sent.append((url, payload)) or 200
    rt.egress.mqtt_publish = lambda topic, payload: sent.append((topic, payload))
    rt.gateway.add_derived_hook(rt._bridge_derived_to_mqtt)
    return rt, sent


def _register_fever_triggers(rt):
    fever = parse_pattern("?o m3:indicates m3:Fever")
    rt.subscriptions.register(fever, Webhook("http://sub.test/h"))
    rt.compositions.register(
        fever, "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }", {"observation": "{o}", "remedies": "{r}"},
        MqttTopic("remedies"),
    )


def test_a_rechain_of_an_unchanged_pack_sends_nothing(fixtures_dir, fever_pack_text):
    # one delivery per (trigger, fact) while the fact stays in the store, whichever write derives it again
    rt, sent = _bridged_runtime(fixtures_dir)
    try:
        _register_fever_triggers(rt)
        # a ground pattern, which only the one fact matches
        ground = parse_pattern("<urn:obs:thermo1:1> m3:indicates m3:Fever")
        rt.subscriptions.register(ground, Webhook("http://one.test/h"))
        rt.gateway.ingest(fever_reading(1))
        drained(rt)
        targets = ["http://sub.test/h", "http://one.test/h", "remedies", "derived/health"]
        assert [target for target, _ in sent] == targets
        for _ in range(2):
            stats = rt.gateway.set_rulepack(parse_rulepack(fever_pack_text), rechain=True)
            assert len(stats.committed) == 1  # derived again
        drained(rt)
        assert len(sent) == 4
    finally:
        rt.stop()


def test_a_fact_retracted_by_a_pack_replacement_is_delivered_again_when_derived_again(fixtures_dir, fever_pack_text):
    rt, sent = _bridged_runtime(fixtures_dir)
    try:
        _register_fever_triggers(rt)
        rt.gateway.ingest(fever_reading(1, 39.0))
        assert rt.gateway.set_rulepack(parse_rulepack(_PACKS["hot"]), rechain=True).committed == []
        rt.gateway.set_rulepack(parse_rulepack(fever_pack_text), rechain=True)
        drained(rt)
        assert [target for target, _ in sent] == ["http://sub.test/h", "remedies", "derived/health"] * 2
        assert [json.loads(payload)["observation_iri"] for _, payload in sent[::3]] == ["urn:obs:thermo1:1", ""]
    finally:
        rt.stop()


def test_a_trigger_registered_after_its_fact_was_derived_gets_nothing_from_a_rechain(fixtures_dir, fever_pack_text):
    rt, sent = _bridged_runtime(fixtures_dir)
    try:
        rt.gateway.ingest(fever_reading(1))
        _register_fever_triggers(rt)
        rt.gateway.set_rulepack(parse_rulepack(fever_pack_text), rechain=True)
        rt.gateway.ingest(fever_reading(2))
        drained(rt)
        assert [target for target, _ in sent] == ["derived/health", "http://sub.test/h", "remedies", "derived/health"]
        assert json.loads(sent[1][1])["observation_iri"] == "urn:obs:thermo1:2"
    finally:
        rt.stop()


def test_subscription_on_asserted_facts_never_fires(runtime, capture_server):
    runtime.subscriptions.register(
        parse_pattern("?o rdf:type ssn:Observation"), Webhook(capture_server.url)
    )
    receipt = runtime.gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 1))
    assert receipt.notifications_queued == 0
    drained(runtime)
    assert capture_server.requests == []


def test_subscription_and_composition_match_through_aliases(capture_server, fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.load.rulepacks = ["rules/fever.rules"]
    cfg.load.packs = []
    rt = Runtime.from_config(cfg, base)
    try:
        # the remedies are served under m3:AFever, whichever pack comes first
        rt.gateway.load_knowledge_pack(
            "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n",
            "aliases",
        )
        rt.gateway.load_knowledge_pack((fixtures_dir / "packs" / "remedies.nt").read_text(), "remedies")
        trigger = parse_pattern("?o m3:indicates m3:Fever")
        rt.subscriptions.register(trigger, Webhook(capture_server.url))
        rt.compositions.register(
            trigger,
            "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }",
            {"observation": "{o}", "suggestions": "{r}"},
            Webhook(capture_server.url),
        )
        receipt = rt.gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 1))
        assert receipt.notifications_queued == 2
        drained(rt)
        [envelope] = [r for r in capture_server.requests if "triple" in r]
        # delivered in served form, under the class's canonical IRI
        assert parse_triples(envelope["triple"] + "\n") == [
            Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:AFever"))
        ]
        [payload] = [r for r in capture_server.requests if "suggestions" in r]
        assert payload == {
            "observation": "urn:obs:thermo1:1",
            "suggestions": ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"],
        }
    finally:
        rt.stop()


def test_ground_subscription_and_composition_fire_on_their_fact(remedies_pack_text):
    # a pattern with no variable matches its fact with one empty row, ()
    store = Store()
    store.load_pack(remedies_pack_text, "remedies")
    fever = Triple(Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    other = Triple(Iri("urn:obs:thermo1:2"), make_iri("m3:indicates"), make_iri("m3:Fever"))
    for fact in (fever, other):
        store.insert(fact, Inferred("fever"))
    posted = []
    egress = Egress(http_post=lambda url, payload: posted.append((url, json.loads(payload))) or 200)
    ground = TriplePattern(fever.subject, fever.predicate, fever.object)
    subscriptions = services.SubscriptionManager(store, egress)
    subscriptions.register(ground, Webhook("http://sub.test/h"))
    compositions = services.CompositionManager(store, egress)
    compositions.register(
        ground,
        "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }",
        {"state": "m3:Fever", "suggestions": "{r}"},
        Webhook("http://comp.test/h"),
    )
    ctx = DerivedContext(rule_id="fever", observation_iri="urn:obs:thermo1:1", timestamp=1)
    assert subscriptions.on_derived(fever, ctx) == 1
    assert subscriptions.on_derived(other, ctx) == 0
    assert compositions.on_derived(fever, ctx) == 1
    assert compositions.on_derived(other, ctx) == 0
    assert egress.close() == 0  # delivers what is queued
    assert posted == [
        ("http://sub.test/h", json.loads(services.fact_envelope(fever, ctx))),
        ("http://comp.test/h", {"state": "m3:Fever", "suggestions": ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"]}),
    ]


# -- compositions ------------------------------------------------------------------


def composition_body(url, trigger="?o m3:indicates ?s"):
    return {
        "trigger": trigger,
        "lookup": "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
        "response_template": {"state": "{s}", "suggestions": "{r}"},
        "endpoint": {"kind": "webhook", "url": url},
    }


def test_composition_fever_to_remedies(base_url, runtime, capture_server):
    resp = requests.post(f"{base_url}/api/v1/compositions", json=composition_body(capture_server.url))
    assert resp.status_code == 201
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    drained(runtime)
    [payload] = capture_server.requests
    assert payload == {
        "state": "m3:Fever",
        "suggestions": ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"],
    }


def test_composition_without_pack_yields_empty_suggestions(capture_server, fever_pack_text, fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    cfg.load.packs = []  # remedy knowledge absent
    rt = Runtime.from_config(cfg, base)
    try:
        rt.compositions.register(
            parse_pattern("?o m3:indicates ?s"),
            "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
            {"state": "{s}", "suggestions": "{r}"},
            Webhook(capture_server.url),
        )
        rt.gateway.ingest(RawReading("thermo1", "temperature", 39.0, "cel", 1))
        drained(rt)
        [payload] = capture_server.requests
        assert payload["suggestions"] == []
    finally:
        rt.stop()


def test_composition_template_validation(runtime, capture_server):
    with pytest.raises(TemplateError, match="not a trigger or lookup"):
        runtime.compositions.register(
            parse_pattern("?o m3:indicates ?s"),
            "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
            {"oops": "{missing}"},
            Webhook(capture_server.url),
        )
    with pytest.raises(TemplateError, match="entire string"):
        runtime.compositions.register(
            parse_pattern("?o m3:indicates ?s"),
            "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
            {"bad": "embedded {r} list"},
            Webhook(capture_server.url),
        )


def test_composition_lookup_must_be_safe(runtime, capture_server):
    with pytest.raises(Exception):
        runtime.compositions.register(
            parse_pattern("?o m3:indicates ?s"),
            "SELECT ?w WHERE { ?s m3:hasRemedy ?r }",
            {"x": "{w}"},
            Webhook(capture_server.url),
        )


def test_composition_triggers_only_on_inferred(runtime, capture_server):
    runtime.compositions.register(
        parse_pattern("?o rdf:type ssn:Observation"),
        "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }",
        {"suggestions": "{r}"},
        Webhook(capture_server.url),
    )
    runtime.gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 1))
    drained(runtime)
    assert capture_server.requests == []  # observation is asserted, not derived


def test_parse_endpoint_forms():
    assert parse_endpoint({"kind": "webhook", "url": "http://h:1/x"}) == Webhook("http://h:1/x")
    assert parse_endpoint({"kind": "mqtt", "topic": "derived/health"}) == MqttTopic("derived/health")
    with pytest.raises(ValueError):
        parse_endpoint({"kind": "pigeon"})
    with pytest.raises(ValueError):
        parse_endpoint("not an object")


# -- cross-domain isolation ---------------------------------------------------------


def test_cross_domain_composition_does_not_fire_for_other_domain(base_url, runtime, capture_server):
    # a fire-domain composition must stay silent for a health derivation
    requests.post(
        f"{base_url}/api/v1/compositions",
        json={
            "trigger": "?o m3:indicates m3:FireRisk",
            "lookup": "SELECT ?r WHERE { m3:FireRisk m3:hasRemedy ?r }",
            "response_template": {"alert": "fire", "suggestions": "{r}"},
            "endpoint": {"kind": "webhook", "url": capture_server.url},
        },
    )
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
    drained(runtime)
    assert capture_server.requests == []
    # but an ambient reading above the fire threshold does fire it
    requests.post(
        f"{base_url}/api/v1/observations", json=ingest_body(75.0, device="ambient1")
    )
    drained(runtime)
    assert len(capture_server.requests) == 1
    assert capture_server.requests[0]["alert"] == "fire"


# -- the outbox -----------------------------------------------------------------------


def fever_reading(i, value=39.0):
    return RawReading("thermo1", "temperature", value, "cel", i)


def _median_ingest_s(runtime, readings):
    seconds = []
    for reading in readings:
        t0 = time.perf_counter()
        runtime.gateway.ingest(reading)
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


def test_a_webhook_that_never_answers_adds_no_ingest_latency(runtime):
    runtime.egress.spacing_s = 0.0  # once the test ends, the refused retries finish at once
    _median_ingest_s(runtime, [fever_reading(i) for i in range(5)])  # warm up
    quiet = _median_ingest_s(runtime, [fever_reading(i) for i in range(5, 25)])
    blackhole = socket.socket()
    try:
        blackhole.bind(("127.0.0.1", 0))
        blackhole.listen(8)  # connections complete in the backlog, and nothing ever answers them
        url = f"http://127.0.0.1:{blackhole.getsockname()[1]}/hook"
        runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook(url))
        runtime.gateway.ingest(fever_reading(25))
        time.sleep(0.1)  # the delivery thread sent its request and waits for an answer
        stalled = _median_ingest_s(runtime, [fever_reading(i) for i in range(26, 46)])
        other = threading.Thread(target=runtime.gateway.ingest, args=(fever_reading(46),))
        other.start()
        other.join(2)
        assert not other.is_alive()  # a concurrent writer is not held up either
        counts = runtime.egress.counts()
        assert counts["ok"] + counts["failed"] == 0  # the first delivery was still stalled throughout
        assert counts["pending"] == 22
        assert stalled < 2 * quiet + 0.002, (quiet, stalled)
    finally:
        blackhole.close()  # resets the stalled connection


def test_a_full_outbox_drops_and_counts_and_never_blocks_ingest(runtime, caplog):
    entered, release = threading.Event(), threading.Event()

    def stalled_post(url, payload):
        entered.set()
        release.wait(10)
        return 200

    runtime.egress.http_post = stalled_post
    runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook("http://sink.test/h"))
    extra = 50
    try:
        runtime.gateway.ingest(fever_reading(0))
        assert entered.wait(5)  # the delivery thread holds the first item
        receipts = [runtime.gateway.ingest(fever_reading(i)) for i in range(1, OUTBOX_CAPACITY + extra + 1)]
        assert [r.notifications_queued for r in receipts] == [1] * OUTBOX_CAPACITY + [0] * extra
        assert runtime.egress.counts() == {"ok": 0, "failed": 0, "dropped": extra, "pending": OUTBOX_CAPACITY + 1}
    finally:
        release.set()
    drained(runtime)
    assert runtime.egress.counts() == {"ok": OUTBOX_CAPACITY + 1, "failed": 0, "dropped": extra, "pending": 0}
    assert len([r for r in caplog.records if "outbox full" in r.getMessage()]) == 1  # once per run of drops


def test_concurrent_writers_lose_no_delivery_and_keep_per_target_order(runtime):
    posted = []  # (url, observation sequence number), appended by the delivery thread
    runtime.egress.http_post = lambda url, payload: posted.append(
        (url, int(json.loads(payload)["observation_iri"].rsplit(":", 1)[1]))
    ) or 200
    for name in ("a", "b"):
        runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook(f"http://{name}.test/h"))
    writers, per_writer = 6, 40
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=lambda: [runtime.gateway.ingest(fever_reading(i)) for i in range(per_writer)])
            for _ in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        drained(runtime)
    finally:
        sys.setswitchinterval(switch)
    readings = writers * per_writer
    assert runtime.egress.counts() == {"ok": 2 * readings, "failed": 0, "dropped": 0, "pending": 0}
    for url in ("http://a.test/h", "http://b.test/h"):
        # observations are numbered in commit order, so each target sees them in that order
        assert [n for u, n in posted if u == url] == list(range(1, readings + 1))


def test_stats_count_delivery_outcomes(base_url, runtime, capture_server):
    runtime.egress.spacing_s = 0.01
    runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook(capture_server.url))
    capture_server.fail_times = RETRY_ATTEMPTS  # every attempt of the first delivery gets a 500
    for value in (39.0, 39.5):
        requests.post(f"{base_url}/api/v1/observations", json=ingest_body(value))
    drained(runtime)
    body = requests.get(f"{base_url}/api/v1/stats").json()
    assert body["deliveries"] == {"ok": 1, "failed": 1, "dropped": 0, "pending": 0}
    assert set(body) == {"store_size", "per_rule", "guard_type_errors", "deliveries"}
    assert [r["observation_iri"] for r in capture_server.requests] == ["urn:obs:thermo1:2"]


def test_stop_delivers_what_is_queued(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    rt = Runtime.from_config(cfg, base)
    posted = []

    def slow_post(url, payload):
        time.sleep(0.02)
        posted.append(json.loads(payload)["observation_iri"])
        return 200

    rt.egress.http_post = slow_post
    rt.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook("http://sink.test/h"))
    try:
        for i in range(10):
            rt.gateway.ingest(fever_reading(i))
        assert rt.egress.counts()["pending"] > 0
    finally:
        rt.stop()
    assert posted == [f"urn:obs:thermo1:{i}" for i in range(1, 11)]


def test_close_leaves_what_its_deadline_cannot_deliver_and_logs_it(caplog):
    release = threading.Event()
    egress = Egress(http_post=lambda url, payload: release.wait(10) and 200)
    for _ in range(3):
        assert egress.enqueue(Webhook("http://sink.test/h"), b"{}")
    t0 = time.monotonic()
    try:
        assert egress.close(0.2) == 3
        assert time.monotonic() - t0 < 2.0
    finally:
        release.set()
    assert "3 deliveries undelivered" in caplog.text
    assert egress.drain(5) == 0
    assert egress.counts() == {"ok": 1, "failed": 0, "dropped": 0, "pending": 0}  # the one in flight


_PATTERNS = ["?o m3:indicates m3:Fever", "?o m3:indicates ?s", "?o m3:indicates m3:AFever", "?o m3:indicates m3:FireRisk"]
_COMPOSITIONS = [
    ("?o m3:indicates ?s", "SELECT ?r WHERE { ?s m3:hasRemedy ?r }", {"state": "{s}", "suggestions": "{r}"}),
    ("?o m3:indicates m3:Fever", "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }", {"observation": "{o}", "remedies": "{r}"}),
]
_ALIASES = [
    "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n",
    "<urn:knotgate:m3#Blaze> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#FireRisk> .\n",
]
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.sampled_from(["thermo1", "ambient1"]), st.integers(300, 900)),
        st.tuples(st.just("subscribe"), st.sampled_from(_PATTERNS), st.booleans()),
        st.tuples(st.just("compose"), st.sampled_from(_COMPOSITIONS), st.booleans()),
        st.tuples(st.just("alias"), st.sampled_from(_ALIASES)),
        st.tuples(st.just("pack"), st.sampled_from(["fever", "hot"]), st.booleans()),
    ),
    max_size=25,
)
_FEVER_PACK = (FIXTURES / "rules" / "fever.rules").read_text()
#: the fever pack and a replacement under the same pack id that derives fever only above 60.0
_PACKS = {"fever": _FEVER_PACK, "hot": _FEVER_PACK.replace("?v > 38.0", "?v > 60.0")}


def _replay_ops(ops, fixtures_dir, synchronous):
    """Run ops on a fresh runtime whose MQTT bridge is on; return the receipts' notification
    counts and every (target, payload) sent, in order.  synchronous delivers on the writer,
    as before the outbox: the oracle."""
    rt, sent = _bridged_runtime(fixtures_dir)
    if synchronous:
        rt.egress.enqueue = lambda target, payload: rt.egress.deliver(target, payload).ok
    queued = []
    try:
        for n, op in enumerate(ops):
            if op[0] == "ingest":
                receipt = rt.gateway.ingest(RawReading(op[1], "temperature", op[2] / 10, "cel", n))
                queued.append(receipt.notifications_queued)
            elif op[0] in ("subscribe", "compose"):
                endpoint = MqttTopic(f"t{n}") if op[2] else Webhook(f"http://t{n}.test/h")
                if op[0] == "subscribe":
                    rt.subscriptions.register(parse_pattern(op[1]), endpoint)
                else:
                    trigger, lookup, template = op[1]
                    rt.compositions.register(parse_pattern(trigger), lookup, template, endpoint)
            elif op[0] == "alias":
                rt.gateway.load_knowledge_pack(op[1], f"alias{n}")
            else:
                rt.gateway.set_rulepack(parse_rulepack(_PACKS[op[1]]), rechain=op[2])
        drained(rt)
    finally:
        rt.stop()
    return queued, sent


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_outbox_delivers_what_synchronous_delivery_would(ops):
    with mock.patch("knotgate.gateway.now_ms", return_value=0):  # a rechain stamps its facts with the clock
        assert _replay_ops(ops, FIXTURES, synchronous=False) == _replay_ops(ops, FIXTURES, synchronous=True)


def _flat(payload):
    """A delivered JSON object, its array values sorted: a lookup's rows come in no order the
    oracle knows."""
    return {key: sorted(value) if isinstance(value, list) else value for key, value in json.loads(payload).items()}


def _composition_payload(store, canon, trigger, lookup_text, template, bindings):
    """The composition's payload by the query oracle: the lookup with the trigger's bindings
    put in, over every served triple."""
    def ground(term):
        return bindings[term.name] if isinstance(term, Variable) and term.name in bindings else canon(term)

    lookup = parse_query(lookup_text, presumed_bound=trigger.variables())
    patterns = tuple(TriplePattern(*map(ground, p.positions())) for p in lookup.patterns)
    select = tuple(name for name in lookup.select if name not in bindings)
    rows = oracle_query(list(store), Query(select, patterns, lookup.filters))
    arrays = {name: sorted({compact_term(row[i]) for row in rows}) for i, name in enumerate(select)}
    scalars = {name: compact_term(term) for name, term in bindings.items()}
    return {key: arrays.get(value[1:-1], scalars.get(value[1:-1])) for key, value in template.items()}


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
@example(ops=[  # writes that add several facts: a rechain after a replacement, a stale ingest
    ("subscribe", _PATTERNS[0], False), ("compose", _COMPOSITIONS[0], True),
    ("ingest", "thermo1", 390), ("ingest", "thermo1", 450), ("ingest", "ambient1", 700),
    ("pack", "hot", True), ("alias", _ALIASES[0]), ("pack", "fever", True), ("pack", "fever", True),
    ("subscribe", _PATTERNS[2], True), ("pack", "hot", True), ("pack", "fever", False), ("ingest", "thermo1", 380),
])
def test_each_write_notifies_the_derived_facts_it_adds(ops):
    # the oracle: a write adds the derived facts that the store serves after it and did not serve
    # before it under the same alias classes; each is notified in commit order, to the matching
    # subscriptions, then compositions, then the bridge, each in registration order
    packs = {name: parse_rulepack(text) for name, text in _PACKS.items()}
    subscriptions, compositions, aliases, expected = [], [], [], []
    with mock.patch("knotgate.gateway.now_ms", return_value=0):  # a rechain stamps its facts with the clock
        rt, sent = _bridged_runtime(FIXTURES)
        domains = {rule.id: pack.domains[0] for pack in rt.gateway.active_packs() for rule in pack.rules}
        try:
            for n, op in enumerate(ops):
                before = set(rt.store)
                committed, obs, ts = [], "", 0
                if op[0] == "ingest":
                    receipt = rt.gateway.ingest(RawReading(op[1], "temperature", op[2] / 10, "cel", n))
                    committed, obs, ts = receipt.derived, receipt.observation_iri, n
                elif op[0] in ("subscribe", "compose"):
                    target = f"t{n}" if op[2] else f"http://t{n}.test/h"
                    endpoint = MqttTopic(target) if op[2] else Webhook(target)
                    if op[0] == "subscribe":
                        subscriptions.append((parse_pattern(op[1]), target))
                        rt.subscriptions.register(subscriptions[-1][0], endpoint)
                    else:
                        trigger, lookup, template = op[1]
                        compositions.append((parse_pattern(trigger), lookup, template, target))
                        rt.compositions.register(compositions[-1][0], lookup, template, endpoint)
                    continue
                elif op[0] == "alias":
                    rt.gateway.load_knowledge_pack(op[1], f"alias{n}")
                    [link] = parse_triples(op[1])
                    aliases.append((link.subject.value, link.object.value))
                else:
                    pack = packs[op[1]]
                    stats = rt.gateway.set_rulepack(pack, rechain=op[2])
                    domains.update((rule.id, pack.domains[0]) for rule in pack.rules)
                    committed = stats.committed if stats is not None else []
                classes = oracle_alias_classes(aliases)
                canon = lambda term: Iri(classes.get(term.value, term.value)) if isinstance(term, Iri) else term
                held = {Triple(*map(canon, (t.subject, t.predicate, t.object))) for t in before}
                added = {t for t in rt.store if t not in held and isinstance(rt.store.provenance(t), Inferred)}
                fresh = [t for t in committed if t in added]
                assert set(fresh) == added
                items = []
                for fact in fresh:
                    rule_id = rt.store.provenance(fact).rule_id
                    envelope = {
                        "triple": triple_to_line(fact), "rule_id": rule_id, "observation_iri": obs, "timestamp": ts,
                    }
                    for pattern, target in subscriptions:
                        if oracle_match([fact], TriplePattern(*map(canon, pattern.positions()))):
                            items.append((target, envelope))
                    for trigger, lookup, template, target in compositions:
                        matched = oracle_match([fact], TriplePattern(*map(canon, trigger.positions())))
                        if matched:
                            bindings = matched[0][1]
                            items.append((target, _composition_payload(rt.store, canon, trigger, lookup, template, bindings)))
                    items.append((f"derived/{domains.get(rule_id, 'default')}", envelope))
                if op[0] == "ingest":
                    assert receipt.notifications_queued == len(items) - len(fresh)  # the bridge counts none
                expected += items
            drained(rt)
        finally:
            rt.stop()
    assert [(target, _flat(payload)) for target, payload in sent] == expected


# -- HTTP worker pool -----------------------------------------------------------------


def test_requests_start_no_thread(runtime, base_url, monkeypatch):
    before = threading.active_count()
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t.name), real_start(t)))
    for i in range(50):
        if i % 5 == 4:
            resp = requests.get(f"{base_url}/api/v1/stats", timeout=5)
            assert resp.status_code == 200
        else:
            resp = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(36.0 + i % 4), timeout=5)
            assert resp.status_code == 202
    assert started == []
    assert threading.active_count() == before


def _stall_fever_writes(runtime):
    """Make every write that derives a fever fact wait, holding the write lock, until the second
    returned event is set; the first is set once the first such write has started waiting."""
    entered, release = threading.Event(), threading.Event()
    fever = make_iri("m3:Fever")

    def stall(fact, ctx):
        if fact.object == fever:
            entered.set()
            release.wait(10)
        return 0

    runtime.gateway.add_derived_hook(stall)
    return entered, release


def _post_observation(base_url, body):
    return requests.post(f"{base_url}/api/v1/observations", json=body, timeout=10)


def _timed_query(base_url):
    t0 = time.perf_counter()
    resp = requests.get(
        f"{base_url}/api/v1/query",
        params={"q": "SELECT ?o WHERE { ?o m3:indicates m3:Fever }"},
        timeout=5,
    )
    return resp, time.perf_counter() - t0


def test_query_answers_while_writers_wait_on_a_stalled_write(runtime, base_url):
    entered, release = _stall_fever_writes(runtime)
    # one writer stalls holding the write lock, HTTP_WORKERS - 2 more wait on it
    with ThreadPoolExecutor(HTTP_WORKERS - 1) as pool:
        writers = [pool.submit(_post_observation, base_url, ingest_body(39.0))]
        try:
            assert entered.wait(5)
            writers += [
                pool.submit(_post_observation, base_url, ingest_body(39.0 + i / 10))
                for i in range(1, HTTP_WORKERS - 1)
            ]
            time.sleep(0.2)
            resp, elapsed = _timed_query(base_url)
            assert resp.status_code == 200
            assert elapsed < 2.0
            assert not any(w.done() for w in writers)
        finally:
            release.set()
        assert [w.result().status_code for w in writers] == [202] * (HTTP_WORKERS - 1)


def test_writes_past_the_writer_slots_get_503_and_reads_stay_live(runtime, base_url):
    entered, release = _stall_fever_writes(runtime)
    n = 3 * HTTP_WORKERS
    with ThreadPoolExecutor(n) as pool:
        writers = [pool.submit(_post_observation, base_url, ingest_body(39.0))]
        try:
            assert entered.wait(5)
            writers += [pool.submit(_post_observation, base_url, ingest_body(39.0 + i / 100)) for i in range(1, n)]
            time.sleep(0.2)  # every POST is in a worker or in the listen backlog, ahead of the GET
            resp, elapsed = _timed_query(base_url)
            assert resp.status_code == 200
            assert elapsed < 1.0  # not one HTTP_WRITE_WAIT_S per POST ahead of it
            busy = [w.result() for w in writers[HTTP_WORKERS - 1 :] if w.done()]
        finally:
            release.set()
        statuses = sorted(w.result().status_code for w in writers)
    assert statuses == [202] * (HTTP_WORKERS - 1) + [503] * (n - HTTP_WORKERS + 1)
    assert busy and all(r.json()["error"] == "ServerBusy" for r in busy)
    # a 503 asks the client to back off before it retries; other replies do not
    assert all(r.headers["Retry-After"] == "1" for r in busy)
    assert all("Retry-After" not in w.result().headers for w in writers if w.result().status_code == 202)
    fevers = evaluate_query(parse_query("SELECT ?o WHERE { ?o m3:indicates m3:Fever }"), runtime.store)
    assert len(fevers.rows) == HTTP_WORKERS - 1


def test_each_reply_leaves_in_one_write(base_url, monkeypatch):
    # the handler's socket writer is unbuffered (wbufsize 0): one write, one send
    writes = []
    real_write = socketserver._SocketWriter.write

    def counting_write(writer, data):
        writes.append(bytes(data))
        return real_write(writer, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
    replies = [
        requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0)),
        requests.get(f"{base_url}/api/v1/query", params={"q": "SELECT ?o WHERE { ?o m3:indicates m3:Fever }"}),
        requests.get(f"{base_url}/api/v1/stats"),
        requests.get(f"{base_url}/api/v1/nowhere"),
    ]
    assert [r.status_code for r in replies] == [202, 200, 200, 404]
    assert len(writes) == len(replies)
    for write, reply in zip(writes, replies):
        head, _, body = write.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 %d " % reply.status_code)
        assert body == reply.content


def test_trickling_clients_cannot_hold_the_workers(runtime, base_url, monkeypatch):
    monkeypatch.setattr(_ApiHandler, "timeout", 0.3)
    done = threading.Event()
    closed = []

    def trickle():
        with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
            sock.sendall(b"GET /api/v1/stats HTTP/1.1\r\n")
            try:
                while not done.wait(0.05):  # each header line well inside the per-read timeout
                    sock.sendall(b"X-Slow: 1\r\n")
            except OSError:
                closed.append(True)  # the server closed the connection

    clients = [threading.Thread(target=trickle) for _ in range(HTTP_WORKERS)]
    for c in clients:
        c.start()
    try:
        time.sleep(0.1)
        t0 = time.perf_counter()
        assert requests.get(f"{base_url}/api/v1/stats", timeout=5).status_code == 200
        assert time.perf_counter() - t0 < 2.0
    finally:
        time.sleep(0.5)
        done.set()
        for c in clients:
            c.join(5)
    assert len(closed) == HTTP_WORKERS


def test_idle_connections_time_out_and_free_their_workers(runtime, base_url, monkeypatch):
    assert _ApiHandler.timeout == HTTP_READ_TIMEOUT_S
    monkeypatch.setattr(_ApiHandler, "timeout", 0.2)
    # every worker gets an idle connection and twice as many more wait in the listen backlog;
    # a connect beyond the backlog would wait for a SYN retry, far past its 0.5 s timeout
    idle = []
    try:
        for _ in range(3 * HTTP_WORKERS):
            idle.append(socket.create_connection(("127.0.0.1", runtime.http_port), timeout=0.5))
        for sock in idle:
            sock.settimeout(5)
        resp = requests.get(f"{base_url}/api/v1/stats", timeout=5)
        assert resp.status_code == 200
        for sock in idle:
            assert sock.recv(1) == b""  # closed without a reply
    finally:
        for sock in idle:
            sock.close()


def test_stalled_body_is_dropped_without_reply_or_traceback(runtime, monkeypatch, caplog, capsys):
    monkeypatch.setattr(_ApiHandler, "timeout", 0.2)
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
        sock.sendall(b"POST /api/v1/observations HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"device_id\"")
        assert sock.recv(1024) == b""
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert "Traceback" not in capsys.readouterr().err


def _wait_for_record(caplog, text: str, timeout: float = 5.0) -> logging.LogRecord:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        hits = [r for r in caplog.records if text in r.getMessage()]
        if hits:
            return hits[0]
        time.sleep(0.02)
    raise AssertionError(f"no log record with {text!r}")


def test_client_hang_up_mid_reply_logs_at_debug_without_stderr(runtime, base_url, monkeypatch, caplog, capfd):
    stats = runtime.api.stats

    def slow_stats():
        time.sleep(0.3)  # the client resets the connection meanwhile
        return stats()

    monkeypatch.setattr(runtime.api, "stats", slow_stats)
    caplog.set_level(logging.DEBUG, logger="knotgate.services")
    sock = socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5)
    sock.sendall(b"GET /api/v1/stats HTTP/1.1\r\nHost: x\r\n\r\n")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()  # linger 0: a reset, so the reply's write fails
    record = _wait_for_record(caplog, "hung up")
    assert record.levelno == logging.DEBUG
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert capfd.readouterr().err == ""
    assert requests.get(f"{base_url}/api/v1/stats", timeout=5).status_code == 200


def test_other_connection_errors_log_their_traceback(runtime, monkeypatch, caplog, capfd):
    def broken(self):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(_ApiHandler, "handle", broken)
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
        sock.sendall(b"GET /api/v1/stats HTTP/1.1\r\n\r\n")
        assert sock.recv(1024) == b""  # closed without a reply
    record = _wait_for_record(caplog, "error serving")
    assert record.levelno == logging.ERROR and record.exc_info[0] is RuntimeError
    assert capfd.readouterr().err == ""


def test_stop_joins_workers_and_start_stop_repeats(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    rt = Runtime.from_config(cfg, base)
    for _ in range(2):
        port = rt.start_http()
        assert requests.get(f"http://127.0.0.1:{port}/api/v1/stats", timeout=5).status_code == 200
        t0 = time.perf_counter()
        rt.stop()
        assert time.perf_counter() - t0 < 1.0
        assert [t.name for t in threading.enumerate() if t.name.startswith("http-api")] == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=1)


def test_burst_of_concurrent_posts_is_exact(runtime, base_url, fixtures_dir):
    n = 4 * HTTP_WORKERS
    bodies = [ingest_body(35.0 + i, device=("thermo1", "ambient1")[i % 2], ts=1700000000000 + i) for i in range(n)]
    start = threading.Barrier(n)

    def post(body):
        start.wait(10)
        return requests.post(f"{base_url}/api/v1/observations", json=body, timeout=30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(n) as pool:
            responses = list(pool.map(post, bodies))
    finally:
        sys.setswitchinterval(interval)
    assert [r.status_code for r in responses] == [202] * n
    iris = {r.json()["observation_iri"] for r in responses}
    assert iris == {f"urn:obs:{dev}:{k}" for dev in ("thermo1", "ambient1") for k in range(1, n // 2 + 1)}
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    sequential = Runtime.from_config(cfg, base)
    for body in bodies:
        sequential.gateway.ingest(RawReading(**body))
    assert len(runtime.store) == len(sequential.store)


class _FlakyListener:
    """A listening socket whose first accept fails as if the client had aborted."""

    def __init__(self, sock):
        self._sock = sock
        self.failed = False

    def accept(self):
        if not self.failed:
            self.failed = True
            raise OSError(errno.ECONNABORTED, "Software caused connection abort")
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_worker_keeps_serving_after_accept_error(caplog):
    server = _ApiServer(("127.0.0.1", 0), Runtime().api)
    listener = server.socket
    server.socket = _FlakyListener(listener)
    worker = threading.Thread(target=server.serve_worker, daemon=True)
    worker.start()
    try:
        for _ in range(2):
            resp = requests.get(f"http://127.0.0.1:{server.server_address[1]}/api/v1/stats", timeout=5)
            assert resp.status_code == 200
        assert server.socket.failed
        assert "accept failed" in caplog.text
    finally:
        server.stopping.set()
        listener.shutdown(socket.SHUT_RDWR)
        worker.join(5)
        server.server_close()
    assert not worker.is_alive()


class _RefusingShutdownListener:
    """A listening socket whose shutdown wakes the workers but then fails, as it may outside Linux."""

    def __init__(self, sock):
        self._sock = sock

    def shutdown(self, how):
        self._sock.shutdown(how)
        raise OSError(errno.ENOTCONN, "Transport endpoint is not connected")

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_stop_finishes_when_listener_shutdown_fails(fixtures_dir, caplog):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    rt = Runtime.from_config(cfg, base)
    port = rt.start_http()
    rt.http_server.socket = _RefusingShutdownListener(rt.http_server.socket)
    rt.stop()
    assert rt.http_server is None
    assert "listener shutdown failed" in caplog.text
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=1)


class _StuckWorker:
    """A worker thread that never finishes: each join waits out its whole timeout."""

    def __init__(self):
        self.timeouts = []

    def join(self, timeout=None):
        self.timeouts.append(timeout)
        time.sleep(timeout)


def test_stop_joins_workers_within_one_shared_deadline(runtime, monkeypatch):
    monkeypatch.setattr(services, "HTTP_READ_TIMEOUT_S", 0.2)
    stuck = [_StuckWorker() for _ in range(HTTP_WORKERS)]
    runtime._http_workers += stuck
    t0 = time.perf_counter()
    runtime.stop()
    assert time.perf_counter() - t0 < 0.2 * HTTP_WORKERS / 2
    assert sum(t for w in stuck for t in w.timeouts) <= 0.2
