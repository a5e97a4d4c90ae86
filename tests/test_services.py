import errno
import itertools
import json
import logging
import re
import socket
import statistics
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    fact_envelope,
)
from knotgate.lexer import GrammarError
from knotgate.model import Iri, Triple, TripleParseError, make_iri, parse_triples
from knotgate.query import UnsafeQuery, evaluate_query, parse_query
from knotgate.rules import RuleSafetyError, parse_pattern, parse_rulepack
from knotgate import coap, services
from knotgate import store as store_module
from knotgate.services import (
    HTTP_READ_TIMEOUT_S,
    HTTP_WORKERS,
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
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

from conftest import flat_json
from generators import compiled_steps


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


WEBHOOK = {"kind": "webhook", "url": "http://sink.test/h"}
NOT_AN_OBJECT = b'{"error": "DecodeError", "detail": "JSON payload must be an object"}'
BAD_JSON = b'{"error": "DecodeError", "detail": "bad JSON: Expecting property name enclosed in double quotes"}'
OUT_OF_RANGE = b'{"error": "DecodeError", "detail": "bad JSON: integer out of range"}'
NESTED = b'{"error": "DecodeError", "detail": "bad JSON: nested too deeply"}'
LONG_INTEGER = b"9" * 5000  # more digits than int() converts


@pytest.mark.parametrize("path, data, reply", [
    ("/api/v1/subscriptions", b"[1,2]", NOT_AN_OBJECT),
    ("/api/v1/subscriptions", b"null", NOT_AN_OBJECT),
    ("/api/v1/compositions", b'"x"', NOT_AN_OBJECT),
    ("/api/v1/observations", b"{not json", BAD_JSON),
    ("/api/v1/subscriptions", b"{", BAD_JSON),
    pytest.param("/api/v1/observations", b'{"value": ' + LONG_INTEGER + b"}", OUT_OF_RANGE,
                 id="observation-long-integer"),
    pytest.param("/api/v1/subscriptions", b'{"pattern": "?o m3:indicates ?s", "n": [' + LONG_INTEGER + b"]}",
                 OUT_OF_RANGE, id="subscription-long-integer"),
    pytest.param("/api/v1/observations", b"[" * 100000, NESTED, id="observation-nested"),
    pytest.param("/api/v1/subscriptions", b'{"pattern": ' + b"[" * 100000, NESTED, id="subscription-nested"),
    ("/api/v1/subscriptions", json.dumps({"endpoint": WEBHOOK}).encode(),
     b'{"error": "DecodeError", "detail": "missing field \'pattern\'"}'),
    ("/api/v1/compositions", json.dumps({"trigger": "?o m3:indicates ?s", "endpoint": WEBHOOK}).encode(),
     b'{"error": "DecodeError", "detail": "missing field \'lookup\'"}'),
])
def test_a_json_body_that_is_bad_not_an_object_or_short_of_a_field_is_a_400(base_url, caplog, path, data, reply):
    with caplog.at_level(logging.ERROR):
        resp = requests.post(f"{base_url}{path}", data=data, headers={"Content-Type": "application/json"})
    assert (resp.status_code, resp.content) == (400, reply)
    assert not caplog.records  # a client's fault logs no traceback


@pytest.mark.parametrize("url", [
    "http://h/a b\r\nX: y", "http:///h", "http://h:99999/h",
    # host names that socket.getaddrinfo refuses to encode
    "http://a..b/x", "http://.example/x", f"http://{'a' * 64}.example/x",
])
@pytest.mark.parametrize("path, fields", [
    ("/api/v1/subscriptions", {"pattern": "?o m3:indicates ?s"}),
    ("/api/v1/compositions", {"trigger": "?o m3:indicates ?s", "lookup": "SELECT ?r WHERE { ?s m3:hasRemedy ?r }"}),
])
def test_registering_a_bad_webhook_url_is_a_400(runtime, base_url, path, fields, url):
    resp = requests.post(f"{base_url}{path}", json={**fields, "endpoint": {"kind": "webhook", "url": url}})
    assert resp.status_code == 400
    assert resp.json()["error"] == "InvalidTarget"
    receipt = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0)).json()
    assert FEVER_LINE in receipt["derived"] and receipt["notifications_queued"] == 0  # nothing was registered


def test_a_key_error_from_a_server_fault_is_a_500(runtime, base_url, monkeypatch):
    def broken():
        raise KeyError("store_size")

    monkeypatch.setattr(runtime.api, "stats", broken)
    resp = requests.get(f"{base_url}/api/v1/stats")
    assert resp.status_code == 500
    assert resp.json()["error"] == "KeyError"


@pytest.mark.parametrize("payload, status, coap_code", [
    (b"{not json", 400, coap.BAD_REQUEST),
    (json.dumps(ingest_body(39.0, device="ghost")).encode(), 404, coap.NOT_FOUND),
    (json.dumps(ingest_body(39.0, unit="parsec")).encode(), 422, coap.UNPROCESSABLE),
    pytest.param(json.dumps(ingest_body(10**400)).encode(), 400, coap.BAD_REQUEST, id="value-past-float"),
    pytest.param(json.dumps(ingest_body(39.0, ts=10**400)).encode(), 400, coap.BAD_REQUEST, id="timestamp-past-long"),
])
def test_a_bad_reading_is_rejected_alike_over_http_coap_and_mqtt(runtime, base_url, caplog, payload, status,
                                                                 coap_code):
    before = len(runtime.store)
    resp = requests.post(f"{base_url}/api/v1/observations", data=payload)
    code, body = runtime._handle_coap(coap.POST, ["ingest"], payload)
    with caplog.at_level(logging.WARNING, logger="knotgate.services"):
        runtime._handle_mqtt("iot/thermo1/temperature", payload)  # dropped, not raised
    assert (resp.status_code, code) == (status, coap_code)
    assert json.loads(body) == resp.json()
    assert "dropping mqtt message on iot/thermo1/temperature" in caplog.text
    assert len(runtime.store) == before


def test_a_server_fault_while_ingesting_is_raised_over_every_transport(runtime, base_url, monkeypatch):
    monkeypatch.setattr(runtime.gateway, "ingest", mock.Mock(side_effect=RuntimeError("bug")))
    payload = json.dumps(ingest_body(39.0)).encode()
    assert requests.post(f"{base_url}/api/v1/observations", data=payload).status_code == 500
    with pytest.raises(RuntimeError, match="bug"):
        runtime._handle_coap(coap.POST, ["ingest"], payload)  # the CoAP server answers 5.00
    with pytest.raises(RuntimeError, match="bug"):
        runtime._handle_mqtt("iot/thermo1/temperature", payload)  # the MQTT client logs it


def test_coap_ingest_answers_post_only(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.coap.port = 0
    rt = Runtime.from_config(cfg, base)
    port = rt.start_coap()
    try:
        assert coap.request("127.0.0.1", port, coap.GET, ["ingest"]) == (coap.METHOD_NOT_ALLOWED, b"")
        assert coap.request("127.0.0.1", port, coap.POST, ["nope"])[0] == coap.NOT_FOUND
        code, body = coap.request("127.0.0.1", port, coap.POST, ["ingest"], json.dumps(ingest_body(39.0)).encode())
        assert code == coap.CREATED
        assert FEVER_LINE in json.loads(body)["derived"]
    finally:
        rt.stop()


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
        hot = fever_pack_text.replace("?v > 38.0", "?v > 60.0")  # derives fever only above 60.0
        assert rt.gateway.set_rulepack(parse_rulepack(hot), rechain=True).committed == []
        rt.gateway.set_rulepack(parse_rulepack(fever_pack_text), rechain=True)
        drained(rt)
        assert [target for target, _ in sent] == ["http://sub.test/h", "remedies", "derived/health"] * 2
        assert [json.loads(payload)["observation_iri"] for _, payload in sent[::3]] == ["urn:obs:thermo1:1", ""]
    finally:
        rt.stop()


def test_a_knowledge_pack_load_notifies_what_it_derives_once(fixtures_dir, fever_observation_text):
    rt, sent = _bridged_runtime(fixtures_dir)
    try:
        _register_fever_triggers(rt)
        with mock.patch("knotgate.gateway.now_ms", return_value=5):  # a load stamps its facts with the clock
            for _ in range(2):  # the second load states nothing new
                rt.gateway.load_knowledge_pack(fever_observation_text, "observation")
        drained(rt)
        assert [target for target, _ in sent] == ["http://sub.test/h", "remedies", "derived/health"]
        envelope = {"triple": "<urn:obs:x:1> <urn:knotgate:m3#indicates> <urn:knotgate:m3#Fever> .",
                    "rule_id": "fever", "observation_iri": "", "timestamp": 5}
        assert [json.loads(payload) for _, payload in sent[::2]] == [envelope] * 2
        assert flat_json(sent[1][1]) == {"observation": "urn:obs:x:1",
                                         "remedies": ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"]}
        # the next ingest notifies only its own facts
        assert rt.gateway.ingest(fever_reading(1, 36.0)).notifications_queued == 0
        assert rt.gateway.ingest(fever_reading(2)).notifications_queued == 2
        drained(rt)
        assert [target for target, _ in sent[3:]] == ["http://sub.test/h", "remedies", "derived/health"]
        assert {json.loads(payload)["observation_iri"] for _, payload in sent[3::2]} == {"urn:obs:thermo1:2"}
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


def test_unnamed_trigger_ids_skip_taken_ones(runtime, capture_server):
    def register(pipeline_id=None):
        return runtime.compositions.register(parse_pattern("?o m3:indicates ?s"),
                                             "SELECT ?r WHERE { ?s m3:hasRemedy ?r }", {"r": "{r}"},
                                             Webhook(capture_server.url), pipeline_id=pipeline_id)

    assert register("comp-2") == "comp-2"
    assert [register(), register()] == ["comp-1", "comp-3"]
    with pytest.raises(ValueError, match="duplicate id 'comp-3'"):
        register("comp-3")


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


def test_no_write_compiles_a_step_once_rules_triggers_and_lookups_are_installed(fixtures_dir, monkeypatch):
    # with no shape compiled yet, as in a fresh process
    monkeypatch.setattr(store_module, "_FACTORIES", {})
    compile_step = store_module._compile
    installing = True

    def compile_while_installing(kind, shape):
        if not installing:
            raise AssertionError(f"step {kind} {shape} compiled after install")
        return compile_step(kind, shape)

    monkeypatch.setattr(store_module, "_compile", compile_while_installing)
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    rt = Runtime.from_config(cfg, base)
    posted = []
    rt.egress.http_post = lambda url, payload: posted.append(url) or 200
    trigger = parse_pattern("?o m3:indicates m3:Fever")
    rt.subscriptions.register(trigger, Webhook("http://sink.test/sub"))
    # a lookup text no other test parses, so that its steps are compiled here
    rt.compositions.register(trigger, "SELECT ?remedy WHERE { m3:Fever m3:hasRemedy ?remedy }",
                             {"remedies": "{remedy}"}, Webhook("http://sink.test/comp"))
    # a rule compiled the trigger's shape already: its own step must be made at registration too
    prepared = compiled_steps([trigger])
    readings = itertools.count(1)

    def first_ingests():
        assert rt.gateway.ingest(fever_reading(next(readings), 36.5)).notifications_queued == 0
        assert rt.gateway.ingest(fever_reading(next(readings))).notifications_queued == 2
        drained(rt)
        assert posted[-2:] == ["http://sink.test/sub", "http://sink.test/comp"]

    try:
        installing = False
        first_ingests()
        installing = True
        rt.gateway.set_rulepack(parse_rulepack(
            "PACK slor-health DOMAIN health\n"
            "RULE fever : IF ?o ssn:observationResult ?v . ?o ssn:observedProperty m3:BodyTemperature "
            "FILTER ?v > 38.5 THEN ?o m3:indicates m3:Fever .\n"
        ), rechain=True)
        installing = False
        first_ingests()
        # an alias renames the trigger's and the lookup's constant: no new shape
        rt.gateway.load_knowledge_pack(
            "<urn:knotgate:m3#Fever> <urn:knotgate:m3#equivalentTo> <urn:knotgate:m3#AFever> .\n", "aliases"
        )
        first_ingests()
    finally:
        rt.stop()
    assert rt.egress.counts() == {"ok": 6, "failed": 0, "dropped": 0, "pending": 0}
    assert prepared and compiled_steps([trigger]) == prepared


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


def test_stop_waits_for_the_write_under_way_and_delivers_what_it_queued(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.coap.port = 0
    rt = Runtime.from_config(cfg, base)
    posted = []
    rt.egress.http_post = lambda url, payload: posted.append(url) or 200
    entered, release = threading.Event(), threading.Event()

    def held(fact, ctx):
        entered.set()
        release.wait(5)
        return rt.egress.enqueue(Webhook("http://sink.test/late"), fact_envelope(fact, ctx))

    rt.gateway.add_derived_hook(held)
    port = rt.start_coap()
    earlier = set(threading.enumerate())

    replies = []

    def post():
        replies.append(coap.request("127.0.0.1", port, coap.POST, ["ingest"],
                                    json.dumps(ingest_body(39.0)).encode(), timeout=5, retries=0)[0])

    client = threading.Thread(target=post)
    client.start()
    assert entered.wait(5)
    stopper = threading.Thread(target=rt.stop)
    stopper.start()
    time.sleep(0.2)  # stop has stopped taking readings by now, and waits for the held write
    release.set()
    stopper.join(10)
    client.join(5)
    assert not stopper.is_alive()
    assert replies == [coap.CREATED]  # the reading in flight is answered before the socket closes
    assert posted == ["http://sink.test/late"]
    assert [t for t in threading.enumerate() if t.name == "egress" and t not in earlier] == []


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


@pytest.fixture
def server_sends(runtime, monkeypatch):
    """Every sendall on a socket the server accepted (its local port is the server's), in order."""
    sends = []
    real_sendall = socket.socket.sendall

    def counting_sendall(sock, data, *flags):
        if sock.getsockname()[1] == runtime.http_port:
            sends.append(bytes(data))
        return real_sendall(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    return sends


def test_each_reply_leaves_in_one_write(base_url, server_sends):
    writes = server_sends
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


def _exchange(port: int, request: bytes) -> bytes:
    """Send the request on a new connection; what the server sent before it closed."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


_POST_HEAD = b"POST /api/v1/observations HTTP/1.1\r\nHost: x\r\n"


@pytest.mark.parametrize("request_bytes, status", [
    pytest.param(b"GARBAGE\r\n\r\n", 400, id="malformed-request-line"),
    pytest.param(b"GET /api/v1/stats\r\n", 400, id="HTTP/0.9"),
    pytest.param(b"GET /api/v1/stats HTTP/1.1\r\nno colon\r\n\r\n", 400, id="malformed-header-line"),
    pytest.param(b"GET /api/v1/stats HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400, id="folded-header-line"),
    pytest.param(_POST_HEAD + b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 400, id="differing-Content-Length"),
    pytest.param(_POST_HEAD + b"Content-Length: 1e3\r\n\r\n", 400, id="bad-Content-Length"),
    pytest.param(_POST_HEAD + b"\r\n", 411, id="POST-without-Content-Length"),
    pytest.param(_POST_HEAD + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 411, id="chunked-POST"),
    pytest.param(_POST_HEAD + b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413, id="body-too-large"),
    pytest.param(b"GET /api/v1/stats HTTP/1.1\r\n" + b"X-A: 1\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n", 431,
                 id="too-many-header-lines"),
    # exactly MAX_HEAD_BYTES with no blank line, so that the server reads all it was sent
    pytest.param((b"GET /api/v1/stats HTTP/1.1\r\nX-Long: " + b"a" * MAX_HEAD_BYTES)[:MAX_HEAD_BYTES], 431,
                 id="head-too-long"),
    pytest.param(b"PUT /api/v1/stats HTTP/1.1\r\nHost: x\r\n\r\n", 501, id="PUT"),
    pytest.param(b"GET /api/v1/stats HTTP/2.0\r\nHost: x\r\n\r\n", 505, id="HTTP/2.0"),
])
def test_a_request_refused_for_its_framing_gets_a_json_error_body_in_one_write(runtime, server_sends,
                                                                              request_bytes, status):
    reply = _exchange(runtime.http_port, request_bytes)
    assert server_sends == [reply]
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert status_line.startswith(f"HTTP/1.0 {status} ")
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(body)
    assert set(json.loads(body)) == {"error", "detail"}


def test_expect_100_continue_is_answered_before_the_body_is_sent(runtime):
    body = json.dumps(ingest_body(37.0)).encode()
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
        sock.sendall(_POST_HEAD + b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body))
        sock.settimeout(0.5)  # a client that hears nothing sends the body after its own wait, curl's is 1 s
        assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.settimeout(5)
        sock.sendall(body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.0 202 ")
    assert json.loads(reply.partition(b"\r\n\r\n")[2])["observation_iri"] == "urn:obs:thermo1:1"


@pytest.mark.parametrize("length_header, status", [
    (b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1), 413),
    (b"", 411),
])
def test_a_head_refused_under_expect_100_continue_gets_its_final_status_and_no_100(runtime, length_header, status):
    reply = _exchange(runtime.http_port, _POST_HEAD + b"Expect: 100-continue\r\n" + length_header + b"\r\n")
    assert reply.startswith(b"HTTP/1.0 %d " % status)
    assert b"100 Continue" not in reply


def _post(path: bytes, body: bytes) -> bytes:
    return b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (path, len(body), body)


#: requests whose replies repeat exactly, but for the Date header
_REPEATABLE_REQUESTS = [
    b"GET /api/v1/query?q=SELECT%20%3Fo%20WHERE%20%7B%20%3Fo%20m3%3Aindicates%20m3%3AFever%20%7D HTTP/1.1\r\n"
    b"Host: x\r\n\r\n",
    b"GET /api/v1/stats HTTP/1.0\r\n\r\n",
    _post(b"/api/v1/sensors", json.dumps({
        "device_id": "probe1", "observed_property": "m3:BodyTemperature",
        "feature_of_interest": "m3:Patient", "canonical_unit": "unit:DegreeCelsius",
    }).encode()),
    _post(b"/api/v1/observations", json.dumps(ingest_body(39.0, device="ghost")).encode()),
]


def _without_date(reply: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r]*", b"", reply)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_request_sent_in_pieces_gets_the_reply_it_gets_whole(runtime, data):
    request = data.draw(st.sampled_from(_REPEATABLE_REQUESTS))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(request) - 1), max_size=6)))
    pauses = data.draw(st.lists(st.floats(0, 0.02), min_size=len(cuts), max_size=len(cuts)))
    whole = _exchange(runtime.http_port, request)
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each piece leaves on its own
        for start, end, pause in zip([0] + cuts, cuts + [len(request)], [0.0] + pauses):
            time.sleep(pause)
            sock.sendall(request[start:end])
        pieced = b""
        while chunk := sock.recv(65536):
            pieced += chunk
    assert whole.startswith((b"HTTP/1.0 200 ", b"HTTP/1.0 404 "))
    assert _without_date(pieced) == _without_date(whole)


_REQUEST_LINES = st.sampled_from([
    b"GET /api/v1/stats HTTP/1.1", b"POST /api/v1/observations HTTP/1.1", b"POST /api/v1/sensors HTTP/1.0",
    b"GET /api/v1/query?q=x HTTP/1.1", b"PUT / HTTP/1.1", b"GET / HTTP/3.0", b"GET /",
])
_HEADER_LINES = st.sampled_from([
    b"Content-Length: 4", b"Content-Length: -1", b"Content-Length: 99999999", b"Expect: 100-continue",
    b"Host: x", b" folded", b"no colon", b"Transfer-Encoding: chunked",
])
_HOSTILE_REQUESTS = st.one_of(
    st.binary(max_size=200),
    st.lists(_REQUEST_LINES | _HEADER_LINES | st.sampled_from([b"", b"{}", b"\xff\x00"]) | st.binary(max_size=12),
             max_size=8).map(b"\r\n".join),
    st.tuples(_REQUEST_LINES, st.lists(_HEADER_LINES, max_size=4), st.binary(max_size=8)).map(
        lambda t: b"\r\n".join([t[0], *t[1]]) + b"\r\n\r\n" + t[2]),
    st.integers(MAX_HEADER_LINES - 2, MAX_HEADER_LINES + 2).map(
        lambda n: b"GET /api/v1/stats HTTP/1.1\r\n" + b"X-A: 1\r\n" * n + b"\r\n"),
    st.integers(MAX_HEAD_BYTES - 40, MAX_HEAD_BYTES + 40).map(
        lambda n: b"GET /api/v1/stats HTTP/1.1\r\nX-Long: " + b"a" * n + b"\r\n\r\n"),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=_HOSTILE_REQUESTS, hang_up=st.booleans())
@example(request=_POST_HEAD + b"Content-Length: 99999999\r\n\r\n", hang_up=False)
def test_no_bytes_get_a_500_a_traceback_or_a_worker_past_the_deadline(runtime, monkeypatch, caplog, request, hang_up):
    monkeypatch.setattr(_ApiHandler, "timeout", 0.2)
    reply = b""
    t0 = time.monotonic()
    with socket.create_connection(("127.0.0.1", runtime.http_port), timeout=5) as sock:
        try:
            sock.sendall(request)
            if hang_up:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                reply += chunk
        except OSError:
            pass  # refused before it was all read, so the close reset the connection
    assert time.monotonic() - t0 < 0.2 + 1.0
    assert reply == b"" or re.match(rb"HTTP/1\.[01] [1-5]\d\d ", reply)
    assert not reply.startswith(b"HTTP/1.0 500 ")
    assert [r for r in caplog.records if r.levelno >= logging.ERROR or r.exc_info] == []


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


def test_start_starts_the_delivery_thread_and_stop_ends_it(fixtures_dir):
    cfg, base = load_config(fixtures_dir / "gateway.toml")
    cfg.http.port = 0
    rt = Runtime.from_config(cfg, base)
    earlier = set(threading.enumerate())
    rt.start()
    try:
        started = [t for t in threading.enumerate() if t.name == "egress" and t not in earlier]
        assert len(started) == 1
    finally:
        rt.stop()
    assert not started[0].is_alive()


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
