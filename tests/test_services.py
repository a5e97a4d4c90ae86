import errno
import logging
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from knotgate.annotation import (
    InvalidRegistration,
    RawReading,
    UnknownUnit,
    UnregisteredDevice,
    UnsupportedConversion,
)
from knotgate.config import AppConfig, load_config
from knotgate.gateway import BadTopic, DecodeError, MqttTopic, Webhook
from knotgate.lexer import GrammarError
from knotgate.model import Iri, Triple, TripleParseError, make_iri, parse_triples
from knotgate.query import UnsafeQuery, evaluate_query, parse_query
from knotgate.rules import RuleSafetyError, parse_pattern, parse_rulepack
from knotgate import services
from knotgate.services import (
    HTTP_READ_TIMEOUT_S,
    HTTP_WORKERS,
    MAX_BODY_BYTES,
    BodyTooLarge,
    InvalidSubscription,
    Runtime,
    Subscription,
    TemplateError,
    _ApiHandler,
    _ApiServer,
    error_body,
    parse_endpoint,
)
from knotgate.store import TriplePattern, Variable


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
    with pytest.raises(InvalidSubscription):
        Subscription("s1", TriplePattern(Variable("a"), Variable("b"), Variable("c")), Webhook("http://x:1/h"))


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
    [envelope] = capture_server.requests
    assert set(envelope) == {"triple", "rule_id", "observation_iri", "timestamp"}
    assert parse_triples(envelope["triple"] + "\n")[0].object == make_iri("m3:Fever")
    assert envelope["rule_id"] == "fever"
    assert envelope["observation_iri"] == "urn:obs:thermo1:1"
    assert envelope["timestamp"] == 1700000000000


def test_subscription_not_notified_below_threshold(base_url, capture_server):
    requests.post(
        f"{base_url}/api/v1/subscriptions",
        json={
            "pattern": "?o m3:indicates m3:Fever",
            "endpoint": {"kind": "webhook", "url": capture_server.url},
        },
    )
    r = requests.post(f"{base_url}/api/v1/observations", json=ingest_body(37.0))
    assert r.json()["notifications_queued"] == 0
    assert capture_server.requests == []


def test_k_subscriptions_yield_k_deliveries(runtime, capture_server):
    k = 4
    for _ in range(k):
        runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook(capture_server.url))
    receipt = runtime.gateway.ingest(RawReading("thermo1", "temperature", 41.0, "cel", 1))
    assert receipt.notifications_queued == k
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
    assert len(capture_server.requests) == 1
    # replacing the pack re-derives the same fact; at most once per (sub, fact)
    requests.post(f"{base_url}/api/v1/rulepacks", data=fever_pack_text)
    time.sleep(0.1)
    assert len(capture_server.requests) == 1


def test_subscription_on_asserted_facts_never_fires(runtime, capture_server):
    runtime.subscriptions.register(
        parse_pattern("?o rdf:type ssn:Observation"), Webhook(capture_server.url)
    )
    receipt = runtime.gateway.ingest(RawReading("thermo1", "temperature", 36.0, "cel", 1))
    assert receipt.notifications_queued == 0
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


# -- compositions ------------------------------------------------------------------


def composition_body(url, trigger="?o m3:indicates ?s"):
    return {
        "trigger": trigger,
        "lookup": "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
        "response_template": {"state": "{s}", "suggestions": "{r}"},
        "endpoint": {"kind": "webhook", "url": url},
    }


def test_composition_fever_to_remedies(base_url, capture_server):
    resp = requests.post(f"{base_url}/api/v1/compositions", json=composition_body(capture_server.url))
    assert resp.status_code == 201
    requests.post(f"{base_url}/api/v1/observations", json=ingest_body(39.0))
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
    assert capture_server.requests == []
    # but an ambient reading above the fire threshold does fire it
    requests.post(
        f"{base_url}/api/v1/observations", json=ingest_body(75.0, device="ambient1")
    )
    assert len(capture_server.requests) == 1
    assert capture_server.requests[0]["alert"] == "fire"


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


def _stall_fever_deliveries(runtime):
    """Make every fever webhook delivery wait, holding the write lock, until the returned event is set;
    the first returned event is set once the first delivery has started."""
    entered, release = threading.Event(), threading.Event()

    def stalled_post(url, payload):
        entered.set()
        release.wait(10)
        return 200

    runtime.egress.http_post = stalled_post
    runtime.subscriptions.register(parse_pattern("?o m3:indicates m3:Fever"), Webhook("http://127.0.0.1:9/hook"))
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


def test_query_answers_while_writers_wait_on_a_stalled_delivery(runtime, base_url):
    entered, release = _stall_fever_deliveries(runtime)
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
    entered, release = _stall_fever_deliveries(runtime)
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
