"""Acceptance suite: the end-to-end scenarios and bulk property checks.

One test per criterion; each prints a single PASS/FAIL line with its
measured runtime (visible with ``pytest tests/test_acceptance.py -v -s``)
and fails if it exceeds its runtime budget.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import requests

from knotgate import coap
from knotgate.annotation import Annotator, RawReading, SensorRegistry
from knotgate.cli import main as cli_main
from knotgate.config import AppConfig, load_config
from knotgate.gateway import Gateway, Webhook, decode_reading
from knotgate.model import (
    Iri,
    Triple,
    make_iri,
    parse_triples,
    serialize_triples,
    triple_to_line,
)
from knotgate.mqtt import LoopbackBroker, MqttClient
from knotgate.query import Query, evaluate_query
from knotgate.rules import RuleSet, forward_chain, parse_pattern, parse_rulepack
from knotgate.services import Runtime
from knotgate.store import Inferred, Loaded, Store

from generators import Vocab, rand_graph, rand_query, rand_rulepack
from oracles import oracle_closure, oracle_query

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

FEVER_PACK = (FIXTURES / "rules" / "fever.rules").read_text(encoding="utf-8")
BP_PACK = (FIXTURES / "rules" / "bloodpressure.rules").read_text(encoding="utf-8")
FIRE_PACK = (FIXTURES / "rules" / "fire.rules").read_text(encoding="utf-8")
REMEDIES_PACK = (FIXTURES / "packs" / "remedies.nt").read_text(encoding="utf-8")
SENSORS_CSV = (FIXTURES / "sensors.csv").read_text(encoding="utf-8")

M3_INDICATES = make_iri("m3:indicates")


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS ({elapsed:.2f}s < {budget_s:g}s): {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def fresh_runtime(rule_texts=(), with_remedies=False) -> Runtime:
    runtime = Runtime(AppConfig())
    runtime.config.http.port = 0
    runtime.registry.load_csv(SENSORS_CSV)
    for text in rule_texts:
        runtime.gateway.set_rulepack(parse_rulepack(text))
    if with_remedies:
        runtime.gateway.load_knowledge_pack(REMEDIES_PACK, "remedies")
    return runtime


def reading_json(value, device="thermo1", unit="cel", ts=1700000000000) -> dict:
    return {
        "device_id": device,
        "sensor_kind": "temperature",
        "value": value,
        "unit": unit,
        "timestamp": ts,
    }


def canonical_export(store: Store) -> str:
    return "".join(line + "\n" for line in sorted(triple_to_line(t) for t in store))


def test_criterion_1_golden_path_temperature():
    with criterion(1, "fever derived from 39C over HTTP, nothing at 38C", 1.0):
        runtime = fresh_runtime([FEVER_PACK])
        runtime.start_http()
        try:
            base = f"http://127.0.0.1:{runtime.http_port}"
            resp = requests.post(f"{base}/api/v1/observations", json=reading_json(39.0))
            assert resp.status_code == 202
            derived = [parse_triples(line + "\n")[0] for line in resp.json()["derived"]]
            expected = Triple(Iri("urn:obs:thermo1:1"), M3_INDICATES, make_iri("m3:Fever"))
            assert expected in derived

            resp = requests.post(f"{base}/api/v1/observations", json=reading_json(38.0))
            assert resp.status_code == 202
            assert resp.json()["derived"] == []
        finally:
            runtime.stop()


def test_criterion_2_golden_path_blood_pressure():
    with criterion(2, "150 mmHg derives elevated blood pressure, 120 does not", 1.0):
        runtime = fresh_runtime([BP_PACK])
        try:
            receipt = runtime.gateway.ingest(
                RawReading("bp1", "blood-pressure-systolic", 150.0, "mmhg", 1)
            )
            expected = Triple(
                Iri("urn:obs:bp1:1"), M3_INDICATES, make_iri("m3:ElevatedBloodPressure")
            )
            assert receipt.derived == [expected]

            receipt = runtime.gateway.ingest(
                RawReading("bp1", "blood-pressure-systolic", 120.0, "mmhg", 2)
            )
            assert receipt.derived == []
        finally:
            runtime.stop()


def test_criterion_3_transport_equivalence():
    with criterion(3, "same reading via MQTT, CoAP, and HTTP yields equal stores", 5.0):
        payload = json.dumps(reading_json(39.0)).encode("utf-8")
        exports = {}

        # HTTP
        runtime = fresh_runtime([FEVER_PACK])
        runtime.start_http()
        try:
            resp = requests.post(
                f"http://127.0.0.1:{runtime.http_port}/api/v1/observations", data=payload
            )
            assert resp.status_code == 202
            exports["http"] = canonical_export(runtime.store)
        finally:
            runtime.stop()

        # CoAP
        runtime = fresh_runtime([FEVER_PACK])
        runtime.config.coap.port = 0
        port = runtime.start_coap()
        try:
            code, body = coap.request("127.0.0.1", port, coap.POST, ["ingest"], payload)
            assert code == coap.CREATED
            assert "urn:obs:thermo1:1" in json.loads(body)["observation_iri"]
            exports["coap"] = canonical_export(runtime.store)
        finally:
            runtime.stop()

        # MQTT via the loopback broker
        broker = LoopbackBroker()
        broker.start()
        runtime = fresh_runtime([FEVER_PACK])
        runtime.config.mqtt.enabled = True
        runtime.config.mqtt.broker_url = f"mqtt://127.0.0.1:{broker.port}"
        try:
            runtime.start_mqtt()
            device = MqttClient("127.0.0.1", broker.port, "device")
            device.connect()
            device.publish("iot/thermo1/temperature", payload)
            deadline = time.monotonic() + 4
            while time.monotonic() < deadline and len(runtime.store) < 7:
                time.sleep(0.02)
            device.disconnect()
            exports["mqtt"] = canonical_export(runtime.store)
        finally:
            runtime.stop()
            broker.stop()

        assert exports["http"] == exports["coap"] == exports["mqtt"]
        assert "m3#Fever" in exports["http"]


def test_criterion_4_chaining_matches_closure_oracle():
    with criterion(4, "200 random chains equal the brute-force closure", 30.0):
        rng = random.Random(40000)
        for _ in range(200):
            vocab = Vocab(rng)
            store, _ = vocab.store(rng.randint(0, 50))
            pack = rand_rulepack(rng, vocab, "gen", max_rules=5)
            expected = oracle_closure(set(store), list(pack.rules))
            stats = forward_chain(store, RuleSet([pack]))
            assert set(store) == expected
            assert stats.rounds <= stats.derived + 1
            again = forward_chain(store, RuleSet([pack]))
            assert again.derived == 0


def test_criterion_5_incremental_equals_full_rechain():
    with criterion(5, "50 ingest sequences equal retract-and-rechain", 30.0):
        rng = random.Random(50000)
        packs = [parse_rulepack(FEVER_PACK), parse_rulepack(FIRE_PACK)]
        for _ in range(50):
            registry = SensorRegistry()
            registry.load_csv(SENSORS_CSV)
            gateway = Gateway(Store(), Annotator(registry))
            for pack in packs:
                gateway.set_rulepack(pack)
            for i in range(rng.randint(1, 100)):
                device = rng.choice(["thermo1", "ambient1"])
                value = round(rng.uniform(20.0, 90.0), 1)
                gateway.ingest(RawReading(device, "temperature", value, "cel", i))
            live = gateway.store.snapshot()
            gateway.store.retract(Inferred)
            forward_chain(gateway.store, RuleSet(gateway.active_packs()))
            rebuilt = gateway.store.snapshot()
            assert set(rebuilt) == set(live)
            non_inferred = {
                t: p for t, p in live.items() if not isinstance(p, Inferred)
            }
            assert non_inferred == {
                t: p for t, p in rebuilt.items() if not isinstance(p, Inferred)
            }
            gateway.shutdown()


def test_criterion_6_query_oracle_agreement():
    with criterion(6, "500 random queries match the nested-loop oracle", 30.0):
        rng = random.Random(60000)
        for _ in range(500):
            vocab = Vocab(rng)
            store, _ = vocab.store(rng.randint(0, 100))
            query = rand_query(rng, vocab)
            unlimited = Query(query.select, query.patterns, query.filters, None)
            assert set(evaluate_query(unlimited, store).rows) == oracle_query(
                list(store), unlimited
            )


def test_criterion_7_composition_scenario(capture_server):
    with criterion(7, "fever composition suggests the 3 remedies, then none", 2.0):
        runtime = fresh_runtime([FEVER_PACK], with_remedies=True)
        try:
            runtime.compositions.register(
                trigger=parse_pattern("?o m3:indicates ?s"),
                lookup_text="SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
                response_template={"state": "{s}", "suggestions": "{r}"},
                endpoint=Webhook(capture_server.url),
            )
            runtime.gateway.ingest(RawReading("thermo1", "temperature", 39.0, "cel", 1))
            assert runtime.egress.drain(1.0) == 0
            assert capture_server.requests == [
                {
                    "state": "m3:Fever",
                    "suggestions": ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"],
                }
            ]

            # with the remedy pack unloaded the composition still fires, empty-handed
            runtime.store.retract(Loaded("remedies"))
            runtime.gateway.ingest(RawReading("thermo1", "temperature", 39.5, "cel", 2))
            assert runtime.egress.drain(1.0) == 0
            assert capture_server.requests[1] == {"state": "m3:Fever", "suggestions": []}
        finally:
            runtime.stop()


def test_criterion_8_cross_domain_reuse():
    with criterion(8, "health and fire packs fire only for their property", 5.0):
        runtime = fresh_runtime([FEVER_PACK, FIRE_PACK])
        try:
            # one hot ambient observation: only the fire rule may fire
            receipt = runtime.gateway.ingest(
                RawReading("ambient1", "temperature", 75.0, "cel", 1)
            )
            assert [t.object for t in receipt.derived] == [make_iri("m3:FireRisk")]

            expected_fever = 0
            expected_fire = 1
            for raw in (FIXTURES / "replay" / "mixed.csv").read_text().splitlines():
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                reading = decode_reading(line.encode("utf-8"), "csv")
                receipt = runtime.gateway.ingest(reading)
                if reading.device_id == "thermo1" and reading.value > 38.0:
                    expected_fever += 1
                if reading.device_id == "ambient1" and reading.value > 60.0:
                    expected_fire += 1
                for fact in receipt.derived:
                    if fact.object == make_iri("m3:Fever"):
                        assert fact.subject.value.startswith("urn:obs:thermo1:")
                    if fact.object == make_iri("m3:FireRisk"):
                        assert fact.subject.value.startswith("urn:obs:ambient1:")
            per_rule = runtime.gateway.stats()["per_rule"]
            assert per_rule == {"fever": expected_fever, "fire-risk": expected_fire}
            assert expected_fever > 0 and expected_fire > 1
        finally:
            runtime.stop()


def test_criterion_9_serialization_and_replay_determinism(tmp_path):
    with criterion(9, "parse/serialize identity and byte-identical replays", 10.0):
        rng = random.Random(90000)
        for _ in range(200):
            graph = rand_graph(rng)
            assert parse_triples(serialize_triples(graph)) == graph

        cfg = tmp_path / "gateway.toml"
        cfg.write_text(
            "[http]\nenabled = false\n"
            "[load]\n"
            f'sensors = ["{FIXTURES}/sensors.csv"]\n'
            f'rulepacks = ["{FIXTURES}/rules/fever.rules", "{FIXTURES}/rules/fire.rules"]\n'
            f'packs = ["{FIXTURES}/packs/remedies.nt"]\n',
            encoding="utf-8",
        )
        log = FIXTURES / "replay" / "mixed.csv"
        dumps = []
        for name in ("one.nt", "two.nt"):
            out = tmp_path / name
            code = cli_main(
                ["export", str(out), "--config", str(cfg), "--replay", str(log)]
            )
            assert code == 0
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        assert len(dumps[0]) > 0
