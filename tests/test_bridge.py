"""Gateway integration over the loopback broker and the CoAP adapter."""

import json
import threading
import time

import pytest

from knotgate import coap
from knotgate.config import AppConfig
from knotgate.model import Iri, Triple, make_iri, parse_triples
from knotgate.mqtt import LoopbackBroker, MqttClient
from knotgate.rules import parse_rulepack
from knotgate.services import Runtime

SENSORS = "thermo1,m3:BodyTemperature,m3:Patient,unit:DegreeCelsius\n"


def reading_payload(value: float, ts: int) -> bytes:
    return json.dumps(
        {
            "device_id": "thermo1",
            "sensor_kind": "temperature",
            "value": value,
            "unit": "cel",
            "timestamp": ts,
        }
    ).encode("utf-8")


@pytest.fixture
def broker():
    b = LoopbackBroker()
    b.start()
    yield b
    b.stop()


@pytest.fixture
def mqtt_runtime(broker, fever_pack_text):
    runtime = Runtime(AppConfig())
    runtime.registry.load_csv(SENSORS)
    runtime.gateway.set_rulepack(parse_rulepack(fever_pack_text))
    runtime.config.mqtt.enabled = True
    runtime.config.mqtt.broker_url = f"mqtt://127.0.0.1:{broker.port}"
    runtime.start_mqtt()
    yield runtime
    runtime.stop()


class Collector:
    def __init__(self, broker_port: int, topic_filter: str):
        self.envelopes: list[tuple[str, dict]] = []
        self._event = threading.Event()
        self._want = 0
        self.client = MqttClient("127.0.0.1", broker_port, "collector", on_message=self._on)
        self.client.connect()
        self.client.subscribe(topic_filter)

    def _on(self, topic: str, payload: bytes) -> None:
        self.envelopes.append((topic, json.loads(payload)))
        if len(self.envelopes) >= self._want:
            self._event.set()

    def wait_for(self, n: int, timeout: float = 5.0) -> None:
        self._want = n
        if len(self.envelopes) >= n:
            return
        self._event.clear()
        assert self._event.wait(timeout), f"saw {len(self.envelopes)} of {n} envelopes"

    def close(self) -> None:
        self.client.disconnect()


def test_fever_fact_bridges_to_domain_topic(broker, mqtt_runtime):
    collector = Collector(broker.port, "derived/#")
    device = MqttClient("127.0.0.1", broker.port, "device")
    device.connect()
    try:
        device.publish("iot/thermo1/temperature", reading_payload(39.0, 1700000000000))
        collector.wait_for(1)
        [(topic, envelope)] = collector.envelopes
        assert topic == "derived/health"  # the fever pack's domain tag
        [fact] = parse_triples(envelope["triple"] + "\n")
        assert fact == Triple(
            Iri("urn:obs:thermo1:1"), make_iri("m3:indicates"), make_iri("m3:Fever")
        )
        assert envelope["rule_id"] == "fever"
        assert envelope["observation_iri"] == "urn:obs:thermo1:1"
        assert envelope["timestamp"] == 1700000000000
    finally:
        device.disconnect()
        collector.close()


def test_n_facts_publish_n_envelopes_in_device_order(broker, mqtt_runtime):
    n = 10
    collector = Collector(broker.port, "derived/health")
    device = MqttClient("127.0.0.1", broker.port, "device")
    device.connect()
    try:
        for i in range(n):
            device.publish("iot/thermo1/temperature", reading_payload(39.0 + i / 10, i))
        collector.wait_for(n)
        time.sleep(0.1)  # no extras may trail in
        assert len(collector.envelopes) == n
        sequences = [
            int(env["observation_iri"].rsplit(":", 1)[1]) for _, env in collector.envelopes
        ]
        assert sequences == list(range(1, n + 1))
    finally:
        device.disconnect()
        collector.close()


def test_sub_threshold_reading_publishes_nothing(broker, mqtt_runtime):
    collector = Collector(broker.port, "derived/#")
    device = MqttClient("127.0.0.1", broker.port, "device")
    device.connect()
    try:
        device.publish("iot/thermo1/temperature", reading_payload(36.5, 1))
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline and len(mqtt_runtime.store) < 6:
            time.sleep(0.02)
        assert len(mqtt_runtime.store) == 6  # observation stored, nothing derived
        assert collector.envelopes == []
    finally:
        device.disconnect()
        collector.close()


def test_undecodable_mqtt_message_is_dropped(broker, mqtt_runtime):
    device = MqttClient("127.0.0.1", broker.port, "device")
    device.connect()
    try:
        device.publish("iot/thermo1/temperature", b"{broken json")
        device.publish("wrong/topic/shape/extra", reading_payload(39.0, 1))
        time.sleep(0.3)
        assert len(mqtt_runtime.store) == 0
    finally:
        device.disconnect()


# -- coap adapter ----------------------------------------------------------------


@pytest.fixture
def coap_runtime(fever_pack_text):
    runtime = Runtime(AppConfig())
    runtime.registry.load_csv(SENSORS)
    runtime.gateway.set_rulepack(parse_rulepack(fever_pack_text))
    runtime.config.coap.port = 0
    runtime.start_coap()
    yield runtime
    runtime.stop()


def test_coap_ingest_created(coap_runtime):
    port = coap_runtime.coap_server.port
    code, body = coap.request(
        "127.0.0.1", port, coap.POST, ["ingest"], reading_payload(39.0, 1)
    )
    assert code == coap.CREATED
    receipt = json.loads(body)
    assert receipt["observation_iri"] == "urn:obs:thermo1:1"
    assert len(receipt["derived"]) == 1


def test_coap_ingest_unregistered_device(coap_runtime):
    port = coap_runtime.coap_server.port
    payload = json.dumps(
        {"device_id": "ghost", "sensor_kind": "t", "value": 1.0, "unit": "cel", "timestamp": 1}
    ).encode()
    code, body = coap.request("127.0.0.1", port, coap.POST, ["ingest"], payload)
    assert code == coap.NOT_FOUND
    assert json.loads(body)["error"] == "UnregisteredDevice"


def test_coap_ingest_unknown_unit(coap_runtime):
    port = coap_runtime.coap_server.port
    payload = json.dumps(
        {"device_id": "thermo1", "sensor_kind": "t", "value": 1.0, "unit": "x", "timestamp": 1}
    ).encode()
    code, body = coap.request("127.0.0.1", port, coap.POST, ["ingest"], payload)
    assert code == coap.UNPROCESSABLE


def test_coap_ingest_bad_payload(coap_runtime):
    port = coap_runtime.coap_server.port
    code, body = coap.request("127.0.0.1", port, coap.POST, ["ingest"], b"{nope")
    assert code == coap.BAD_REQUEST


def test_coap_ingest_unexpected_error_is_5xx(coap_runtime, monkeypatch):
    # an error the HTTP table calls 500 is re-raised, and the server answers 5.00
    def boom(reading):
        raise RuntimeError("boom")

    monkeypatch.setattr(coap_runtime.gateway, "ingest", boom)
    port = coap_runtime.coap_server.port
    code, _ = coap.request("127.0.0.1", port, coap.POST, ["ingest"], reading_payload(39.0, 1))
    assert code == coap.INTERNAL_ERROR


def test_coap_unknown_path(coap_runtime):
    port = coap_runtime.coap_server.port
    code, _ = coap.request("127.0.0.1", port, coap.POST, ["elsewhere"], b"{}")
    assert code == coap.NOT_FOUND
