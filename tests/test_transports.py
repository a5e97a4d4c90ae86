import json
import threading
import time

import pytest

from knotgate import coap
from knotgate.mqtt import LoopbackBroker, MqttClient, topic_matches


@pytest.fixture
def broker():
    b = LoopbackBroker()
    b.start()
    yield b
    b.stop()


# -- mqtt ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,topic,expected",
    [
        ("iot/#", "iot/thermo1/temperature", True),
        ("iot/#", "iot", True),
        ("iot/+/temperature", "iot/thermo1/temperature", True),
        ("iot/+/temperature", "iot/thermo1/humidity", False),
        ("iot/thermo1/temperature", "iot/thermo1/temperature", True),
        ("iot/thermo1", "iot/thermo1/temperature", False),
        ("#", "anything/at/all", True),
    ],
)
def test_topic_matches(pattern, topic, expected):
    assert topic_matches(pattern, topic) is expected


def test_publish_subscribe_round_trip(broker):
    received = []
    done = threading.Event()

    def on_message(topic, payload):
        received.append((topic, payload))
        done.set()

    subscriber = MqttClient("127.0.0.1", broker.port, "sub", on_message=on_message)
    subscriber.connect()
    subscriber.subscribe("iot/#")
    publisher = MqttClient("127.0.0.1", broker.port, "pub")
    publisher.connect()
    publisher.publish("iot/thermo1/temperature", b"39.0")
    assert done.wait(timeout=5)
    assert received == [("iot/thermo1/temperature", b"39.0")]
    publisher.disconnect()
    subscriber.disconnect()


def test_n_messages_preserve_order(broker):
    received = []
    count = 50
    done = threading.Event()

    def on_message(topic, payload):
        received.append(payload)
        if len(received) == count:
            done.set()

    subscriber = MqttClient("127.0.0.1", broker.port, "sub", on_message=on_message)
    subscriber.connect()
    subscriber.subscribe("derived/+")
    publisher = MqttClient("127.0.0.1", broker.port, "pub")
    publisher.connect()
    for i in range(count):
        publisher.publish("derived/health", str(i).encode())
    assert done.wait(timeout=5)
    assert received == [str(i).encode() for i in range(count)]
    publisher.disconnect()
    subscriber.disconnect()


def test_non_matching_subscription_gets_nothing(broker):
    received = []
    subscriber = MqttClient("127.0.0.1", broker.port, "sub", on_message=lambda t, p: received.append(p))
    subscriber.connect()
    subscriber.subscribe("iot/other/#")
    publisher = MqttClient("127.0.0.1", broker.port, "pub")
    publisher.connect()
    publisher.publish("derived/health", b"x")
    time.sleep(0.2)
    assert received == []
    publisher.disconnect()
    subscriber.disconnect()


def test_unicode_payloads_survive(broker):
    received = []
    done = threading.Event()
    subscriber = MqttClient(
        "127.0.0.1", broker.port, "sub", on_message=lambda t, p: (received.append((t, p)), done.set())
    )
    subscriber.connect()
    subscriber.subscribe("#")
    publisher = MqttClient("127.0.0.1", broker.port, "pub")
    publisher.connect()
    body = json.dumps({"unit": "\N{DEGREE SIGN}C"}).encode("utf-8")
    publisher.publish("iot/x/temp\N{DEGREE SIGN}", body)
    assert done.wait(timeout=5)
    assert received[0] == ("iot/x/temp\N{DEGREE SIGN}", body)
    publisher.disconnect()
    subscriber.disconnect()


# -- coap ------------------------------------------------------------------------


def test_coap_message_codec_round_trip():
    msg = coap.CoapMessage(
        mtype=coap.TYPE_CON,
        code=coap.POST,
        message_id=4242,
        token=b"\x01\x02",
        options=[(coap.OPTION_URI_PATH, b"ingest"), (coap.OPTION_CONTENT_FORMAT, b"\x32")],
        payload=b'{"v":1}',
    )
    again = coap.decode_message(coap.encode_message(msg))
    assert again == msg
    assert again.uri_path() == ["ingest"]


def test_coap_codec_handles_large_option_numbers():
    msg = coap.CoapMessage(
        mtype=coap.TYPE_CON,
        code=coap.GET,
        message_id=1,
        options=[(11, b"a"), (300, b"bb"), (2000, b"c" * 300)],
    )
    assert coap.decode_message(coap.encode_message(msg)) == msg


def test_coap_decode_rejects_garbage():
    with pytest.raises(coap.CoapFormatError):
        coap.decode_message(b"\x00\x01")
    with pytest.raises(coap.CoapFormatError):
        coap.decode_message(b"\xc0\x02\x00\x01")  # version 3


def test_coap_server_round_trip():
    def handler(method, path, payload):
        assert method == coap.POST
        assert path == ["echo"]
        return coap.CONTENT, payload.upper()

    server = coap.CoapServer(handler)
    server.start()
    try:
        code, payload = coap.request("127.0.0.1", server.port, coap.POST, ["echo"], b"hello")
        assert code == coap.CONTENT
        assert payload == b"HELLO"
    finally:
        server.stop()


def test_coap_server_handler_error_becomes_5xx():
    def handler(method, path, payload):
        raise RuntimeError("boom")

    server = coap.CoapServer(handler)
    server.start()
    try:
        code, _ = coap.request("127.0.0.1", server.port, coap.POST, ["x"], b"")
        assert code == coap.INTERNAL_ERROR
    finally:
        server.stop()


def code_text(c: int) -> str:
    """A CoAP code in its dotted class.detail form (RFC 7252, section 3)."""
    return f"{c >> 5}.{c & 0x1F:02d}"


def test_coap_code_text():
    assert code_text(coap.CREATED) == "2.01"
    assert code_text(coap.UNPROCESSABLE) == "4.22"
