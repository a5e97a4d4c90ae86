#!/usr/bin/env python3
"""Drive a real `knotgate serve` process end to end over all three transports.

Boots the loopback MQTT broker and a webhook sink, launches the server as a
subprocess from the shipped fixtures, then exercises: admin registration,
HTTP/CoAP/MQTT ingestion, derived-fact subscription delivery, composition
payloads, query + stats endpoints, and the derived/{domain} MQTT bridge.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from knotgate import coap  # noqa: E402
from knotgate.mqtt import LoopbackBroker, MqttClient  # noqa: E402

FIXTURES = REPO / "fixtures"
CHECKS: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append(name)
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}{': ' + detail if detail else ''}")
    if not ok:
        sys.exit(1)


def start_sink(payloads: list) -> HTTPServer:
    class Sink(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            payloads.append(json.loads(body))
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Sink)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def post(url: str, data: bytes, content_type: str = "application/json") -> tuple[int, dict]:
    req = urllib.request.Request(url, data=data, headers={"Content-Type": content_type})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.load(resp)


def reading(value: float, device: str = "thermo1", ts: int = 1700000000000) -> bytes:
    return json.dumps(
        {
            "device_id": device,
            "sensor_kind": "temperature",
            "value": value,
            "unit": "cel",
            "timestamp": ts,
        }
    ).encode()


def main() -> None:
    print("== end-to-end drive ==")
    broker = LoopbackBroker()
    broker.start()

    # the server reads its config at boot, so the directory goes once it reports its ports
    with tempfile.TemporaryDirectory(prefix="knotgate-e2e-") as scratch:
        config = Path(scratch) / "gateway.toml"
        config.write_text(
            "[http]\nenabled = true\nhost = \"127.0.0.1\"\nport = 0\n"
            "[coap]\nenabled = true\nhost = \"127.0.0.1\"\nport = 0\n"
            f"[mqtt]\nenabled = true\nbroker_url = \"mqtt://127.0.0.1:{broker.port}\"\n"
            "[load]\n"
            f"sensors = [\"{FIXTURES}/sensors.csv\"]\n"
            f"rulepacks = [\"{FIXTURES}/rules/fever.rules\"]\n"
            f"packs = [\"{FIXTURES}/packs/remedies.nt\"]\n",
            encoding="utf-8",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "knotgate", "serve", "--config", str(config)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO,
            # src first on the child's path, so that a checkout that is not installed runs too
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))},
        )
        http_port = coap_port = None
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and (http_port is None or coap_port is None):
            line = proc.stdout.readline()
            if "http listening on" in line:
                http_port = int(line.rsplit(":", 1)[1])
            elif "coap listening on" in line:
                coap_port = int(line.rsplit(":", 1)[1])
    check("server boots and reports ports", http_port is not None and coap_port is not None)
    api = f"http://127.0.0.1:{http_port}/api/v1"

    try:
        payloads: list = []
        sink = start_sink(payloads)
        sink_url = f"http://127.0.0.1:{sink.server_address[1]}/hook"

        status, body = post(
            f"{api}/sensors", b"extra1,m3:AmbientTemperature,m3:Room,unit:DegreeCelsius\n", "text/csv"
        )
        check("sensor registration over HTTP", status == 200 and body["registered"] == 1)

        status, body = post(f"{api}/rulepacks", (FIXTURES / "rules" / "fire.rules").read_bytes())
        check("rule pack upload", status == 200 and body["pack_id"] == "slor-fire")

        status, body = post(
            f"{api}/subscriptions",
            json.dumps(
                {"pattern": "?o m3:indicates m3:Fever", "endpoint": {"kind": "webhook", "url": sink_url}}
            ).encode(),
        )
        check("subscription registered", status == 201)

        status, body = post(
            f"{api}/compositions",
            json.dumps(
                {
                    "trigger": "?o m3:indicates ?s",
                    "lookup": "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
                    "response_template": {"state": "{s}", "suggestions": "{r}"},
                    "endpoint": {"kind": "webhook", "url": sink_url},
                }
            ).encode(),
        )
        check("composition registered", status == 201)

        collector: list = []
        spy = MqttClient("127.0.0.1", broker.port, "spy", on_message=lambda t, p: collector.append((t, json.loads(p))))
        spy.connect()
        spy.subscribe("derived/#")

        status, receipt = post(f"{api}/observations", reading(39.0))
        check(
            "HTTP ingest derives fever",
            status == 202 and any("m3#Fever" in line for line in receipt["derived"]),
            receipt["observation_iri"],
        )

        code, coap_body = coap.request("127.0.0.1", coap_port, coap.POST, ["ingest"], reading(39.5, ts=1700000001000))
        check("CoAP ingest derives fever", code == coap.CREATED and json.loads(coap_body)["derived"] != [])

        device = MqttClient("127.0.0.1", broker.port, "device")
        device.connect()
        device.publish("iot/thermo1/temperature", reading(40.0, ts=1700000002000))
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and len(collector) < 3:
            time.sleep(0.05)
        device.disconnect()
        check(
            "3 derived facts bridged to derived/health over MQTT",
            len(collector) == 3 and all(t == "derived/health" for t, _ in collector),
        )

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and get(f"{api}/stats")["deliveries"]["pending"]:
            time.sleep(0.02)
        states = [p for p in payloads if "state" in p]
        envelopes = [p for p in payloads if "triple" in p]
        check("subscription envelope per fever fact", len(envelopes) == 3)
        check(
            "composition suggests the remedies",
            all(p["suggestions"] == ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"] for p in states)
            and len(states) == 3,
        )

        rows = get(f"{api}/query?q=" + urllib.parse.quote("SELECT ?o WHERE { ?o m3:indicates m3:Fever }"))["rows"]
        check("query sees all derived states", len(rows) == 3)

        stats = get(f"{api}/stats")
        check("stats count rule fires", stats["per_rule"]["fever"] == 3 and stats["per_rule"]["fire-risk"] == 0)
        spy.disconnect()
        sink.shutdown()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        broker.stop()
    check("server exits cleanly on SIGTERM", proc.returncode == 0)
    print(f"== all {len(CHECKS)} checks passed ==")


if __name__ == "__main__":
    main()
