#!/usr/bin/env python3
"""End-to-end walkthrough: raw reading -> observation triples -> derived
fever state -> naturopathy suggestion payload.

Boots a gateway from the shipped fixtures, registers a composition whose
webhook lands on a local sink, then pushes one 39 C body-temperature
reading over HTTP and prints everything that happens.
"""

import json
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from knotgate.config import load_config  # noqa: E402
from knotgate.services import Runtime  # noqa: E402


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


def post_json(url: str, obj: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(obj).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req) as resp:
        return json.load(resp)


def main() -> None:
    cfg, base = load_config(REPO / "fixtures" / "gateway.toml")
    cfg.http.port = 0
    runtime = Runtime.from_config(cfg, base)
    runtime.start_http()
    api = f"http://127.0.0.1:{runtime.http_port}/api/v1"

    payloads: list = []
    sink = start_sink(payloads)
    sink_url = f"http://127.0.0.1:{sink.server_address[1]}/suggestions"

    post_json(
        f"{api}/compositions",
        {
            "trigger": "?o m3:indicates ?s",
            "lookup": "SELECT ?r WHERE { ?s m3:hasRemedy ?r }",
            "response_template": {"state": "{s}", "suggestions": "{r}"},
            "endpoint": {"kind": "webhook", "url": sink_url},
        },
    )
    print("composition registered: derived state -> remedy lookup ->", sink_url)

    reading = {
        "device_id": "thermo1",
        "sensor_kind": "temperature",
        "value": 39.0,
        "unit": "cel",
        "timestamp": 1700000000000,
    }
    print("\nPOST /observations", json.dumps(reading))
    receipt = post_json(f"{api}/observations", reading)
    print("receipt:")
    print(json.dumps(receipt, indent=2))

    runtime.egress.drain(5)  # the payload leaves on the gateway's delivery thread
    print("\nsuggestion payload delivered to the sink:")
    print(json.dumps(payloads[0], indent=2))

    with urllib.request.urlopen(f"{api}/stats") as resp:
        print("\nstats:", json.dumps(json.load(resp)))

    runtime.stop()
    sink.shutdown()


if __name__ == "__main__":
    main()
