import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def fever_pack_text() -> str:
    return (FIXTURES / "rules" / "fever.rules").read_text(encoding="utf-8")


@pytest.fixture
def remedies_pack_text() -> str:
    return (FIXTURES / "packs" / "remedies.nt").read_text(encoding="utf-8")


@pytest.fixture
def fever_observation_text() -> str:
    return (FIXTURES / "packs" / "fever-observation.nt").read_text(encoding="utf-8")


def flat_json(payload: bytes) -> dict:
    """A delivered JSON object, its arrays sorted: a lookup's rows come in no order an oracle knows."""
    return {key: sorted(value) if isinstance(value, list) else value for key, value in json.loads(payload).items()}


class CaptureServer:
    """Local HTTP sink recording webhook deliveries; can fail on demand."""

    def __init__(self):
        self.requests: list[dict] = []
        self.paths: list[str] = []  # the request target of every delivery, failed ones included
        self.fail_times = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                with outer._lock:
                    outer.paths.append(self.path)
                    if outer.fail_times > 0:
                        outer.fail_times -= 1
                        status = 500
                    else:
                        outer.requests.append(json.loads(body))
                        status = 200
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}/hook"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def capture_server():
    server = CaptureServer()
    yield server
    server.stop()
