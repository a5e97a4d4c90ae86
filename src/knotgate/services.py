"""Application-facing layer: HTTP API, subscriptions, and service composition.

Subscriptions deliver an envelope for every newly derived fact that
matches their pattern; the gateway calls the hooks only for derived facts
its store did not hold before the write.  Subscriptions and compositions
are triggers of one kind (TriggerRegistry), matched through the store
(Store.match over the one fact), so a pattern naming any IRI of an alias
class matches the fact served under the class's canonical IRI.
Composition pipelines react to derived facts by running a lookup query
against loaded knowledge (with the trigger's bindings substituted) and
filling a JSON response template, turning e.g. a derived fever state into
a home-remedy suggestion payload.  Both build their payloads inside the
write that derived the fact and leave the sending to Egress's outbox.

Everything here is a thin serialization shell: each endpoint body is the
corresponding module operation's result and nothing else.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import re
import socket
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Iterator, Sequence

from . import coap as coap_proto
from .annotation import (
    Annotator,
    InvalidRegistration,
    SensorRegistration,
    SensorRegistry,
    UnknownUnit,
    UnregisteredDevice,
    UnsupportedConversion,
)
from .config import AppConfig, ConfigError
from .gateway import (
    DerivedContext,
    Egress,
    EgressTarget,
    Gateway,
    MqttTopic,
    Webhook,
    decode_reading,
    fact_envelope,
    now_ms,
    sniff_format,
    topic_to_route,
)
from .lexer import GrammarError
from .model import Term, Triple, TripleParseError, compact_term, serialize_term
from .mqtt import MqttClient
from .query import Query, evaluate_query, parse_query
from .rules import parse_pattern, parse_rulepack
from .store import Store, TriplePattern

log = logging.getLogger(__name__)

#: largest HTTP request body read; a larger Content-Length gets 413 unread
MAX_BODY_BYTES = 16 * 1024 * 1024
#: HTTP worker threads; at most this many requests run at once
HTTP_WORKERS = 8
#: seconds a connection has to send its whole request before its worker closes it
HTTP_READ_TIMEOUT_S = 5.0
#: seconds a client is asked to wait (Retry-After) before it retries a 503
RETRY_AFTER_S = 1
#: seconds a POST waits for one of the HTTP_WORKERS - 1 writer slots before a 503
HTTP_WRITE_WAIT_S = 0.1


class TemplateError(ValueError):
    """A response template references an unresolvable placeholder."""


class InvalidSubscription(ValueError):
    """Subscription pattern needs at least one concrete position."""


class BodyTooLarge(ValueError):
    """The request's Content-Length exceeds MAX_BODY_BYTES."""


class ServerBusy(RuntimeError):
    """Every HTTP writer slot is taken, and none freed within HTTP_WRITE_WAIT_S."""


@dataclass(frozen=True)
class Trigger:
    """A pattern whose matching derived facts each send a payload to an
    endpoint; a composition's also carries its lookup and template."""

    id: str
    pattern: TriplePattern
    endpoint: EgressTarget
    lookup: Query | None = None
    response_template: object = None


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")


def _template_strings(node: object) -> Iterator[str]:
    """Every string leaf of a JSON template, in document order."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        yield from _template_strings(list(node.values()))
    elif isinstance(node, list):
        for v in node:
            yield from _template_strings(v)


def _fill_template(node: object, scalars: dict[str, str], arrays: dict[str, list[str]]) -> object:
    if isinstance(node, str):
        whole = _PLACEHOLDER_RE.fullmatch(node)
        if whole:
            name = whole.group(1)
            if name in arrays:
                return arrays[name]
            return scalars[name]
        return _PLACEHOLDER_RE.sub(lambda m: scalars[m.group(1)], node)
    if isinstance(node, dict):
        return {k: _fill_template(v, scalars, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_fill_template(v, scalars, arrays) for v in node]
    return node


class TriggerRegistry:
    """Triggers in registration order, and which of them a derived fact fires.

    Each subclass defines its own on_derived: the benchmark's tracer
    (perfbench/spans.py) wraps them by class."""

    def __init__(self, store: Store, egress: Egress, id_prefix: str):
        self.store = store
        self.egress = egress
        self._id_prefix = id_prefix
        self._lock = threading.Lock()
        self._triggers: dict[str, Trigger] = {}
        self._ids = itertools.count(1)

    def _add(self, trigger_id: str | None, pattern: TriplePattern, endpoint: EgressTarget,
             lookup: Query | None = None, response_template: object = None) -> str:
        with self._lock:
            tid = trigger_id or f"{self._id_prefix}-{next(self._ids)}"
            if tid in self._triggers:
                raise ValueError(f"duplicate id {tid!r}")
            self._triggers[tid] = Trigger(tid, pattern, endpoint, lookup, response_template)
            return tid

    def _fired(self, fact: Triple) -> list[tuple[Trigger, tuple[Term, ...]]]:
        """The triggers the fact matches, each with its row of the fact."""
        with self._lock:
            triggers = list(self._triggers.values())
        fired = []
        for trigger in triggers:
            rows = self.store.match(trigger.pattern, among=(fact,))
            if rows:
                fired.append((trigger, rows[0]))
        return fired


class SubscriptionManager(TriggerRegistry):
    """Pattern-triggered envelope deliveries."""

    def __init__(self, store: Store, egress: Egress):
        super().__init__(store, egress, "sub")

    def register(self, pattern: TriplePattern, endpoint: EgressTarget) -> str:
        if pattern.concrete_count() == 0:
            raise InvalidSubscription("pattern must have at least one concrete position")
        return self._add(None, pattern, endpoint)

    def on_derived(self, fact: Triple, ctx: DerivedContext) -> int:
        fired = self._fired(fact)
        return sum(self.egress.enqueue(sub.endpoint, fact_envelope(fact, ctx)) for sub, _ in fired)


class CompositionManager(TriggerRegistry):
    """Derived-fact triggers that look up knowledge and emit payloads."""

    def __init__(self, store: Store, egress: Egress):
        super().__init__(store, egress, "comp")

    def register(
        self,
        trigger: TriplePattern,
        lookup_text: str,
        response_template: object,
        endpoint: EgressTarget,
        pipeline_id: str | None = None,
    ) -> str:
        """Validate and install a pipeline.

        The lookup query may reference trigger variables; template
        placeholders must name a trigger variable (filled as one value) or
        a lookup select variable (filled as a JSON array).  All of this is
        checked here so nothing can fail at delivery time.
        """
        trigger_vars = trigger.variables()
        lookup = parse_query(lookup_text, presumed_bound=trigger_vars)
        leaves = list(_template_strings(response_template))
        named = {n for leaf in leaves for n in _PLACEHOLDER_RE.findall(leaf)}
        unknown = sorted(named - trigger_vars - set(lookup.select))
        if unknown:
            raise TemplateError(f"placeholder {{{unknown[0]}}} is not a trigger or lookup variable")
        array_vars = set(lookup.select) - trigger_vars
        embedded = [
            n
            for leaf in leaves
            if not _PLACEHOLDER_RE.fullmatch(leaf)
            for n in _PLACEHOLDER_RE.findall(leaf)
            if n in array_vars
        ]
        if embedded:
            raise TemplateError(
                f"list placeholder {{{embedded[0]}}} must be the entire string value"
            )
        return self._add(pipeline_id, trigger, endpoint, lookup, response_template)

    def on_derived(self, fact: Triple, ctx: DerivedContext) -> int:
        fired = 0
        for pipe, terms in self._fired(fact):
            bindings = dict(zip(pipe.pattern.names, terms))
            table = evaluate_query(pipe.lookup, self.store, bindings=bindings)
            scalars = {name: compact_term(term) for name, term in bindings.items()}
            arrays: dict[str, list[str]] = {}
            for col, name in enumerate(table.columns):
                if name in bindings:
                    continue
                # distinct, in row order
                arrays[name] = list(dict.fromkeys(compact_term(row[col]) for row in table.rows))
            payload = _fill_template(pipe.response_template, scalars, arrays)
            fired += self.egress.enqueue(pipe.endpoint, json.dumps(payload).encode("utf-8"))
        return fired


def parse_endpoint(obj: object) -> EgressTarget:
    """Wire format: {"kind": "webhook", "url": ...} or {"kind": "mqtt", "topic": ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("endpoint must be an object with a 'kind'")
    if obj["kind"] == "webhook":
        return Webhook(str(obj.get("url", "")))
    if obj["kind"] == "mqtt":
        return MqttTopic(str(obj.get("topic", "")))
    raise ValueError(f"unknown endpoint kind {obj['kind']!r}")


# -- HTTP API ----------------------------------------------------------------

#: first match wins; every other ValueError (a syntax or validation error) is a 400
_ERROR_STATUS: list[tuple[type, int]] = [
    (UnregisteredDevice, 404),
    (UnknownUnit, 422),
    (UnsupportedConversion, 422),
    (BodyTooLarge, 413),
    (ValueError, 400),
    (ServerBusy, 503),
]


#: error_body's HTTP statuses as CoAP response codes; a 500 is re-raised
_COAP_STATUS = {
    404: coap_proto.NOT_FOUND,
    422: coap_proto.UNPROCESSABLE,
    400: coap_proto.BAD_REQUEST,
}


def error_body(exc: Exception) -> tuple[int, dict]:
    status = 500
    for etype, code in _ERROR_STATUS:
        if isinstance(exc, etype):
            status = code
            break
    detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
    body = {"error": type(exc).__name__, "detail": detail}
    if isinstance(exc, GrammarError):
        body["position"] = {"line": exc.line, "column": exc.col}
    if isinstance(exc, TripleParseError):
        body["position"] = {"line": exc.line}
    return status, body


class Api:
    """Request handling behind the HTTP server; also callable in-process."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def ingest(self, body: bytes) -> tuple[int, dict]:
        reading = decode_reading(body, "json", received_at=now_ms())
        receipt = self.runtime.gateway.ingest(reading)
        return 202, receipt.to_json()

    def query(self, query_text: str) -> tuple[int, dict]:
        query = parse_query(query_text)
        table = evaluate_query(query, self.runtime.store)
        return 200, {
            "columns": list(table.columns),
            "rows": [[serialize_term(t) for t in row] for row in table.rows],
        }

    def register_sensors(self, body: bytes, content_type: str) -> tuple[int, dict]:
        text = body.decode("utf-8")
        if "json" in content_type or text.lstrip().startswith(("{", "[")):
            obj = json.loads(text)
            entries = obj if isinstance(obj, list) else [obj]
            count = 0
            for entry in entries:
                if not isinstance(entry, dict):
                    raise InvalidRegistration("each registration must be an object")
                try:
                    reg = SensorRegistration.from_strings(
                        str(entry["device_id"]),
                        str(entry["observed_property"]),
                        str(entry["feature_of_interest"]),
                        str(entry["canonical_unit"]),
                    )
                except KeyError as missing:
                    raise InvalidRegistration(f"missing field {missing.args[0]!r}") from None
                self.runtime.registry.register(reg)
                count += 1
            return 200, {"registered": count}
        count = self.runtime.registry.load_csv(text)
        return 200, {"registered": count}

    def put_rulepack(self, body: bytes) -> tuple[int, dict]:
        pack = parse_rulepack(body.decode("utf-8"))
        stats = self.runtime.gateway.set_rulepack(pack, rechain=True)
        return 200, {
            "pack_id": pack.pack_id,
            "rules": len(pack.rules),
            "derived": stats.derived,
            "rounds": stats.rounds,
        }

    def put_pack(self, body: bytes, pack_id: str) -> tuple[int, dict]:
        if not pack_id:
            raise ValueError("missing 'id' query parameter")
        loaded = self.runtime.gateway.load_knowledge_pack(body.decode("utf-8"), pack_id)
        return 200, {"pack_id": pack_id, "loaded": loaded}

    def stats(self) -> tuple[int, dict]:
        return 200, {**self.runtime.gateway.stats(), "deliveries": self.runtime.egress.counts()}

    def subscribe(self, body: bytes) -> tuple[int, dict]:
        obj = json.loads(body.decode("utf-8"))
        pattern = parse_pattern(str(obj["pattern"]))
        endpoint = parse_endpoint(obj.get("endpoint"))
        sub_id = self.runtime.subscriptions.register(pattern, endpoint)
        return 201, {"id": sub_id}

    def compose(self, body: bytes) -> tuple[int, dict]:
        obj = json.loads(body.decode("utf-8"))
        trigger = parse_pattern(str(obj["trigger"]))
        endpoint = parse_endpoint(obj.get("endpoint"))
        comp_id = self.runtime.compositions.register(
            trigger,
            str(obj["lookup"]),
            obj.get("response_template"),
            endpoint,
            pipeline_id=obj.get("id"),
        )
        return 201, {"id": comp_id}


class _DeadlineReader(io.RawIOBase):
    """A socket's reads, each allowed only what is left of one deadline, so that a
    client trickling bytes cannot hold a worker longer than a silent one."""

    def __init__(self, sock: socket.socket, seconds: float) -> None:
        self._sock = sock
        self._seconds = seconds
        self._deadline = time.monotonic() + seconds

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not received in time")
        self._sock.settimeout(left)
        try:
            return self._sock.recv_into(buf)
        finally:
            self._sock.settimeout(self._seconds)  # the reply's writes get the full timeout


class _ApiHandler(BaseHTTPRequestHandler):
    server_version = "knotgate/0.1"
    timeout = HTTP_READ_TIMEOUT_S
    server: _ApiServer

    @property
    def api(self) -> Api:
        return self.server.api

    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self.rfile = io.BufferedReader(_DeadlineReader(self.connection, self.timeout))

    def log_message(self, fmt: str, *args: object) -> None:
        log.debug("http: " + fmt, *args)

    def _reply(self, status: int, body: dict, headers: Sequence[tuple[str, str]] = ()) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers:
            self.send_header(name, value)
        # status line, headers and body in one write: a body sent apart from its headers
        # waits, under Nagle's algorithm, for the client to ACK them (RFC 896)
        if self.request_version != "HTTP/0.9":  # an HTTP/0.9 reply is the body alone
            self._headers_buffer.append(b"\r\n")
            data = b"".join(self._headers_buffer) + data
            self._headers_buffer = []
        self.wfile.write(data)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise BodyTooLarge(f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlparse(self.path)
        params = urllib.parse.parse_qs(parsed.query)
        route = (method, parsed.path)
        writing = False
        try:
            data = b""
            if method == "POST":
                data = self._read_body()
                # wait for a slot only while writes move; after one wait in vain, refuse at once
                # until a slot frees, so that reads queued behind many POSTs are not held up
                wait = 0.0 if self.server.writes_stalled else HTTP_WRITE_WAIT_S
                writing = self.server.writers.acquire(timeout=wait)
                self.server.writes_stalled = not writing
                if not writing:
                    raise ServerBusy(f"{HTTP_WORKERS - 1} HTTP writes already in progress")
            if route == ("POST", "/api/v1/observations"):
                status, body = self.api.ingest(data)
            elif route == ("GET", "/api/v1/query"):
                q = params.get("q", [""])[0]
                if not q:
                    raise ValueError("missing 'q' query parameter")
                status, body = self.api.query(q)
            elif route == ("POST", "/api/v1/sensors"):
                status, body = self.api.register_sensors(data, self.headers.get("Content-Type", ""))
            elif route == ("POST", "/api/v1/rulepacks"):
                status, body = self.api.put_rulepack(data)
            elif route == ("POST", "/api/v1/packs"):
                status, body = self.api.put_pack(data, params.get("id", [""])[0])
            elif route == ("GET", "/api/v1/stats"):
                status, body = self.api.stats()
            elif route == ("POST", "/api/v1/subscriptions"):
                status, body = self.api.subscribe(data)
            elif route == ("POST", "/api/v1/compositions"):
                status, body = self.api.compose(data)
            else:
                status, body = 404, {"error": "NotFound", "detail": parsed.path}
        except TimeoutError:
            raise  # the client stalled mid-body: handle_one_request drops the connection
        except json.JSONDecodeError as exc:
            status, body = 400, {"error": "DecodeError", "detail": f"bad JSON: {exc.msg}"}
        except KeyError as exc:
            if isinstance(exc, UnregisteredDevice):
                status, body = error_body(exc)
            else:
                status, body = 400, {"error": "DecodeError", "detail": f"missing field {exc.args[0]!r}"}
        except Exception as exc:  # noqa: BLE001 - every error becomes a JSON body
            status, body = error_body(exc)
            if status == 500:
                log.exception("unhandled API error")
        finally:
            if writing:
                self.server.writers.release()
        # a 503 (ServerBusy) tells the client how long to back off before a retry
        self._reply(status, body, (("Retry-After", str(RETRY_AFTER_S)),) if status == 503 else ())

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class _ApiServer(HTTPServer):
    """The HTTP API, served by threads that each accept and handle their own connections."""

    request_queue_size = 64  # a burst beyond the workers waits in the kernel's backlog

    def __init__(self, address: tuple[str, int], api: Api) -> None:
        super().__init__(address, _ApiHandler)
        self.api = api
        self.stopping = threading.Event()
        # POSTs in progress at once; one worker is always left to answer reads
        self.writers = threading.BoundedSemaphore(HTTP_WORKERS - 1)
        self.writes_stalled = False

    def serve_worker(self) -> None:
        """Accept and serve connections on the shared listening socket until stopping is set."""
        while True:
            try:
                conn, addr = self.socket.accept()
            except OSError as exc:
                if self.stopping.is_set():
                    return
                log.warning("http accept failed, retrying: %s", exc)
                time.sleep(0.1)  # ECONNABORTED passes at once; EMFILE only once a descriptor is freed
                continue
            try:
                self.finish_request(conn, addr)
            except Exception:  # noqa: BLE001 - one bad connection must not end the worker
                self.handle_error(conn, addr)
            finally:
                self.shutdown_request(conn)

    def handle_error(self, request: socket.socket, client_address: tuple) -> None:
        """Log a failed connection: a client that hung up (a broken pipe or a
        reset) at debug level, any other error with its traceback."""
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            log.debug("http: client %s hung up: %r", client_address, exc)
        else:
            log.exception("http: error serving %s", client_address)


class Runtime:
    """All wired-up components of one gateway instance."""

    def __init__(self, config: AppConfig | None = None):
        self.config = config or AppConfig()
        self.store = Store()
        self.registry = SensorRegistry()
        self.annotator = Annotator(self.registry)
        self.egress = Egress()
        self.gateway = Gateway(self.store, self.annotator)
        self.subscriptions = SubscriptionManager(self.store, self.egress)
        self.compositions = CompositionManager(self.store, self.egress)
        self.gateway.add_derived_hook(self.subscriptions.on_derived)
        self.gateway.add_derived_hook(self.compositions.on_derived)
        self.api = Api(self)
        self.http_server: _ApiServer | None = None
        self.coap_server: coap_proto.CoapServer | None = None
        self.mqtt_client: MqttClient | None = None
        self._http_workers: list[threading.Thread] = []

    # -- boot ------------------------------------------------------------

    @classmethod
    def from_config(cls, config: AppConfig, base_dir: Path | None = None) -> "Runtime":
        """Build a runtime and load every configured file before traffic."""
        runtime = cls(config)
        base = base_dir or Path.cwd()
        for name in config.load.sensors:
            runtime.registry.load_csv(_read_file(base, name))
        for name in config.load.rulepacks:
            pack = parse_rulepack(_read_file(base, name))
            runtime.gateway.set_rulepack(pack)
        for name in config.load.packs:
            pack_id = Path(name).stem
            runtime.gateway.load_knowledge_pack(_read_file(base, name), pack_id)
        return runtime

    @property
    def http_port(self) -> int | None:
        if self.http_server is None:
            return None
        return self.http_server.server_address[1]

    def start_http(self) -> int:
        cfg = self.config.http
        server = _ApiServer((cfg.host, cfg.port), self.api)
        self.http_server = server
        self._http_workers = [
            threading.Thread(target=server.serve_worker, name=f"http-api-{i}", daemon=True)
            for i in range(HTTP_WORKERS)
        ]
        for worker in self._http_workers:
            worker.start()
        return server.server_address[1]

    def start_coap(self) -> int:
        cfg = self.config.coap
        server = coap_proto.CoapServer(self._handle_coap, host=cfg.host, port=cfg.port)
        server.start()
        self.coap_server = server
        return server.port

    def start_mqtt(self) -> None:
        cfg = self.config.mqtt
        host, port = _parse_broker_url(cfg.broker_url)
        client = MqttClient(host, port, client_id="knotgate-gateway", on_message=self._handle_mqtt)
        client.connect()
        client.subscribe("iot/#")
        self.mqtt_client = client
        self.egress.mqtt_publish = client.publish
        self.gateway.add_derived_hook(self._bridge_derived_to_mqtt)

    def start(self) -> None:
        if self.config.mqtt.enabled:
            self.start_mqtt()
        if self.config.coap.enabled:
            self.start_coap()
        if self.config.http.enabled:
            self.start_http()

    def stop(self) -> None:
        if self.http_server is not None:
            self.http_server.stopping.set()
            try:
                self.http_server.socket.shutdown(socket.SHUT_RDWR)  # on Linux, fails every blocked accept()
            except OSError as exc:  # other systems may refuse it; their idle workers stay blocked
                log.warning("http listener shutdown failed: %s", exc)
            deadline = time.monotonic() + HTTP_READ_TIMEOUT_S
            for worker in self._http_workers:  # in-flight requests finish, within one shared deadline
                worker.join(max(0.0, deadline - time.monotonic()))
            self.http_server.server_close()
            self.http_server = None
        if self.coap_server is not None:
            self.coap_server.stop()
            self.coap_server = None
        self.egress.close()  # before the MQTT client goes: the bridge publishes through it
        if self.mqtt_client is not None:
            self.mqtt_client.disconnect()
            self.mqtt_client = None
        self.gateway.shutdown()

    # -- adapters ----------------------------------------------------------

    def _handle_mqtt(self, topic: str, payload: bytes) -> None:
        try:
            hint = topic_to_route(topic)
            reading = decode_reading(payload, sniff_format(payload), received_at=now_ms(), route_hint=hint)
            self.gateway.ingest(reading)
        except (ValueError, UnregisteredDevice) as exc:
            log.warning("dropping mqtt message on %s: %s", topic, exc)

    def _handle_coap(self, method: int, path: list[str], payload: bytes) -> tuple[int, bytes]:
        if path != ["ingest"]:
            return coap_proto.NOT_FOUND, json.dumps({"error": "NotFound"}).encode()
        if method != coap_proto.POST:
            return coap_proto.METHOD_NOT_ALLOWED, b""
        try:
            reading = decode_reading(payload, "json", received_at=now_ms())
            receipt = self.gateway.ingest(reading)
        except Exception as exc:
            status, body = error_body(exc)
            if status not in _COAP_STATUS:
                raise
            return _COAP_STATUS[status], json.dumps(body).encode("utf-8")
        return coap_proto.CREATED, json.dumps(receipt.to_json()).encode("utf-8")

    def _bridge_derived_to_mqtt(self, fact: Triple, ctx: DerivedContext) -> int:
        domains = self.gateway.domains_for_rule(ctx.rule_id) or ("default",)
        self.egress.enqueue(MqttTopic(f"derived/{domains[0]}"), fact_envelope(fact, ctx))
        return 0  # protocol bridging, not a subscription notification


def _read_file(base: Path, name: str) -> str:
    path = Path(name)
    if not path.is_absolute():
        path = base / path
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        raise ConfigError(f"cannot read configured file: {path}") from None


def _parse_broker_url(url: str) -> tuple[str, int]:
    if not url:
        raise ConfigError("mqtt enabled but broker_url is empty")
    text = url
    if "://" in text:
        scheme, _, text = text.partition("://")
        if scheme != "mqtt":
            raise ConfigError(f"unsupported broker scheme {scheme!r}")
    host, _, port = text.partition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"bad broker_url {url!r}, expected mqtt://host:port")
    return host, int(port)
