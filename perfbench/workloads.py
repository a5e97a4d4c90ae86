"""The three workloads.  Each runs one pass: set up, then a closed loop with
one caller for the given seconds, checking every output against
`reference.Reference`.

replay  seeded CSV lines through decode_reading and Gateway.ingest, in
        epochs of REPLAY_EPOCH readings on a store preloaded with ~3k
        triples (the `knotgate replay --speed max` path).
query   the fixed query mix through parse_query and evaluate_query on a
        read-only store preloaded with ~10k triples, in QUERY_SETUPS
        segments, each on a fresh set-up and after one timed rechain.
served  `knotgate serve` in a subprocess, in epochs of SERVED_EPOCH
        requests from the fixtures up; one client interleaves POST
        /api/v1/observations and GET /api/v1/query 4:1 while a fever
        subscription and a fever->remedies composition deliver to a
        webhook sink in this process.

Every time a pass keeps, set-ups and rechains included, is scaled to the
reference CPU speed by the pass's `clock.Clock`.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import resource
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import gen
from knotgate import gateway as gateway_mod
from knotgate import query as query_mod
from knotgate.annotation import Annotator, SensorRegistry
from knotgate.rules import parse_rulepack
from knotgate.store import Asserted, Store
from clock import Clock
from reference import MIX, REMEDIES_COMPACT, SHAPES, Reference, cell, term_cell

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RULE_FILES = ("fever.rules", "bloodpressure.rules", "fire.rules")

#: Least number of set-ups per pass on replay and served, which also set up
#: once per epoch; setup_s is the median of all set-ups in a run.
SETUPS = 3
#: query runs in this many segments, each on a fresh set-up.
QUERY_SETUPS = 10
#: Preloaded history, in readings (each adds six triples, a third derive one more).
REPLAY_HISTORY = 480
QUERY_HISTORY = 1560
#: replay and served run in whole epochs: this many operations on a fresh
#: store, then a new set-up; the epoch under way when the seconds are up is
#: finished.  Every commit is thus timed on the same store sizes and the same
#: mix, whatever its speed; a store that kept growing would load a faster
#: commit with a bigger store and tie each latency to the run's progress.
REPLAY_EPOCH = 25
SERVED_EPOCH = 100
#: served: every fifth request is a GET, so POST:GET is 4:1.
SERVED_CYCLE = 5


@dataclass
class Pass:
    """What one pass measured.  setup_s, latency and rechain_s hold times
    scaled by `clock` to the reference CPU speed (see clock.py)."""

    clock: Clock = field(default_factory=Clock)
    setup_s: list[float] = field(default_factory=list)
    latency: dict[str, list[float]] = field(default_factory=dict)  # kind -> seconds
    order: list[float] = field(default_factory=list)  # every op's wall seconds, in the order run
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rechain_s: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    spans: list | None = None  # spans.Span records of a traced pass

    def record(self, kind: str, wall_s: float) -> None:
        """One op's latency, scaled with the clock's latest calibration."""
        self.latency.setdefault(kind, []).append(self.clock.scale(wall_s))
        self.order.append(wall_s)

    def timed(self, wall_s: float) -> float:
        """A set-up's or rechain's time, calibrating first if due."""
        self.clock.tick()
        return self.clock.scale(wall_s)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _request(tracer):
    return tracer.request() if tracer is not None else contextlib.nullcontext()


# -- in-process gateway --------------------------------------------------------


def _build_gateway():
    store = Store()
    registry = SensorRegistry()
    registry.load_csv((FIXTURES / "sensors.csv").read_text(encoding="utf-8"))
    annotator = Annotator(registry)
    gateway = gateway_mod.Gateway(store, annotator)
    packs = [parse_rulepack((FIXTURES / "rules" / n).read_text(encoding="utf-8"))
             for n in RULE_FILES]
    for pack in packs:
        gateway.set_rulepack(pack)
    gateway.load_knowledge_pack((FIXTURES / "packs" / "remedies.nt").read_text(encoding="utf-8"),
                                "remedies")
    return gateway, packs


def _preloaded(seed: int, n_history: int, p: Pass):
    """A gateway whose store holds n_history seeded readings and their derivations."""
    gateway, packs = _build_gateway()
    ref = Reference()
    history = gen.history(seed, n_history)
    for reading in history:
        ref.add(reading)
        raw = gateway_mod.decode_reading(reading.csv().encode("utf-8"), "csv")
        graph = gateway.annotator.annotate(raw)
        source = Asserted(f"urn:dev:{reading.device_id}")
        for triple in graph.triples:
            gateway.store.insert(triple, source)
    gateway.set_rulepack(packs[0], rechain=True)
    if len(gateway.store) != ref.store_size():
        p.fail(f"preload: store has {len(gateway.store)} triples, expected {ref.store_size()}")
    return gateway, packs, ref


def _phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.set_phase(phase)


def replay(seed: int, seconds: float, tracer=None, setups: int = SETUPS) -> Pass:
    """Epochs of REPLAY_EPOCH readings, each on a freshly preloaded gateway."""
    p = Pass()
    epoch = list(itertools.islice(gen.live(seed, gen.BASE_TS), REPLAY_EPOCH))
    deadline = None
    for k in itertools.count():
        if deadline is not None and time.perf_counter() >= deadline:
            break
        _phase(tracer, "setup")
        t0 = time.perf_counter()
        gateway, _, ref = _preloaded(seed, REPLAY_HISTORY, p)
        p.setup_s.append(p.timed(time.perf_counter() - t0))
        if k < setups - 1:
            gateway.shutdown()  # set-up repeated only to time it
            continue
        if deadline is None:
            deadline = time.perf_counter() + seconds
        _phase(tracer, "measure")
        try:
            for reading in epoch:
                _ingest_one(gateway, reading, ref, p, tracer)
        finally:
            gateway.shutdown()
    p.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        p.spans = tracer.spans
    return p


def _ingest_one(gateway, reading: gen.Reading, ref: Reference, p: Pass, tracer) -> None:
    line = reading.csv().encode("utf-8")
    iri = ref.add(reading)
    p.attempted += 1
    try:
        with _request(tracer):
            t0 = time.perf_counter()
            receipt = gateway.ingest(gateway_mod.decode_reading(line, "csv"))
            t1 = time.perf_counter()
    except Exception as exc:  # counted, and the loop goes on
        p.fail(f"ingest {iri}: {exc!r}")
        return
    p.clock.tick()
    p.record("ingest", t1 - t0)
    derived = [(t.subject.value, t.predicate.value, t.object.value) for t in receipt.derived]
    if (receipt.observation_iri != iri or receipt.triples_added != 6
            or derived != ref.derived(iri, reading) or receipt.notifications_queued != 0):
        p.fail(f"receipt for {iri}: {receipt}")


def query(seed: int, seconds: float, tracer=None, setups: int = QUERY_SETUPS) -> Pass:
    """`setups` segments of seconds/setups each, set-up included.  Every
    segment sets up a fresh preloaded gateway, times one rechain on it, then
    runs the query mix until its share of the seconds is up; the set-ups are
    spread over the run, as on replay and served, so setup_s samples the same
    machine conditions as the queries do."""
    p = Pass()
    verified: dict[str, list] = {}
    i = 0
    start = time.perf_counter()
    for k in range(setups):
        _phase(tracer, "setup")
        t0 = time.perf_counter()
        gateway, packs, ref = _preloaded(seed, QUERY_HISTORY, p)
        p.setup_s.append(p.timed(time.perf_counter() - t0))
        _phase(tracer, "measure")
        store = gateway.store
        try:
            t0 = time.perf_counter()
            stats = gateway.set_rulepack(packs[0], rechain=True)
            p.rechain_s.append(p.timed(time.perf_counter() - t0))
            if len(store) != ref.store_size() or stats.per_rule != ref.per_rule:
                p.fail(f"rechain: {len(store)} triples, per_rule {stats.per_rule}")
            deadline = start + seconds * (k + 1) / setups
            for n in itertools.count():  # at least one whole mix per segment
                if n >= len(MIX) and time.perf_counter() >= deadline:
                    break
                shape = MIX[i % len(MIX)]
                i += 1
                p.attempted += 1
                try:
                    with _request(tracer):
                        t0 = time.perf_counter()
                        table = query_mod.evaluate_query(query_mod.parse_query(SHAPES[shape]),
                                                         store)
                        t1 = time.perf_counter()
                except Exception as exc:
                    p.fail(f"query {shape}: {exc!r}")
                    continue
                p.clock.tick()
                p.record(shape, t1 - t0)
                if shape in verified:
                    ok = table.rows == verified[shape]
                else:
                    ok = ([tuple(term_cell(t) for t in row) for row in table.rows]
                          == ref.rows(shape))
                    if ok:
                        verified[shape] = table.rows
                if not ok:
                    p.fail(f"query {shape}: {len(table.rows)} rows differ from the reference")
        finally:
            gateway.shutdown()
    p.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        p.spans = tracer.spans
    return p


# -- served --------------------------------------------------------------------


class Sink:
    """Webhook receiver: one thread, records (arrival time, path, payload)."""

    def __init__(self) -> None:
        self.received: list[tuple[float, str, object]] = []
        self._arrived = threading.Condition()
        sink = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
                with sink._arrived:
                    sink.received.append((time.perf_counter(), self.path, json.loads(body)))
                    sink._arrived.notify_all()
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def wait_for(self, n: int, timeout: float = 2.0) -> bool:
        """Whether n deliveries arrived within the timeout; a missing one is
        counted when the epoch's deliveries are checked."""
        with self._arrived:
            return self._arrived.wait_for(lambda: len(self.received) >= n, timeout)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


class Server:
    """`knotgate serve` started through perfbench/launcher.py."""

    def __init__(self, workdir: Path, spans: Path | None) -> None:
        fixtures = FIXTURES.as_posix()
        config = workdir / "gateway.toml"
        config.write_text(
            "[http]\nenabled = true\nhost = \"127.0.0.1\"\nport = 0\n"
            "[load]\n"
            f"sensors = [\"{fixtures}/sensors.csv\"]\n"
            "rulepacks = [" + ", ".join(f'"{fixtures}/rules/{n}"' for n in RULE_FILES) + "]\n"
            f"packs = [\"{fixtures}/packs/remedies.nt\"]\n",
            encoding="utf-8",
        )
        cmd = [sys.executable, str(Path(__file__).with_name("launcher.py"))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", "serve", "--config", str(config)]
        self._stderr = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=self._stderr, stdin=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if not line.startswith("http listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.host, self.port = host, int(port)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


FEVER = "?o m3:indicates m3:Fever"
LOOKUP = "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }"


def _start_server(workdir: Path, sink: Sink, spans: Path | None) -> Server:
    server = Server(workdir, spans)
    try:
        status, _ = server.call("POST", "/api/v1/subscriptions", json.dumps(
            {"pattern": FEVER, "endpoint": {"kind": "webhook", "url": sink.url + "/sub"}}
        ).encode())
        status2, _ = server.call("POST", "/api/v1/compositions", json.dumps({
            "id": "fever-remedies", "trigger": FEVER, "lookup": LOOKUP,
            "response_template": {"observation": "{o}", "remedies": "{r}"},
            "endpoint": {"kind": "webhook", "url": sink.url + "/comp"},
        }).encode())
        if (status, status2) != (201, 201):
            raise RuntimeError(f"registration failed: {status}, {status2}")
    except BaseException:
        server.stop()
        raise
    return server


def served(seed: int, seconds: float, workdir: Path, traced: bool = False,
           setups: int = SETUPS) -> Pass:
    """Epochs of SERVED_EPOCH requests, each against a fresh server."""
    import spans

    p = Pass()
    readings = list(itertools.islice(gen.live(seed, gen.BASE_TS), SERVED_EPOCH))
    span_files = []
    sink = Sink()
    deadline = None
    try:
        for k in itertools.count():
            if deadline is not None and time.perf_counter() >= deadline:
                break
            span_file = workdir / f"server-spans-{k}.pickle" if traced and k >= setups - 1 else None
            t0 = time.perf_counter()
            server = _start_server(workdir, sink, span_file)
            p.setup_s.append(p.timed(time.perf_counter() - t0))
            if k < setups - 1:
                server.stop()  # set-up repeated only to time it
                continue
            if deadline is None:
                deadline = time.perf_counter() + seconds
            mark = len(sink.received)
            try:
                sent = _served_epoch(server, sink, readings, p)
            finally:
                server.stop()
            if span_file is not None:
                span_files.append(span_file)
            _check_deliveries(sink.received[mark:], sent, p)
    finally:
        sink.close()
    p.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if traced:
        p.spans = spans.merge([spans.load(path) for path in span_files])
    return p


def _served_epoch(server: Server, sink: Sink, readings, p: Pass) -> dict:
    """One client, closed loop: every SERVED_CYCLE-th request a GET, the rest POSTs.
    The clock calibrates only once every delivery sent for has arrived, so
    that the sink thread never waits for the calibration to let go of the GIL;
    after one wait times out the epoch waits no more."""
    ref = Reference()
    stream = iter(readings)
    sent: dict[str, tuple[float, gen.Reading, float]] = {}  # iri -> (sent at, reading, factor)
    deliveries = len(sink.received)
    waiting = True
    for i in range(1, SERVED_EPOCH + 1):
        if p.clock.due():
            waiting = waiting and sink.wait_for(deliveries)
            p.clock.calibrate()
        p.attempted += 1
        if i % SERVED_CYCLE == 0:
            shape = MIX[(i // SERVED_CYCLE) % len(MIX)]
            path = "/api/v1/query?" + urllib.parse.urlencode({"q": SHAPES[shape]})
            try:
                t0 = time.perf_counter()
                status, body = server.call("GET", path)
                t1 = time.perf_counter()
            except Exception as exc:  # counted, and the loop goes on
                p.fail(f"query {shape}: {exc!r}")
                continue
            p.record("query", t1 - t0)
            rows = [tuple(cell(c) for c in row) for row in body.get("rows", [])]
            if status != 200 or rows != ref.rows(shape):
                p.fail(f"query {shape}: status {status}, {len(rows)} rows differ")
            continue
        reading = next(stream)
        iri = ref.add(reading)
        try:
            t0 = time.perf_counter()
            status, receipt = server.call("POST", "/api/v1/observations", reading.json())
            t1 = time.perf_counter()
        except Exception as exc:
            p.fail(f"ingest {iri}: {exc!r}")
            continue
        p.record("ingest", t1 - t0)
        sent[iri] = (t0, reading, p.clock.factor)
        deliveries += 2 if _is_fever(reading) else 0
        expected = {"observation_iri": iri, "triples_added": 6,
                    "derived": ref.derived_lines(iri, reading),
                    "notifications_queued": 2 if _is_fever(reading) else 0}
        if status != 202 or receipt != expected:
            p.fail(f"receipt for {iri}: {status} {receipt}")
    return sent


def _is_fever(reading: gen.Reading) -> bool:
    return reading.above and reading.device_id == "thermo1"


def _check_deliveries(received, sent, p: Pass) -> None:
    """Each fever reading: exactly one envelope and one remedy payload; others: none."""
    envelopes: dict[str, int] = {}
    payloads: dict[str, list] = {}
    for arrived, path, body in received:
        if path == "/sub":
            iri = body.get("observation_iri")
            envelopes[iri] = envelopes.get(iri, 0) + 1
            if body.get("triple") != f"<{iri}> <{gen.M3}indicates> <{gen.M3}Fever> .":
                p.fail(f"envelope for {iri}: {body}")
        elif path == "/comp":
            payloads.setdefault(body.get("observation"), []).append((arrived, body))
        else:
            p.fail(f"delivery to unknown path {path}")
    for iri, (t0, reading, factor) in sent.items():
        want = 1 if _is_fever(reading) else 0
        got = payloads.get(iri, [])
        if envelopes.get(iri, 0) != want or len(got) != want:
            p.fail(f"{iri}: {envelopes.get(iri, 0)} envelopes, {len(got)} payloads, want {want}")
        elif got:
            arrived, body = got[0]
            if sorted(body.get("remedies", [])) != REMEDIES_COMPACT:
                p.fail(f"payload for {iri}: {body}")
            p.latency.setdefault("alert", []).append((arrived - t0) * factor)
    for iri in set(envelopes) | set(payloads):
        if iri not in sent:
            p.fail(f"delivery for unknown observation {iri}")


WORKLOADS = ("replay", "query", "served")
