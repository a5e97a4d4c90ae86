"""Protocol-facing ingestion pipeline and egress bridging.

Adapters (MQTT, CoAP, HTTP) decode device messages into readings and
ingest each on the thread that received it.  Every gateway write (an
ingest, a rule-pack install, a knowledge-pack load) holds one lock, so
the store has one writer at a time, and per-device observation sequences
follow the order in which the writes take that lock.  Each ingest runs
annotate -> insert -> chain -> notify; one whose annotation fails leaves
the store untouched.

Egress keeps one bounded outbox.  Derived-fact hooks build each payload
on the ingesting thread, under the write lock, and enqueue it with its
target; one delivery thread, started with the first item, delivers the
items in the order they were enqueued, with a fixed retry budget per item.
So no write waits on the network, and deliveries to one target arrive in
order.  A full outbox drops the item and counts it, and a failed delivery
is counted, never raised into the pipeline.  Egress.close delivers what is
queued within a deadline and logs what it leaves undelivered.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import threading
import time
import urllib.parse
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .annotation import Annotator, RawReading
from .model import Triple, triple_to_line
from .rules import ChainStats, RulePack, RuleSet, forward_chain
from .store import Asserted, Inferred, Store

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
RETRY_SPACING_S = 0.2
#: deliveries the outbox holds; one more is dropped and counted
OUTBOX_CAPACITY = 1024
#: seconds Egress.close waits for the outbox to empty
DRAIN_DEADLINE_S = 5.0

#: an MQTT topic may hold any character but whitespace
_WHITESPACE_RE = re.compile(r"\s")


class DecodeError(ValueError):
    """Payload is not a decodable reading."""


class BadTopic(ValueError):
    """Topic does not follow iot/{device_id}/{sensor_kind}."""


class InvalidTarget(ValueError):
    """Egress target is empty or malformed."""


@dataclass(frozen=True)
class MqttTopic:
    topic: str

    def __post_init__(self) -> None:
        if not self.topic or _WHITESPACE_RE.search(self.topic):
            raise InvalidTarget(f"bad MQTT topic {self.topic!r}")


@dataclass(frozen=True)
class Webhook:
    url: str

    def __post_init__(self) -> None:
        if not self.url.startswith(("http://", "https://")):
            raise InvalidTarget(f"bad webhook URL {self.url!r}")


EgressTarget = Union[MqttTopic, Webhook]


@dataclass
class DeliveryRecord:
    target: EgressTarget
    ok: bool
    attempts: int
    error: str | None = None


@dataclass
class IngestReceipt:
    observation_iri: str
    triples_added: int
    derived: list[Triple]
    notifications_queued: int

    def to_json(self) -> dict:
        return {
            "observation_iri": self.observation_iri,
            "triples_added": self.triples_added,
            "derived": [triple_to_line(t) for t in self.derived],
            "notifications_queued": self.notifications_queued,
        }


@dataclass(frozen=True)
class DerivedContext:
    """What the notifier knows about one newly inferred fact."""

    rule_id: str
    observation_iri: str
    timestamp: int


#: A derived-fact hook returns the number of notifications it queued.
DerivedHook = Callable[[Triple, DerivedContext], int]


def now_ms() -> int:
    return int(time.time() * 1000)


def decode_reading(
    payload: bytes,
    fmt: str,
    received_at: int | None = None,
    route_hint: tuple[str, str] | None = None,
) -> RawReading:
    """Decode a JSON object or CSV line into a reading.

    JSON: {device_id, sensor_kind, value, unit, timestamp}.
    CSV:  device_id,sensor_kind,value,unit,timestamp.
    A missing timestamp falls back to received_at.  route_hint supplies
    device_id/sensor_kind parsed from an MQTT topic; payload fields win on
    conflict (the payload is authoritative, the topic is routing).
    """
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"bad encoding: {exc}") from None
    if fmt == "json":
        fields = _decode_json_fields(text)
    elif fmt == "csv":
        fields = _decode_csv_fields(text)
    else:
        raise DecodeError(f"unknown format {fmt!r}")
    if route_hint is not None:
        hint_device, hint_kind = route_hint
        for key, hint in (("device_id", hint_device), ("sensor_kind", hint_kind)):
            if key not in fields:
                fields[key] = hint
            elif fields[key] != hint:
                log.warning("payload %s=%r overrides topic %r", key, fields[key], hint)
    for key in ("device_id", "sensor_kind", "value", "unit"):
        if key not in fields:
            raise DecodeError(f"missing field {key!r}")
    if "timestamp" not in fields:
        if received_at is None:
            raise DecodeError("missing field 'timestamp'")
        fields["timestamp"] = received_at
    try:
        return RawReading(
            device_id=fields["device_id"],
            sensor_kind=fields["sensor_kind"],
            value=fields["value"],
            unit=fields["unit"],
            timestamp=fields["timestamp"],
        )
    except ValueError as exc:
        raise DecodeError(str(exc)) from None


def parse_json(text: str) -> object:
    """The value of a JSON document; bad JSON is a DecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"bad JSON: {exc.msg}") from None


def read_json(text: str, required: Sequence[str] = ()) -> dict:
    """The JSON object of a request body or reading.  Bad JSON, a value that
    is not an object and a missing required key are each a DecodeError."""
    obj = parse_json(text)
    if not isinstance(obj, dict):
        raise DecodeError("JSON payload must be an object")
    for key in required:
        if key not in obj:
            raise DecodeError(f"missing field {key!r}")
    return obj


def _decode_json_fields(text: str) -> dict:
    obj = read_json(text)
    fields: dict = {}
    for key in ("device_id", "sensor_kind", "unit"):
        if key in obj:
            if not isinstance(obj[key], str):
                raise DecodeError(f"field {key!r} must be a string")
            fields[key] = obj[key]
    if "value" in obj:
        v = obj["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DecodeError("field 'value' must be a number")
        try:
            fields["value"] = float(v)
        except OverflowError:  # an integer past float's range
            raise DecodeError("field 'value' out of range") from None
    if "timestamp" in obj:
        ts = obj["timestamp"]
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise DecodeError("field 'timestamp' must be an integer")
        fields["timestamp"] = ts
    return fields


def _decode_csv_fields(text: str) -> dict:
    parts = [p.strip() for p in text.strip().split(",")]
    if len(parts) not in (4, 5):
        raise DecodeError(f"expected 4 or 5 CSV fields, got {len(parts)}")
    fields: dict = {
        "device_id": parts[0],
        "sensor_kind": parts[1],
        "unit": parts[3],
    }
    try:
        fields["value"] = float(parts[2])
    except ValueError:
        raise DecodeError(f"bad number {parts[2]!r}") from None
    if len(parts) == 5 and parts[4]:
        try:
            fields["timestamp"] = int(parts[4])
        except ValueError:
            raise DecodeError(f"bad timestamp {parts[4]!r}") from None
    return fields


def sniff_format(payload: bytes) -> str:
    """JSON when the payload starts with '{', CSV otherwise."""
    return "json" if payload.lstrip().startswith(b"{") else "csv"


def topic_to_route(topic: str) -> tuple[str, str]:
    """Split iot/{device_id}/{sensor_kind}; anything else is a BadTopic."""
    parts = topic.split("/")
    if len(parts) != 3 or parts[0] != "iot" or not parts[1] or not parts[2]:
        raise BadTopic(f"expected iot/{{device_id}}/{{sensor_kind}}, got {topic!r}")
    return parts[1], parts[2]


def fact_envelope(fact: Triple, ctx: DerivedContext) -> bytes:
    """The JSON envelope wrapping one derived fact for egress delivery."""
    return json.dumps(
        {
            "triple": triple_to_line(fact),
            "rule_id": ctx.rule_id,
            "observation_iri": ctx.observation_iri,
            "timestamp": ctx.timestamp,
        }
    ).encode("utf-8")


def _post_webhook(url: str, payload: bytes) -> int:
    """POST payload and return the status; one connection per call, no proxy,
    no redirect followed.  Plain http.client costs the delivery thread, and so
    the GIL, less than urllib.request's handler chain."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    conn = connection(parts.hostname, parts.port, timeout=5)
    try:
        target = parts.path or "/"
        conn.request("POST", f"{target}?{parts.query}" if parts.query else target, payload,
                     {"Content-Type": "application/json"})
        return conn.getresponse().status
    finally:
        conn.close()


class Egress:
    """Delivers payload bytes to MQTT topics or webhooks with retries,
    from one bounded outbox on one delivery thread."""

    def __init__(
        self,
        mqtt_publish: Callable[[str, bytes], None] | None = None,
        http_post: Callable[[str, bytes], int] = _post_webhook,
        spacing_s: float = RETRY_SPACING_S,
    ):
        self.mqtt_publish = mqtt_publish
        self.http_post = http_post
        self.spacing_s = spacing_s
        self._outbox: deque[tuple[EgressTarget, bytes]] = deque()
        self._changed = threading.Condition()
        self._thread: threading.Thread | None = None  # the delivery thread, once started
        self._in_flight = 0
        self._full = False  # the last enqueue was dropped: log only the first drop of a run
        self._counts = {"ok": 0, "failed": 0, "dropped": 0}

    def enqueue(self, target: EgressTarget, payload: bytes) -> bool:
        """Queue one delivery and return at once; False when the outbox was full
        and the delivery was dropped."""
        with self._changed:
            if len(self._outbox) >= OUTBOX_CAPACITY:
                self._counts["dropped"] += 1
                if not self._full:
                    log.warning("outbox full (%d deliveries), dropping until it has room", OUTBOX_CAPACITY)
                self._full = True
                return False
            self._full = False
            self._outbox.append((target, payload))
            if self._thread is None:
                self._thread = threading.Thread(target=self._run, name="egress", daemon=True)
                self._thread.start()
            self._changed.notify_all()
            return True

    def _run(self) -> None:
        me = threading.current_thread()
        while True:
            with self._changed:
                while self._thread is me and not self._outbox:
                    self._changed.wait()
                if self._thread is not me:  # closed
                    return
                target, payload = self._outbox.popleft()
                self._in_flight += 1
            record = self.deliver(target, payload)
            with self._changed:
                self._in_flight -= 1
                self._counts["ok" if record.ok else "failed"] += 1
                self._changed.notify_all()

    def _pending(self) -> int:
        return len(self._outbox) + self._in_flight

    def counts(self) -> dict[str, int]:
        """Deliveries done (ok, failed), dropped by a full outbox, and pending."""
        with self._changed:
            return {**self._counts, "pending": self._pending()}

    def drain(self, timeout: float) -> int:
        """Wait up to timeout for every queued delivery to finish; return how
        many are still pending."""
        with self._changed:
            self._changed.wait_for(lambda: not self._pending(), timeout)
            return self._pending()

    def close(self, timeout: float = DRAIN_DEADLINE_S) -> int:
        """Deliver what is queued within timeout, then end the delivery thread;
        what is left is logged and discarded, and its count returned.  A later
        enqueue starts a new delivery thread."""
        with self._changed:  # a Condition's lock is re-entrant, and its wait releases it whole
            left = self.drain(timeout)
            if left:
                targets = sorted({str(target) for target, _ in self._outbox})
                log.warning("egress stopped with %d deliveries undelivered, %d of them queued for %s",
                            left, len(self._outbox), targets)
                self._outbox.clear()
            thread, self._thread = self._thread, None
            self._changed.notify_all()
        if thread is not None and not left:
            thread.join(timeout)
        return left

    def deliver(self, target: EgressTarget, payload: bytes) -> DeliveryRecord:
        if isinstance(target, MqttTopic) and self.mqtt_publish is None:
            return DeliveryRecord(target, ok=False, attempts=0, error="no MQTT client configured")
        last_error = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                if isinstance(target, MqttTopic):
                    self.mqtt_publish(target.topic, payload)
                else:
                    status = self.http_post(target.url, payload)
                    if not 200 <= status < 300:
                        raise RuntimeError(f"HTTP {status}")
                return DeliveryRecord(target, ok=True, attempts=attempt)
            except Exception as exc:  # delivery failures never propagate
                last_error = str(exc)
                log.warning("delivery to %s failed (attempt %d): %s", target, attempt, exc)
                if attempt < RETRY_ATTEMPTS:
                    time.sleep(self.spacing_s)
        return DeliveryRecord(target, ok=False, attempts=RETRY_ATTEMPTS, error=last_error)


class Gateway:
    """Owns the store, the active rule packs, and the pipeline.

    Every write (ingest, set_rulepack, load_knowledge_pack) runs on the
    calling thread and holds one lock, so writes never interleave.  Each
    ends in one tail, _chain: it chains the active packs to a fixpoint and
    calls the derived-fact hooks once per derived fact that the store did
    not hold before the write, in commit order, so no fact is notified
    twice while it stays in the store.  The hooks run inside the write and
    must not write to the gateway themselves: the lock is not re-entrant.
    They build what they send and hand it to Egress.enqueue, so that no
    write waits on a delivery.

    So every write leaves the store a fixpoint, and an ingest chains only
    from the triples its reading inserted.  A write whose chain raises
    keeps what it stated and what the chain committed before raising,
    unnotified and uncounted, and the next write chains the whole store.
    Writes made behind the gateway's back are not tracked; follow them
    with set_rulepack(..., rechain=True).
    """

    def __init__(self, store: Store, annotator: Annotator):
        self.store = store
        self.annotator = annotator
        self.rulepacks: dict[str, RulePack] = {}
        self.rules = RuleSet([])  # the active packs, compiled
        self.per_rule: dict[str, int] = {}
        self.guard_type_errors = 0
        #: device id -> the provenance of its readings, built once per device
        self._sources: dict[str, Asserted] = {}
        self._stale = True  # the store is not known to be a fixpoint of the packs
        self._derived_hooks: list[DerivedHook] = []
        self._write_lock = threading.Lock()

    # -- configuration -------------------------------------------------------

    def add_derived_hook(self, hook: DerivedHook) -> None:
        self._derived_hooks.append(hook)

    def active_packs(self) -> list[RulePack]:
        return list(self.rulepacks.values())

    def domains_for_rule(self, rule_id: str) -> tuple[str, ...]:
        owner = self.rules.owners.get(rule_id)
        return owner.domains if owner is not None else ()

    def set_rulepack(self, pack: RulePack, rechain: bool = False) -> ChainStats:
        """Install or replace a rule pack, compile the active packs, and
        chain them over the whole store.

        A rule id names one rule among the active packs, as provenance and
        per-rule counts know rules by id: a pack using an id that another
        active pack uses raises ValueError and installs nothing.  Replacing
        a pack under its own pack_id may reuse its ids.

        Without rechain the facts a replaced pack derived stay, and per-rule
        counts accumulate.  With rechain=True all inferred triples are
        retracted first, so the store ends up exactly as if the new pack had
        been active from the start, and per-rule counts are that fresh
        chain's.  The hooks hear only of the derived facts the store did
        not hold before.
        """
        with self._write_lock:
            owners = self.rules.owners
            taken = [r.id for r in pack.rules if r.id in owners and owners[r.id].pack_id != pack.pack_id]
            if taken:
                raise ValueError(
                    f"pack {pack.pack_id!r}: rule ids already used by another active pack: {', '.join(taken)}"
                )
            self.rulepacks[pack.pack_id] = pack
            self.rules = RuleSet(self.active_packs())
            held = set(self.store) if rechain and self._derived_hooks else None
            if rechain:
                self.store.retract(Inferred)
                self.per_rule = {}
            return self._chain(None, "", now_ms(), held)[0]

    def load_knowledge_pack(self, document: str, pack_id: str) -> int:
        """Store.load_pack, then a chain from the triples it newly stated (of
        the whole store, if they link aliases); returns their count."""
        with self._write_lock:
            fresh = self.store.load_pack(document, pack_id)
            if fresh:
                self._chain(fresh, "", now_ms())
            return len(fresh)

    def _chain(self, delta: list[Triple] | None, observation_iri: str, timestamp: int,
               held: set[Triple] | None = None) -> tuple[ChainStats, int]:
        """The tail of every write: chain the active packs from delta, or
        from the whole store when there is none or the store is stale, then
        count what the chain did and notify each committed fact not in held.
        Returns the chain's stats and the notifications the hooks queued.

        guard_type_errors keeps the count of guard-skipped bindings in the
        store: a chain that evaluated the whole store recounts them all, a
        delta chain adds the new ones.  A chain that raises marks the store
        stale, so the next chain evaluates the whole store.
        """
        try:
            stats = forward_chain(self.store, self.rules, None if delta is None or self._stale else set(delta))
        except BaseException:
            self._stale = True
            raise
        self._stale = False
        if stats.whole_store:
            self.guard_type_errors = stats.guard_type_errors
        else:
            self.guard_type_errors += stats.guard_type_errors
        for rule_id, count in stats.per_rule.items():
            self.per_rule[rule_id] = self.per_rule.get(rule_id, 0) + count
        queued = 0
        for fact in stats.committed if self._derived_hooks else ():
            if held is not None and fact in held:
                continue
            ctx = DerivedContext(self.store.provenance(fact).rule_id, observation_iri, timestamp)
            for hook in self._derived_hooks:
                try:
                    queued += hook(fact, ctx)
                except Exception:
                    log.exception("derived-fact hook failed")
        return stats, queued

    # -- pipeline ------------------------------------------------------------

    def submit(self, reading: RawReading) -> "Future[IngestReceipt]":
        """ingest's receipt or error, in a future that is already done."""
        fut: Future = Future()
        try:
            fut.set_result(self.ingest(reading))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def ingest(self, reading: RawReading) -> IngestReceipt:
        """Ingest a reading; raises whatever the pipeline raised.  Every
        fact the chain commits is new to the store, so each is notified."""
        with self._write_lock:
            # annotate can fail; nothing is inserted until it has succeeded
            graph = self.annotator.annotate(reading)
            source = self._sources.get(reading.device_id)
            if source is None:
                source = self._sources[reading.device_id] = Asserted(f"urn:dev:{reading.device_id}")
            inserted = [self.store.canonical(t) for t in graph.triples if self.store.insert(t, source)]
            obs = graph.observation_iri.value
            stats, notified = self._chain(inserted, obs, reading.timestamp)
            return IngestReceipt(obs, len(inserted), stats.committed, notified)

    def stats(self) -> dict:
        return {
            "store_size": len(self.store),
            "per_rule": dict(sorted(self.per_rule.items())),
            "guard_type_errors": self.guard_type_errors,
        }

    def shutdown(self) -> None:
        """Return once the write under way, if any, has finished."""
        with self._write_lock:
            pass
