"""Span tracing around knotgate's public functions, from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`_targets` with wrappers; `Tracer.uninstall()` restores them.  No source
under src/ changes.  Each call records one span: id, parent span, name,
start, end, the request it belongs to, the phase ("setup" or "measure")
and the counts `COUNT_KEYS` names.  Spans stay in memory as a list of
`Span` tuples until `dump` pickles them.

A request is one operation of a workload.  The benchmark opens it with
`Tracer.request()`; in the server, `Api.ingest` and `Api.query` open it.
`Gateway.submit` hands it to the ingest worker thread, whose spans start
with `Annotator.annotate`.  The span that called submit (`Gateway.ingest`,
which waits for the worker) is the parent of the worker's spans for that
reading, so its self time is the queueing, the waiting and the worker's
code outside wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import pickle
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

PHASES = ("setup", "measure")

#: Span name -> what the entries of its `counts` hold.
COUNT_KEYS = {
    "forward_chain": ("rounds", "derived", "size_before"),
    "evaluate_rule": ("fired",),
    "Store.insert": ("new",),
    "Store.match": ("rows", "in_query"),
    "Gateway.set_rulepack": ("rechain",),
    "evaluate_query": ("rows",),
    "Egress.deliver": ("ok", "attempts"),
    "SubscriptionManager.on_derived": ("notified",),
    "CompositionManager.on_derived": ("notified",),
    "Annotator.annotate": ("queue_wait_s",),
}


def _targets():
    """(owners, attribute, span name, counts) for every wrapped callable.

    A function imported by name into several modules is replaced in each.
    """
    from knotgate import annotation, cli, gateway, query, rules, services, store

    def rechain(result, args, kwargs):
        return (float(kwargs.get("rechain", args[2] if len(args) > 2 else False)),)

    return [
        ((gateway, services, cli), "decode_reading", "decode_reading", None),
        ((gateway.Gateway,), "submit", "Gateway.submit", None),
        ((gateway.Gateway,), "ingest", "Gateway.ingest", None),
        ((annotation.Annotator,), "annotate", "Annotator.annotate", None),
        ((store.Store,), "insert", "Store.insert", lambda r, a, k: (float(r),)),
        ((store.Store,), "match", "Store.match", lambda r, a, k: (len(r),)),
        ((store.Store,), "snapshot", "Store.snapshot", None),
        ((gateway,), "forward_chain", "forward_chain",
         # the chain only adds triples, so the size it started from is now - derived
         lambda r, a, k: (r.rounds, r.derived, len(a[0]) - r.derived)),
        ((rules,), "evaluate_rule", "evaluate_rule", lambda r, a, k: (len(r.triples),)),
        ((gateway.Gateway,), "set_rulepack", "Gateway.set_rulepack", rechain),
        ((query, services, cli), "parse_query", "parse_query", None),
        ((query, services, cli), "evaluate_query", "evaluate_query",
         lambda r, a, k: (len(r.rows),)),
        ((gateway.Egress,), "deliver", "Egress.deliver",
         lambda r, a, k: (float(r.ok), r.attempts)),
        ((services.Api,), "ingest", "Api.ingest", None),
        ((services.Api,), "query", "Api.query", None),
        ((services.SubscriptionManager,), "on_derived", "SubscriptionManager.on_derived",
         lambda r, a, k: (r,)),
        ((services.CompositionManager,), "on_derived", "CompositionManager.on_derived",
         lambda r, a, k: (r,)),
    ]


class Span(NamedTuple):
    sid: int
    parent: int  # sid of the enclosing span, -1 for none
    name: str
    t0: float
    t1: float
    req: int  # request id, -1 for none
    phase: str  # one of PHASES
    counts: tuple  # what COUNT_KEYS[name] names

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0


#: Spans per pickle in a dump file; pickling a whole run at once would hold a
#: memo entry for every span.
DUMP_CHUNK = 10_000


def dump(spans: list[Span], path: Path) -> None:
    with open(path, "wb") as fh:
        for i in range(0, len(spans), DUMP_CHUNK):
            pickle.dump(spans[i:i + DUMP_CHUNK], fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path: Path) -> list[Span]:
    out: list[Span] = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            out.extend(pickle.load(fh))
    return out


def merge(logs: list[list[Span]]) -> list[Span]:
    """One list from the spans of several processes, their ids kept apart."""
    out: list[Span] = []
    offset = 0
    for spans in logs:
        out.extend(s._replace(sid=s.sid + offset,
                              parent=s.parent + offset if s.parent >= 0 else -1)
                   for s in spans)
        offset += max((s.sid for s in spans), default=0)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic, so threads share it unlocked
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._handoff: dict[int, tuple[int, int, float]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str) -> None:
        """Mark every later span with this phase."""
        if phase not in PHASES:
            raise ValueError(phase)
        self.phase = phase

    @contextlib.contextmanager
    def request(self):
        """Attribute every span this thread records inside the block to a new request."""
        previous = getattr(self._local, "req", -1)
        self._local.req = next(self._requests)
        try:
            yield
        finally:
            self._local.req = previous

    def _wrap(self, original, name: str, count):
        tracer = self
        opens_request = name.startswith("Api.")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.in_query = 0
                local.remote_parent = -1
            extra = ()
            if name == "Gateway.submit":
                # the span that called submit (Gateway.ingest) waits for the worker
                tracer._handoff[id(args[1])] = (getattr(local, "req", -1),
                                                stack[-1] if stack else -1,
                                                time.perf_counter())
            elif name == "Annotator.annotate":
                handed = tracer._handoff.pop(id(args[1]), None)
                if handed is not None:
                    # the ingest worker now serves the submitting request, and its
                    # spans up to the next hand-off are children of the waiting span
                    local.req, local.remote_parent = handed[0], handed[1]
                    extra = (time.perf_counter() - handed[2],)
            elif name == "evaluate_query":
                local.in_query += 1
            previous_req = getattr(local, "req", -1)
            if opens_request:
                local.req = next(tracer._requests)
            req = getattr(local, "req", -1)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else local.remote_parent
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = extra
                if count is not None and result is not None:
                    counts = count(result, args, kwargs)
                    if name == "Store.match":
                        counts += (float(local.in_query > 0),)
                if name == "evaluate_query":
                    local.in_query -= 1
                tracer.spans.append(Span(sid, parent, name, t0, t1, req, tracer.phase, counts))
                if opens_request:
                    local.req = previous_req

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owners, attr, name, count in _targets():
            wrapper = self._wrap(getattr(owners[0], attr), name, count)
            for owner in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- per-layer metrics ---------------------------------------------------------


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


class _View:
    """Measure-phase spans, grouped by name."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.rows: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            if s.phase == "measure":
                self.rows[s.name].append(s)

    def mean_ms(self, name: str) -> float | None:
        return _mean(s.ms for s in self.rows[name])

    def counts(self, name: str, key: str) -> list[float]:
        k = COUNT_KEYS[name].index(key)
        return [s.counts[k] for s in self.rows[name] if len(s.counts) > k]

    def per_op(self, name: str, n_ops: int) -> float | None:
        """Calls made on behalf of an operation, per operation; None when there are none."""
        n = sum(1 for s in self.rows[name] if s.req >= 0)
        return n / n_ops if n and n_ops else None


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self milliseconds (measure phase).

    Self time is span time minus the time its child spans cover, children
    on other threads included.
    """
    parent_ids = {s.parent for s in spans}
    parents = {s.sid: s for s in spans if s.sid in parent_ids}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        p = parents.get(s.parent)
        if p is not None:
            covered[p.sid] += max(0.0, min(s.t1, p.t1) - max(s.t0, p.t0))
    out = {}
    for name, rows in sorted(_View(spans).rows.items()):
        total = sum(s.ms for s in rows)
        out[name] = {"calls": len(rows), "total_ms": total,
                     "self_ms": total - 1000.0 * sum(covered[s.sid] for s in rows)}
    return out


def layer_metrics(spans: list[Span], n_ops: int,
                  client_ms: list[float] | None = None) -> dict[str, float | None]:
    """The per-layer metrics.  Times are mean milliseconds per call.

    store.*_calls, gateway.deliveries, gateway.delivery_failed and
    services.notifications are per operation of the timed loop, counting
    only calls made for an operation's request; other counts are per call
    of their own function.  Every metric comes from measure-phase spans,
    except that rules.rechain_ms also counts rechains done during set-up.
    A metric whose function this workload never called is None.
    """
    v = _View(spans)
    chains = v.rows["forward_chain"]
    fired = sum(v.counts("evaluate_rule", "fired"))
    derived = v.counts("forward_chain", "derived")
    inserts = v.counts("Store.insert", "new")
    deliveries_ok = v.counts("Egress.deliver", "ok")
    rechains = [s for s in spans if s.name == "Gateway.set_rulepack" and s.counts == (1.0,)]
    in_query = v.counts("Store.match", "in_query")
    queries = v.rows["evaluate_query"]
    api_ms = [s.ms for s in v.rows["Api.ingest"] + v.rows["Api.query"]]
    notified = (v.counts("SubscriptionManager.on_derived", "notified")
                + v.counts("CompositionManager.on_derived", "notified"))
    sizes = v.counts("forward_chain", "size_before")
    return {
        "rules.chain_ms": v.mean_ms("forward_chain"),
        "rules.chain_rounds": _mean(v.counts("forward_chain", "rounds")),
        "rules.evaluate_rule_ms": v.mean_ms("evaluate_rule"),
        "rules.chain_us_per_triple": _mean(
            s.ms * 1000.0 / s.counts[2] for s in chains if s.counts and s.counts[2] > 0),
        "rules.fired": fired / len(chains) if chains else None,
        "rules.derived": sum(derived) / len(chains) if chains else None,
        "rules.useful_ratio": sum(derived) / fired if fired else None,
        "rules.rechain_ms": _mean(s.ms for s in rechains),
        "store.insert_ms": v.mean_ms("Store.insert"),
        "store.insert_calls": v.per_op("Store.insert", n_ops),
        "store.insert_new_ratio": sum(inserts) / len(inserts) if inserts else None,
        "store.match_ms": v.mean_ms("Store.match"),
        "store.match_calls": v.per_op("Store.match", n_ops),
        "store.match_rows": _mean(v.counts("Store.match", "rows")),
        "store.size": max((s + d for s, d in zip(sizes, derived)), default=None),
        "gateway.snapshot_ms": v.mean_ms("Store.snapshot"),
        "gateway.ingest_ms": v.mean_ms("Gateway.ingest"),
        "gateway.queue_wait_ms": _mean(
            s * 1000.0 for s in v.counts("Annotator.annotate", "queue_wait_s")),
        "gateway.decode_ms": v.mean_ms("decode_reading"),
        "gateway.deliver_ms": v.mean_ms("Egress.deliver"),
        "gateway.deliveries": v.per_op("Egress.deliver", n_ops),
        "gateway.delivery_failed": (
            sum(1.0 - ok for ok in deliveries_ok) / n_ops if deliveries_ok else None),
        "gateway.delivery_attempts": _mean(v.counts("Egress.deliver", "attempts")),
        "annotation.annotate_ms": v.mean_ms("Annotator.annotate"),
        "query.parse_ms": v.mean_ms("parse_query"),
        "query.evaluate_ms": v.mean_ms("evaluate_query"),
        "query.match_calls": sum(in_query) / len(queries) if queries else None,
        "query.rows": _mean(v.counts("evaluate_query", "rows")),
        "services.api_ingest_ms": v.mean_ms("Api.ingest"),
        "services.api_query_ms": v.mean_ms("Api.query"),
        "services.http_overhead_ms": (
            statistics.fmean(client_ms) - statistics.fmean(api_ms)
            if client_ms and api_ms else None),
        "services.subscription_ms": v.mean_ms("SubscriptionManager.on_derived"),
        "services.composition_ms": v.mean_ms("CompositionManager.on_derived"),
        "services.notifications": sum(notified) / n_ops if notified and n_ops else None,
    }
