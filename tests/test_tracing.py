"""The benchmark's span tracer (perfbench/spans.py) against the package it wraps.

The tracer replaces functions by name, so a rename in the package breaks a
traced benchmark run rather than a test unless a test installs it.
"""

import importlib.util

from knotgate.annotation import RawReading
from knotgate.config import load_config
from knotgate.gateway import Webhook
from knotgate.rules import parse_pattern
from knotgate.services import Runtime

from conftest import FIXTURES, REPO_ROOT


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_span_tracer_wraps_every_target_and_restores_it():
    spans = _load_spans()
    # every target is an attribute its owner defines itself: install reads owner.__dict__
    originals = [(owner, attr, owner.__dict__[attr]) for owners, attr, _, _ in spans._targets() for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
        cfg, base = load_config(FIXTURES / "gateway.toml")
        rt = Runtime.from_config(cfg, base)
        rt.egress.http_post = lambda url, payload: 200
        fever = parse_pattern("?o m3:indicates m3:Fever")
        rt.subscriptions.register(fever, Webhook("http://sub.test/h"))
        rt.compositions.register(fever, "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }", {"r": "{r}"},
                                 Webhook("http://comp.test/h"))
        tracer.set_phase("measure")
        try:
            with tracer.request():
                rt.gateway.ingest(RawReading("thermo1", "temperature", 39.0, "cel", 1))
            assert rt.egress.drain(5) == 0
            first = len(tracer.spans)
            with tracer.request():
                rt.gateway.set_rulepack(rt.gateway.active_packs()[0], rechain=True)
            rechain = tracer.spans[first:]
        finally:
            rt.stop()
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    names = {span.name for span in tracer.spans}
    assert {
        "Gateway.ingest", "Annotator.annotate", "Store.insert", "forward_chain", "evaluate_rule", "Store.match",
        "SubscriptionManager.on_derived", "CompositionManager.on_derived", "evaluate_query", "Egress.deliver",
    } <= names
    # a rechain's whole-store rounds seed each family's join through Store.match, as delta rounds do
    evaluations = {span.sid for span in rechain if span.name == "evaluate_rule"}
    assert evaluations
    assert any(span.name == "Store.match" and span.parent in evaluations for span in rechain)
    metrics = spans.layer_metrics(tracer.spans[:first], n_ops=1)
    assert metrics["services.notifications"] == 2
