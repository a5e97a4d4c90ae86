#!/usr/bin/env python3
"""knotgate benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay|query|served --seed N \
        --seconds S --trace 0|1

Run from the root of a knotgate checkout.  With --trace 0 it measures the
end-to-end metrics with tracing off.  With --trace 1 it runs the workload
twice with the same seed for half the seconds each, first untraced and
then with spans around every public function perfbench/spans.py names, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced mean op latency).

Output: one line per metric ("name value unit"), one JSON line
{"detail": ...} with every metric of the workload, and as the last line
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json declares for this mode.  Exit status 1 when any output
disagreed with its reference, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Every time below is scaled to the reference CPU speed of clock.py: the
#: shared host this runs on slows everything by up to 1.6x for seconds to
#: minutes at a time, and wall times follow how much of a run fell into such
#: a spell.  The detail line keeps the wall-clock rate and the calibration.
#: Tails are read at a fixed percentile (nearest rank) per workload and kind,
#: so that two commits compare the same percentile; each run leaves at least
#: ten samples beyond it.
TAIL_PCT = {
    ("replay", "op"): 90.0,
    ("replay", "ingest"): 90.0,
    ("query", "op"): 95.0,
    ("query", "query"): 95.0,
    ("served", "op"): 95.0,
    ("served", "ingest"): 95.0,
    ("served", "query"): 90.0,
    ("served", "alert"): 75.0,
}


def nearest_rank(values: list[float], pct: float) -> float:
    v = sorted(values)
    return v[max(math.ceil(len(v) * pct / 100.0), 1) - 1]


def _metric(value, unit, better, **extra) -> dict:
    return {"value": value, "unit": unit, "better": better, **extra}


def op_seconds(p) -> list[float]:
    """Every op's scaled latency: readings, queries and HTTP requests, not alerts."""
    return [s for kind, seconds in p.latency.items() if kind != "alert" for s in seconds]


def latency_metrics(workload: str, kind: str, name: str, seconds: list[float]) -> dict:
    if not seconds:
        return {}
    ms = [s * 1000.0 for s in seconds]
    pct = TAIL_PCT[(workload, kind)]
    return {
        f"{name}_p50_ms": _metric(statistics.median(ms), "ms", "lower", samples=len(ms)),
        f"{name}_tail_ms": _metric(nearest_rank(ms, pct), "ms", "lower", percentile=pct,
                                   samples=len(ms)),
    }


def end_to_end(workload: str, p) -> dict:
    ops = op_seconds(p)
    m = {
        "setup_s": _metric(statistics.median(p.setup_s), "s", "lower", samples=len(p.setup_s)),
        # one caller, each op started as the last one ends
        "ops_per_s": _metric(len(ops) / sum(ops), "1/s", "higher", samples=len(ops)),
    }
    m.update(latency_metrics(workload, "op", "op", ops))
    m["peak_rss_mb"] = _metric(p.peak_rss_kb / 1024.0, "MB", "lower")
    m["failed_frac"] = _metric(p.failed / max(p.attempted, 1), "fraction", "lower")
    m["wall_ops_per_s"] = _metric(len(p.order) / sum(p.order), "1/s", "higher",
                                  samples=len(p.order))
    # the host's speed during the run, not the program's: compare.py skips it
    m["calibrate_ms"] = _metric(statistics.median(p.clock.cals) * 1000.0, "ms", "n/a",
                                samples=len(p.clock.cals))
    if workload == "replay":
        m.update(latency_metrics(workload, "ingest", "ingest", p.latency.get("ingest", [])))
    elif workload == "query":
        m.update(latency_metrics(workload, "query", "query", ops))
        m["rechain_s"] = _metric(statistics.median(p.rechain_s), "s", "lower",
                                 samples=len(p.rechain_s))
        for shape, seconds in sorted(p.latency.items()):
            m[f"shape_{shape}_p50_ms"] = _metric(statistics.median(seconds) * 1000.0, "ms",
                                                 "lower", samples=len(seconds))
    else:
        for kind in ("ingest", "query", "alert"):
            m.update(latency_metrics(workload, kind, kind, p.latency.get(kind, [])))
    return m


def run_pass(workload: str, seed: int, seconds: float, workdir: Path, traced: bool,
             setups: int | None = None):
    """One pass; `setups` overrides the workload's own least number of set-ups."""
    import spans
    import workloads

    kwargs = {} if setups is None else {"setups": setups}
    if workload == "served":
        return workloads.served(seed, seconds, workdir, traced=traced, **kwargs)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    try:
        return getattr(workloads, workload)(seed, seconds, tracer=tracer, **kwargs)
    finally:
        if tracer is not None:
            tracer.uninstall()
            spans.dump(tracer.spans, workdir / "spans.pickle")


def per_layer(workload: str, plain, traced, declared: dict[str, dict]):
    from spans import layer_metrics, layer_table

    units = {"_ms": "ms", "_us_per_triple": "us", "_ratio": "ratio"}
    client_ms = [s * 1000.0 for s in traced.order] if workload == "served" else None
    m = {}
    for name, value in layer_metrics(traced.spans, traced.attempted, client_ms).items():
        if value is None:
            # the workload never called the function: a declared metric reads 0,
            # so a change that removes every call still gets a traced result
            if name not in declared:
                continue
            value = 0.0
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        better = declared[name]["better"] if name in declared else "n/a"
        m[name] = _metric(value, unit, better)
    untraced_ms = statistics.fmean(op_seconds(plain)) * 1000.0
    traced_ms = statistics.fmean(op_seconds(traced)) * 1000.0
    m["trace.overhead_ms"] = _metric(traced_ms - untraced_ms, "ms", "lower")
    m["trace.overhead_frac"] = _metric((traced_ms - untraced_ms) / untraced_ms, "fraction",
                                       "lower")
    return m, layer_table(traced.spans)


def main() -> int:
    ap = argparse.ArgumentParser(description="knotgate benchmark")
    ap.add_argument("--workload", required=True, choices=("replay", "query", "served"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (ROOT / "src" / "knotgate" / "__init__.py", ROOT / "fixtures",
                           spec_path) if not p.exists()]
    if missing:
        print(f"not a knotgate checkout, missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        half = args.seconds / 2
        plain = run_pass(args.workload, args.seed, half, workdir, False, setups=1)
        traced = run_pass(args.workload, args.seed, half, workdir, True, setups=1)
        declared = {m["name"]: m for m in spec["per_layer"]}
        metrics, layers = per_layer(args.workload, plain, traced, declared)
        passes = (plain, traced)
    else:
        plain = run_pass(args.workload, args.seed, args.seconds, workdir, False)
        metrics, layers = end_to_end(args.workload, plain), None
        declared = {m["name"]: m for m in spec["end_to_end"]}
        passes = (plain,)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    for name, m in metrics.items():
        extra = "".join(f" {k}={m[k]}" for k in ("percentile", "samples") if k in m)
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    for p in passes:
        for problem in p.problems:
            print(f"MISMATCH {problem}")
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "metrics": metrics, "layers": layers,
    }}))
    absent = [name for name in declared if name not in metrics]
    if absent:
        print(f"declared metrics not measured: {absent}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
