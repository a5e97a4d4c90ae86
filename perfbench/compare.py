#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

A set is a directory of files, each the standard output of one
`perfbench/run.py` run (any name ending in .out).  Runs are grouped by
workload and paired across the two sets by seed.

    python3 perfbench/compare.py RUNS               # medians and quartiles
    python3 perfbench/compare.py PARENT CHANGE      # one row per workload and metric
    add --json for machine-readable output

Each compared result gets one label:
  improved    the change wins at least 90% of the seed pairs and the
              medians differ by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the quartile spread of either set is wider than the bound, so
              a difference within it cannot be told from noise (unless every
              change run beats, or loses to, every parent run)
  unchanged   none of the above
Bounds come from BENCHMARK.json.  A metric it does not list takes the bound
of its kind: *_p50_ms of op_p50_ms, *_tail_ms of op_tail_ms, *_per_s of
ops_per_s, other *_s of setup_s; failed_frac has bound 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_set(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> detail records, in seed order."""
    out: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.out")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith('{"detail"'):
                detail = json.loads(line)["detail"]
                out.setdefault((detail["workload"], detail["trace"]), []).append(detail)
    for records in out.values():
        records.sort(key=lambda d: d["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def bound_for(name: str, known: dict[str, float]) -> float:
    if name in known:
        return known[name]
    if name == "failed_frac":
        return 0.0
    for suffix, family in (("_p50_ms", "op_p50_ms"), ("_tail_ms", "op_tail_ms"),
                           ("_per_s", "ops_per_s"), ("_s", "setup_s")):
        if name.endswith(suffix) and family in known:
            return known[family]
    return 0.0


def summarise(records: list[dict]) -> dict[str, dict]:
    names = sorted({k for r in records for k in r["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else 0.0,
                     "unit": records[0]["metrics"][name]["unit"], "runs": len(values)}
        percentiles = sorted({r["metrics"][name]["percentile"] for r in records
                              if "percentile" in r["metrics"].get(name, {})})
        if percentiles:
            out[name]["percentiles"] = percentiles
    return out


def label(parent: list[float], change: list[float], wins: float, better: str,
          bound: float) -> tuple[str, float]:
    """The label and the change's relative worsening of the median (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    wider = pm and max(p3 - p1, c3 - c1) / abs(pm) > bound
    all_better = all(sign * c < sign * p for c in change for p in parent)
    all_worse = all(sign * c > sign * p for c in change for p in parent)
    if wider and not (all_better or all_worse):
        return "unresolved", worse
    if worse > bound or (wider and all_worse):
        return "regressed", worse
    if worse < 0 and ((wins >= WIN_SHARE and abs(cm - pm) > p3 - p1) or all_better):
        return "improved", worse
    return "unchanged", worse


def compare(parent: list[dict], change: list[dict], known: dict[str, float]) -> list[dict]:
    by_seed = {r["seed"]: r for r in change}
    rows = []
    names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in parent + change)]
    for name in names:
        better = parent[0]["metrics"][name]["better"]
        if better not in ("lower", "higher"):
            continue
        sign = 1.0 if better == "lower" else -1.0
        pv = [r["metrics"][name]["value"] for r in parent]
        cv = [r["metrics"][name]["value"] for r in change]
        pairs = [(r["metrics"][name]["value"], by_seed[r["seed"]]["metrics"][name]["value"])
                 for r in parent if r["seed"] in by_seed]
        won = sum(1 for p, c in pairs if sign * c < sign * p)
        wins = won / len(pairs) if pairs else 0.0
        bound = bound_for(name, known)
        verdict, worse = label(pv, cv, wins, better, bound)
        rows.append({
            "metric": name, "unit": parent[0]["metrics"][name]["unit"], "better": better,
            "parent": dict(zip(("q1", "median", "q3"), quartiles(pv))),
            "change": dict(zip(("q1", "median", "q3"), quartiles(cv))),
            "worse_by": worse, "pairs": len(pairs), "won": won, "bound": bound,
            "label": verdict,
        })
    return rows


def _fmt(q: dict) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sets", nargs="+", type=Path, help="one set to summarise, or parent and change")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two sets")
    loaded = [load_set(d) for d in args.sets]
    if len(loaded) == 1:
        report = {f"{w}/trace{t}": summarise(recs) for (w, t), recs in sorted(loaded[0].items())}
        if args.json:
            print(json.dumps(report, indent=1, sort_keys=True))
            return 0
        for key, metrics in report.items():
            print(f"== {key}")
            for name, s in metrics.items():
                print(f"  {name:28s} {s['median']:12.5g} {s['unit']:9s} "
                      f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                      f"runs {s['runs']}")
        return 0
    parent, change = loaded
    known = bounds()
    report = {}
    for key in sorted(set(parent) & set(change)):
        if key[1] != 0:
            continue  # end-to-end metrics come from untraced runs only
        report[key[0]] = compare(parent[key], change[key], known)
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{'workload':8s} {'metric':16s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} {'worse':>7s} {'won':>6s} {'bound':>5s} label")
    for workload, rows in report.items():
        for r in rows:
            print(f"{workload:8s} {r['metric']:16s} {_fmt(r['parent']):30s} "
                  f"{_fmt(r['change']):30s} {r['worse_by']:+7.1%} "
                  f"{r['won']:>2d}/{r['pairs']:<3d} {r['bound']:5.2f} {r['label']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
