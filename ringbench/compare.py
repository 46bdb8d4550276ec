#!/usr/bin/env python3
"""Compare two ringbench result sets against the bounds in BENCHMARK.json.

    python3 ringbench/compare.py PARENT CHANGE [--claim qps@tpch_concurrent ...]
    python3 ringbench/compare.py --selftest

PARENT and CHANGE are set files written by `run.py --set`, or FILE:N for the
N-th entry of the "sets" list of a baseline file such as
ringbench/BASELINE.json. Only untraced runs are compared.

Every (end-to-end metric, workload) pair gets one verdict:

    ok          the change's median is no worse than the parent's by more
                than the metric's bound
    REGRESSION  it is worse by more than the bound
    unresolved  the parent's own spread (interquartile range / median)
                exceeds the bound, so the runs cannot tell
    better      unresolved, except that every change run reads better than
                every parent run

A claim `metric@workload` holds when at least 10 pairs of runs (matched by
seed; run them alternating which side goes first) exist, the change wins at
least 9/10 of them (ties count for neither side), and the medians differ by
more than the parent's interquartile range.

Exit status: 0 when every pair is ok or better and every claim holds, else 1.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(arg):
    path, _, index = arg.rpartition(":") if ":" in arg else (arg, "", "")
    doc = json.loads(Path(path).read_text())
    if index:
        doc = doc["sets"][int(index)]
    return [r for r in doc["runs"] if not r["trace"]]


def series(runs, workload, metric):
    """{seed: value} of one metric on one workload."""
    return {r["seed"]: r["metrics"][metric] for r in runs
            if r["workload"] == workload and metric in r["metrics"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    return (change - parent) / parent if better == "lower" else (parent - change) / parent


def verdict(parent, change, better, bound):
    """Verdict of one pair of value lists; returns (verdict, worse share, parent spread)."""
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = (q3 - q1) / p_med if p_med else 0.0
    worse = worse_by(p_med, c_med, better) if p_med else 0.0
    if spread > bound:
        all_better = all(worse_by(p, c, better) < 0 for p in parent for c in change)
        return ("better" if all_better else "unresolved"), worse, spread
    return ("ok" if worse <= bound else "REGRESSION"), worse, spread


def claim_holds(parent, change, better):
    """The gain rule over runs paired by seed; returns (holds, explanation)."""
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < 10:
        return False, f"{len(seeds)} pairs, need at least 10"
    wins = sum(1 for s in seeds if worse_by(parent[s], change[s], better) < 0)
    q1, p_med, q3 = quartiles(list(parent.values()))
    gap = -worse_by(p_med, statistics.median(change.values()), better) * p_med
    holds = wins >= 0.9 * len(seeds) and gap > q3 - q1
    return holds, (f"{wins}/{len(seeds)} pairs won, median gap {gap:.4g} "
                   f"vs parent IQR {q3 - q1:.4g}")


def compare(spec, parent_runs, change_runs, claims):
    failed = False
    print(f"{'workload':16} {'metric':14} {'parent':>11} {'change':>11} "
          f"{'worse':>7} {'bound':>6} {'spread':>6}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            p = series(parent_runs, w, m["name"])
            c = series(change_runs, w, m["name"])
            if not p or not c:
                print(f"{w:16} {m['name']:14} missing runs")
                failed = True
                continue
            v, worse, spread = verdict(list(p.values()), list(c.values()), m["better"],
                                       m["bound"])
            failed |= v not in ("ok", "better")
            print(f"{w:16} {m['name']:14} {statistics.median(p.values()):11.4f} "
                  f"{statistics.median(c.values()):11.4f} {worse:+7.3f} {m['bound']:6.3f} "
                  f"{spread:6.3f}  {v}")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for claim in claims:
        name, _, w = claim.partition("@")
        if name not in metrics:
            print(f"claim {claim}: unknown metric")
            failed = True
            continue
        holds, why = claim_holds(series(parent_runs, w, name), series(change_runs, w, name),
                                 metrics[name]["better"])
        failed |= not holds
        print(f"claim {claim}: {'met' if holds else 'NOT met'} ({why})")
    return 1 if failed else 0


def selftest():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    expect(verdict(base, base, "lower", 0.1)[0] == "ok", "identical sets are ok")
    expect(verdict(base, [v * 1.05 for v in base], "lower", 0.1)[0] == "ok",
           "5% worse is within a 10% bound")
    expect(verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "REGRESSION",
           "20% slower is a regression")
    expect(verdict(base, [v * 0.8 for v in base], "higher", 0.1)[0] == "REGRESSION",
           "20% less throughput is a regression")
    expect(verdict(base, [v * 1.2 for v in base], "higher", 0.1)[0] == "ok",
           "more throughput is ok")
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    expect(verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved",
           "a parent spread above the bound is unresolved")
    expect(verdict(noisy, [10] * 10, "lower", 0.1)[0] == "better",
           "every change run better than every parent run")

    parent = dict(enumerate(base))
    faster = {s: v * 0.9 for s, v in parent.items()}
    expect(claim_holds(parent, faster, "lower")[0], "a 10% gain on every pair holds")
    mixed = dict(faster)
    mixed[0], mixed[1] = parent[0] * 1.01, parent[1] * 1.01
    expect(not claim_holds(parent, mixed, "lower")[0], "8/10 wins does not hold")
    tiny = {s: v - 0.1 for s, v in parent.items()}
    expect(not claim_holds(parent, tiny, "lower")[0], "a gap inside the parent IQR fails")
    expect(not claim_holds(dict(list(parent.items())[:9]), faster, "lower")[0],
           "nine pairs are too few")

    for f in failures:
        print(f"selftest FAILED: {f}", file=sys.stderr)
    print("selftest:", "ok" if not failures else "FAILED", file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--claim", action="append", default=[], help="metric@workload")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("PARENT and CHANGE are required")
    spec = json.loads(BENCHMARK.read_text())
    return compare(spec, load_runs(args.parent), load_runs(args.change), args.claim)


if __name__ == "__main__":
    sys.exit(main())
