#!/usr/bin/env python3
"""Build the ringbench binary from this checkout and run it.

One run, the benchmark's contract (run from the checkout root):

    python3 ringbench/run.py --workload tpch_budget --seed 1 --seconds 50 --trace 0

Human-readable lines go to stderr; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer ones (--trace 1). A traced run also writes a
Chrome trace-event file under .bench_build/traces/.

A result set: every workload of BENCHMARK.json, untraced, once per seed (the
seeds interleave the workloads). For seeds in --traced-seeds a traced run
follows the untraced one directly, so the two see the same machine.
--append adds runs to an existing set file.

    python3 ringbench/run.py --set parent.json --seeds 1-10 --traced-seeds 1-3

Self-checks of the percentile rule and the span arithmetic:

    python3 ringbench/run.py --selftest

The build goes to .bench_build/ at the checkout root (CMake, Release). The
first run configures and builds; later runs rebuild only what changed.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "ringbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the ringbench target; exits on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "ringbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("ringbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def run_once(workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (exit code, result or None)."""
    spill_dir = BUILD_DIR / f"spill-{os.getpid()}"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--spill_dir={spill_dir}"]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace_out={traces / f'{workload}-seed{seed}.json'}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ringbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host_info():
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    about = subprocess.run([str(BINARY), "--about"], capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "commit": commit,
            "compiler": json.loads(about.stdout)["compiler"]}


def summarize(runs, workloads, metric_names):
    """Median and quartile spread of every (metric, workload) over untraced runs,
    plus trace_overhead_frac: 1 - the median over seeds of traced qps divided
    by the untraced qps of the same seed."""
    summary = {}
    for w in workloads:
        untraced = [r for r in runs if r["workload"] == w and not r["trace"]]
        traced = [r for r in runs if r["workload"] == w and r["trace"]]
        row = {}
        for m in metric_names:
            values = [r["metrics"][m] for r in untraced if m in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            row[m] = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0}
        untraced_qps = {r["seed"]: r["metrics"]["qps"] for r in untraced}
        ratios = [r["metrics"]["client.samples"] / r["seconds"] / untraced_qps[r["seed"]]
                  for r in traced if untraced_qps.get(r["seed"])]
        if ratios:
            row["trace_overhead_frac"] = 1.0 - statistics.median(ratios)
        summary[w] = row
    return summary


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(args):
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.set)
    doc = json.loads(out.read_text()) if args.append and out.is_file() else {
        "schema": "ringbench-set-v1", "host": host_info(), "runs": []}
    traced = set(parse_seeds(args.traced_seeds)) if args.traced_seeds else set()
    plan = [(w, s, t) for s in parse_seeds(args.seeds) for w in workloads
            for t in ([0, 1] if s in traced else [0])]
    failed = False
    for i, (w, s, t) in enumerate(plan, 1):
        log(f"[{i}/{len(plan)}] {w} seed={s} trace={t}")
        code, result = run_once(w, s, seconds, t)
        if code != 0 or result is None:
            failed = True
            log(f"ringbench: {w} seed={s} trace={t} failed (exit {code})")
            continue
        doc["runs"].append({
            "workload": w, "seed": s, "trace": t, "seconds": seconds,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        out.write_text(json.dumps(doc, indent=1) + "\n")
    doc["summary"] = summarize(doc["runs"], workloads, [m["name"] for m in spec["end_to_end"]])
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, row in doc["summary"].items():
        for m, s in row.items():
            if isinstance(s, dict):
                log(f"{w:16} {m:14} median {s['median']:10.4f}  spread {s['spread']:.3f}"
                    f"  (n={s['n']})")
            else:
                log(f"{w:16} {m:14} {s:.4f}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--set", help="write a result set to this file")
    ap.add_argument("--seeds", default="1-10", help="untraced seeds of a set, e.g. 1-10")
    ap.add_argument("--traced-seeds", default="1", help="seeds also run traced ('' = none)")
    ap.add_argument("--append", action="store_true", help="add runs to an existing set")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        return subprocess.run([str(BINARY), "--selftest"]).returncode
    if args.set:
        return run_set(args)
    if not args.workload:
        ap.error("--workload, --set or --selftest is required")
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    code, result = run_once(args.workload, args.seed, seconds, args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
