#!/usr/bin/env python3
"""Validates dcy-bench-v1 reports (BENCH_*.json) emitted by bench/harness.cc.

Usage: validate_bench_json.py --expect N [FILE...]
With no FILE arguments, globs BENCH_*.json in the current directory. Used by
both CI bench jobs (smoke and bench-report) so the schema rules live in one
place.
"""
import argparse
import glob
import json
import sys

REQUIRED_CASE_KEYS = ("name", "params", "repeats", "p50_ns", "p95_ns", "throughput")

# The read/write smoke row (bench_table4_tpch --writes=N): every write counter
# the run asserts on must be present, the run must have self-validated, and a
# drained compactor must have left no pending deltas behind.
UPDATES_METRIC_KEYS = (
    "commits", "rows_inserted", "rows_deleted", "deltas_published",
    "deltas_merged", "deltas_folded", "merges", "compactions",
    "current_version", "pending_deltas", "validated",
)


# The wire-compression row (bench_table4_tpch / bench_micro_engine): the
# codec accounting must be present and self-consistent. With compression off
# every column is pass-through, so encoded/raw must be ~1.0; with it
# on the ratio is workload-dependent (incompressible columns pay one encoding
# byte each), so only positivity is asserted.
BANDWIDTH_METRIC_KEYS = (
    "frames", "raw_bytes", "wire_bytes", "bytes_per_hop",
    "encoded_vs_raw_bytes", "dict_columns", "for_columns", "plain_columns",
    "compression",
)


def validate_bandwidth_case(path: str, case: dict) -> None:
    m = case.get("metrics", {})
    for key in BANDWIDTH_METRIC_KEYS:
        assert key in m, f"{path}: bandwidth row missing metric {key}"
    ratio = m["encoded_vs_raw_bytes"]
    assert ratio > 0, f"{path}: bandwidth row has non-positive ratio {ratio}"
    if m["compression"] == 0:
        assert abs(ratio - 1.0) < 1e-9, \
            f"{path}: compression off but encoded/raw ratio is {ratio}"
        assert m["dict_columns"] == 0 and m["for_columns"] == 0, \
            f"{path}: compression off but codec columns were counted"


# The hop-reliability row (bench_table4_tpch): on a fault-free fabric nothing
# is lost, so a retransmit is wasted work, and frames_duplicate counts exactly
# those spurious re-sends. A descheduled receiver can still outlast any
# timeout estimate, so the invariant is a bound, not zero.
RESILIENCE_INJECTED_KEYS = (
    "injected_dropped", "injected_delayed", "injected_duplicated",
    "injected_corrupted",
)
CLEAN_FABRIC_MAX_RETRANSMITS_PER_HOP = 0.2


def validate_resilience_case(path: str, case: dict) -> None:
    m = case.get("metrics", {})
    for key in ("retransmits", "hops") + RESILIENCE_INJECTED_KEYS:
        assert key in m, f"{path}: resilience row missing metric {key}"
    if all(m[key] == 0 for key in RESILIENCE_INJECTED_KEYS):
        bound = CLEAN_FABRIC_MAX_RETRANSMITS_PER_HOP * m["hops"]
        assert m["retransmits"] <= bound, \
            f"{path}: {m['retransmits']:.0f} retransmits over {m['hops']:.0f} hops " \
            f"on a fault-free fabric (bound {bound:.0f})"


# The fetch-join rows (bench_micro_engine): Join answers a dense right head
# by position. fetch_join/<n> and its fetch_join_keyed/<n> twin join the same
# data in the same run, the twin through the merge path, so their ratio does
# not depend on the host. A dispatch that stops recognising dense heads brings
# it to about 1.
FETCH_JOIN_MAX_RATIO = 0.5


def validate_fetch_join_cases(path: str, cases: list) -> None:
    p50 = {case["name"]: case["p50_ns"] for case in cases}
    for name, fetch in p50.items():
        if not name.startswith("fetch_join/"):
            continue
        twin = "fetch_join_keyed/" + name[len("fetch_join/"):]
        assert twin in p50, f"{path}: {name} has no {twin} row"
        assert fetch <= FETCH_JOIN_MAX_RATIO * p50[twin], \
            f"{path}: {name} p50 {fetch / 1e6:.3f} ms exceeds " \
            f"{FETCH_JOIN_MAX_RATIO} x {twin} p50 {p50[twin] / 1e6:.3f} ms " \
            f"(dense right head not fetched by position?)"


def validate_updates_case(path: str, case: dict) -> None:
    m = case.get("metrics", {})
    for key in UPDATES_METRIC_KEYS:
        assert key in m, f"{path}: updates row missing metric {key}"
    assert m["validated"] == 1, f"{path}: updates row failed self-validation"
    assert m["rows_inserted"] > 0, f"{path}: updates row inserted no rows"
    assert m["deltas_published"] > 0, f"{path}: updates row published no deltas"
    assert m["deltas_folded"] > 0, f"{path}: updates row folded no deltas"
    assert m["pending_deltas"] == 0, f"{path}: updates row left pending deltas"


def validate(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "dcy-bench-v1", f"{path}: bad schema {doc.get('schema')}"
    assert doc.get("cases"), f"{path}: no cases"
    for case in doc["cases"]:
        for key in REQUIRED_CASE_KEYS:
            assert key in case, f"{path}: case {case.get('name')} missing {key}"
        assert case["p50_ns"] > 0, f"{path}: case {case['name']} has non-positive p50"
        if case["name"] == "updates":
            validate_updates_case(path, case)
        if case["name"] == "bandwidth":
            validate_bandwidth_case(path, case)
        if case["name"] == "resilience":
            validate_resilience_case(path, case)
    validate_fetch_join_cases(path, doc["cases"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expect", type=int, default=None,
                        help="exact number of reports required")
    parser.add_argument("files", nargs="*", help="reports (default: ./BENCH_*.json)")
    args = parser.parse_args()
    files = sorted(args.files) if args.files else sorted(glob.glob("BENCH_*.json"))
    if args.expect is not None and len(files) != args.expect:
        print(f"expected {args.expect} reports, got {len(files)}: {files}", file=sys.stderr)
        return 1
    for path in files:
        validate(path)
    print(f"{len(files)} bench reports conform to dcy-bench-v1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
