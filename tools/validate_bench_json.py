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
#
# An owner encodes each base of a fragment once and ships the memoized frame
# on every later load, so encodes (`frames`) never exceed `loads`. Only a new
# base encodes again, and only a fold (--writes) makes one: the write log is
# an owned fragment's one home, so a budget (--budget_mb) swaps no payload
# object. Without writes, a row whose frames exceed its fragments re-encoded
# a fragment it had already encoded.
BANDWIDTH_METRIC_KEYS = (
    "frames", "loads", "fragments", "raw_bytes", "wire_bytes", "bytes_per_hop",
    "encoded_vs_raw_bytes", "dict_columns", "for_columns", "plain_columns",
    "compression",
)


def validate_bandwidth_case(path: str, case: dict) -> None:
    m = case.get("metrics", {})
    for key in BANDWIDTH_METRIC_KEYS:
        assert key in m, f"{path}: bandwidth row missing metric {key}"
    assert m["frames"] <= m["loads"], \
        f"{path}: bandwidth row encoded {m['frames']:.0f} frames for " \
        f"{m['loads']:.0f} loads"
    if int(case.get("params", {}).get("writes", "0")) == 0:
        assert m["frames"] <= m["fragments"], \
            f"{path}: bandwidth row encoded {m['frames']:.0f} frames for " \
            f"{m['fragments']:.0f} fragments with no fold " \
            f"(an unchanged fragment was encoded again)"
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
#
# The same holds one layer up: the protocol's request resend (paper §4.2.3)
# recovers lost messages, so on a fault-free fabric a blocked pin should be
# served by the rotation, never by waiting out the resend timeout. A rescue
# is a resend that fired while a pin was blocked on its BAT. The bound needs
# an optimized build: the resend timer's 200 ms floor assumes a cold BAT
# reaches its requester sooner, and in the Debug sanitizer builds its first
# delivery can take 200-730 ms, so resends fire while the first request is
# still being served.
#
# A node hashes each payload object once and reuses its CRC for every later
# arrival of the same object. On a clean fabric every payload is an owner's
# encode (`frames`), so a row whose payload hashes exceed nodes x frames
# re-hashed an object some node had already verified.
RESILIENCE_INJECTED_KEYS = (
    "injected_dropped", "injected_delayed", "injected_duplicated",
    "injected_corrupted",
)
CLEAN_FABRIC_MAX_RETRANSMITS_PER_HOP = 0.2
CLEAN_FABRIC_MAX_RESCUES_PER_READ = 0.02


def validate_resilience_case(path: str, case: dict) -> None:
    m = case.get("metrics", {})
    for key in ("retransmits", "hops", "payload_hashes", "frames", "reads", "resends",
                "resend_rescues", "optimized_build") + RESILIENCE_INJECTED_KEYS:
        assert key in m, f"{path}: resilience row missing metric {key}"
    if any(m[key] != 0 for key in RESILIENCE_INJECTED_KEYS):
        return
    bound = CLEAN_FABRIC_MAX_RETRANSMITS_PER_HOP * m["hops"]
    assert m["retransmits"] <= bound, \
        f"{path}: {m['retransmits']:.0f} retransmits over {m['hops']:.0f} hops " \
        f"on a fault-free fabric (bound {bound:.0f})"
    bound = int(case.get("params", {})["nodes"]) * m["frames"]
    assert m["payload_hashes"] <= bound, \
        f"{path}: {m['payload_hashes']:.0f} payload hashes for {m['frames']:.0f} " \
        f"owner encodes on a fault-free fabric (bound {bound:.0f})"
    if m["optimized_build"]:
        bound = CLEAN_FABRIC_MAX_RESCUES_PER_READ * m["reads"]
        assert m["resend_rescues"] <= bound, \
            f"{path}: {m['resend_rescues']:.0f} resend rescues over " \
            f"{m['reads']:.0f} reads on a fault-free fabric (bound {bound:.2f})"


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


# The frame-checksum rows (bench_micro_engine): crc32/<n> hashes with the
# dispatched bat::Crc32 kernel and its crc32_scalar/<n> twin hashes the same
# buffer with the scalar paths forced (slicing-by-8). When the row reports
# that the carry-less-multiply fold ran (clmul = 1) it must beat the table
# loop by 4x; it reads about 11x on a 4-thread Xeon. A dispatch that stops
# selecting the fold brings the ratio to about 1.
CRC32_MAX_RATIO = 0.25


def validate_crc32_cases(path: str, cases: list) -> None:
    by_name = {case["name"]: case for case in cases}
    for name, case in by_name.items():
        if not name.startswith("crc32/"):
            continue
        twin = "crc32_scalar/" + name[len("crc32/"):]
        assert twin in by_name, f"{path}: {name} has no {twin} row"
        assert "clmul" in case.get("metrics", {}), f"{path}: {name} missing metric clmul"
        if case["metrics"]["clmul"] != 1:
            continue
        fold, table = case["p50_ns"], by_name[twin]["p50_ns"]
        assert fold <= CRC32_MAX_RATIO * table, \
            f"{path}: {name} p50 {fold / 1e6:.3f} ms exceeds " \
            f"{CRC32_MAX_RATIO} x {twin} p50 {table / 1e6:.3f} ms " \
            f"(carry-less-multiply fold not selected?)"


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
    validate_crc32_cases(path, doc["cases"])


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
