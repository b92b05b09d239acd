#!/usr/bin/env python3
"""CI gate over the fairmatch_bench JSON report.

Usage: check_bench_report.py BENCH_smoke.json path/to/fairmatch_bench

Fails (exit 1) when the report is malformed, any registered figure is
missing or empty, or any row lacks the schema's fields / carries a
negative or non-numeric measurement — i.e. whenever a figure or matcher
silently dropped out of the sweep.
"""
import json
import subprocess
import sys

NUMERIC_FIELDS = (
    "io_accesses",
    "cpu_ms",
    "cpu_ms_min",
    "cpu_ms_stddev",
    "mem_mb",
    "pairs",
    "loops",
    "seed",
)
STRING_FIELDS = ("section", "x", "algorithm")


def fail(message):
    print(f"check_bench_report: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_batch_figure(batch_rows):
    """batch_throughput carries the batch layer's determinism guarantee
    onto the report surface: the same batch runs at every lane count
    (the x axis), so each algorithm's deterministic totals (io_accesses,
    pairs, loops) must be identical across its rows, and the sweep must
    actually cover more than one lane count."""
    by_algo = {}
    for row in batch_rows:
        by_algo.setdefault(row["algorithm"], []).append(row)
    for algo, rows in by_algo.items():
        if len(rows) < 2:
            fail(
                f"batch_throughput: {algo!r} has {len(rows)} row(s); "
                "expected a sweep over >= 2 lane counts"
            )
        baseline = rows[0]
        for row in rows[1:]:
            for field in ("io_accesses", "pairs", "loops"):
                if row[field] != baseline[field]:
                    fail(
                        f"batch_throughput: {algo!r} {field} differs across "
                        f"lane counts ({baseline[field]} at x={baseline['x']} "
                        f"vs {row[field]} at x={row['x']}): the batch layer "
                        "is not thread-count deterministic"
                    )


def check_micro_packed_probe(rows):
    """The packed store is a drop-in FunctionLists: at every x the
    'lists' and 'packed' rows must agree on every deterministic column
    (identical probe sequence), and 'packed-impact' must drain the same
    assignments (pairs) even though its block-granular probe count
    differs."""
    by_x = {}
    for row in rows:
        by_x.setdefault(row["x"], {})[row["algorithm"]] = row
    for x, algos in by_x.items():
        for name in ("lists", "packed", "packed-impact"):
            if name not in algos:
                fail(f"micro_packed_probe: missing {name!r} row at x={x}")
        for field in ("io_accesses", "pairs", "loops"):
            if algos["lists"][field] != algos["packed"][field]:
                fail(
                    f"micro_packed_probe: {field} differs between lists "
                    f"({algos['lists'][field]}) and packed "
                    f"({algos['packed'][field]}) at x={x}: the packed "
                    "default traversal diverged from FunctionLists"
                )
        if algos["packed-impact"]["pairs"] != algos["lists"]["pairs"]:
            fail(
                f"micro_packed_probe: packed-impact drained "
                f"{algos['packed-impact']['pairs']} pairs vs "
                f"{algos['lists']['pairs']} at x={x}: the impact-ordered "
                "traversal lost or invented assignments"
            )


def check_scale_sweep(rows):
    """Every backend performs the same full drain at each x, so pairs
    must be identical across the per-x rows, and the sweep must cover
    more than one size."""
    by_x = {}
    for row in rows:
        by_x.setdefault(row["x"], []).append(row)
    if len(by_x) < 2:
        fail(
            f"scale_sweep: {len(by_x)} x value(s); expected a sweep over "
            ">= 2 sizes"
        )
    for x, x_rows in by_x.items():
        if len(x_rows) < 3:
            fail(f"scale_sweep: {len(x_rows)} row(s) at x={x}; expected 3")
        baseline = x_rows[0]
        for row in x_rows[1:]:
            if row["pairs"] != baseline["pairs"]:
                fail(
                    f"scale_sweep: pairs differs at x={x} "
                    f"({baseline['algorithm']}={baseline['pairs']} vs "
                    f"{row['algorithm']}={row['pairs']}): the backends did "
                    "not perform the same drain"
                )


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} REPORT.json FAIRMATCH_BENCH_BINARY")
    report_path, bench_binary = sys.argv[1], sys.argv[2]

    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {report_path}: {e}")

    if report.get("schema") != "fairmatch-bench/v1":
        fail(f"unexpected schema {report.get('schema')!r}")

    registered = set(
        subprocess.run(
            [bench_binary, "--list-names"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.split()
    )
    reported = set(report.get("figures", {}))
    if reported != registered:
        fail(
            f"figure set mismatch: missing={sorted(registered - reported)} "
            f"unexpected={sorted(reported - registered)}"
        )

    rows = 0
    for figure, figure_rows in report["figures"].items():
        if not figure_rows:
            fail(f"figure {figure!r} has no rows")
        for row in figure_rows:
            for field in STRING_FIELDS:
                if not isinstance(row.get(field), str):
                    fail(f"{figure}: row missing string field {field!r}: {row}")
            if not row["x"] or not row["algorithm"]:
                fail(f"{figure}: empty x/algorithm in row {row}")
            for field in NUMERIC_FIELDS:
                value = row.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    fail(f"{figure}: bad {field}={value!r} in row {row}")
            rows += 1

    check_batch_figure(report["figures"].get("batch_throughput", []))
    check_micro_packed_probe(report["figures"].get("micro_packed_probe", []))
    check_scale_sweep(report["figures"].get("scale_sweep", []))

    print(
        f"check_bench_report: OK — {len(reported)} figures, {rows} rows, "
        f"scale={report.get('scale')}, git_sha={report.get('git_sha')}"
    )


if __name__ == "__main__":
    main()
