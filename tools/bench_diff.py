#!/usr/bin/env python3
"""Compare two BENCH_<name>.json files produced by bench/run_all.sh.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold=0.10]
                        [--require=metric1,metric2,...]
                        [--require-table=substr1,substr2,...] [--identical]

Prints a per-metric / per-table-cell diff and exits nonzero when any *cost*
series (simulated cycles or time: column or metric names containing "cycles",
"c/op", "us", "ns" -- including underscore-delimited tokens like the
host_ns_per_op_* wall-clock fields -- "time", or a percentile like
"p50"/"p99") regressed by more than the threshold (default 10%). Tail-latency
columns from the bench latency-histogram tables (p50_cycles/p99_cycles/
max_cycles) are gated like any other cost, so a p99 regression fails CI even
when means stay flat. Host-throughput fields are gated through their
host_ns_per_op_* form (lower is better), so a bench whose host loop got >10%
slower fails the diff; the companion host_ops_per_sec_* fields are
informational. Non-cost series (hit rates, byte gauges, ratios) are printed
for context but never fail the diff. --require=a,b,c additionally fails the
diff when any of the named metrics is missing from the candidate -- CI uses
it to pin the chaos-campaign SLO fields so a refactor cannot silently drop
them. --require-table=a,b does the same for tables: the candidate must hold
a table whose title contains each given substring (case-insensitive) -- CI
pins the tail-blame table of the serving benches this way, so the p999
attribution cannot vanish without failing the diff. Both flags may be
repeated, and each repeat adds its names to the ones before, so
--require-table=a --require-table=b pins both tables. --identical switches to
determinism mode: the two documents must match
exactly -- every config entry, metric, and table cell -- except metrics
prefixed host_ (wall-clock noise), which replaces byte-for-byte `diff` in
replay-identity CI checks. Stdlib only, so it runs anywhere CI does.
"""

import json
import re
import sys

COST_PATTERN = re.compile(
    r"(cycles|c/op|\bus\b|\bns\b|(?:^|_)us(?:_|$)|(?:^|_)ns(?:_|$)|time|\bp\d+\b)",
    re.IGNORECASE)


def is_cost_name(name: str) -> bool:
    return COST_PATTERN.search(name) is not None


def as_number(cell):
    """Numeric value of a metric or table cell, or None (labels, sizes)."""
    if isinstance(cell, (int, float)):
        return float(cell)
    if not isinstance(cell, str):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def compare(name, old, new, threshold, regressions, report):
    if old is None or new is None:
        return
    if old == 0:
        delta = 0.0 if new == 0 else float("inf")
    else:
        delta = (new - old) / abs(old)
    cost = is_cost_name(name)
    flag = ""
    if cost and delta > threshold:
        regressions.append((name, old, new, delta))
        flag = "  <-- REGRESSION"
    elif abs(delta) > threshold:
        flag = "  (changed)"
    if flag or cost:
        report.append(f"  {name}: {old:g} -> {new:g} ({delta:+.1%}){flag}")


def table_by_title(doc):
    return {t.get("title", ""): t for t in doc.get("metrics", {}).get("tables", [])}


def rows_by_label(table):
    """Rows keyed by first column; duplicate labels get a #N suffix so
    repeated sweep points (e.g. two '16M' rows at different skews) still
    pair up positionally."""
    out = {}
    seen = {}
    for row in table.get("rows", []):
        if not row:
            continue
        n = seen.get(row[0], 0)
        seen[row[0]] = n + 1
        out[row[0] if n == 0 else f"{row[0]}#{n}"] = row
    return out


def strip_host_metrics(doc):
    """Drops host_* wall-clock metrics: everything else must be simulated
    and therefore bit-reproducible across identical runs."""
    metrics = doc.get("metrics", {})
    doc = dict(doc)
    doc["metrics"] = {k: v for k, v in metrics.items() if not k.startswith("host_")}
    return doc


def diff_identical(old_doc, new_doc):
    """Exact comparison minus host_* metrics; returns a list of mismatches."""
    old_doc = strip_host_metrics(old_doc)
    new_doc = strip_host_metrics(new_doc)
    problems = []

    def walk(path, a, b):
        if type(a) is not type(b):
            problems.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, dict):
            for key in a.keys() | b.keys():
                if key not in a:
                    problems.append(f"{path}.{key}: only in candidate")
                elif key not in b:
                    problems.append(f"{path}.{key}: only in baseline")
                else:
                    walk(f"{path}.{key}", a[key], b[key])
        elif isinstance(a, list):
            if len(a) != len(b):
                problems.append(f"{path}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif a != b:
            problems.append(f"{path}: {a!r} != {b!r}")

    walk("$", old_doc, new_doc)
    return problems


def main(argv):
    threshold = 0.10
    required = []
    required_tables = []
    identical = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--require="):
            required += [m for m in arg.split("=", 1)[1].split(",") if m]
        elif arg.startswith("--require-table="):
            required_tables += [t for t in arg.split("=", 1)[1].split(",") if t]
        elif arg == "--identical":
            identical = True
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(paths[0]) as f:
        old_doc = json.load(f)
    with open(paths[1]) as f:
        new_doc = json.load(f)

    if identical:
        problems = diff_identical(old_doc, new_doc)
        if problems:
            print(f"{len(problems)} determinism mismatch(es) "
                  f"(host_* metrics excluded):")
            for p in problems[:50]:
                print(f"  {p}")
            return 1
        print("identical (host_* metrics excluded).")
        return 0

    if old_doc.get("bench") != new_doc.get("bench"):
        print(
            f"warning: comparing different benches "
            f"({old_doc.get('bench')} vs {new_doc.get('bench')})",
            file=sys.stderr,
        )

    regressions = []
    report = [f"bench: {new_doc.get('bench')}  (threshold {threshold:.0%})"]

    old_metrics = old_doc.get("metrics", {})
    new_metrics = new_doc.get("metrics", {})
    for key, old_val in old_metrics.items():
        if key == "tables":
            continue
        compare(key, as_number(old_val), as_number(new_metrics.get(key)), threshold,
                regressions, report)

    # Metrics the candidate added (absent in the baseline) are informational:
    # a new feature's metrics cannot regress against nothing, but they should
    # be visible in the diff so reviewers notice them appearing.
    added = [
        key
        for key in new_metrics
        if key != "tables" and key not in old_metrics and as_number(new_metrics[key]) is not None
    ]
    for key in added:
        report.append(f"  {key}: (new in candidate) = {as_number(new_metrics[key]):g}")

    new_tables = table_by_title(new_doc)
    for title, old_table in table_by_title(old_doc).items():
        new_table = new_tables.get(title)
        if new_table is None:
            report.append(f"  table dropped: {title}")
            continue
        columns = old_table.get("columns", [])
        new_columns = new_table.get("columns", [])
        new_rows = rows_by_label(new_table)
        for label, old_row in rows_by_label(old_table).items():
            new_row = new_rows.get(label)
            if new_row is None:
                report.append(f"  row dropped: {title} / {label}")
                continue
            for i, col in enumerate(columns):
                if i == 0 or col not in new_columns:
                    continue
                j = new_columns.index(col)
                if i < len(old_row) and j < len(new_row):
                    compare(f"{label} / {col}", as_number(old_row[i]),
                            as_number(new_row[j]), threshold, regressions, report)

    missing = [m for m in required if as_number(new_metrics.get(m)) is None]
    new_titles = [t.lower() for t in new_tables]
    missing_tables = [
        want for want in required_tables
        if not any(want.lower() in title for title in new_titles)
    ]

    print("\n".join(report))
    if missing:
        print(f"\n{len(missing)} required metric(s) missing from candidate:")
        for name in missing:
            print(f"  {name}")
        return 1
    if missing_tables:
        print(f"\n{len(missing_tables)} required table(s) missing from candidate:")
        for want in missing_tables:
            print(f"  (title containing) {want!r}")
        return 1
    if regressions:
        print(f"\n{len(regressions)} cost regression(s) above {threshold:.0%}:")
        for name, old, new, delta in regressions:
            print(f"  {name}: {old:g} -> {new:g} ({delta:+.1%})")
        return 1
    print("\nno cost regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
