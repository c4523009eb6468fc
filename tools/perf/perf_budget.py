#!/usr/bin/env python3
"""CI perf budget: compare bench JSONL wall times against a baseline.

The benches emit one JSONL row per measurement when OBFUSMEM_BENCH_JSON
is set; every binary also appends a `total_wall` summary row covering
its whole lifetime (bench_common.hh Session). This script compares the
rows named in the checked-in baseline against a fresh run and fails on
regressions past the tolerance, so a change that quietly slows the
protection path or regresses the event kernel fails in CI rather than
in the next paper-figure sweep.

Usage:
    perf_budget.py run.jsonl [more.jsonl ...] [--baseline FILE]
                   [--update]

The baseline (tools/perf/perf_budget_baseline.json) maps
"bench|config|workload" keys to reference wall_ms values plus a shared
relative tolerance. `--update` rewrites the baselined values from the
given run (tolerance and key set are kept), which is how the numbers
are refreshed after an intentional perf change.

Escape hatches (for noisy or differently-sized runners):
    OBFUSMEM_PERF_BUDGET_SKIP=1        skip the comparison entirely
    OBFUSMEM_PERF_BUDGET_TOLERANCE=x   override the relative tolerance
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__),
                                "perf_budget_baseline.json")


def load_rows(paths):
    """Last wall_ms per bench|config|workload key across the run."""
    rows = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                key = "|".join((row.get("bench", ""),
                                row.get("config", ""),
                                row.get("workload", "")))
                if "wall_ms" in row:
                    rows[key] = float(row["wall_ms"])
    return rows


def main():
    ap = argparse.ArgumentParser(
        description="Bench wall-time budget gate")
    ap.add_argument("jsonl", nargs="+", help="bench JSONL run files")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--update", action="store_true",
                    help="rewrite baselined values from this run")
    args = ap.parse_args()

    if os.environ.get("OBFUSMEM_PERF_BUDGET_SKIP") == "1":
        print("perf-budget: skipped (OBFUSMEM_PERF_BUDGET_SKIP=1)")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    tolerance = float(os.environ.get("OBFUSMEM_PERF_BUDGET_TOLERANCE",
                                     baseline.get("tolerance", 0.10)))
    entries = baseline.get("entries", {})
    rows = load_rows(args.jsonl)

    if args.update:
        missing = [k for k in entries if k not in rows]
        if missing:
            for k in missing:
                print(f"perf-budget: --update run is missing {k}",
                      file=sys.stderr)
            return 1
        for key in entries:
            entries[key]["wall_ms"] = round(rows[key], 3)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"tolerance": baseline.get("tolerance", 0.10),
                       "entries": entries}, fh, indent=2)
            fh.write("\n")
        print(f"perf-budget: baseline updated ({len(entries)} "
              f"entries)")
        return 0

    failures = []
    print(f"{'key':<44} {'base ms':>9} {'run ms':>9} {'delta':>8}")
    for key, ref in sorted(entries.items()):
        base = float(ref["wall_ms"])
        if key not in rows:
            print(f"{key:<44} {base:>9.1f} {'absent':>9} {'--':>8}")
            failures.append(f"{key}: missing from the run (bench "
                            "renamed or JSONL sink broken?)")
            continue
        wall = rows[key]
        delta = wall / base - 1.0
        print(f"{key:<44} {base:>9.1f} {wall:>9.1f} {delta:>+7.1%}")
        if delta > tolerance:
            failures.append(
                f"{key}: {wall:.1f} ms vs baseline {base:.1f} ms "
                f"({delta:+.1%} > +{tolerance:.0%})")
    if failures:
        print(f"\nperf-budget: FAIL ({len(failures)} regression(s), "
              f"tolerance +{tolerance:.0%}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("  (intentional? refresh with perf_budget.py --update; "
              "noisy runner? OBFUSMEM_PERF_BUDGET_SKIP=1)",
              file=sys.stderr)
        return 1
    print(f"perf-budget: OK ({len(entries)} entries within "
          f"+{tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
