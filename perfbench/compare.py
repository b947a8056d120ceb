#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result-*.json files written by run.py (perfbench/out/
after a series of runs).  Results are paired by workload, trace flag and
seed; the comparison is refused (exit 2) when a pair's environment records
differ or a result has no partner.  For every workload and metric it prints
both medians, the relative change (positive = worse) and the base's
quartile spread as a share of its median, and marks a change worse than the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(directory: str) -> dict:
    out = {}
    for path in glob.glob(os.path.join(directory, "result-*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["trace"], rec["environment"]["seed"])] = rec
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    refused = sorted(set(base) ^ set(new))
    refused += [key for key in sorted(set(base) & set(new)) if base[key]["environment"] != new[key]["environment"]]
    if refused or not base:
        print(f"refused: unpaired or differing environment records: {refused or 'no results'}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    for workload in sorted({key[0] for key in base}):
        for trace in (0, 1):
            keys = [key for key in base if key[:2] == (workload, trace)]
            if not keys:
                continue
            print(f"== {workload} trace={trace} ({len(keys)} paired runs)")
            for name in base[keys[0]]["metrics"]:
                b = [base[k]["metrics"][name]["value"] for k in keys]
                n = [new[k]["metrics"][name]["value"] for k in keys]
                mb, mn = statistics.median(b), statistics.median(n)
                sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
                change = sign * (mn - mb) / mb if mb else 0.0
                bound = metrics[name].get("bound")
                flag = " WORSE" if bound is not None and change > bound else ""
                worse_any |= bool(flag)
                base_spread = f"{spread(b):8.3f}" if len(b) >= 2 and mb else "     n/a"
                print(f"  {name:44s} {mb:14.6g} {mn:14.6g} {change:+8.3f} spread {base_spread}{flag}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
