#!/usr/bin/env python3
"""Record one point of the BENCH trajectory for a cbfforge checkout.

    python3 tools/bench_record.py --number 24
    python3 tools/bench_record.py --number 20 --root ../parent --out BENCH_20.json

Runs, each as a subprocess in the checkout at --root (default: the checkout
holding this script), first the tier-1 suite and then
`perfbench/run.py --trace 0` for every workload at seeds 1-3, and writes
BENCH_<number>.json (to --out, default <root>/BENCH_<number>.json) with:

- per run: the workload, seed, end-to-end metrics, output-check counts,
  environment record and host_slowdown record of perfbench's result file;
- tier-1: the passed and failed counts, wall time, the peak RSS of the
  pytest process tree, read with resource.getrusage(RUSAGE_CHILDREN) right
  after it exits, before any benchmark run has started, and the time of
  each test in tests/test_acceptance.py (set-up, call and tear-down), read
  with xml.etree from the JUnit XML file this run of pytest writes;
- the line count of each src/cbfforge/*.py.

Standard library only; nothing under perfbench/ is changed, but its runs
write their usual result files under <root>/perfbench/out/.  A speedup
claim still needs alternating before/after pairs: this file is the record,
not the test.
"""

import argparse
import glob
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

WORKLOADS = ("vi_solve", "filter_rollouts", "train_nets")
SEEDS = (1, 2, 3)
SECONDS = 12
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_tier1(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        junit = os.path.join(tmp, "tier1.xml")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1, f"--junitxml={junit}"], cwd=root, env=env,
                              capture_output=True, text=True)
        wall_s = time.perf_counter() - start
        acceptance_s = acceptance_times(junit) if os.path.exists(junit) else {}
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {key: int(num) for num, key in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {
        "command": " ".join(["python", *TIER1, "--junitxml=<tmp>/tier1.xml"]),
        "returncode": proc.returncode,
        "summary": summary,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "wall_s": round(wall_s, 2),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "acceptance_s": acceptance_s,
    }


def acceptance_times(junit_path: str) -> dict:
    """Test name -> seconds for every test of tests/test_acceptance.py in a
    pytest JUnit XML file."""
    times = {}
    for case in ET.parse(junit_path).getroot().iter("testcase"):
        if case.get("classname", "").endswith("test_acceptance"):
            times[case.get("name")] = round(float(case.get("time", "nan")), 2)
    return times


def run_workload(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    path = os.path.join(root, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        result = json.load(fh)
    checks = result["checks"]
    return {
        "workload": workload,
        "seed": seed,
        "metrics": result["metrics"],
        "checks": {"attempted": checks["attempted"], "failed": checks["failed"]},
        "environment": result["environment"],
        "host_slowdown": result["host_slowdown"],
    }


def src_lines(root: str) -> dict:
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "cbfforge", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def git_state(root: str) -> dict:
    """HEAD's commit, and whether the measured tree differs from it (dirty)."""
    head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, required=True, help="the <n> of BENCH_<n>.json")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--out", help="output path (default <root>/BENCH_<number>.json)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {"number": args.number, **git_state(root), "started_utc": started}
    record["tier1"] = run_tier1(root)  # first, so RUSAGE_CHILDREN holds only pytest
    record["runs"] = [run_workload(root, w, s) for w in WORKLOADS for s in SEEDS]
    record["src_lines"] = src_lines(root)
    record["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out = args.out or os.path.join(root, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
