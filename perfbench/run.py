#!/usr/bin/env python3
"""cbfforge benchmark.

    python3 perfbench/run.py --workload vi_solve --seed 1 --seconds 12 --trace 0

Run from the repository root.  One process runs one workload (see
workloads.py): set-up several times, timed units until --seconds have been
spent, then fixed companion blocks for the end-to-end metrics the units do
not produce.  Every output is checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every time
scaled to the reference host speed by calibration readings taken around it
(calibration.py).  --trace 1
alternates untraced and traced units, reports each layer's share of the
traced units' self time and the tracing overhead, and then runs the layer
probe (probe.py) for the remaining per-layer metrics.

A table with sample counts goes to stdout, followed by the result as one
JSON line.  The result, the environment record and, when tracing, the spans
are also written under perfbench/out/.  Exit code 2 means the run could not
start (no cbfforge sources, unsupported CBFFORGE_THREADS).
"""

import os
import sys

# Pin BLAS before numpy loads: matrix products on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_MIN_S = 1.0  # keep repeating a quick set-up until this much time is spent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("vi_solve", "filter_rollouts", "train_nets"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference_decisions.json from the current code and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """What a result depends on besides the code; results are comparable
    only when these records are equal."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cbfforge_threads": os.environ.get("CBFFORGE_THREADS", "unset"),
        "seed": seed,
    }


def _timed_setup(workload, seed, work_dir, speed):
    """Set up several times in fresh directories; keep the last fixture.
    Set-ups solve grids, write files and draw datasets, so they are scaled
    by the full calibration kernel set."""
    times, fixture, previous = [], None, None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        rep_dir = os.path.join(work_dir, f"setup{len(times)}")
        fixture, elapsed, _ = speed.timed("all", lambda: workload.set_up(seed, rep_dir))
        times.append(elapsed)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = rep_dir
    return fixture, times


def _run_units(workload, fixture, seconds, checks, tracer, trace, speed):
    """Closed loop: the next unit starts when the previous one and its checks
    are done, until another cycle would pass the deadline.  With trace,
    odd-numbered units are traced."""
    outputs, unit_s, cycle_s, traced = [], [], [], []
    start = time.perf_counter()
    while len(unit_s) < workload.min_units or (
        time.perf_counter() - start + statistics.median(cycle_s) <= seconds
    ):
        cycle_start = time.perf_counter()
        tracing = trace and len(unit_s) % 2 == 1
        tracer.active = tracing
        with tracer.span("unit", "unit"):
            output, elapsed, _ = speed.timed(workload.kind, lambda: workload.unit(fixture, speed))
        unit_s.append(elapsed)
        tracer.active = False
        workload.check(checks, fixture, output, outputs[0] if outputs else None)
        outputs.append(output)
        traced.append(tracing)
        cycle_s.append(time.perf_counter() - cycle_start)
    return outputs, unit_s, traced


def _trace_metrics(tracer, unit_s, traced) -> dict:
    from probe import LAYERS

    roots = [s for s in tracer.spans if s.name == "unit"]
    self_times = tracer.layer_self_times(roots)
    total = sum(s.duration for s in roots) - self_times.get("calibration", 0.0)
    out = {f"self_share.{layer}": (self_times.get(layer, 0.0) / total, len(roots)) for layer in LAYERS}
    out["self_share.unaccounted"] = (self_times.get("unit", 0.0) / total, len(roots))
    on = statistics.median(t for t, tr in zip(unit_s, traced) if tr)
    off = statistics.median(t for t, tr in zip(unit_s, traced) if not tr)
    out["trace.overhead_s"] = (on - off, len(unit_s))
    out["trace.overhead_frac"] = ((on - off) / off, len(unit_s))
    return out


def run(args, work_dir) -> dict:
    from calibration import HostSpeed
    from checks import Checks
    from probe import install_wraps, run_probe
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    checks = Checks()
    tracer = Tracer()
    speed = HostSpeed()
    if args.trace:
        install_wraps(tracer)
        tracer.wrap(HostSpeed, "measure")
    try:
        fixture, setup_s = _timed_setup(workload, args.seed, work_dir, speed)
        outputs, unit_s, traced = _run_units(workload, fixture, args.seconds, checks, tracer, args.trace, speed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            metrics = _trace_metrics(tracer, unit_s, traced)
            tracer.active = True
            probe = run_probe(tracer, work_dir, checks, speed)
            tracer.active = False
            metrics.update({name: (value, 1) for name, value in probe.items()})
        else:
            metrics = {
                "setup_s": (statistics.median(setup_s), len(setup_s)),
                "wall_s": (statistics.median(unit_s), len(unit_s)),
                "peak_rss_mb": (peak_mb, 1),
            }
            metrics.update(workload.metrics(outputs))
            metrics.update(workload.companion(args.seed, fixture, outputs, work_dir, checks, speed))
    finally:
        tracer.unwrap_all()
    return {
        "metrics": metrics,
        "slowdown": speed.slowdown(),
        "checks": checks,
        "tracer": tracer,
        "setup_s": setup_s,
        "unit_s": unit_s,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cbfforge", "__init__.py")):
        print(f"perfbench: no cbfforge sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"perfbench: {SPEC} is missing", file=sys.stderr)
        return 2
    if os.environ.get("CBFFORGE_THREADS", "1") != "1":
        print("perfbench: CBFFORGE_THREADS must be unset or 1 for comparable results", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.record_reference:
            from probe import record_reference

            record_reference(work_dir)
            return 0
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, checks = result["metrics"], result["checks"]
    with open(SPEC) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": units.get(name), "samples": n} for name, (v, n) in metrics.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "host_slowdown": result["slowdown"],
        "setup_s": result["setup_s"],
        "unit_s": result["unit_s"],
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        result["tracer"].write(os.path.join(OUT, f"spans-{stem}.jsonl"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, failed_frac {checks.failed / checks.attempted:g}")
    for name, unit in units.items():
        value, n = metrics[name]
        print(f"{name:44s} {value:16.6g} {unit:6s} n={n}")
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
