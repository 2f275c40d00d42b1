"""seqdetect benchmark: one workload, timed, checked, with every metric printed.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload simulate_scaled --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same units alternately untraced and traced, and reports the
per-layer metrics of the traced units (medians) plus the tracing overhead.
Metric names, units and directions come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every oracle
passed.  Generated inputs, outputs, spans and a results file with the
environment record go to ``.bench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-up (fresh-interpreter import, input generation, warm-up) is repeated
#: this often and reported as a median.
SETUP_REPEATS = 5
MIN_UNITS = 2
#: BLAS pool size.  The workloads multiply matrices of at most 200 x 200,
#: where extra BLAS threads only add contention on a shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: End-to-end times are reported at a fixed machine speed: the speed at which
#: the workload's ``speed_kernel`` takes exactly this long (see README,
#: "Machine speed").
REF_NOMINAL_S = 0.05


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh() -> None:
    """Start a fresh interpreter that imports seqdetect and exits."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import seqdetect"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)


def at_nominal_speed(fn, kernel):
    """Run ``fn`` between two runs of the workload's speed kernel; returns
    its result, its wall time, and that time rescaled to the speed at which
    the kernel takes REF_NOMINAL_S."""
    before = _seconds(kernel)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    ref = 0.5 * (before + _seconds(kernel))
    return result, wall, wall * REF_NOMINAL_S / ref


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def environment() -> dict:
    import platform

    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        env["cpu"] = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
             if line.startswith("model name")),
            platform.processor(),
        )
    except OSError:
        env["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    env["git_commit"] = "unknown"
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def guarded(checks, what: str, fn):
    """Run ``fn``; an exception from the program counts as a failed check."""
    try:
        return fn()
    except Exception:  # the run must still report what failed
        checks.expect(False, f"{what} raised:\n{traceback.format_exc()}")
        return None


def timed(wl):
    wl.prepare()
    start = time.perf_counter()
    result = wl.run()
    return result, time.perf_counter() - start


def end_to_end(wl, checks, seconds: float, setups: list[float], raw: dict):
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start < seconds:
        wl.prepare()
        out = guarded(checks, "unit", lambda: at_nominal_speed(wl.run, wl.speed_kernel))
        if out is None:
            break
        raw["unit_wall_s"].append(out[1])
        walls.append(out[2])
        guarded(checks, "check", lambda: wl.check(out[0], checks))
    if not walls:
        return {}, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(wl.items_per_unit / w for w in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls), "items_per_s": len(walls),
               "peak_rss_mb": 1}
    return metrics, samples


def threads2_speedup(wl, checks) -> float | None:
    """Estimate wall time of ``simulate`` at 1 thread over that at 2 threads.

    Also checks that ``simulate.csv`` is byte-identical at both counts.
    Returns None where the CLI has no ``--threads`` flag or only one CPU is
    available."""
    import tracing
    import workloads

    if len(os.sched_getaffinity(0)) < 2:
        return None
    times, outputs = {}, {}
    for threads in (1, 2):
        out = wl.work / f"threads{threads}"
        workloads.fresh(out)
        with tracing.Tracer(only=set(tracing.ESTIMATES)) as tracer:
            try:
                rc, _ = workloads.run_cli(wl.argv(out, "--threads", str(threads)))
            except SystemExit:
                return None
        checks.expect(rc == 0, f"simulate --threads {threads} exited {rc}")
        times[threads] = tracing.SpanTable(tracer.spans).inclusive(
            lambda n: n in tracing.ESTIMATES
        )
        outputs[threads] = (out / "simulate.csv").read_bytes()
    checks.expect(outputs[1] == outputs[2] == wl.reference,
                  "simulate.csv differs between thread counts or from the timed units")
    return times[1] / times[2]


def per_layer(wl, checks, seconds: float, work: Path):
    import tracing
    import workloads

    per_unit = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not per_unit or time.perf_counter() - start < seconds:
        out = guarded(checks, "unit", lambda: timed(wl))
        if out is None:
            break
        guarded(checks, "check", lambda: wl.check(out[0], checks))
        untraced = out[1]
        wl.prepare()
        tracer.reset()
        with tracer:
            origin = time.perf_counter()
            result = guarded(checks, "traced unit", wl.run)
            traced = time.perf_counter() - origin
        if result is None:
            break
        guarded(checks, "check", lambda: wl.check(result, checks))
        if not per_unit:
            tracer.write_spans(work / "spans.csv.gz", origin)
        per_unit.append(tracing.layer_metrics(
            tracer.spans, tracer.counts, traced, untraced, wl.bytes_written()
        ))
    if not per_unit:
        return {}, {}
    metrics = tracing.median_metrics(per_unit)
    samples = {k: len(per_unit) for k in metrics}
    speedup = 0.0  # measured on simulate_scaled only
    if isinstance(wl, workloads.SimulateScaled):
        speedup = guarded(checks, "thread probe", lambda: threads2_speedup(wl, checks))
    if speedup is not None:
        metrics["montecarlo.threads2_speedup"] = speedup
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "seqdetect" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no seqdetect sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("SEQDETECT_THREADS", None)
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workloads.fresh(work)
    checks = workloads.Checks()

    def set_up():
        import_fresh()
        built = workloads.WORKLOADS[args.workload](args.seed, work)
        guarded(checks, "warm-up", built.warm_up)
        return built

    setups, raw = [], {"setup_s": [], "unit_wall_s": []}
    for _ in range(SETUP_REPEATS):
        wl, wall, scaled = at_nominal_speed(set_up, workloads.WORKLOADS[args.workload].speed_kernel)
        raw["setup_s"].append(wall)
        setups.append(scaled)

    if args.trace:
        metrics, samples = per_layer(wl, checks, args.seconds, work)
        wanted = spec["per_layer"]
    else:
        metrics, samples = end_to_end(wl, checks, args.seconds, setups, raw)
        wanted = spec["end_to_end"]

    report = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in metrics
    }
    correct = checks.failed == 0 and bool(report)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in report.items():
        n = samples.get(name)
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}"
              + (f"  (median of {n})" if n else ""))
    if not args.trace and "items_per_s" in report:
        print(f"  items are {wl.items_label}")
    if raw["unit_wall_s"]:
        print(f"  unit wall time as measured: median {statistics.median(raw['unit_wall_s']):.6g} s")
    print(f"  error_rate {checks.failed}/{checks.attempted} failed checks")
    for failure in checks.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    (work / "results.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {**v, "samples": samples.get(k)} for k, v in report.items()},
        "raw_wall_s": raw,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "environment": environment(),
        "inputs": sorted(str(p.relative_to(work)) for p in (work / "inputs").iterdir()),
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
