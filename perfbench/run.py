"""Benchmark of the etsbell quadrature engine on three workloads.

    python3 perfbench/run.py --workload narrow|wide|optimize --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` warms up with one first call, repeats the job list
for about S seconds and reports the end-to-end metrics: each time is the
median over passes, on the narrow and optimize workloads scaled to a
reference host speed (see laps.py).
``--trace 1`` makes one warm-up pass, times one untraced pass, then at least
two traced passes, and reports the per-layer metrics (see README.md).  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from laps import REFERENCE_BURST_S, Laps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("narrow", "wide", "optimize")
SETUP_SPAWNS = 7
SETUP_BURSTS = 5
# Passes an end-to-end run makes even when they overrun --seconds.
MIN_PASSES = 3
# The optimizer's objective: the end-to-end timing splits the optimize job
# at its calls, so that calibration bursts fall inside the job (see laps.py).
SPLIT_AT = ("etsbell.inequalities", "evaluate")
# What every CLI invocation pays before its first result: importing the
# package and the first call, which fills the lazy quadrature-rule caches.
FIRST_CALL = ["scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
              "--V", "5", "--d", "2"]
# Prints the seconds it took and, for scaling them, the median of calibration
# bursts run right after (see laps.py); argv[1] is this directory.
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from etsbell.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "seconds = time.perf_counter() - t0\n"
    "import statistics\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from laps import calibration_burst\n"
    f"burst = statistics.median(calibration_burst()[0] for _ in range({SETUP_BURSTS}))\n"
    "print(seconds, burst)\n"
    "sys.exit(code)\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment() -> int:
    """One etsbell worker per usable core, single-threaded BLAS/OpenMP."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["ETS_THREADS"] = str(nproc)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    return nproc


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (SRC / "etsbell").rglob("*.py"))


def _setup_seconds(tmp: Path) -> tuple[list[float], list[float]]:
    """Import plus first call, each in a fresh interpreter: raw and scaled seconds."""
    raw, scaled = [], []
    for k in range(SETUP_SPAWNS):
        argv = FIRST_CALL + ["--out", str(tmp / f"setup-{k}.csv")]
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), *argv],
                              capture_output=True, text=True, timeout=120, cwd=tmp,
                              check=True)
        seconds, burst = (float(x) for x in done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_BURST_S / burst)
    return raw, scaled


def _run_pass(jobs, call, tmp: Path, laps: Laps):
    """One pass over the job list: wall and CPU seconds, and each job's raw output."""
    raws = []
    laps.start()
    for job in jobs:
        try:
            raws.append(job.run(call, tmp))
        except Exception as exc:  # the pass goes on; the operation counts as failed
            raws.append(exc)
        laps.lap()
    wall, cpu = laps.stop()
    return wall, cpu, raws


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _measure(jobs, call, tmp, seconds, ledger, laps=None, minimum=1, stop_after=None):
    """Repeat the job list while another pass still fits in ``seconds``."""
    laps = laps or Laps(calibrate=False)
    samples = []
    start = time.perf_counter()
    while True:
        wall, cpu, raws = _run_pass(jobs, call, tmp, laps)
        if stop_after is not None:
            stop_after()
        for job, raw in zip(jobs, raws):
            ledger.record(job.outcomes(raw))
        samples.append((wall, cpu))
        elapsed = time.perf_counter() - start
        if len(samples) >= minimum and elapsed + wall > seconds:
            return samples


def _end_to_end(jobs, tmp, seconds, ledger, calibrate: bool) -> dict:
    raw_setup, setup = _setup_seconds(tmp)
    laps = Laps(calibrate=calibrate)
    laps.split_at(importlib.import_module(SPLIT_AT[0]), SPLIT_AT[1])
    try:
        samples = _measure(jobs, _plain_call, tmp, seconds, ledger, laps,
                           minimum=MIN_PASSES)
    finally:
        laps.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {
            "run_s": (statistics.median(w for w, _c in laps.scaled), "s"),
            "cpu_s": (statistics.median(c for _w, c in laps.scaled), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "passes": len(samples),
        "run_s_samples": [w for w, _c in laps.scaled],
        "raw_run_s_samples": [w for w, _c in samples],
        "raw_run_s": statistics.median(w for w, _c in samples),
        "raw_cpu_s": statistics.median(c for _w, c in samples),
        "bursts": len(laps.bursts),
        "burst_median_s": statistics.median(w for w, _c in laps.bursts) if laps.bursts else None,
        "burst_cpu_median_s": statistics.median(c for _w, c in laps.bursts) if laps.bursts else None,
        "setup_s_samples": setup,
        "raw_setup_s_samples": raw_setup,
    }


def _per_layer(jobs, tmp, seconds, ledger, nproc) -> dict:
    import layers
    from spans import Tracer

    start = time.perf_counter()
    untraced = _measure(jobs, _plain_call, tmp, 0.0, ledger)[0][0]
    tracer = Tracer()
    layers.install(tracer)
    per_pass = []

    def collect():
        tracer.active = False
        per_pass.append(layers.pass_metrics(tracer.drain(), nproc))

    def traced_call(name, fn, *args, **kwargs):
        tracer.active = True
        return tracer.call(name, fn, *args, **kwargs)

    try:
        remaining = seconds - (time.perf_counter() - start)
        samples = _measure(jobs, traced_call, tmp, remaining, ledger, minimum=2,
                           stop_after=collect)
    finally:
        tracer.close()

    lacking = layers.unavailable(tracer.missing)
    metrics = {}
    unsteady = []
    for name, (unit, _spans) in layers.METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "count" and len(set(values)) != 1:
            unsteady.append(name)
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = (None if name in lacking else value, unit)
    traced = statistics.median(w for w, _c in samples)
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return {
        "metrics": metrics,
        "passes": len(samples),
        "untraced_run_s": untraced,
        "counts_differ_between_passes": unsteady,
        "missing": lacking,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "etsbell" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no etsbell sources at {SRC / 'etsbell'}\n")
        return 2
    nproc = _pin_environment()
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import etsbell
    import etsbell.cli
    import workloads

    if Path(etsbell.__file__).resolve().parent != (SRC / "etsbell").resolve():
        sys.stderr.write(f"perfbench: imported etsbell from {etsbell.__file__}, not {SRC}\n")
        return 2

    jobs = workloads.build(args.workload, args.seed)
    ledger = workloads.Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpname:
        tmp = Path(tmpname)
        if args.trace:
            _measure(jobs, _plain_call, tmp, 0.0, ledger)  # warm-up pass, checked but not timed
            result = _per_layer(jobs, tmp, args.seconds, ledger, nproc)
        else:
            # Fills the lazy caches before any pass is timed.
            etsbell.cli.main(FIRST_CALL + ["--out", str(tmp / "warm-up.csv")])
            result = _end_to_end(jobs, tmp, args.seconds, ledger,
                                 args.workload in workloads.CALIBRATED)

    correct = ledger.failed == 0 and not result.get("counts_differ_between_passes")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": result["passes"],
        "src_lines": _src_lines(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        **{k: v for k, v in result.items() if k not in ("metrics", "passes")},
        "failures": ledger.failures[:20],
    }
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value if value is None else f'{value:.6g}'} {unit}")
    print(f"failed_frac {report['failed_frac']:.6g} fraction "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
