"""Benchmark a change against its parent commit and write ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --number N [--out PATH]

The parent, ``HEAD``, is exported with ``git archive`` into a
temporary directory outside the repository, and the change, the working tree
as it stands (uncommitted edits and untracked files that git does not ignore
included), is copied into another; both are removed afterwards.  So both
sides run from fresh directories alike.  For each
workload of ``BENCHMARK.json``, ``perfbench/run.py --trace 0 --seed 5``
runs for the benchmark's ``run_seconds`` on both sides in ten alternating
pairs (pair k runs the parent first when k is even), each from a
working directory outside both checkouts.  Then each side makes one
``--trace 1`` run per workload, runs the tier-1 suite once, and times
``validate``, the w3 optimize scan and ``figure fig3``, ``fig4`` and ``fig7``
in seven fresh interpreters each, alternating.

The file holds, per workload and end-to-end metric, both sides' medians,
quartiles and the pairs the change won, every run's final JSON line, the
traced runs' results, and the host's core count and versions.  Nothing under
``perfbench/`` is changed.  A run that fails or does not end in a JSON result
line stops the tool with its output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL_COMMANDS = {
    "validate": ["validate"],
    "w3_optimize_scan": ["scan", "--family", "w3", "--inequality", "svetlichny3",
                         "--V", "5", "--d", "1,3", "--angles", "optimize"],
    # each writes <name>.csv into the working directory, which is removed
    "figure_fig3": ["figure", "fig3"],
    "figure_fig4": ["figure", "fig4"],
    "figure_fig7": ["figure", "fig7"],
}
SIDES = ("parent", "change")
PARENT = "HEAD"
PAIRS = 10
SEED = 5
WALL_RUNS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<n>.json in the repository)")
    return parser.parse_args(argv)


def _export(revision: str, into: Path) -> str:
    """Write ``revision``'s files into ``into``; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _copy_worktree(into: Path) -> None:
    """Copy the working tree's files that git tracks or does not ignore, as
    they are on disk, into ``into``; a tracked file deleted on disk is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode().split("\0")
    for name in dict.fromkeys(filter(None, listed)):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def _bench(checkout: Path, cwd: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its final JSON line and its report line."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(BENCHMARK["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        if done.returncode:
            raise ValueError(f"exit status {done.returncode}")
        result = json.loads(lines[-1])
        report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    except (ValueError, IndexError, StopIteration) as exc:
        sys.stderr.write(f"bench_pairs: {' '.join(argv)} gave no result ({exc})\n"
                         f"{done.stdout}{done.stderr}")
        raise SystemExit(1) from None
    return result, report


def _tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    counts = {name: int(n) for n, name in re.findall(r"(\d+) (passed|failed|error)",
                                                        done.stdout.splitlines()[-1])}
    return {**counts, "seconds": round(seconds, 2)}


def _wall(checkout: Path, cwd: Path, command: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "etsbell.cli", *command], cwd=cwd, env=env,
                   capture_output=True, check=True)
    return round(time.perf_counter() - start, 3)


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _summaries(runs: dict) -> tuple[dict, dict]:
    """Per workload and end-to-end metric: the medians, and the quartiles,
    the pairs the change won and the ratio of medians."""
    medians, summary = {}, {}
    for workload, sides in runs.items():
        medians[workload], summary[workload] = {}, {}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = {side: [run["metrics"][name]["value"] for run in sides[side]]
                      for side in SIDES}
            middle = {side: statistics.median(values[side]) for side in SIDES}
            lower = metric["better"] == "lower"
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            (pq1, pq3), (cq1, cq3) = (_quartiles(values[side]) for side in SIDES)
            medians[workload][name] = middle
            summary[workload][name] = {
                "parent_q1": pq1, "parent_q3": pq3, "change_q1": cq1, "change_q3": cq3,
                "change_wins": wins, "pairs": len(values["parent"]),
                "change_over_parent": middle["change"] / middle["parent"],
            }
    return medians, summary


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_dir = scratch / "parent"
        parent_dir.mkdir()
        commit = _export(PARENT, parent_dir)
        change_dir = scratch / "change"
        change_dir.mkdir()
        _copy_worktree(change_dir)
        cwd = scratch / "cwd"
        cwd.mkdir()
        checkouts = {"parent": parent_dir, "change": change_dir}
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        reports = {}
        for workload in workloads:
            for k in range(PAIRS):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    result, reports[side] = _bench(checkouts[side], cwd, workload, 0)
                    runs[workload][side].append(result)
                    print(f"{workload} pair {k} {side} "
                          f"run_s {result['metrics']['run_s']['value']:.6g}", flush=True)
        trace = {}
        for workload in workloads:
            trace[workload] = {}
            for side in SIDES:
                result, _report = _bench(checkouts[side], cwd, workload, 1)
                trace[workload][side] = {
                    "ends_in_json_result": True,
                    **{key: result[key] for key in ("correct", "attempted", "failed")},
                    **{name: m["value"] for name, m in result["metrics"].items()},
                }
        tier1 = {side: _tier1(checkouts[side]) for side in SIDES}
        wall = {}
        for name, command in WALL_COMMANDS.items():
            times = {side: [] for side in SIDES}
            for k in range(WALL_RUNS):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    times[side].append(_wall(checkouts[side], cwd, command))
            wall[name] = {**times, "median": {side: statistics.median(times[side])
                                              for side in SIDES}}
    finally:
        shutil.rmtree(scratch)

    medians, summary = _summaries(runs)
    host = reports["change"]
    document = {
        "description": (
            f"perfbench end-to-end runs at the parent commit ({commit[:7]}) and at this change, "
            "each exported or copied into a fresh directory, "
            f"each entry the final JSON line of `python3 perfbench/run.py --workload W --seed "
            f"{SEED} --seconds {BENCHMARK['run_seconds']} --trace 0` run from a working directory "
            f"outside both checkouts, {PAIRS} pairs per workload alternating which side "
            "runs first (pair k runs the parent first when k is even). `summary` gives each "
            "side's quartiles, the pairs the change won and the ratio of medians. src_lines is "
            "the line count of src/etsbell as the benchmark's report line counts it. tier1 is "
            "the test count of `python -m pytest -q` in each checkout, with its wall time from "
            f"one run each. `trace` holds one `--trace 1` run per side at seed {SEED}, "
            "its result and every metric. `wall` holds fresh-interpreter wall times of "
            "`python -m etsbell.cli validate`, of `scan --family w3 --inequality "
            "svetlichny3 --V 5 --d 1,3 --angles optimize` and of `figure fig3`, `fig4` and "
            f"`fig7`, {WALL_RUNS} alternating runs per side. Written by tools/bench_pairs.py."),
        "host": {key: host[key] for key in ("nproc", "python", "numpy", "scipy")},
        "src_lines": {side: reports[side]["src_lines"] for side in SIDES},
        "tier1": tier1,
        "medians": medians,
        "summary": summary,
        "runs": runs,
        "trace": trace,
        "wall": wall,
    }
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
