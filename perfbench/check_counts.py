"""Exact counts repeat between two traced runs of the same code and seed.

Run explicitly (the name keeps it out of the default test run; a few minutes):

    python3 -m pytest -q perfbench/check_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
# The counts a later change may cite; every other count is compared as well.
NAMED = ("inequalities.objective_evals", "integration.passes", "integration.nodes",
         "sweeps.points")


def _traced(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["narrow", "wide", "optimize"])
def test_counts_repeat_exactly(workload):
    first = _traced(workload)
    second = _traced(workload)
    assert set(NAMED) <= set(first)
    assert first == second
