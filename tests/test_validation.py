"""Self-check registry plumbing; the full battery runs in test_acceptance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import etsbell
from etsbell.validation import CHECKS, CheckResult, run_checks


def test_registry_names():
    assert sorted(CHECKS) == [
        "cluster-scheme-ordering",
        "ghz-oracle-agreement",
        "inefficiency-substitution",
        "kerr-violation-exists",
        "lr-bounds",
        "numerical-kernels",
        "sasa-exactness",
        "svetlichny3-plateau",
        "svetlichny4-plateau",
        "tripartite-scheme-ordering",
        "w-plateau",
        "wwzb-plateau",
    ]


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_checks(["bogus"])
    # a bare string is one name, not the names of its letters
    with pytest.raises(TypeError, match="not the string 'lr-bounds'"):
        run_checks("lr-bounds")


def test_single_check_returns_result():
    results = run_checks(["lr-bounds"])
    assert len(results) == 1
    result = results[0]
    assert isinstance(result, CheckResult)
    assert result.name == "lr-bounds"
    assert result.passed
    assert result.detail


def test_flip_term_defeats_bound_check():
    results = run_checks(["lr-bounds"], flip_term=0)
    assert not results[0].passed


def test_flip_term_out_of_range_fails_clearly():
    with pytest.raises(ValueError, match="flip_term must lie in"):
        run_checks(["lr-bounds"], flip_term=-1)


def test_crossing_checks_leave_scipy_unloaded():
    # both closed-form roots of sasa-exactness and the four engine crossings
    # of each ordering check are found without scipy, in a fresh interpreter,
    # and numerical-kernels tests the engine's own numpy kernels
    src = str(Path(etsbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import sys\n"
        "from etsbell.validation import run_checks\n"
        "results = run_checks(['sasa-exactness', 'tripartite-scheme-ordering',\n"
        "                      'cluster-scheme-ordering', 'numerical-kernels'])\n"
        "print([r.passed for r in results])\n"
        "print(results[0].detail.split(', ')[-1])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "[True, True, True, True]", "V=1e3 crossing 21.16 < 50 < saturation 53.50: True", "[]"]
