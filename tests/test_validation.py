"""Self-check registry plumbing; the full battery runs in test_acceptance."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etsbell
from etsbell import validation
from etsbell.integration import converged_correlation
from etsbell.measurement import DetectorModel, EffectiveRotation
from etsbell.oracles import ghz_correlation_closed
from etsbell.states import FamilyKind, StateFamily
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


def test_ghz_reference_grid_is_six_curves_with_the_bits_of_lone_points(monkeypatch):
    # one curve in d per (V, η) cell, the five phase triples its terms; each
    # engine value equals a lone single-term estimate bit for bit
    calls = []
    estimate_curve = validation.estimate_curve

    def spy(curve, *args):
        calls.append(len(curve))
        return estimate_curve(curve, *args)

    monkeypatch.setattr(validation, "estimate_curve", spy)
    validation._ghz_reference_pairs.cache_clear()
    try:
        pairs = validation._ghz_reference_pairs()
    finally:
        validation._ghz_reference_pairs.cache_clear()
    assert calls == [4] * 6
    rng = np.random.default_rng(validation._GRID_SEED)
    triples = [tuple(rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(5)]
    grid = list(itertools.product((1.0, 5.0, 10.0), (0.3, 1.0), (0.5, 1.0, 2.0, 5.0), triples))
    assert len(pairs) == len(grid) == 120
    for i in np.random.default_rng(7).choice(len(grid), 24, replace=False):
        V, eta, d, phases = grid[i]
        rotations = [EffectiveRotation(math.pi / 2.0, p) for p in phases]
        lone = converged_correlation(StateFamily(FamilyKind.GHZ3_CONDITIONAL, V, d),
                                     rotations, DetectorModel(eta))
        assert pairs[i] == (lone, ghz_correlation_closed(V, d, phases, eta)), grid[i]
