"""Self-check registry plumbing; the full battery runs in test_acceptance."""

import pytest

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
