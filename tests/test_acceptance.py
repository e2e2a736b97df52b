"""Acceptance battery: every shipped claim, one pass/fail line each.

Each test drives one registered self-check end to end at its stated
tolerance and prints a single summary line, so a verbose run reads as a
checklist of the package's headline guarantees.
"""

import pytest

from etsbell.validation import run_checks

CRITERIA = (
    "ghz-oracle-agreement",
    "svetlichny3-plateau",
    "w-plateau",
    "svetlichny4-plateau",
    "sasa-exactness",
    "wwzb-plateau",
    "tripartite-scheme-ordering",
    "cluster-scheme-ordering",
    "inefficiency-substitution",
    "lr-bounds",
    "kerr-violation-exists",
    "numerical-kernels",
)


@pytest.mark.parametrize(
    "number,name",
    [(k + 1, name) for k, name in enumerate(CRITERIA)],
    ids=[f"criterion-{k + 1:02d}-{name}" for k, name in enumerate(CRITERIA)])
def test_acceptance_criterion(number, name, capsys):
    result, = run_checks([name])
    assert result.name == name
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"{status} criterion {number:2d} [{name}]: {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
