"""Compare a change's outputs with its parent commit's, value by value.

    python3 tools/compare_outputs.py [--seed N]

The parent, ``HEAD``, is exported with ``git archive`` into a
temporary directory outside the repository, which is removed afterwards; the
change is the working tree as it stands, uncommitted edits included.  Both
trees compute, each in fresh interpreters:

- a seeded case set: nine (family, functional) pairs at V in {1, 2, 5, 10,
  20, 1000} and η in {0.3, 1, per mode}, each with random angles as a curve
  of three displacements and as a single point, at the default tolerance and
  at each ``rel_tol`` of ``REL_TOLS``; then crossing displacements,
  ``evaluate_with_gradient`` at random angles (at V = 5 and η = 0.8, then at
  the wide V of ``WIDE_V_VALUES`` with per-mode η), the wide weights'
  crossings of ``WIDE_CROSSINGS`` and one ``optimize_angles`` run; then the
  refinement ladder's cases: w3 svetlichny3 at η = 0.7 with canonical
  angles, as a curve and as a point, at every ``rel_tol`` and V of
  ``LADDER``, which walk the delta rule, both Hermite passes, the composite
  tail, the wide ladder and nonconvergence.  Every number of an output is
  kept as its ``repr``.
- the CLI outputs of ``figure fig2`` to ``fig7`` as CSV and as JSON,
  ``validate``, ``validate --checks lr-bounds --flip-sign k`` for every
  term index k the flip accepts, the w3 ``scan --angles optimize`` as CSV
  and as JSON, a canonical ``scan --format json`` of every (family,
  functional) pair with stored angles, three V = 1 scans at η = 0.8, one
  ``scan --angles explicit`` with the canonical angles written out, and two
  scans that fail with exit
  status 1 (a pair with no stored angles, and V < 1), split into fields on
  commas and whitespace: each command's exit status, stdout, stderr and the
  files it writes.

For each output it prints ``identical``, or each value that moved with its
``repr`` before and after; then a summary line.  It exits 1 when anything
moved.  ``--emit-cases SEED`` prints one tree's case set as JSON (the tool
runs itself that way, once per tree).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import PARENT, ROOT, _export

# The term indices ``validate --flip-sign`` accepts: etsbell.validation's
# FLIPPABLE_TERMS, kept here so that importing the tool needs no etsbell.
FLIPPABLE_TERMS = 4

CLI_COMMANDS = {f"figure {name}{flags}": ["figure", name, *flags.split()]
                for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
                for flags in ("", " --format json")}
# validate, then each sign flip's mutation verdicts of the bound enumerator
CLI_COMMANDS["validate"] = ["validate"]
CLI_COMMANDS.update({
    f"validate --checks lr-bounds --flip-sign {k}": [
        "validate", "--checks", "lr-bounds", "--flip-sign", str(k)]
    for k in range(FLIPPABLE_TERMS)})
CLI_COMMANDS.update({
    "w3 scan --angles optimize": ["scan", "--family", "w3", "--inequality", "svetlichny3",
                                  "--V", "5", "--d", "1,3", "--angles", "optimize"],
    # the same scan as JSON, whose metadata carries the optimizer provenance
    "w3 scan --angles optimize --format json": [
        "scan", "--family", "w3", "--inequality", "svetlichny3", "--V", "5", "--d", "1,3",
        "--angles", "optimize", "--format", "json"],
    "ghz3-bs scan --format json": ["scan", "--family", "ghz3-bs", "--inequality",
                                   "svetlichny3", "--V", "1,5,100", "--d", "0.5,2,4",
                                   "--eta", "0.3,1", "--format", "json"],
})
# V = 1 scans at η = 0.8, where a mixture element's ± pair overlaps, and one
# scan with ghz3-cond's canonical svetlichny3 angles written out, whose CSV
# reads the same as the canonical scan's
CLI_COMMANDS.update({
    f"{family} {name} scan --V 1 --eta 0.8 --format json": [
        "scan", "--family", family, "--inequality", name, "--V", "1", "--d", "0.3,0.7,1",
        "--eta", "0.8", "--format", "json"]
    for family, name in (("ghz3-cond", "svetlichny3"), ("w3", "svetlichny3"),
                         ("cluster4-cond", "wwzb4"))})
CLI_COMMANDS["ghz3-cond svetlichny3 scan --angles explicit"] = [
    "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3", "--V", "5", "--d", "1,3",
    "--angles", "explicit", "--angle-list",
    "1.5707963267948966,2.356194490192345,1.5707963267948966,0.7853981633974483;"
    "1.5707963267948966,1.5707963267948966,1.5707963267948966,0;"
    "1.5707963267948966,0,1.5707963267948966,4.71238898038469"]
# Two flag errors, whose stderr names the cause
CLI_COMMANDS.update({
    "ghz3-kerr mermin3 scan (no canonical angles)": [
        "scan", "--family", "ghz3-kerr", "--inequality", "mermin3", "--V", "5", "--d", "1"],
    "ghz3-cond svetlichny3 scan (V < 1)": [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3", "--V", "0.5",
        "--d", "1"],
})
# Every other (family, functional) pair with canonical angles, scanned on the
# ghz3-bs grid and at V = 10⁶.
CLI_COMMANDS.update({
    f"{family} {name} scan --format json": [
        "scan", "--family", family, "--inequality", name, "--V", "1,5,100,1000000",
        "--d", "0.5,2,4", "--eta", "0.3,1", "--format", "json"]
    for family, name in (("ghz3-bs", "mermin3"), ("ghz3-cond", "svetlichny3"),
                         ("ghz3-cond", "mermin3"), ("ghz3-kerr", "svetlichny3"),
                         ("w3", "svetlichny3"), ("ghz4-cond", "svetlichny4"),
                         ("cluster4-cond", "wwzb4"), ("cluster4-xkerr", "wwzb4"),
                         ("cluster4-cond", "sasa"), ("cluster4-xkerr", "sasa"))})
PAIRS = (("ghz3-bs", "svetlichny3"), ("ghz3-cond", "svetlichny3"),
         ("ghz3-kerr", "svetlichny3"), ("w3", "svetlichny3"), ("w3", "mermin3"),
         ("ghz4-cond", "svetlichny4"), ("cluster4-cond", "wwzb4"),
         ("cluster4-cond", "sasa"), ("cluster4-xkerr", "sasa"))
V_VALUES = (1.0, 2.0, 5.0, 10.0, 20.0, 1000.0)
CROSSINGS = (("ghz3-cond", "svetlichny3"), ("ghz3-bs", "svetlichny3"),
             ("ghz4-cond", "svetlichny4"))
# Crossings and gradients at wide weights, where only the composite rule runs
WIDE_CROSSINGS = (("ghz3-kerr", "svetlichny3"), ("w3", "svetlichny3"))
WIDE_V_VALUES = (100.0, 1e4)
# Tolerances of the seeded curves and points, None for the default
REL_TOLS = (None, 1e-5, 1e-10)
# (rel_tol, V) of the ladder cases
LADDER = ((1e-7, 1e-12, 1e-16), (1.0, 5.0, 10.0, 1e6))
DEFAULT_SEED = 22


def _flat(result) -> list[str]:
    """Every number (or message) of a result, as its repr, in order."""
    from etsbell import NonconvergenceError, OptimizationResult

    if isinstance(result, NonconvergenceError):
        return [repr(str(result)), repr(result.value), repr(result.err_estimate)]
    if isinstance(result, Exception):
        return [f"{type(result).__name__}({str(result)!r})"]
    if isinstance(result, OptimizationResult):
        return _flat((result.value, result.angles, result.start_index,
                      result.evaluations, result.stalled))
    if hasattr(result, "theta"):
        return [repr(result.theta), repr(result.phase)]
    if isinstance(result, (tuple, list)) or hasattr(result, "tolist"):
        values = result.tolist() if hasattr(result, "tolist") else result
        return [text for item in values for text in _flat(item)]
    return [repr(result)]


def _cases(seed: int) -> list:
    """(label, thunk) per case, drawn in a fixed order from ``seed``."""
    import numpy as np

    from etsbell import (INEQUALITIES, DetectorModel, EffectiveRotation, FamilyKind,
                         QuadratureConfig, StateFamily, canonical_angles,
                         crossing_displacement, evaluate_curve_with_error,
                         evaluate_with_error, evaluate_with_gradient, optimize_angles)

    rng = np.random.default_rng(seed)
    cases = []
    for family, name in PAIRS:
        kind = FamilyKind(family)
        spec = INEQUALITIES[name]
        modes = StateFamily(kind, 1.0, 0.0).num_modes
        for V in V_VALUES:
            per_mode = tuple(float(e) for e in rng.uniform(0.4, 1.0, modes))
            for eta_label, eta in (("0.3", 0.3), ("1", 1.0), ("per-mode", per_mode)):
                angles = tuple(tuple(EffectiveRotation(*rng.uniform(0.0, 2.0 * math.pi, 2))
                                     for _ in range(count))
                               for count in spec.settings_per_party)
                ds = rng.uniform(0.05, 2.0 * math.sqrt(V), 4)
                curve = tuple(StateFamily(kind, V, float(d)) for d in np.sort(ds[:3]))
                point = StateFamily(kind, V, float(ds[3]))
                detector = DetectorModel(eta)
                for rel_tol in REL_TOLS:
                    config = None if rel_tol is None else QuadratureConfig(rel_tol=rel_tol)
                    label = f"{family}/{name}/V={V:g}/eta={eta_label}"
                    if rel_tol is not None:
                        label += f"/rel_tol={rel_tol:g}"
                    cases.append((f"{label}/curve",
                                  lambda s=spec, c=curve, a=angles, t=detector, q=config:
                                  evaluate_curve_with_error(s, c, a, t, q)))
                    cases.append((f"{label}/point",
                                  lambda s=spec, p=point, a=angles, t=detector, q=config:
                                  evaluate_with_error(s, p, a, t, q)))
    for family, name in CROSSINGS:
        for V in (1.0, 5.0, 100.0):
            for eta in (0.8, 1.0):
                cases.append((f"crossing/{family}/{name}/V={V:g}/eta={eta:g}",
                              lambda k=FamilyKind(family), s=INEQUALITIES[name], V=V, e=eta:
                              crossing_displacement(k, s, V, e)))
    gradient_detector = DetectorModel(0.8)
    for family, name in PAIRS:
        spec = INEQUALITIES[name]
        x = rng.uniform(0.0, 2.0 * math.pi, 2 * sum(spec.settings_per_party))
        state = StateFamily(FamilyKind(family), 5.0, float(rng.uniform(0.5, 3.0)))
        cases.append((f"gradient/{family}/{name}/V=5",
                      lambda s=spec, f=state, x=x: evaluate_with_gradient(s, f, x,
                                                                          gradient_detector)))
    for family, name in WIDE_CROSSINGS:
        for V in WIDE_V_VALUES:
            for eta in (0.8, 1.0):
                cases.append((f"crossing/{family}/{name}/V={V:g}/eta={eta:g}",
                              lambda k=FamilyKind(family), s=INEQUALITIES[name], V=V, e=eta:
                              crossing_displacement(k, s, V, e)))
    for family, name in PAIRS:
        spec = INEQUALITIES[name]
        kind = FamilyKind(family)
        for V in WIDE_V_VALUES:
            x = rng.uniform(0.0, 2.0 * math.pi, 2 * sum(spec.settings_per_party))
            state = StateFamily(kind, V, float(rng.uniform(0.05, 2.0 * math.sqrt(V))))
            detector = DetectorModel(tuple(float(e) for e in
                                           rng.uniform(0.4, 1.0, state.num_modes)))
            cases.append((f"gradient/{family}/{name}/V={V:g}/eta=per-mode",
                          lambda s=spec, f=state, x=x, t=detector:
                          evaluate_with_gradient(s, f, x, t)))
    cases.append(("optimize/ghz3-kerr/svetlichny3/V=5",
                  lambda: optimize_angles(INEQUALITIES["svetlichny3"],
                                          StateFamily(FamilyKind.GHZ3_KERR, 5.0, 2.0),
                                          DetectorModel(0.9), restarts=2)))
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.W3).angles
    detector = DetectorModel(0.7)
    for rel_tol, V in itertools.product(*LADDER):
        config = QuadratureConfig(rel_tol=rel_tol)
        curve = tuple(StateFamily(FamilyKind.W3, V, d * math.sqrt(V)) for d in (0.5, 1.0, 2.0))
        label = f"ladder/w3/svetlichny3/rel_tol={rel_tol:g}/V={V:g}"
        cases.append((f"{label}/curve", lambda c=curve, q=config:
                      evaluate_curve_with_error(spec, c, angles, detector, q)))
        cases.append((f"{label}/point", lambda p=curve[1], q=config:
                      evaluate_with_error(spec, p, angles, detector, q)))
    return cases


def seeded_cases(seed: int, limit: int | None = None) -> dict[str, list]:
    """The first ``limit`` (default all) cases of ``seed``, computed with the
    importable ``etsbell``: label -> [[where, repr], ...]."""
    from etsbell import EtsError

    outputs = {}
    for label, thunk in _cases(seed)[:limit]:
        try:
            result = thunk()
        except EtsError as exc:
            result = exc
        outputs[label] = [[f"value {k}", text] for k, text in enumerate(_flat(result))]
    return outputs


def split_output(text: str) -> list:
    """A CLI output's fields, split on commas and whitespace, as [[where, text], ...]."""
    return [[f"line {i + 1} field {j + 1}", field]
            for i, line in enumerate(text.splitlines())
            for j, field in enumerate(re.split(r"[,\s]+", line.strip()))]


def differences(before: dict, after: dict) -> dict[str, list[str]]:
    """Per output label of either side, the values that moved (empty when identical)."""
    moved = {}
    for label in dict.fromkeys([*before, *after]):
        old = dict(before.get(label, []))
        new = dict(after.get(label, []))
        lines = [f"{where}: {old.get(where, '(absent)')} -> {new.get(where, '(absent)')}"
                 for where in dict.fromkeys([*old, *new]) if old.get(where) != new.get(where)]
        if label not in before or label not in after:
            lines.insert(0, "absent before" if label not in before else "absent after")
        moved[label] = lines
    return moved


def report(moved: dict[str, list[str]]) -> str:
    lines = []
    for label, changes in moved.items():
        if not changes:
            lines.append(f"{label}: identical")
        else:
            lines.append(f"{label}: {len(changes)} moved")
            lines.extend(f"  {change}" for change in changes)
    changed = sum(1 for changes in moved.values() if changes)
    lines.append(f"summary: {len(moved) - changed} of {len(moved)} outputs identical, "
                 f"{changed} moved")
    return "\n".join(lines)


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")


def _tree_outputs(checkout: Path, cwd: Path, seed: int) -> dict:
    """One tree's case set and CLI outputs, each run in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit-cases",
                           str(seed)], cwd=cwd, env=_env(checkout), capture_output=True,
                          text=True, check=True)
    outputs = {f"case {label}": values for label, values in json.loads(done.stdout).items()}
    for name, argv in CLI_COMMANDS.items():
        run_dir = cwd / re.sub(r"\W+", "-", name)
        run_dir.mkdir()
        done = subprocess.run([sys.executable, "-m", "etsbell.cli", *argv], cwd=run_dir,
                              env=_env(checkout), capture_output=True, text=True)
        outputs[f"cli {name}: exit status"] = [["status", repr(done.returncode)]]
        outputs[f"cli {name}: stdout"] = split_output(done.stdout)
        outputs[f"cli {name}: stderr"] = split_output(done.stderr)
        for path in sorted(run_dir.iterdir()):
            outputs[f"cli {name}: {path.name}"] = split_output(path.read_text())
        shutil.rmtree(run_dir)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--emit-cases", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit_cases is not None:
        print(json.dumps(seeded_cases(args.emit_cases)))
        return 0
    scratch = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    try:
        parent = scratch / "parent"
        parent.mkdir()
        commit = _export(PARENT, parent)
        sides = []
        for side, checkout in (("parent", parent), ("change", ROOT)):
            cwd = scratch / f"cwd-{side}"
            cwd.mkdir()
            sides.append(_tree_outputs(checkout, cwd, args.seed))
    finally:
        shutil.rmtree(scratch)
    moved = differences(*sides)
    print(f"parent {commit}")
    print(report(moved))
    return 1 if any(moved.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
