"""The three workloads: job lists drawn from a seed, and checks on their outputs.

An operation is one scan row (a grid point), one crossing search or one
optimizer run.  It fails when it raises, returns NaN, misses its reference,
or prints other bytes than the same operation did in the first pass of the
run.  References are the closed forms in ``etsbell.oracles`` where one
exists, and otherwise values frozen from the seed commit in
``reference.json`` (written by ``make_reference.py``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

import etsbell.cli
import etsbell.inequalities
import etsbell.sweeps
from etsbell import (INEQUALITIES, FamilyKind, QuadratureConfig, StateFamily, evaluate,
                     svetlichny_ghz4_closed, svetlichny_ghz_closed)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A row passes when |value - reference| <= err + reference err + FLOOR.  The
# floor sits above the CLI's 12-significant-digit rounding (<= 6e-11 for
# values up to 8√2) and the engine's agreement with the closed forms at the
# seed commit (<= 2e-10), and far below any physically meaningful change.
FLOOR = 1e-8
# Bisection stops once its bracket is 1e-3 wide and returns the midpoint.
CROSSING_TOL = 2e-3
# The optimizer objective converges each correlation to rel_tol 1e-5; eight
# terms bound the best value's distance from 4√2 well inside 1e-4.
OPTIMUM_TOL = 1e-4
REEVALUATION_TOL = 1e-6

FIG3_FAMILIES = ("ghz3-bs", "ghz3-cond")
FIG3_V = (5.0, 10.0)
FIG3_ETA = 0.3
FIG3_PICKS = 10
FIG7_PICKS = 15
CROSSING_V = 5.0
WIDE_V = (100.0, 1000.0)
# Every d here keeps the composite rule within 5% of one node count (936-984
# per axis at the level where refinement stops), so the seed moves the inputs
# without moving the cost.
WIDE_D_POOL = tuple(float(d) for d in range(3, 37, 3))
KERR_V = 5.0
KERR_D = 5.0 * math.sqrt(5.0)
OPTIMIZER_CONFIG = QuadratureConfig(rel_tol=1e-5)

CLOSED_FORMS = {
    ("ghz3-cond", "svetlichny3"): svetlichny_ghz_closed,
    ("ghz4-cond", "svetlichny4"): svetlichny_ghz4_closed,
}


def figure_d_grid(V: float) -> np.ndarray:
    """The 60 log-spaced displacements `etsbell figure` uses for one V."""
    return np.geomspace(0.1, 10.0 * math.sqrt(V), 60)


def reference_key(family: str, inequality: str, eta: float, V: float) -> str:
    return f"{family}/{inequality}/eta={eta:g}/V={V:g}"


def crossing_key(family: str) -> str:
    return "crossing/" + reference_key(family, "svetlichny3", FIG3_ETA, CROSSING_V)


def _stratified(rng: np.random.Generator, size: int, picks: int) -> list[int]:
    """One index from each of ``picks`` equal blocks, so cost barely varies by seed."""
    block = size // picks
    return [b * block + int(rng.integers(block)) for b in range(picks)]


@dataclass(frozen=True)
class Outcome:
    label: str
    output: str
    ok: bool


class Ledger:
    """Operations attempted and failed, compared against the run's first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.failures: list[str] = []

    def record(self, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            self.attempted += 1
            expected = self.first.setdefault(outcome.label, outcome.output)
            if not outcome.ok or outcome.output != expected:
                self.failed += 1
                self.failures.append(f"{outcome.label}: {outcome.output}")


class Job:
    """One operation or a batch of them; a raised exception fails each one."""

    def labels(self) -> list[str]:
        return [self.label]

    def outcomes(self, raw) -> list[Outcome]:
        if isinstance(raw, Exception):
            return [Outcome(label, f"raised {raw!r}", False) for label in self.labels()]
        return self.check(raw)


class Scan(Job):
    """One `etsbell scan` invocation through ``etsbell.cli.main``."""

    def __init__(self, label, family, inequality, V_values, d_values, eta, refs):
        self.label = label
        self.family = family
        self.inequality = inequality
        self.V_values = tuple(float(v) for v in V_values)
        self.d_values = tuple(float(d) for d in d_values)
        self.eta = float(eta)
        self.refs = refs
        self.lr_bound = INEQUALITIES[inequality].lr_bound

    def run(self, call, tmp: Path):
        out = tmp / f"{self.label}.csv"
        out.unlink(missing_ok=True)
        argv = ["scan", "--family", self.family, "--inequality", self.inequality,
                "--V", ",".join(repr(v) for v in self.V_values),
                "--d", ",".join(repr(d) for d in self.d_values),
                "--eta", repr(self.eta), "--out", str(out)]
        code = call("cli.main", etsbell.cli.main, argv)
        return code, out.read_text() if out.exists() else ""

    def labels(self) -> list[str]:
        return [f"{self.label}#{k}" for k in range(len(self.refs))]

    def check(self, raw) -> list[Outcome]:
        code, text = raw
        lines = text.splitlines()[1:]
        points = [(V, d) for V in self.V_values for d in self.d_values]
        outcomes = []
        for k, (label, (V, d), (ref, ref_err)) in enumerate(
                zip(self.labels(), points, self.refs)):
            line = lines[k] if k < len(lines) else ""
            ok = (code == 0 and len(lines) == len(points)
                  and self._row_ok(line, V, d, ref, ref_err))
            outcomes.append(Outcome(label, line, ok))
        return outcomes

    def _row_ok(self, line: str, V: float, d: float, ref: float, ref_err: float) -> bool:
        fields = next(csv.reader([line]), [])
        if len(fields) != 10 or fields[:2] != [self.family, self.inequality]:
            return False
        try:
            row_V, row_d, row_eta, value, err = (float(f) for f in fields[2:7])
        except ValueError:
            return False
        if any(abs(a - b) > 1e-9 * max(1.0, abs(b))
               for a, b in ((row_V, V), (row_d, d), (row_eta, self.eta))):
            return False
        if not (math.isfinite(value) and math.isfinite(err)):
            return False
        if abs(value - ref) > err + ref_err + FLOOR:
            return False
        violated = fields[9] == "true"
        if abs(value - self.lr_bound) > err and violated != (ref > self.lr_bound):
            return False
        return True


class Crossing(Job):
    """``crossing_displacement`` for a fig3 family at V=5, η=0.3."""

    def __init__(self, family: str, reference: float):
        self.label = f"crossing-{family}"
        self.kind = FamilyKind(family)
        self.reference = reference

    def run(self, call, tmp: Path):
        return call("sweeps.crossing_displacement", etsbell.sweeps.crossing_displacement,
                    self.kind, INEQUALITIES["svetlichny3"], CROSSING_V, FIG3_ETA)

    def check(self, raw) -> list[Outcome]:
        ok = math.isfinite(raw) and abs(raw - self.reference) <= CROSSING_TOL
        return [Outcome(self.label, repr(raw), ok)]


class Optimize(Job):
    """``optimize_angles`` at the ghz3-kerr point of ``kerr-violation-exists``."""

    label = "optimize-ghz3-kerr"

    def __init__(self):
        self.family = StateFamily(FamilyKind.GHZ3_KERR, V=KERR_V, d=KERR_D)

    def run(self, call, tmp: Path):
        # One restart: the canonical-seeded start, which draws nothing at
        # random, so this job is the same for every seed.
        return call("inequalities.optimize_angles", etsbell.inequalities.optimize_angles,
                    INEQUALITIES["svetlichny3"], self.family, restarts=1)

    def check(self, raw) -> list[Outcome]:
        spec = INEQUALITIES["svetlichny3"]
        again = evaluate(spec, self.family, raw.angles, None, OPTIMIZER_CONFIG)
        ok = (abs(raw.value - spec.quantum_max) <= OPTIMUM_TOL
              and abs(again - raw.value) <= REEVALUATION_TOL)
        flat = [(r.theta, r.phase) for party in raw.angles for r in party]
        return [Outcome(self.label, repr((raw.value, flat)), ok)]


def _load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _refs(reference: dict, family: str, inequality: str, eta: float,
          points: list[tuple[float, float, int]]) -> list[tuple[float, float]]:
    """Reference (value, err) per (V, d, index into the frozen grid or pool)."""
    closed = CLOSED_FORMS.get((family, inequality))
    if closed is not None:
        return [(closed(V, d, eta), 0.0) for V, d, _i in points]
    return [tuple(reference[reference_key(family, inequality, eta, V)][i])
            for V, _d, i in points]


def _crossing_reference(reference: dict, family: str) -> float:
    if family == "ghz3-cond":
        return brentq(lambda d: svetlichny_ghz_closed(CROSSING_V, d, FIG3_ETA)
                      - INEQUALITIES["svetlichny3"].lr_bound,
                      1e-6, 20.0 * math.sqrt(CROSSING_V), xtol=1e-12)
    return reference[crossing_key(family)]


def narrow(seed: int, reference: dict) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for family in FIG3_FAMILIES:
        for V in FIG3_V:
            grid = figure_d_grid(V)
            picks = _stratified(rng, grid.size, FIG3_PICKS)
            refs = _refs(reference, family, "svetlichny3", FIG3_ETA,
                         [(V, float(grid[i]), i) for i in picks])
            jobs.append(Scan(f"fig3-{family}-V{V:g}", family, "svetlichny3", (V,),
                             grid[picks], FIG3_ETA, refs))
    grid = figure_d_grid(1.0)
    picks = _stratified(rng, grid.size, FIG7_PICKS)
    refs = _refs(reference, "cluster4-cond", "wwzb4", 1.0,
                 [(1.0, float(grid[i]), i) for i in picks])
    jobs.append(Scan("fig7-cluster4-cond-V1", "cluster4-cond", "wwzb4", (1.0,),
                     grid[picks], 1.0, refs))
    for family in FIG3_FAMILIES:
        jobs.append(Crossing(family, _crossing_reference(reference, family)))
    return jobs


def wide(seed: int, reference: dict) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for family, inequality in (("w3", "svetlichny3"), ("ghz4-cond", "svetlichny4")):
        i = int(rng.integers(len(WIDE_D_POOL)))
        d = WIDE_D_POOL[i]
        refs = _refs(reference, family, inequality, 1.0, [(V, d, i) for V in WIDE_V])
        jobs.append(Scan(f"wide-{family}", family, inequality, WIDE_V, (d,), 1.0, refs))
    return jobs


def optimize(seed: int, reference: dict) -> list:
    return [Optimize()]


WORKLOADS = {"narrow": narrow, "wide": wide, "optimize": optimize}
# Workloads whose end-to-end times are scaled to a reference host speed by
# calibration bursts between segments (see laps.py).  Their jobs, or the
# optimizer's objective calls, last tenths of a second, so bursts come often
# enough to follow the host.  A wide job is one multi-second scan on the
# thread pool, which bursts between jobs cannot follow.
CALIBRATED = frozenset({"narrow", "optimize"})


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed, _load_reference())
