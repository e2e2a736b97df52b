"""Command-line interface: sweeps, figure-grid presets and self-validation.

Output is CSV (or a JSON mirror with a metadata object); files contain no
timestamps or environment details, so identical invocations produce identical
bytes.  Exit codes: 0 success, 1 bad flags, 2 sweep completed with
nonconvergent grid points, each named with its reason on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .errors import EtsError, UnsupportedAngleSetError
from .inequalities import INEQUALITIES, AngleSet, InequalitySpec
from .integration import QuadratureConfig
from .measurement import EffectiveRotation
from .oracles import sasa_closed, svetlichny_ghz4_closed, svetlichny_ghz_closed
from .states import FamilyKind
from .sweeps import SweepPlan, run_sweep

_COLUMNS = ("family", "inequality", "V", "d", "eta", "value", "err",
            "lr_bound", "quantum_max", "violated")


class _Parser(argparse.ArgumentParser):
    """Parser whose flag errors exit with status 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _jsonable(x: float):
    if isinstance(x, float) and math.isnan(x):
        return None
    return float(_fmt(x))


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """Grid syntax: a comma list ('1,2,5') or a linspace range ('a:b:n')."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range must be a:b:n")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError("range point count must be >= 1")
            return tuple(float(v) for v in np.linspace(a, b, n))
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid {flag} grid {text!r}: {exc}") from None


def _parse_angle_list(text: str, spec: InequalitySpec) -> AngleSet:
    """Explicit angles: per-party 'θ,γ[,θ,γ]' blocks joined by ';'."""
    blocks = text.split(";")
    if len(blocks) != spec.parties:
        raise ValueError(
            f"expected angle blocks for {spec.parties} parties, got {len(blocks)}")
    angles = []
    for p, block in enumerate(blocks):
        numbers = [float(v) for v in block.split(",") if v.strip()]
        expected = 2 * spec.settings_per_party[p]
        if len(numbers) != expected:
            raise ValueError(
                f"party {p} needs {expected} numbers (θ,γ per setting), got {len(numbers)}")
        angles.append(tuple(
            EffectiveRotation(numbers[2 * k], numbers[2 * k + 1])
            for k in range(spec.settings_per_party[p])))
    return tuple(angles)


def _field(value, fmt: str):
    """One row field as ``fmt`` writes it: a string as is, a bool as true or
    false, a number with :func:`_fmt` (JSON: :func:`_jsonable`)."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return value if fmt == "json" else ("true" if value else "false")
    return _jsonable(value) if fmt == "json" else _fmt(value)


def _write_output(rows: list[dict], metadata, out: str | None, fmt: str) -> None:
    """Write ``rows`` as CSV, or as JSON with the dict ``metadata()`` returns."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow([_field(row[column], fmt) for column in _COLUMNS])
        text = buffer.getvalue()
    else:
        import json

        rows = [{column: _field(row[column], fmt) for column in _COLUMNS} for row in rows]
        text = json.dumps({"metadata": metadata(), "rows": rows}, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _row(kind: FamilyKind, spec: InequalitySpec, V: float, d: float, eta: float,
         value: float, err: float, violated: bool) -> dict:
    """One output row: the grid point, its value and the functional's bounds."""
    return {
        "family": kind.value, "inequality": spec.name,
        "V": V, "d": d, "eta": eta, "value": value, "err": err,
        "lr_bound": spec.lr_bound, "quantum_max": spec.quantum_max,
        "violated": bool(violated),
    }


def cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = INEQUALITIES[args.inequality]
    kind = FamilyKind(args.family)
    if args.angles == "explicit":
        if not args.angle_list:
            parser.error("--angles explicit requires --angle-list")
        try:
            angles: AngleSet | str = _parse_angle_list(args.angle_list, spec)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        if args.angle_list is not None:
            parser.error(f"--angle-list needs --angles explicit, not --angles {args.angles}")
        angles = args.angles

    try:
        result = run_sweep(SweepPlan(
            family=kind, spec=spec,
            V_grid=_parse_grid(args.V, "--V"),
            d_grid=_parse_grid(args.d, "--d"),
            eta_grid=_parse_grid(args.eta, "--eta"),
            angles=angles))
    except (UnsupportedAngleSetError, ValueError) as exc:
        parser.error(str(exc))

    rows = [_row(kind, spec, row.V, row.d, row.eta, row.value, row.err, row.violated)
            for row in result.rows]

    def metadata() -> dict:
        provenances = sorted({row.provenance for row in result.rows})
        return {"version": __version__, "family": kind.value, "inequality": spec.name,
                "config": dataclasses.asdict(QuadratureConfig()),
                "angles": {"mode": args.angles, "provenance": provenances}}

    _write_output(rows, metadata, args.out, args.format)
    failed = [row for row in result.rows if row.failed]
    for row in failed:
        sys.stderr.write(f"etsbell: point V={_fmt(row.V)}, d={_fmt(row.d)}, "
                         f"eta={_fmt(row.eta)} failed: {row.reason}\n")
    return 2 if failed else 0


_SURFACE_V = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

# name -> (help text, curves); a curve is (family, functional, η, V values,
# closed form, or None for the engine), emitted over the d grid of each V.
_FIGURES = {
    "fig2": ("three-party GHZ-type Svetlichny surface, closed form, η=0.1",
             ((FamilyKind.GHZ3_CONDITIONAL, "svetlichny3", 0.1, _SURFACE_V,
               svetlichny_ghz_closed),)),
    "fig3": ("splitter vs conditional three-party crossing curves, η=0.3, V∈{5,10}",
             ((FamilyKind.GHZ3_BEAM_SPLITTER, "svetlichny3", 0.3, (5.0, 10.0), None),
              (FamilyKind.GHZ3_CONDITIONAL, "svetlichny3", 0.3, (5.0, 10.0), None))),
    "fig4": ("W-type Svetlichny curve, η=1, V=10",
             ((FamilyKind.W3, "svetlichny3", 1.0, (10.0,), None),)),
    "fig5": ("four-party GHZ-type Svetlichny surface, closed form, η=0.1",
             ((FamilyKind.GHZ4_CONDITIONAL, "svetlichny4", 0.1, _SURFACE_V,
               svetlichny_ghz4_closed),)),
    "fig6": ("stabilizer-functional surface on the cluster type, closed form, η=1",
             ((FamilyKind.CLUSTER4_CONDITIONAL, "sasa", 1.0,
               (1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0), sasa_closed),)),
    "fig7": ("WWZB curves on the cluster type, η=1, V∈{1,10}",
             ((FamilyKind.CLUSTER4_CONDITIONAL, "wwzb4", 1.0, (1.0, 10.0), None),)),
}


def cmd_figure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    description, curves = _FIGURES[args.name]
    rows = []
    for kind, name, eta, V_values, closed_form in curves:
        spec = INEQUALITIES[name]
        for V in V_values:
            d_grid = tuple(float(v) for v in np.geomspace(0.1, 10.0 * math.sqrt(V), 60))
            if closed_form is None:
                plan = SweepPlan(family=kind, spec=spec, V_grid=(V,), d_grid=d_grid,
                                 eta_grid=(eta,))
                rows.extend(_row(kind, spec, row.V, row.d, row.eta, row.value, row.err,
                                 row.violated) for row in run_sweep(plan).rows)
            else:
                for d in d_grid:
                    value = closed_form(V, d, eta)
                    rows.append(_row(kind, spec, V, d, eta, value, 0.0, value > spec.lr_bound))
    metadata = {
        "version": __version__,
        "figure": args.name,
        "description": description,
        "grid": "60 d-points log-spaced on [0.1, 10√V] per V",
    }
    out = args.out if args.out is not None else f"{args.name}.{args.format}"
    _write_output(rows, lambda: metadata, out, args.format)
    return 0


def cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Imported here: a scan or a figure never runs a check.
    from .validation import CHECKS, FLIPPABLE_TERMS, run_checks

    names = None
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not names:
            parser.error(f"--checks {args.checks!r} selects no check")
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            parser.error(f"unknown checks: {', '.join(unknown)}")
    if args.flip_sign is not None and not 0 <= args.flip_sign < FLIPPABLE_TERMS:
        parser.error(f"--flip-sign TERM must lie in [0, {FLIPPABLE_TERMS - 1}], "
                     f"got {args.flip_sign}")
    if args.flip_sign is not None and names is not None and "lr-bounds" not in names:
        # only lr-bounds takes the flip: any other selection would pass unmutated
        parser.error("--flip-sign applies to the lr-bounds check, which --checks "
                     f"{args.checks!r} does not select")
    try:
        results = run_checks(names, flip_term=args.flip_sign)
    except EtsError as exc:
        sys.stderr.write(f"validation aborted: {exc}\n")
        return 1
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed = all_passed and result.passed
        print(f"{status} {result.name}: {result.detail}")
    return 0 if all_passed else 1


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it is a large share of a short scan's time."""
    parser = _Parser(prog="etsbell",
                     description="Bell tests on entangled thermal states "
                                 "with dichotomized homodyne readout.")
    parser.add_argument("--version", action="version", version=f"etsbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    scan = sub.add_parser("scan", help="evaluate an inequality over a (V, d, η) grid")
    scan.add_argument("--family", required=True, choices=[k.value for k in FamilyKind])
    scan.add_argument("--inequality", required=True, choices=sorted(INEQUALITIES))
    scan.add_argument("--V", required=True, help="comma list or range a:b:n")
    scan.add_argument("--d", required=True, help="comma list or range a:b:n")
    scan.add_argument("--eta", default="1", help="comma list or range a:b:n")
    scan.add_argument("--angles", default="canonical",
                      choices=("canonical", "optimize", "explicit"))
    scan.add_argument("--angle-list", default=None,
                      help="explicit angles: 'θ,γ[,θ,γ]' per party, parties joined by ';'")
    scan.add_argument("--out", default=None, help="output path (default: stdout)")
    scan.add_argument("--format", default="csv", choices=("csv", "json"))

    figure = sub.add_parser("figure", help="emit the grid behind a named figure")
    figure.add_argument("name", choices=sorted(_FIGURES))
    figure.add_argument("--out", default=None, help="output path (default: <name>.<format>)")
    figure.add_argument("--format", default="csv", choices=("csv", "json"))

    validate = sub.add_parser("validate", help="run the oracle-vs-numeric check suite")
    validate.add_argument("--checks", default=None,
                          help="comma-separated subset of checks to run")
    validate.add_argument("--flip-sign", type=int, default=None, metavar="TERM",
                          help="mutation mode: flip one term sign in the LR-bound check")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"scan": cmd_scan, "figure": cmd_figure, "validate": cmd_validate}
    try:
        return handlers[args.command](args, parser)
    except EtsError as exc:
        sys.stderr.write(f"etsbell: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
