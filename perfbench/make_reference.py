"""Freeze reference values for the rows that have no closed form.

Run from the repository root at the commit whose numbers should become the
reference (the benchmark was defined against the seed commit):

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: for each key, one [value, err] pair per
point of the figure grid or of the wide displacement pool, in order, plus
the ghz3-bs crossing displacement.
"""

from __future__ import annotations

import json

from etsbell import INEQUALITIES, FamilyKind, SweepPlan, crossing_displacement, run_sweep

from workloads import (CROSSING_V, FIG3_ETA, FIG3_V, REFERENCE_PATH, WIDE_D_POOL, WIDE_V,
                       crossing_key, figure_d_grid, reference_key)


def _sweep(family: str, inequality: str, V: float, d_grid, eta: float) -> list:
    plan = SweepPlan(family=FamilyKind(family), spec=INEQUALITIES[inequality],
                     V_grid=(V,), d_grid=tuple(float(d) for d in d_grid), eta_grid=(eta,))
    return [[row.value, row.err] for row in run_sweep(plan).rows]


def main() -> None:
    reference = {}
    for V in FIG3_V:
        reference[reference_key("ghz3-bs", "svetlichny3", FIG3_ETA, V)] = _sweep(
            "ghz3-bs", "svetlichny3", V, figure_d_grid(V), FIG3_ETA)
    reference[reference_key("cluster4-cond", "wwzb4", 1.0, 1.0)] = _sweep(
        "cluster4-cond", "wwzb4", 1.0, figure_d_grid(1.0), 1.0)
    for V in WIDE_V:
        reference[reference_key("w3", "svetlichny3", 1.0, V)] = _sweep(
            "w3", "svetlichny3", V, WIDE_D_POOL, 1.0)
    reference[crossing_key("ghz3-bs")] = crossing_displacement(
        FamilyKind.GHZ3_BEAM_SPLITTER, INEQUALITIES["svetlichny3"], CROSSING_V, FIG3_ETA)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
