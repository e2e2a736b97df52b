"""The etsbell functions the traced run wraps, and the per-layer metrics.

Every metric is derived from the spans of one pass over a workload's job
list.  Times summed over spans are busy time added up across threads, not
wall time.  A metric whose wrapped function no longer exists is reported as
null, together with the missing name.
"""

from __future__ import annotations

import math

import numpy as np

import etsbell.cli
import etsbell.inequalities
import etsbell.integration
import etsbell.sweeps
from spans import Span, Tracer, self_time

CLI = "cli.main"
SWEEP = "sweeps.run_sweep"
CROSSING = "sweeps.crossing_displacement"
EVAL_WITH_ERROR = "inequalities.evaluate_with_error"
EVALUATE = "inequalities.evaluate"
OPTIMIZE = "inequalities.optimize_angles"
ESTIMATE = "integration.estimate"
FAMILY_STRUCTURE = "states.family_structure"
AXIS_RULES = "integration.axis_rules"
ENGINE_PASS = "integration.engine_pass"
KERNEL = "integration.kernel"


def _sweep_attrs(args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    points = len(plan.V_grid) * len(plan.d_grid) * len(plan.eta_grid)
    return points, sum(1 for row in result.rows if row.failed)


def _pass_nodes(args, kwargs, result):
    grids = args[5] if len(args) > 5 else kwargs["grids"]
    return sum(int(np.size(weights)) for _x, _y, weights in grids)


def _kernel_elems(args, kwargs, result):
    return int(np.size(args[0]))


# (module, attribute, span name, annotation).  Names are wrapped in the module
# that calls them; the last four are private engine stages.
TARGETS = (
    (etsbell.cli, "run_sweep", SWEEP, _sweep_attrs),
    (etsbell.sweeps, "evaluate_with_error", EVAL_WITH_ERROR, None),
    (etsbell.sweeps, "optimize_angles", OPTIMIZE, None),
    (etsbell.inequalities, "evaluate", EVALUATE, None),
    (etsbell.inequalities, "estimate_correlation", ESTIMATE, None),
    (etsbell.inequalities, "converged_correlation", ESTIMATE, None),
    (etsbell.integration, "family_structure", FAMILY_STRUCTURE, None),
    (etsbell.integration, "_deterministic_grids", AXIS_RULES, None),
    (etsbell.integration, "_engine_pass", ENGINE_PASS, _pass_nodes),
    (etsbell.integration, "erf", KERNEL, _kernel_elems),
    (etsbell.integration, "dawsn", KERNEL, _kernel_elems),
)

_SPAN_SOURCES = {}
for _module, _attr, _span, _annotate in TARGETS:
    _SPAN_SOURCES.setdefault(_span, []).append(f"{_module.__name__}.{_attr}")

# name -> (unit, span names it is derived from).  Spans the benchmark opens
# around its own calls (cli.main, crossing searches) are always present.
METRICS = {
    "cli.self_s": ("s", (SWEEP,)),
    "sweeps.points": ("count", (SWEEP, EVAL_WITH_ERROR)),
    "sweeps.point_p50_s": ("s", (SWEEP, EVAL_WITH_ERROR)),
    "sweeps.point_p90_s": ("s", (SWEEP, EVAL_WITH_ERROR)),
    "sweeps.worker_busy_frac": ("fraction", (SWEEP, EVAL_WITH_ERROR)),
    "sweeps.failed_rows": ("count", (SWEEP,)),
    "sweeps.crossing_evals": ("count", (EVAL_WITH_ERROR,)),
    "inequalities.objective_evals": ("count", (EVALUATE, OPTIMIZE)),
    "inequalities.objective_fallbacks": ("count", (EVALUATE, OPTIMIZE)),
    "inequalities.eval_p50_s": ("s", (EVALUATE, EVAL_WITH_ERROR)),
    "inequalities.optimize_s": ("s", (OPTIMIZE,)),
    "integration.estimates": ("count", (ESTIMATE,)),
    "integration.estimate_p50_s": ("s", (ESTIMATE,)),
    "integration.estimate_p90_s": ("s", (ESTIMATE,)),
    "integration.nonconverged": ("count", (ESTIMATE,)),
    "integration.passes": ("count", (ENGINE_PASS,)),
    "integration.passes_per_estimate": ("ratio", (ENGINE_PASS, ESTIMATE)),
    "integration.nodes": ("count", (ENGINE_PASS,)),
    "integration.ns_per_node": ("ns", (ENGINE_PASS,)),
    "integration.engine_pass_s": ("s", (ENGINE_PASS,)),
    "integration.kernel_elems": ("count", (KERNEL,)),
    "integration.kernel_s": ("s", (KERNEL,)),
    "integration.axis_rule_s": ("s", (AXIS_RULES,)),
    "states.family_structure_calls": ("count", (FAMILY_STRUCTURE,)),
    "states.family_structure_s": ("s", (FAMILY_STRUCTURE,)),
}


def install(tracer: Tracer) -> None:
    for module, attr, span, annotate in TARGETS:
        tracer.wrap(module, attr, span, annotate)


def unavailable(missing: list[str]) -> dict[str, list[str]]:
    """Metrics that cannot be derived, with the wrapped names they lack."""
    out = {}
    for name, (_unit, spans) in METRICS.items():
        lacking = [src for span in spans for src in _SPAN_SOURCES.get(span, ())
                   if src in missing]
        if lacking:
            out[name] = lacking
    return out


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one pass over the job list."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def nearest(span: Span, names: tuple[str, ...]) -> str | None:
        parent = span.parent
        while parent is not None:
            ancestor = spans[parent]
            if ancestor.name in names:
                return ancestor.name
            parent = ancestor.parent
        return None

    def get(name: str) -> list[Span]:
        return by_name.get(name, [])

    def durations(group: list[Span]) -> list[float]:
        return [s.duration for s in group]

    sweeps = get(SWEEP)
    with_error = get(EVAL_WITH_ERROR)
    points = [s for s in with_error if nearest(s, (SWEEP, CROSSING)) == SWEEP]
    crossing = [s for s in with_error if nearest(s, (SWEEP, CROSSING)) == CROSSING]
    objective = [s for s in get(EVALUATE) if nearest(s, (OPTIMIZE,)) == OPTIMIZE]
    estimates = get(ESTIMATE)
    passes = get(ENGINE_PASS)
    kernels = get(KERNEL)
    structure = get(FAMILY_STRUCTURE)
    pass_s = sum(durations(passes))
    nodes = sum(s.attrs or 0 for s in passes)
    capacity = sum(s.duration * min(threads, s.attrs[0]) for s in sweeps if s.attrs)
    return {
        "cli.self_s": sum(self_time(s, children.get(s.sid, [])) for s in get(CLI)),
        "sweeps.points": len(points),
        "sweeps.point_p50_s": _percentile(durations(points), 50),
        "sweeps.point_p90_s": _percentile(durations(points), 90),
        "sweeps.worker_busy_frac": _ratio(sum(durations(points)), capacity),
        "sweeps.failed_rows": sum(s.attrs[1] for s in sweeps if s.attrs),
        "sweeps.crossing_evals": len(crossing),
        "inequalities.objective_evals": len(objective),
        "inequalities.objective_fallbacks": sum(1 for s in objective if s.error),
        "inequalities.eval_p50_s": _percentile(durations(get(EVALUATE) + with_error), 50),
        "inequalities.optimize_s": sum(durations(get(OPTIMIZE))),
        "integration.estimates": len(estimates),
        "integration.estimate_p50_s": _percentile(durations(estimates), 50),
        "integration.estimate_p90_s": _percentile(durations(estimates), 90),
        "integration.nonconverged": sum(
            1 for s in estimates if s.error == "NonconvergenceError"),
        "integration.passes": len(passes),
        "integration.passes_per_estimate": _ratio(len(passes), len(estimates)),
        "integration.nodes": nodes,
        "integration.ns_per_node": 1e9 * _ratio(pass_s, nodes),
        "integration.engine_pass_s": pass_s,
        "integration.kernel_elems": sum(s.attrs or 0 for s in kernels),
        "integration.kernel_s": sum(durations(kernels)),
        "integration.axis_rule_s": sum(durations(get(AXIS_RULES))),
        "states.family_structure_calls": len(structure),
        "states.family_structure_s": sum(durations(structure)),
    }
