"""The names the benchmark's traced run wraps still exist, with the call
shapes its annotators read.

``perfbench/layers.py`` reports a per-layer metric as null when a name it
wraps is gone, so a rename in the package would blank the benchmark's
per-layer report.  This reads ``perfbench/`` and changes nothing there.
"""

import inspect
import math
import sys
from pathlib import Path

import pytest

from etsbell import integration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # no bytecode is written, so that importing leaves perfbench/ untouched
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import layers
        import spans
        yield layers, spans
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves_to_a_callable(bench):
    layers, _spans = bench
    for module, attr, _span, _annotate in layers.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_engine_pass_takes_grids_sixth():
    assert list(inspect.signature(integration._engine_pass).parameters)[5] == "grids"


def test_traced_scan_derives_every_metric(bench, tmp_path):
    # a two-point curve and a lone point through the CLI, traced as the
    # benchmark traces a run: every metric is a finite number, and the
    # engine stages the annotators read (grids, kernel arrays) show up
    layers, spans = bench
    tracer = spans.Tracer()
    layers.install(tracer)
    # family_structure runs only where a pass plan is built
    integration._deterministic_moments.cache_clear()
    integration._pass_plan.cache_clear()
    try:
        tracer.active = True
        for d in ("1.5,3", "2"):
            argv = ["scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
                    "--V", "5", "--d", d, "--out", str(tmp_path / "rows.csv")]
            assert tracer.call(layers.CLI, layers.etsbell.cli.main, argv) == 0
    finally:
        tracer.close()
    assert tracer.missing == []
    metrics = layers.pass_metrics(tracer.drain(), 1)
    assert set(metrics) == set(layers.METRICS)
    for name, value in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    for name in ("integration.passes", "integration.nodes", "integration.kernel_elems",
                 "states.family_structure_calls"):
        assert metrics[name] > 0, name
