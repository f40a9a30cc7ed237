"""The benchmark's span tracer (``bench/spans.py``) against the package it wraps.

The traced bench runs look up every ``(module, attribute)`` of ``WRAPPED`` with
``getattr`` and read some layers' arguments by position, so a renamed layer or
a moved argument would otherwise fail only the bench's own smoke check.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from etslam import harness

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _modules(spans):
    """What ``bench/run.py`` hands the tracer: ``etslam.<name>`` for each module name."""
    return {name: importlib.import_module(f"etslam.{name}") for name, *_ in spans.WRAPPED}


def test_every_wrapped_layer_resolves(spans):
    modules = _modules(spans)
    assert set(modules) == {"harness", "metrics", "clustering", "slam", "parametric", "ofdm"}
    for name, attr, layer, _ in spans.WRAPPED:
        assert callable(getattr(modules[name], attr, None)), f"{name}.{attr} ({layer})"


@pytest.mark.parametrize("backend", ["parametric", "ofdm"])
def test_traced_trial_counts_work(spans, backend, tmp_path):
    """A traced run records its layers, and the counters read the arguments they mean."""
    cfg = dataclasses.replace(harness.load_experiment("ci.yaml"), backend=backend,
                              duration=5.0, trials=1)
    tracer = spans.Tracer()
    modules = _modules(spans)
    originals = {(name, attr): getattr(modules[name], attr) for name, attr, *_ in spans.WRAPPED}
    with tracer.installed(modules):
        report = harness.run_monte_carlo(cfg)
        harness.emit_csv(report, tmp_path)
    for (name, attr), fn in originals.items():
        assert getattr(modules[name], attr) is fn
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span.layer, []).append(span)
    sensing = "ofdm.sense" if backend == "ofdm" else "parametric.sense_parametric"
    for layer in ("harness.run_trial", "slam.run_slam", "slam.update_grid", "slam.match_scan",
                  sensing, "metrics.et_gospa", "clustering.dbscan", "harness.emit_csv"):
        assert layer in by_layer, layer
    (rec,) = report.trials
    # update_grid's third argument is the scan's world points, match_scan's fourth the
    # search window
    assert sum(s.counts["rays"] for s in by_layer["slam.update_grid"]) == len(rec.map_points)
    dxy, dth = cfg.slam.window.offsets()
    for span in by_layer["slam.match_scan"]:
        assert span.counts["candidates"] == span.counts["matched"] * len(dth) * len(dxy) ** 2
