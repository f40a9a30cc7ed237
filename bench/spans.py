"""In-memory span tracer that wraps etslam's public functions from outside.

Each layer is wrapped at the module attribute its caller looks it up
through (``harness.et_gospa``, ``metrics.solve_assignment``,
``ofdm.ground_truth_scan``, ...), so the program itself is unchanged.  A
span records its layer, its parent span, start, end, the time its child
spans cover, and the work counts the layer reports.  The program is
single-threaded, so one stack gives the parent of every span.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from etslam.slam import SearchWindow


@dataclass
class Span:
    layer: str
    parent: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _cells(args, kwargs, out) -> dict:
    rows, cols = args[0].shape
    return {"cells": rows * cols}


def _out_cells(args, kwargs, out) -> dict:
    return {"cells": out.size}


def _rays(args, kwargs, out) -> dict:
    return {"rays": len(args[2])}


def _match(args, kwargs, out) -> dict:
    window = args[3] if len(args) > 3 else kwargs.get("window", SearchWindow())
    dxy, dth = window.offsets()
    candidates = len(dth) * len(dxy) ** 2 if out.matched else 0
    return {"candidates": candidates, "matched": int(out.matched)}


def _detections(args, kwargs, out) -> dict:
    return {"detections": len(out)}


def _points(args, kwargs, out) -> dict:
    return {"points": len(args[0])}


def _bytes(args, kwargs, out) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in out)}


# (module, attribute, layer, work counter); a layer looked up through two
# modules is wrapped at both.
WRAPPED = (
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "run_slam", "slam.run_slam", None),
    ("harness", "emit_csv", "harness.emit_csv", _bytes),
    ("harness", "et_gospa", "metrics.et_gospa", None),
    ("metrics", "et_gospa", "metrics.et_gospa", None),
    ("harness", "dbscan", "clustering.dbscan", _points),
    ("clustering", "dbscan", "clustering.dbscan", _points),
    ("metrics", "cost_matrix", "metrics.cost_matrix", _out_cells),
    ("metrics", "solve_assignment", "assignment.solve_assignment", _cells),
    ("slam", "match_scan", "slam.match_scan", _match),
    ("slam", "update_grid", "slam.update_grid", _rays),
    ("parametric", "sense_parametric", "parametric.sense_parametric", None),
    ("ofdm", "sense", "ofdm.sense", _detections),
    ("ofdm", "detect_peaks", "ofdm.detect_peaks", None),
    ("parametric", "ground_truth_scan", "scene.ground_truth_scan", None),
    ("ofdm", "ground_truth_scan", "scene.ground_truth_scan", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every layer in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer, counter in WRAPPED:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(layer, original, counter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"layer": s.layer, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.self_s, **s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def layer_stats(spans: list[Span], pass_s: float, speed: float) -> dict:
    """Per-layer totals of one pass, keyed ``<module>.<function>.<stat>``.

    Times are reference seconds: wall seconds times the pass's ``speed``.
    """
    out: dict = {}
    for s in spans:
        for stat, value in (("calls", 1), ("s", s.duration * speed),
                            ("self_s", s.self_s * speed), *s.counts.items()):
            key = f"{s.layer}.{stat}"
            out[key] = out.get(key, 0) + value
    calls = out.get("slam.match_scan.calls", 0)
    out["slam.match_scan.matched_ratio"] = (
        out.pop("slam.match_scan.matched", 0) / calls if calls else 0.0
    )
    root_s = sum(s.duration for s in spans if s.parent < 0)
    out["trace.pass_s"] = pass_s * speed
    out["trace.covered_frac"] = root_s / pass_s
    return out


def median_stats(per_pass: list[dict], names) -> dict:
    """Median over passes of each named stat; a layer never called reads 0."""
    return {n: statistics.median(p.get(n, 0) for p in per_pass) for n in names}
