"""The benchmark's ``--trace 1`` spans wrap stage names in dilatekit.pipelines.

bench/spans.py replaces those names at run time; a refactor that stops
calling one of them by name would leave its stage untimed.  Each name
must exist and be called by one small case of the five pipelines.
"""

import importlib.util
from pathlib import Path

import numpy as np

import dilatekit as dk
import dilatekit.pipelines as pipelines

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_is_called(monkeypatch):
    spans = _load_spans()
    spans.check_entry_points()
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    names = {name for group in spans.LAYERS.values() for name in group}
    for name in names:
        monkeypatch.setattr(pipelines, name,
                            recording(name, getattr(pipelines, name)))

    t = np.array([[0.2 + 0.1j, 0.3], [0.0, -0.25]])
    dk.dilate_circle(t, order=2)
    dk.dilate_boundary(t, dk.BoundaryCurve.disc(), order=2, nodes=32)
    dk.dilate_regular([0.3 * np.eye(2), np.diag([0.2, -0.1])], order=1, nodes=4)
    dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8)
    dk.dilate_qcommute(0.5 * np.diag([1.0, -1.0]),
                       np.array([[0.0, 0.5], [0.0, 0.0]]),
                       a=1, b=2, order=1, nodes=4)
    assert called == names
