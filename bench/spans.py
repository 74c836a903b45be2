"""Spans around the layer calls of the dilatekit pipelines.

The pipelines look their stage functions up by name in
``dilatekit.pipelines`` at call time, so replacing those names with
timing wrappers records one span per stage call without changing the
library.  A span's self time is its duration minus its child spans; the
operation itself is the root span, and its self time is
``pipelines.self_s``: work the pipelines do outside every wrapped stage.

Counts are taken from each call's arguments and result.  Anything that
costs real time (the barycenter drift) is computed after the operation
ends, outside every span and outside the operation time.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

import numpy as np

import dilatekit.pipelines as pipelines

# layer -> names the pipelines call it by
LAYERS = {
    "moments.table": ("circle_moments", "regular_moments", "laurent_moments",
                      "qcommuting_moments"),
    "moments.gns": ("toeplitz_gns_unitary",),
    "measures.fit": ("fit_matrix_measure",),
    "measures.to_comb": ("measure_to_combination",),
    "measures.assemble": ("combination_to_measure", "assemble_atomic_dilation"),
    "convex.reduce": ("caratheodory_reduce",),
    "boundary.quadrature": ("quadrature_measure",),
    "boundary.cauchy": ("cauchy_transform",),
    "verify": ("verify_dilation", "dimension_report"),
}
# layers whose calls the benchmark makes itself, around io.encode_dilation
# and io.dump_json
IO_LAYER = "io.encode"
ROOT_LAYER = "pipelines"

# the spans plus pipelines.self_s must explain the operation time, and
# pipelines.self_s may hold at most this share of it
MAX_SELF_SHARE = 0.2


class CoverageError(RuntimeError):
    """The wrapped names no longer match what the pipelines call."""


def check_entry_points():
    missing = [name for names in LAYERS.values() for name in names
               if not callable(getattr(pipelines, name, None))]
    if missing:
        raise CoverageError(
            "dilatekit.pipelines no longer calls these by name: "
            + ", ".join(missing) + "; update LAYERS in bench/spans.py")


class Tracer:
    """Span stack and per-layer accumulators for the traced operations."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.ops = 0
        self.op_s = 0.0
        self._stack = []
        self._calls = []
        # counters
        self.reduce_calls = []          # (terms_in, seconds, drift) per reduce call
        self.terms_out = 0
        self.drift_max = 0.0
        self.fit_calls = 0
        self.fit_columns = 0
        self.fit_atoms = 0
        self.fit_residual_max = 0.0
        self.resolvents = 0
        self.quadrature_defect_max = 0.0
        self.verify_residual_max = 0.0
        self.slack_min = None
        self.io_bytes = 0

    # -- spans -------------------------------------------------------
    def _push(self):
        self._stack.append(0.0)

    def _pop(self, layer, seconds):
        child = self._stack.pop()
        self.self_s[layer] += seconds - child
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self._stack:        # outside an operation: not traced
                return fn(*args, **kwargs)
            self._push()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._pop(layer, dt)
            self._calls.append((name, args, kwargs, out, dt))
            return out
        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Replace the stage names in dilatekit.pipelines for the block."""
        check_entry_points()
        saved = {}
        try:
            for layer, names in LAYERS.items():
                for name in names:
                    saved[name] = getattr(pipelines, name)
                    setattr(pipelines, name, self.wrap(layer, name, saved[name]))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(pipelines, name, fn)

    def begin_op(self):
        self._push()

    def end_op(self, seconds):
        self._pop(ROOT_LAYER, seconds)
        self.ops += 1
        self.op_s += seconds
        calls, self._calls = self._calls, []
        for call in calls:
            self._count(*call)

    # -- counters, outside the operation time --------------------------
    def _count(self, name, args, kwargs, out, dt):
        if name == "caratheodory_reduce":
            comb = args[0]
            before, after = comb.barycenter(), out.barycenter()
            drift = max(float(np.linalg.norm(a - b)) for a, b in zip(after, before))
            self.reduce_calls.append((len(comb.terms), dt, drift))
            self.terms_out += len(out.terms)
            self.drift_max = max(self.drift_max, drift)
        elif name == "fit_matrix_measure":
            table, grid = args[0], args[1]
            self.fit_calls += 1
            self.fit_columns += sum(a.block_size(table.dim) ** 2 for a in grid)
            self.fit_atoms += len(out.atoms)
            self.fit_residual_max = max(self.fit_residual_max, float(out.fit_residual))
        elif name == "quadrature_measure":
            self.resolvents += int(args[2] if len(args) > 2 else kwargs["nodes"])
            self.quadrature_defect_max = max(self.quadrature_defect_max, float(out.defect))
        elif name == "cauchy_transform":
            self.resolvents += int(np.asarray(args[0]).size)
        elif name == "verify_dilation":
            self.verify_residual_max = max(self.verify_residual_max,
                                           float(out.max_moment_residual))
        elif name == "dimension_report":
            self.slack_min = out.slack if self.slack_min is None else min(self.slack_min, out.slack)

    def check_accounted(self):
        """Spans plus pipelines.self_s must cover the operation time."""
        total = sum(self.self_s.values())
        if abs(total - self.op_s) > 1e-6 * max(self.op_s, 1.0):
            raise CoverageError(
                f"spans sum to {total:.6f} s but operations took {self.op_s:.6f} s")
        share = self.self_s[ROOT_LAYER] / self.op_s
        if share > MAX_SELF_SHARE:
            raise CoverageError(
                f"pipelines.self_s is {share:.1%} of operation time (> "
                f"{MAX_SELF_SHARE:.0%}): a stage runs outside the wrapped names")

    def metrics(self) -> dict:
        """Per-layer figures; times are seconds per traced operation."""
        n = max(self.ops, 1)
        per_op = {layer: self.self_s.get(layer, 0.0) / n
                  for layer in list(LAYERS) + [IO_LAYER, ROOT_LAYER]}
        terms_in = sum(c[0] for c in self.reduce_calls)
        nred = len(self.reduce_calls)
        return {
            "convex.reduce_s": (per_op["convex.reduce"], "s/op"),
            "convex.terms_in": (terms_in / nred if nred else 0.0, "count"),
            "convex.terms_out": (self.terms_out / nred if nred else 0.0, "count"),
            "convex.keep_ratio": (self.terms_out / terms_in if terms_in else 0.0, "ratio"),
            "convex.barycenter_drift_max": (self.drift_max, "norm"),
            "convex.reduce_scaling_exp": (scaling_exponent(self.reduce_calls), "slope"),
            "measures.fit_s": (per_op["measures.fit"], "s/op"),
            "measures.fit_columns": (
                self.fit_columns / self.fit_calls if self.fit_calls else 0.0, "count"),
            "measures.fit_atoms_kept": (
                self.fit_atoms / self.fit_calls if self.fit_calls else 0.0, "count"),
            "measures.fit_residual_max": (self.fit_residual_max, "norm"),
            "measures.to_comb_s": (per_op["measures.to_comb"], "s/op"),
            "measures.assemble_s": (per_op["measures.assemble"], "s/op"),
            "boundary.quadrature_s": (per_op["boundary.quadrature"], "s/op"),
            "boundary.cauchy_s": (per_op["boundary.cauchy"], "s/op"),
            "boundary.resolvents": (self.resolvents / n, "count"),
            "boundary.quadrature_defect_max": (self.quadrature_defect_max, "norm"),
            "moments.table_s": (per_op["moments.table"], "s/op"),
            "moments.gns_s": (per_op["moments.gns"], "s/op"),
            "verify.s": (per_op["verify"], "s/op"),
            "verify.max_residual": (self.verify_residual_max, "norm"),
            "verify.dimension_slack_min": (float(self.slack_min or 0), "count"),
            "io.encode_s": (per_op[IO_LAYER], "s/op"),
            "io.bytes": (self.io_bytes / n, "B"),
            "pipelines.self_s": (per_op[ROOT_LAYER], "s/op"),
        }


def scaling_exponent(calls) -> float:
    """Least-squares slope of log(seconds) against log(terms_in)."""
    pts = [(math.log(n), math.log(s)) for n, s, _ in calls if n > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
