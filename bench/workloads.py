"""Benchmark inputs: one fixed schedule of cases per workload.

A workload is a cycle of cases run in order, again and again.  The sizes
in a cycle are fixed, so every run at every seed does the same mix of
work; the seed and the cycle number only draw the matrices, so a run
averages the data-dependent cost (ADMM iterations, surviving terms) over
as many draws as it runs cycles.  Whole cycles are always run, so each
case keeps its share of the calls and the percentiles land on the same
case types from run to run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import dilatekit as dk

WORKLOADS = ("boundary", "fitted", "circle")

# Tail percentile per workload, fixed so that runs stay comparable.  A run
# has at least the whole cycles that leave ten calls beyond it (8 boundary,
# 4 fitted and 6 circle cycles; a 35 s run of the current code has about
# 48, 28 and 250 calls).  The level falls inside one band of like cases in
# the sorted cycle, so that the value does not jump between case types:
# the d=3, 128-node boundary calls; the fitted annulus demo and d=3 torus
# calls; the upper part of the K=136 circle calls, just below the K=264
# ones.
TAIL_LEVEL = {"boundary": 0.65, "fitted": 0.64, "circle": 0.945}


@dataclass
class Case:
    """One dilation: ``dk.dilate_<kind>(*args, **kwargs)``."""

    kind: str
    label: str
    args: tuple
    kwargs: dict
    sizes: dict = field(default_factory=dict)

    def call(self):
        return getattr(dk, "dilate_" + self.kind)(*self.args, **self.kwargs)

    def relations(self) -> dk.Relations:
        """The relations the pipeline verified against, for re-verification."""
        if self.kind == "circle":
            return dk.Relations.commuting(1)
        if self.kind == "regular":
            return dk.Relations.commuting(len(self.args[0]))
        if self.kind == "boundary":
            return dk.Relations(rule="laurent", unitary=False, negatives="adjoint")
        if self.kind == "annulus":
            return dk.Relations(rule="laurent", unitary=False, negatives="inverse")
        if self.kind == "qcommute":
            a, b = self.kwargs["a"], self.kwargs["b"]
            return dk.Relations.exchange_pair(np.exp(2j * np.pi * a / b))
        raise ValueError(f"unknown pipeline {self.kind!r}")


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _gaussian(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _with_norm(rng, d, norm):
    a = _gaussian(rng, d)
    return a * (norm / np.linalg.norm(a, 2))


def _with_numerical_radius(rng, d, radius, angles=512):
    a = _gaussian(rng, d)
    th = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    rot = np.exp(-1j * th)[:, None, None] * a
    herm = (rot + rot.conj().transpose(0, 2, 1)) / 2.0
    w = float(np.max(np.linalg.eigvalsh(herm)[:, -1]))
    return a * (radius / w)


def _columns(grid, d):
    return int(sum(atom.block_size(d) ** 2 for atom in grid))


def _boundary(rng, tiny):
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    order = 2 if tiny else 4
    # The d=3, 128-node shape runs twice, so the median and the tail fall
    # inside its band of the sorted cycle.  Shapes where the library fails
    # at random draws are left out (library defects, ROADMAP items 3 and
    # 4a): at d=2 with 192 or 256 nodes reduction drift makes
    # dilate_boundary raise NotNormalizedError in about 1 draw in 30 to
    # 100, and at d=3 with 256 nodes numpy's SVD inside
    # caratheodory_reduce fails to converge in about 1 draw in 170.
    shapes = [(2, 64)] if tiny else [(2, 128), (3, 128), (3, 128), (3, 192)]
    cases = []
    for d, nodes in shapes:
        t = _with_norm(rng, d, 0.5)
        cases.append(Case(
            "boundary", f"boundary d={d} nodes={nodes}", (t, curve),
            {"order": order, "nodes": nodes},
            {"d": d, "order": order, "nodes": nodes, "terms_in": d * nodes}))
    return cases


def _torus_extremal(rng, d, nodes):
    """Commuting unitaries with spectrum on the lattice: the demo's data."""
    phases = np.exp(2j * np.pi * rng.integers(0, nodes, size=(2, d)) / nodes)
    w = _unitary(rng, d)
    return [w @ np.diag(ph) @ w.conj().T for ph in phases]


def _torus_interior(rng, d):
    """Commuting normal strict contractions: interior data."""
    w = _unitary(rng, d)
    zs = rng.uniform(0.0, 0.5, size=(2, d)) * np.exp(2j * np.pi * rng.random((2, d)))
    return [w @ np.diag(z) @ w.conj().T for z in zs]


def _annulus_extremal(rng, d, nodes, r):
    """Normal operator with spectrum on both circles, at lattice angles."""
    radii = np.where(np.arange(d) % 2 == 1, r, 1.0)
    spectrum = np.exp(2j * np.pi * rng.integers(0, nodes, size=d) / nodes) * radii
    v = _unitary(rng, d)
    return v @ np.diag(spectrum) @ v.conj().T


def _annulus_interior(rng, d):
    v = _unitary(rng, d)
    spectrum = rng.uniform(0.6, 0.9, size=d) * np.exp(2j * np.pi * rng.random(d))
    return v @ np.diag(spectrum) @ v.conj().T


def _qcommuting_pair(rng):
    """The demo's pair T1 = diag(1, -1), T2 = [[0, 1], [0, 0]], turned by
    lattice phases and a random unitary: T2 T1 = -T1 T2 on the grid."""
    lam, beta = np.exp(2j * np.pi * rng.integers(0, 8, size=2) / 8)
    w = _unitary(rng, 2)
    t1 = w @ np.diag([lam, -lam]) @ w.conj().T
    t2 = w @ np.array([[0.0, beta], [0.0, 0.0]]) @ w.conj().T
    return t1, t2


def _fitted(rng, tiny):
    r = 0.5
    cases = []

    def regular(ts, order, nodes, label):
        d = ts[0].shape[0]
        cols = _columns(dk.torus_grid(nodes, len(ts)), d)
        cases.append(Case("regular", label, (ts,), {"order": order, "nodes": nodes},
                          {"d": d, "order": order, "nodes": nodes, "grid_columns": cols}))

    def annulus(t, order, nodes, label):
        d = t.shape[0]
        cols = _columns(dk.annulus_grid(nodes, r), d)
        cases.append(Case("annulus", label, (t, r), {"order": order, "nodes": nodes},
                          {"d": d, "order": order, "nodes": nodes, "grid_columns": cols}))

    if tiny:
        regular(_torus_interior(rng, 2), 1, 6, "regular interior d=2 torus 6")
        annulus(_annulus_interior(rng, 2), 1, 16, "annulus interior d=2 nodes 16")
        return cases
    # grid-supported data from the demos: thousands of ADMM iterations
    regular(_torus_extremal(rng, 3, 8), 2, 8, "regular extremal d=3 torus 8")
    annulus(_annulus_extremal(rng, 3, 16, r), 2, 16, "annulus extremal d=3 nodes 16")
    t1, t2 = _qcommuting_pair(rng)
    cols = _columns(dk.clock_phase_grid(1, 2, 8), 2)
    cases.append(Case("qcommute", "qcommute a/b=1/2 nodes 8", (t1, t2),
                      {"a": 1, "b": 2, "order": 1, "nodes": 8},
                      {"d": 2, "order": 1, "nodes": 8, "grid_columns": cols}))
    # interior data: few iterations, a few hundred terms to reduce.  Sorted
    # by time the cycle has two cheap calls, then a band of three ~0.8 s
    # calls (the annulus demo and two d=3 tori), then the two ~2 s demos;
    # the median and the tail fall inside that band, which the two torus
    # draws keep narrow.  The d=2 torus at 12 nodes is left out: numpy's
    # SVD inside caratheodory_reduce raises "SVD did not converge" on it in
    # about 1 draw in 5, a library defect that would make runs fail at
    # random seeds.
    for _ in range(2):
        regular(_torus_interior(rng, 3), 1, 12, "regular interior d=3 torus 12 order 1")
    for d, order in ((3, 2), (2, 1)):
        annulus(_annulus_interior(rng, d), order, 32,
                f"annulus interior d={d} nodes 32 order {order}")
    return cases


def _circle(rng, tiny):
    shapes = [(1, 1, 1.0), (2, 2, 2.0), (3, 4, 1.0)] if tiny else (
        [(d, order, rho) for d in (1, 2, 3, 4) for order in (1, 4, 8)
         for rho in (1.0, 2.0)]
        # the d=2, order 4 shape runs three times per rho, so that the
        # median falls inside its band instead of between two shapes
        + [(2, 4, 1.0), (2, 4, 2.0)] * 2
        # two K=136 calls carry the tail, one K=264 call the top
        + [(8, 16, 1.0), (8, 16, 2.0), (8, 32, 1.0)])
    cases = []
    for d, order, rho in shapes:
        t = (_with_norm(rng, d, 0.9) if rho == 1.0
             else _with_numerical_radius(rng, d, 0.9))
        cases.append(Case("circle", f"circle d={d} order={order} rho={rho:g}",
                          (t,), {"order": order, "rho": rho},
                          {"d": d, "order": order, "rho": rho}))
    return cases


def make_cases(workload: str, seed: int, draw: int = 0, tiny: bool = False) -> list:
    """The workload's cycle of cases; ``draw`` numbers the cycle's matrices."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), draw])
    return {"boundary": _boundary, "fitted": _fitted, "circle": _circle}[workload](rng, tiny)


def warmup_index(cases: list) -> int:
    """The case used for the set-up call: the cycle's smallest by size."""
    def cost(c):
        s = c.sizes
        return (s["d"], s.get("grid_columns", 0), s.get("nodes", 0), s["order"])
    return min(range(len(cases)), key=lambda i: cost(cases[i]))


def inputs_digest(cases: list) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(c.label.encode())
        for a in c.args:
            for m in (a if isinstance(a, list) else [a]):
                if isinstance(m, np.ndarray):
                    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()[:16]
