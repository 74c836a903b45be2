"""Numerical range sweeps and boundary measures of non-normal operators.

For an operator T whose numerical range sits strictly inside a smooth
convex curve, the boundary density

    D(theta) = Re[ (2 pi i)^{-1} zeta'(theta) (zeta(theta) - T)^{-1} ]

integrates to the identity and its trapezoid discretization yields an
atomic measure whose Naimark assembly is an explicit normal dilation.

Under that containment every question the measure asks of a matrix
stack usually has the answer "yes": W(T) is inside at every sweep
angle, every resolvent is well conditioned (sigma_min(zeta - T) >=
dist(zeta, W(T))), and every density is positive definite.  A "yes" is
certified without a decomposition: a Hermitian matrix whose unpivoted
LDL* pivots are all positive is positive definite (Sylvester's law of
inertia, linalg._ldl_pivots), and ||M||_F ||M^{-1}||_F bounds cond_2(M)
from above.  Only the matrices these screens leave undecided go through
the batched eigh or SVD that decides them, so every verdict and error
message is that of the decomposition, up to ties within roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonConvexCurveError,
    NotContainedError,
    NotNormalizedError,
    ResolventSingularError,
    ShapeMismatchError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _ldl_pivots,
    asmatrix,
    herm_part,
    psd_project,
)
from .measures import AtomicMeasure, Atoms

__all__ = [
    "BoundaryCurve",
    "RangeReport",
    "numerical_range",
    "contains_numerical_range",
    "boundary_density",
    "quadrature_measure",
    "cauchy_transform",
]


@dataclass
class BoundaryCurve:
    """A positively oriented boundary curve, parametric or sampled.

    Parametric kinds carry closed-form points and derivatives (sampled
    curves must supply exact derivative samples; nothing here
    differentiates numerically).  ``annulus`` denotes both boundary
    circles of r <= |z| <= 1 and is not convex.
    """

    kind: str
    params: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    @classmethod
    def disc(cls, radius: float = 1.0) -> "BoundaryCurve":
        if not 0 < radius < np.inf:
            raise ShapeMismatchError(f"disc radius must be finite and positive, got {radius}")
        return cls(kind="disc", params={"radius": float(radius)})

    @classmethod
    def ellipse(cls, a: float, b: float) -> "BoundaryCurve":
        for name, axis in (("a", a), ("b", b)):
            if not 0 < axis < np.inf:
                raise ShapeMismatchError(
                    f"ellipse semi-axis {name} must be finite and positive, got {axis}")
        return cls(kind="ellipse", params={"a": float(a), "b": float(b)})

    @classmethod
    def annulus(cls, r: float) -> "BoundaryCurve":
        if not 0.0 < r < 1.0:
            raise ShapeMismatchError("annulus inner radius must lie in (0, 1)")
        return cls(kind="annulus", params={"r": float(r)})

    @classmethod
    def sampled(cls, thetas, points, derivs, convex: bool = False) -> "BoundaryCurve":
        thetas = np.asarray(thetas, dtype=np.float64)
        points = np.asarray(points, dtype=np.complex128)
        derivs = np.asarray(derivs, dtype=np.complex128)
        if not (thetas.shape == points.shape == derivs.shape) or thetas.ndim != 1:
            raise ShapeMismatchError("sampled curve needs aligned 1-d sample arrays")
        if not thetas.size:
            raise ShapeMismatchError("sampled curve needs at least one sample")
        for name, values in (("thetas", thetas), ("points", points), ("derivatives", derivs)):
            if not np.isfinite(values).all():
                raise ShapeMismatchError(f"sampled curve has non-finite {name}")
        step = 2.0 * np.pi / thetas.size
        if np.max(np.abs(thetas - step * np.arange(thetas.size))) > 1e-9:
            raise ShapeMismatchError("sampled curve must use uniform angles from 0")
        return cls(kind="sampled", params={"convex": bool(convex)},
                   samples=[thetas, points, derivs])

    @property
    def convex(self) -> bool:
        if self.kind in ("disc", "ellipse"):
            return True
        if self.kind == "annulus":
            return False
        return bool(self.params.get("convex", False))

    def point(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if self.kind == "disc":
            return self.params["radius"] * np.exp(1j * theta)
        if self.kind == "ellipse":
            return self.params["a"] * np.cos(theta) + 1j * self.params["b"] * np.sin(theta)
        raise ShapeMismatchError(f"curve kind {self.kind!r} has no closed form")

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if self.kind == "disc":
            return 1j * self.params["radius"] * np.exp(1j * theta)
        if self.kind == "ellipse":
            return -self.params["a"] * np.sin(theta) + 1j * self.params["b"] * np.cos(theta)
        raise ShapeMismatchError(f"curve kind {self.kind!r} has no closed form")

    def sample(self, nodes: int):
        """Uniform samples (thetas, points, derivatives) of the curve."""
        if self.kind == "sampled":
            thetas, points, derivs = self.samples
            if nodes != thetas.size:
                raise ShapeMismatchError(
                    f"sampled curve has {thetas.size} nodes, requested {nodes}"
                )
            return thetas, points, derivs
        if self.kind == "annulus":
            raise NonConvexCurveError("annulus boundary is not a single Jordan curve")
        thetas = 2.0 * np.pi * np.arange(nodes) / nodes
        return thetas, self.point(thetas), self.derivative(thetas)

    def support(self, theta) -> np.ndarray:
        """Support function h(theta) = max Re(e^{-i theta} z) over the region."""
        theta = np.asarray(theta, dtype=np.float64)
        if self.kind == "disc":
            return np.full(theta.shape, self.params["radius"])
        if self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            return np.sqrt((a * np.cos(theta)) ** 2 + (b * np.sin(theta)) ** 2)
        if self.kind == "sampled" and self.convex:
            pts = self.samples[1]
            return np.max(
                np.real(np.exp(-1j * theta)[..., None] * pts[None, ...]), axis=-1
            )
        raise NonConvexCurveError(f"no support function for curve kind {self.kind!r}")

    def diameter(self) -> float:
        if self.kind == "annulus":
            return 2.0
        sweep = np.linspace(0.0, np.pi, 181)
        h = self.support(sweep)
        hop = self.support(sweep + np.pi)
        return float(np.max(h + hop))


@dataclass
class RangeReport:
    """Support-function sweep of a numerical range."""

    thetas: np.ndarray
    support: np.ndarray
    points: np.ndarray
    radius: float


def _sweep(t, angles: int):
    """The checked operator, the uniform sweep angles and the stack of
    Hermitian parts Re(e^{-i theta} T), one per angle."""
    t = asmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatchError("numerical range needs a square matrix")
    if t.shape[0] == 0:
        raise ShapeMismatchError("numerical range of an empty matrix")
    if angles < 3:
        raise ShapeMismatchError("need at least 3 sweep angles")
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    return t, thetas, herm_part(np.exp(-1j * thetas)[:, None, None] * t)


def numerical_range(t, angles: int = 256) -> RangeReport:
    """Sweep the support function of the numerical range.

    At each angle the top eigenvector of Re(e^{-i theta} T) gives both the
    support value h(theta) and a boundary point xi* T xi.  The numerical
    radius is the maximum support value over the sweep.  All angles share
    one batched eigh.
    """
    t, thetas, sweep = _sweep(t, angles)
    w, q = np.linalg.eigh(sweep)
    support = w[:, -1]
    xi = q[:, :, -1]
    points = np.sum(xi.conj() * (xi @ t.T), axis=1)
    return RangeReport(thetas=thetas, support=support, points=points,
                       radius=float(np.max(support)))


def contains_numerical_range(t, curve: BoundaryCurve, margin: float | None = None,
                             angles: int = 256) -> bool:
    """Whether W(T) sits inside the curve's region with the given margin.

    Convex regions compare support functions: h_T(theta) <= h_curve(theta)
    - margin on the sweep.  Default margin is 2% of the region diameter.

    h_T(theta) is the largest eigenvalue of H = Re(e^{-i theta} T), so an
    angle is inside as soon as (h_curve(theta) - margin) I - H is positive
    definite, which its LDL* pivots certify when they are all positive.
    Only the angles that screen leaves undecided go through the batched
    eigh of numerical_range and the comparison above, with the same bits.
    """
    if not curve.convex:
        raise NonConvexCurveError("containment test requires a convex curve")
    if margin is None:
        margin = 0.02 * curve.diameter()
    t, thetas, sweep = _sweep(t, angles)
    bound = curve.support(thetas) - margin
    gap = -sweep
    diag = np.arange(t.shape[0])
    gap[:, diag, diag] += bound[:, None]
    rest = ~(_ldl_pivots(gap) > 0).all(axis=1)
    if not rest.any():
        return True
    support = np.linalg.eigh(sweep[rest])[0][:, -1]
    return bool(np.all(support <= bound[rest]))


_COND_CAP = 1e12


def _resolvents(t: np.ndarray, zetas) -> np.ndarray:
    """The stack of resolvents (zeta_j - T)^{-1}, one per node.

    One batched inverse forms the stack.  Since cond_2(M) <=
    ||M||_F ||M^{-1}||_F, the stack is accepted when that bound is within
    _COND_CAP at every node, and that never accepts a node the SVD rule
    below would refuse.  When the inverse fails, or some node's bound
    exceeds the cap (or is NaN), one batched SVD checks every condition
    number against _COND_CAP, as the rule, and raises on the first node
    over it.
    """
    zetas = np.asarray(zetas, dtype=np.complex128)
    m = zetas[:, None, None] * np.eye(t.shape[0]) - t
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        pass
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(m, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
        if np.all(bound <= _COND_CAP):
            return inv
    sv = np.linalg.svd(m, compute_uv=False)
    bad = (sv[:, -1] <= 0) | (sv[:, 0] > _COND_CAP * sv[:, -1])
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ResolventSingularError(
            f"resolvent at {complex(zetas[j]):.6g} is numerically singular "
            f"(condition {sv[j, 0] / max(sv[j, -1], 1e-300):.2e})"
        )
    return np.linalg.inv(m)


def _densities(t: np.ndarray, zetas, dzetas) -> np.ndarray:
    """The stack Re[dzeta_j / (2 pi i) (zeta_j - T)^{-1}], one per node."""
    dzetas = np.asarray(dzetas, dtype=np.complex128)
    return herm_part((dzetas / (2j * np.pi))[:, None, None] * _resolvents(t, zetas))


def boundary_density(t, curve: BoundaryCurve, theta: float) -> np.ndarray:
    """The matrix density D(theta) of the boundary measure at one angle.

    PSD whenever the numerical range lies strictly inside the curve; the
    trapezoid sum of D over a uniform grid converges to the identity.
    """
    return _densities(asmatrix(t), [curve.point(theta)],
                      [curve.derivative(theta)])[0]


def _project_densities(mats: np.ndarray, tol: Tolerances) -> np.ndarray:
    """psd_project of a stack of Hermitian matrices, screened: a finite
    matrix whose LDL* pivots are all positive is positive definite, so it
    is its own projection and is kept as it is; only the rest go through
    psd_project."""
    rest = ~((_ldl_pivots(mats) > 0).all(axis=1) & np.isfinite(mats).all(axis=(1, 2)))
    if not rest.any():
        return mats
    out = mats.copy()
    out[rest] = psd_project(mats[rest], tol)
    return out


def quadrature_measure(t, curve: BoundaryCurve, nodes: int,
                       tol: Tolerances = DEFAULT_TOL) -> AtomicMeasure:
    """Trapezoid discretization of the boundary measure as point atoms.

    Weights are w_j = 2 pi / nodes times the PSD projection of
    D(theta_j); the discretization defect || sum P_j - I || (order
    1/nodes^2 or better) is recorded, then removed exactly by the
    measure's congruence normalization.  A node count too coarse for
    that repair raises NotNormalizedError naming the node count.

    W(T) inside the curve makes every density positive definite, and
    then the projection keeps w D(theta_j), which is Hermitian by
    construction: the LDL* pivots of each density certify that, and only
    the densities they leave undecided (semidefinite or indefinite) go
    through psd_project's eigh.
    """
    if nodes < 1:
        raise ShapeMismatchError(f"need at least one quadrature node, got {nodes}")
    t = asmatrix(t)
    if not contains_numerical_range(t, curve):
        raise NotContainedError(
            "numerical range is not inside the curve with the required margin"
        )
    _, zetas, dzetas = curve.sample(nodes)
    w = 2.0 * np.pi / nodes
    weights = _project_densities(w * _densities(t, zetas, dzetas), tol)
    mu = AtomicMeasure(dim=t.shape[0], atoms=Atoms.from_points(zetas, weights))
    try:
        # normalized() records the defect it removes
        return mu.normalized(tol)
    except NotNormalizedError as exc:
        defect = float(np.linalg.norm(mu.unit_matrix() - np.eye(mu.dim)))
        raise NotNormalizedError(
            f"trapezoid rule at {nodes} nodes misses unit mass by {defect:.3e}; "
            "use more nodes"
        ) from exc


def _winding_inside(z: complex, pts: np.ndarray, diam: float) -> bool:
    rel = pts - z
    if np.min(np.abs(rel)) < 1e-9 * max(diam, 1.0):
        return False
    angles = np.angle(rel)
    dphi = np.diff(np.concatenate([angles, angles[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    return abs(dphi.sum() / (2.0 * np.pi) - 1.0) < 0.25


def cauchy_transform(f_samples, curve: BoundaryCurve, at):
    """Trapezoid Cauchy transform of the conjugated samples.

    Computes (C fbar)(z) = (2 pi i)^{-1} oint conj(f(zeta)) / (zeta - z)
    dzeta at a scalar z or, entrywise in the functional calculus sense, at
    a matrix argument.  The evaluation point (or the spectrum) must lie
    strictly inside the curve.

    ``f_samples`` holds one function's node samples, or a stack of shape
    (functions, nodes); a stack gets one transform per function, all from
    one set of resolvents.
    """
    f_samples = np.asarray(f_samples, dtype=np.complex128)
    nodes = f_samples.shape[-1]
    _, zetas, dzetas = curve.sample(nodes)
    w = 1.0 / nodes  # trapezoid weight 2 pi / nodes divided by 2 pi
    diam = curve.diameter()
    scalar = np.isscalar(at) or np.asarray(at).ndim == 0
    if scalar:
        z = complex(at)
        if not _winding_inside(z, zetas, diam):
            raise ResolventSingularError(
                f"evaluation point {z:.6g} is not strictly inside the curve"
            )
        kern = dzetas / (zetas - z)
        out = np.sum(np.conj(f_samples) * kern, axis=-1) * w / 1j
        return complex(out) if out.ndim == 0 else out
    t = asmatrix(at)
    for lam in np.linalg.eigvals(t):
        if not _winding_inside(complex(lam), zetas, diam):
            raise ResolventSingularError(
                f"eigenvalue {lam:.6g} is not strictly inside the curve"
            )
    acc = np.tensordot(np.conj(f_samples) * dzetas, _resolvents(t, zetas), axes=1)
    return acc * w / 1j
