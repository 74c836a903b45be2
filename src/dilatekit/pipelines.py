"""End-to-end dilation pipelines.

Each pipeline takes raw operator input, produces the moment data it must
match, constructs an explicit dilation (GNS for one-variable circle and
regular data, fit + reduce + assemble for everything on a grid), and
returns the dilation together with an independent verification report
and the dimension accounting.

The fitted pipelines share one shape: fit PSD atom weights on a grid,
view the fitted measure as a matrix convex combination of its pure
atoms, Caratheodory-reduce that combination, and assemble the Naimark
dilation of the reduced measure.  Reduction is what keeps the dilation
space inside the subhomogeneity bound; the fit alone would scale with
the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .boundary import BoundaryCurve, cauchy_transform, quadrature_measure
from .convex import caratheodory_reduce
from .errors import DimensionMismatchError, NotCommutingError
from .linalg import DEFAULT_TOL, Tolerances, _norm, asmatrix
from .measures import (
    AtomicMeasure,
    Atoms,
    _phase_classes,
    _require_nodes,
    annulus_grid,
    assemble_atomic_dilation,
    combination_to_measure,
    fit_matrix_measure,
    measure_to_combination,
    torus_grid,
)
from .moments import (
    _COMMUTE_TOL,
    Dilation,
    MomentTable,
    _require_order,
    circle_moments,
    laurent_moments,
    qcommuting_moments,
    regular_moments,
    toeplitz_gns_unitary,
)
from .verify import (
    DimensionReport,
    Relations,
    VerificationReport,
    dimension_report,
    verify_dilation,
)

__all__ = [
    "PipelineResult",
    "dilate_circle",
    "dilate_regular",
    "dilate_boundary",
    "dilate_annulus",
    "dilate_qcommute",
]


@dataclass
class PipelineResult:
    """A constructed dilation bundled with its evidence.

    ``measure`` is the reduced atomic measure behind the dilation (None
    for the GNS routes of dilate_circle and one-variable dilate_regular,
    which never form one; the Szego quadrature measure for dilate_boundary
    on a disc or an ellipse); ``reduced_terms`` counts the matrix convex
    combination terms that survived reduction.
    """

    dilation: Dilation
    targets: MomentTable
    verification: VerificationReport
    dimensions: DimensionReport
    measure: AtomicMeasure | None = None
    reduced_terms: int | None = None

    @property
    def passed(self) -> bool:
        return bool(self.verification.passed and self.dimensions.ok)


def _measure_result(mu: AtomicMeasure, table: MomentTable,
                    relations: Relations, tol: Tolerances, moment_tol: float,
                    dim_s: int, sub_rank: int = 1) -> PipelineResult:
    """Common back half of the measure pipelines: reduce the measure as a
    combination of its pure atoms (the barycenter stays put), assemble the
    Naimark dilation, and verify it with moment residuals held to
    max(residual_tol, moment_tol).  The reduction returns unit mass to
    within roundoff, so the reduced measure is not normalized again.
    """
    comb = measure_to_combination(mu, table, tol)
    reduced = caratheodory_reduce(comb, tol)
    slim = combination_to_measure(reduced, mu)
    dil = assemble_atomic_dilation(slim, indices=table.indices(), tol=tol)
    report = verify_dilation(dil, table, relations, tol,
                             moment_tol=max(tol.residual_tol, moment_tol))
    dims = dimension_report(dil, table.dim, dim_s, sub_rank=sub_rank)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims, measure=slim,
                          reduced_terms=len(reduced.terms))


def dilate_circle(t, order: int, rho: float = 1.0,
                  tol: Tolerances = DEFAULT_TOL) -> PipelineResult:
    """Unitary rho-dilation matching L_k = rho^{-1} T^k for k <= order.

    rho = 1 is the contraction case, rho = 2 the numerical-radius case;
    the block Toeplitz kernel gates feasibility (NotPSD when the data
    admits no such dilation at this truncation).
    """
    return _gns_result(circle_moments(asmatrix(t), rho, order), tol)


def _gns_result(table: MomentTable, tol: Tolerances) -> PipelineResult:
    """The unitary GNS dilation of a conjugate-closed one-variable table,
    verified as one commuting unitary."""
    dil = toeplitz_gns_unitary(table, tol)
    report = verify_dilation(dil, table, Relations.commuting(1), tol)
    dims = dimension_report(dil, table.dim, 2 * table.order() + 1)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims)


def dilate_regular(ts, order: int, nodes: int = 12,
                   tol: Tolerances = DEFAULT_TOL,
                   seed: int = 0) -> PipelineResult:
    """Commuting unitary tuple matching the regular moments of ``ts``.

    For two or more operators the measure is fitted on the nodes^nu
    torus lattice, so moment data forcing off-grid atoms (e.g. a unitary
    with off-lattice spectrum) is reported Infeasible rather than
    approximated silently.  ``seed`` draws the fit's initial weights.

    One operator's regular moments are its circle moments, so at nu = 1
    the unitary comes from the Szego recursion (toeplitz_gns_unitary), as
    in dilate_circle: no grid, no fit, K <= (order + 1) d, and every
    contraction passes, a unitary with off-lattice spectrum included.
    ``nodes`` and ``seed`` then have no effect, though nodes < 1 is still
    refused up front.
    """
    _require_nodes(nodes)
    table = regular_moments(ts, order)
    if table.nu == 1:
        return _gns_result(table, tol)
    grid = torus_grid(nodes, table.nu)
    mu = fit_matrix_measure(table, grid, tol, seed).normalized(tol)
    return _measure_result(mu, table, Relations.commuting(table.nu), tol,
                           1e-6, (2 * order + 1) ** table.nu)


def dilate_boundary(t, curve: BoundaryCurve, order: int = 4,
                    nodes: int = 256,
                    tol: Tolerances = DEFAULT_TOL) -> PipelineResult:
    """Normal dilation on a convex curve enclosing the numerical range.

    The boundary measure of T is discretized by trapezoid quadrature and
    assembled into a normal N with spectrum on the curve.  The matched
    data is the skew compression

        L_k = (T^k + ((C conj(z^k))(T))*) / 2.

    Only the Cauchy half of L_k is computed by the trapezoid rule, with
    the same node count as the measure; T^k is exact.  The measure's
    moments therefore miss L_k by half the trapezoid error of
    oint z^k (z - T)^{-1} dz, and the verification residual carries that
    quadrature error on top of reduction and assembly error.  Coarse node
    counts can fail the 1e-5 moment check on quadrature error alone.

    Two routes lead from the trapezoid measure to N.  On a sampled curve
    its nodes * d rank-one terms are Caratheodory-reduced and assembled.
    On a disc or an ellipse, zeta(theta) = alpha e^{i theta} + beta
    e^{-i theta} with alpha = (a + b)/2 and beta = (a - b)/2, so zeta^k
    and conj(zeta)^k are trigonometric polynomials of degree k, and the
    measure's trigonometric moments c_j = sum_l e^{i j theta_l} W_l,
    |j| <= order, fix every moment the table checks.  The Szego
    recursion (toeplitz_gns_unitary) turns them into a unitary U with
    V* U^j V = c_j on K <= (order + 1) d dimensions, and U's spectral
    measure, its eigenvalues e^{i theta_k} with weights (V* z_k)(V* z_k)*,
    is their Szego quadrature (Jones, Njastad & Thron 1989, Bull. LMS
    21).  Its atoms zeta(theta_k) on the curve replace the trapezoid
    nodes, and ``measure`` is that measure, on which reduction has
    nothing left to remove.  It has the trapezoid measure's moments to
    roundoff, so the quadrature error, and the residual, are unchanged.
    The dilation's provenance names the route, "szego-naimark".
    """
    t = asmatrix(t)
    d = t.shape[0]
    _require_order(order)
    mu = quadrature_measure(t, curve, nodes, tol)
    thetas, zetas, _ = curve.sample(nodes)
    powers = np.arange(1, order + 1)
    cks = cauchy_transform(zetas[None, :] ** powers[:, None], curve, t)
    values = {}
    power = np.eye(d, dtype=np.complex128)
    for k, ck in zip(powers, cks):
        power = power @ t
        values[(int(k),)] = (power + ck.conj().T) / 2.0
    table = MomentTable(dim=d, nu=1, values=values, symmetric=True)
    relations = Relations(rule="laurent", unitary=False, negatives="adjoint")
    if curve.kind not in ("disc", "ellipse"):
        return _measure_result(mu, table, relations, tol, 1e-5, 2 * order + 1)
    mu = _szego_measure(mu, thetas, curve, order, tol)
    result = _measure_result(mu, table, relations, tol, 1e-5, 2 * order + 1)
    result.dilation.provenance = "szego-naimark"
    return result


def _szego_measure(mu: AtomicMeasure, thetas: np.ndarray, curve: BoundaryCurve,
                   order: int, tol: Tolerances) -> AtomicMeasure:
    """The Szego quadrature of a measure on a disc or an ellipse, whose
    atoms sit at curve.point(thetas): the spectral measure of the GNS
    unitary of its trigonometric moments up to ``order``, carried onto
    the curve.  A complex Schur form of the unitary is diagonal to
    roundoff; each eigenvalue is put on the circle by its angle."""
    trig = np.exp(1j * np.outer(np.arange(1, order + 1), thetas))
    moments = np.tensordot(trig, mu.atoms.weights, axes=1)
    table = MomentTable(dim=mu.dim, nu=1, symmetric=True,
                        values={(j,): c for j, c in enumerate(moments, 1)})
    u = toeplitz_gns_unitary(table, tol).generators[0]
    tri, z = scipy.linalg.schur(u, output="complex")
    y = z[:mu.dim].T  # V* z_k, one row per eigenvector
    weights = y[:, :, None] * y.conj()[:, None, :]
    atoms = Atoms.from_points(curve.point(np.angle(np.diag(tri))), weights)
    return replace(mu, atoms=atoms)


def dilate_annulus(t, inner_radius: float, order: int = 3, nodes: int = 64,
                   tol: Tolerances = DEFAULT_TOL,
                   seed: int = 0) -> PipelineResult:
    """Normal dilation on the two boundary circles of an annulus.

    Matches genuine two-sided powers T^k, |k| <= order, of an invertible
    operator; negative indices are inverse powers throughout (on the
    inner circle the conjugate reading would be wrong by a factor
    r^{2|k|}).
    """
    t = asmatrix(t)
    table = laurent_moments(t, order)
    grid = annulus_grid(nodes, inner_radius)
    mu = fit_matrix_measure(table, grid, tol, seed).normalized(tol)
    relations = Relations(rule="laurent", unitary=False, negatives="inverse")
    return _measure_result(mu, table, relations, tol, 1e-6, 4 * order + 1)


def dilate_qcommute(t1, t2, a: int, b: int, order: int = 1, nodes: int = 8,
                    tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> PipelineResult:
    """q-commuting unitary pair matching the ordered moments T1^n T2^m.

    q = exp(2 pi i a/b) with integer a, b, and with a/b in lowest terms
    the candidate atoms are the b-dimensional irreducible representations
    of the rational rotation relation, clock-and-shift pairs at phases of
    the nodes x nodes lattice.  Since q depends only on a/b, (2, 4) gives
    the dilation of (1, 2).  Pairs whose phases differ by multiples of
    2 pi / b are unitarily equivalent, so with g = gcd(nodes, b) the fit
    takes one pair per class, the (nodes/g)^2 pairs at the lowest phases,
    and counts each for its g^2 lattice pairs (fit_matrix_measure's
    class_size): the same feasible set as the whole lattice from a
    g^2-th of its atoms.  Inputs violating T2 T1 = q T1 T2 are rejected
    up front.
    """
    t1 = asmatrix(t1)
    t2 = asmatrix(t2)
    if t1.shape != t2.shape or t1.shape[0] != t1.shape[1]:
        raise DimensionMismatchError(
            "q-commuting pair needs two square matrices of one size, got "
            f"{t1.shape} and {t2.shape}")
    # grid construction also enforces integer a, b and nodes >= 1
    grid, class_size = _phase_classes(a, b, nodes)
    q = np.exp(2j * np.pi * a / b)
    scale = max(1.0, _norm(t1) * _norm(t2))
    defect = _norm(t2 @ t1 - q * (t1 @ t2))
    if defect > _COMMUTE_TOL * scale:
        raise NotCommutingError(
            f"pair is not q-commuting for a/b = {a}/{b} (defect {defect:.3e})"
        )
    table = qcommuting_moments(t1, t2, order)
    mu = fit_matrix_measure(table, grid, tol, seed,
                            class_size=class_size).normalized(tol)
    return _measure_result(mu, table, Relations.exchange_pair(q), tol, 1e-6,
                           2 * (order + 1) ** 2 - 1, sub_rank=grid.rep_dim)
