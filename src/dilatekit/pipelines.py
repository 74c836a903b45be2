"""End-to-end dilation pipelines.

Each pipeline takes raw operator input, produces the moment data it must
match, constructs an explicit dilation (GNS for single-operator circle
data, fit + reduce + assemble for everything on a grid), and returns the
dilation together with an independent verification report and the
dimension accounting.

The fitted pipelines share one shape: fit PSD atom weights on a grid,
view the fitted measure as a matrix convex combination of its pure
atoms, Caratheodory-reduce that combination, and assemble the Naimark
dilation of the reduced measure.  Reduction is what keeps the dilation
space inside the subhomogeneity bound; the fit alone would scale with
the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve, cauchy_transform, quadrature_measure
from .convex import caratheodory_reduce
from .errors import NotCommutingError
from .linalg import DEFAULT_TOL, Tolerances, asmatrix
from .measures import (
    AtomicMeasure,
    FitOptions,
    annulus_grid,
    assemble_atomic_dilation,
    clock_phase_grid,
    combination_to_measure,
    fit_matrix_measure,
    measure_to_combination,
    torus_grid,
)
from .moments import (
    MomentTable,
    circle_moments,
    laurent_moments,
    qcommuting_moments,
    regular_moments,
    toeplitz_gns_unitary,
)
from .verify import Relations, dimension_report, verify_dilation

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
    for the GNS route, which never forms one); ``reduced_terms`` counts
    the matrix convex combination terms that survived reduction.
    """

    dilation: object
    targets: MomentTable
    verification: object
    dimensions: object
    measure: AtomicMeasure | None = None
    reduced_terms: int | None = None

    @property
    def passed(self) -> bool:
        return bool(self.verification.passed and self.dimensions.ok)


def _reduce_and_assemble(mu: AtomicMeasure, table: MomentTable,
                         tol: Tolerances):
    """Common back half of the fitted pipelines.

    The fitted measure typically has one weight per grid atom; viewing
    it as a combination of pure atoms and reducing keeps at most
    d^2 (dim S + 1) rank-one terms without moving the barycenter.
    """
    comb = measure_to_combination(mu, table, tol)
    reduced = caratheodory_reduce(comb, tol)
    slim = combination_to_measure(reduced, mu).normalized(tol)
    dil = assemble_atomic_dilation(slim, indices=table.indices(), tol=tol)
    return dil, slim, len(reduced.terms)


def dilate_circle(t, order: int, rho: float = 1.0,
                  tol: Tolerances = DEFAULT_TOL) -> PipelineResult:
    """Unitary rho-dilation matching L_k = rho^{-1} T^k for k <= order.

    rho = 1 is the contraction case, rho = 2 the numerical-radius case;
    the block Toeplitz kernel gates feasibility (NotPSD when the data
    admits no such dilation at this truncation).
    """
    t = asmatrix(t)
    table = circle_moments(t, rho, order)
    dil = toeplitz_gns_unitary(table, tol)
    report = verify_dilation(dil, table, Relations.commuting(1), tol)
    dims = dimension_report(dil, t.shape[0], 2 * order + 1)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims)


def dilate_regular(ts, order: int, nodes: int = 12,
                   tol: Tolerances = DEFAULT_TOL,
                   options: FitOptions | None = None) -> PipelineResult:
    """Commuting unitary tuple matching the regular moments of ``ts``.

    The measure is fitted on the nodes^nu torus lattice, so moment data
    forcing off-grid atoms (e.g. a unitary with off-lattice spectrum) is
    reported Infeasible rather than approximated silently.
    """
    table = regular_moments(ts, order)
    grid = torus_grid(nodes, table.nu)
    mu = fit_matrix_measure(table, grid, tol, options).normalized(tol)
    dil, slim, nterms = _reduce_and_assemble(mu, table, tol)
    report = verify_dilation(dil, table, Relations.commuting(table.nu), tol,
                             moment_tol=max(tol.residual_tol, 1e-6))
    dims = dimension_report(dil, table.dim, (2 * order + 1) ** table.nu)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims, measure=slim, reduced_terms=nterms)


def dilate_boundary(t, curve: BoundaryCurve, order: int = 4,
                    nodes: int = 256, margin: float | None = None,
                    tol: Tolerances = DEFAULT_TOL) -> PipelineResult:
    """Normal dilation on a convex curve enclosing the numerical range.

    The boundary measure of T is discretized by trapezoid quadrature and
    assembled into a normal N with spectrum on the curve.  The matched
    data is the skew compression

        L_k = (T^k + ((C conj(z^k))(T))*) / 2,

    computed with the same node count, so the verification residual
    reflects reduction and assembly error on top of the quadrature
    truncation already present in both sides.
    """
    t = asmatrix(t)
    d = t.shape[0]
    mu = quadrature_measure(t, curve, nodes, tol, margin=margin)
    _, zetas, _ = curve.sample(nodes)
    powers = np.arange(1, order + 1)
    cks = cauchy_transform(zetas[None, :] ** powers[:, None], curve, t, tol)
    values = {}
    power = np.eye(d, dtype=np.complex128)
    for k, ck in zip(powers, cks):
        power = power @ t
        values[(int(k),)] = (power + ck.conj().T) / 2.0
    table = MomentTable(dim=d, nu=1, values=values, symmetric=True)
    dil, slim, nterms = _reduce_and_assemble(mu, table, tol)
    relations = Relations(rule="laurent", unitary=False, negatives="adjoint")
    report = verify_dilation(dil, table, relations, tol,
                             moment_tol=max(tol.residual_tol, 1e-5))
    dims = dimension_report(dil, d, 2 * order + 1)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims, measure=slim, reduced_terms=nterms)


def dilate_annulus(t, inner_radius: float, order: int = 3, nodes: int = 64,
                   tol: Tolerances = DEFAULT_TOL,
                   options: FitOptions | None = None) -> PipelineResult:
    """Normal dilation on the two boundary circles of an annulus.

    Matches genuine two-sided powers T^k, |k| <= order, of an invertible
    operator; negative indices are inverse powers throughout (on the
    inner circle the conjugate reading would be wrong by a factor
    r^{2|k|}).
    """
    t = asmatrix(t)
    table = laurent_moments(t, order)
    grid = annulus_grid(nodes, inner_radius)
    mu = fit_matrix_measure(table, grid, tol, options).normalized(tol)
    dil, slim, nterms = _reduce_and_assemble(mu, table, tol)
    relations = Relations(rule="laurent", unitary=False, negatives="inverse")
    report = verify_dilation(dil, table, relations, tol,
                             moment_tol=max(tol.residual_tol, 1e-6))
    dims = dimension_report(dil, t.shape[0], 4 * order + 1)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims, measure=slim, reduced_terms=nterms)


def dilate_qcommute(t1, t2, a: int, b: int, order: int = 1, nodes: int = 8,
                    tol: Tolerances = DEFAULT_TOL,
                    options: FitOptions | None = None,
                    commute_tol: float = 1e-10) -> PipelineResult:
    """q-commuting unitary pair matching the ordered moments T1^n T2^m.

    q = exp(2 pi i a/b) with integer a, b; the candidate atoms are
    clock-and-shift pairs at lattice phases, the b-dimensional
    irreducible representations of the rational rotation relation.
    Inputs violating T2 T1 = q T1 T2 are rejected up front.
    """
    t1 = asmatrix(t1)
    t2 = asmatrix(t2)
    # grid construction also enforces integer a, b
    grid = clock_phase_grid(a, b, nodes)
    q = np.exp(2j * np.pi * a / b)
    scale = max(1.0, float(np.linalg.norm(t1) * np.linalg.norm(t2)))
    defect = float(np.linalg.norm(t2 @ t1 - q * (t1 @ t2)))
    if defect > commute_tol * scale:
        raise NotCommutingError(
            f"pair is not q-commuting for a/b = {a}/{b} (defect {defect:.3e})"
        )
    table = qcommuting_moments(t1, t2, order)
    mu = fit_matrix_measure(table, grid, tol, options).normalized(tol)
    dil, slim, nterms = _reduce_and_assemble(mu, table, tol)
    report = verify_dilation(dil, table, Relations.exchange_pair(q), tol,
                             moment_tol=max(tol.residual_tol, 1e-6))
    dims = dimension_report(dil, t1.shape[0], 2 * (order + 1) ** 2 - 1,
                            sub_rank=b)
    return PipelineResult(dilation=dil, targets=table, verification=report,
                          dimensions=dims, measure=slim, reduced_terms=nterms)
