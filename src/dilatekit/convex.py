"""Matrix convex combinations: lifting, reduction, irreducible splitting.

A matrix convex combination sum_j gamma_j* x_j gamma_j (with
sum_j gamma_j* gamma_j = I_n) is treated as data: the ``gamma_j`` are
rectangular coefficient matrices and the ``x_j`` are matrix points, i.e.
stacks (nvars, k, k) of square matrices all of one level.  The trace convention
throughout is the normalized one, tr(I_n) / n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    InvalidCombinationError,
    NotHermitianError,
    NotNormalizedError,
    ShapeMismatchError,
    ZeroCoefficientError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _hvec_herm_into,
    asmatrix,
    herm_eig,
    herm_part,
    inv_sqrt_psd,
)

__all__ = [
    "MatrixPoint",
    "MatrixConvexCombination",
    "compress_to_surjective",
    "caratheodory_reduce",
    "irreducible_split",
    "decompose_irreducible",
]


def _unchecked(cls, **fields):
    """An instance of the dataclass cls with the given fields, skipping
    __post_init__: for slices of a stack its caller has checked whole."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass
class MatrixPoint:
    """A point in a matrix convex set: nvars square coordinates at one level.

    ``coords`` is one complex128 array (nvars, k, k), converted once from
    any sequence of k x k matrices.  ``label`` is free-form caller metadata
    (e.g. which measure atom the point came from); it is carried through
    reductions untouched.
    """

    coords: np.ndarray
    selfadjoint: bool = False
    label: object = None

    def __post_init__(self):
        self.coords = self._check_stack([self.coords], self.selfadjoint)[0]

    @staticmethod
    def _check_stack(stack, selfadjoint: bool) -> np.ndarray:
        """The coordinates of a stack of points as one complex128 array
        (points, nvars, k, k), after every check of a single point: each
        point has at least one coordinate, every coordinate is a finite
        2-d array, all are square of one level, and a selfadjoint point's
        coordinates are Hermitian to 1e-10 times their norm (at least 1).
        """
        try:
            c = np.asarray(stack, dtype=np.complex128)
        except ValueError:  # ragged: the coordinates' shapes differ
            c = np.empty(0)
        if c.ndim != 4 or not c.shape[1]:  # not one stack: find the fault point by point
            if not all(len(coords) for coords in stack):
                raise DimensionMismatchError("a matrix point needs at least one coordinate")
            each = [np.asarray(x, dtype=np.complex128) for coords in stack for x in coords]
            if any(x.ndim != 2 for x in each):
                raise ShapeMismatchError("every coordinate must be a 2-d array")
            c = np.concatenate([np.empty(0)] + [x.ravel() for x in each])
        if not np.all(np.isfinite(c)):
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        if c.ndim != 4 or c.shape[2] != c.shape[3]:
            raise DimensionMismatchError("coordinates must be square, one level")
        if selfadjoint:
            defect = np.linalg.norm(c - c.conj().swapaxes(2, 3), axis=(2, 3))
            if np.any(defect > 1e-10 * np.maximum(np.linalg.norm(c, axis=(2, 3)), 1.0)):
                raise NotHermitianError("selfadjoint point has a non-Hermitian coordinate")
        return c

    @classmethod
    def _stack(cls, coords, selfadjoint: bool = False, labels=None) -> list:
        """One point per slice of the stack coords (points, nvars, k, k),
        labelled in order by ``labels``; the stack is checked once, whole."""
        c = cls._check_stack(coords, selfadjoint)
        labels = [None] * len(c) if labels is None else labels
        return [_unchecked(cls, coords=x, selfadjoint=selfadjoint, label=label)
                for x, label in zip(c, labels)]

    @property
    def level(self) -> int:
        return self.coords.shape[1]

    @property
    def nvars(self) -> int:
        return self.coords.shape[0]


@dataclass
class MatrixConvexCombination:
    """Terms (gamma_j, x_j) with sum gamma_j* gamma_j = I_n.

    Each coefficient is converted to a complex128 array once; one pass
    over all of them rejects NaN/Inf entries, and one pass over the
    terms' shapes checks every point's nvars and every coefficient's
    shape.
    """

    n: int
    terms: list = field(default_factory=list)

    def __post_init__(self):
        gammas = [np.asarray(gamma, dtype=np.complex128) for gamma, _ in self.terms]
        points = [point for _, point in self.terms]
        if gammas and not np.isfinite(np.concatenate([g.ravel() for g in gammas])).all():
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        # one pass: each term's (nvars, level) + coefficient shape, then the
        # first term of a faulty shape names its first failed check
        shapes = [p.coords.shape[:2] + g.shape for g, p in zip(gammas, points)]
        nvars = shapes[0][0] if shapes else 0
        bad = min((shapes.index(s) for s in dict.fromkeys(shapes)
                   if s[0] != nvars or s[2:] != (s[1], self.n)), default=None)
        if bad is not None:
            gamma, point = gammas[bad], points[bad]
            if point.nvars != nvars:
                raise DimensionMismatchError(
                    "every point needs the same number of coordinates")
            if gamma.ndim != 2:
                raise ShapeMismatchError(f"expected a 2-d array, got ndim={gamma.ndim}")
            raise DimensionMismatchError(
                f"coefficient shape {gamma.shape} does not match "
                f"point level {point.level} and target level {self.n}"
            )
        self.terms = list(zip(gammas, points))

    def _levels(self):
        """(term indices, coefficients stacked (terms, k, n)) for each point
        level k, levels in order of first use."""
        levels = np.array([point.coords.shape[1] for _, point in self.terms], dtype=int)
        for level in dict.fromkeys(levels.tolist()):
            idx = np.flatnonzero(levels == level)
            yield idx, np.array([self.terms[j][0] for j in idx.tolist()])

    def defect(self) -> float:
        s = np.zeros((self.n, self.n), dtype=np.complex128)
        for _, beta in self._levels():
            s += np.einsum("jkn,jkm->nm", beta.conj(), beta)
        return float(np.linalg.norm(s - np.eye(self.n)))

    def validate(self, tol: float = 1e-10):
        _require_unit(self.defect(), tol)

    def barycenter(self) -> np.ndarray:
        """The represented point sum_j gamma_j* x_j gamma_j, stacked (nvars, n, n)."""
        out = np.zeros((self.terms[0][1].nvars, self.n, self.n), dtype=np.complex128)
        for idx, beta in self._levels():
            x = np.stack([self.terms[j][1].coords for j in idx])
            out += np.einsum("jkn,jvkl,jlm->vnm", beta.conj(), x, beta)
        return out


def _require_unit(defect: float, tol: float):
    """Refuse coefficients whose sum of gamma* gamma is defect away from I."""
    if defect > tol:
        raise InvalidCombinationError(
            f"coefficients sum to identity with defect {defect:.3e} > {tol:.1e}"
        )


def _lift_terms(c: MatrixConvexCombination):
    """Batched lift of every nonzero term, in term order.

    Terms are grouped by point level so that each group is one stacked
    computation.  Returns the kept term indices, the weights t_j, the
    coefficients gamma_j (a list, their heights differ), and the stacks
    alpha (m, n, n) and value (m, nvars, n, n).  Refuses the combination
    when sum t_j alpha_j = sum beta_j* beta_j is more than 1e-10 from I.
    """
    n = c.n
    nvars = c.terms[0][1].nvars if c.terms else 0
    m = len(c.terms)
    t = np.empty(m)
    gammas = [None] * m
    alpha = np.empty((m, n, n), dtype=np.complex128)
    value = np.empty((m, nvars, n, n), dtype=np.complex128)
    for idx, beta in c._levels():
        x = np.stack([c.terms[j][1].coords for j in idx])
        tg = np.einsum("jkn,jkn->j", beta.conj(), beta).real / n
        gamma = beta / np.sqrt(np.where(tg > 0.0, tg, 1.0))[:, None, None]
        gh = np.swapaxes(gamma.conj(), -1, -2)
        t[idx] = tg
        alpha[idx] = gh @ gamma
        if idx.size == m:  # one level: the products go straight into the stack
            np.matmul(gh[:, None] @ x, gamma[:, None], out=value)
        else:
            value[idx] = gh[:, None] @ x @ gamma[:, None]
        for j, g in zip(idx, gamma):
            gammas[j] = g
    _require_unit(float(np.linalg.norm(np.einsum("j,jkl->kl", t, alpha) - np.eye(n))),
                  1e-10)
    kept = np.flatnonzero(t > 0.0)
    # no copies of the stacks when every term is kept
    sel = kept if kept.size < m else slice(None)
    return kept, t[kept], [gammas[j] for j in kept], alpha[sel], value[sel]


def _unlift(n: int, w, gammas, alpha, points, tol: Tolerances = DEFAULT_TOL
            ) -> MatrixConvexCombination:
    """Rebuild a matrix convex combination from weighted lifted terms.

    The inverse of the lift in :func:`_lift_terms`: beta_j = w_j^{1/2}
    gamma_j.  Refuses the terms when the w-average of the alphas is more
    than 1e-9 from I; otherwise one congruence by the inverse square root
    of that average absorbs the remaining roundoff, so that the output
    satisfies sum beta* beta = I_n to machine precision.
    """
    mean_alpha = np.einsum("j,jkl->kl", w, alpha)
    drift = float(np.linalg.norm(mean_alpha - np.eye(n)))
    if drift > 1e-9:
        raise NotNormalizedError(
            f"weighted alphas do not average to the identity (defect {drift:.3e})")
    corr = inv_sqrt_psd(mean_alpha, tol)
    betas = [np.sqrt(wj) * g @ corr for wj, g in zip(w.tolist(), gammas)]
    return MatrixConvexCombination(n=n, terms=list(zip(betas, points)))


def compress_to_surjective(gamma, point: MatrixPoint, tol: Tolerances = DEFAULT_TOL):
    """Replace (gamma, x) by an equivalent term with surjective coefficient.

    Factor gamma = delta beta with delta an isometry onto range(gamma) and
    beta = delta* gamma surjective; the point is compressed to
    delta* x delta.  The pair (gamma* gamma, gamma* x gamma) is unchanged.
    """
    gamma = asmatrix(gamma)
    k, n = gamma.shape
    if k != point.level:
        raise DimensionMismatchError("coefficient height must match point level")
    u, s, _ = np.linalg.svd(gamma)
    if s.size == 0 or s[0] <= 0.0:
        raise ZeroCoefficientError("cannot compress a zero coefficient")
    r = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    delta = u[:, :r]
    beta = delta.conj().T @ gamma
    return beta, replace(point, coords=delta.conj().T @ point.coords @ delta)


# The relative singular value below which a commutant direction is null.
_NULL_TOL = 1e-10


def _lift_columns(alpha, value, selfadjoint: bool) -> np.ndarray:
    """Real affine coordinates of lifted terms, one column per term.

    Each column is hvec(alpha) followed by every coordinate of the value
    (hvec for Hermitian data, real then imaginary parts of every entry
    otherwise) and a final 1, so that A t = A t' says two weightings
    have the same barycenter and the same total weight.
    """
    m, nvars, n, _ = value.shape
    nn = n * n
    out = np.empty((m, nn * (nvars if selfadjoint else 2 * nvars) + nn + 1))
    _hvec_herm_into(alpha, out[:, :nn])
    # the coordinate block, viewed one value coordinate at a time
    parts = out[:, nn:-1].reshape(m, nvars, -1)
    if selfadjoint:
        _hvec_herm_into(value, parts)
    else:
        flat = value.reshape(m, nvars, nn)
        parts[:, :, :nn] = flat.real
        parts[:, :, nn:] = flat.imag
    out[:, -1] = 1.0
    return out.T


def _svd(a: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """The SVD (u, s, vh), or s alone without ``compute_uv``, retrying
    LAPACK's gesvd when the default divide-and-conquer driver fails to
    converge."""
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                                lapack_driver="gesvd")


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values: the reduction's one cutoff."""
    return int(np.count_nonzero(s > 1e-11 * max(s[0], 1.0)))


def _row_basis(a: np.ndarray) -> np.ndarray:
    """The r rows U_r^T a, of full row rank, that keep every linear
    relation among the columns of ``a``: r is the rank of a with the
    reduction's cutoff, and U_r holds its r leading left singular vectors.

    A QR of the transpose, a^T = Q R, leaves the small square R^T, which
    has the singular values and left singular vectors of a, so no SVD
    runs on all the columns of a.
    """
    u, s, _ = _svd(np.linalg.qr(a.T, mode="r").T, full_matrices=False)
    return u[:, :_rank(s)].T @ a


# A tableau entry below this fraction of its column's largest is not an
# eligible pivot: pivoting on it would scale the tableau by its inverse.
_PIVOT_TOL = 1e-8


def _sweep(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Eliminate terms until the columns of ``a`` with nonzero weight are
    linearly independent, keeping ``a @ t``; returns the new weights,
    zero for retired terms.

    One values-only SVD gives the rank of the columns, with the
    reduction's cutoff.  Independent columns are returned as they are.
    Rows of lower rank are first replaced by their row basis
    (:func:`_row_basis`), which is of full row rank; one pass of the
    tableau sweep (:func:`_tableau_sweep`) then leaves at most ``rank``
    terms.  Singular vectors are computed only on those deficient rows.
    """
    if t.size <= 1:
        return t.copy()
    rank = _rank(_svd(a, compute_uv=False))
    if rank >= t.size:
        return t.copy()
    if rank < a.shape[0]:
        a = _row_basis(a)
    return _tableau_sweep(a, t)


def _tableau_sweep(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One simplex-style pass over the columns of a full-row-rank ``a``.

    A column-pivoted QR, a P = Q [R11 R12], picks ``rank`` basic columns,
    and X = R11^-1 R12 writes every other column in that basis
    (Golub & Van Loan, Matrix Computations, 5.4).  The non-basic columns
    are then taken once each, in index order.  Moving weight from
    non-basic column j onto the basis along its tableau column x keeps
    ``a @ t``; the move stops when j retires (its weight reaches zero) or
    when a basic weight reaches zero first (the min-ratio test, ties to
    the earlier basis position), and then j enters the basis in that
    basic's place and the tableau columns still to come are pivoted.  A
    tableau entry below ``_PIVOT_TOL`` times its column's largest is not
    an eligible pivot.  Every non-basic column is either retired or
    swapped for a retired basic, so the pass leaves at most ``rank``
    terms, and no direction is renormalized.  Weights are clipped at
    zero after each move, which drops the roundoff below zero.
    """
    rank = a.shape[0]
    # LAPACK's column-pivoted QR; numpy has none
    qr, jpvt = scipy.linalg.lapack.dgeqp3(a)[:2]
    piv = jpvt - 1
    basic = piv[:rank].copy()
    order = np.argsort(piv[rank:], kind="stable")
    nonbasic = piv[rank:][order]
    # row m of xt is the tableau column of nonbasic[m]: a_j = a_basic @ xt[m]
    xt = np.linalg.solve(np.triu(qr[:, :rank]), qr[:, rank:][:, order]).T.copy()
    tb = t[basic].copy()
    ratios = np.empty(rank)
    for m, j in enumerate(nonbasic.tolist()):
        col = xt[m]
        tj = t[j]
        step = tb + tj * col  # the weights if j retires
        if step.min() < 0.0:  # a basic weight would pass zero: min-ratio test
            eligible = col < -_PIVOT_TOL * np.abs(col).max()
            ratios.fill(np.inf)
            np.divide(tb, -col, out=ratios, where=eligible)
            i = int(np.argmin(ratios))
            theta = ratios[i]
            if theta < tj:  # the basic at i retires and j takes its place
                step = tb + theta * col
                step[i] = tj - theta
                basic[i] = j
                rest = xt[m + 1:]
                lead = rest[:, i] / col[i]
                rest -= lead[:, None] * col
                rest[:, i] = lead
            np.maximum(step, 0.0, out=step)
        tb = step
    out = np.zeros_like(t)
    out[basic] = tb
    return out


def caratheodory_reduce(c: MatrixConvexCombination, tol: Tolerances = DEFAULT_TOL
                        ) -> MatrixConvexCombination:
    """Prune a matrix convex combination to affinely independent terms.

    The combination is lifted to weighted points in the affine space of
    trace-normalized pairs, where classical Caratheodory elimination
    applies: while the lifted vectors are affinely dependent, move weight
    along a dependence until a term's weight reaches zero, and drop the
    vanished terms.  Surviving points are original points; only the
    coefficients are rescaled.  The output length is at most
    n^2 (2d + 1), or n^2 (d + 1) when every point is selfadjoint.

    Rank and rows.  The row basis of the lifted matrix
    (:func:`_row_basis`) gives its rank r, with the sweep's cutoff, and r
    rows U_r^T a from the SVD of the small square factor of a QR of a^T;
    the elimination then works on those r rows, so no SVD ever runs on
    all lifted columns.  A tree level whose group means have lower rank
    takes the row basis of those means in turn, so every level is
    reduced by the one tableau pass.

    The elimination runs on a merge tree (recombination, Litterer & Lyons
    2012).  While more than 2r terms are alive, they are split in index
    order into 2r groups, and the groups' mass-weighted means are swept
    (:func:`_sweep`) with the group masses as weights.  Every term of a
    group is rescaled by the group's new mass over its old one, so the
    groups the sweep retires drop out whole; a sweep leaves at most r
    groups, so each level about halves the alive terms and every level
    works on 2r columns.  A level that retires nothing ends the tree
    early.  One sweep over the remaining terms then makes them
    independent.  The partition and the sweeps' pivot rules follow index
    order, so the output is deterministic.

    Finally the survivors' weights are re-solved by least squares against
    the original barycenter of the full lifted columns; the solution
    replaces the swept weights when it is strictly positive and meets the
    barycenter more closely.  Survivors whose rescaled alphas average
    more than 1e-9 from I are refused with NotNormalizedError, not
    renormalized.
    """
    kept, t, gammas, alpha, value = _lift_terms(c)
    if not kept.size:
        raise ZeroCoefficientError("combination has no nonzero terms")
    points = [c.terms[j][1] for j in kept]
    a = _lift_columns(alpha, value, all(p.selfadjoint for p in points))
    del value  # the largest stack; only its lift is used from here on
    target = a @ t
    rows = _row_basis(a)
    r = rows.shape[0]
    groups = 2 * r
    alive = np.arange(t.size)
    while alive.size > groups:
        # np.array_split's partition of the alive terms, in index order
        sizes = np.full(groups, alive.size // groups)
        sizes[:alive.size % groups] += 1
        starts = np.cumsum(sizes) - sizes
        ta = t[alive]
        mass = np.add.reduceat(ta, starts)
        means = np.add.reduceat(rows[:, alive] * ta, starts, axis=1) / mass
        new_mass = _sweep(means, mass)
        if np.all(new_mass > 0.0):
            break
        t[alive] = ta * np.repeat(new_mass / mass, sizes)
        alive = alive[t[alive] > 0.0]
    t[alive] = _sweep(rows[:, alive], t[alive])
    alive = alive[t[alive] > 0.0]
    ta = t[alive]
    cols = a[:, alive]
    exact = np.linalg.lstsq(cols, target, rcond=None)[0]
    if np.all(exact > 0.0) and (np.linalg.norm(cols @ exact - target)
                                < np.linalg.norm(cols @ ta - target)):
        ta = exact
    return _unlift(c.n, ta / np.sum(ta), [gammas[j] for j in alive], alpha[alive],
                   [points[j] for j in alive], tol)


def _commutant_basis(coords):
    """Orthonormal basis (as vectors) of the commutant of a *-closed family."""
    n = coords[0].shape[0]
    eye = np.eye(n)
    rows = []
    for a in coords:
        rows.append(np.kron(a, eye) - np.kron(eye, a.T))
        ah = a.conj().T
        rows.append(np.kron(ah, eye) - np.kron(eye, ah.T))
    k = np.vstack(rows)
    _, s, vh = _svd(k)
    smax = s[0] if s.size else 0.0
    thresh = _NULL_TOL * max(smax, 1.0)
    null = [vh[i].conj() for i in range(vh.shape[0]) if i >= s.size or s[i] <= thresh]
    return null


def irreducible_split(x: MatrixPoint, tol: Tolerances = DEFAULT_TOL, seed: int = 0):
    """Split a matrix point along a reducing projection, if one exists.

    The commutant of the coordinates together with their adjoints (and the
    identity) is computed as a null space; a one-dimensional commutant
    certifies irreducibility and returns None.  Otherwise a seeded random
    Hermitian commutant element is diagonalized and its widest spectral
    gap yields complementary isometries beta, delta with

        x = beta (beta* x beta) beta* + delta (delta* x delta) delta*.

    Returns
    -------
    None if irreducible, else (beta, delta, x_beta, x_delta).
    """
    n = x.level
    if n == 1:
        return None
    null = _commutant_basis(x.coords)
    if len(null) <= 1:
        return None
    rng = np.random.default_rng(seed)
    h = None
    for _ in range(8):
        coeff = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
        p = np.zeros((n, n), dtype=np.complex128)
        for ci, v in zip(coeff, null):
            p += ci * v.reshape(n, n)
        cand = herm_part(p)
        w = np.linalg.eigvalsh(cand)
        if w[-1] - w[0] > 1e-8 * max(1.0, abs(w[0]), abs(w[-1])):
            h = cand
            break
    if h is None:
        return None
    w, q = herm_eig(h, tol)
    gap_at = int(np.argmax(np.diff(w)))
    beta = q[:, : gap_at + 1]
    delta = q[:, gap_at + 1:]
    x_beta = replace(x, coords=beta.conj().T @ x.coords @ beta)
    x_delta = replace(x, coords=delta.conj().T @ x.coords @ delta)
    return beta, delta, x_beta, x_delta


def decompose_irreducible(x: MatrixPoint, tol: Tolerances = DEFAULT_TOL, seed: int = 0):
    """Recursively split a point into irreducible summands.

    Returns a list of (embedding, leaf) pairs where each embedding is an
    isometry from the leaf level into the level of x, the embedded ranges
    sum to the identity, and sum_i V_i leaf_i V_i* reproduces x.  Levels
    strictly decrease at each split, so recursion depth is at most the
    level of x.
    """
    split = irreducible_split(x, tol, seed)
    if split is None:
        eye = np.eye(x.level, dtype=np.complex128)
        return [(eye, x)]
    beta, delta, x_beta, x_delta = split
    out = []
    for emb, sub in ((beta, x_beta), (delta, x_delta)):
        for v, leaf in decompose_irreducible(sub, tol, seed):
            out.append((emb @ v, leaf))
    return out
