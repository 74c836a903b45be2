"""Dense complex-matrix kernels shared by every construction.

Matrices are plain ``numpy.ndarray`` with dtype complex128, row-major.
The routines here fix the deterministic conventions (eigenvalue order,
factor phases) that the dilation constructions rely on for reproducible
output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "asmatrix",
    "herm_part",
    "herm_eig",
    "numerical_rank_factor",
    "psd_project",
    "inv_sqrt_psd",
    "hvec",
    "hunvec",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    rank_tol      relative eigenvalue cutoff for numerical rank
    psd_tol       relative slack allowed below zero in PSD checks
    residual_tol  acceptance threshold for dilation moment residuals
    fit_tol       target residual for measure fitting
    herm_tol      relative anti-Hermitian defect accepted before symmetrizing
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    residual_tol: float = 1e-8
    fit_tol: float = 1e-7
    herm_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "residual_tol", "fit_tol", "herm_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if self.rank_tol > self.psd_tol:
            raise ValueError("rank_tol must not exceed psd_tol")

    def replace(self, **kw) -> "Tolerances":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


DEFAULT_TOL = Tolerances()


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeMismatchError("matrix contains NaN or Inf entries")
    return m


def herm_part(a: np.ndarray) -> np.ndarray:
    """(A + A*) / 2, matrix by matrix over any leading stack axes."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def herm_eig(a, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized to (A + A*)/2 first; an anti-Hermitian part
    larger than ``herm_tol * ||A||_F`` is an error rather than silently
    discarded.  Eigenvalues come back in ascending order (the LAPACK
    convention), eigenvectors as columns of a unitary.

    Returns
    -------
    (w, q) : eigenvalues (real, ascending) and eigenvector matrix.
    """
    a = asmatrix(a)
    n, m = a.shape
    if n != m:
        raise NonSquareError(f"herm_eig needs a square matrix, got {n}x{m}")
    norm = np.linalg.norm(a)
    defect = np.linalg.norm(a - a.conj().T)
    if norm > 0 and defect > tol.herm_tol * norm:
        raise NotHermitianError(
            f"anti-Hermitian defect {defect:.3e} exceeds {tol.herm_tol:.1e} * ||A||"
        )
    w, q = np.linalg.eigh(herm_part(a))
    return w, q


def _psd_floor(lam: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The one PSD rule, per row of ascending eigenvalues: the smallest may
    not fall below -psd_tol * max|lambda|, so the verdict does not change
    when a matrix is scaled."""
    scale = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
    return -tol.psd_tol * np.maximum(scale, 1e-300)


def _rank_one_split(lam: np.ndarray, q: np.ndarray, tol: Tolerances, rows: bool = True):
    """Rank-one pieces of a stack of Hermitian matrices, given their batched
    eigh, by numerical_rank_factor's rule: matrix by matrix, the pieces
    (pieces, m) of the eigenvalues above rank_tol * lambda_max, largest
    first, and the count per matrix.  ``rows`` gives the phase-normalized
    rows of W with M = W* W, else the vectors g with M = sum g g*."""
    lmax = lam[:, -1]
    floor = _psd_floor(lam, tol)
    bad = lam[:, 0] < floor
    if bad.any():
        j = np.argmax(bad)
        raise NotPSDError(f"matrix is not PSD: min eigenvalue {lam[j, 0]:.6e} "
                          f"(threshold {floor[j]:.1e})",
                          min_eig=float(lam[j, 0]))
    lam, vecs = lam[:, ::-1], np.swapaxes(q, 1, 2)[:, ::-1]
    keep = (lam > tol.rank_tol * lmax[:, None]) & (lmax > 0)[:, None]
    pieces = np.sqrt(lam[keep])[:, None] * (vecs[keep].conj() if rows else vecs[keep])
    if rows:
        # each row's largest entry real >= 0, whatever phases eigh chose
        piv = pieces[np.arange(len(pieces)), np.argmax(np.abs(pieces), axis=1)]
        pieces = pieces * (np.abs(piv) / piv)[:, None]
    return pieces, keep.sum(1)


def numerical_rank_factor(m, tol: Tolerances = DEFAULT_TOL):
    """Factor a PSD matrix as W* W with W of full numerical rank.

    Eigenvalues below ``rank_tol * lambda_max`` are truncated; an
    eigenvalue below ``-psd_tol * ||M||`` raises NotPSD.  Rows of W are
    ordered by descending eigenvalue and phase-normalized so repeated runs
    give the identical factor.

    Returns
    -------
    (w, r) : W of shape (r, dim) with ||W* W - M||_F <= 10 * rank_tol * ||M||_F,
             and the numerical rank r.
    """
    lam, q = herm_eig(m, tol)
    if lam.size == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0
    w, r = _rank_one_split(lam[None], q[None], tol)
    return w, int(r[0])


def psd_project(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm, matrix by
    matrix over any leading stack axes.

    Symmetrizes, then clips negative eigenvalues to zero.  Idempotent up
    to floating point; PSD inputs come back unchanged to machine
    precision.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"psd_project needs square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeMismatchError("matrix contains NaN or Inf entries")
    w, q = np.linalg.eigh(herm_part(a))
    w = np.clip(w, 0.0, None)[..., None, :]
    return herm_part((q * w) @ np.swapaxes(q.conj(), -1, -2))


def inv_sqrt_psd(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix."""
    w, q = herm_eig(s, tol)
    if w[0] <= tol.rank_tol * max(w[-1], 1e-300):
        raise NotPSDError(
            f"matrix numerically singular (min eigenvalue {w[0]:.3e}), "
            "cannot form inverse square root",
            min_eig=float(w[0]),
        )
    return (q * (1.0 / np.sqrt(w))) @ q.conj().T


@functools.lru_cache(maxsize=None)
def _upper_indices(n: int):
    """Row-major (rows, cols) of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def hvec(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix (isometric for Frobenius).

    Layout: the real diagonal, then sqrt(2) * (Re, Im) of the strict upper
    triangle read row by row.  A stack of shape (..., n, n) maps to
    (..., n^2), one coordinate vector per matrix.
    """
    h = np.asarray(h)
    n = h.shape[-1]
    rows, cols = _upper_indices(n)
    out = np.empty(h.shape[:-2] + (n * n,), dtype=np.float64)
    _hvec_into(out, np.diagonal(h, axis1=-2, axis2=-1), h[..., rows, cols])
    return out


def _hvec_herm_into(h: np.ndarray, out: np.ndarray):
    """Write hvec(herm_part(h)) into ``out``, bit for bit, from the diagonal
    and the two strict triangles of h: the Hermitian part of the whole
    stack is never formed."""
    rows, cols = _upper_indices(h.shape[-1])
    upper = h[..., rows, cols]
    upper += h[..., cols, rows].conj()
    upper *= 0.5
    _hvec_into(out, np.diagonal(h, axis1=-2, axis2=-1), upper)


def _hvec_into(out: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """The hvec layout: the real diagonal, then sqrt(2) (Re, Im) pairs of
    the strict upper triangle."""
    n = diag.shape[-1]
    s = np.sqrt(2.0)
    out[..., :n] = diag.real
    out[..., n::2] = s * upper.real
    out[..., n + 1::2] = s * upper.imag


def hunvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`hvec`; a stack (..., n^2) maps to (..., n, n)."""
    v = np.asarray(v)
    rows, cols = _upper_indices(n)
    h = np.zeros(v.shape[:-1] + (n, n), dtype=np.complex128)
    diag = np.arange(n)
    h[..., diag, diag] = v[..., :n]
    z = (1.0 / np.sqrt(2.0)) * (v[..., n::2] + 1j * v[..., n + 1::2])
    h[..., rows, cols] = z
    h[..., cols, rows] = np.conj(z)
    return h
