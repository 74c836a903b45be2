"""Truncated moment tables and the block-Toeplitz GNS construction.

A moment table maps multi-indices n in Z^nu to d x d matrices L_n,
normalized so L_0 = I.  For data coming from powers of operators on the
circle or torus the table is conjugate-closed, L_{-n} = L_n*; annulus
tables store genuine negative powers instead and say so via the
``symmetric`` flag.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotCommutingError,
    NotPSDError,
    ResolventSingularError,
    ShapeMismatchError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    asmatrix,
    complete_isometry_to_unitary,
    herm_part,
    numerical_rank_factor,
    polar_isometry,
)

__all__ = [
    "MomentTable",
    "Dilation",
    "circle_moments",
    "regular_moments",
    "qcommuting_moments",
    "laurent_moments",
    "toeplitz_kernel",
    "toeplitz_gns_unitary",
    "word_image",
]


_COMMUTE_TOL = 1e-10


@dataclass
class MomentTable:
    """Finite table of prescribed matrix moments.

    index_rule fixes how an index becomes an operator word:
      "laurent"  commuting generators, index n -> prod_i g_i^{n_i};
      "ordered"  two generators, (n, m) -> g_1^n g_2^m for n, m >= 0 and
                 the adjoint word for (-n, -m).
    """

    dim: int
    nu: int
    values: dict = field(default_factory=dict)
    symmetric: bool = True
    index_rule: str = "laurent"

    def __post_init__(self):
        clean = {}
        for idx, val in self.values.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.nu:
                raise ShapeMismatchError(
                    f"index {idx} has arity {len(idx)}, table has nu={self.nu}"
                )
            val = asmatrix(val)
            if val.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"moment at {idx} has shape {val.shape}, expected "
                    f"({self.dim}, {self.dim})"
                )
            if self.index_rule == "ordered" and min(idx) < 0 < max(idx):
                raise ShapeMismatchError(
                    f"mixed-sign index {idx} is outside the ordered operator system")
            clean[idx] = val
        self.values = clean
        zero = (0,) * self.nu
        if zero in self.values:
            if np.linalg.norm(self.values[zero] - np.eye(self.dim)) > 1e-12 * self.dim:
                raise ShapeMismatchError("moment at index 0 must be the identity")
        else:
            self.values[zero] = np.eye(self.dim, dtype=np.complex128)
        if self.symmetric:
            for idx, val in list(self.values.items()):
                neg = tuple(-i for i in idx)
                if neg in self.values:
                    if np.linalg.norm(self.values[neg] - val.conj().T) > 1e-12 * max(
                        1.0, np.linalg.norm(val)
                    ):
                        raise ShapeMismatchError(
                            f"table flagged symmetric but L({neg}) != L({idx})*"
                        )
                else:
                    self.values[neg] = val.conj().T

    def value(self, idx) -> np.ndarray:
        idx = tuple(int(i) for i in np.atleast_1d(idx))
        if idx in self.values:
            return self.values[idx]
        neg = tuple(-i for i in idx)
        if self.symmetric and neg in self.values:
            return self.values[neg].conj().T
        raise KeyError(f"no moment stored at index {idx}")

    def indices(self):
        return sorted(self.values.keys())

    def order(self) -> int:
        return max((max(abs(i) for i in idx) for idx in self.values), default=0)


@dataclass
class Dilation:
    """An isometry V into C^K together with generator matrices on C^K.

    The defining property (checked by verify_dilation, not assumed here)
    is that compressions V* w(generators) V reproduce the moment data the
    construction was built from.
    """

    v: np.ndarray
    generators: list
    space_dim: int
    provenance: str
    residuals: dict = field(default_factory=dict)

    def compress(self, word: np.ndarray) -> np.ndarray:
        return self.v.conj().T @ word @ self.v


def circle_moments(t, rho: float, n_max: int) -> MomentTable:
    """Moments L_k = rho^{-1} T^k, k = 1..n_max, of a single operator.

    L_0 stays the identity regardless of rho; negative indices are filled
    with adjoints.
    """
    t = asmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("operator must be square")
    if rho <= 0:
        raise ShapeMismatchError(f"rho must be positive, got {rho}")
    if n_max < 1:
        raise ShapeMismatchError("need at least first-order moments")
    d = t.shape[0]
    values = {}
    power = np.eye(d, dtype=np.complex128)
    for k in range(1, n_max + 1):
        power = power @ t
        values[(k,)] = power / rho
    return MomentTable(dim=d, nu=1, values=values, symmetric=True)


def regular_moments(ts, n_max: int) -> MomentTable:
    """Regular moments T(n) = (T*)^{n^-} T^{n^+} of a commuting tuple.

    n^+ and n^- are the entrywise positive and negative parts, so e.g.
    T((1, -1)) = T_2* T_1.  Pairwise commutators above _COMMUTE_TOL
    raise NotCommuting.
    """
    ts = [asmatrix(t) for t in ts]
    if not ts:
        raise DimensionMismatchError("need at least one operator")
    if n_max < 1:
        raise ShapeMismatchError("need at least first-order moments")
    d = ts[0].shape[0]
    for t in ts:
        if t.shape != (d, d):
            raise DimensionMismatchError("operators must share one square shape")
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            defect = np.linalg.norm(ts[i] @ ts[j] - ts[j] @ ts[i])
            if defect > _COMMUTE_TOL:
                raise NotCommutingError(
                    f"operators {i} and {j} do not commute (defect {defect:.3e})"
                )
    nu = len(ts)
    rng = range(-n_max, n_max + 1)
    values = {}
    for idx in np.ndindex(*([2 * n_max + 1] * nu)):
        n = tuple(rng[i] for i in idx)
        acc = np.eye(d, dtype=np.complex128)
        for i, ni in enumerate(n):
            if ni < 0:
                acc = acc @ np.linalg.matrix_power(ts[i].conj().T, -ni)
        for i, ni in enumerate(n):
            if ni > 0:
                acc = acc @ np.linalg.matrix_power(ts[i], ni)
        values[n] = acc
    return MomentTable(dim=d, nu=nu, values=values, symmetric=True)


def qcommuting_moments(t1, t2, n_max: int) -> MomentTable:
    """Ordered moments T1^n T2^m (0 <= n, m <= n_max) and their adjoints."""
    t1 = asmatrix(t1)
    t2 = asmatrix(t2)
    if t1.shape != t2.shape or t1.shape[0] != t1.shape[1]:
        raise DimensionMismatchError("need two square operators of one size")
    values = {}
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            w = np.linalg.matrix_power(t1, n) @ np.linalg.matrix_power(t2, m)
            values[(n, m)] = w
            values[(-n, -m)] = w.conj().T
    return MomentTable(dim=t1.shape[0], nu=2, values=values, symmetric=True,
                       index_rule="ordered")


def laurent_moments(t, n_max: int) -> MomentTable:
    """Two-sided power moments T^n, |n| <= n_max, of an invertible operator.

    Negative indices are genuine inverse powers, not adjoints, so the
    table is not conjugate-closed; this is the moment data for boundary
    measures on an annulus.
    """
    t = asmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("operator must be square")
    tinv = np.linalg.inv(t)
    d = t.shape[0]
    values = {}
    pos = np.eye(d, dtype=np.complex128)
    neg = np.eye(d, dtype=np.complex128)
    for k in range(1, n_max + 1):
        pos = pos @ t
        neg = neg @ tinv
        values[(k,)] = pos
        values[(-k,)] = neg
    return MomentTable(dim=d, nu=1, values=values, symmetric=False)


def toeplitz_kernel(table: MomentTable) -> np.ndarray:
    """The block Toeplitz matrix M = [L_{j-i}] of a one-variable table."""
    if table.nu != 1:
        raise ShapeMismatchError("block Toeplitz kernel needs a one-variable table")
    n = table.order()
    d = table.dim
    m = np.empty(((n + 1) * d, (n + 1) * d), dtype=np.complex128)
    for i in range(n + 1):
        for j in range(n + 1):
            m[i * d:(i + 1) * d, j * d:(j + 1) * d] = table.value((j - i,))
    return herm_part(m)


def toeplitz_gns_unitary(table: MomentTable, tol: Tolerances = DEFAULT_TOL) -> Dilation:
    """Unitary matching a conjugate-closed one-variable moment table.

    The block Toeplitz kernel M = [L_{j-i}] is factored as W* W; columns
    of W realize the GNS space of the truncated data.  Shifting block
    spans is isometric exactly because M is Toeplitz, and the shift is
    completed to a unitary U with V* U^k V = L_k for 0 <= k <= N.  The
    space dimension is the numerical rank r <= (N+1) d.
    """
    if not table.symmetric:
        raise ShapeMismatchError("GNS construction needs a conjugate-closed table")
    n = table.order()
    if n < 1:
        raise ShapeMismatchError("GNS construction needs moments of order 1 or more")
    d = table.dim
    m = toeplitz_kernel(table)
    w, r = numerical_rank_factor(m, tol)
    norm_m = np.linalg.norm(m)

    x = w[:, : n * d]
    y = w[:, d:]
    p, sv, qh = np.linalg.svd(x, full_matrices=False)
    s = int(np.count_nonzero(sv > tol.rank_tol * sv[0]))
    dom = p[:, :s]
    coef = qh.conj().T[:, :s] / sv[:s]
    img = y @ coef
    shift_defect = float(np.linalg.norm(img.conj().T @ img - np.eye(s)))
    if shift_defect > 1e-8 * max(norm_m, 1.0):
        raise NotPSDError(
            "moment data does not induce an isometric shift on the GNS space "
            f"(defect {shift_defect:.3e}); kernel is not consistently PSD",
            min_eig=None,
        )
    rng_basis = polar_isometry(img)
    u0 = rng_basis @ dom.conj().T
    u = complete_isometry_to_unitary(u0, dom, rng_basis, tol)
    v = polar_isometry(w[:, :d])

    words = _word_walk([(k,) for k in range(1, n + 1)], [u], v=v)
    resid = max(float(np.linalg.norm(v.conj().T @ w - table.value((k,))))
                for k, w in enumerate(words, 1))
    return Dilation(
        v=v,
        generators=[u],
        space_dim=r,
        provenance="gns",
        residuals={"shift_isometry": shift_defect, "moment_max": resid},
    )


def _word_walk(indices, generators, rule: str = "laurent",
               negatives: str = "adjoint", v=None) -> list:
    """w(G) v for each index, as word_image reads it (v defaults to the
    identity), from one memoized walk of the index lattice: W_n = B W_n',
    where B is the word's leftmost factor and n' is n without it.  B sits
    at the first nonzero entry, or at the last one of a nonpositive
    ordered index; each generator is inverted at most once.
    """
    if rule not in ("laurent", "ordered"):
        raise ShapeMismatchError(f"unknown index rule {rule!r}")

    @functools.cache
    def factor(i, s):
        g = generators[i]
        if s > 0 or rule == "ordered" or negatives == "adjoint":
            return g if s > 0 else np.swapaxes(g.conj(), -1, -2)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise ResolventSingularError(
                f"generator {i} is singular: no inverse reading") from exc

    words = {(0,) * len(generators): v if v is not None
             else np.eye(generators[0].shape[-1], dtype=np.complex128)}
    keys = [tuple(int(i) for i in np.atleast_1d(idx)) for idx in indices]
    for idx in keys:
        if len(idx) != len(generators):
            raise DimensionMismatchError(
                f"index {idx} has {len(idx)} entries for {len(generators)} generators")
        if rule == "ordered" and min(idx) < 0 < max(idx):
            raise ShapeMismatchError(
                f"mixed-sign index {idx} is outside the ordered operator system")
        path, n = [], idx
        while n not in words:
            nonzero = [i for i, ni in enumerate(n) if ni]
            i = nonzero[-1 if rule == "ordered" and n[nonzero[0]] < 0 else 0]
            s = 1 if n[i] > 0 else -1
            path.append((n, factor(i, s)))
            n = n[:i] + (n[i] - s,) + n[i + 1:]
        w = words[n]
        for m, f in reversed(path):
            w = words[m] = f @ w
    return [words[idx] for idx in keys]


def word_image(idx, generators, rule: str = "laurent",
               negatives: str = "adjoint") -> np.ndarray:
    """Evaluate the operator word an index denotes.

    laurent: product of (possibly negative) powers of commuting
    generators.  A negative entry means the conjugate function when
    ``negatives`` is "adjoint" (the right reading for conjugate-closed
    moment tables, where L_{-n} = L_n*) and an honest inverse power when
    it is "inverse" (annulus data; a singular generator raises
    ResolventSingularError).  For unitary generators the two agree.
    ordered: g_1^n g_2^m for nonnegative indices and the adjoint word for
    nonpositive ones; mixed signs are not part of the ordered operator
    system.  Generators may be stacks (..., k, k) of equal shape, taken
    matrix by matrix.  Built one factor at a time from the left.
    """
    return _word_walk([idx], generators, rule, negatives)[0]
