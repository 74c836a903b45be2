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
    NotContainedError,
    NotPSDError,
    ResolventSingularError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, Tolerances, _psd_floor, asmatrix, herm_part

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


def _require_order(n_max: int):
    """Refuse a truncation below the first moments."""
    if n_max < 1:
        raise ShapeMismatchError("need at least first-order moments")


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
    _require_order(n_max)
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
    _require_order(n_max)
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
    _require_order(n_max)
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
    measures on an annulus.  An operator that is singular to working
    precision (smallest singular value at most d eps times the largest)
    has 0 in its spectrum, outside every annulus: NotContained.
    """
    t = asmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("operator must be square")
    _require_order(n_max)
    s = np.linalg.svd(t, compute_uv=False)
    if s.size and s[-1] <= s.size * np.finfo(float).eps * s[0]:
        raise NotContainedError(
            f"operator is singular to working precision (smallest singular value "
            f"{s[-1]:.3e}, largest {s[0]:.3e}): 0 lies in its spectrum, outside the annulus")
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
    """Unitary matching a conjugate-closed one-variable moment table: the
    finite block CMV matrix of its Verblunsky coefficients, V = [I; 0] and
    V* U^k V = L_k for 0 <= k <= N (Cantero, Moral & Velazquez 2003,
    Linear Algebra Appl. 362; Damanik, Pushnitski & Simon 2008, Surveys in
    Approximation Theory 4).

    Recursion (block Szego).  With x_j = U^j V, phi_m and psi_m are
    orthonormal bases of the forward and backward innovations
    span{x_0..x_m} - span{x_0..x_{m-1}} and span{x_0..x_m} -
    span{x_1..x_m}, kept as coefficient stacks over x_0..x_m;
    phi_0 = psi_0 = x_0.  As U phi_m is orthogonal to x_1..x_m, the
    coefficient a_m = psi_m* U phi_m = psi_m0* sum_j L_{j+1} phi_mj.  With
    a_m = P diag(s) W* and q = sqrt(1 - s^2) on the kept directions,
    phi_{m+1} = (U phi_m - psi_m a_m) W / q and psi_{m+1} = (psi_m -
    U phi_m a_m*) P / q.

    CMV convention.  Then [U phi_m, psi_{m+1}] = [psi_m, phi_{m+1}] Theta_m
    with the Julia block Theta_m = [[a_m, P q], [q W*, -diag(s)]], and in
    the basis phi_0, phi_1, U^-1 psi_2, U^-1 phi_3, U^-2 psi_4, ... the
    unitary is U = L M, L = diag(Theta_0, Theta_2, ...), M = diag(I,
    Theta_1, Theta_3, ...), with I on block N, whose Theta lies past the
    data.  U is five-block-diagonal and written block by block.

    Thin defects.  Directions with 1 - s^2 at or below rank_tol are
    dropped (s set to 1 in a_m), so block m+1 has r_{m+1} <= r_m rows and
    K = d + sum r_m, for exact data the rank of the block Toeplitz kernel;
    no defect is inverted, so unitary or norm-one data are handled.

    Refusal.  A coefficient of norm above 1 + psd_tol, or a moment the
    finished U misses by more than residual_tol where the kernel is not
    PSD, raises NotPSD naming the order, with the smallest eigenvalue of
    the kernel cut at that order.
    """
    if not table.symmetric:
        raise ShapeMismatchError("GNS construction needs a conjugate-closed table")
    n = table.order()
    if n < 1:
        raise ShapeMismatchError("GNS construction needs moments of order 1 or more")
    d = table.dim
    moments = np.concatenate([table.value((k,)) for k in range(1, n + 1)], axis=1)
    fwd = bwd = np.eye(d, dtype=np.complex128)  # phi_m, psi_m over x_0..x_m, stacked
    thetas, sizes = [], [d]
    for m in range(n):
        r = sizes[-1]
        a = bwd[:d].conj().T @ (moments[:, :(m + 1) * d] @ fwd)
        p, s, wh = np.linalg.svd(a)
        if r and s[0] > 1.0 + tol.psd_tol:
            raise _refusal(table, m + 1, f"Verblunsky coefficient of norm {s[0]:.6e}")
        defect = (1.0 - s) * (1.0 + s)
        keep = defect > tol.rank_tol
        if not keep.all():
            a = a + (p[:, ~keep] * (1.0 - s[~keep])) @ wh[~keep]
        q = np.sqrt(defect[keep])
        p, wh, k = p[:, keep], wh[keep], len(q)
        theta = np.empty((r + k, r + k), dtype=np.complex128)
        theta[:r, :r] = a
        theta[:r, r:] = p * q
        theta[r:, :r] = q[:, None] * wh
        theta[r:, r:] = np.diag(-s[keep])
        thetas.append(theta)
        sizes.append(k)
        up = np.vstack([np.zeros((d, r)), fwd])  # U phi_m
        back = np.vstack([bwd, np.zeros((d, r))])
        fwd = (up - back @ a) @ (wh.conj().T / q)
        bwd = (back - up @ a.conj().T) @ (p / q)

    off = np.cumsum([0] + sizes)
    big = int(off[-1])
    u = _cmv_product(thetas, sizes, off)
    v = np.zeros((big, d), dtype=np.complex128)
    v[:d] = np.eye(d)
    shift = max(float(np.linalg.norm(t.conj().T @ t - np.eye(len(t)))) for t in thetas)
    words = _word_walk([(k,) for k in range(1, n + 1)], [u], v=v)
    resid = [float(np.linalg.norm(w[:d] - table.value((k,)))) for k, w in enumerate(words, 1)]
    miss = next((k for k, x in enumerate(resid, 1) if x > tol.residual_tol), None)
    if miss is not None:
        lam = _kernel_spectrum(table, miss)
        if lam[0] < _psd_floor(lam, tol):
            raise _refusal(table, miss, f"moment residual {resid[miss - 1]:.3e}", lam)
    return Dilation(
        v=v,
        generators=[u],
        space_dim=big,
        provenance="gns",
        residuals={"shift_isometry": shift, "moment_max": max(resid)},
    )


def _cmv_product(thetas, sizes, off) -> np.ndarray:
    """U = L M, one group of L at a time: a block row of L meets two
    groups of M, so it has at most four nonzero blocks.  Summing into
    zeros leaves no -0.0 entry, which the JSON wire format would lose."""
    n = len(thetas)

    def groups(first):  # (first block, end block, matrix)
        out = [] if first == 0 else [(0, 1, np.eye(sizes[0]))]
        out += [(m, m + 2, thetas[m]) for m in range(first, n, 2)]
        if (n - first) % 2 == 0:
            out.append((n, n + 1, np.eye(sizes[n])))
        return out

    m_rows = {}
    for j0, j1, g in groups(1):
        for j in range(j0, j1):
            m_rows[j] = slice(off[j0], off[j1]), g[off[j] - off[j0]:off[j + 1] - off[j0]]
    u = np.zeros((off[-1], off[-1]), dtype=np.complex128)
    for j0, j1, g in groups(0):
        for j in range(j0, j1):
            cols, m_part = m_rows[j]
            u[off[j0]:off[j1], cols] += g[:, off[j] - off[j0]:off[j + 1] - off[j0]] @ m_part
    return u


def _kernel_spectrum(table: MomentTable, order: int) -> np.ndarray:
    """Eigenvalues of the block Toeplitz kernel of the table cut at ``order``."""
    d = table.dim
    return np.linalg.eigvalsh(toeplitz_kernel(table)[:(order + 1) * d, :(order + 1) * d])


def _refusal(table: MomentTable, order: int, why: str, lam=None) -> NotPSDError:
    """NotPSD at ``order``; the truncated kernel's smallest eigenvalue is
    the witness."""
    if lam is None:
        lam = _kernel_spectrum(table, order)
    return NotPSDError(
        f"moment data admit no unitary dilation at order {order} ({why}): "
        f"block Toeplitz kernel min eigenvalue {lam[0]:.6e}", min_eig=float(lam[0]))


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
