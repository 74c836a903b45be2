"""Atomic matrix measures: fitting, normalization, and Naimark assembly.

A measure is one stack of atoms, Atoms: each atom is a representation
by nu generator images of one size b x b, weighted by a PSD (b d) x (b d)
matrix G.  G is read as b x b blocks G_st of size d x d, and the atom's
moment at an index n is sum_st w_n_st G_st, for the word w_n the index
denotes.  A point z of C^nu (a character: a point of the torus, the
annulus or a boundary curve) is the atom with b = 1 and images
z[:, None, None], whose moment is z^n G; the q-commuting case takes the
b-dimensional clock-and-shift irreps.  Moments are linear in the
weights, which is what the fitter exploits.

Every operation takes the stack whole: one batched eigh splits the
weights into rank-one pieces by numerical_rank_factor's rule, G = sum
r* r with each row r reshaped (b, d) into gamma, so the moment is
sum gamma* w_n gamma (a weight below -psd_tol raises NotPSD); the fit
projects the whole stack onto the PSD cone, screening each block's
inertia before any eigh.  A stack is checked once, whole, when it is
built; its slices are not checked again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .convex import MatrixConvexCombination, MatrixPoint, _svd, _unchecked
from .errors import (
    DimensionMismatchError,
    GridEmptyError,
    InfeasibleError,
    NonPSDWeightError,
    NotIsometricError,
    NotNormalizedError,
    ShapeMismatchError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _ldl_pivots,
    _norm,
    _psd_floor,
    _rank_one_split,
    asmatrix,
    herm_part,
    hunvec,
    hvec,
    inv_sqrt_psd,
)
from .moments import Dilation, MomentTable, _word_walk

__all__ = [
    "Atoms",
    "AtomicMeasure",
    "circle_grid",
    "torus_grid",
    "annulus_grid",
    "clock_shift_irrep",
    "clock_phase_grid",
    "laurent_scalar",
    "fit_matrix_measure",
    "assemble_atomic_dilation",
    "measure_to_combination",
    "combination_to_measure",
]


def laurent_scalar(idx, z):
    """prod_i z_i^{n_i} with honest negative powers.

    ``z`` is one point of C^nu or a stack (atoms, nu) of points, evaluated
    point by point with the rounding of scalar complex arithmetic.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    re, im = np.ones(z.shape[:-1]), np.zeros(z.shape[:-1])
    for zi, ni in zip(z.T, np.atleast_1d(idx)):
        if ni == 0:
            continue
        if ni < 0 and (zi == 0).any():
            raise ShapeMismatchError("negative power of a zero coordinate")
        # numpy integer exponents take the scalar power routine (Python ints
        # take a fast path for -1 and 2), and numpy's complex multiply loop
        # fuses multiply-adds, so the product is spelled out
        p = zi ** np.int64(ni)
        re, im = re * p.real - im * p.imag, re * p.imag + im * p.real
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out[()]


def _check_weights(weights, atoms: int):
    """A stack of atom weights as complex128 (atoms, m, m), or None, after
    asmatrix's checks of each weight: a 2-d array with finite entries."""
    if weights is None:
        return None
    try:
        w = np.asarray(weights, dtype=np.complex128)
    except ValueError:  # ragged: the weights' shapes differ
        raise ShapeMismatchError("atom weights must share one size") from None
    if w.ndim != 3:
        raise ShapeMismatchError(f"expected a 2-d array, got ndim={w.ndim - 1}")
    if len(w) != atoms:
        raise ShapeMismatchError(f"{len(w)} weights for {atoms} atoms")
    if not np.all(np.isfinite(w)):
        raise ShapeMismatchError("matrix contains NaN or Inf entries")
    return w


@dataclass
class Atoms:
    """A stack of atoms: generator images (atoms, nu, b, b), weights
    (atoms, m, m) or None until fitted, and one list of exchange relations
    ``scale_pairs`` for every atom, (i, j, q) meaning G_j G_i = q G_i G_j,
    used by validation and verification.

    In a measure of dimension d each weight is (b d) x (b d), read as b x b
    blocks G_st of size d x d (see the module docstring).  The stack is
    checked once, whole, when built: at least one image, each a finite
    2-d array, all b x b, finite weights, and relations (i, j, q) whose
    i, j name two of the nu generators.  Indexing and iteration give
    stacks of the atoms selected, unchecked, as slices of a checked stack.
    """

    images: np.ndarray
    weights: np.ndarray | None = None
    scale_pairs: list = field(default_factory=list)

    def __post_init__(self):
        try:
            images = np.asarray(self.images, dtype=np.complex128)
        except ValueError:  # ragged: the images' shapes differ
            images = None
        if images is None or images.ndim != 4 or not images.shape[1]:
            # not one stack: find the fault image by image
            if not all(len(atom) for atom in self.images):
                raise DimensionMismatchError("an irrep needs at least one generator image")
            for atom in self.images:
                for g in atom:
                    asmatrix(g)
            raise DimensionMismatchError("generator images must share one size")
        if not np.all(np.isfinite(images)):
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        if images.shape[2] != images.shape[3]:
            raise DimensionMismatchError("generator images must share one size")
        self.images = images
        self.weights = _check_weights(self.weights, len(images))
        self.scale_pairs = list(self.scale_pairs)
        nu = images.shape[1]
        for pair in self.scale_pairs:
            if len(pair) != 3 or not all(
                    isinstance(i, (int, np.integer)) and 0 <= i < nu for i in pair[:2]):
                raise DimensionMismatchError(
                    f"relation {pair!r} is not (i, j, q) with i, j among the "
                    f"{nu} generator images")

    @classmethod
    def from_points(cls, points, weights=None) -> "Atoms":
        """The atoms with b = 1 at the rows of the stack points (atoms, nu),
        or at the entries of a stack of scalar points."""
        z = np.asarray(points, dtype=np.complex128)
        z = z[:, None] if z.ndim == 1 else z
        return cls(z[:, :, None, None], weights)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, key) -> "Atoms":
        if isinstance(key, (int, np.integer)):
            j = range(len(self))[key]
            key = slice(j, j + 1)
        return _unchecked(Atoms, images=self.images[key],
                          weights=None if self.weights is None else self.weights[key],
                          scale_pairs=list(self.scale_pairs))

    @property
    def rep_dim(self) -> int:
        return self.images.shape[2]

    def block_size(self, dim: int) -> int:
        return self.rep_dim * dim

    def with_weights(self, weights) -> "Atoms":
        return Atoms(self.images, weights, self.scale_pairs)


@dataclass
class AtomicMeasure:
    """Finitely many weighted atoms, one stack, normalized to unit total mass."""

    dim: int
    atoms: Atoms
    defect: float = 0.0
    fit_residual: float | None = None
    index_rule: str = "laurent"

    def _weights(self) -> np.ndarray:
        """The atoms' weights (atoms, m, m), m the block size, or
        ShapeMismatch: all atoms share one weight shape, so the first
        atom is at fault whenever any is."""
        m = self.atoms.block_size(self.dim)
        w = self.atoms.weights
        if w is None or w.shape[1:] != (m, m):
            raise ShapeMismatchError(f"atom 0 has no {m} x {m} weight")
        return w

    def unit_matrix(self) -> np.ndarray:
        return self._moments(None)

    def moment(self, idx) -> np.ndarray:
        return self._moments([idx])[0]

    def _moments(self, indices) -> np.ndarray:
        """The moments (indices, d, d), or the mass if indices is None, as
        running sums over the atoms in order (bits as the per-atom loop)."""
        weights = self._weights()
        words = None if indices is None else _words(self.atoms, indices, self.index_rule)
        d = self.dim
        shape = (d, d) if indices is None else (len(indices), d, d)
        terms = np.zeros((len(self.atoms) + 1,) + shape, dtype=np.complex128)
        terms[1:] = _contract(weights, d, words)
        return np.cumsum(terms, axis=0)[-1]

    def validate(self, tol: Tolerances = DEFAULT_TOL):
        """Every weight PSD by the one rule; a stack that declares exchange
        relations must have unitary images that satisfy them (a point of
        the annulus or a curve is not unitary and declares none)."""
        lam = np.linalg.eigvalsh(herm_part(self._weights()))
        bad = lam[:, 0] < _psd_floor(lam, tol)
        if bad.any():
            raise NonPSDWeightError(f"atom {np.argmax(bad)} weight has "
                                    f"eigenvalue {lam[bad][0, 0]:.3e} below "
                                    f"-psd_tol * max|eigenvalue|")
        if not self.atoms.scale_pairs:
            return
        # gens[a, i]: image i of atom a
        gens = self.atoms.images
        unit = gens.conj().swapaxes(2, 3) @ gens - np.eye(gens.shape[-1])
        if np.any(np.linalg.norm(unit, axis=(2, 3)) > 1e-10):
            raise NotIsometricError("irrep generator image not unitary")
        for i, j, q in self.atoms.scale_pairs:
            gi, gj = gens[:, i], gens[:, j]
            if np.any(np.linalg.norm(gj @ gi - q * (gi @ gj), axis=(1, 2)) > 1e-10):
                raise ShapeMismatchError(
                    "irrep generators violate the declared exchange relation")

    def normalized(self, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        """Congruence-rescale the weights so the total mass is exactly I.

        G_st -> S^{-1/2} G_st S^{-1/2}, block by block, with S the current
        unit matrix; this preserves positive semidefiniteness, unlike an
        additive shift.
        """
        s = self.unit_matrix()
        defect = float(np.linalg.norm(s - np.eye(self.dim)))
        # congruence only repairs a mass matrix that is safely invertible
        if defect > 0.1 * max(1.0, self.dim):
            raise NotNormalizedError(
                f"measure mass defect {defect:.3e} too large to renormalize"
            )
        r = np.kron(np.eye(self.atoms.rep_dim), inv_sqrt_psd(s, tol))
        weights = herm_part(r @ self._weights() @ r)
        return replace(self, atoms=self.atoms.with_weights(weights), defect=defect)

    def pruned(self, prune_tol: float) -> "AtomicMeasure":
        """The atoms whose weight has Frobenius norm at least prune_tol, in
        order, from one norm call."""
        keep = np.linalg.norm(self._weights(), axis=(1, 2)) >= prune_tol
        if not keep.any():
            raise GridEmptyError("pruning removed every atom")
        return replace(self, atoms=self.atoms[keep])


def _require_nodes(nodes: int):
    if nodes < 1:
        raise ShapeMismatchError(f"need at least one grid node, got {nodes}")


def _circle(nodes: int, radius: float) -> list:
    _require_nodes(nodes)
    return [radius * np.exp(2j * np.pi * j / nodes) for j in range(nodes)]


def circle_grid(nodes: int, radius: float = 1.0) -> Atoms:
    """Equispaced points on a circle |z| = radius."""
    return Atoms.from_points(_circle(nodes, radius))


def torus_grid(nodes: int, nu: int) -> Atoms:
    """The nodes^nu lattice of roots of unity on the nu-torus."""
    _require_nodes(nodes)
    roots = [np.exp(2j * np.pi * j / nodes) for j in range(nodes)]
    return Atoms.from_points([[roots[i] for i in idx]
                              for idx in np.ndindex(*([nodes] * nu))])


def annulus_grid(nodes: int, r: float) -> Atoms:
    """Equispaced points on both boundary circles of the annulus r <= |z| <= 1."""
    if not 0.0 < r < 1.0:
        raise ShapeMismatchError(f"annulus radius must lie in (0, 1), got {r}")
    return Atoms.from_points(_circle(nodes, 1.0) + _circle(nodes, r))


def clock_shift_irrep(a: int, b: int, theta=(0.0, 0.0)) -> Atoms:
    """The b-dimensional clock-and-shift pair at phases theta, one atom.

    U1 = e^{i theta_1} diag(1, q, ..., q^{b-1}) and U2 = e^{i theta_2} X
    with X the cyclic downshift satisfy U2 U1 = q U1 U2 for
    q = exp(2 pi i a / b), exactly up to roundoff in the roots of unity.
    """
    q, clock, shift = _clock_shift(a, b)
    t1, t2 = float(theta[0]), float(theta[1])
    return Atoms([[np.exp(1j * t1) * clock, np.exp(1j * t2) * shift]],
                 scale_pairs=[(0, 1, q)])


def _require_rational(a: int, b: int):
    """Refuse a rotation parameter a/b unless a, b are integers, b >= 1."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise ShapeMismatchError(
            "rotation parameter must be rational: integers a, b required "
            "(irrational angles admit no finite-dimensional representation)"
        )
    if b < 1:
        raise ShapeMismatchError("denominator b must be a positive integer")


def _clock_shift(a: int, b: int):
    """q = exp(2 pi i a / b), diag(1, q, ..., q^{b-1}) and the cyclic downshift."""
    _require_rational(a, b)
    q = np.exp(2j * np.pi * a / b)
    clock = np.diag(q ** np.arange(b)).astype(np.complex128)
    shift = np.zeros((b, b), dtype=np.complex128)
    for j in range(b):
        shift[(j - 1) % b, j] = 1.0
    return q, clock, shift


def clock_phase_grid(a: int, b: int, nodes: int) -> Atoms:
    """Clock-shift irreps over the nodes x nodes lattice of phase pairs."""
    _require_nodes(nodes)
    step = 2.0 * np.pi / nodes
    q, clock, shift = _clock_shift(a, b)
    return Atoms([[np.exp(1j * (step * i)) * clock, np.exp(1j * (step * j)) * shift]
                  for i in range(nodes) for j in range(nodes)],
                 scale_pairs=[(0, 1, q)])


def _phase_classes(a: int, b: int, nodes: int) -> tuple[Atoms, int]:
    """One atom of clock_phase_grid per unitary-equivalence class, and the
    number of lattice atoms each stands for, with a/b in lowest terms.

    q depends only on a/b, so a/b is reduced first.  Then conjugating the
    clock-shift pair at phases (theta_1, theta_2) by the shift or by the
    clock moves theta_1 or theta_2 by a multiple of 2 pi / b: an irrep is
    fixed by its central character (U1^b, U2^b) = (e^{i b theta_1},
    e^{i b theta_2}) I (Boca 2001, *Rotation C*-algebras and Almost Mathieu
    Operators*, ch. 1).  On the lattice of step 2 pi / nodes, with g =
    gcd(nodes, b), the atoms at (i, j), (i + nodes/g, j) and (i, j +
    nodes/g) are therefore equivalent, and the atoms at i, j < nodes/g of
    clock_phase_grid(a, b, nodes) have distinct central characters and
    stand for g^2 lattice atoms each.
    """
    _require_rational(a, b)
    r = math.gcd(a, b)
    a, b = int(a) // r, int(b) // r
    lattice = clock_phase_grid(a, b, nodes)
    g = math.gcd(nodes, b)
    n = nodes // g
    return lattice[(np.arange(n)[:, None] * nodes + np.arange(n)).ravel()], g * g


# ADMM settings of fit_matrix_measure: iteration cap, the one fixed
# penalty (ADMM's convergence theory assumes a fixed one; Boyd et al. 2011,
# sec. 3.4.1), residual check period (a divisor of the cap, so the last
# iterate is checked), and the weight norm below which a fitted atom is
# dropped
_MAX_ITER = 20000
_RHO = 1.0
_CHECK_EVERY = 25
_PRUNE_TOL = 1e-9
# face polish: an eigenvalue above _FACE_TOL times the largest of all blocks
# spans the face; singular values below _POLISH_RCOND times the largest are
# cut from the face solve; a polished fit is accepted at a residual of at
# most _POLISH_RESIDUAL times fit_tol
_FACE_TOL = 1e-6
_POLISH_RCOND = 1e-7
_POLISH_RESIDUAL = 1e-3


@functools.lru_cache(maxsize=None)
def _herm_to_cvec(m: int) -> np.ndarray:
    """Complex matrix of shape (m^2, m^2) sending hvec(H) to H.ravel()."""
    phi = hunvec(np.eye(m * m), m).reshape(m * m, m * m).T.copy()
    phi.flags.writeable = False
    return phi


def _words(atoms: Atoms, indices: list, rule: str) -> np.ndarray:
    """Every atom's words at every index, complex (atoms, indices, b, b):
    1 x 1 images as Laurent monomials (laurent_scalar), others as the
    generators' words under ``rule`` from one walk."""
    n, _, b, _ = atoms.images.shape
    if b == 1:
        # the walk's matrix products would round differently, and the
        # dilation's rank follows roundoff
        pts = atoms.images[:, :, 0, 0]
        words = (laurent_scalar(idx, pts)[:, None, None] for idx in indices)
    else:
        words = _word_walk(indices, list(atoms.images.swapaxes(0, 1)), rule)
    out = np.empty((n, len(indices), b, b), dtype=np.complex128)
    for i, w in enumerate(words):
        out[:, i] = w
    return out


def _contract(weights: np.ndarray, d: int, words=None) -> np.ndarray:
    """Weights (..., m, m) contracted with their words (..., indices, b, b)
    into (..., indices, d, d), or with the identity into (..., d, d): each
    weight read as b x b blocks G_st of size d x d gives sum_st w_st G_st,
    summed from zero term by term, so at b = 1 it is 0 + w G (a -0
    product reads +0)."""
    b = weights.shape[-1] // d
    g4 = weights.reshape(weights.shape[:-2] + (b, d, b, d))
    out = 0.0
    for s in range(b):
        for t in range(b):
            if words is not None:
                out = out + words[..., s, t, None, None] * g4[..., None, s, :, t, :]
            elif s == t:
                out = out + g4[..., s, :, t, :]
    return out


def _pieces(weights: np.ndarray, d: int, tol: Tolerances):
    """Rank-one pieces (pieces, b, d) of the weights, atom by atom, and the
    count per atom: the rows r of G = sum r* r, each reshaped (b, d)."""
    lam, q = np.linalg.eigh(herm_part(weights))
    flat, counts = _rank_one_split(lam, q, tol)
    return flat.reshape(len(flat), -1, d), counts


def _fit_system(targets: MomentTable, grid: Atoms):
    """The linear data of the fit: moments A z = t and unit mass C z = c,
    stacked as B z = [t; c] with B = [A; C]; returns B, [t; c] and the
    number k of rows of A.

    z stacks hvec of every atom's weight block in grid order.  The rows
    of A z at an index n hold the real, then the imaginary parts of the
    measure's moment L_n; C z is hvec of its total mass.  A symmetric
    table on a grid whose words at -n are the adjoints of those at n
    (unit-modulus points, unitary irreps) keeps only the rows of its
    canonical indices, A and t scaled by sqrt 2: the rows at -n would
    repeat them, so A^T A, A^T t and |A z - t| are those of all nonzero
    indices.  Other tables and grids keep every nonzero index.
    """
    d = targets.dim
    indices = [idx for idx in targets.indices() if any(i != 0 for i in idx)]
    words = _words(grid, indices, targets.index_rule)
    keep, scale = list(range(len(indices))), 1.0
    if targets.symmetric:
        at = {idx: i for i, idx in enumerate(indices)}
        neg = [at[tuple(-i for i in idx)] for idx in indices]
        if _adjoint_closed(words, neg):
            keep = [at[idx] for idx in _canonical_indices(targets)]
            scale = np.sqrt(2.0)
    vals = np.array([targets.value(indices[i]) for i in keep]).reshape(-1, d, d)
    t_vec = scale * np.stack([vals.real, vals.imag], axis=1).ravel()
    m = grid.block_size(d)
    k = t_vec.size
    b_mat = np.empty((k + d * d, len(grid) * m * m))
    # basis[k] is the k-th hvec basis matrix of C^m, a weight
    basis = _herm_to_cvec(m).T.reshape(m * m, m, m)
    # block[i, p, q, a, k]: atom a's basis weight k contracted at index i
    block = _contract(basis, d, words[:, keep][:, None]).transpose(2, 3, 4, 0, 1)
    b_mat[:k] = scale * np.stack([block.real, block.imag], axis=1).reshape(k, -1)
    b_mat[k:] = np.tile(hvec(_contract(basis, d)).T, len(grid))
    return b_mat, np.concatenate([t_vec, hvec(np.eye(d, dtype=np.complex128))]), k


def _adjoint_closed(words: np.ndarray, neg: list) -> bool:
    """Whether each atom's word at index -n is the adjoint of its word at
    n to roundoff; words (atoms, indices, b, b), -n at position neg[i]."""
    gap = np.abs(words[:, neg] - np.swapaxes(words.conj(), -1, -2)).max(initial=0.0)
    return bool(gap <= 1e-12 * max(1.0, np.abs(words).max(initial=0.0)))


def _project_hvec(coords: np.ndarray, m: int) -> np.ndarray:
    """The PSD projection of a stack of hvec coordinates (blocks, m^2).

    Each block's inertia is read from the signs of its unpivoted LDL*
    pivots (Sylvester's law of inertia, _ldl_pivots).  A positive
    definite block keeps its coordinates bit for bit and a negative
    definite one becomes 0; the rest, whose pivots change sign, vanish or
    are lost to overflow, go through one batched eigh with the negative
    eigenvalues clipped.
    """
    phi = _herm_to_cvec(m)  # hvec coordinates to raveled matrices
    mats = (coords @ phi.T).reshape(-1, m, m)
    pivots = _ldl_pivots(mats)
    pos, neg = (pivots > 0).all(axis=1), (pivots < 0).all(axis=1)
    out = np.where(neg[:, None], 0.0, coords)
    rest = ~(pos | neg)
    if rest.any():
        w, q = np.linalg.eigh(mats[rest])
        blocks = (q * np.clip(w, 0.0, None)[:, None, :]) @ np.swapaxes(q.conj(), 1, 2)
        out[rest] = (blocks.reshape(-1, m * m) @ phi.conj()).real
    return out


def _x_step(b_mat, rhs, k, rho=_RHO):
    """The x-step of the fit's ADMM as a function of v = z - u: the x that
    minimises |A x - t|^2 / 2 + rho |x - v|^2 / 2 subject to C x = c,
    for the moment rows A = b_mat[:k] and the mass rows C = b_mat[k:].

    Its KKT system is solved in closed form (Boyd et al. 2011, sec.
    4.2.4): x = v + B^T mu, where (B B^T + rho diag(I_k, 0)) mu =
    [t; c] - B v with B = [A; C].  That matrix is positive definite for
    every nonempty grid, whatever the rank of A: mu^T M mu = |B^T mu|^2 +
    rho |mu_A|^2, and C has full row rank.  So it is inverted once, from
    one Cholesky factorization, and the x-step costs three matrix-vector
    products.  The multiplier of the mass rows is -rho mu_C.
    """
    gram = b_mat @ b_mat.T
    gram[np.arange(k), np.arange(k)] += rho
    chol, info = scipy.linalg.lapack.dpotrf(gram)
    if info == 0:
        inv, info = scipy.linalg.lapack.dpotri(chol)
    if info != 0:
        raise ShapeMismatchError(
            f"the fit's x-step matrix is not positive definite (LAPACK info {info})")
    inv = np.triu(inv) + np.triu(inv, 1).T  # dpotri fills the upper triangle
    mu0 = inv @ rhs
    return lambda v: v + b_mat.T @ (mu0 - inv @ (b_mat @ v))


def _admm(b_mat, rhs, k, m, z, rho=_RHO):
    """The plain ADMM iteration of the fit, started from the weights z of
    block size m, with the one fixed penalty rho.

    Yields (it, z) at every residual check, every _CHECK_EVERY iterations.
    An iteration is one x-step (_x_step: three matrix-vector products)
    and one PSD projection of the stack of blocks, which sends only the
    blocks that are neither positive nor negative definite through eigh
    (_project_hvec).  A non-finite iterate raises ShapeMismatch.
    """
    x_step = _x_step(b_mat, rhs, k, rho)

    def project_blocks(v):
        if not np.all(np.isfinite(v)):
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        return _project_hvec(v.reshape(-1, m * m), m).ravel()

    u = np.zeros_like(z)
    for it in range(1, _MAX_ITER + 1):
        x = x_step(z - u)
        z = project_blocks(x + u)
        u = u + x - z
        if it % _CHECK_EVERY == 0:
            yield it, z


def _cut_lstsq(mat, rhs, scale):
    """The least-norm least-squares solution of mat x = rhs over the singular
    values above _POLISH_RCOND * scale, and the right singular vectors kept."""
    u, sv, vt = _svd(mat, full_matrices=False)
    keep = sv > _POLISH_RCOND * scale
    return vt[keep].T @ ((u[:, keep].T @ rhs) / sv[keep]), vt[keep]


def _polish(b_mat, rhs, k, m, z):
    """The fit solved on the face of the PSD cone that the weights z, of
    block size m, lie on.

    Atom j's face is W_j = U_j S_j U_j* over Hermitian S_j, where U_j holds
    the eigenvectors of its weight whose eigenvalue exceeds _FACE_TOL times
    the largest of all blocks.  M maps the hvec(S_j) coordinates, p in all,
    to z isometrically.  From z's own face coordinates s_z, the smallest
    correction that minimises |A M s - t| subject to C M s = c is taken in
    null-space form: the part in the row space of C M meets the constraint
    exactly, from one SVD of that d^2 x p matrix, and the part off it is
    one lstsq of A M projected off that row space.  No p x p array is
    formed.  Returns M s, or None when some S_j has an eigenvalue below
    -1e-12.
    """
    lam, q = np.linalg.eigh(hunvec(z.reshape(-1, m * m), m))
    lmax = float(lam.max())
    basis = _herm_to_cvec(m).T.reshape(m * m, m, m)
    # rot[a, :, k] = hvec(q_a E_k q_a*) for the k-th hvec basis matrix
    # E_k: an orthonormal basis of atom a's weights in its eigenbasis
    rot = np.swapaxes(hvec(q[:, None] @ basis @ q[:, None].conj().swapaxes(2, 3)), 1, 2)
    keep = lam > _FACE_TOL * lmax
    on = keep[:, :, None] & keep[:, None, :]
    # the face keeps the coordinates whose E_k lives on kept x kept
    mask = ~np.any((basis != 0) & ~on[:, None], axis=(2, 3))
    n_atoms = len(lam)
    b_rot = np.swapaxes(b_mat.reshape(-1, n_atoms, m * m), 0, 1) @ rot
    a_face, c_face = np.split(np.swapaxes(b_rot, 0, 1)[:, mask], [k])
    s = (z.reshape(n_atoms, 1, m * m) @ rot)[:, 0][mask]
    step, rows = _cut_lstsq(c_face, rhs[k:] - c_face @ s, np.linalg.norm(c_face))
    s += step
    # off the row space of C M the constraint holds whatever the step; the
    # cut is relative to A M itself, since what is left of it there may be
    # roundoff alone
    a_off = a_face - (a_face @ rows.T) @ rows
    s += _cut_lstsq(a_off, rhs[:k] - a_face @ s, np.linalg.norm(a_face))[0]
    coords = np.zeros(mask.shape)
    coords[mask] = s
    if np.linalg.eigvalsh(hunvec(coords, m))[:, 0].min() < -1e-12:
        return None
    return (rot @ coords[:, :, None]).ravel()


def fit_matrix_measure(targets: MomentTable, grid: Atoms,
                       tol: Tolerances = DEFAULT_TOL,
                       seed: int = 0, *, class_size: int = 1) -> AtomicMeasure:
    """Fit PSD atom weights on a fixed grid to prescribed moments.

    Solves  min sum_{n != 0} || sum_j eval(n, j) P_j - L_n ||_F^2  over
    PSD weights subject to the exact unit constraint at index 0, by ADMM
    splitting between the PSD cone (block by block, each block's inertia
    screened by its LDL* pivots before any eigh) and the constrained
    least-squares step over the rows of _fit_system, solved in closed form
    from one Cholesky factorization of the Gram matrix of [A; C] made
    before the first iteration (see _x_step).  Every
    25 iterations the fit stops when the residual is at most 0.9 fit_tol
    and the unit defect at most 1e-9.

    When that test fails at a check whose number is a power of two
    (iterations 25, 50, 100, 200, ...: at most 10 attempts in a fit), the
    iterate is polished on its identified face, as in OSQP's solution
    polishing (Stellato, Banjac, Goulart, Bemporad & Boyd 2020, *OSQP: an
    operator splitting solver for quadratic programs*, Math. Prog. Comp.).
    Each weight's face is W_j = U_j S_j U_j*, spanned by its eigenvectors
    above 1e-6 times the largest eigenvalue of all blocks.  Anchored at
    the iterate's own S_j, the smallest correction is taken that
    minimises the moment residual over the face while meeting the unit
    constraint exactly.  The polished weights are accepted only when
    every S_j is PSD (eigenvalues >= -1e-12), the unit defect is at most
    1e-9 and the residual at most 1e-3 fit_tol; the fit then ends.  The
    residual bar is the stopping test's with a margin: on the right face
    the solve meets the moments to roundoff or to the data's own floor,
    while a face whose eigenvectors are still moving can meet 0.9 fit_tol
    with pieces that are accurate only to that order, which the
    Caratheodory reduction counts as extra rank.  Otherwise ADMM continues
    from the unchanged iterate, so a fit whose polish is never accepted
    ends with the plain ADMM weights.

    Raises Infeasible unless the final weights meet fit_tol with a unit
    defect of at most 1e-8 (a NaN residual meets neither), in particular
    when the residual stays above fit_tol at the iteration cap; atoms
    whose fitted weight is below _PRUNE_TOL are dropped.  ``seed`` draws
    the initial weights.

    ``class_size`` says that each atom stands for that many atoms of a
    larger grid, all unitarily equivalent to it (dilate_qcommute fits one
    clock-shift irrep per class of its phase lattice, with class_size
    g^2).  Moving a weight between equivalent atoms, conjugated, keeps
    every moment, so the feasible set is the larger grid's.  ADMM then
    runs at penalty _RHO / class_size.  That is the larger grid's own
    iteration restricted to weights shared evenly by each class (each
    atom holding the class weight / class_size, conjugated into its
    frame): in the class weights its columns are scaled by
    sqrt(class_size), which is the same as dividing the penalty by
    class_size (Boyd et al. 2011, sec. 3.4.1, on the role of the
    penalty).  The residual, the stopping test, the polish and pruning
    read the true weights, and neither the projection nor the polish
    thresholds see the scale.  Unscaled, at penalty _RHO, the q-commute
    fits of the benchmark take 800 to 2725 iterations on the class grid
    where the scaled ones stop at 400.
    """
    if not grid:
        raise GridEmptyError("empty atom grid")
    if not isinstance(class_size, (int, np.integer)) or class_size < 1:
        raise ShapeMismatchError(f"class_size must be a positive integer, got {class_size!r}")
    d = targets.dim
    system = b_mat, rhs, k = _fit_system(targets, grid)
    m = grid.block_size(d)
    fit_tol = tol.fit_tol

    def defects(w):
        gap = b_mat @ w - rhs
        return _norm(gap[:k]), _norm(gap[k:])

    def stops(w, limit):
        resid, unit_def = defects(w)
        return resid <= limit and unit_def <= 1e-9

    # each weight starts at a random multiple of hvec(I_m), which is
    # C^T hvec(I_d) block by block
    weights = (0.5 + 0.5 * np.random.default_rng(seed).random(len(grid))) / len(grid)
    z = np.repeat(weights, m * m) * (b_mat[k:].T @ rhs[k:])
    for it, z in _admm(*system, m, z, _RHO / class_size):
        if stops(z, 0.9 * fit_tol):
            break
        check = it // _CHECK_EVERY
        if check & (check - 1) == 0:
            polished = _polish(*system, m, z)
            if polished is not None and stops(polished, _POLISH_RESIDUAL * fit_tol):
                z = polished
                break

    resid, unit_def = defects(z)
    if not (resid <= fit_tol and unit_def <= 1e-8):
        raise InfeasibleError(
            f"fit residual {resid:.6e} (unit defect {unit_def:.1e}) "
            f"did not reach fit_tol {fit_tol:.1e} within {_MAX_ITER} iterations",
            residual=resid,
        )
    atoms = grid.with_weights(hunvec(z.reshape(-1, m * m), m))
    mu = AtomicMeasure(dim=d, atoms=atoms, defect=unit_def, fit_residual=resid,
                       index_rule=targets.index_rule)
    return mu.pruned(_PRUNE_TOL)


def assemble_atomic_dilation(mu: AtomicMeasure, indices=None,
                             tol: Tolerances = DEFAULT_TOL) -> Dilation:
    """Build the explicit dilation carried by an atomic measure.

    Each rank-one piece gamma (b x d) of an atom's weight contributes b
    dimensions: V stacks the pieces, and each generator carries the
    atom's b x b image on the piece's diagonal block, so a point atom
    contributes rank(G) dimensions with z on the diagonal.  Compressions
    V* w V = sum gamma* w gamma then equal the measure's moments exactly
    (up to factorization roundoff).
    """
    mu.validate(tol)
    unit_defect = float(np.linalg.norm(mu.unit_matrix() - np.eye(mu.dim)))
    if unit_defect > 1e-8 * max(1.0, mu.dim):
        raise NotNormalizedError(
            f"measure is not normalized (defect {unit_defect:.3e}); "
            "call .normalized() first"
        )
    d = mu.dim
    pieces, counts = _pieces(mu._weights(), d, tol)
    if not len(pieces):
        raise GridEmptyError("measure has no mass to assemble")
    v = pieces.reshape(-1, d)
    images = np.repeat(mu.atoms.images, counts, axis=0)  # each piece's images
    n, nu, b, _ = images.shape
    gens = np.zeros((nu, n * b, n * b), dtype=np.complex128)
    idx = np.arange(n * b).reshape(n, b)
    gens[:, idx[:, :, None], idx[:, None, :]] = np.swapaxes(images, 0, 1)
    gens = list(gens)
    residuals = {"unit_defect": unit_defect}
    if indices is not None:
        # the measure's own moments use honest Laurent powers, so
        # negative indices must be inverse powers here as well
        indices = list(indices)
        words = _word_walk(indices, gens, mu.index_rule, "inverse", v=v)
        residuals["moment_vs_measure"] = max(
            (float(np.linalg.norm(v.conj().T @ w - m))
             for w, m in zip(words, mu._moments(indices))), default=0.0)
    return Dilation(v=v, generators=gens, space_dim=v.shape[0],
                    provenance="naimark" if b == 1 else "naimark-irrep",
                    residuals=residuals)


def _canonical_indices(table: MomentTable):
    """Indices whose values pin the whole table.

    Conjugate-closed tables keep one representative per {n, -n} pair;
    tables with genuine negative powers (annulus) keep every nonzero
    index, since z^{-n} is then independent data.
    """
    return [idx for idx in table.indices() if any(idx)
            and (not table.symmetric or next(i for i in idx if i != 0) > 0)]


def measure_to_combination(mu: AtomicMeasure, table: MomentTable,
                           tol: Tolerances = DEFAULT_TOL):
    """View a measure as a matrix convex combination of its pure atoms.

    Each rank-one piece of an atom weight becomes a term; the point of an
    atom collects Hermitian real/imaginary parts of the atom's word images
    at the table's canonical indices, so points are selfadjoint and the
    Caratheodory bound n^2 (d+1) applies.  Labels record the grid index
    for reassembly.
    """
    d = mu.dim
    weights = mu._weights()
    words = _words(mu.atoms, _canonical_indices(table), mu.index_rule)
    parts = np.stack([herm_part(words), herm_part(-1j * words)], axis=2)
    pieces, counts = _pieces(weights, d, tol)
    n = len(mu.atoms)
    points = MatrixPoint._stack(parts.reshape(n, -1, *words.shape[2:]),
                                selfadjoint=True, labels=list(range(n)))
    owner = np.repeat(np.arange(n), counts)
    return MatrixConvexCombination(n=d, terms=[(gamma, points[j])
                                               for gamma, j in zip(pieces, owner)])


def combination_to_measure(comb: MatrixConvexCombination, mu: AtomicMeasure
                           ) -> AtomicMeasure:
    """Reassemble a measure from a (reduced) combination of its atoms.

    Term labels index into the original measure's grid; each coefficient
    gamma, raveled into a row r, adds the rank-one weight r* r to its
    atom, in term order.
    """
    labels = [point.label for _, point in comb.terms]
    if any(j is None or not (0 <= j < len(mu.atoms)) for j in labels):
        raise ShapeMismatchError("combination term does not label a grid atom")
    kept = sorted(set(labels))
    m = mu.atoms.block_size(mu.dim)
    r = np.array([gamma for gamma, _ in comb.terms]).reshape(len(labels), 1, m)
    acc = np.zeros((len(kept), m, m), dtype=np.complex128)
    np.add.at(acc, np.searchsorted(kept, labels), r.conj().swapaxes(1, 2) @ r)
    return replace(mu, atoms=mu.atoms[kept].with_weights(herm_part(acc)))
