"""Atomic matrix measures: fitting, normalization, and Naimark assembly.

A measure is a finite list of atoms, each either a point z with a PSD
matrix weight (commutative case) or a finite-dimensional unitary
representation with a PSD Choi block (q-commuting case).  Moments of the
measure are linear in the weights, which is what the fitter exploits.
Every operation walks the atoms as groups of one kind and block size,
each group one stack: one batched eigh splits a group's weights into
rank-one pieces by numerical_rank_factor's rule for both kinds (a weight
below -psd_tol raises NotPSD), and the fit projects whole stacks onto
the PSD cone, screening each block's inertia before any eigh.  Stacks
the library computes (grids, quadrature and fitted weights, the
combination view's points) are checked once per group, under the same
rules as a single PointAtom, IrrepAtom or MatrixPoint.
"""

from __future__ import annotations

import functools
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
    "PointAtom",
    "IrrepAtom",
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


def _check_weights(weights):
    """A stack of atom weights as complex128 (atoms, m, m), or None, after
    asmatrix's checks of each weight: a 2-d array with finite entries."""
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 3:
        raise ShapeMismatchError(f"expected a 2-d array, got ndim={w.ndim - 1}")
    if not np.all(np.isfinite(w)):
        raise ShapeMismatchError("matrix contains NaN or Inf entries")
    return w


def _one_weight(weight):
    """A single atom's weight as a stack of one for _check_stack."""
    return None if weight is None else np.asarray(weight, dtype=np.complex128)[None]


@dataclass
class PointAtom:
    """A point of C^nu with a PSD d x d weight (None until fitted)."""

    point: np.ndarray
    weight: np.ndarray | None = None

    def __post_init__(self):
        point = np.atleast_1d(np.asarray(self.point, dtype=np.complex128))
        points, weights = self._check_stack(point[None], _one_weight(self.weight))
        self.point, self.weight = points[0], None if weights is None else weights[0]

    @staticmethod
    def _check_stack(points, weights):
        """A stack of points (atoms, nu) and of weights (atoms, m, m) or None,
        as complex128, after every check of a single atom."""
        points = np.asarray(points, dtype=np.complex128)
        return points[:, None] if points.ndim == 1 else points, _check_weights(weights)

    @classmethod
    def _stack(cls, points, weights=None) -> list:
        """One atom per row of the stack points (atoms, nu), or per entry of
        a stack of scalar points, weighted by the matching slice of the
        stack weights (atoms, m, m), or unweighted; checked once, whole."""
        points, weights = cls._check_stack(points, weights)
        weights = [None] * len(points) if weights is None else weights
        return [_unchecked(cls, point=p, weight=w) for p, w in zip(points, weights)]

    @property
    def nu(self) -> int:
        return self.point.size

    def block_size(self, dim: int) -> int:
        return dim

    def with_weight(self, weight) -> "PointAtom":
        return PointAtom(self.point, weight)


@dataclass
class IrrepAtom:
    """A representation by unitary generator images, weighted by a Choi block.

    The Choi block G lives on C^b tensor C^d (row-major pairing); its
    rank-one pieces are the coefficient matrices gamma: C^d -> C^b of the
    matrix convex combination the atom encodes.  ``scale_pairs`` records
    exchange relations (i, j, q) meaning G_j G_i = q G_i G_j, used by
    validation and verification.
    """

    generators: list
    weight: np.ndarray | None = None
    scale_pairs: list = field(default_factory=list)

    def __post_init__(self):
        gens, weights = self._check_stack([list(self.generators)],
                                          _one_weight(self.weight))
        self.generators = list(gens[0])
        self.weight = None if weights is None else weights[0]

    @staticmethod
    def _check_stack(generators, weights):
        """A stack of generator images (atoms, images, b, b) and of weights
        (atoms, m, m) or None, as complex128, after every check of a single
        atom: at least one image, each a finite 2-d array, all b x b."""
        try:
            gens = np.asarray(generators, dtype=np.complex128)
        except ValueError:  # ragged: the images' shapes differ
            gens = None
        if gens is None or gens.ndim != 4 or not gens.shape[1]:
            # not one stack: find the fault image by image
            if not all(len(images) for images in generators):
                raise DimensionMismatchError("an irrep needs at least one generator image")
            for images in generators:
                for g in images:
                    asmatrix(g)
            raise DimensionMismatchError("generator images must share one size")
        if not np.all(np.isfinite(gens)):
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        if gens.shape[2] != gens.shape[3]:
            raise DimensionMismatchError("generator images must share one size")
        return gens, _check_weights(weights)

    @classmethod
    def _stack(cls, generators, weights=None, scale_pairs=None) -> list:
        """One atom per slice of the stack generators (atoms, images, b, b),
        weighted by the matching slice of the stack weights (atoms, m, m),
        or unweighted, with a copy of its entry of ``scale_pairs``; checked
        once, whole."""
        gens, weights = cls._check_stack(generators, weights)
        weights = [None] * len(gens) if weights is None else weights
        scale_pairs = [[]] * len(gens) if scale_pairs is None else scale_pairs
        return [_unchecked(cls, generators=list(g), weight=w, scale_pairs=list(pairs))
                for g, w, pairs in zip(gens, weights, scale_pairs)]

    @property
    def rep_dim(self) -> int:
        return self.generators[0].shape[0]

    def block_size(self, dim: int) -> int:
        return self.rep_dim * dim

    def with_weight(self, weight) -> "IrrepAtom":
        return IrrepAtom(self.generators, weight,
                         scale_pairs=list(self.scale_pairs))


def _reweight(atoms: list, kind, pos, weights):
    """with_weight, in place, for the atoms of one kind at positions pos
    and the stack of their new weights (atoms, m, m), checked once, whole."""
    group = [atoms[j] for j in pos]
    if kind is PointAtom:
        group = PointAtom._stack([a.point for a in group], weights)
    else:
        group = IrrepAtom._stack([a.generators for a in group], weights,
                                 [a.scale_pairs for a in group])
    for j, a in zip(pos, group):
        atoms[j] = a


@dataclass
class AtomicMeasure:
    """Finitely many weighted atoms, normalized to unit total mass."""

    dim: int
    atoms: list
    defect: float = 0.0
    fit_residual: float | None = None
    index_rule: str = "laurent"

    def kind(self) -> str:
        kinds = {type(a).__name__ for a in self.atoms}
        if len(kinds) > 1:
            raise ShapeMismatchError(f"mixed atom kinds in one measure: {kinds}")
        return "irrep" if kinds == {"IrrepAtom"} else "point"

    def unit_matrix(self) -> np.ndarray:
        return self._moments(None)

    def moment(self, idx) -> np.ndarray:
        return self._moments([idx])[0]

    def _moments(self, indices) -> np.ndarray:
        """The moments (indices, d, d), or the mass if indices is None, as
        running sums over the atoms in order (bits as the per-atom loop)."""
        d = self.dim
        shape = (d, d) if indices is None else (len(indices), d, d)
        terms = np.zeros((len(self.atoms) + 1,) + shape, dtype=np.complex128)
        for kind, _, pos, weights in _weight_groups(self.atoms, d):
            words = None if indices is None else _words(
                [self.atoms[j] for j in pos], indices, self.index_rule)
            terms[pos + 1] = _contract(kind, weights, d, words)
        return np.cumsum(terms, axis=0)[-1]

    def validate(self, tol: Tolerances = DEFAULT_TOL):
        for kind, _, pos, weights in _weight_groups(self.atoms, self.dim):
            lam = np.linalg.eigvalsh(herm_part(weights))
            bad = lam[:, 0] < _psd_floor(lam, tol)
            if bad.any():
                raise NonPSDWeightError(f"atom {pos[np.argmax(bad)]} weight has "
                                        f"eigenvalue {lam[bad][0, 0]:.3e} below "
                                        f"-psd_tol * max|eigenvalue|")
            if kind is PointAtom:
                continue
            # gens[a, i]: image i of atom a; a row (a, i, j, q) of p: a relation
            gens = np.array([self.atoms[j].generators for j in pos])
            unit = gens.conj().swapaxes(2, 3) @ gens - np.eye(gens.shape[-1])
            if np.any(np.linalg.norm(unit, axis=(2, 3)) > 1e-10):
                raise NotIsometricError("irrep generator image not unitary")
            p = np.reshape([(a, *pair) for a, j in enumerate(pos)
                            for pair in self.atoms[j].scale_pairs], (-1, 4))
            a, i, j = p[:, :3].real.astype(int).T
            gi, gj = gens[a, i], gens[a, j]
            if np.any(np.linalg.norm(gj @ gi - p[:, 3, None, None] * (gi @ gj),
                                     axis=(1, 2)) > 1e-10):
                raise ShapeMismatchError(
                    "irrep generators violate the declared exchange relation")

    def normalized(self, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        """Congruence-rescale the weights so the total mass is exactly I.

        P_j -> S^{-1/2} P_j S^{-1/2} with S the current unit matrix; this
        preserves positive semidefiniteness, unlike an additive shift.
        """
        s = self.unit_matrix()
        defect = float(np.linalg.norm(s - np.eye(self.dim)))
        # congruence only repairs a mass matrix that is safely invertible
        if defect > 0.1 * max(1.0, self.dim):
            raise NotNormalizedError(
                f"measure mass defect {defect:.3e} too large to renormalize"
            )
        r, d, atoms = inv_sqrt_psd(s, tol), self.dim, list(self.atoms)
        for kind, m, pos, weights in _weight_groups(self.atoms, d):
            # the irrep contraction reads the d legs transposed
            g4 = weights.reshape(-1, m // d, d, m // d, d)
            w = r @ weights @ r if kind is PointAtom else np.einsum(
                "asPtQ,Pp,Qq->asptq", g4, r, r.conj())
            _reweight(atoms, kind, pos, herm_part(w.reshape(-1, m, m)))
        return replace(self, atoms=atoms, defect=defect)

    def pruned(self, prune_tol: float) -> "AtomicMeasure":
        """The weighted atoms whose weight has Frobenius norm at least
        prune_tol, in order, from one norm call per weight shape (one per
        (kind, block size) group of a fitted measure)."""
        shapes = [None if a.weight is None else a.weight.shape for a in self.atoms]
        keep = np.zeros(len(self.atoms), dtype=bool)
        for shape in dict.fromkeys(shapes).keys() - {None}:
            pos = [j for j, s in enumerate(shapes) if s == shape]
            weights = np.stack([self.atoms[j].weight for j in pos])
            keep[pos] = np.linalg.norm(weights, axis=(1, 2)) >= prune_tol
        atoms = [a for a, k in zip(self.atoms, keep) if k]
        if not atoms:
            raise GridEmptyError("pruning removed every atom")
        return replace(self, atoms=atoms)


def circle_grid(nodes: int, radius: float = 1.0) -> list:
    """Equispaced points on a circle |z| = radius."""
    return PointAtom._stack([radius * np.exp(2j * np.pi * j / nodes)
                             for j in range(nodes)])


def torus_grid(nodes: int, nu: int) -> list:
    """The nodes^nu lattice of roots of unity on the nu-torus."""
    roots = [np.exp(2j * np.pi * j / nodes) for j in range(nodes)]
    return PointAtom._stack([[roots[i] for i in idx]
                             for idx in np.ndindex(*([nodes] * nu))])


def annulus_grid(nodes: int, r: float) -> list:
    """Equispaced points on both boundary circles of the annulus r <= |z| <= 1."""
    if not 0.0 < r < 1.0:
        raise ShapeMismatchError(f"annulus radius must lie in (0, 1), got {r}")
    return circle_grid(nodes, 1.0) + circle_grid(nodes, r)


def clock_shift_irrep(a: int, b: int, theta=(0.0, 0.0)) -> IrrepAtom:
    """The b-dimensional clock-and-shift pair at phases theta.

    U1 = e^{i theta_1} diag(1, q, ..., q^{b-1}) and U2 = e^{i theta_2} X
    with X the cyclic downshift satisfy U2 U1 = q U1 U2 for
    q = exp(2 pi i a / b), exactly up to roundoff in the roots of unity.
    """
    q, clock, shift = _clock_shift(a, b)
    t1, t2 = float(theta[0]), float(theta[1])
    return IrrepAtom(
        generators=[np.exp(1j * t1) * clock, np.exp(1j * t2) * shift],
        scale_pairs=[(0, 1, q)],
    )


def _clock_shift(a: int, b: int):
    """q = exp(2 pi i a / b), diag(1, q, ..., q^{b-1}) and the cyclic downshift."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise ShapeMismatchError(
            "rotation parameter must be rational: integers a, b required "
            "(irrational angles admit no finite-dimensional representation)"
        )
    if b < 1:
        raise ShapeMismatchError("denominator b must be a positive integer")
    q = np.exp(2j * np.pi * a / b)
    clock = np.diag(q ** np.arange(b)).astype(np.complex128)
    shift = np.zeros((b, b), dtype=np.complex128)
    for j in range(b):
        shift[(j - 1) % b, j] = 1.0
    return q, clock, shift


def clock_phase_grid(a: int, b: int, nodes: int) -> list:
    """Clock-shift irreps over the nodes x nodes lattice of phase pairs."""
    step = 2.0 * np.pi / nodes
    q, clock, shift = _clock_shift(a, b)
    return IrrepAtom._stack(
        [[np.exp(1j * (step * i)) * clock, np.exp(1j * (step * j)) * shift]
         for i in range(nodes) for j in range(nodes)],
        scale_pairs=[[(0, 1, q)]] * nodes ** 2)


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


def _words(atoms: list, indices: list, rule: str) -> np.ndarray:
    """Every atom's words at every index, complex (atoms, indices, b, b).

    The atoms are all points or all irreps of one rep_dim: 1 x 1 Laurent
    monomials, or the generators' words under ``rule`` from one walk.
    """
    if isinstance(atoms[0], PointAtom):
        pts = np.array([a.point for a in atoms])
        b, words = 1, (laurent_scalar(idx, pts)[:, None, None] for idx in indices)
    else:
        gens = [np.stack(g) for g in zip(*(a.generators for a in atoms))]
        b, words = atoms[0].rep_dim, _word_walk(indices, gens, rule)
    out = np.empty((len(atoms), len(indices), b, b), dtype=np.complex128)
    for i, w in enumerate(words):
        out[:, i] = w
    return out


def _atom_groups(atoms: list, d: int):
    """(kind, m, positions, columns) for the atoms of each kind and block
    size m; an atom's m^2 columns are its hvec block in the stacked weights."""
    keys = [(type(a), a.block_size(d)) for a in atoms]
    offsets = np.cumsum([0] + [m * m for _, m in keys])
    for kind, m in dict.fromkeys(keys):
        pos = np.array([j for j, key in enumerate(keys) if key == (kind, m)])
        yield kind, m, pos, (offsets[pos][:, None] + np.arange(m * m)).ravel()


def _weight_groups(atoms: list, d: int):
    """_atom_groups with each group's weights stacked (atoms, m, m)."""
    for j, a in enumerate(atoms):
        m = a.block_size(d)
        if a.weight is None or a.weight.shape != (m, m):
            raise ShapeMismatchError(f"atom {j} has no {m} x {m} weight")
    for kind, m, pos, _ in _atom_groups(atoms, d):
        yield kind, m, pos, np.stack([atoms[j].weight for j in pos])


def _contract(kind, weights: np.ndarray, d: int, words=None) -> np.ndarray:
    """Weights (..., m, m) contracted with their words (..., indices, b, b)
    into (..., indices, d, d), or with the identity into (..., d, d): a
    point scales its weight by the word, e G; an irrep contracts its Choi
    block G as (b, d, b, d), sum_{s,t} w_st G_{(t,q),(s,p)}."""
    g4 = weights.reshape(weights.shape[:-2] + (weights.shape[-1] // d, d) * 2)
    if kind is PointAtom:
        g = g4[..., 0, :, 0, :]
        if words is not None:
            g = words[..., 0, 0, None, None] * g[..., None, :, :]
        return 0.0 + g  # a sum from zero, as einsum's: a -0 product reads +0
    if words is None:
        return np.einsum("...sqsp->...pq", g4)
    return np.einsum("...ist,...tqsp->...ipq", words, g4)


def _pieces(kind, weights: np.ndarray, d: int, tol: Tolerances):
    """Rank-one pieces (pieces, b, d) of a group's weights, and the count per
    atom: a point's P = sum gamma* gamma, an irrep's G = sum vec(gamma) vec(gamma)*."""
    lam, q = np.linalg.eigh(herm_part(weights))
    flat, counts = _rank_one_split(lam, q, tol, rows=kind is PointAtom)
    return flat.reshape(len(flat), -1, d), counts


def _fit_system(targets: MomentTable, grid: list):
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
    groups = list(_atom_groups(grid, d))
    words = [_words([grid[j] for j in pos], indices, targets.index_rule)
             for _, _, pos, _ in groups]
    keep, scale = list(range(len(indices))), 1.0
    if targets.symmetric:
        at = {idx: i for i, idx in enumerate(indices)}
        neg = [at[tuple(-i for i in idx)] for idx in indices]
        if all(_adjoint_closed(w, neg) for w in words):
            keep = [at[idx] for idx in _canonical_indices(targets)]
            scale = np.sqrt(2.0)
    vals = np.array([targets.value(indices[i]) for i in keep]).reshape(-1, d, d)
    t_vec = scale * np.stack([vals.real, vals.imag], axis=1).ravel()
    ncols = sum(a.block_size(d) ** 2 for a in grid)
    k = t_vec.size
    b_mat = np.empty((k + d * d, ncols))
    a_mat, c_mat = b_mat[:k], b_mat[k:]
    for (kind, m, pos, cols), w in zip(groups, words):
        # basis[k] is the k-th hvec basis matrix of C^m, a weight
        basis = _herm_to_cvec(m).T.reshape(m * m, m, m)
        # block[i, p, q, a, k]: atom a's basis weight k contracted at index i
        block = _contract(kind, basis, d, w[:, keep][:, None]).transpose(2, 3, 4, 0, 1)
        a_mat[:, cols] = scale * np.stack([block.real, block.imag], axis=1).reshape(
            k, cols.size)
        c_mat[:, cols] = np.tile(hvec(_contract(kind, basis, d)).T, len(pos))
    return b_mat, np.concatenate([t_vec, hvec(np.eye(d, dtype=np.complex128))]), k


def _adjoint_closed(words: np.ndarray, neg: list) -> bool:
    """Whether each atom's word at index -n is the adjoint of its word at
    n to roundoff; words (atoms, indices, b, b), -n at position neg[i]."""
    gap = np.abs(words[:, neg] - np.swapaxes(words.conj(), -1, -2)).max(initial=0.0)
    return bool(gap <= 1e-12 * max(1.0, np.abs(words).max(initial=0.0)))


def _project_hvec(coords: np.ndarray, m: int) -> np.ndarray:
    """The PSD projection of a stack of hvec coordinates (blocks, m^2).

    Each block's inertia is read from the signs of its unpivoted LDL*
    pivots (Sylvester's law of inertia), one elimination step at a time
    over the whole stack.  A positive definite block keeps its
    coordinates bit for bit and a negative definite one becomes 0; the
    rest, whose pivots change sign, vanish or are lost to overflow, go
    through one batched eigh with the negative eigenvalues clipped.
    """
    phi = _herm_to_cvec(m)  # hvec coordinates to raveled matrices
    mats = (coords @ phi.T).reshape(-1, m, m)
    pivots = np.empty(mats.shape[:2])
    schur = mats
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(m):
            pivots[:, k] = schur[:, 0, 0].real
            col = schur[:, 1:, 0]
            schur = schur[:, 1:, 1:] - col[:, :, None] * (
                col.conj() / pivots[:, k, None])[:, None, :]
    pos, neg = (pivots > 0).all(axis=1), (pivots < 0).all(axis=1)
    out = np.where(neg[:, None], 0.0, coords)
    rest = ~(pos | neg)
    if rest.any():
        w, q = np.linalg.eigh(mats[rest])
        blocks = (q * np.clip(w, 0.0, None)[:, None, :]) @ np.swapaxes(q.conj(), 1, 2)
        out[rest] = (blocks.reshape(-1, m * m) @ phi.conj()).real
    return out


def _x_step(b_mat, rhs, k):
    """The x-step of the fit's ADMM as a function of v = z - u: the x that
    minimises |A x - t|^2 / 2 + _RHO |x - v|^2 / 2 subject to C x = c,
    for the moment rows A = b_mat[:k] and the mass rows C = b_mat[k:].

    Its KKT system is solved in closed form (Boyd et al. 2011, sec.
    4.2.4): x = v + B^T mu, where (B B^T + _RHO diag(I_k, 0)) mu =
    [t; c] - B v with B = [A; C].  That matrix is positive definite for
    every nonempty grid, whatever the rank of A: mu^T M mu = |B^T mu|^2 +
    _RHO |mu_A|^2, and C has full row rank.  So it is inverted once, from
    one Cholesky factorization, and the x-step costs three matrix-vector
    products.  The multiplier of the mass rows is -_RHO mu_C.
    """
    gram = b_mat @ b_mat.T
    gram[np.arange(k), np.arange(k)] += _RHO
    chol, info = scipy.linalg.lapack.dpotrf(gram)
    if info == 0:
        inv, info = scipy.linalg.lapack.dpotri(chol)
    if info != 0:
        raise ShapeMismatchError(
            f"the fit's x-step matrix is not positive definite (LAPACK info {info})")
    inv = np.triu(inv) + np.triu(inv, 1).T  # dpotri fills the upper triangle
    mu0 = inv @ rhs
    return lambda v: v + b_mat.T @ (mu0 - inv @ (b_mat @ v))


def _admm(b_mat, rhs, k, groups, z):
    """The plain ADMM iteration of the fit, started from the weights z, with
    the one fixed penalty _RHO.

    Yields (it, z) at every residual check, every _CHECK_EVERY iterations.
    An iteration is one x-step (_x_step: three matrix-vector products)
    and one PSD projection per (kind, block size) group, which sends only
    its blocks that are neither positive nor negative definite through
    eigh (_project_hvec).  A non-finite iterate raises ShapeMismatch.
    """
    x_step = _x_step(b_mat, rhs, k)

    def project_blocks(v):
        if not np.all(np.isfinite(v)):
            raise ShapeMismatchError("matrix contains NaN or Inf entries")
        out = np.empty_like(v)
        for _, m, _, cols in groups:
            out[cols] = _project_hvec(v[cols].reshape(-1, m * m), m).ravel()
        return out

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


def _polish(b_mat, rhs, k, groups, z):
    """The fit solved on the face of the PSD cone that the weights z lie on.

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
    faces = [np.linalg.eigh(hunvec(z[cols].reshape(-1, m * m), m))
             for _, m, _, cols in groups]
    lmax = max(float(lam.max()) for lam, _ in faces)
    rots, masks, face_parts, s_parts = [], [], [], []
    for (_, m, _, cols), (lam, q) in zip(groups, faces):
        basis = _herm_to_cvec(m).T.reshape(m * m, m, m)
        # rot[a, :, k] = hvec(q_a E_k q_a*) for the k-th hvec basis matrix
        # E_k: an orthonormal basis of atom a's weights in its eigenbasis
        rot = np.swapaxes(hvec(q[:, None] @ basis @ q[:, None].conj().swapaxes(2, 3)), 1, 2)
        keep = lam > _FACE_TOL * lmax
        on = keep[:, :, None] & keep[:, None, :]
        # the face keeps the coordinates whose E_k lives on kept x kept
        mask = ~np.any((basis != 0) & ~on[:, None], axis=(2, 3))
        n_atoms = len(lam)
        b_rot = np.swapaxes(b_mat[:, cols].reshape(-1, n_atoms, m * m), 0, 1) @ rot
        rots.append(rot)
        masks.append(mask)
        face_parts.append(np.swapaxes(b_rot, 0, 1)[:, mask])
        s_parts.append((z[cols].reshape(n_atoms, 1, m * m) @ rot)[:, 0][mask])
    a_face, c_face = np.split(np.hstack(face_parts), [k])
    s = np.concatenate(s_parts)
    step, rows = _cut_lstsq(c_face, rhs[k:] - c_face @ s, np.linalg.norm(c_face))
    s += step
    # off the row space of C M the constraint holds whatever the step; the
    # cut is relative to A M itself, since what is left of it there may be
    # roundoff alone
    a_off = a_face - (a_face @ rows.T) @ rows
    s += _cut_lstsq(a_off, rhs[:k] - a_face @ s, np.linalg.norm(a_face))[0]
    out = np.empty_like(z)
    pieces = np.split(s, np.cumsum([np.count_nonzero(mask) for mask in masks])[:-1])
    for (_, m, _, cols), rot, mask, piece in zip(groups, rots, masks, pieces):
        coords = np.zeros(mask.shape)
        coords[mask] = piece
        if np.linalg.eigvalsh(hunvec(coords, m))[:, 0].min() < -1e-12:
            return None
        out[cols] = (rot @ coords[:, :, None]).ravel()
    return out


def fit_matrix_measure(targets: MomentTable, grid: list,
                       tol: Tolerances = DEFAULT_TOL,
                       seed: int = 0) -> AtomicMeasure:
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
    """
    if not grid:
        raise GridEmptyError("empty atom grid")
    d = targets.dim
    system = b_mat, rhs, k = _fit_system(targets, grid)
    sizes = np.array([a.block_size(d) for a in grid])
    groups = list(_atom_groups(grid, d))
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
    z = np.repeat(weights, sizes ** 2) * (b_mat[k:].T @ rhs[k:])
    for it, z in _admm(*system, groups, z):
        if stops(z, 0.9 * fit_tol):
            break
        check = it // _CHECK_EVERY
        if check & (check - 1) == 0:
            polished = _polish(*system, groups, z)
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
    atoms = list(grid)
    for kind, m, pos, cols in groups:
        _reweight(atoms, kind, pos, hunvec(z[cols].reshape(-1, m * m), m))
    mu = AtomicMeasure(dim=d, atoms=atoms, defect=unit_def, fit_residual=resid,
                       index_rule=targets.index_rule)
    return mu.pruned(_PRUNE_TOL)


def assemble_atomic_dilation(mu: AtomicMeasure, indices=None,
                             tol: Tolerances = DEFAULT_TOL) -> Dilation:
    """Build the explicit dilation carried by an atomic measure.

    Point atoms contribute rank(P_j) dimensions each: factor
    P_j = F_j* F_j, stack the F_j into the isometry V, and take diagonal
    generators, z_{j,i} on the rows of atom j.  Irrep atoms contribute one
    b-dimensional block per rank-one piece of the Choi weight, with the
    generator images on the diagonal.  Compressions V* w V then equal
    the measure's moments exactly (up to factorization roundoff).
    """
    mu.validate(tol)
    unit_defect = float(np.linalg.norm(mu.unit_matrix() - np.eye(mu.dim)))
    if unit_defect > 1e-8 * max(1.0, mu.dim):
        raise NotNormalizedError(
            f"measure is not normalized (defect {unit_defect:.3e}); "
            "call .normalized() first"
        )
    d = mu.dim
    point = mu.kind() == "point"
    # per group: the rows of V, each row's atom, and each rank-one piece's images
    rows, owners, images = [], [], []
    for kind, m, pos, weights in _weight_groups(mu.atoms, d):
        pieces, counts = _pieces(kind, weights, d, tol)
        rows.append(pieces.reshape(-1, d))
        owners.append(np.repeat(pos, counts * (m // d)))
        images.append(np.repeat([mu.atoms[j].point if point else mu.atoms[j].generators
                                 for j in pos], counts, axis=0))
    owner = np.concatenate(owners)
    if not owner.size:
        raise GridEmptyError("measure has no mass to assemble")
    order = np.argsort(owner, kind="stable")  # rows of V in atom order
    v = np.concatenate(rows)[order]
    space = v.shape[0]
    if point:
        # one group: generator i is diagonal, z_{j,i} on the rows of atom j
        gens = [np.diag(z) for z in images[0][order].T]
    else:
        # each piece's b x b generator images on the diagonal
        gens, start = np.zeros((images[0].shape[1], space, space), complex), 0
        for img in images:
            idx = start + np.arange(img.shape[0] * img.shape[-1]).reshape(len(img), -1)
            gens[:, idx[:, :, None], idx[:, None, :]] = np.swapaxes(img, 0, 1)
            start += idx.size
        gens = list(gens[:, order][:, :, order])
    residuals = {"unit_defect": unit_defect}
    if indices is not None:
        # the measure's own moments use honest Laurent powers, so
        # negative indices must be inverse powers here as well
        indices = list(indices)
        words = _word_walk(indices, gens, mu.index_rule, "inverse", v=v)
        residuals["moment_vs_measure"] = max(
            (float(np.linalg.norm(v.conj().T @ w - m))
             for w, m in zip(words, mu._moments(indices))), default=0.0)
    return Dilation(v=v, generators=gens, space_dim=space,
                    provenance="naimark" if point else "naimark-irrep",
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
    indices = _canonical_indices(table)
    terms = [None] * len(mu.atoms)
    for kind, _, pos, weights in _weight_groups(mu.atoms, d):
        words = _words([mu.atoms[j] for j in pos], indices, mu.index_rule)
        parts = np.stack([herm_part(words), herm_part(-1j * words)], axis=2)
        pieces, counts = _pieces(kind, weights, d, tol)
        points = MatrixPoint._stack(parts.reshape(len(pos), -1, *words.shape[2:]),
                                    selfadjoint=True, labels=pos.tolist())
        for j, point, own in zip(pos.tolist(), points,
                                 np.split(pieces, np.cumsum(counts)[:-1])):
            terms[j] = [(gamma, point) for gamma in own]
    return MatrixConvexCombination(n=d, terms=[t for ts in terms for t in ts])


def combination_to_measure(comb: MatrixConvexCombination, mu: AtomicMeasure
                           ) -> AtomicMeasure:
    """Reassemble a measure from a (reduced) combination of its atoms.

    Term labels index into the original measure's grid; coefficients
    gamma accumulate as gamma* gamma (point weights) or rank-one Choi
    blocks vec(gamma) vec(gamma)* (irrep weights), in term order.
    """
    labels = [point.label for _, point in comb.terms]
    if any(j is None or not (0 <= j < len(mu.atoms)) for j in labels):
        raise ShapeMismatchError("combination term does not label a grid atom")
    kept = sorted(set(labels))
    atoms = [mu.atoms[j] for j in kept]
    slot = np.searchsorted(kept, labels)  # term t belongs to atoms[slot[t]]
    for kind, m, pos, _ in _atom_groups(atoms, mu.dim):
        sel = np.flatnonzero(np.isin(slot, pos))
        g = np.array([comb.terms[t][0] for t in sel])
        w = (g.conj().swapaxes(1, 2) @ g if kind is PointAtom
             else g.reshape(len(g), -1, 1) * g.reshape(len(g), 1, -1).conj())
        acc = np.zeros((len(pos), m, m), dtype=np.complex128)
        np.add.at(acc, np.searchsorted(pos, slot[sel]), w)
        _reweight(atoms, kind, pos, herm_part(acc))
    return replace(mu, atoms=atoms)
