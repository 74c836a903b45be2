"""Atomic matrix measures: fitting, normalization, and Naimark assembly.

A measure is a finite list of atoms, each either a point z with a PSD
matrix weight (commutative case) or a finite-dimensional unitary
representation with a PSD Choi block (q-commuting case).  Moments of the
measure are linear in the weights, which is what the fitter exploits.
Every operation walks the atoms as groups of one kind and block size,
each group one stack: one batched eigh splits a group's weights into
rank-one pieces by numerical_rank_factor's rule for both kinds (a weight
below -psd_tol raises NotPSD), and psd_project projects whole stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .convex import MatrixConvexCombination, MatrixPoint, _svd
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
    _rank_one_split,
    asmatrix,
    herm_part,
    hunvec,
    hvec,
    inv_sqrt_psd,
    psd_project,
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


@dataclass
class PointAtom:
    """A point of C^nu with a PSD d x d weight (None until fitted)."""

    point: np.ndarray
    weight: np.ndarray | None = None

    def __post_init__(self):
        self.point = np.atleast_1d(np.asarray(self.point, dtype=np.complex128))
        if self.weight is not None:
            self.weight = asmatrix(self.weight)

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
        self.generators = [asmatrix(g) for g in self.generators]
        b = self.generators[0].shape[0]
        for g in self.generators:
            if g.shape != (b, b):
                raise DimensionMismatchError("generator images must share one size")
        if self.weight is not None:
            self.weight = asmatrix(self.weight)

    @property
    def rep_dim(self) -> int:
        return self.generators[0].shape[0]

    def block_size(self, dim: int) -> int:
        return self.rep_dim * dim

    def with_weight(self, weight) -> "IrrepAtom":
        return IrrepAtom(self.generators, weight,
                         scale_pairs=list(self.scale_pairs))


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
            w = herm_part(weights)
            wmin = np.linalg.eigvalsh(w)[:, 0]
            bad = wmin < -tol.psd_tol * np.maximum(np.linalg.norm(w, axis=(1, 2)), 1.0)
            if bad.any():
                raise NonPSDWeightError(f"atom {pos[np.argmax(bad)]} weight has "
                                        f"eigenvalue {wmin[bad][0]:.3e} below -psd_tol")
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
            for j, wj in zip(pos, herm_part(w.reshape(-1, m, m))):
                atoms[j] = atoms[j].with_weight(wj)
        return replace(self, atoms=atoms, defect=defect)

    def pruned(self, prune_tol: float) -> "AtomicMeasure":
        atoms = [a for a in self.atoms
                 if a.weight is not None
                 and np.linalg.norm(a.weight) >= prune_tol]
        if not atoms:
            raise GridEmptyError("pruning removed every atom")
        return replace(self, atoms=atoms)


def circle_grid(nodes: int, radius: float = 1.0) -> list:
    """Equispaced points on a circle |z| = radius."""
    return [PointAtom(point=[radius * np.exp(2j * np.pi * j / nodes)])
            for j in range(nodes)]


def torus_grid(nodes: int, nu: int) -> list:
    """The nodes^nu lattice of roots of unity on the nu-torus."""
    roots = [np.exp(2j * np.pi * j / nodes) for j in range(nodes)]
    atoms = []
    for idx in np.ndindex(*([nodes] * nu)):
        atoms.append(PointAtom(point=[roots[i] for i in idx]))
    return atoms


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
    t1, t2 = float(theta[0]), float(theta[1])
    return IrrepAtom(
        generators=[np.exp(1j * t1) * clock, np.exp(1j * t2) * shift],
        scale_pairs=[(0, 1, q)],
    )


def clock_phase_grid(a: int, b: int, nodes: int) -> list:
    """Clock-shift irreps over the nodes x nodes lattice of phase pairs."""
    step = 2.0 * np.pi / nodes
    return [clock_shift_irrep(a, b, (step * i, step * j))
            for i in range(nodes) for j in range(nodes)]


# ADMM settings of fit_matrix_measure: iteration cap, initial penalty,
# residual check period, and the weight norm below which a fitted atom
# is dropped
_MAX_ITER = 20000
_RHO = 1.0
_CHECK_EVERY = 25
_PRUNE_TOL = 1e-9


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
    """The linear data of the fit: moments A z = t and unit mass C z = c.

    z stacks hvec of every atom's weight block in grid order.  The rows
    of A z at a nonzero index n hold the real, then the imaginary parts
    of the measure's moment L_n; C z is hvec of its total mass.
    """
    d = targets.dim
    indices = [idx for idx in targets.indices() if any(i != 0 for i in idx)]
    vals = np.array([targets.value(idx) for idx in indices]).reshape(-1, d, d)
    t_vec = np.stack([vals.real, vals.imag], axis=1).ravel()
    ncols = sum(a.block_size(d) ** 2 for a in grid)
    a_mat = np.empty((t_vec.size, ncols))
    c_mat = np.empty((d * d, ncols))
    for kind, m, pos, cols in _atom_groups(grid, d):
        # basis[k] is the k-th hvec basis matrix of C^m, a weight
        basis = _herm_to_cvec(m).T.reshape(m * m, m, m)
        words = _words([grid[j] for j in pos], indices, targets.index_rule)
        # block[i, p, q, a, k]: atom a's basis weight k contracted at index i
        block = _contract(kind, basis, d, words[:, None]).transpose(2, 3, 4, 0, 1)
        a_mat[:, cols] = np.stack([block.real, block.imag], axis=1).reshape(
            t_vec.size, cols.size)
        c_mat[:, cols] = np.tile(hvec(_contract(kind, basis, d)).T, len(pos))
    return a_mat, t_vec, c_mat, hvec(np.eye(d, dtype=np.complex128))


def fit_matrix_measure(targets: MomentTable, grid: list,
                       tol: Tolerances = DEFAULT_TOL,
                       seed: int = 0) -> AtomicMeasure:
    """Fit PSD atom weights on a fixed grid to prescribed moments.

    Solves  min sum_{n != 0} || sum_j eval(n, j) P_j - L_n ||_F^2  over
    PSD weights subject to the exact unit constraint at index 0, by ADMM
    splitting between the PSD cone (psd_project blockwise) and the
    constrained least-squares step.  That step only moves the part of
    z - u in the row space of the moment and mass maps [A; C], so it is
    solved once, as an affine map, in the coordinates of an orthonormal
    basis of that row space (Boyd et al. 2011, sec. 4.2.4); an iteration
    costs three small matrix-vector products.  Raises Infeasible when
    the residual stays above fit_tol at the iteration cap; atoms whose
    fitted weight is below _PRUNE_TOL are dropped.  ``seed`` draws the
    initial weights.
    """
    if not grid:
        raise GridEmptyError("empty atom grid")
    d = targets.dim
    a_mat, t_vec, c_mat, c_vec = _fit_system(targets, grid)
    ncols = a_mat.shape[1]
    sizes = np.array([a.block_size(d) for a in grid])
    # every (kind, block size) group is one batched eigh in the projection
    groups = list(_atom_groups(grid, d))

    # the rows of Q are an orthonormal basis of the row space of [A; C].
    # With w = Q v the x-step is x = v + Q^T (y - w), where y solves the
    # constrained least squares in the k coordinates of the basis,
    # min |A_q y - t|^2 + rho |y - w|^2 subject to C_q y = c.
    s, basis = _svd(np.vstack([a_mat, c_mat]), full_matrices=False)
    basis = basis[:np.count_nonzero(s > 1e-12 * s[0])]
    k = basis.shape[0]
    a_q, c_q = a_mat @ basis.T, c_mat @ basis.T
    gram = a_q.T @ a_q
    # y - w is the KKT solve of [-A_q^T A_q w + A_q^T t; -C_q w + c]:
    # these are the right-hand sides of its w part and its constant part
    rhs = np.zeros((k + d * d, k + 1))
    rhs[:k, :k] = -gram
    rhs[k:, :k] = -c_q
    rhs[:k, k] = a_q.T @ t_vec
    rhs[k:, k] = c_vec
    rho = _RHO

    def factor(rho_val):
        """The step y - w = G w + y0 as the pair (G, y0)."""
        kkt = np.zeros((k + d * d, k + d * d))
        kkt[:k, :k] = gram + rho_val * np.eye(k)
        kkt[:k, k:] = c_q.T
        kkt[k:, :k] = c_q
        sol = np.linalg.solve(kkt, rhs)[:k]
        return sol[:, :k], sol[:, k]

    g_mat, y0 = factor(rho)
    # each weight starts at a random multiple of hvec(I_m), which is
    # C^T hvec(I_d) block by block
    weights = (0.5 + 0.5 * np.random.default_rng(seed).random(len(grid))) / len(grid)
    z = np.repeat(weights, sizes ** 2) * (c_mat.T @ c_vec)
    u = np.zeros(ncols)

    def project_blocks(v):
        out = np.empty_like(v)
        for _, m, _, cols in groups:
            phi = _herm_to_cvec(m)  # hvec coordinates to raveled matrices
            blocks = psd_project((v[cols].reshape(-1, m * m) @ phi.T).reshape(-1, m, m))
            out[cols] = (blocks.reshape(-1, m * m) @ phi.conj()).real.reshape(-1)
        return out

    fit_tol = tol.fit_tol
    for it in range(1, _MAX_ITER + 1):
        v = z - u
        x = v + basis.T @ (g_mat @ (basis @ v) + y0)
        z_old = z
        z = project_blocks(x + u)
        u = u + x - z
        if it % _CHECK_EVERY == 0 or it == _MAX_ITER:
            resid = float(np.linalg.norm(a_mat @ z - t_vec))
            unit_def = float(np.linalg.norm(c_mat @ z - c_vec))
            if resid <= 0.9 * fit_tol and unit_def <= 1e-9:
                break
            r_primal = float(np.linalg.norm(x - z))
            r_dual = rho * float(np.linalg.norm(z - z_old))
            if it % (_CHECK_EVERY * 8) == 0:
                if r_primal > 10.0 * r_dual and rho < 1e4:
                    rho *= 2.0
                    u = u / 2.0
                    g_mat, y0 = factor(rho)
                elif r_dual > 10.0 * r_primal and rho > 1e-4:
                    rho /= 2.0
                    u = u * 2.0
                    g_mat, y0 = factor(rho)

    resid = float(np.linalg.norm(a_mat @ z - t_vec))
    unit_def = float(np.linalg.norm(c_mat @ z - c_vec))
    if resid > fit_tol or unit_def > 1e-8:
        raise InfeasibleError(
            f"fit residual {resid:.6e} (unit defect {unit_def:.1e}) "
            f"did not reach fit_tol {fit_tol:.1e} within {_MAX_ITER} iterations",
            residual=resid,
        )
    blocks = np.split(z, np.cumsum(sizes ** 2)[:-1])
    atoms = [a.with_weight(hunvec(v, m)) for a, v, m in zip(grid, blocks, sizes)]
    mu = AtomicMeasure(dim=d, atoms=atoms, defect=unit_def, fit_residual=resid,
                       index_rule=targets.index_rule)
    return mu.pruned(_PRUNE_TOL)


def assemble_atomic_dilation(mu: AtomicMeasure, indices=None,
                             tol: Tolerances = DEFAULT_TOL) -> Dilation:
    """Build the explicit dilation carried by an atomic measure.

    Point atoms contribute rank(P_j) dimensions each: factor
    P_j = F_j* F_j, stack the F_j into the isometry V, and take
    block-diagonal scalar generators z_{j,i} I.  Irrep atoms contribute
    one b-dimensional block per rank-one piece of the Choi weight, with
    the generator images on the diagonal.  Compressions V* w V then equal
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
        # one group: z_{j,i} I on the rows of atom j, zero between atoms
        same = owner[:, None] == owner[None, :]
        gens = [np.where(same, z[:, None] * np.eye(space), 0) for z in images[0].T]
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
        for j, coords, own in zip(pos.tolist(), parts,
                                  np.split(pieces, np.cumsum(counts)[:-1])):
            point = MatrixPoint(coords=list(coords.reshape(-1, *words.shape[2:])),
                                selfadjoint=True, label=j)
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
        for j, wj in zip(pos, herm_part(acc)):
            atoms[j] = atoms[j].with_weight(wj)
    return replace(mu, atoms=atoms)
