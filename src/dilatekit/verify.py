"""Independent checks of dilation output against its moment data.

Everything here recomputes defects from scratch (isometry, generator
structure, declared relations, per-index moment residuals); nothing is
trusted from the construction that produced the dilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, _csr_if_sparse, _frobenius
from .moments import Dilation, MomentTable, _word_walk

__all__ = [
    "Relations",
    "VerificationReport",
    "DimensionReport",
    "verify_dilation",
    "dimension_report",
]


@dataclass
class Relations:
    """Declared structure of the generator tuple.

    ``scale_pairs`` entries (i, j, q) assert G_j G_i = q G_i G_j; the
    ``unitary`` flag switches the generator check between unitarity and
    normality; ``negatives`` says whether negative index entries denote
    conjugate functions ("adjoint", the conjugate-closed reading) or
    honest inverse powers ("inverse", annulus data).
    """

    rule: str = "laurent"
    unitary: bool = True
    negatives: str = "adjoint"
    scale_pairs: list = field(default_factory=list)

    @classmethod
    def commuting(cls, nu: int, unitary: bool = True,
                  negatives: str = "adjoint") -> "Relations":
        pairs = [(i, j, 1.0 + 0.0j) for i in range(nu) for j in range(i + 1, nu)]
        return cls(rule="laurent", unitary=unitary, negatives=negatives,
                   scale_pairs=pairs)

    @classmethod
    def exchange_pair(cls, q: complex) -> "Relations":
        return cls(rule="ordered", unitary=True, scale_pairs=[(0, 1, complex(q))])


@dataclass
class VerificationReport:
    isometry_defect: float
    generator_defects: list
    relation_defects: list
    moment_residuals: dict
    max_moment_residual: float
    moment_tol: float
    structure_tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "isometry_defect": self.isometry_defect,
            "generator_defects": list(self.generator_defects),
            "relation_defects": list(self.relation_defects),
            "moment_residuals": {
                ",".join(str(i) for i in idx): v
                for idx, v in sorted(self.moment_residuals.items())
            },
            "max_moment_residual": self.max_moment_residual,
            "moment_tol": self.moment_tol,
            "structure_tol": self.structure_tol,
            "passed": self.passed,
        }


def verify_dilation(dil: Dilation, targets: MomentTable,
                    relations: Relations | None = None,
                    tol: Tolerances = DEFAULT_TOL,
                    moment_tol: float | None = None) -> VerificationReport:
    """Recompute every defect of a dilation against its moment table.

    Checks: V is an isometry; each generator is unitary (or normal);
    declared exchange relations hold; and V* w(G) V matches each stored
    moment.  The columns w(G) V come from one walk of the table's index
    lattice, W_n = B W_n' with B the leftmost factor of the word, so no
    K x K word is formed.  Structural defects are held to 1e-10, moment
    residuals to ``moment_tol`` (default residual_tol).

    Mirrored words.  Where the word at -n is by definition the adjoint
    of the word at n (one generator read with adjoint negatives, or the
    "ordered" rule, see word_image), and n is in the table too, the
    compression at -n is taken as (V* w(n) V)* instead of walked.  That
    is an identity of the word semantics, not of the construction.
    Laurent indices of two or more generators, inverse negatives and a
    -n whose mirror is not in the table are walked.  The compressions
    are stacked, and all residual norms are taken as one norm.

    Sparse generators.  A generator with K >= 128 and at most K^2 / 16
    nonzero entries (linalg._csr_if_sparse), such as the rho = 1 circle
    unitary from K = 136 on, is copied to CSR from the matrix given, and
    its unitarity or normality defect, the scale-pair relation defects
    and the word walk run on its nonzeros.  An inverse negative is taken
    from the dense matrix.  Every other generator is used dense as
    given.
    """
    if relations is None:
        relations = Relations.commuting(targets.nu, unitary=True)
    if moment_tol is None:
        moment_tol = tol.residual_tol
    v = dil.v
    gens = [_csr_if_sparse(g) for g in dil.generators]
    vh = v.conj().T
    iso = float(np.linalg.norm(vh @ v - np.eye(targets.dim)))
    gen_defects = [_frobenius(g.conj().T @ g - (
        _identity_like(g) if relations.unitary else g @ g.conj().T))
        for g in gens]
    rel_defects = [_frobenius(gens[j] @ gens[i] - q * (gens[i] @ gens[j]))
                   for i, j, q in relations.scale_pairs]
    indices = targets.indices()
    mirror = _mirrors(indices, len(gens), relations)
    walk = [idx for idx in indices if idx not in mirror]
    walked = np.stack([vh @ w for w in _word_walk(walk, gens, relations.rule,
                                                  relations.negatives, v)])
    row = {idx: k for k, idx in enumerate(walk)}
    comps = walked[[row[mirror.get(idx, idx)] for idx in indices]]
    flip = [k for k, idx in enumerate(indices) if idx in mirror]
    comps[flip] = np.swapaxes(comps[flip].conj(), -1, -2)
    gap = comps - np.stack([targets.values[idx] for idx in indices])
    with np.errstate(over="ignore", invalid="ignore"):  # as the BLAS norm: inf, silently
        residuals = dict(zip(indices, np.linalg.norm(gap, axis=(1, 2)).tolist()))
    worst = max(residuals.values())
    structure_tol = 1e-10
    passed = (
        iso <= structure_tol
        and all(gd <= structure_tol for gd in gen_defects)
        and all(rd <= structure_tol for rd in rel_defects)
        and worst <= moment_tol
    )
    return VerificationReport(
        isometry_defect=iso,
        generator_defects=gen_defects,
        relation_defects=rel_defects,
        moment_residuals=residuals,
        max_moment_residual=worst,
        moment_tol=float(moment_tol),
        structure_tol=structure_tol,
        passed=bool(passed),
    )


def _identity_like(g):
    """The identity of g's size, sparse when g is."""
    if isinstance(g, np.ndarray):
        return np.eye(g.shape[0])
    import scipy.sparse

    return scipy.sparse.eye_array(g.shape[0], format="csr")


def _mirrors(indices, nu: int, relations: Relations) -> dict:
    """{-n: n} for each -n in ``indices`` whose word is the adjoint of
    the word at n, an index in ``indices`` too."""
    if not (relations.rule == "ordered"
            or (nu == 1 and relations.negatives == "adjoint")):
        return {}
    present = set(indices)
    out = {}
    for idx in indices:
        pos = tuple(-i for i in idx)
        if max(idx) <= 0 < max(pos) and pos in present:
            out[idx] = pos
    return out


@dataclass
class DimensionReport:
    space_dim: int
    bound: int
    slack: int
    ok: bool

    @classmethod
    def against(cls, dil: Dilation, bound: int) -> "DimensionReport":
        """The dilation space held to ``bound``; slack is bound minus K."""
        slack = bound - dil.space_dim
        return cls(space_dim=dil.space_dim, bound=bound, slack=slack, ok=slack >= 0)

    def to_dict(self) -> dict:
        return {"space_dim": self.space_dim, "bound": self.bound,
                "slack": self.slack, "ok": self.ok}


def dimension_report(dil: Dilation, dim_h: int, dim_s: int,
                     sub_rank: int = 1) -> DimensionReport:
    """Compare the dilation space against the reduction's own bound.

    For moment data on a dim_s-dimensional operator system, compressed to
    C^{dim_h}, the Caratheodory reduction leaves at most dim_h^2 * dim_s
    terms (n^2 (2 c + 1) for c canonical indices), and each term is an
    atom of at most ``sub_rank`` dimensions, so the constructed space
    never needs more than

        sub_rank * dim_h^2 * dim_s

    dimensions.  Slack is bound minus the actual space dimension.
    """
    return DimensionReport.against(dil, int(sub_rank * dim_h ** 2 * dim_s))
