"""Independent checks of dilation output against its moment data.

Everything here recomputes defects from scratch (isometry, generator
structure, declared relations, per-index moment residuals); nothing is
trusted from the construction that produced the dilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances
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
    """
    if relations is None:
        relations = Relations.commuting(targets.nu, unitary=True)
    if moment_tol is None:
        moment_tol = tol.residual_tol
    v, gens = dil.v, dil.generators
    iso = float(np.linalg.norm(v.conj().T @ v - np.eye(targets.dim)))
    gen_defects = [float(np.linalg.norm(g.conj().T @ g - (
        np.eye(g.shape[0]) if relations.unitary else g @ g.conj().T)))
        for g in gens]
    rel_defects = [float(np.linalg.norm(gens[j] @ gens[i] - q * (gens[i] @ gens[j])))
                   for i, j, q in relations.scale_pairs]
    words = _word_walk(targets.indices(), gens, relations.rule, relations.negatives, v)
    residuals = {idx: float(np.linalg.norm(v.conj().T @ w - targets.value(idx)))
                 for idx, w in zip(targets.indices(), words)}
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


@dataclass
class DimensionReport:
    space_dim: int
    bound: int
    slack: int
    ok: bool

    def to_dict(self) -> dict:
        return {"space_dim": self.space_dim, "bound": self.bound,
                "slack": self.slack, "ok": self.ok}


def dimension_report(dil: Dilation, dim_h: int, dim_s: int,
                     sub_rank: int = 1) -> DimensionReport:
    """Compare the dilation space against the subhomogeneity bound.

    For moment data on a dim_s-dimensional operator system, compressed to
    C^{dim_h}, with representations of subhomogeneity rank ``sub_rank``,
    the constructed space never needs more than

        sub_rank^2 * dim_h^3 * (dim_s + 1)

    dimensions.  Slack is bound minus the actual space dimension.
    """
    bound = int(sub_rank ** 2 * dim_h ** 3 * (dim_s + 1))
    slack = bound - dil.space_dim
    return DimensionReport(space_dim=dil.space_dim, bound=bound,
                           slack=slack, ok=slack >= 0)
