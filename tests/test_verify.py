import numpy as np
import pytest

import dilatekit as dk
from dilatekit import verify
from dilatekit.moments import _word_walk

from conftest import random_contraction, random_unitary


def gns_fixture(seed=113, d=2, order=2):
    rng = np.random.default_rng(seed)
    t = random_contraction(rng, d, norm=0.7)
    table = dk.circle_moments(t, 1.0, order)
    return dk.toeplitz_gns_unitary(table), table


def test_verify_passes_on_gns():
    dil, table = gns_fixture()
    rep = dk.verify_dilation(dil, table, dk.Relations.commuting(1))
    assert rep.passed
    assert rep.isometry_defect <= 1e-12
    assert rep.max_moment_residual <= rep.moment_tol
    assert set(rep.moment_residuals) == set(table.indices())


def test_verify_flags_broken_generator():
    dil, table = gns_fixture()
    dil.generators[0] = dil.generators[0] * 1.01  # no longer unitary
    rep = dk.verify_dilation(dil, table, dk.Relations.commuting(1))
    assert not rep.passed
    assert rep.generator_defects[0] > 1e-3


def test_verify_flags_broken_isometry():
    dil, table = gns_fixture()
    dil.v = dil.v * 0.9
    rep = dk.verify_dilation(dil, table, dk.Relations.commuting(1))
    assert not rep.passed
    assert rep.isometry_defect > 0.01


def test_verify_flags_moment_mismatch():
    dil, table = gns_fixture()
    bad = {idx: v.copy() for idx, v in table.values.items()
           if idx[0] > 0}
    bad[(1,)] = bad[(1,)] + 0.05
    wrong = dk.MomentTable(dim=table.dim, nu=1, values=bad)
    rep = dk.verify_dilation(dil, wrong, dk.Relations.commuting(1))
    assert not rep.passed
    assert rep.max_moment_residual > 0.01


def test_verify_relation_defect():
    u1 = np.diag([1.0, -1.0]).astype(complex)
    u2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    v = np.eye(2, dtype=complex)
    values = {(1, 0): u1, (0, 1): u2, (1, 1): u1 @ u2}
    table = dk.MomentTable(dim=2, nu=2, values=values, index_rule="ordered")
    dil = dk.Dilation(v=v, generators=[u1, u2], space_dim=2,
                      provenance="test")
    # the pair anticommutes, so q = -1 passes and q = +1 does not
    good = dk.verify_dilation(dil, table, dk.Relations.exchange_pair(-1.0))
    assert good.passed and max(good.relation_defects) <= 1e-12
    bad = dk.verify_dilation(dil, table, dk.Relations.exchange_pair(1.0))
    assert not bad.passed and max(bad.relation_defects) > 1.0


def test_verify_negative_index_semantics():
    # one-atom dilation at z = 0.5: inverse powers differ from adjoints
    n = np.array([[0.5]], dtype=complex)
    dil = dk.Dilation(v=np.eye(1, dtype=complex), generators=[n],
                      space_dim=1, provenance="test")
    table = dk.laurent_moments(n, 1)
    inv = dk.verify_dilation(
        dil, table, dk.Relations(unitary=False, negatives="inverse"))
    assert inv.passed
    adj = dk.verify_dilation(
        dil, table, dk.Relations(unitary=False, negatives="adjoint"))
    assert not adj.passed
    assert adj.moment_residuals[(-1,)] > 1.0


def test_verify_normality_mode():
    n = np.diag([0.5, 2.0]).astype(complex)  # normal, far from unitary
    dil = dk.Dilation(v=np.eye(2, dtype=complex), generators=[n],
                      space_dim=2, provenance="test")
    table = dk.MomentTable(dim=2, nu=1, values={(1,): n})
    rep = dk.verify_dilation(dil, table,
                             dk.Relations(unitary=False))
    assert rep.passed
    strict = dk.verify_dilation(dil, table, dk.Relations(unitary=True))
    assert not strict.passed


def test_relations_helpers():
    r = dk.Relations.commuting(3)
    assert r.scale_pairs == [(0, 1, 1.0 + 0.0j), (0, 2, 1.0 + 0.0j),
                             (1, 2, 1.0 + 0.0j)]
    e = dk.Relations.exchange_pair(1j)
    assert e.rule == "ordered" and e.scale_pairs == [(0, 1, 1j)]


def test_dimension_report_arithmetic():
    dil = dk.Dilation(v=np.eye(2, dtype=complex),
                      generators=[np.eye(2, dtype=complex)],
                      space_dim=10, provenance="test")
    rep = dk.dimension_report(dil, dim_h=2, dim_s=7, sub_rank=2)
    assert rep.bound == 4 * 8 * 8 == 256
    assert rep.slack == 246 and rep.ok
    tight = dk.dimension_report(dil, dim_h=1, dim_s=3)
    assert tight.bound == 4 and tight.slack == -6 and not tight.ok


def test_report_dict_shapes():
    dil, table = gns_fixture()
    rep = dk.verify_dilation(dil, table, dk.Relations.commuting(1))
    d = rep.to_dict()
    assert set(d) == {"isometry_defect", "generator_defects",
                      "relation_defects", "moment_residuals",
                      "max_moment_residual", "moment_tol",
                      "structure_tol", "passed"}
    assert all(isinstance(k, str) for k in d["moment_residuals"])
    dd = dk.dimension_report(dil, 2, 5).to_dict()
    assert set(dd) == {"space_dim", "bound", "slack", "ok"}


def _walked(monkeypatch):
    """The indices verify_dilation walks, call by call."""
    seen = []

    def spy(indices, *args, **kwargs):
        seen.append(list(indices))
        return _word_walk(indices, *args, **kwargs)

    monkeypatch.setattr(verify, "_word_walk", spy)
    return seen


def _per_index_residuals(dil, table, relations):
    """Each residual from a walk of its index alone: the reference for
    the stacked and mirrored residuals."""
    out = {}
    for idx in table.indices():
        w = _word_walk([idx], dil.generators, relations.rule, relations.negatives, dil.v)[0]
        out[idx] = float(np.linalg.norm(dil.v.conj().T @ w - table.value(idx)))
    return out


def _circle_rho_2():
    t = random_contraction(np.random.default_rng(227), 3, norm=0.9)
    return dk.dilate_circle(t, order=4, rho=2.0), dk.Relations.commuting(1)


def _ordered():
    result = dk.dilate_qcommute(0.5 * np.diag([1.0, -1.0]), np.array([[0.0, 0.5], [0.0, 0.0]]),
                                a=1, b=2, order=1, nodes=4)
    return result, dk.Relations.exchange_pair(-1.0)


@pytest.mark.parametrize("build", [_circle_rho_2, _ordered], ids=["circle-rho-2", "ordered"])
def test_mirrored_residuals_match_per_index_walks(monkeypatch, build):
    """One generator read with adjoint negatives, and the ordered rule:
    no negative index is walked, and every residual, the mirrored ones
    included, equals the one a per-index walk gives, to 1e-15."""
    result, relations = build()
    dil, table = result.dilation, result.targets
    seen = _walked(monkeypatch)
    rep = dk.verify_dilation(dil, table, relations)
    assert rep.passed
    assert seen and all(min(idx) >= 0 for idx in seen[0])
    assert any(min(idx) < 0 for idx in rep.moment_residuals)
    want = _per_index_residuals(dil, table, relations)
    assert set(rep.moment_residuals) == set(want)
    for idx, res in rep.moment_residuals.items():
        assert abs(res - want[idx]) <= 1e-15


def test_noncommuting_pair_is_walked_at_minus_one_minus_one(monkeypatch):
    """Laurent words in two generators have no mirror: (-1, -1) is walked
    and matches g1* g2*, which the adjoint of the (1, 1) word would miss.
    The two non-commuting unitaries are their own dilation (V = I)."""
    rng = np.random.default_rng(229)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    values = {(1, 0): g1, (0, 1): g2, (1, 1): g1 @ g2,
              (-1, -1): g1.conj().T @ g2.conj().T}
    table = dk.MomentTable(dim=2, nu=2, values=values, symmetric=False)
    dil = dk.Dilation(v=np.eye(2, dtype=complex), generators=[g1, g2],
                      space_dim=2, provenance="test")
    relations = dk.Relations(rule="laurent", negatives="adjoint")
    seen = _walked(monkeypatch)
    rep = dk.verify_dilation(dil, table, relations)
    assert (-1, -1) in seen[0]
    assert rep.moment_residuals[(-1, -1)] <= 1e-15
    assert rep.passed
    assert np.linalg.norm((g1 @ g2).conj().T - table.value((-1, -1))) > 0.1
    want = _per_index_residuals(dil, table, relations)
    for idx, res in rep.moment_residuals.items():
        assert abs(res - want[idx]) <= 1e-15


def test_inverse_negatives_and_lone_negatives_are_walked(monkeypatch):
    """Inverse negatives are walked; so is a -n with no n in the table."""
    n = np.array([[0.5]], dtype=complex)
    dil = dk.Dilation(v=np.eye(1, dtype=complex), generators=[n],
                      space_dim=1, provenance="test")
    seen = _walked(monkeypatch)
    rep = dk.verify_dilation(dil, dk.laurent_moments(n, 2),
                             dk.Relations(unitary=False, negatives="inverse"))
    assert rep.passed and {(-2,), (-1,)} <= set(seen[-1])
    lone = dk.MomentTable(dim=1, nu=1, values={(-2,): n.conj().T @ n.conj().T},
                          symmetric=False)
    rep = dk.verify_dilation(dil, lone, dk.Relations(unitary=False))
    assert rep.passed and (-2,) in seen[-1]
