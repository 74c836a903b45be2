import itertools

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import linalg, verify
from dilatekit.cli import main
from dilatekit.io import dump_json, encode_dilation, encode_table
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
    assert rep.bound == 2 * 4 * 7 == 56
    assert rep.slack == 46 and rep.ok
    tight = dk.dimension_report(dil, dim_h=1, dim_s=3)
    assert tight.bound == 3 and tight.slack == -7 and not tight.ok


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


def _dense_and_csr(monkeypatch, dil, table, relations):
    """verify_dilation's report with every generator used dense, then
    with every generator walked through CSR."""
    monkeypatch.setattr(linalg, "_CSR_MIN_DIM", 10 ** 9)
    dense = dk.verify_dilation(dil, table, relations)
    monkeypatch.setattr(linalg, "_CSR_MIN_DIM", 1)
    monkeypatch.setattr(linalg, "_CSR_MAX_FILL", 1)
    assert not any(isinstance(linalg._csr_if_sparse(g), np.ndarray) for g in dil.generators)
    sparse = dk.verify_dilation(dil, table, relations)
    monkeypatch.undo()
    return dense, sparse


def _assert_reports_agree(a, b, tol=1e-14):
    assert a.passed == b.passed
    assert a.moment_residuals.keys() == b.moment_residuals.keys()
    pairs = [(a.isometry_defect, b.isometry_defect),
             *zip(a.generator_defects, b.generator_defects),
             *zip(a.relation_defects, b.relation_defects),
             *((a.moment_residuals[i], b.moment_residuals[i]) for i in a.moment_residuals)]
    assert len(a.generator_defects) == len(b.generator_defects)
    assert len(a.relation_defects) == len(b.relation_defects)
    assert max(abs(x - y) for x, y in pairs) <= tol


def test_csr_rule_takes_only_large_sparse_complex_matrices():
    """The rule: K >= _CSR_MIN_DIM and at most K^2 / _CSR_MAX_FILL
    nonzero entries, on a square complex128 matrix; the CSR copy holds
    the same numbers, a signed zero counting as zero."""
    k = linalg._CSR_MIN_DIM
    shift = np.roll(np.eye(k, dtype=complex), 1, axis=0)
    shift[0, 0] = 1e-300j
    shift[1, 1] = -0.0
    csr = linalg._csr_if_sparse(shift)
    assert not isinstance(csr, np.ndarray) and csr.nnz == k + 1
    assert np.array_equal(csr.toarray(), shift)
    small = shift[1:, 1:].copy()
    assert linalg._csr_if_sparse(small) is small
    real = shift.real.copy()
    assert linalg._csr_if_sparse(real) is real
    dense = shift.copy()
    dense[:, :k // linalg._CSR_MAX_FILL] = 1.0
    assert linalg._csr_if_sparse(dense) is dense
    fortran = np.asfortranarray(shift)
    assert np.array_equal(linalg._csr_if_sparse(fortran).toarray(), shift)


def _gns_at(d, order, rho):
    t = random_contraction(np.random.default_rng([31, d, order, int(rho)]), d, norm=0.9)
    table = dk.circle_moments(t, rho, order)
    return dk.toeplitz_gns_unitary(table), table


@pytest.mark.parametrize("order,rho", [(16, 1.0), (32, 1.0), (16, 2.0), (32, 2.0)])
def test_csr_and_dense_reports_agree(monkeypatch, order, rho):
    """At K = 136 and K = 264, for rho = 1 and rho = 2 data alike, the
    report walked through CSR equals the dense one to 1e-14."""
    dil, table = _gns_at(8, order, rho)
    assert dil.space_dim == (order + 1) * 8
    u = dil.generators[0]  # rho = 2 unitaries are dense for the rule
    assert isinstance(linalg._csr_if_sparse(u), np.ndarray) == (rho == 2.0)
    dense, sparse = _dense_and_csr(monkeypatch, dil, table, dk.Relations.commuting(1))
    assert dense.passed
    _assert_reports_agree(dense, sparse)


def test_csr_pair_walks_adjoints_and_relation_defects(monkeypatch):
    """Two sparse generators, the K = 136 rho = 1 unitary and a diagonal
    of phases, which do not commute: the walk of Laurent words in both,
    negative ones through the CSR adjoint, the normality defects and the
    false commuting relation give the dense report, the relation defect
    to 1e-14 relative."""
    dil, _ = _gns_at(8, 16, 1.0)
    u = dil.generators[0]
    phases = np.diag(np.exp(2j * np.pi * np.random.default_rng(239).random(len(u))))
    gens = [u, phases]
    indices = [idx for idx in itertools.product(range(-2, 3), repeat=2) if any(idx)]
    table = dk.MomentTable(dim=8, nu=2, symmetric=False, values={
        idx: dil.compress(dk.word_image(idx, gens)) for idx in indices})
    pair = dk.Dilation(v=dil.v, generators=gens, space_dim=len(u), provenance="test")
    relations = dk.Relations.commuting(2, unitary=False)
    dense, sparse = _dense_and_csr(monkeypatch, pair, table, relations)
    assert dense.max_moment_residual <= 1e-13 and dense.relation_defects[0] > 1.0
    rel = dense.relation_defects[0]
    assert abs(sparse.relation_defects[0] - rel) <= 1e-14 * rel
    sparse.relation_defects = dense.relation_defects
    _assert_reports_agree(dense, sparse)


def test_csr_verify_catches_a_broken_unitary(monkeypatch):
    """One structural zero of the K = 264 rho = 1 unitary set to 1e-6:
    the rule still takes the CSR path, and verify fails there as it does
    dense, with the same defects."""
    dil, table = _gns_at(8, 32, 1.0)
    u = dil.generators[0]
    assert not isinstance(linalg._csr_if_sparse(u), np.ndarray)
    assert u[-1, 0] == 0
    u[-1, 0] = 1e-6
    assert not isinstance(linalg._csr_if_sparse(u), np.ndarray)
    sparse = dk.verify_dilation(dil, table, dk.Relations.commuting(1))
    dense, _ = _dense_and_csr(monkeypatch, dil, table, dk.Relations.commuting(1))
    assert not sparse.passed and not dense.passed
    assert sparse.generator_defects[0] > 1e-6
    _assert_reports_agree(dense, sparse)


def test_inverse_negatives_above_the_cutoff(monkeypatch, tmp_path, capsys):
    """Normal d = 8 annulus data, drawn as the benchmark's interior
    annulus case draws them (default_rng([7, 8]), r = 0.5, order 2, 32
    nodes), give a diagonal generator of K = 73, on the one BLAS thread
    that conftest pins (the reduction's rank follows roundoff).  With the
    cutoff lowered to 64, so that the generator takes the CSR path,
    verify reads the inverse negatives from the dense matrix: the case
    passes, its residuals are the dense path's to 1e-14, and the CLI
    exits 0 on its bundle.  A singular generator still exits 3 with the
    dense path's message."""
    d, rng = 8, np.random.default_rng([7, 8])
    w, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    spectrum = rng.uniform(0.6, 0.9, size=d) * np.exp(2j * np.pi * rng.random(d))
    result = dk.dilate_annulus(w @ np.diag(spectrum) @ w.conj().T, 0.5, order=2, nodes=32)
    dil, table = result.dilation, result.targets
    n = dil.generators[0]
    assert result.passed and dil.space_dim >= 64
    assert np.array_equal(n, np.diag(np.diag(n)))
    relations = dk.Relations(rule="laurent", unitary=False, negatives="inverse")
    dense = dk.verify_dilation(dil, table, relations)
    monkeypatch.setattr(linalg, "_CSR_MIN_DIM", 64)
    assert not isinstance(linalg._csr_if_sparse(n), np.ndarray)
    sparse = dk.verify_dilation(dil, table, relations)
    assert sparse.passed
    _assert_reports_agree(dense, sparse)

    def run(dilation):
        bundle = {"dilation": encode_dilation(dilation), "targets": encode_table(table),
                  "relations": {"rule": "laurent", "unitary": False, "negatives": "inverse"}}
        path = tmp_path / "bundle.json"
        path.write_text(dump_json(bundle), encoding="utf-8")
        return main(["verify", "--input", str(path)]), capsys.readouterr().err

    assert run(dil)[0] == 0
    n[0, 0] = 0.0
    code, message = run(dil)
    monkeypatch.setattr(linalg, "_CSR_MIN_DIM", 10 ** 9)
    assert code == 3 and run(dil) == (3, message)
    assert "generator 0 is singular: no inverse reading" in message
