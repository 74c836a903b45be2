import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
    Tolerances,
)
from dilatekit.linalg import _norm

from conftest import complex_gaussian, random_psd


def test_asmatrix_coercion_and_rejection():
    m = dk.asmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    # non-contiguous views must be accepted (transposes arise in moment tables)
    base = np.arange(6, dtype=np.complex128).reshape(2, 3)
    assert dk.asmatrix(base.T).shape == (3, 2)
    with pytest.raises(ShapeMismatchError):
        dk.asmatrix(np.array([1.0, 2.0]))
    with pytest.raises(ShapeMismatchError):
        dk.asmatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatchError):
        dk.asmatrix(np.array([[np.inf * 1j, 0.0], [0.0, 1.0]]))


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank_tol=1e-3, psd_tol=1e-9)
    # non-finite fields are refused too, not carried into a run
    for bad in ({"fit_tol": float("inf")}, {"residual_tol": float("nan")},
                {"psd_tol": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(**bad)
    t = Tolerances().replace(residual_tol=1e-6)
    assert t.residual_tol == 1e-6
    assert dk.DEFAULT_TOL.residual_tol == 1e-8


def test_herm_eig_reconstruction_up_to_64():
    rng = np.random.default_rng(3)
    for d in (2, 8, 33, 64):
        a = complex_gaussian(rng, (d, d))
        a = 0.5 * (a + a.conj().T)
        lam, q = dk.herm_eig(a)
        rec = (q * lam) @ q.conj().T
        assert np.linalg.norm(rec - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.all(np.diff(lam) >= 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        dk.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_project_frozen():
    out = dk.psd_project(np.diag([1.0, -1.0]))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)
    out = dk.psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-14)


def test_psd_project_distance_is_clipped_tail():
    rng = np.random.default_rng(5)
    for d in (2, 5, 11):
        a = complex_gaussian(rng, (d, d))
        a = 0.5 * (a + a.conj().T)
        p = dk.psd_project(a)
        lam = np.linalg.eigvalsh(a)
        clipped = np.linalg.norm(np.minimum(lam, 0.0))
        assert abs(np.linalg.norm(p - a) - clipped) <= 1e-12 * max(1.0, clipped)
        assert np.linalg.eigvalsh(p)[0] >= -1e-14 * np.linalg.norm(a)


def test_numerical_rank_factor_reconstruction():
    rng = np.random.default_rng(7)
    for d, r in ((3, 1), (5, 3), (8, 8)):
        m = random_psd(rng, d, rank=r)
        w, rank = dk.numerical_rank_factor(m)
        assert rank == r
        assert w.shape == (r, d)
        err = np.linalg.norm(w.conj().T @ w - m)
        assert err <= 10 * dk.DEFAULT_TOL.rank_tol * np.linalg.norm(m)


def test_numerical_rank_factor_rejects_indefinite():
    with pytest.raises(NotPSDError) as exc:
        dk.numerical_rank_factor(np.diag([1.0, -0.5]))
    assert exc.value.min_eig < -1e-6


def test_numerical_rank_factor_bit_deterministic():
    rng = np.random.default_rng(9)
    m = random_psd(rng, 6, rank=4)
    w1, _ = dk.numerical_rank_factor(m)
    w2, _ = dk.numerical_rank_factor(m.copy())
    assert w1.tobytes() == w2.tobytes()


def test_inv_sqrt_psd():
    rng = np.random.default_rng(13)
    s = random_psd(rng, 4) + 0.1 * np.eye(4)
    c = dk.inv_sqrt_psd(s)
    assert np.linalg.norm(c @ s @ c - np.eye(4)) <= 1e-10
    # strictly positive definite input is part of the contract
    g = complex_gaussian(rng, (4, 2))
    with pytest.raises(NotPSDError):
        dk.inv_sqrt_psd(g @ g.conj().T)


def test_hvec_roundtrip_isometry():
    rng = np.random.default_rng(19)
    for d in (1, 3, 6):
        a = complex_gaussian(rng, (d, d))
        h = 0.5 * (a + a.conj().T)
        v = dk.hvec(h)
        assert v.dtype == np.float64 and v.size == d * d
        assert abs(np.linalg.norm(v) - np.linalg.norm(h)) <= 1e-13
        assert np.linalg.norm(dk.hunvec(v, d) - h) <= 1e-14


def loop_hvec(h):
    """Per-entry reference for the hvec layout."""
    n = h.shape[0]
    out = [h[p, p].real for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            out += [np.sqrt(2.0) * h[p, q].real, np.sqrt(2.0) * h[p, q].imag]
    return np.array(out)


def test_hvec_stacked_matches_per_matrix():
    rng = np.random.default_rng(61)
    for d in (1, 2, 4):
        a = complex_gaussian(rng, (5, 2, d, d))
        h = 0.5 * (a + np.swapaxes(a.conj(), -1, -2))
        v = dk.hvec(h)
        assert v.shape == (5, 2, d * d)
        back = dk.hunvec(v, d)
        assert back.shape == h.shape
        assert np.linalg.norm(back - h) <= 1e-14
        for i in range(5):
            for j in range(2):
                ref = loop_hvec(h[i, j])
                assert v[i, j].tobytes() == ref.tobytes()
                assert dk.hvec(h[i, j]).tobytes() == ref.tobytes()
                assert dk.hunvec(ref, d).tobytes() == back[i, j].tobytes()


def test_norm_keeps_finite_bits_and_scales_overflow():
    rng = np.random.default_rng(67)
    for a in (complex_gaussian(rng, (4, 3)), rng.normal(size=7), np.zeros((2, 2))):
        assert _norm(a) == float(np.linalg.norm(a))
    big = np.full((2, 2), 3e200 + 4e200j)
    assert _norm(big) == pytest.approx(1e201)
    assert _norm(np.array([1e200, -1e200])) == pytest.approx(np.sqrt(2.0) * 1e200)
    assert np.isnan(_norm(np.array([np.nan, 1e200])))
    assert _norm(np.array([np.inf, 1.0])) == np.inf
