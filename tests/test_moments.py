import numpy as np
import pytest

import dilatekit as dk
from dilatekit import DimensionMismatchError, NotCommutingError, NotPSDError

from conftest import random_contraction, random_unitary


def compression_residual(dil, table, indices, negatives="adjoint",
                         rule="laurent"):
    worst = 0.0
    for idx in indices:
        w = dk.word_image(idx, dil.generators, rule=rule, negatives=negatives)
        worst = max(worst, np.linalg.norm(dil.compress(w) - table.value(idx)))
    return worst


def test_schaffer_scalar_oracle():
    """Scalar contraction, one prescribed moment: the classical 2x2 dilation.

    The explicit completion [[t, s], [s, -t]] with s = sqrt(1 - t^2) is
    the oracle; our factor-space construction must agree up to a unitary
    change of basis, i.e. in compressions and spectrum.
    """
    t = 0.5
    s = np.sqrt(1.0 - t * t)
    oracle = np.array([[t, s], [s, -t]])
    assert np.linalg.norm(oracle.conj().T @ oracle - np.eye(2)) <= 1e-15

    table = dk.circle_moments(np.array([[t]]), rho=1.0, n_max=1)
    dil = dk.toeplitz_gns_unitary(table)
    u = dil.generators[0]
    assert dil.space_dim == 2
    assert abs(dil.compress(u)[0, 0] - t) <= 1e-12
    got = np.sort(np.linalg.eigvals(u))
    want = np.sort(np.linalg.eigvals(oracle))
    assert np.allclose(got, want, atol=1e-12)


def test_toeplitz_kernel_frozen_scalar():
    table = dk.circle_moments(np.array([[0.5]]), rho=1.0, n_max=1)
    m = dk.toeplitz_kernel(table)
    assert np.allclose(m, np.array([[1.0, 0.5], [0.5, 1.0]]), atol=1e-15)


def test_circle_moments_values():
    rng = np.random.default_rng(53)
    t = random_contraction(rng, 3, norm=0.8)
    table = dk.circle_moments(t, rho=2.0, n_max=3)
    assert table.dim == 3 and table.nu == 1 and table.symmetric
    assert np.allclose(table.value((0,)), np.eye(3))
    assert np.allclose(table.value((2,)), t @ t / 2.0)
    # conjugate-closed fill: negative indices read as adjoints
    assert np.allclose(table.value((-2,)), (t @ t).conj().T / 2.0)
    assert table.order() == 3


def test_regular_moments_and_commuting_gate():
    rng = np.random.default_rng(59)
    u = random_unitary(rng, 3)
    a = u @ np.diag([0.5, 0.4j, -0.3]) @ u.conj().T
    b = u @ np.diag([0.2, 0.6, 0.1j]) @ u.conj().T
    table = dk.regular_moments([a, b], 2)
    assert table.nu == 2
    for idx in table.indices():
        w = dk.word_image(idx, [a, b], rule="laurent", negatives="adjoint")
        assert np.linalg.norm(table.value(idx) - w) <= 1e-12
    with pytest.raises(NotCommutingError):
        dk.regular_moments([np.diag([1.0, 2.0]),
                            np.array([[0.0, 1.0], [0.0, 0.0]])], 1)


def test_qcommuting_moments_index_set():
    t1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    t2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    table = dk.qcommuting_moments(t1, t2, 1)
    assert table.index_rule == "ordered"
    idx = set(table.indices())
    assert (1, 1) in idx and (0, 1) in idx and (1, 0) in idx
    # ordered words only come in T1^n T2^m and mirrored adjoint form
    assert all((n >= 0 and m >= 0) or (n <= 0 and m <= 0) for n, m in idx)
    assert np.allclose(table.value((1, 1)), t1 @ t2)
    # mirror entries are the stored adjoints
    assert np.allclose(table.value((-1, -1)), (t1 @ t2).conj().T)


def test_laurent_moments_honest_inverses():
    z = 0.5 * np.exp(0.7j)
    t = np.array([[z]])
    table = dk.laurent_moments(t, 2)
    assert not table.symmetric
    assert abs(table.value((-1,))[0, 0] - 1.0 / z) <= 1e-15
    assert abs(table.value((-2,))[0, 0] - 1.0 / z ** 2) <= 1e-15
    # the conjugate reading would differ by |z|^{-2k}; make sure it is not that
    assert abs(table.value((-1,))[0, 0] - np.conj(z)) > 1.0


def test_gns_property_suite():
    rng = np.random.default_rng(61)
    for _ in range(12):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        t = random_contraction(rng, d, norm=float(rng.uniform(0.2, 1.0)))
        table = dk.circle_moments(t, 1.0, n)
        dil = dk.toeplitz_gns_unitary(table)
        u = dil.generators[0]
        assert dil.space_dim <= (n + 1) * d
        assert np.linalg.norm(u.conj().T @ u
                              - np.eye(dil.space_dim)) <= 1e-10
        assert np.linalg.norm(dil.v.conj().T @ dil.v - np.eye(d)) <= 1e-10
        res = compression_residual(dil, table, table.indices())
        assert res <= 1e-8
        assert dil.provenance == "gns"
        assert "shift_isometry" in dil.residuals


def test_gns_psd_gate():
    rng = np.random.default_rng(67)
    t = random_contraction(rng, 2, norm=1.2)
    with pytest.raises(NotPSDError) as exc:
        dk.toeplitz_gns_unitary(dk.circle_moments(t, 1.0, 1))
    assert exc.value.min_eig < -1e-6


def test_word_image_semantics():
    g = np.array([[0.5, 0.1], [0.0, 2.0]])  # invertible, far from unitary
    adj = dk.word_image((-1,), [g], rule="laurent", negatives="adjoint")
    inv = dk.word_image((-1,), [g], rule="laurent", negatives="inverse")
    assert np.allclose(adj, g.conj().T)
    assert np.allclose(inv, np.linalg.inv(g))
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.diag([1.0, -1.0])
    w = dk.word_image((1, 2), [a, b], rule="ordered")
    assert np.allclose(w, a @ b @ b)
    # an index names one power per generator, no more and no fewer
    for rule in ("laurent", "ordered"):
        with pytest.raises(DimensionMismatchError):
            dk.word_image((1, 2), [np.eye(2)], rule=rule)
        with pytest.raises(DimensionMismatchError):
            dk.word_image((1,), [a, b], rule=rule)


def test_moment_table_api():
    table = dk.MomentTable(dim=2, nu=1, values={(1,): np.eye(2) * 0.5})
    assert np.allclose(table.value((0,)), np.eye(2))
    assert np.allclose(table.value((-1,)), np.eye(2) * 0.5)
    with pytest.raises(KeyError):
        table.value((3,))
    assert table.indices() == sorted(table.values.keys())


def test_dilation_compress():
    v = np.array([[1.0], [0.0]])
    gen = np.diag([2.0, 3.0])
    dil = dk.Dilation(v=v, generators=[gen], space_dim=2, provenance="test")
    assert dil.compress(gen)[0, 0] == pytest.approx(2.0)
