import json

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    DimensionMismatchError,
    NotCommutingError,
    NotPSDError,
    ResolventSingularError,
    ShapeMismatchError,
)
from dilatekit.io import decode_dilation, dump_json, encode_dilation
from dilatekit.moments import _word_walk

from conftest import complex_gaussian, random_contraction, random_unitary


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


@pytest.mark.parametrize("t", [
    [[0.5, 1.0], [0.0, 0.0]],  # singular: a LinAlgError from inv
    [[0.7, 0.0], [0.0, 1e-300]],  # an inverse of 1e300: infinite moments
    [[0.0, 0.0], [0.0, 0.0]],
], ids=["singular", "nearly_singular", "zero"])
def test_laurent_moments_refuse_singular_operator(t):
    """0 in the spectrum (to working precision) lies outside every annulus:
    NotContained before any inverse is taken."""
    with pytest.raises(dk.NotContainedError, match="0 lies in its spectrum"):
        dk.laurent_moments(t, 1)


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


def _unitary_plus_contraction():
    """A 2x2 unitary beside a 2x2 contraction of norm 0.9."""
    rng = np.random.default_rng(71)
    t = np.zeros((4, 4), dtype=np.complex128)
    t[:2, :2] = random_unitary(rng, 2)
    t[2:, 2:] = random_contraction(rng, 2, norm=0.9)
    return t


# (operator, rho, order, K): data whose Verblunsky coefficients reach norm
# one, or whose defects lose rank, so the CMV blocks shrink
DEGENERATE = [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 4, 6),
    (np.array([[0.0, 2.0], [0.0, 0.0]]), 2.0, 4, 6),
    (random_unitary(np.random.default_rng(73), 3), 1.0, 3, 3),
    (np.diag([1.0, 0.5]), 1.0, 3, 5),
    (np.zeros((2, 2)), 1.0, 3, 8),
    (_unitary_plus_contraction(), 1.0, 3, 10),
]


@pytest.mark.parametrize("t,rho,order,k", DEGENERATE,
                         ids=["jordan", "berger", "unitary", "diag-1-half", "zero",
                              "unitary-plus-contraction"])
def test_gns_degenerate_data(t, rho, order, k):
    """K is the numerical rank of the block Toeplitz kernel, and the
    dilation verifies, on data a full-rank recursion cannot normalize."""
    table = dk.circle_moments(t, rho, order)
    lam = np.linalg.eigvalsh(dk.toeplitz_kernel(table))
    rank = int(np.count_nonzero(lam > dk.DEFAULT_TOL.rank_tol * lam[-1]))
    result = dk.dilate_circle(t, order=order, rho=rho)
    assert result.dilation.space_dim == rank == k
    assert result.passed


def test_gns_cmv_structure_and_wire():
    """The circle unitary is five-block-diagonal with V = [I; 0], and its
    dilation round-trips the JSON wire format bit for bit (no -0.0 zeros)."""
    rng = np.random.default_rng(79)
    d = 8
    dil = dk.toeplitz_gns_unitary(dk.circle_moments(random_contraction(rng, d, 0.9), 1.0, 32))
    u, k = dil.generators[0], dil.space_dim
    assert k == 33 * d
    want_v = np.zeros((k, d))
    want_v[:d] = np.eye(d)
    assert np.array_equal(dil.v, want_v)
    assert np.count_nonzero(u) <= 4 * d * k
    text = dump_json(encode_dilation(dil))
    assert len(text.encode()) < 1_000_000
    back = decode_dilation(json.loads(text))
    assert back.v.tobytes() == dil.v.tobytes()
    assert back.generators[0].tobytes() == u.tobytes()


def test_gns_refuses_inconsistent_degenerate_data():
    """A unitary first moment fixes every later one; a table that disagrees
    is refused at the order where its kernel stops being PSD, with the
    kernel's smallest eigenvalue as the witness."""
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    table = dk.MomentTable(dim=2, nu=1, values={(1,): w, (2,): np.zeros((2, 2))})
    with pytest.raises(NotPSDError, match="order 2") as exc:
        dk.toeplitz_gns_unitary(table)
    kernel = dk.toeplitz_kernel(table)
    assert exc.value.min_eig == pytest.approx(np.linalg.eigvalsh(kernel)[0], abs=1e-12)
    assert exc.value.min_eig < -0.1


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


def _matrix_power_word(idx, generators, rule="laurent", negatives="adjoint"):
    """The word as word_image evaluated it before the lattice walk: one
    matrix_power per index entry, multiplied from the left."""
    idx = tuple(int(i) for i in np.atleast_1d(idx))
    k = generators[0].shape[-1]
    acc = np.eye(k, dtype=np.complex128)
    if rule == "laurent":
        for g, ni in zip(generators, idx):
            if ni == 0:
                continue
            base = g if ni > 0 else (
                np.swapaxes(g.conj(), -1, -2) if negatives == "adjoint"
                else np.linalg.inv(g))
            acc = acc @ np.linalg.matrix_power(base, abs(ni))
        return acc
    if all(i >= 0 for i in idx):
        for g, ni in zip(generators, idx):
            acc = acc @ np.linalg.matrix_power(g, ni)
        return acc
    for g, ni in zip(generators, idx):
        acc = acc @ np.linalg.matrix_power(g, -ni)
    return np.swapaxes(acc.conj(), -1, -2)


def _assert_walk_matches(indices, gens, rule, negatives, v=None):
    """One walk over ``indices`` (and word_image one index at a time when v
    is the identity) against the matrix_power reference, within
    1e-12 max(1, |ref|)."""
    got = _word_walk(indices, gens, rule, negatives, v=v)
    assert len(got) == len(indices)
    for idx, w in zip(indices, got):
        ref = _matrix_power_word(idx, gens, rule, negatives)
        if v is None:
            single = dk.word_image(idx, gens, rule=rule, negatives=negatives)
            assert np.linalg.norm(single - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
        else:
            ref = ref @ v
        assert np.linalg.norm(w - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref)), idx


_PAIRS = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
_TRIPLES = [(1, -2, 3), (-2, 0, 1), (0, -1, -1), (2, 2, -2), (0, 0, 4), (-3, -1, -2)]


@pytest.mark.parametrize("stack", [(), (5,)], ids=["single", "stacked"])
@pytest.mark.parametrize("rule,negatives", [("laurent", "adjoint"),
                                            ("laurent", "inverse"),
                                            ("ordered", "adjoint")])
def test_word_walk_matches_matrix_power(rule, negatives, stack):
    """Non-commuting generators pin the factor order: a walk that took its
    factor from the wrong end of the word fails here."""
    rng = np.random.default_rng(107)
    b = 4
    for nu, indices in ((2, _PAIRS), (3, _TRIPLES)):
        if rule == "ordered":
            indices = [idx for idx in indices if min(idx) >= 0 or max(idx) <= 0]
        gens = [np.eye(b) + 0.4 * complex_gaussian(rng, stack + (b, b)) / np.sqrt(b)
                for _ in range(nu)]
        assert np.linalg.norm(gens[0] @ gens[1] - gens[1] @ gens[0]) > 0.1
        _assert_walk_matches(indices, gens, rule, negatives)
        _assert_walk_matches(indices, gens, rule, negatives,
                             v=complex_gaussian(rng, (b, 2)))


def test_word_walk_inverts_each_generator_once(monkeypatch):
    rng = np.random.default_rng(109)
    gens = [np.eye(3) + 0.3 * complex_gaussian(rng, (3, 3)) for _ in range(2)]
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
    _word_walk(_PAIRS, gens, "laurent", "inverse")
    assert len(calls) == 2
    calls.clear()
    _word_walk(_PAIRS, gens, "laurent", "adjoint")
    assert not calls


def test_word_walk_on_pipeline_outputs():
    """Each pipeline's dilation: w(G) V from the walk against the
    reference word times V, under the reading its verification uses."""
    t = np.array([[0.2 + 0.1j, 0.3], [0.0, -0.25]])
    runs = [
        (dk.dilate_circle(t, order=3), "adjoint"),
        (dk.dilate_boundary(t, dk.BoundaryCurve.disc(), order=2, nodes=32), "adjoint"),
        (dk.dilate_regular([0.3 * np.eye(2), np.diag([0.2, -0.1])], order=1,
                           nodes=4), "adjoint"),
        (dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8), "inverse"),
        (dk.dilate_qcommute(0.5 * np.diag([1.0, -1.0]),
                            np.array([[0.0, 0.5], [0.0, 0.0]]),
                            a=1, b=2, order=1, nodes=4), "adjoint"),
    ]
    for result, negatives in runs:
        assert result.passed
        dil, table = result.dilation, result.targets
        _assert_walk_matches(table.indices(), dil.generators, table.index_rule,
                             negatives, v=dil.v)


def test_pipelines_form_no_word_powers(monkeypatch):
    """GNS, assembly and verification evaluate words by the walk alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.matrix_power was called")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    rng = np.random.default_rng(113)
    assert dk.dilate_circle(random_contraction(rng, 8, norm=0.9), order=16).passed
    assert dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8).passed
    t = np.array([[0.2 + 0.1j, 0.3], [0.0, -0.25]])
    assert dk.dilate_boundary(t, dk.BoundaryCurve.disc(), order=2, nodes=32).passed


def test_malformed_readings_raise():
    g = np.diag([1.0, 0.0])
    with pytest.raises(ResolventSingularError, match="generator 1"):
        dk.word_image((0, -1), [np.eye(2), g], negatives="inverse")
    # the adjoint reading needs no inverse
    assert np.allclose(dk.word_image((0, -1), [np.eye(2), g]), g)
    with pytest.raises(ShapeMismatchError):
        dk.toeplitz_gns_unitary(dk.MomentTable(dim=2, nu=1))
    with pytest.raises(ShapeMismatchError):
        dk.MomentTable(dim=1, nu=2, values={(1, -1): [[0.5]]}, index_rule="ordered")
    with pytest.raises(ShapeMismatchError):
        dk.word_image((1, -1), [np.eye(2), g], rule="ordered")
