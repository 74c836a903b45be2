import itertools
import json
import subprocess
import sys

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
from dilatekit import linalg
from dilatekit.io import decode_dilation, dump_json, encode_dilation
from dilatekit.moments import _index_key, _word_walk

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


def _power_loop_values(kind, ts, n_max, rho=1.0):
    """The values each constructor stored when it formed its own powers,
    one matrix_power or running product per index, before every table
    came from one walk."""
    d = ts[0].shape[0]
    values = {}
    if kind in ("circle", "laurent"):
        t = ts[0]
        pos = neg = np.eye(d, dtype=np.complex128)
        for k in range(1, n_max + 1):
            pos = pos @ t
            values[(k,)] = pos / rho
            if kind == "laurent":
                neg = neg @ np.linalg.inv(t)
                values[(-k,)] = neg
    elif kind == "regular":
        for n in itertools.product(range(-n_max, n_max + 1), repeat=len(ts)):
            acc = np.eye(d, dtype=np.complex128)
            for i, ni in enumerate(n):
                if ni < 0:
                    acc = acc @ np.linalg.matrix_power(ts[i].conj().T, -ni)
            for i, ni in enumerate(n):
                if ni > 0:
                    acc = acc @ np.linalg.matrix_power(ts[i], ni)
            values[n] = acc
    else:
        for n, m in itertools.product(range(n_max + 1), repeat=2):
            w = np.linalg.matrix_power(ts[0], n) @ np.linalg.matrix_power(ts[1], m)
            values[(n, m)] = w
            values[(-n, -m)] = w.conj().T
    return values


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_moment_constructors_match_power_loops(n_max):
    """Each constructor's walk gives the values of the power loops it
    replaced, to 1e-13 relative: circle at rho 1 and 2, a non-normal
    commuting triple's regular moments (adjoints on the left), both halves
    of an ordered non-commuting pair, and two-sided Laurent powers."""
    rng = np.random.default_rng(131)
    d = 3
    t = random_contraction(rng, d, 0.9)
    a = random_contraction(rng, d, 0.6)
    triple = [a, a @ a, 0.5 * a + 0.2 * np.eye(d)]
    pair = [random_contraction(rng, d, 0.8), random_contraction(rng, d, 0.7)]
    inv = np.diag([0.7, 0.8j, -0.9]) + 0.05 * complex_gaussian(rng, (d, d))
    cases = [
        (dk.circle_moments(t, 1.0, n_max), _power_loop_values("circle", [t], n_max)),
        (dk.circle_moments(t, 2.0, n_max), _power_loop_values("circle", [t], n_max, 2.0)),
        (dk.regular_moments(triple, n_max), _power_loop_values("regular", triple, n_max)),
        (dk.qcommuting_moments(*pair, n_max), _power_loop_values("ordered", pair, n_max)),
        (dk.laurent_moments(inv, n_max), _power_loop_values("laurent", [inv], n_max)),
    ]
    for table, want in cases:
        want.setdefault((0,) * table.nu, np.eye(d))
        if table.symmetric:
            for idx, w in list(want.items()):
                want.setdefault(tuple(-i for i in idx), w.conj().T)
        assert table.indices() == sorted(want)
        for idx, ref in want.items():
            gap = np.linalg.norm(table.value(idx) - ref)
            assert gap <= 1e-13 * np.linalg.norm(ref), (table.index_rule, idx)


@pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_rho_must_be_finite_and_positive(rho):
    """A NaN rho is not an overflow, and an infinite one would make every
    L_k zero: a dilation of nothing."""
    with pytest.raises(ShapeMismatchError, match="rho must be a finite positive number"):
        dk.circle_moments(0.5 * np.eye(2), rho, 2)
    with pytest.raises(ShapeMismatchError, match="rho must be a finite positive number"):
        dk.dilate_circle(0.5 * np.eye(2), order=2, rho=rho)


def test_toeplitz_kernel_refuses_a_table_that_is_not_conjugate_closed():
    """Annulus data store inverse powers at negative indices; the kernel
    [L_{j-i}] of such a table is not Hermitian and is refused, not
    symmetrized into another matrix."""
    table = dk.laurent_moments(np.diag([0.7, 0.8j]), 2)
    with pytest.raises(ShapeMismatchError, match="conjugate-closed"):
        dk.toeplitz_kernel(table)


OVERFLOWS = [
    (lambda: dk.laurent_moments(np.diag([1e-200, 1e-200]), 2), (-2,)),
    (lambda: dk.laurent_moments(1e200 * np.eye(2), 2), (2,)),
    (lambda: dk.laurent_moments(np.diag([1e-120, 2e-120]), 3), (-3,)),
    (lambda: dk.circle_moments(1e200 * np.eye(2), 1.0, 2), (2,)),
    (lambda: dk.circle_moments(0.5 * np.eye(2), 1e-320, 1), (1,)),
    (lambda: dk.regular_moments([1e200 * np.eye(2), 0.5 * np.eye(2)], 2), (-2, -2)),
    (lambda: dk.regular_moments([1e200 * np.eye(2), 1e200 * np.eye(2)], 1), (-1, -1)),
    (lambda: dk.qcommuting_moments(1e200 * np.eye(2), np.eye(2), 2), (-2, -2)),
]


@pytest.mark.parametrize("build, index", OVERFLOWS, ids=range(len(OVERFLOWS)))
def test_moment_overflow_is_refused_by_name(build, index):
    """Powers beyond the double range are refused by the constructor, naming
    the lowest order that overflows, without a RuntimeWarning (which the
    suite turns into an error)."""
    order = max(abs(i) for i in index)
    with pytest.raises(dk.ShapeMismatchError) as got:
        build()
    assert str(got.value) == (f"the moment at index {index} (order {order}) "
                              "overflows the double range")


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
        # U = L M, two block-diagonal factors of Julia blocks that are each
        # unitary to roundoff, so U is as well
        assert np.linalg.norm(u.conj().T @ u
                              - np.eye(dil.space_dim)) <= 1e-13 * dil.space_dim
        assert np.linalg.norm(dil.v.conj().T @ dil.v - np.eye(d)) <= 1e-10
        res = compression_residual(dil, table, table.indices())
        assert res <= 1e-8
        assert dil.provenance == "gns"


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


@pytest.mark.parametrize("d,order", [(8, 16), (8, 32), (1, 8), (2, 8), (3, 8), (4, 8)])
def test_contraction_dilation_is_egervary_shift(d, order):
    """rho = 1 data have Verblunsky coefficients (T, 0, ..., 0): every
    coefficient after the first is an exact zero with the swap as its
    Julia block, so U is Egervary's shift, dense only in its first two
    blocks, in dilate_circle and in one-variable dilate_regular alike."""
    t = random_contraction(np.random.default_rng([211, d, order]), d, norm=0.9)
    k = (order + 1) * d
    for result in (dk.dilate_circle(t, order=order), dk.dilate_regular([t], order)):
        u = result.dilation.generators[0]
        assert result.dilation.space_dim == k
        assert np.count_nonzero(u) <= 4 * d * d + k
        assert result.passed


@pytest.mark.parametrize("order,rho", [(16, 1.0), (32, 1.0), (32, 2.0)])
def test_gns_self_check_on_the_nonzeros(monkeypatch, order, rho):
    """At K >= 128 the rho = 1 unitary is walked through CSR in the self
    check, and the rho = 2 one stays dense.  U and V keep their bits and
    the self-check's residuals, read from its walk, are the dense walk's
    to 1e-14."""
    t = random_contraction(np.random.default_rng([233, order]), 8, norm=0.9)
    table = dk.circle_moments(t, rho, order)
    walked, walks = [], []

    def spy(indices, generators, *args, **kwargs):
        walked.append(isinstance(generators[0], np.ndarray))
        walks.append(_word_walk(indices, generators, *args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(dk.moments, "_word_walk", spy)
    ruled = dk.toeplitz_gns_unitary(table)
    monkeypatch.setattr(linalg, "_CSR_MIN_DIM", 10 ** 9)
    dense = dk.toeplitz_gns_unitary(table)
    assert walked == [rho == 2.0, True]
    assert ruled.space_dim == (order + 1) * 8
    assert ruled.v.tobytes() == dense.v.tobytes()
    assert ruled.generators[0].tobytes() == dense.generators[0].tobytes()
    values = np.stack([table.value((k,)) for k in range(1, order + 1)])
    ruled_resid, dense_resid = (
        np.linalg.norm(np.stack([w[:8] for w in walk]) - values, axis=(1, 2))
        for walk in walks)
    assert len(ruled_resid) == order
    assert np.abs(ruled_resid - dense_resid).max() <= 1e-14


def test_small_calls_never_import_scipy_sparse():
    """scipy.sparse is imported only on the CSR path, which the small
    calls of every route never take."""
    code = (
        "import sys, numpy as np, dilatekit as dk\n"
        "t = np.array([[0.2, 0.5], [0.0, -0.3j]])\n"
        "for rho in (1.0, 2.0):\n"
        "    assert dk.dilate_circle(t, 8, rho=rho).passed\n"
        "assert dk.dilate_regular([t], 4).passed\n"
        "assert dk.dilate_boundary(t, dk.BoundaryCurve.ellipse(1.0, 0.8), nodes=64).passed\n"
        "assert dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8).passed\n"
        "assert 'scipy.sparse' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def _second_coefficient_table(c):
    """Order-2 data of T = diag(0.6, -0.3i) whose second Verblunsky
    coefficient has norm c: for diagonal data it is (L_2 - L_1^2)(I - L_1* L_1)^-1,
    entry by entry."""
    t = np.diag([0.6, -0.3j])
    l2 = t @ t + c * (np.eye(2) - t.conj().T @ t)
    return dk.MomentTable(dim=2, nu=1, values={(1,): t, (2,): l2})


def test_small_coefficient_snaps_to_the_swap():
    """A coefficient at most rank_tol in norm is set to zero with the
    canonical gauge P = W = I, so its Julia block is the exact swap and U
    is the one of the zero coefficient; ten times rank_tol is kept.
    Both verify."""
    rank_tol = dk.DEFAULT_TOL.rank_tol
    shift = dk.toeplitz_gns_unitary(_second_coefficient_table(0.0)).generators[0]
    snapped = _second_coefficient_table(0.5 * rank_tol)
    kept = _second_coefficient_table(10 * rank_tol)
    u_snapped = dk.toeplitz_gns_unitary(snapped).generators[0]
    u_kept = dk.toeplitz_gns_unitary(kept).generators[0]
    assert np.array_equal(u_snapped, shift)
    assert not np.array_equal(u_kept, shift)
    assert np.count_nonzero(u_kept) > np.count_nonzero(shift)
    for table in (snapped, kept):
        dil = dk.toeplitz_gns_unitary(table)
        assert dil.space_dim == 6
        assert dk.verify_dilation(dil, table, dk.Relations.commuting(1)).passed


def test_gns_after_every_direction_is_dropped():
    """Unitary data drop every direction at the first step, so later
    steps have an empty coefficient (r = 0): U is T on K = d, up to the
    roundoff the thin-defect rule moves the first coefficient by."""
    t = random_unitary(np.random.default_rng(223), 3)
    for order in (2, 4):
        result = dk.dilate_circle(t, order=order)
        assert result.dilation.space_dim == 3
        assert np.allclose(result.dilation.generators[0], t, rtol=0, atol=1e-14)
        assert result.passed


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


@pytest.mark.parametrize("idx", [(2,), (2.0,), (np.int64(2),), (2.7,), (np.float64(-2.5),),
                                 (True,), 2, 2.0, np.int64(-1), np.array([2]), [3], (-3,)])
def test_index_keys_keep_the_int_reading(idx):
    """An index is looked up before it is normalized; hit or miss, it
    names the moment and the word that int() of its entries names."""
    want = tuple(int(i) for i in np.atleast_1d(idx))
    missed = _index_key(idx, {})
    assert missed == want and all(type(i) is int for i in missed)
    t = np.array([[0.5, 0.1], [0.0, -0.3]])
    table = dk.circle_moments(t, 1.0, 3)
    assert _index_key(idx, table.values) == want
    assert table.value(idx) is table.value(want)
    assert np.array_equal(dk.word_image(idx, [t]), dk.word_image(want, [t]))


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
    """Moment tables, GNS, assembly and verification evaluate words by the
    walk alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.matrix_power was called")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    rng = np.random.default_rng(113)
    assert dk.dilate_circle(random_contraction(rng, 8, norm=0.9), order=16).passed
    assert dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8).passed
    t = np.array([[0.2 + 0.1j, 0.3], [0.0, -0.25]])
    assert dk.dilate_boundary(t, dk.BoundaryCurve.disc(), order=2, nodes=32).passed
    assert dk.dilate_regular([0.3 * np.eye(2), np.diag([0.2, -0.1])], order=1,
                             nodes=4).passed
    assert dk.dilate_qcommute(0.5 * np.diag([1.0, -1.0]), np.array([[0.0, 0.5], [0.0, 0.0]]),
                              a=1, b=2, order=1, nodes=4).passed


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
