import math

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import convex
from dilatekit.linalg import herm_part, hvec
from dilatekit import (
    InvalidCombinationError,
    NotNormalizedError,
    ZeroCoefficientError,
)

from conftest import (
    algebra_dimension,
    complex_gaussian,
    random_combination,
    random_point,
    random_unitary,
)


def barycenter_gap(c1, c2):
    return max(np.linalg.norm(a - b)
               for a, b in zip(c1.barycenter(), c2.barycenter()))


def test_scalar_caratheodory_frozen():
    # four scalar points on a line: classical bound n^2 (d+1) = 2 survivors
    pts = [dk.MatrixPoint([np.array([[float(v)]])], selfadjoint=True)
           for v in (0.0, 1.0, 2.0, 3.0)]
    terms = [(0.5 * np.eye(1), p) for p in pts]
    c = dk.MatrixConvexCombination(n=1, terms=terms)
    red = dk.caratheodory_reduce(c)
    assert len(red.terms) <= 2
    assert abs(red.barycenter()[0][0, 0] - 1.5) <= 1e-12
    assert red.defect() <= 1e-12


def test_lift_unlift_roundtrip():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        sa = bool(trial % 2)
        c = random_combination(rng, n, d, int(rng.integers(2, 8)), sa)
        kept, weights, gammas, alpha, value = convex._lift_terms(c)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights > 0.0)
        ntraces = np.trace(alpha, axis1=1, axis2=2).real / n
        assert np.all(np.abs(ntraces - 1.0) <= 1e-12)
        points = [c.terms[j][1] for j in kept]
        back = convex._unlift(n, weights, gammas, alpha, points)
        assert back.defect() <= 1e-10
        assert barycenter_gap(back, c) <= 1e-10
        # second direction: lifting the reconstruction recovers the data
        _, w2, _, alpha2, value2 = convex._lift_terms(back)
        for wa, wb, aa, ab, va, vb in zip(weights, w2, alpha, alpha2, value, value2):
            assert abs(wa - wb) <= 1e-10
            assert np.linalg.norm(aa - ab) <= 1e-10
            for xa, xb in zip(va, vb):
                assert np.linalg.norm(xa - xb) <= 1e-10


def test_lift_drops_zero_terms():
    """A zero coefficient is dropped from the lift: the kept terms' stacks
    are those of the combination without it, at one level and at two."""
    rng = np.random.default_rng(167)
    for level_max in (1, 2):
        c = random_combination(rng, 2, 2, 6, False, level_max=level_max)
        zero = (np.zeros_like(c.terms[2][0]), c.terms[2][1])
        padded = dk.MatrixConvexCombination(n=2, terms=c.terms[:2] + [zero] + c.terms[2:])
        kept, weights, _, alpha, value = convex._lift_terms(padded)
        assert kept.tolist() == [0, 1, 3, 4, 5, 6]
        _, w0, _, alpha0, value0 = convex._lift_terms(c)
        assert np.array_equal(weights, w0)
        assert np.array_equal(alpha, alpha0) and np.array_equal(value, value0)


def test_unlift_refuses_alpha_drift():
    # the reduction's last gate: weights whose alphas average more than
    # 1e-9 away from I are refused, not renormalized away
    rng = np.random.default_rng(41)
    c = random_combination(rng, 2, 2, 6, False)
    kept, weights, gammas, alpha, _ = convex._lift_terms(c)
    points = [c.terms[j][1] for j in kept]
    # scaling every weight by 1 + e moves the average by e |I|_F = e sqrt(2)
    near = convex._unlift(2, weights * (1.0 + 0.5e-9 / math.sqrt(2.0)),
                          gammas, alpha, points)
    assert near.defect() <= 1e-12
    with pytest.raises(NotNormalizedError, match=r"defect 2\.0"):
        convex._unlift(2, weights * (1.0 + 2e-9 / math.sqrt(2.0)),
                       gammas, alpha, points)


def lifted_rank(c):
    """Rank of the lifted vectors with a row of ones: affine rank + 1."""
    _, _, _, alpha, value = convex._lift_terms(c)
    selfadjoint = all(p.selfadjoint for _, p in c.terms)
    return int(np.linalg.matrix_rank(convex._lift_columns(alpha, value, selfadjoint)))


def test_lift_columns_match_concatenated_parts():
    """The lifted columns, written in place, are bit for bit the stacked
    hvec of the alphas' Hermitian parts, then the values' coordinates
    (hvec of their Hermitian parts, or real and imaginary parts of every
    entry), then a row of ones."""
    rng = np.random.default_rng(157)
    for selfadjoint in (True, False):
        c = random_combination(rng, 3, 2, 30, selfadjoint, level_max=2)
        _, _, _, alpha, value = convex._lift_terms(c)
        m = alpha.shape[0]
        if selfadjoint:
            coords = hvec(herm_part(value)).reshape(m, -1)
        else:
            flat = value.reshape(m, value.shape[1], -1)
            coords = np.concatenate([flat.real, flat.imag], axis=2).reshape(m, -1)
        want = np.concatenate([hvec(herm_part(alpha)), coords, np.ones((m, 1))], axis=1).T
        assert np.array_equal(convex._lift_columns(alpha, value, selfadjoint), want)


# survivor counts of a single whole-support sweep on the trials below;
# the merge tree must not keep more
SWEEP_SURVIVORS = [27, 12, 12, 22, 19, 13, 21, 18, 19, 18, 7, 14,
                   5, 18, 7, 18, 5, 2, 36, 20, 33, 3, 31, 27]


def test_caratheodory_bounds_and_preservation():
    rng = np.random.default_rng(29)
    for trial in range(24):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        sa = bool(trial % 2)
        length = int(rng.integers(10, 41))
        c = random_combination(rng, n, d, length, sa)
        red = dk.caratheodory_reduce(c)
        bound = n * n * (d + 1) if sa else n * n * (2 * d + 1)
        assert len(red.terms) <= bound
        assert len(red.terms) <= SWEEP_SURVIVORS[trial]
        assert red.defect() <= 1e-10
        assert barycenter_gap(red, c) <= 1e-9
        # fixed point: nothing left to eliminate
        again = dk.caratheodory_reduce(red)
        assert len(again.terms) == len(red.terms)


def test_caratheodory_survivors_are_input_points():
    rng = np.random.default_rng(31)
    c = random_combination(rng, 2, 2, 25, False)
    ids = {id(p) for _, p in c.terms}
    red = dk.caratheodory_reduce(c)
    assert all(id(p) in ids for _, p in red.terms)
    assert len(red.terms) <= 20


def test_caratheodory_large_run_sweep():
    # hundreds of terms in one call, the regime the merge tree is for
    rng = np.random.default_rng(37)
    c = random_combination(rng, 2, 2, 300, True, level_max=2)
    red = dk.caratheodory_reduce(c)
    assert len(red.terms) <= 4 * 3
    assert barycenter_gap(red, c) <= 1e-9
    assert red.defect() <= 1e-10


def boundary_combination(nodes, sampled=False):
    """The boundary pipeline's combination: 3 rank-one terms per node, on
    the closed-form ellipse or on the same ellipse given by its samples."""
    rng = np.random.default_rng(53)
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    if sampled:
        curve = dk.BoundaryCurve.sampled(*curve.sample(nodes), convex=True)
    t = complex_gaussian(rng, (3, 3))
    t *= 0.5 / np.linalg.norm(t, 2)
    mu = dk.quadrature_measure(t, curve, nodes)
    table = dk.MomentTable(dim=3, nu=1, values={
        (k,): np.linalg.matrix_power(t, k) for k in range(1, 5)})
    c = dk.measure_to_combination(mu, table)
    assert len(c.terms) == 3 * nodes
    return c


def reduce_counting_qrs(c, monkeypatch):
    calls = counting(monkeypatch, "_pivoted_qr")
    red = dk.caratheodory_reduce(c)
    monkeypatch.undo()
    return red, len(calls)


def tree_qr_bound(c):
    # one pivoted QR for the row basis, then each tree level halves the
    # alive terms with one sweep over 2 rank group means, which costs one
    # QR, and one final sweep.  The slack allows for a last level that
    # does not halve.  The blocked sweep the tree replaced made one
    # factorization per 32 terms: 13 for 384 terms, 97 for 3072.
    return math.ceil(math.log2(len(c.terms) / lifted_rank(c))) + 3


@pytest.mark.parametrize("nodes", [128, 256, 512])
def test_caratheodory_boundary_measure_terms(nodes, monkeypatch):
    c = boundary_combination(nodes)
    red, qrs = reduce_counting_qrs(c, monkeypatch)
    assert qrs <= tree_qr_bound(c)
    assert barycenter_gap(red, c) <= 1e-13
    assert red.defect() <= 1e-12
    assert len(red.terms) <= lifted_rank(c)
    ids = {id(p) for _, p in c.terms}
    assert all(id(p) in ids for _, p in red.terms)


def test_caratheodory_tree_scaling(monkeypatch):
    # 3072 terms: six tree levels down to 2 rank terms
    c = boundary_combination(1024)
    red, qrs = reduce_counting_qrs(c, monkeypatch)
    assert len(red.terms) <= lifted_rank(c)
    assert barycenter_gap(red, c) <= 1e-13
    assert red.defect() <= 1e-12
    assert qrs <= tree_qr_bound(c)
    # the partition follows index order, so the output repeats bit for bit
    again = dk.caratheodory_reduce(c)
    assert len(again.terms) == len(red.terms)
    for (b1, p1), (b2, p2) in zip(red.terms, again.terms):
        assert p1 is p2
        assert np.array_equal(b1, b2)


@pytest.mark.parametrize("source", ["random", "boundary", "sampled"])
def test_caratheodory_reduce_takes_no_svd(source, monkeypatch):
    """The reduction decides its ranks by pivoted QR alone: with numpy's
    and scipy's SVD raising, it returns the same bits.  Each input has more than twice
    the lifted rank in terms, so the row basis and at least one tree level
    run.  The sampled ellipse is the trapezoid measure that dilate_boundary
    reduces on a sampled curve (on the closed-form ellipse the Szego route
    leaves 15 terms): 576 terms of lifted rank 45."""
    if source == "random":
        c = random_combination(np.random.default_rng(59), 2, 2, 80, True)
    else:
        c = boundary_combination(192, sampled=source == "sampled")
    rank = lifted_rank(c)
    assert len(c.terms) > 2 * rank
    if source == "sampled":
        assert rank == 45
    expected = dk.caratheodory_reduce(c)

    def no_svd(*args, **kwargs):
        raise AssertionError("the reduction took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(convex.scipy.linalg, "svd", no_svd)
    red = dk.caratheodory_reduce(c)
    monkeypatch.undo()
    assert len(red.terms) == len(expected.terms) <= rank
    for (b1, p1), (b2, p2) in zip(red.terms, expected.terms):
        assert p1 is p2
        assert np.array_equal(b1, b2)
    assert barycenter_gap(red, c) <= 1e-12
    assert red.defect() <= 1e-10


def _reference_sweep(a, t):
    """The null-basis sweep the tableau sweep replaced, kept as the
    reference: one SVD per pass, one term retired per null direction, the
    remaining directions Gaussian-updated and renormalized, and a
    direction needing a multiplier above 1e8 deferred to the next pass."""
    t = t.copy()
    alive = np.arange(t.size)
    while alive.size > 1:
        _, s, vh = convex._svd(a[:, alive])
        rank = convex._rank(s)
        if rank >= alive.size:
            break
        basis = np.array(vh[rank:], dtype=np.float64, order="C")
        ta = t[alive]
        free = np.ones(alive.size, dtype=bool)
        ratios = np.empty(alive.size)
        for row in range(basis.shape[0]):
            cdir = basis[row]
            hi, lo = cdir.max(), -cdir.min()
            peak = max(hi, lo)
            if peak <= 1e-14:
                continue
            if hi < lo:
                np.negative(cdir, out=cdir)
            pos = (cdir > 1e-12 * peak) & free
            if not pos.any():
                continue
            ratios.fill(np.inf)
            np.divide(ta, cdir, out=ratios, where=pos)
            pivot = int(np.argmin(ratios))
            ta -= ratios[pivot] * cdir
            np.maximum(ta, 0.0, out=ta)
            free[pivot] = False
            rest = basis[row + 1:]
            lam = rest[:, pivot] / cdir[pivot]
            bad = np.abs(lam) > 1e8
            lam[bad] = 0.0
            rest -= lam[:, None] * cdir
            norms = np.sqrt(np.einsum("ij,ij->i", rest, rest))
            norms[bad | (norms <= 1e-12)] = np.inf
            rest /= norms[:, None]
        ta[~free] = 0.0
        t[alive] = ta
        alive = alive[ta > 0.0]
        if np.count_nonzero(free) == rank:
            break
    return t


def lifted_like(rng, rows, rank, width, duplicates=0, zeros=0):
    """A rows x width matrix of rank ``rank`` whose last row is ones, as in
    the lifted columns, with some columns repeated and some set to zero."""
    z = np.vstack([rng.normal(size=(rank - 1, width)), np.ones(width)])
    mix = np.vstack([rng.normal(size=(rows - 1, rank)), np.eye(rank)[-1]])
    a = mix @ z
    picks = rng.choice(width, size=2 * duplicates + zeros, replace=False)
    for src, dst in zip(picks[:duplicates], picks[duplicates:2 * duplicates]):
        a[:, dst] = a[:, src]
    a[:, picks[2 * duplicates:]] = 0.0
    return a


def counting(monkeypatch, name):
    """Count the calls of convex.<name>, which still runs."""
    calls = []
    real = getattr(convex, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(convex, name, wrapper)
    return calls


@pytest.mark.parametrize("rows, rank, width", [
    (6, 6, 13), (12, 12, 24), (24, 24, 48), (45, 45, 90), (45, 45, 63),
    (9, 5, 20), (30, 21, 60)])
def test_sweep_keeps_rank_terms_and_barycenter(rows, rank, width):
    """At most rank nonnegative terms stay, a @ t holds to 1e-12, and no
    more terms stay than with the reference sweep, on full-rank rows and
    on rank-deficient ones alike."""
    rng = np.random.default_rng(rows * 1000 + width)
    for trial in range(12):
        a = lifted_like(rng, rows, rank, width, duplicates=trial % 3, zeros=trial % 2)
        t = rng.uniform(0.1, 1.0, size=width)
        got = convex._sweep(a, t)
        want = _reference_sweep(a, t)
        kept = np.count_nonzero(got)
        assert np.all(got >= 0.0)
        assert kept <= rank
        assert kept <= np.count_nonzero(want)
        assert np.linalg.norm(a @ got - a @ t) <= 1e-12 * np.linalg.norm(a @ t)


def test_sweep_property_on_lifted_like_columns():
    """On lifted-like columns of random rank deficiency, with repeated and
    zero columns and column scales from 1e-6 to 1e6, the sweep leaves at
    most rank nonnegative terms.  a @ t moves by at most the rank cutoff,
    1e-11 of the largest column, times the total weight: a column below
    the cutoff counts as dependent even when it is not.  While the scales
    span at most 1e-4 to 1e4, no column comes near the cutoff, and a @ t
    holds to 1e-12 relative."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def cases(draw):
        rows = draw(st.integers(2, 24))
        rank = draw(st.integers(1, rows))
        width = draw(st.integers(rank + 1, 3 * rows))
        duplicates = draw(st.integers(0, width // 4))
        zeros = draw(st.integers(0, (width - 2 * duplicates) // 4))
        decades = draw(st.integers(0, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = lifted_like(rng, rows, rank, width, duplicates, zeros)
        a *= 10.0 ** rng.uniform(-decades, decades, size=width)
        return a, rng.uniform(0.1, 1.0, size=width), rank, decades

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(cases())
    def check(case):
        a, t, rank, decades = case
        got = convex._sweep(a, t)
        assert np.all(got >= 0.0)
        assert np.count_nonzero(got) <= rank
        moved = np.linalg.norm(a @ got - a @ t)
        assert moved <= 1e-11 * np.linalg.norm(a, axis=0).max() * t.sum()
        if decades <= 4:
            assert moved <= 1e-12 * np.linalg.norm(a @ t)

    check()


def test_tableau_ineligible_pivot_retires_the_column(monkeypatch):
    """A basic whose tableau entry is below 1e-8 of its column's largest is
    not a pivot, even when its weight would reach zero first: the
    non-basic column retires instead, and the basic's weight is clipped."""
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1e-10]])
    t = np.array([1.0, 1e-12, 1.0])
    assert np.array_equal(convex._sweep(a, t), [2.0, 0.0, 0.0])
    # with every negative entry eligible, column 2 enters in place of column 1
    monkeypatch.setattr(convex, "_PIVOT_TOL", 0.0)
    got = convex._sweep(a, t)
    assert got[1] == 0.0 and got[0] > 0.0 and got[2] > 0.0
    assert np.linalg.norm(a @ got - a @ t) <= 1e-15


def test_rank_deficient_level_takes_the_row_basis(monkeypatch):
    """At 192 nodes the first tree level's group means hold whole nodes and
    have rank below the row basis of all 576 lifted columns: that 45 x 90
    level reads its lower rank from its own pivoted QR and runs its
    tableau on the leading rows of that QR's R, the level's own row
    basis."""
    c = boundary_combination(192)
    ranks = []
    real = convex._pivoted_qr

    def recording(a):
        out = real(a)
        ranks.append((a.shape, out[2]))
        return out

    monkeypatch.setattr(convex, "_pivoted_qr", recording)
    red = dk.caratheodory_reduce(c)
    assert ranks[0] == ((576, 82), 45)
    assert ((45, 90), 43) in ranks[1:]
    assert barycenter_gap(red, c) <= 1e-13
    assert len(red.terms) <= lifted_rank(c)


def test_compress_to_surjective():
    rng = np.random.default_rng(41)
    x = random_point(rng, 4, 2, False)
    gamma = complex_gaussian(rng, (4, 3))
    gamma[:, 2] = gamma[:, 0]  # force a rank drop in the column space
    gamma = gamma @ np.diag([1.0, 1.0, 0.0]) + 0.0
    beta, comp = dk.compress_to_surjective(gamma, x)
    s = np.linalg.svd(beta, compute_uv=False)
    assert s[-1] > dk.DEFAULT_TOL.rank_tol
    assert np.linalg.norm(
        beta.conj().T @ beta - gamma.conj().T @ gamma) <= 1e-12
    for i in range(x.nvars):
        assert np.linalg.norm(
            beta.conj().T @ comp.coords[i] @ beta
            - gamma.conj().T @ x.coords[i] @ gamma) <= 1e-12
    with pytest.raises(ZeroCoefficientError):
        dk.compress_to_surjective(np.zeros((4, 3)), x)


def test_irreducible_split_direct_sum():
    rng = np.random.default_rng(43)
    x1 = random_point(rng, 2, 2, False)
    x2 = random_point(rng, 3, 2, False)
    u = random_unitary(rng, 5)
    coords = [u @ np.block([[a, np.zeros((2, 3))],
                            [np.zeros((3, 2)), b]]) @ u.conj().T
              for a, b in zip(x1.coords, x2.coords)]
    x = dk.MatrixPoint(coords, selfadjoint=False)
    split = dk.irreducible_split(x)
    assert split is not None
    beta, delta, xb, xd = split
    assert np.linalg.norm(beta.conj().T @ beta
                          - np.eye(beta.shape[1])) <= 1e-10
    assert np.linalg.norm(beta.conj().T @ delta) <= 1e-10
    for i in range(2):
        rec = (beta @ xb.coords[i] @ beta.conj().T
               + delta @ xd.coords[i] @ delta.conj().T)
        assert np.linalg.norm(rec - coords[i]) <= 1e-9


def test_irreducible_split_certifies_generating_coords():
    """Coordinates generating all of M_n have trivial commutant."""
    atom = dk.clock_shift_irrep(1, 3)
    x = dk.MatrixPoint(list(atom.images[0]), selfadjoint=False)
    assert algebra_dimension(x.coords) == 9
    assert dk.irreducible_split(x) is None


def _reducible_point(rng):
    """Random blocks of levels 1, 2 and 3 on the diagonal, turned by a unitary."""
    blocks = [random_point(rng, k, 2, False) for k in (1, 2, 3)]
    n = 6
    u = random_unitary(rng, n)
    coords = []
    for i in range(2):
        m = np.zeros((n, n), dtype=np.complex128)
        pos = 0
        for b in blocks:
            k = b.level
            m[pos:pos + k, pos:pos + k] = b.coords[i]
            pos += k
        coords.append(u @ m @ u.conj().T)
    return dk.MatrixPoint(coords, selfadjoint=False)


def assert_irreducible_decomposition(x, leaves, tol):
    n = x.level
    assert 1 < len(leaves) <= n
    assert sum(leaf.level for _, leaf in leaves) == n
    for emb, leaf in leaves:
        assert dk.irreducible_split(leaf) is None
        assert algebra_dimension(leaf.coords) == leaf.level ** 2
    for i in range(x.nvars):
        rec = np.zeros((n, n), dtype=np.complex128)
        for emb, leaf in leaves:
            rec += emb @ leaf.coords[i] @ emb.conj().T
        assert np.linalg.norm(rec - x.coords[i]) <= tol


def test_decompose_irreducible_recursion():
    x = _reducible_point(np.random.default_rng(47))
    assert_irreducible_decomposition(x, dk.decompose_irreducible(x), 1e-9 * x.level)


def test_decompose_irreducible_svd_fallback(monkeypatch):
    # the commutant's SVD retries with LAPACK gesvd, as the reduction's does
    x = _reducible_point(np.random.default_rng(47))

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    leaves = dk.decompose_irreducible(x)
    monkeypatch.undo()  # the checks below take SVDs of their own
    assert_irreducible_decomposition(x, leaves, 1e-9)


NAN = float("nan")


_POINT_CASES = [
    ([], False, dk.DimensionMismatchError),
    (np.zeros((0, 2, 2)), False, dk.DimensionMismatchError),
    ([np.ones((2, 3))], False, dk.DimensionMismatchError),
    ([np.ones((2, 3)), np.ones((2, 3))], True, dk.DimensionMismatchError),
    ([np.eye(2), np.eye(3)], False, dk.DimensionMismatchError),
    ([np.eye(2), np.eye(2), np.ones((1, 1))], True, dk.DimensionMismatchError),
    ([np.ones(2)], False, dk.ShapeMismatchError),
    ([np.eye(2), np.ones(2)], False, dk.ShapeMismatchError),
    ([np.ones((2, 2, 2))], False, dk.ShapeMismatchError),
    ([0.5], False, dk.ShapeMismatchError),
    ([np.array([[NAN]])], False, dk.ShapeMismatchError),
    # ragged and non-finite: the non-finite entry is named, as for one level
    ([np.array([[NAN]]), np.eye(2)], False, dk.ShapeMismatchError),
    ([np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]])], True, dk.ShapeMismatchError),
    ([np.array([[0.0, 1e-9], [0.0, 0.0]])], True, dk.NotHermitianError),
    # the bound is per coordinate: a large first one does not loosen the second's
    ([1e6 * np.eye(2), np.array([[0.0, 1e-9], [0.0, 0.0]])], True, dk.NotHermitianError),
    ([1e4 * np.eye(2) + np.array([[0.0, 1.1e-6], [0.0, 0.0]])], True,
     dk.NotHermitianError),
    # defects of 0.9 times the bound 1e-10 * max(|c|, 1): accepted
    ([np.array([[0.0, 0.9e-10 / np.sqrt(2)], [0.0, 0.0]])], True, None),
    ([1e4 * np.eye(2) + np.array([[0.0, 0.9e-6], [0.0, 0.0]])], True, None),
    ([np.array([[0.0, 1.0], [0.0, 0.0]])], False, None),
    ((np.eye(2), 1j * np.eye(2)), False, None),
    ([[[1.0, 2.0], [2.0, 3.0]]], True, None),
]


_POINT_MESSAGES = {
    dk.DimensionMismatchError: ("a matrix point needs at least one coordinate",
                                "coordinates must be square, one level"),
    dk.ShapeMismatchError: ("every coordinate must be a 2-d array",
                            "matrix contains NaN or Inf entries"),
    dk.NotHermitianError: ("selfadjoint point has a non-Hermitian coordinate",),
}


class _ViaStack:
    """A case's coordinates, to be built by MatrixPoint._stack as a stack of one."""

    def __init__(self, coords):
        self.coords = coords


@pytest.mark.parametrize("coords, selfadjoint, error", _POINT_CASES + [
    pytest.param(_ViaStack(c), sa, err, id=f"stack-coords{i}-{sa}-{getattr(err, '__name__', err)}")
    for i, (c, sa, err) in enumerate(_POINT_CASES)])
def test_matrix_point_validation(coords, selfadjoint, error):
    """Every case, built one at a time and as a stack of one: the stack's
    single check raises the constructor's exception type and message."""
    if isinstance(coords, _ViaStack):
        coords = coords.coords
        build = lambda: dk.MatrixPoint._stack([coords], selfadjoint)[0]  # noqa: E731
    else:
        build = lambda: dk.MatrixPoint(coords, selfadjoint=selfadjoint)  # noqa: E731
    if error is None:
        p = build()
        assert p.nvars == len(coords)
        assert p.coords.dtype == np.complex128 and p.coords.ndim == 3
        return
    with pytest.raises(error) as got:
        build()
    with pytest.raises(error) as one:
        dk.MatrixPoint(coords, selfadjoint=selfadjoint)
    assert type(got.value) is type(one.value)
    assert str(got.value) == str(one.value) in _POINT_MESSAGES[error]


def _ref_combination_error(n, terms):
    """The error of the per-term check loop MatrixConvexCombination once ran
    after its finiteness check, or None."""
    gammas = [np.asarray(g, dtype=np.complex128) for g, _ in terms]
    points = [p for _, p in terms]
    for gamma, point in zip(gammas, points):
        if point.nvars != points[0].nvars:
            return dk.DimensionMismatchError(
                "every point needs the same number of coordinates")
        if gamma.ndim != 2:
            return dk.ShapeMismatchError(f"expected a 2-d array, got ndim={gamma.ndim}")
        if gamma.shape != (point.level, n):
            return dk.DimensionMismatchError(
                f"coefficient shape {gamma.shape} does not match "
                f"point level {point.level} and target level {n}")
    return None


def test_combination_checks_match_per_term_loop():
    """One pass over the terms' shapes names the fault of the first faulty
    term, as the per-term loop did, whatever faults follow it; _levels
    groups and stacks the coefficients as a per-term loop does, bit for bit."""
    rng = np.random.default_rng(149)
    good = random_combination(rng, 2, 2, 12, selfadjoint=True).terms
    p3 = random_point(rng, 2, 3, selfadjoint=True)  # three coordinates
    p1 = random_point(rng, 1, 2, selfadjoint=True)
    shape = (np.ones((1, 3)), p1)
    nvars = (np.ones((2, 2)), p3)
    stack = (np.ones((1, 1, 2)), p1)
    level = (np.ones((2, 2)), p1)
    for faults in ((shape, nvars), (nvars, shape), (stack, level), (level, stack),
                   (nvars,), (shape,), (stack,), (level,)):
        for at in (0, 5, 12):
            terms = good[:at] + list(faults) + good[at:]
            want = _ref_combination_error(2, terms)
            with pytest.raises(type(want)) as got:
                dk.MatrixConvexCombination(n=2, terms=terms)
            assert type(got.value) is type(want) and str(got.value) == str(want)
    c = dk.MatrixConvexCombination(n=2, terms=[(g.tolist(), p) for g, p in good])
    groups = {}
    for j, (_, point) in enumerate(good):
        groups.setdefault(point.level, []).append(j)
    levels = list(c._levels())
    assert len(levels) == len(groups) > 1
    for (idx, beta), want in zip(levels, groups.values()):
        assert [int(j) for j in idx] == want
        assert beta.dtype == np.complex128
        assert np.array_equal(beta, np.stack([good[j][0] for j in want]))


def test_combination_validation_errors():
    p = dk.MatrixPoint([np.eye(2)], selfadjoint=True)
    bad = dk.MatrixConvexCombination(n=2, terms=[(0.5 * np.eye(2), p)])
    with pytest.raises(InvalidCombinationError):
        bad.validate()
    with pytest.raises(InvalidCombinationError):
        dk.caratheodory_reduce(bad)
    # coefficients summing to I + 2e-10 E_11 are refused by the reduction
    # too, whose gate reads the lifted stacks
    near = [(np.sqrt(0.5) * np.eye(2), p), (np.diag(np.sqrt([0.5 + 2e-10, 0.5])), p)]
    with pytest.raises(InvalidCombinationError, match="defect 2.000e-10 > 1.0e-10"):
        dk.caratheodory_reduce(dk.MatrixConvexCombination(n=2, terms=near))
    # one NaN entry among finite coefficients, and a coefficient that is a
    # stack rather than a matrix, are both refused when the combination is built
    half = np.sqrt(0.5) * np.eye(2)
    nan = half.copy()
    nan[1, 0] = np.nan
    for coeff in (nan, half[None]):
        with pytest.raises(dk.ShapeMismatchError):
            dk.MatrixConvexCombination(n=2, terms=[(half, p), (coeff, p)])
    with pytest.raises(dk.DimensionMismatchError, match=r"coefficient shape \(2, 1\)"):
        dk.MatrixConvexCombination(n=2, terms=[(half, p), (half[:, :1], p)])
    q = dk.MatrixPoint([np.eye(2), np.eye(2)], selfadjoint=True)
    # points with different numbers of coordinates, in either order, are
    # refused when the combination is built, before any barycenter or reduction
    for first, second in ((p, q), (q, p)):
        with pytest.raises(dk.DimensionMismatchError):
            dk.MatrixConvexCombination(
                n=2, terms=[(np.sqrt(0.5) * np.eye(2), first),
                            (np.sqrt(0.5) * np.eye(2), second)])
