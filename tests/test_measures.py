import math
import re

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    InfeasibleError,
    NonPSDWeightError,
    NotNormalizedError,
    NotPSDError,
    ResolventSingularError,
    ShapeMismatchError,
)

from conftest import complex_gaussian, random_contraction, random_psd, random_unitary


def normalized_point_measure(rng, d, points, ranks=None):
    """Hand-built point measure, congruence-scaled to exact unit mass."""
    weights = []
    for j in range(len(points)):
        r = d if ranks is None else ranks[j]
        weights.append(random_psd(rng, d, r))
    s = np.sum(weights, axis=0)
    c = dk.inv_sqrt_psd(s)
    atoms = dk.Atoms.from_points(points, [c @ w @ c for w in weights])
    return dk.AtomicMeasure(dim=d, atoms=atoms)


def test_point_words_frozen():
    """A point's word is its Laurent monomial with honest negative powers;
    only a negative power of a zero coordinate is undefined."""
    from dilatekit.measures import _words

    def word(idx, pts):
        return _words(dk.Atoms.from_points(pts), [idx], "laurent")[:, 0, 0, 0]

    assert word((2,), [1j]) == pytest.approx([-1.0])
    assert word((-1,), [2.0]) == pytest.approx([0.5])
    assert word((1, -1), [[2.0, 4.0]]) == pytest.approx([0.5])
    pts = [[0.0], [2.0]]
    assert np.array_equal(word((0,), pts), [1.0, 1.0])
    assert np.array_equal(word((1,), pts), [0.0, 2.0])
    with pytest.raises(ResolventSingularError, match="generator 0 is singular"):
        word((-1,), pts)
    with pytest.raises(ResolventSingularError, match="generator 0 is singular"):
        word((-1,), [0.0])
    # the measure reads its moments the same way
    w = np.array([[0.5]])
    mu = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points([[2.0, 4.0]], [w]))
    assert mu.moment((1, -1))[0, 0] == pytest.approx(0.25)
    zero = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points([0.0], [w]))
    assert zero.moment((3,))[0, 0] == 0.0
    with pytest.raises(ResolventSingularError, match="generator 0 is singular"):
        zero.moment((-1,))


def test_atomic_measure_moment_and_unit():
    w1 = np.array([[0.6]])
    w2 = np.array([[0.4]])
    mu = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points([1.0, -1.0], [w1, w2]))
    assert np.allclose(mu.unit_matrix(), np.eye(1))
    assert mu.moment((1,))[0, 0] == pytest.approx(0.2)
    assert mu.moment((2,))[0, 0] == pytest.approx(1.0)


def test_normalized_congruence_repair():
    # a quadrature-sized defect (percent level) must be repaired exactly
    rng = np.random.default_rng(71)
    weights = [random_psd(rng, 2) for _ in range(5)]
    s = np.sum(weights, axis=0)
    c = dk.inv_sqrt_psd(s)
    drift = np.eye(2) + 0.01 * np.diag([1.0, -1.0])
    mu = dk.AtomicMeasure(dim=2, atoms=dk.Atoms.from_points(
        [np.exp(2j * np.pi * j / 5) for j in range(5)],
        [drift @ c @ w @ c @ drift for w in weights]))
    assert np.linalg.norm(mu.unit_matrix() - np.eye(2)) > 1e-3
    fixed = mu.normalized()
    assert np.linalg.norm(fixed.unit_matrix() - np.eye(2)) <= 1e-12
    # weights stay PSD under the congruence
    for w in fixed.atoms.weights:
        assert np.linalg.eigvalsh(w)[0] >= -1e-12


def test_normalized_rejects_far_from_unit():
    mu = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points([1.0], [[[5.0]]]))
    with pytest.raises(NotNormalizedError):
        mu.normalized()


def test_clock_shift_frozen():
    atom = dk.clock_shift_irrep(1, 3)
    q = np.exp(2j * np.pi / 3)
    u1, u2 = atom.images[0]
    assert np.allclose(u1, np.diag([1.0, q, q * q]))
    assert np.allclose(u2, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                    dtype=complex))
    assert np.linalg.norm(u2 @ u1 - q * u1 @ u2) <= 1e-15
    assert atom.scale_pairs == [(0, 1, q)]
    with pytest.raises(ShapeMismatchError):
        dk.clock_shift_irrep(0.5, 2.0)


def test_grids():
    g = dk.circle_grid(8)
    assert len(g) == 8
    assert all(abs(abs(z) - 1.0) <= 1e-15 for z in g.images[:, 0, 0, 0])
    assert len(dk.torus_grid(5, 2)) == 25
    ag = dk.annulus_grid(6, 0.5)
    radii = sorted({round(abs(z), 12) for z in ag.images[:, 0, 0, 0]})
    assert radii == [0.5, 1.0] and len(ag) == 12
    with pytest.raises(ShapeMismatchError):
        dk.annulus_grid(6, 1.5)
    assert len(dk.clock_phase_grid(1, 2, 3)) == 9
    # iteration gives each atom as a stack of one, with its block size
    assert [a.block_size(2) for a in dk.clock_phase_grid(1, 2, 2)] == [4] * 4
    assert [len(a) for a in ag] == [1] * 12


@pytest.mark.parametrize("build", [
    lambda n: dk.circle_grid(n),
    lambda n: dk.torus_grid(n, 2),
    lambda n: dk.annulus_grid(n, 0.5),
    lambda n: dk.clock_phase_grid(1, 2, n),
    lambda n: dk.dilate_regular([np.zeros((1, 1))], order=1, nodes=n),
    lambda n: dk.dilate_annulus(0.7 * np.eye(1), 0.5, order=1, nodes=n),
    lambda n: dk.dilate_qcommute(np.eye(1), np.eye(1), 0, 1, nodes=n),
], ids=["circle", "torus", "annulus", "clock", "regular", "annulus-pipeline",
        "qcommute"])
@pytest.mark.parametrize("nodes", [0, -1])
def test_grids_refuse_fewer_than_one_node(build, nodes):
    """Grid constructors, and the fitted pipelines through them, name a node
    count below one instead of dividing by it or returning no atoms."""
    with pytest.raises(ShapeMismatchError, match=f"need at least one grid node, got {nodes}"):
        build(nodes)


def test_mixed_block_sizes_are_refused():
    """One stack holds one block size: images of b = 2 beside b = 1 are refused."""
    images = list(dk.clock_phase_grid(1, 2, 2).images) + list(
        dk.clock_phase_grid(0, 1, 2).images)
    with pytest.raises(dk.DimensionMismatchError, match="generator images must share one size"):
        dk.Atoms(images)


def test_fit_matrix_measure_scalar_poisson():
    # L_k = r^k is the moment sequence of the Poisson kernel at radius r
    r = 0.6
    values = {(k,): np.array([[r ** k]]) for k in range(1, 4)}
    table = dk.MomentTable(dim=1, nu=1, values=values)
    mu = dk.fit_matrix_measure(table, dk.circle_grid(24))
    assert mu.fit_residual <= dk.DEFAULT_TOL.fit_tol
    assert np.linalg.norm(mu.unit_matrix() - np.eye(1)) <= 1e-8
    for w in mu.atoms.weights:
        assert np.linalg.eigvalsh(w)[0] >= -dk.DEFAULT_TOL.psd_tol
    for k in range(4):
        assert abs(mu.moment((k,))[0, 0] - r ** k) <= 1e-6


def test_fit_matrix_measure_matrix_targets():
    rng = np.random.default_rng(73)
    u = random_unitary(rng, 2)
    t = u @ np.diag([np.exp(2j * np.pi * 3 / 16), np.exp(-2j * np.pi / 16)]) \
        @ u.conj().T
    table = dk.laurent_moments(t, 2)
    mu = dk.fit_matrix_measure(table, dk.circle_grid(16))
    assert mu.fit_residual <= dk.DEFAULT_TOL.fit_tol
    for idx in table.indices():
        assert np.linalg.norm(mu.moment(idx) - table.value(idx)) <= 1e-6


def _count_polish(monkeypatch):
    """Record every face polish the fit attempts and whether it was PSD."""
    from dilatekit import measures

    calls = []
    polish = measures._polish

    def counted(*args):
        out = polish(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(measures, "_polish", counted)
    return calls


def _count_checks(monkeypatch):
    """Record the iteration of every ADMM residual check the fit makes."""
    from dilatekit import measures

    checks = []
    admm = measures._admm

    def counted(*args):
        for it, z in admm(*args):
            checks.append(it)
            yield it, z

    monkeypatch.setattr(measures, "_admm", counted)
    return checks


def test_fit_infeasible_raises(monkeypatch):
    # the polish runs at checks 1, 2, 4, ..., 512 of the 800 a refusal makes
    calls = _count_polish(monkeypatch)
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.array([[1.5]])})
    with pytest.raises(InfeasibleError) as exc:
        dk.fit_matrix_measure(table, dk.circle_grid(32))
    assert exc.value.residual > 0.1
    assert 1 <= len(calls) <= 10


def test_fit_refuses_non_finite_iterate(monkeypatch):
    """A NaN residual passes no comparison, so the verdict is written as a
    test that the residual and the unit defect are small: a non-finite
    iterate at the last check makes the fit raise Infeasible."""
    from dilatekit import measures

    admm = measures._admm

    def poisoned(*args):
        for it, z in admm(*args):
            if it == 3 * measures._CHECK_EVERY:  # not a polish check
                yield it, np.where(np.arange(z.size) == 0, np.nan, z)
                return
            yield it, z

    monkeypatch.setattr(measures, "_admm", poisoned)
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.array([[1.5]])})
    with pytest.raises(InfeasibleError) as exc:
        dk.fit_matrix_measure(table, dk.circle_grid(32))
    assert np.isnan(exc.value.residual)


def _qcommute_pair(rng):
    """The demo pair T2 T1 = -T1 T2 at lattice phases, turned by a unitary."""
    w = random_unitary(rng, 2)
    lam, beta = np.exp(2j * np.pi * np.array([1, 3]) / 8)
    return (w @ np.diag([lam, -lam]) @ w.conj().T,
            w @ np.array([[0.0, beta], [0.0, 0.0]]) @ w.conj().T)


def test_polish_rejects_non_psd_face_solution(monkeypatch):
    """From a seeded random start, at the first check the q-commute face
    solve meets the moments but leaves a face weight S_j with a negative
    eigenvalue: it is refused.  From the fit's own zero start the first
    face solve, at iteration 25, is PSD and accepted."""
    from dilatekit.measures import _admm, _polish

    table = dk.qcommuting_moments(*_qcommute_pair(np.random.default_rng(127)), 1)
    grid = dk.clock_phase_grid(1, 2, 8)
    system, m, z = _fit_start(table, grid, seed=0)
    b_mat, rhs, k = system
    _, z = next(_admm(*system, m, z))
    assert np.linalg.norm(b_mat[:k] @ z - rhs[:k]) > dk.DEFAULT_TOL.fit_tol
    assert _polish(*system, m, z) is None
    checks, calls = _count_checks(monkeypatch), _count_polish(monkeypatch)
    mu = dk.fit_matrix_measure(table, grid)
    assert checks == [25] and calls == [True]
    assert mu.fit_residual <= 1e-3 * dk.DEFAULT_TOL.fit_tol
    for w in mu.atoms.weights:
        assert np.linalg.eigvalsh(w)[0] >= -1e-12


def test_zero_start_stops_qcommute_fit_at_first_check(monkeypatch):
    """The demo q-commute pair at nodes 8, order 1, fitted on one
    clock-shift irrep per class of clock_phase_grid(1, 2, 8) at the penalty
    scaled by the class size: from the zero start the polish at the first
    check (iteration 25) is accepted, and the dilation takes 6 dimensions,
    three b = 2 pieces."""
    checks, calls = _count_checks(monkeypatch), _count_polish(monkeypatch)
    t1, t2 = _qcommute_pair(np.random.default_rng(137))
    result = dk.dilate_qcommute(t1, t2, 1, 2, order=1, nodes=8)
    assert checks == [25] and calls == [True]
    assert result.passed
    assert result.dilation.space_dim == 6


def test_polish_stops_extremal_fit_at_first_check(monkeypatch):
    """Commuting unitaries with spectrum on the 8-node lattice (the bench's
    regular extremal case): the first polish, at iteration 25, is accepted."""
    rng = np.random.default_rng(131)
    w = random_unitary(rng, 3)
    phases = np.exp(2j * np.pi * rng.integers(0, 8, size=(2, 3)) / 8)
    table = dk.regular_moments([w @ np.diag(ph) @ w.conj().T for ph in phases], 2)
    calls = _count_polish(monkeypatch)
    mu = dk.fit_matrix_measure(table, dk.torus_grid(8, 2))
    assert calls == [True]
    assert mu.fit_residual <= 1e-12
    assert len(mu.atoms) <= 3

    # numpy's divide-and-conquer SVD can fail to converge on the face
    # solve's nearly null matrices; LAPACK gesvd then gives the same stop
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    again = dk.fit_matrix_measure(table, dk.torus_grid(8, 2))
    assert calls == [True, True]
    assert len(again.atoms) == len(mu.atoms)
    assert np.array_equal(again.atoms.images, mu.atoms.images)
    for a, b in zip(again.atoms.weights, mu.atoms.weights):
        assert np.linalg.norm(a - b) <= 1e-12


def _class_conjugators(a, b, nodes):
    """For each atom of clock_phase_grid(a, b, nodes): its class's atom in
    _phase_classes and a unitary V = clock^k shift^l with atom = V rep V*
    to 1e-14, or None when no such V exists."""
    from dilatekit.measures import _phase_classes

    reps, _ = _phase_classes(a, b, nodes)
    n = math.isqrt(len(reps))
    clock, shift = dk.clock_shift_irrep(a, b).images[0]
    vs = [np.linalg.matrix_power(clock, k) @ np.linalg.matrix_power(shift, l)
          for k in range(b) for l in range(b)]
    out = []
    for at, atom in enumerate(dk.clock_phase_grid(a, b, nodes).images):
        i, j = divmod(at, nodes)
        r = (i % n) * n + j % n
        v = next((v for v in vs if np.abs(
            v @ reps.images[r] @ v.conj().T - atom).max() <= 1e-14), None)
        out.append((r, v))
    return out


@pytest.mark.parametrize("a, b, nodes", [(1, 2, 8), (1, 3, 6), (2, 5, 10), (1, 4, 6)])
def test_phase_classes_are_unitary_orbits(a, b, nodes):
    """Every lattice atom is its class atom conjugated by clock^k shift^l,
    each class atom stands for g^2 lattice atoms, g = gcd(nodes, b), and
    the class atoms' central characters (U1^b, U2^b) are pairwise distinct."""
    from dilatekit.measures import _phase_classes

    reps, size = _phase_classes(a, b, nodes)
    g = math.gcd(nodes, b)
    assert size == g * g and len(reps) * size == nodes ** 2
    assert reps.scale_pairs == dk.clock_phase_grid(a, b, nodes).scale_pairs
    owners = _class_conjugators(a, b, nodes)
    assert all(v is not None for _, v in owners)
    assert np.bincount([r for r, _ in owners]).tolist() == [size] * len(reps)
    chars = []
    for u1, u2 in reps.images:
        c1, c2 = np.linalg.matrix_power(u1, b), np.linalg.matrix_power(u2, b)
        assert np.abs(c1 - c1[0, 0] * np.eye(b)).max() <= 1e-14
        assert np.abs(c2 - c2[0, 0] * np.eye(b)).max() <= 1e-14
        chars.append((c1[0, 0], c2[0, 0]))
    chars = np.array(chars)
    gaps = np.abs(chars[:, None] - chars[None]).max(axis=2)
    assert gaps[~np.eye(len(chars), dtype=bool)].min() > 0.1


def test_class_fit_is_the_lattice_iteration_on_class_weights():
    """ADMM on the whole clock_phase_grid(1, 2, 8), started from weights
    spread evenly over each class (a class weight W over g^2 = 4 atoms,
    conjugated into each atom's frame: (V-bar x I) W (V^T x I) / 4), keeps
    every moment of the class measure and stays spread so: after 25
    iterations it is the iterate of ADMM on the class atoms at penalty
    _RHO / 4, and not the one at _RHO."""
    from dilatekit.linalg import hunvec, hvec
    from dilatekit.measures import _RHO, _admm, _fit_system, _phase_classes

    table = dk.qcommuting_moments(*_qcommute_pair(np.random.default_rng(137)), 1)
    reps, size = _phase_classes(1, 2, 8)
    lattice = dk.clock_phase_grid(1, 2, 8)
    owners = _class_conjugators(1, 2, 8)
    d, m = table.dim, reps.block_size(table.dim)

    def spread(z):
        w = hunvec(z.reshape(-1, m * m), m)
        return np.concatenate([hvec(np.kron(v.conj(), np.eye(d)) @ w[r]
                                    @ np.kron(v.T, np.eye(d))) / size
                               for r, v in owners])

    system, _, z = _fit_start(table, reps, seed=5)
    whole = dk.AtomicMeasure(d, lattice.with_weights(hunvec(spread(z).reshape(-1, m * m), m)))
    part = dk.AtomicMeasure(d, reps.with_weights(hunvec(z.reshape(-1, m * m), m)))
    for idx in table.indices():
        assert np.abs(whole.moment(idx) - part.moment(idx)).max() <= 1e-14
    lattice_system = _fit_system(table, lattice)
    _, want = next(_admm(*lattice_system, m, spread(z)))
    for rho, close in ((_RHO / size, True), (_RHO, False)):
        _, got = next(_admm(*system, m, z, rho))
        gap = np.linalg.norm(spread(got) - want) / np.linalg.norm(want)
        assert bool(gap <= 1e-12) is close, gap


def _on_grid(mu, grid):
    """The weights of a fitted measure at every atom of its grid, in grid
    order, zero at the atoms pruned away."""
    out = np.zeros((len(grid),) + mu.atoms.weights.shape[1:], dtype=np.complex128)
    for image, w in zip(mu.atoms.images, mu.atoms.weights):
        out[np.abs(grid.images - image).max(axis=(1, 2, 3)).argmin()] = w
    return out


def test_class_fit_matches_lattice_fit():
    """On the demo q-commute pair, the fit on one atom per class with
    class_size 4 and the fit on the whole lattice both succeed, and the
    lattice fit is the class fit spread evenly over each class (the class
    weight W over g^2 = 4 atoms, conjugated into each atom's frame) to
    1e-12 relative to its largest weight: both start at zero, which the
    spread keeps."""
    from dilatekit.measures import _phase_classes

    table = dk.qcommuting_moments(*_qcommute_pair(np.random.default_rng(137)), 1)
    reps, size = _phase_classes(1, 2, 8)
    lattice = dk.clock_phase_grid(1, 2, 8)
    tol = dk.DEFAULT_TOL
    part = dk.fit_matrix_measure(table, reps, tol, class_size=size).normalized(tol)
    whole = dk.fit_matrix_measure(table, lattice, tol).normalized(tol)
    assert len(part.atoms) <= len(reps)
    for idx in table.indices():
        assert np.linalg.norm(part.moment(idx) - table.value(idx)) <= tol.fit_tol
    w, eye = _on_grid(part, reps), np.eye(table.dim)
    spread = np.array([np.kron(v.conj(), eye) @ w[r] @ np.kron(v.T, eye) / size
                       for r, v in _class_conjugators(1, 2, 8)])
    got = _on_grid(whole, lattice)
    assert np.abs(spread - got).max() <= 1e-12 * np.abs(got).max()


def test_fit_is_covariant_under_grid_symmetries():
    """The fit starts at zero, so the fitted measure is a function of the
    table and the grid alone, and a symmetry of the grid that maps one
    table onto another maps one fit onto the other, to 1e-12 relative to
    the largest weight: d=3 interior torus data at 12 nodes under a swap
    of the variables and under T1 -> e^{2 pi i/12} T1, and d=3 interior
    annulus data at 32 nodes under T -> e^{2 pi i/32} T.  The torus
    dilations keep K.  The annulus dilations are not compared: the
    reduction meets the permuted terms in another order, and its
    roundoff-level rank decision can move K by one there."""
    rng = np.random.default_rng(157)
    w = random_unitary(rng, 3)
    zs = rng.uniform(0.0, 0.5, size=(2, 3)) * np.exp(2j * np.pi * rng.random((2, 3)))
    t1, t2 = [w @ np.diag(z) @ w.conj().T for z in zs]
    omega = np.exp(2j * np.pi / 12)
    grid = dk.torus_grid(12, 2)
    pairs = ([t1, t2], [t2, t1], [omega * t1, t2])
    base, swapped, turned = (
        _on_grid(dk.fit_matrix_measure(dk.regular_moments(ts, 1), grid), grid)
        .reshape(12, 12, 3, 3) for ts in pairs)
    scale = np.abs(base).max()
    assert np.abs(swapped.swapaxes(0, 1) - base).max() <= 1e-12 * scale
    assert np.abs(np.roll(turned, -1, axis=0) - base).max() <= 1e-12 * scale
    ks = {dk.dilate_regular(ts, order=1, nodes=12).dilation.space_dim for ts in pairs}
    assert len(ks) == 1

    v = random_unitary(rng, 3)
    t = v @ np.diag(rng.uniform(0.6, 0.9, size=3) * np.exp(2j * np.pi * rng.random(3))) \
        @ v.conj().T
    grid = dk.annulus_grid(32, 0.5)
    base, turned = (
        _on_grid(dk.fit_matrix_measure(dk.laurent_moments(x, 2), grid), grid)
        .reshape(2, 32, 3, 3) for x in (t, np.exp(2j * np.pi / 32) * t))
    assert np.abs(np.roll(turned, -1, axis=1) - base).max() <= 1e-12 * np.abs(base).max()


@pytest.mark.parametrize("size", [0, -4, 2.0, None])
def test_fit_refuses_bad_class_size(size):
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.array([[0.5]])})
    with pytest.raises(ShapeMismatchError, match="class_size must be a positive integer"):
        dk.fit_matrix_measure(table, dk.circle_grid(4), class_size=size)


def _assembly_gap(dil, mu, indices) -> float:
    """The largest ||V* w(generators) V - the measure's moment|| over the
    indices, negative powers read as inverses like the measure's own."""
    return max(float(np.linalg.norm(dil.compress(dk.word_image(
        idx, dil.generators, rule=mu.index_rule, negatives="inverse")) - mu.moment(idx)))
        for idx in indices)


def test_assemble_point_dilation_exact():
    rng = np.random.default_rng(79)
    d = 3
    points = [[np.exp(2j * np.pi * j / 7)] for j in range(5)]
    ranks = [3, 1, 2, 3, 1]
    mu = normalized_point_measure(rng, d, points, ranks)
    dil = dk.assemble_atomic_dilation(mu)
    assert np.linalg.norm(dil.v.conj().T @ dil.v - np.eye(d)) <= 1e-12
    # space splits into one block of size rank(P_j) per atom
    expected = sum(np.linalg.matrix_rank(w, tol=1e-10)
                   for w in mu.atoms.weights)
    assert dil.space_dim == expected
    # a dilation is its matrices, and assembly repeats them bit for bit
    again = dk.assemble_atomic_dilation(mu)
    assert again.v.tobytes() == dil.v.tobytes()
    assert again.generators[0].tobytes() == dil.generators[0].tobytes()
    gap = _assembly_gap(dil, mu, [(k,) for k in range(-2, 3)])
    assert 0.0 < gap <= 1e-12
    u = dil.generators[0]
    # spectrum sits exactly on the atom points
    eigs = {round(np.angle(z), 9) for z in np.linalg.eigvals(u)}
    atom_angles = {round(np.angle(z), 9) for z in mu.atoms.images[:, 0, 0, 0]}
    assert eigs == atom_angles


def test_assemble_commuting_pairs():
    rng = np.random.default_rng(83)
    d = 2
    points = [complex_gaussian(rng, 2) for _ in range(4)]
    mu = normalized_point_measure(rng, d, points)
    dil = dk.assemble_atomic_dilation(mu)
    g1, g2 = dil.generators
    assert np.linalg.norm(g1 @ g2 - g2 @ g1) <= 1e-12
    assert np.linalg.norm(dil.compress(g1 @ g2) - mu.moment((1, 1))) <= 1e-12


def test_assemble_irrep_dilation():
    rng = np.random.default_rng(89)
    b, d = 2, 2
    atoms = dk.clock_phase_grid(1, 2, 2)
    # rank-one weights r* r, r = vec(gamma), with sum gamma* gamma = I
    gammas = [complex_gaussian(rng, (b, d)) for _ in atoms]
    c = dk.inv_sqrt_psd(np.sum([g.conj().T @ g for g in gammas], axis=0))
    rows = [(gamma @ c).reshape(-1) for gamma in gammas]
    atoms = atoms.with_weights([np.outer(r.conj(), r) for r in rows])
    mu = dk.AtomicMeasure(dim=d, atoms=atoms, index_rule="ordered")
    assert np.linalg.norm(mu.unit_matrix() - np.eye(d)) <= 1e-12
    dil = dk.assemble_atomic_dilation(mu)
    assert dil.provenance == "naimark-irrep"
    u1, u2 = dil.generators
    q = np.exp(2j * np.pi / 2)
    assert np.linalg.norm(u2 @ u1 - q * u1 @ u2) <= 1e-12
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(dil.space_dim)) <= 1e-12
    assert _assembly_gap(dil, mu, [(1, 0), (0, 1), (1, 1)]) <= 1e-12


def test_assemble_requires_normalization():
    """A short mass is NotNormalized, and so is no atom at all: the weights
    are split before the mass is checked, and an empty stack splits into
    no pieces."""
    mu = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points([1.0], [[[0.9]]]))
    with pytest.raises(NotNormalizedError):
        dk.assemble_atomic_dilation(mu)
    empty = dk.AtomicMeasure(dim=2, atoms=dk.Atoms.from_points(np.zeros(0), np.zeros((0, 2, 2))))
    with pytest.raises(NotNormalizedError):
        dk.assemble_atomic_dilation(empty)


def test_measure_combination_roundtrip():
    rng = np.random.default_rng(97)
    d = 2
    points = [[np.exp(2j * np.pi * j / 9)] for j in range(9)]
    mu = normalized_point_measure(rng, d, points)
    values = {(k,): mu.moment((k,)) for k in range(1, 3)}
    table = dk.MomentTable(dim=d, nu=1, values=values)
    comb = dk.measure_to_combination(mu, table)
    assert comb.defect() <= 1e-10
    back = dk.combination_to_measure(comb, mu)
    for idx in table.indices():
        assert np.linalg.norm(back.moment(idx) - mu.moment(idx)) <= 1e-12
    # with a reduction in the middle the moments still survive
    red = dk.caratheodory_reduce(comb)
    slim = dk.combination_to_measure(red, mu).normalized()
    assert len(slim.atoms) <= len(mu.atoms)
    for idx in table.indices():
        assert np.linalg.norm(slim.moment(idx) - mu.moment(idx)) <= 1e-9


def test_herm_to_cvec_columns():
    from dilatekit.measures import _herm_to_cvec

    for m in (1, 3):
        phi = _herm_to_cvec(m)
        assert phi is _herm_to_cvec(m)
        for k in range(m * m):
            e = np.zeros(m * m)
            e[k] = 1.0
            assert np.array_equal(phi[:, k], dk.hunvec(e, m).ravel())


def test_pruned_drops_null_atoms():
    mu = dk.AtomicMeasure(dim=1, atoms=dk.Atoms.from_points(
        [1.0, -1.0], [[[1.0 - 1e-12]], [[1e-12]]]))
    assert len(mu.pruned(1e-9).atoms) == 1
    # the kept atoms are the originals, in their order
    atoms = dk.clock_phase_grid(1, 2, 3)[:7]
    atoms = atoms.with_weights([scale * np.eye(4) / 2.0 for scale in
                                [1.0, 1e-12, 1e-10, 2e-9, 0.5, 0.0, 1e-9]])
    kept = dk.AtomicMeasure(dim=2, atoms=atoms).pruned(1e-9).atoms
    _assert_bits(kept.images, atoms.images[[0, 3, 4, 6]])
    _assert_bits(kept.weights, atoms.weights[[0, 3, 4, 6]])
    assert kept.scale_pairs == atoms.scale_pairs
    with pytest.raises(dk.GridEmptyError, match="pruning removed every atom"):
        dk.AtomicMeasure(dim=2, atoms=atoms).pruned(2.0)


_NAN_WEIGHT = np.array([[1.0, np.nan], [0.0, 1.0]])
_INF_WEIGHT = np.array([[np.inf, 0.0], [0.0, 1.0]])
_GEN = np.eye(2)


# (kind, images, weight, error, message): images are a point for
# Atoms.from_points and generator images for Atoms; the weight fits d = 1
# for b = 2
_ATOM_CASES = [
    ("point", [0.5], _NAN_WEIGHT, ShapeMismatchError, "matrix contains NaN or Inf entries"),
    ("point", [0.5], _INF_WEIGHT, ShapeMismatchError, "matrix contains NaN or Inf entries"),
    ("point", [0.5], np.ones(2), ShapeMismatchError, "expected a 2-d array, got ndim=1"),
    ("point", [0.5, 1j], np.eye(2), None, None),
    ("point", [0.5], None, None, None),
    ("irrep", [_GEN, _GEN], _NAN_WEIGHT, ShapeMismatchError,
     "matrix contains NaN or Inf entries"),
    ("irrep", [_GEN], _INF_WEIGHT, ShapeMismatchError, "matrix contains NaN or Inf entries"),
    ("irrep", [_GEN, np.eye(3)], None, dk.DimensionMismatchError,
     "generator images must share one size"),
    ("irrep", [_GEN, np.eye(3)], np.eye(2), dk.DimensionMismatchError,
     "generator images must share one size"),
    ("irrep", [np.ones((2, 3))], None, dk.DimensionMismatchError,
     "generator images must share one size"),
    ("irrep", [_GEN, np.array([[np.nan, 0.0], [0.0, 1.0]])], None, ShapeMismatchError,
     "matrix contains NaN or Inf entries"),
    ("irrep", [np.array([[np.inf]]), _GEN], None, ShapeMismatchError,
     "matrix contains NaN or Inf entries"),
    ("irrep", [_GEN, np.ones(2)], None, ShapeMismatchError, "expected a 2-d array, got ndim=1"),
    ("irrep", [], None, dk.DimensionMismatchError, "an irrep needs at least one generator image"),
    ("irrep", [_GEN, -_GEN], np.eye(2), None, None),
]


@pytest.mark.parametrize("via", ["one", "stack"])
@pytest.mark.parametrize("kind, images, weight, error, message", _ATOM_CASES)
def test_atom_validation(kind, images, weight, error, message, via):
    """Atoms raises one exception type and message for a stack of one atom
    and for a stack of three, and a fault in the last atom of a stack is
    found too."""
    build = dk.Atoms.from_points if kind == "point" else dk.Atoms
    n = 1 if via == "one" else 3
    if error is None:
        atoms = build([images] * n, None if weight is None else [weight] * n)
        assert len(atoms) == n
        assert atoms.weights is None or atoms.weights.dtype == np.complex128
        return
    with pytest.raises(error) as one:
        build([images] * n, None if weight is None else [weight] * n)
    assert str(one.value) == message
    if via == "stack" and weight is not None and not np.isfinite(weight).all():
        good = np.eye(weight.shape[0])
        with pytest.raises(error, match="NaN or Inf"):
            build([images] * 3, [good, good, weight])


@pytest.mark.parametrize("pair", [(0, 5, -1), (2, 0, -1), (0, -1, -1), (0.0, 1, -1),
                                  (0, 1), (0, 1, -1, 1)])
def test_atoms_refuse_relations_beyond_their_images(pair):
    """A relation (i, j, q) must name two of the stack's generators: the
    stack refuses it when built, so validate and assembly never index past
    the images or fail to unpack it."""
    images = dk.clock_shift_irrep(1, 2).images
    message = f"relation {pair!r} is not (i, j, q) with i, j among the 2 generator images"
    with pytest.raises(dk.DimensionMismatchError, match=re.escape(message)):
        dk.Atoms(images, [np.eye(2) / 2], [pair])
    good = dk.Atoms(images, [np.eye(2) / 2], [(1, 0, -1)])
    dk.AtomicMeasure(dim=1, atoms=good).validate()
    with pytest.raises(dk.DimensionMismatchError, match=re.escape(message)):
        dk.Atoms(images, scale_pairs=[(0, 1, -1), pair])


def test_atoms_refuse_weights_that_do_not_stack():
    """The weights are one stack, one per atom, of one size."""
    with pytest.raises(ShapeMismatchError, match="atom weights must share one size"):
        dk.circle_grid(2).with_weights([np.eye(1), np.eye(2)])
    with pytest.raises(ShapeMismatchError, match="3 weights for 2 atoms"):
        dk.circle_grid(2).with_weights([np.eye(1)] * 3)


def test_stack_constructors_match_one_at_a_time():
    """Stacks carry the bits of objects built one at a time: coords, images,
    weights and scale_pairs."""
    from dilatekit.measures import _clock_shift

    rng = np.random.default_rng(211)
    c = complex_gaussian(rng, (5, 3, 2, 2))
    c = c + np.swapaxes(c.conj(), 2, 3)
    for selfadjoint in (True, False):
        points = dk.MatrixPoint._stack(c, selfadjoint, labels=list(range(5)))
        for j, (p, x) in enumerate(zip(points, c)):
            one = dk.MatrixPoint(list(x), selfadjoint=selfadjoint, label=j)
            _assert_bits(p.coords, one.coords)
            assert (p.selfadjoint, p.label) == (one.selfadjoint, one.label)
    pts = complex_gaussian(rng, (6, 2))
    weights = np.stack([random_psd(rng, 3) for _ in range(6)])
    stacked = dk.Atoms.from_points(pts, weights)
    for a, z, w in zip(stacked, pts, weights):
        one = dk.Atoms.from_points([z], [w])
        _assert_bits(a.images, one.images)
        _assert_bits(a.weights, one.weights)
        _assert_bits(a.images[0, :, 0, 0], z)
    # the grids, against the one-at-a-time formulas they replace
    for got, want in [
        (dk.circle_grid(7, 0.8), [[0.8 * np.exp(2j * np.pi * j / 7)] for j in range(7)]),
        (dk.torus_grid(3, 2), [[np.exp(2j * np.pi * i / 3), np.exp(2j * np.pi * j / 3)]
                               for i in range(3) for j in range(3)]),
    ]:
        assert len(got) == len(want)
        for a, z in zip(got, want):
            _assert_bits(a.images, dk.Atoms.from_points([z]).images)
            assert a.weights is None
    step = 2.0 * np.pi / 3
    grid = dk.clock_phase_grid(1, 3, 3)
    ones = [dk.clock_shift_irrep(1, 3, (step * i, step * j))
            for i in range(3) for j in range(3)]
    weights = np.stack([random_psd(rng, 6) for _ in grid])
    stacked = grid.with_weights(weights)
    q = _clock_shift(1, 3)[0]
    assert grid.scale_pairs == stacked.scale_pairs == [(0, 1, q)]
    for a, b, one, w in zip(grid, stacked, ones, weights):
        assert a.images.shape == (1, 2, 3, 3)
        _assert_bits(a.images, one.images)
        _assert_bits(b.images, one.images)
        assert a.scale_pairs == b.scale_pairs == one.scale_pairs == [(0, 1, q)]
        _assert_bits(b.weights, one.with_weights([w]).weights)
    # a slice owns its list of relations: changing it leaves the stack alone
    grid[0].scale_pairs.append((1, 0, 1.0))
    assert grid.scale_pairs == grid[1].scale_pairs == [(0, 1, q)]


def test_irrep_contribution_matches_pure_states():
    """Weighted word contributions agree with a rank-one expansion."""
    rng = np.random.default_rng(101)
    b, d = 3, 2
    g = complex_gaussian(rng, (b * d,))
    atom = dk.clock_shift_irrep(1, 3).with_weights([np.outer(g.conj(), g)])
    gamma = g.reshape(b, d)
    w = dk.word_image((1, 1), list(atom.images[0]), rule="ordered")
    want = gamma.conj().T @ w @ gamma
    mu = dk.AtomicMeasure(dim=d, atoms=atom, index_rule="ordered")
    got = mu.moment((1, 1))
    assert np.linalg.norm(got - want) <= 1e-12


def test_one_weight_convention():
    """A weight G = r* r of a b = 2 clock-shift atom has the piece
    gamma = r.reshape(2, d): the moment at n is gamma* w_n(U) gamma, and the
    assembled dilation compresses to it.  At b = 1 the moment is w G."""
    rng = np.random.default_rng(223)
    d = 2
    gamma = random_unitary(rng, d)  # gamma* gamma = I: one atom of unit mass
    r = gamma.reshape(-1)
    atoms = dk.clock_shift_irrep(1, 2, (0.3, 1.1)).with_weights([np.outer(r.conj(), r)])
    mu = dk.AtomicMeasure(dim=d, atoms=atoms, index_rule="ordered")
    indices = [(1, 0), (0, 1), (1, 1), (2, 1), (-1, 0), (-1, -1)]
    dil = dk.assemble_atomic_dilation(mu)
    assert dil.space_dim == 2
    for idx in indices:
        w = dk.word_image(idx, list(atoms.images[0]), rule="ordered")
        want = gamma.conj().T @ w @ gamma
        assert np.linalg.norm(mu.moment(idx) - want) <= 1e-14
        word = dk.word_image(idx, dil.generators, rule="ordered")
        assert np.linalg.norm(dil.compress(word) - want) <= 1e-14
    # b = 1: the moment is the point's monomial times its weight, bit for bit
    w = random_psd(rng, d)
    z = np.exp(0.7j)
    point = dk.AtomicMeasure(dim=d, atoms=dk.Atoms.from_points([z], [w]))
    for k in (-2, 1, 3):
        word = dk.word_image((k,), [np.array([[z]])], negatives="inverse")[0, 0]
        _assert_bits(point.moment((k,)), 0.0 + word * w)


def test_words_match_scalar_loops():
    """Stacked words equal the per-atom word_image bit for bit, points and
    irreps alike: negative Laurent entries are inverse powers."""
    from dilatekit.measures import _words

    rng = np.random.default_rng(103)
    idx1 = [(k,) for k in range(-6, 7)]
    idx2 = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    idx3 = [(1, -2, 3), (-4, 0, 2), (2, 2, -1)]
    ordered = [(i, j) for i in range(3) for j in range(3)] + [(-1, 0), (-1, -2)]
    grids = [
        (dk.annulus_grid(12, 0.5), idx1, "laurent"),
        (dk.torus_grid(6, 2), idx2, "laurent"),
        (dk.Atoms.from_points([complex_gaussian(rng, 2) for _ in range(20)]), idx2, "laurent"),
        (dk.Atoms.from_points([complex_gaussian(rng, 3) for _ in range(20)]), idx3, "laurent"),
        (dk.clock_phase_grid(1, 3, 3), ordered, "ordered"),
        (dk.clock_phase_grid(1, 2, 2), idx2, "laurent"),
    ]
    for grid, indices, rule in grids:
        words = _words(grid, indices, rule)
        b = grid.rep_dim
        want = np.array([[dk.word_image(idx, list(images), rule=rule, negatives="inverse")
                          for idx in indices] for images in grid.images])
        assert words.shape == (len(grid), len(indices), b, b)
        assert np.array_equal(words.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ResolventSingularError):
        _words(dk.Atoms.from_points([0.0]), [(-1,)], "laurent")


def _split_system(system):
    """A, t, C and c of the fit's stacked system B = [A; C], [t; c]."""
    b_mat, rhs, k = system
    return b_mat[:k], rhs[:k], b_mat[k:], rhs[k:]


def _random_measure(name):
    """A table and a measure of random full-rank weights on a grid of its kind."""
    rng = np.random.default_rng(107)
    if name == "torus":
        t = random_contraction(rng, 2, 0.5)
        table, grid = dk.regular_moments([t, t @ t], 2), dk.torus_grid(4, 2)
    elif name == "annulus":
        t = np.diag([0.7, 0.8]) + 0.05 * complex_gaussian(rng, (2, 2))
        table, grid = dk.laurent_moments(t, 3), dk.annulus_grid(8, 0.5)
    elif name == "clock":
        table = dk.qcommuting_moments(0.5 * np.diag([1.0, -1.0]),
                                      np.array([[0.0, 0.5], [0.0, 0.0]]), 2)
        grid = dk.clock_phase_grid(1, 2, 3)
    else:
        # a symmetric table on points inside the circle, where z^-n != conj(z^n)
        t = random_contraction(rng, 2, 0.5)
        table, grid = dk.circle_moments(t, 1.0, 3), dk.circle_grid(8, 0.9)
    d = table.dim
    weights = [random_psd(rng, a.block_size(d)) / len(grid) for a in grid]
    mu = dk.AtomicMeasure(dim=d, index_rule=table.index_rule,
                          atoms=grid.with_weights(weights))
    return table, grid, weights, mu


@pytest.mark.parametrize("name", ["torus", "annulus", "clock", "off_circle"])
def test_fit_system_matches_measure(name):
    """A z and C z of _fit_system are the moments and the mass of the measure
    whose weights z stacks, as AtomicMeasure's own loops compute them.  A
    symmetric table on unit-modulus points or unitary irreps keeps the rows
    of its canonical indices, scaled by sqrt 2; the annulus table and points
    off the circle keep every nonzero index.  Either way |A z - t| is the
    residual over all nonzero indices."""
    from dilatekit.measures import _canonical_indices, _fit_system, _herm_to_cvec, _words

    table, grid, weights, mu = _random_measure(name)
    d = table.dim
    a_mat, t_vec, c_mat, c_vec = _split_system(_fit_system(table, grid))
    z = np.concatenate([dk.hvec(w) for w in weights])
    nonzero = [idx for idx in table.indices() if any(idx)]
    assert any(i < 0 for idx in nonzero for i in idx)
    assert table.symmetric == (name != "annulus")
    if name in ("torus", "clock"):
        indices, scale = _canonical_indices(table), np.sqrt(2.0)
        assert 2 * len(indices) == len(nonzero)
    else:
        indices, scale = nonzero, 1.0
    rows = (a_mat @ z).reshape(len(indices), 2, d, d)
    targets = t_vec.reshape(len(indices), 2, d, d)
    for idx, row, target in zip(indices, rows, targets):
        m = scale * mu.moment(idx)
        assert np.linalg.norm(row[0] + 1j * row[1] - m) <= 1e-13
        assert np.array_equal(target[0] + 1j * target[1], scale * table.value(idx))
    resid = np.sqrt(sum(np.linalg.norm(mu.moment(idx) - table.value(idx)) ** 2
                        for idx in nonzero))
    assert abs(np.linalg.norm(a_mat @ z - t_vec) - resid) <= 1e-13
    assert np.linalg.norm(c_mat @ z - dk.hvec(mu.unit_matrix())) <= 1e-13
    assert np.array_equal(c_vec, dk.hvec(np.eye(d, dtype=complex)))
    # the einsum of every basis weight, read as blocks G_st, with every
    # word: bit for bit at b = 1
    m = grid.block_size(d)
    basis = _herm_to_cvec(m).T.reshape(m * m, m // d, d, m // d, d)
    words = _words(grid, indices, table.index_rule)
    block = np.einsum("aist,ksptq->ipqak", words, basis)
    unit = dk.hvec(np.einsum("kspsq->kpq", basis)).T
    want = scale * np.stack([block.real, block.imag], axis=1).reshape(t_vec.size, -1)
    if m == d:
        _assert_bits(a_mat, want)
        _assert_bits(c_mat, np.tile(unit, len(grid)))
    else:
        assert np.abs(a_mat - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(c_mat - np.tile(unit, len(grid))).max() <= 1e-15


@pytest.mark.parametrize("name", ["torus", "annulus", "clock"])
def test_combination_point_is_one_array_per_atom(name):
    """Each atom's point is one (2c, b, b) complex array for its c canonical
    indices, the very array every rank-one piece of the atom shares."""
    from dilatekit.measures import _canonical_indices

    table, grid, _, mu = _random_measure(name)
    c = len(_canonical_indices(table))
    comb = dk.measure_to_combination(mu, table)
    points = {}
    for gamma, point in comb.terms:
        b = gamma.shape[0]
        assert type(point.coords) is np.ndarray
        assert point.coords.dtype == np.complex128
        assert point.coords.shape == (2 * c, b, b)
        assert points.setdefault(point.label, point.coords) is point.coords
    # full-rank weights: an atom of block size m splits into m pieces
    assert len(comb.terms) == sum(a.block_size(table.dim) for a in grid)
    assert sorted(points) == list(range(len(grid)))


def test_irrep_measure_combination_roundtrip():
    rng = np.random.default_rng(109)
    b, d = 2, 2
    atoms = dk.clock_phase_grid(1, 2, 3)
    # two rank-one pieces r* r per atom, r = vec(gamma), with sum gamma* gamma = I
    gammas = [complex_gaussian(rng, (2, b, d)) for _ in atoms]
    c = dk.inv_sqrt_psd(sum(g.conj().T @ g for pair in gammas for g in pair))
    weights = []
    for pair in gammas:
        rows = [(g @ c).reshape(-1) for g in pair]
        weights.append(sum(np.outer(r.conj(), r) for r in rows))
    mu = dk.AtomicMeasure(dim=d, atoms=atoms.with_weights(weights), index_rule="ordered")
    assert np.linalg.norm(mu.unit_matrix() - np.eye(d)) <= 1e-12
    values = {idx: mu.moment(idx) for idx in [(1, 0), (0, 1), (1, 1), (2, 1)]}
    table = dk.MomentTable(dim=d, nu=2, values=values, index_rule="ordered")
    comb = dk.measure_to_combination(mu, table)
    assert comb.defect() <= 1e-10
    assert len(comb.terms) == 2 * len(atoms)
    canonical = [idx for idx in table.indices()
                 if any(idx) and next(i for i in idx if i != 0) > 0]
    for _, point in comb.terms:
        images = list(mu.atoms.images[point.label])
        assert len(point.coords) == 2 * len(canonical)
        for k, idx in enumerate(canonical):
            w = dk.word_image(idx, images, rule="ordered")
            assert np.array_equal(point.coords[2 * k], dk.herm_part(w))
            assert np.array_equal(point.coords[2 * k + 1], dk.herm_part(-1j * w))
    back = dk.combination_to_measure(comb, mu)
    for idx in table.indices():
        assert np.linalg.norm(back.moment(idx) - mu.moment(idx)) <= 1e-12
    red = dk.caratheodory_reduce(comb)
    slim = dk.combination_to_measure(red, mu).normalized()
    assert len(red.terms) <= len(comb.terms)
    for idx in table.indices():
        assert np.linalg.norm(slim.moment(idx) - mu.moment(idx)) <= 1e-9


def _dense_x_step(system):
    """The x-step of the fit's ADMM from the dense (ncols + d^2) KKT system
    [A^T A + rho I, C^T; C, 0] [x; nu] = [A^T t + rho v; c], LU-factored once."""
    import scipy.linalg

    from dilatekit.measures import _RHO

    a_mat, t_vec, c_mat, c_vec = _split_system(system)
    ncols, d2 = a_mat.shape[1], c_mat.shape[0]
    kkt = np.zeros((ncols + d2, ncols + d2))
    kkt[:ncols, :ncols] = a_mat.T @ a_mat + _RHO * np.eye(ncols)
    kkt[:ncols, ncols:] = c_mat.T
    kkt[ncols:, :ncols] = c_mat
    lu = scipy.linalg.lu_factor(kkt)
    atb = a_mat.T @ t_vec

    def x_step(v):
        return scipy.linalg.lu_solve(lu, np.concatenate([atb + _RHO * v, c_vec]))[:ncols]

    return x_step


def _dense_kkt_fit(targets, grid):
    """Reference ADMM whose x-step solves the dense (ncols + d^2) KKT system.

    Same zero start, fixed penalty and stopping rule as fit_matrix_measure;
    returns the stacked weights before pruning.
    """
    from dilatekit.measures import _CHECK_EVERY, _MAX_ITER, _herm_to_cvec

    system, m, z = _fit_start(targets, grid)
    a_mat, t_vec, c_mat, c_vec = _split_system(system)
    x_step = _dense_x_step(system)
    phi = _herm_to_cvec(m)

    def project_blocks(v):
        mats = (v.reshape(-1, m * m) @ phi.T).reshape(-1, m, m)
        blocks = _ref_fit_projection(mats)
        return (blocks.reshape(-1, m * m) @ phi.conj()).real.reshape(-1)

    u = np.zeros_like(z)
    for it in range(1, _MAX_ITER + 1):
        x = x_step(z - u)
        z = project_blocks(x + u)
        u = u + x - z
        if it % _CHECK_EVERY == 0:
            resid = float(np.linalg.norm(a_mat @ z - t_vec))
            unit_def = float(np.linalg.norm(c_mat @ z - c_vec))
            if resid <= 0.9 * dk.DEFAULT_TOL.fit_tol and unit_def <= 1e-9:
                break
    return z


def _kkt_case(name):
    """A table and a grid for the checks against the dense KKT reference."""
    rng = np.random.default_rng(113)
    if name == "clock":
        table = dk.qcommuting_moments(0.5 * np.diag([1.0, -1.0]),
                                      np.array([[0.0, 0.5], [0.0, 0.0]]), 1)
        return table, dk.clock_phase_grid(1, 2, 4)
    if name == "torus_8":
        t = random_contraction(rng, 2, 0.5)
        return dk.regular_moments([t, t @ t], 2), dk.torus_grid(8, 2)
    if name == "annulus":
        # normal data with spectrum inside the annulus r = 0.2: the inner
        # circle's rows at index -3 are 125 times the outer circle's
        w = random_unitary(rng, 2)
        return (dk.laurent_moments(w @ np.diag([0.5, 0.6j]) @ w.conj().T, 3),
                dk.annulus_grid(8, 0.2))
    # commuting unitaries with joint spectrum at two points of the lattice:
    # thousands of iterations and most atoms pruned
    u = random_unitary(rng, 2)
    spectra = np.exp(2j * np.pi * np.array([[0, 1], [1, 2]]) / 3)
    return (dk.regular_moments([u @ np.diag(s) @ u.conj().T for s in spectra], 2),
            dk.torus_grid(3, 2))


@pytest.mark.parametrize("name", ["torus_8", "torus_3", "clock", "annulus"])
def test_x_step_matches_dense_kkt_solve(name):
    """One x-step of _admm, x = v + B^T mu from the Cholesky-inverted
    B B^T + rho diag(I, 0), is the x of the dense KKT solve to 1e-12
    relative, also where [A; C] is rank-deficient (the 3-node torus
    lattice) and on the r = 0.2 annulus."""
    from dilatekit.measures import _fit_system, _x_step

    table, grid = _kkt_case(name)
    system = _fit_system(table, grid)
    b_mat = system[0]
    if name == "torus_3":
        assert np.linalg.matrix_rank(b_mat) < b_mat.shape[0]
    want, got = _dense_x_step(system), _x_step(*system)
    for v in np.random.default_rng(139).standard_normal((3, b_mat.shape[1])):
        assert np.linalg.norm(got(v) - want(v)) <= 1e-12 * np.linalg.norm(want(v))


def test_admm_setup_takes_no_svd(monkeypatch):
    """The x-step is set up from one Cholesky factorization: no SVD runs
    before the first check, not even on the rank-deficient 3-node torus."""
    from dilatekit import measures

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD in the ADMM set-up")

    starts = [_fit_start(*_kkt_case(name)) for name in ("torus_3", "annulus")]
    monkeypatch.setattr(measures, "_svd", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(measures.scipy.linalg, "svd", no_svd)
    for system, m, z in starts:
        it, _ = next(measures._admm(*system, m, z))
        assert it == measures._CHECK_EVERY


def _fit_start(targets, grid, seed=None):
    """fit_matrix_measure's linear system, block size and start, z = 0.
    With a seed, each weight starts instead at a random multiple of
    hvec(I_m), which is C^T hvec(I_d) block by block: an iterate that no
    grid symmetry maps to itself."""
    from dilatekit.measures import _fit_system

    system = _fit_system(targets, grid)
    _, _, c_mat, c_vec = _split_system(system)
    m = grid.block_size(targets.dim)
    if seed is None:
        return system, m, np.zeros(c_mat.shape[1])
    weights = (0.5 + 0.5 * np.random.default_rng(seed).random(len(grid))) / len(grid)
    z = np.repeat(weights, m * m) * (c_mat.T @ c_vec)
    return system, m, z


def _plain_fit(targets, grid):
    """fit_matrix_measure's plain ADMM iteration under the plain stopping
    rule alone, without the face polish; the stacked weights before pruning."""
    from dilatekit.measures import _admm

    system, m, z = _fit_start(targets, grid)
    a_mat, t_vec, c_mat, c_vec = _split_system(system)
    for _, z in _admm(*system, m, z):
        if (np.linalg.norm(a_mat @ z - t_vec) <= 0.9 * dk.DEFAULT_TOL.fit_tol
                and np.linalg.norm(c_mat @ z - c_vec) <= 1e-9):
            break
    return z


@pytest.mark.parametrize("name", ["torus", "annulus"])
def test_fit_matches_dense_kkt_reference(name):
    """The closed-form x-step reproduces the dense KKT ADMM: the same atoms
    survive pruning, with weights equal to roundoff.  The polished fit
    keeps those atoms and meets the table within fit_tol."""
    from dilatekit.measures import _PRUNE_TOL, _fit_system

    table, grid = _kkt_case("torus_3" if name == "torus" else name)
    if name == "torus":
        # on the 3-node lattice, indices that differ by a multiple of 3 have
        # one word, so even the canonical rows of [A; C] are dependent
        w = _fit_system(table, grid)[0]
        assert np.linalg.matrix_rank(w) < w.shape[0]
    m = grid.block_size(table.dim)

    def survivors(z):
        return [(j, w) for j, w in enumerate(dk.hunvec(z.reshape(-1, m * m), m))
                if np.linalg.norm(w) >= _PRUNE_TOL]

    want = survivors(_dense_kkt_fit(table, grid))
    got = survivors(_plain_fit(table, grid))
    assert [j for j, _ in got] == [j for j, _ in want]
    for (_, weight), (_, ref) in zip(got, want):
        assert np.linalg.norm(weight - ref) <= 1e-10
    mu = dk.fit_matrix_measure(table, grid)
    assert len(mu.atoms) == len(want)
    assert np.array_equal(mu.atoms.images, grid.images[[j for j, _ in want]])
    for idx in table.indices():
        assert np.linalg.norm(mu.moment(idx) - table.value(idx)) <= dk.DEFAULT_TOL.fit_tol


# -- per-atom references: the loops the stacked back half replaced ------


def _ref_fit_projection(mats):
    """The PSD projection the ADMM fit once wrote out for its stacks."""
    mats = (mats + mats.conj().transpose(0, 2, 1)) / 2.0
    w, q = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    blocks = (q * w[:, None, :]) @ q.conj().transpose(0, 2, 1)
    return (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0


def _ref_psd_project(a):
    """psd_project of one matrix."""
    w, q = np.linalg.eigh(dk.herm_part(a))
    w = np.clip(w, 0.0, None)
    return dk.herm_part((q * w) @ q.conj().T)


def _ref_rank_factor(m, tol=dk.DEFAULT_TOL):
    """numerical_rank_factor of one Hermitian matrix, phases row by row."""
    lam, q = np.linalg.eigh(m)
    lmax = float(lam[-1])
    scale = max(abs(float(lam[0])), abs(lmax))
    if lam[0] < -tol.psd_tol * max(scale, 1e-300):
        raise NotPSDError("not PSD", min_eig=float(lam[0]))
    if lmax <= 0:
        return np.zeros((0, m.shape[0]), dtype=np.complex128)
    idx = np.nonzero(lam > tol.rank_tol * lmax)[0][::-1]
    w = np.sqrt(lam[idx])[:, None] * q[:, idx].conj().T
    for i in range(w.shape[0]):
        row = w[i]
        piv = row[int(np.argmax(np.abs(row)))]
        if np.abs(piv) > 0:
            w[i] = row * (np.abs(piv) / piv)
    return w


def _ref_pieces(weight, d):
    """Rank-one pieces gamma (b, d) of one weight: its rank factor's rows."""
    f = _ref_rank_factor(dk.herm_part(weight))
    return [row.reshape(-1, d) for row in f]


def _ref_word(images, idx, rule):
    """One atom's word, read as the measure reads it: negative Laurent
    entries are inverse powers."""
    return dk.word_image(idx, list(images), rule=rule, negatives="inverse")


def _ref_blocks(weight, d):
    b = weight.shape[0] // d
    return b, weight.reshape(b, d, b, d)


def _ref_unit_matrix(mu):
    s = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for weight in mu.atoms.weights:
        b, g4 = _ref_blocks(weight, mu.dim)
        s += sum(g4[t, :, t, :] for t in range(b))
    return s


def _ref_moment(mu, idx):
    m = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for images, weight in zip(mu.atoms.images, mu.atoms.weights):
        w = _ref_word(images, idx, mu.index_rule)
        b, g4 = _ref_blocks(weight, mu.dim)
        m += sum(w[s, t] * g4[s, :, t, :] for s in range(b) for t in range(b))
    return m


def _ref_normalized_weights(mu):
    r = dk.inv_sqrt_psd(_ref_unit_matrix(mu))
    out = []
    for weight in mu.atoms.weights:
        b = weight.shape[0] // mu.dim
        k = r if b == 1 else np.kron(np.eye(b), r)
        out.append(dk.herm_part(k @ weight @ k))
    return out


def _ref_combination_weights(comb, mu):
    acc = {}
    for gamma, point in comb.terms:
        row = gamma.reshape(1, -1)
        acc[point.label] = acc.get(point.label, 0) + row.conj().T @ row
    return [dk.herm_part(w) for _, w in sorted(acc.items())]


def _ref_assembly(mu):
    """V and the generators of the Naimark dilation, piece by piece: each
    piece's images on its diagonal block, every other entry +0."""
    import scipy.linalg

    v_blocks, gen_blocks = [], []
    for images, weight in zip(mu.atoms.images, mu.atoms.weights):
        pieces = _ref_pieces(weight, mu.dim)
        v_blocks.extend(pieces)
        gen_blocks.extend([images] * len(pieces))
    gens = [scipy.linalg.block_diag(*(blocks[i] for blocks in gen_blocks))
            for i in range(len(gen_blocks[0]))]
    return np.vstack(v_blocks), gens


def _assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want, dtype=got.dtype).view(np.uint64))


def _back_half_case(name):
    """A normalized measure and a table of its moments."""
    from dataclasses import replace

    rng = np.random.default_rng(127)
    if name == "point_d1":
        # scalar weights: one long sum per entry, where numpy would block
        raw = normalized_point_measure(rng, 1, [[np.exp(0.3j * j)] for j in range(40)])
        table = dk.MomentTable(dim=1, nu=1, values={(k,): raw.moment((k,))
                                                    for k in range(1, 4)})
    elif name == "point_d2":
        points = [[np.exp(2j * np.pi * j / 9)] for j in range(9)]
        raw = normalized_point_measure(rng, 2, points, ranks=[2, 1, 2, 1, 1, 2, 2, 1, 2])
        # a percent-level mass defect for normalized() to repair
        raw = replace(raw, atoms=raw.atoms.with_weights(1.01 * raw.atoms.weights))
        table = dk.MomentTable(dim=2, nu=1, values={(k,): raw.moment((k,))
                                                    for k in range(1, 4)})
    elif name == "point_d3":
        t = random_contraction(rng, 3, norm=0.4)
        raw = dk.quadrature_measure(t, dk.BoundaryCurve.ellipse(1.0, 0.6), 192)
        table = dk.MomentTable(dim=3, nu=1, values={(k,): raw.moment((k,))
                                                    for k in range(1, 5)})
    else:
        grid = dk.clock_phase_grid(1, 2, 3)
        weights = [random_psd(rng, 4, rank) / 20.0 for rank in [1, 2, 4, 3, 1, 2, 1, 4, 2]]
        raw = dk.AtomicMeasure(dim=2, atoms=grid.with_weights(weights), index_rule="ordered")
        raw = replace(raw, atoms=grid.with_weights(
            1.01 * np.array(_ref_normalized_weights(raw))))
        table = dk.MomentTable(dim=2, nu=2, index_rule="ordered", values={
            idx: raw.moment(idx) for idx in [(1, 0), (0, 1), (1, 1), (2, 1)]})
    return raw, table


@pytest.mark.parametrize("name", ["point_d1", "point_d2", "point_d3", "irrep_b2"])
def test_back_half_matches_per_atom_loops(name):
    """The stacked walk reproduces the per-atom loops bit for bit: mass,
    moments, normalization, the rank-one split, the combination view and
    back, and the Naimark assembly."""
    raw, table = _back_half_case(name)
    d = raw.dim
    _assert_bits(raw.unit_matrix(), _ref_unit_matrix(raw))
    mu = raw.normalized()
    for w, want in zip(mu.atoms.weights, _ref_normalized_weights(raw)):
        _assert_bits(w, want)
    indices = list(table.indices())
    for idx in indices:
        _assert_bits(mu.moment(idx), _ref_moment(mu, idx))
    if mu.atoms.rep_dim == 1:
        for w in mu.atoms.weights:
            f, r = dk.numerical_rank_factor(w)
            _assert_bits(f, _ref_rank_factor(dk.herm_part(w)))
    comb = dk.measure_to_combination(mu, table)
    want = [(gamma, j) for j, w in enumerate(mu.atoms.weights)
            for gamma in _ref_pieces(w, d)]
    assert len(comb.terms) == len(want)
    for (gamma, point), (ref, j) in zip(comb.terms, want):
        assert point.label == j
        _assert_bits(gamma, ref)
    reduced = dk.caratheodory_reduce(comb)
    slim = dk.combination_to_measure(reduced, mu)
    for got, w in zip(slim.atoms.weights, _ref_combination_weights(reduced, mu)):
        _assert_bits(got, w)
    dil = dk.assemble_atomic_dilation(mu)
    v, gens = _ref_assembly(mu)
    _assert_bits(dil.v, v)
    assert len(dil.generators) == len(gens)
    for g, ref in zip(dil.generators, gens):
        _assert_bits(g, ref)
    assert _assembly_gap(dil, mu, indices) <= 1e-12


def test_psd_project_stacks_match_single_and_fit_kernels():
    """psd_project on a stack equals psd_project matrix by matrix, and the
    kernel the fit wrote out for its hvec stacks, bit for bit."""
    from dilatekit.measures import _herm_to_cvec

    rng = np.random.default_rng(131)
    for d, n in ((2, 40), (3, 64)):
        a = complex_gaussian(rng, (n, d, d))
        out = dk.psd_project(a)
        for got, m in zip(out, a):
            _assert_bits(got, _ref_psd_project(m))
        _assert_bits(dk.psd_project(a[0]), _ref_psd_project(a[0]))
    for grid in (dk.clock_phase_grid(1, 2, 4), dk.clock_phase_grid(0, 1, 4)):
        m = grid.block_size(2)
        v = rng.normal(size=len(grid) * m * m)
        mats = (v.reshape(-1, m * m) @ _herm_to_cvec(m).T).reshape(-1, m, m)
        _assert_bits(dk.psd_project(mats), _ref_fit_projection(mats))
    with pytest.raises(dk.NonSquareError):
        dk.psd_project(np.zeros((4, 2, 3)))


def test_screened_projection_matches_psd_project():
    """The fit's projection reads each block's inertia from its LDL* pivots.
    On stacks mixing positive definite, negative definite, indefinite,
    exactly singular PSD and zero blocks it equals psd_project to 1e-13
    relative; positive definite blocks keep their coordinates bit for bit
    and negative definite ones become exactly 0."""
    from dilatekit.measures import _project_hvec

    rng = np.random.default_rng(139)
    kinds = ["pd", "nd", "indefinite", "singular", "zero"] * 4
    for m in range(1, 7):
        mats = []
        for kind in kinds:
            lam = rng.uniform(0.1, 2.0, m) * 10.0 ** rng.integers(-3, 4)
            if kind == "nd":
                lam = -lam
            elif kind == "indefinite":
                lam[::2] *= -1.0
            elif kind == "zero":
                lam[:] = 0.0
            q = random_unitary(rng, m)
            a = (q * lam) @ q.conj().T
            if kind == "singular":
                j = rng.integers(m)
                a = dk.psd_project(a)
                a[j, :] = a[:, j] = 0.0
            mats.append(a)
        coords = dk.hvec(np.array(mats))
        a = dk.hunvec(coords, m)  # exactly Hermitian
        got = _project_hvec(coords, m)
        want = dk.psd_project(a)
        for g, w, x in zip(dk.hunvec(got, m), want, a):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(x)
        kind = np.array(kinds)
        assert np.array_equal(got[kind == "pd"].view(np.uint64),
                              coords[kind == "pd"].view(np.uint64))
        assert not got[kind == "nd"].any()


def test_back_half_takes_one_eigh_per_call(monkeypatch):
    """measure_to_combination and assemble_atomic_dilation split weights
    with one batched eigh each, not one per atom, and assembly takes its
    PSD verdict from that eigh: no eigvalsh runs beside it."""
    rng = np.random.default_rng(137)
    t = random_contraction(rng, 3, norm=0.4)
    mu = dk.quadrature_measure(t, dk.BoundaryCurve.ellipse(1.0, 0.6), 192)
    table = dk.MomentTable(dim=3, nu=1, values={(k,): mu.moment((k,))
                                                for k in range(1, 5)})
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: pytest.fail("eigvalsh"))
    dk.measure_to_combination(mu, table)
    dk.assemble_atomic_dilation(mu)
    assert len(mu.atoms) == 192
    assert len(shapes) == 2
    assert all(s == (192, 3, 3) for s in shapes)


@pytest.mark.parametrize("kind", ["point", "irrep"])
def test_negative_weight_raises_for_both_kinds(kind):
    """One split rule: a weight with an eigenvalue below -psd_tol is NotPSD
    for an irrep's Choi block exactly as for a point's weight."""
    if kind == "irrep":
        atoms = dk.clock_phase_grid(1, 2, 1).with_weights([np.diag([1.0, -0.3])])
        mu = dk.AtomicMeasure(dim=1, atoms=atoms, index_rule="ordered")
        values = {idx: mu.moment(idx) for idx in [(1, 0), (0, 1)]}
        table = dk.MomentTable(dim=1, nu=2, values=values, index_rule="ordered")
    else:
        atoms = dk.Atoms.from_points([1j], [np.diag([1.0, -0.3])])
        mu = dk.AtomicMeasure(dim=2, atoms=atoms)
        table = dk.MomentTable(dim=2, nu=1, values={(1,): mu.moment((1,))})
    # the negative part is 0.3 of a unit mass, not roundoff
    assert np.linalg.norm(mu.unit_matrix()) <= 1.1
    with pytest.raises(NotPSDError) as exc:
        dk.measure_to_combination(mu, table)
    assert exc.value.min_eig == pytest.approx(-0.3)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("neg", [-1e-8, -1e-11, -1e-13])
def test_validate_and_assembly_share_one_psd_rule(scale, neg):
    """validate() and the rank-one split give one verdict: a weight whose
    smallest eigenvalue is below -psd_tol * max|eigenvalue| fails both, any
    other passes both.  diag(1e-3, -1e-11) once passed validate() and then
    raised NotPSD inside assemble_atomic_dilation."""
    w = scale * np.diag([1e-3, neg / scale])
    mu = dk.AtomicMeasure(dim=2, atoms=dk.Atoms.from_points([1.0, -1.0], [w, np.eye(2) - w]))
    rejected = neg < -dk.DEFAULT_TOL.psd_tol * 1e-3 * scale

    def verdict(call):
        try:
            call()
        except (NonPSDWeightError, NotPSDError):
            return True
        return False

    assert verdict(mu.validate) == rejected
    assert verdict(lambda: dk.assemble_atomic_dilation(mu)) == rejected
    assert verdict(lambda: dk.numerical_rank_factor(w)) == rejected


def test_atoms_without_weight_raise():
    """Every measure operation names atom 0 when the stack has no weights of
    its block size: they are one stack, so the first atom is at fault."""
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.zeros((1, 1))})
    for atoms in (dk.circle_grid(4), dk.circle_grid(4).with_weights([np.eye(2)] * 4)):
        mu = dk.AtomicMeasure(dim=1, atoms=atoms)
        calls = [mu.unit_matrix, mu.normalized, lambda: mu.moment((1,)), mu.validate,
                 lambda: mu.pruned(1e-9), lambda: dk.assemble_atomic_dilation(mu),
                 lambda: dk.measure_to_combination(mu, table)]
        for call in calls:
            with pytest.raises(ShapeMismatchError, match="atom 0 has no 1 x 1 weight"):
                call()
    irreps = dk.AtomicMeasure(dim=2, atoms=dk.clock_phase_grid(1, 2, 2),
                              index_rule="ordered")
    with pytest.raises(ShapeMismatchError, match="atom 0 has no 4 x 4 weight"):
        irreps.normalized()
