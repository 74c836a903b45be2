import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    InfeasibleError,
    NotNormalizedError,
    NotPSDError,
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
    atoms = [dk.PointAtom(point=z, weight=c @ w @ c)
             for z, w in zip(points, weights)]
    return dk.AtomicMeasure(dim=d, atoms=atoms)


def test_laurent_scalar_frozen():
    assert dk.laurent_scalar((2,), 1j) == pytest.approx(-1.0)
    assert dk.laurent_scalar((-1,), 2.0) == pytest.approx(0.5)
    assert dk.laurent_scalar((1, -1), [2.0, 4.0]) == pytest.approx(0.5)
    with pytest.raises(ShapeMismatchError):
        dk.laurent_scalar((-1,), 0.0)
    # only a negative power of a zero coordinate is undefined
    pts = [[0.0], [2.0]]
    assert np.array_equal(dk.laurent_scalar((0,), pts), [1.0, 1.0])
    assert np.array_equal(dk.laurent_scalar((1,), pts), [0.0, 2.0])
    assert dk.laurent_scalar((1,), 0.0) == 0.0
    with pytest.raises(ShapeMismatchError):
        dk.laurent_scalar((-1,), pts)


def test_atomic_measure_moment_and_unit():
    w1 = np.array([[0.6]])
    w2 = np.array([[0.4]])
    mu = dk.AtomicMeasure(dim=1, atoms=[
        dk.PointAtom(point=[1.0], weight=w1),
        dk.PointAtom(point=[-1.0], weight=w2),
    ])
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
    mu = dk.AtomicMeasure(dim=2, atoms=[
        dk.PointAtom(point=[np.exp(2j * np.pi * j / 5)],
                     weight=drift @ c @ w @ c @ drift)
        for j, w in enumerate(weights)
    ])
    assert np.linalg.norm(mu.unit_matrix() - np.eye(2)) > 1e-3
    fixed = mu.normalized()
    assert np.linalg.norm(fixed.unit_matrix() - np.eye(2)) <= 1e-12
    # weights stay PSD under the congruence
    for a in fixed.atoms:
        assert np.linalg.eigvalsh(a.weight)[0] >= -1e-12


def test_normalized_rejects_far_from_unit():
    mu = dk.AtomicMeasure(dim=1, atoms=[
        dk.PointAtom(point=[1.0], weight=np.array([[5.0]]))])
    with pytest.raises(NotNormalizedError):
        mu.normalized()


def test_clock_shift_frozen():
    atom = dk.clock_shift_irrep(1, 3)
    q = np.exp(2j * np.pi / 3)
    u1, u2 = atom.generators
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
    assert all(abs(abs(a.point[0]) - 1.0) <= 1e-15 for a in g)
    assert len(dk.torus_grid(5, 2)) == 25
    ag = dk.annulus_grid(6, 0.5)
    radii = sorted({round(abs(a.point[0]), 12) for a in ag})
    assert radii == [0.5, 1.0] and len(ag) == 12
    with pytest.raises(ShapeMismatchError):
        dk.annulus_grid(6, 1.5)
    assert len(dk.clock_phase_grid(1, 2, 3)) == 9


def test_fit_matrix_measure_scalar_poisson():
    # L_k = r^k is the moment sequence of the Poisson kernel at radius r
    r = 0.6
    values = {(k,): np.array([[r ** k]]) for k in range(1, 4)}
    table = dk.MomentTable(dim=1, nu=1, values=values)
    mu = dk.fit_matrix_measure(table, dk.circle_grid(24))
    assert mu.fit_residual <= dk.DEFAULT_TOL.fit_tol
    assert np.linalg.norm(mu.unit_matrix() - np.eye(1)) <= 1e-8
    for a in mu.atoms:
        assert np.linalg.eigvalsh(a.weight)[0] >= -dk.DEFAULT_TOL.psd_tol
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


def test_fit_mixed_block_sizes():
    # clock-shift irreps of q = -1 (blocks of 2d) beside characters (blocks
    # of d) on one grid: the PSD projection runs once per block size.  The
    # demo pair at half scale is interior data, so both kinds keep weight.
    t1 = 0.5 * np.diag([1.0, -1.0])
    t2 = np.array([[0.0, 0.5], [0.0, 0.0]])
    table = dk.qcommuting_moments(t1, t2, 1)
    grid = dk.clock_phase_grid(1, 2, 4) + dk.clock_phase_grid(0, 1, 4)
    mu = dk.fit_matrix_measure(table, grid)
    assert mu.fit_residual <= dk.DEFAULT_TOL.fit_tol
    for a in mu.atoms:
        assert np.linalg.eigvalsh(dk.herm_part(a.weight))[0] >= -dk.DEFAULT_TOL.psd_tol
    assert {a.rep_dim for a in mu.atoms} == {1, 2}


def test_fit_infeasible_raises():
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.array([[1.5]])})
    with pytest.raises(InfeasibleError) as exc:
        dk.fit_matrix_measure(table, dk.circle_grid(32))
    assert exc.value.residual > 0.1


def test_assemble_point_dilation_exact():
    rng = np.random.default_rng(79)
    d = 3
    points = [[np.exp(2j * np.pi * j / 7)] for j in range(5)]
    ranks = [3, 1, 2, 3, 1]
    mu = normalized_point_measure(rng, d, points, ranks)
    dil = dk.assemble_atomic_dilation(mu, indices=[(k,) for k in range(-2, 3)])
    assert np.linalg.norm(dil.v.conj().T @ dil.v - np.eye(d)) <= 1e-12
    # space splits into one block of size rank(P_j) per atom
    expected = sum(np.linalg.matrix_rank(a.weight, tol=1e-10)
                   for a in mu.atoms)
    assert dil.space_dim == expected
    assert dil.residuals["moment_vs_measure"] <= 1e-12
    # indices may come as any iterable, read once
    again = dk.assemble_atomic_dilation(mu, indices=((k,) for k in range(-2, 3)))
    assert again.residuals == dil.residuals
    assert dil.residuals["moment_vs_measure"] > 0.0
    u = dil.generators[0]
    for k in range(-2, 3):
        w = dk.word_image((k,), [u], negatives="inverse")
        assert np.linalg.norm(dil.compress(w) - mu.moment((k,))) <= 1e-12
    # spectrum sits exactly on the atom points
    eigs = {round(np.angle(z), 9) for z in np.linalg.eigvals(u)}
    atom_angles = {round(np.angle(a.point[0]), 9) for a in mu.atoms}
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
    # rank-one Choi weights outer(vec gamma) with sum gamma* gamma = I
    gammas = [complex_gaussian(rng, (b, d)) for _ in atoms]
    c = dk.inv_sqrt_psd(np.sum([g.conj().T @ g for g in gammas], axis=0))
    for atom, gamma in zip(atoms, gammas):
        g = (gamma @ c).reshape(-1)
        atom.weight = np.outer(g, g.conj())
    mu = dk.AtomicMeasure(dim=d, atoms=atoms, index_rule="ordered")
    assert np.linalg.norm(mu.unit_matrix() - np.eye(d)) <= 1e-12
    dil = dk.assemble_atomic_dilation(mu, indices=[(1, 0), (0, 1), (1, 1)])
    assert dil.provenance == "naimark-irrep"
    u1, u2 = dil.generators
    q = np.exp(2j * np.pi / 2)
    assert np.linalg.norm(u2 @ u1 - q * u1 @ u2) <= 1e-12
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(dil.space_dim)) <= 1e-12
    assert dil.residuals["moment_vs_measure"] <= 1e-12


def test_assemble_requires_normalization():
    mu = dk.AtomicMeasure(dim=1, atoms=[
        dk.PointAtom(point=[1.0], weight=np.array([[0.9]]))])
    with pytest.raises(NotNormalizedError):
        dk.assemble_atomic_dilation(mu)


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
    mu = dk.AtomicMeasure(dim=1, atoms=[
        dk.PointAtom(point=[1.0], weight=np.array([[1.0 - 1e-12]])),
        dk.PointAtom(point=[-1.0], weight=np.array([[1e-12]])),
    ])
    assert len(mu.pruned(1e-9).atoms) == 1


def test_irrep_contribution_matches_pure_states():
    """Choi-weighted word contributions agree with a rank-one expansion."""
    rng = np.random.default_rng(101)
    b, d = 3, 2
    atom = dk.clock_shift_irrep(1, 3)
    g = complex_gaussian(rng, (b * d,))
    atom.weight = np.outer(g, g.conj())
    gamma = g.reshape(b, d)
    w = dk.word_image((1, 1), atom.generators, rule="ordered")
    want = gamma.conj().T @ w @ gamma
    mu = dk.AtomicMeasure(dim=d, atoms=[atom], index_rule="ordered")
    got = mu.moment((1, 1))
    assert np.linalg.norm(got - want) <= 1e-12


def _laurent_reference(idx, z):
    """The scalar loop laurent_scalar reproduces: Python complex products."""
    acc = 1.0 + 0.0j
    for zi, ni in zip(np.atleast_1d(z), np.atleast_1d(idx)):
        if ni != 0:
            acc *= zi ** int(ni)
    return acc


def test_words_match_scalar_loops():
    """Stacked Laurent monomials and words equal the one-at-a-time loops
    bit for bit."""
    from dilatekit.measures import _words

    rng = np.random.default_rng(103)
    idx1 = [(k,) for k in range(-6, 7)]
    idx2 = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    idx3 = [(1, -2, 3), (-4, 0, 2), (2, 2, -1)]
    point_grids = [
        (dk.annulus_grid(12, 0.5), idx1),
        (dk.torus_grid(6, 2), idx2),
        ([dk.PointAtom(point=complex_gaussian(rng, 2)) for _ in range(20)], idx2),
        ([dk.PointAtom(point=complex_gaussian(rng, 3)) for _ in range(20)], idx3),
    ]
    for grid, indices in point_grids:
        words = _words(grid, indices, "laurent")
        want = np.array([[[[_laurent_reference(idx, a.point)]] for idx in indices]
                         for a in grid])
        assert words.shape == (len(grid), len(indices), 1, 1)
        assert np.array_equal(words.view(np.uint64), want.view(np.uint64))
        single = np.array([dk.laurent_scalar(indices[-1], a.point) for a in grid])
        assert np.array_equal(single.view(np.uint64),
                              want[:, -1, 0, 0].copy().view(np.uint64))
    ordered = [(i, j) for i in range(3) for j in range(3)] + [(-1, 0), (-1, -2)]
    for grid, indices, rule in [(dk.clock_phase_grid(1, 3, 3), ordered, "ordered"),
                                (dk.clock_phase_grid(1, 2, 2), idx2, "laurent")]:
        words = _words(grid, indices, rule)
        want = np.array([[dk.word_image(idx, a.generators, rule=rule)
                          for idx in indices] for a in grid])
        assert np.array_equal(words.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ShapeMismatchError):
        _words([dk.PointAtom(point=[0.0])], [(-1,)], "laurent")


@pytest.mark.parametrize("name", ["torus", "annulus", "clock_mixed"])
def test_fit_system_matches_measure(name):
    """A z and C z of _fit_system are the moments and the mass of the measure
    whose weights z stacks, as AtomicMeasure's own loops compute them."""
    from dilatekit.measures import _fit_system

    rng = np.random.default_rng(107)
    if name == "torus":
        t = random_contraction(rng, 2, 0.5)
        table, grid = dk.regular_moments([t, t @ t], 2), dk.torus_grid(4, 2)
    elif name == "annulus":
        t = np.diag([0.7, 0.8]) + 0.05 * complex_gaussian(rng, (2, 2))
        table, grid = dk.laurent_moments(t, 3), dk.annulus_grid(8, 0.5)
    else:
        table = dk.qcommuting_moments(0.5 * np.diag([1.0, -1.0]),
                                      np.array([[0.0, 0.5], [0.0, 0.0]]), 2)
        grid = dk.clock_phase_grid(1, 2, 3) + dk.clock_phase_grid(0, 1, 3)
    d = table.dim
    weights = [random_psd(rng, a.block_size(d)) / len(grid) for a in grid]
    mu = dk.AtomicMeasure(dim=d, index_rule=table.index_rule,
                          atoms=[a.with_weight(w) for a, w in zip(grid, weights)])
    a_mat, t_vec, c_mat, c_vec = _fit_system(table, grid)
    z = np.concatenate([dk.hvec(w) for w in weights])
    indices = [idx for idx in table.indices() if any(idx)]
    assert any(i < 0 for idx in indices for i in idx)
    rows = (a_mat @ z).reshape(len(indices), 2, d, d)
    targets = t_vec.reshape(len(indices), 2, d, d)
    for idx, row, target in zip(indices, rows, targets):
        m = mu.moment(idx)
        assert np.linalg.norm(row[0] + 1j * row[1] - m) <= 1e-13
        assert np.array_equal(target[0] + 1j * target[1], table.value(idx))
    assert np.linalg.norm(c_mat @ z - dk.hvec(mu.unit_matrix())) <= 1e-13
    assert np.array_equal(c_vec, dk.hvec(np.eye(d, dtype=complex)))
    # bit for bit the einsum of every basis weight with every word
    from dilatekit.measures import _atom_groups, _herm_to_cvec, _words

    for kind, m, pos, cols in _atom_groups(grid, d):
        basis = _herm_to_cvec(m).T.reshape(m * m, m // d, d, m // d, d)
        words = _words([grid[j] for j in pos], indices, table.index_rule)
        g = "tpsq" if kind is dk.PointAtom else "tqsp"
        block = np.einsum(f"aist,k{g}->ipqak", words, basis)
        unit = dk.hvec(np.einsum(f"k{g.replace('t', 's')}->kpq", basis)).T
        _assert_bits(a_mat[:, cols], np.stack([block.real, block.imag], axis=1).reshape(
            t_vec.size, cols.size))
        _assert_bits(c_mat[:, cols], np.tile(unit, len(pos)))


def test_irrep_measure_combination_roundtrip():
    rng = np.random.default_rng(109)
    b, d = 2, 2
    atoms = dk.clock_phase_grid(1, 2, 3)
    # two rank-one Choi pieces per atom with sum gamma* gamma = I
    gammas = [complex_gaussian(rng, (2, b, d)) for _ in atoms]
    c = dk.inv_sqrt_psd(sum(g.conj().T @ g for pair in gammas for g in pair))
    for atom, pair in zip(atoms, gammas):
        vecs = [(g @ c).reshape(-1) for g in pair]
        atom.weight = sum(np.outer(v, v.conj()) for v in vecs)
    mu = dk.AtomicMeasure(dim=d, atoms=atoms, index_rule="ordered")
    assert np.linalg.norm(mu.unit_matrix() - np.eye(d)) <= 1e-12
    values = {idx: mu.moment(idx) for idx in [(1, 0), (0, 1), (1, 1), (2, 1)]}
    table = dk.MomentTable(dim=d, nu=2, values=values, index_rule="ordered")
    comb = dk.measure_to_combination(mu, table)
    assert comb.defect() <= 1e-10
    assert len(comb.terms) == 2 * len(atoms)
    canonical = [idx for idx in table.indices()
                 if any(idx) and next(i for i in idx if i != 0) > 0]
    for _, point in comb.terms:
        atom = mu.atoms[point.label]
        assert len(point.coords) == 2 * len(canonical)
        for k, idx in enumerate(canonical):
            w = dk.word_image(idx, atom.generators, rule="ordered")
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


def _dense_kkt_fit(targets, grid, seed=0):
    """Reference ADMM whose x-step solves the dense (ncols + d^2) KKT system.

    Same seed, penalty schedule and stopping rule as fit_matrix_measure;
    returns the stacked weights before pruning.
    """
    import scipy.linalg

    from dilatekit.measures import (_CHECK_EVERY, _MAX_ITER, _RHO, _atom_groups,
                                    _fit_system, _herm_to_cvec)

    d = targets.dim
    a_mat, t_vec, c_mat, c_vec = _fit_system(targets, grid)
    ncols = a_mat.shape[1]
    sizes = np.array([a.block_size(d) for a in grid])
    groups = list(_atom_groups(grid, d))
    gram, atb, rho = a_mat.T @ a_mat, a_mat.T @ t_vec, _RHO

    def factor(rho_val):
        kkt = np.zeros((ncols + d * d, ncols + d * d))
        kkt[:ncols, :ncols] = gram + rho_val * np.eye(ncols)
        kkt[:ncols, ncols:] = c_mat.T
        kkt[ncols:, :ncols] = c_mat
        return scipy.linalg.lu_factor(kkt)

    def project_blocks(v):
        out = np.empty_like(v)
        for _, m, _, cols in groups:
            phi = _herm_to_cvec(m)
            mats = (v[cols].reshape(-1, m * m) @ phi.T).reshape(-1, m, m)
            blocks = _ref_fit_projection(mats)
            out[cols] = (blocks.reshape(-1, m * m) @ phi.conj()).real.reshape(-1)
        return out

    lu = factor(rho)
    weights = (0.5 + 0.5 * np.random.default_rng(seed).random(len(grid))) / len(grid)
    z = np.repeat(weights, sizes ** 2) * (c_mat.T @ c_vec)
    u = np.zeros(ncols)
    rhs = np.empty(ncols + d * d)
    rhs[ncols:] = c_vec
    for it in range(1, _MAX_ITER + 1):
        rhs[:ncols] = atb + rho * (z - u)
        x = scipy.linalg.lu_solve(lu, rhs)[:ncols]
        z_old = z
        z = project_blocks(x + u)
        u = u + x - z
        if it % _CHECK_EVERY == 0 or it == _MAX_ITER:
            resid = float(np.linalg.norm(a_mat @ z - t_vec))
            unit_def = float(np.linalg.norm(c_mat @ z - c_vec))
            if resid <= 0.9 * dk.DEFAULT_TOL.fit_tol and unit_def <= 1e-9:
                break
            r_primal = float(np.linalg.norm(x - z))
            r_dual = rho * float(np.linalg.norm(z - z_old))
            if it % (_CHECK_EVERY * 8) == 0:
                if r_primal > 10.0 * r_dual and rho < 1e4:
                    rho, u = rho * 2.0, u / 2.0
                    lu = factor(rho)
                elif r_dual > 10.0 * r_primal and rho > 1e-4:
                    rho, u = rho / 2.0, u * 2.0
                    lu = factor(rho)
    return z


@pytest.mark.parametrize("name", ["torus", "clock_mixed"])
def test_fit_matches_dense_kkt_reference(name):
    """The row-space x-step reproduces the dense KKT ADMM: the same atoms
    survive pruning, with weights equal to roundoff."""
    from dilatekit.measures import _PRUNE_TOL, _fit_system

    rng = np.random.default_rng(113)
    if name == "clock_mixed":
        table = dk.qcommuting_moments(0.5 * np.diag([1.0, -1.0]),
                                      np.array([[0.0, 0.5], [0.0, 0.0]]), 1)
        grid = dk.clock_phase_grid(1, 2, 4) + dk.clock_phase_grid(0, 1, 4)
    else:
        # commuting unitaries with spectrum on the lattice: thousands of
        # iterations, penalty changes, and most atoms pruned
        u = random_unitary(rng, 2)
        spectra = np.exp(2j * np.pi * rng.integers(0, 6, size=(2, 2)) / 6)
        table = dk.regular_moments([u @ np.diag(s) @ u.conj().T for s in spectra], 1)
        grid = dk.torus_grid(6, 2)
        # L_{-n} = L_n*: the rows at -n repeat those at n, so [A; C] is
        # rank deficient
        a_mat, _, c_mat, _ = _fit_system(table, grid)
        w = np.vstack([a_mat, c_mat])
        assert np.linalg.matrix_rank(w) < min(w.shape)
    d = table.dim
    z = _dense_kkt_fit(table, grid)
    sizes = [a.block_size(d) for a in grid]
    blocks = np.split(z, np.cumsum(np.square(sizes))[:-1])
    want = [(j, dk.hunvec(v, m)) for j, (v, m) in enumerate(zip(blocks, sizes))
            if np.linalg.norm(dk.hunvec(v, m)) >= _PRUNE_TOL]
    mu = dk.fit_matrix_measure(table, grid)
    assert len(mu.atoms) == len(want)
    for a, (j, weight) in zip(mu.atoms, want):
        if isinstance(a, dk.PointAtom):
            assert np.array_equal(a.point, grid[j].point)
        else:
            assert all(np.array_equal(g, h)
                       for g, h in zip(a.generators, grid[j].generators))
        assert np.linalg.norm(a.weight - weight) <= 1e-10


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


def _ref_choi_pieces(a, d, tol=dk.DEFAULT_TOL):
    """Rank-one pieces of one irrep atom's Choi weight, top down."""
    lam, q = np.linalg.eigh(dk.herm_part(a.weight))
    lmax = max(float(lam[-1]), 0.0)
    pieces = []
    for k in range(lam.size - 1, -1, -1):
        if lam[k] <= tol.rank_tol * lmax or lam[k] <= 0:
            break
        pieces.append(np.sqrt(lam[k]) * q[:, k].reshape(a.rep_dim, d))
    return pieces


def _ref_pieces(a, d):
    if isinstance(a, dk.PointAtom):
        f = _ref_rank_factor(dk.herm_part(a.weight))
        return [f[k:k + 1] for k in range(f.shape[0])]
    return _ref_choi_pieces(a, d)


def _ref_g4(a, d):
    b = a.block_size(d) // d
    return a.weight.reshape(b, d, b, d)


def _ref_unit_matrix(mu):
    s = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for a in mu.atoms:
        if isinstance(a, dk.PointAtom):
            s += a.weight
        else:
            s += np.einsum("sqsp->pq", _ref_g4(a, mu.dim))
    return s


def _ref_moment(mu, idx):
    m = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for a in mu.atoms:
        if isinstance(a, dk.PointAtom):
            m += dk.laurent_scalar(idx, a.point) * a.weight
        else:
            w = dk.word_image(idx, a.generators, rule=mu.index_rule)
            m += np.einsum("st,tqsp->pq", w, _ref_g4(a, mu.dim))
    return m


def _ref_normalized_weights(mu):
    r = dk.inv_sqrt_psd(_ref_unit_matrix(mu))
    out = []
    for a in mu.atoms:
        if isinstance(a, dk.PointAtom):
            w = r @ a.weight @ r
        else:
            g4 = np.einsum("sPtQ,Pp,Qq->sptq", _ref_g4(a, mu.dim), r, r.conj())
            w = g4.reshape(a.weight.shape)
        out.append(dk.herm_part(w))
    return out


def _ref_combination_weights(comb, mu):
    acc = {}
    for gamma, point in comb.terms:
        if isinstance(mu.atoms[point.label], dk.PointAtom):
            w = gamma.conj().T @ gamma
        else:
            g = gamma.reshape(-1)
            w = np.outer(g, g.conj())
        acc[point.label] = acc.get(point.label, 0) + w
    return [dk.herm_part(w) for _, w in sorted(acc.items())]


def _ref_assembly(mu):
    """V and the generators of the Naimark dilation, block by block."""
    import scipy.linalg

    v_blocks, gen_blocks = [], []
    for a in mu.atoms:
        pieces = _ref_pieces(a, mu.dim)
        if isinstance(a, dk.PointAtom):
            if pieces:
                r = len(pieces)
                v_blocks.append(np.vstack(pieces))
                gen_blocks.append([z * np.eye(r, dtype=np.complex128) for z in a.point])
        else:
            v_blocks.extend(pieces)
            gen_blocks.extend([a.generators] * len(pieces))
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
        raw = replace(raw, atoms=[a.with_weight(1.01 * a.weight) for a in raw.atoms])
        table = dk.MomentTable(dim=2, nu=1, values={(k,): raw.moment((k,))
                                                    for k in range(1, 4)})
    elif name == "point_d3":
        t = random_contraction(rng, 3, norm=0.4)
        raw = dk.quadrature_measure(t, dk.BoundaryCurve.ellipse(1.0, 0.6), 192)
        table = dk.MomentTable(dim=3, nu=1, values={(k,): raw.moment((k,))
                                                    for k in range(1, 5)})
    elif name == "irrep_b2":
        atoms = dk.clock_phase_grid(1, 2, 3)
        for a, rank in zip(atoms, [1, 2, 4, 3, 1, 2, 1, 4, 2]):
            a.weight = random_psd(rng, 4, rank) / 20.0
        raw = dk.AtomicMeasure(dim=2, atoms=atoms, index_rule="ordered")
        raw = replace(raw, atoms=[a.with_weight(1.01 * w) for a, w in
                                  zip(atoms, _ref_normalized_weights(raw))])
        table = dk.MomentTable(dim=2, nu=2, index_rule="ordered", values={
            idx: raw.moment(idx) for idx in [(1, 0), (0, 1), (1, 1), (2, 1)]})
    else:
        table = dk.qcommuting_moments(0.5 * np.diag([1.0, -1.0]),
                                      np.array([[0.0, 0.5], [0.0, 0.0]]), 1)
        grid = dk.clock_phase_grid(1, 2, 4) + dk.clock_phase_grid(0, 1, 4)
        raw = dk.fit_matrix_measure(table, grid)
        if name == "clock_mixed_shuffled":
            # interleave the b = 1 and b = 2 groups
            order = rng.permutation(len(raw.atoms))
            raw = replace(raw, atoms=[raw.atoms[j] for j in order])
    return raw, table


@pytest.mark.parametrize("name", ["point_d1", "point_d2", "point_d3", "irrep_b2",
                                  "clock_mixed",
                                  "clock_mixed_shuffled"])
def test_back_half_matches_per_atom_loops(name):
    """The stacked group walk reproduces the per-atom loops bit for bit:
    mass, moments, normalization, the rank-one split, the combination
    view and back, and the Naimark assembly."""
    from dilatekit.measures import _atom_groups

    raw, table = _back_half_case(name)
    d = raw.dim
    _assert_bits(raw.unit_matrix(), _ref_unit_matrix(raw))
    mu = raw.normalized()
    for a, want in zip(mu.atoms, _ref_normalized_weights(raw)):
        _assert_bits(a.weight, want)
    assert len(list(_atom_groups(mu.atoms, d))) == (
        2 if name.startswith("clock") else 1)
    indices = list(table.indices())
    for idx in indices:
        _assert_bits(mu.moment(idx), _ref_moment(mu, idx))
    for a in mu.atoms:
        if isinstance(a, dk.PointAtom):
            f, r = dk.numerical_rank_factor(a.weight)
            _assert_bits(f, _ref_rank_factor(dk.herm_part(a.weight)))
    comb = dk.measure_to_combination(mu, table)
    want = [(gamma, j) for j, a in enumerate(mu.atoms) for gamma in _ref_pieces(a, d)]
    assert len(comb.terms) == len(want)
    for (gamma, point), (ref, j) in zip(comb.terms, want):
        assert point.label == j
        _assert_bits(gamma, ref)
    reduced = dk.caratheodory_reduce(comb)
    slim = dk.combination_to_measure(reduced, mu)
    for a, w in zip(slim.atoms, _ref_combination_weights(reduced, mu)):
        _assert_bits(a.weight, w)
    dil = dk.assemble_atomic_dilation(mu, indices=indices)
    v, gens = _ref_assembly(mu)
    _assert_bits(dil.v, v)
    assert len(dil.generators) == len(gens)
    for g, ref in zip(dil.generators, gens):
        _assert_bits(g, ref)
    assert dil.residuals["moment_vs_measure"] <= 1e-12


def test_psd_project_stacks_match_single_and_fit_kernels():
    """psd_project on a stack equals psd_project matrix by matrix, and the
    kernel the fit wrote out for its hvec stacks, bit for bit."""
    from dilatekit.measures import _atom_groups, _herm_to_cvec

    rng = np.random.default_rng(131)
    for d, n in ((2, 40), (3, 64)):
        a = complex_gaussian(rng, (n, d, d))
        out = dk.psd_project(a)
        for got, m in zip(out, a):
            _assert_bits(got, _ref_psd_project(m))
        _assert_bits(dk.psd_project(a[0]), _ref_psd_project(a[0]))
    grid = dk.clock_phase_grid(1, 2, 4) + dk.clock_phase_grid(0, 1, 4)
    for _, m, _, cols in _atom_groups(grid, 2):
        v = rng.normal(size=cols.size)
        mats = (v.reshape(-1, m * m) @ _herm_to_cvec(m).T).reshape(-1, m, m)
        _assert_bits(dk.psd_project(mats), _ref_fit_projection(mats))
    with pytest.raises(dk.NonSquareError):
        dk.psd_project(np.zeros((4, 2, 3)))


def test_back_half_eigh_calls_per_group(monkeypatch):
    """measure_to_combination and assemble_atomic_dilation split weights
    with one batched eigh per atom group, not one per atom."""
    from dilatekit.measures import _atom_groups

    rng = np.random.default_rng(137)
    t = random_contraction(rng, 3, norm=0.4)
    mu = dk.quadrature_measure(t, dk.BoundaryCurve.ellipse(1.0, 0.6), 192)
    table = dk.MomentTable(dim=3, nu=1, values={(k,): mu.moment((k,))
                                                for k in range(1, 5)})
    groups = len(list(_atom_groups(mu.atoms, 3)))
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    dk.measure_to_combination(mu, table)
    dk.assemble_atomic_dilation(mu, indices=table.indices())
    assert len(mu.atoms) == 192 and groups == 1
    assert 1 <= len(shapes) <= 2 * groups
    assert all(s == (192, 3, 3) for s in shapes)


@pytest.mark.parametrize("kind", ["point", "irrep"])
def test_negative_weight_raises_for_both_kinds(kind):
    """One split rule: a weight with an eigenvalue below -psd_tol is NotPSD
    for an irrep's Choi block exactly as for a point's weight."""
    if kind == "irrep":
        atoms = dk.clock_phase_grid(1, 2, 1)
        atoms[0].weight = np.diag([1.0, -0.3])
        mu = dk.AtomicMeasure(dim=1, atoms=atoms, index_rule="ordered")
        values = {idx: mu.moment(idx) for idx in [(1, 0), (0, 1)]}
        table = dk.MomentTable(dim=1, nu=2, values=values, index_rule="ordered")
    else:
        atoms = [dk.PointAtom(point=[1j], weight=np.diag([1.0, -0.3]))]
        mu = dk.AtomicMeasure(dim=2, atoms=atoms)
        table = dk.MomentTable(dim=2, nu=1, values={(1,): mu.moment((1,))})
    # the negative part is 0.3 of a unit mass, not roundoff
    assert np.linalg.norm(mu.unit_matrix()) <= 1.1
    with pytest.raises(NotPSDError) as exc:
        dk.measure_to_combination(mu, table)
    assert exc.value.min_eig == pytest.approx(-0.3)


def test_atoms_without_weight_raise():
    """Every measure operation names the first atom that has no weight of
    its block size; pruned() still drops such atoms."""
    mu = dk.AtomicMeasure(dim=1, atoms=dk.circle_grid(4))
    calls = [mu.unit_matrix, mu.normalized, lambda: mu.moment((1,)), mu.validate,
             lambda: dk.assemble_atomic_dilation(mu),
             lambda: dk.measure_to_combination(
                 mu, dk.MomentTable(dim=1, nu=1, values={(1,): np.zeros((1, 1))}))]
    for call in calls:
        with pytest.raises(ShapeMismatchError, match="atom 0 has no 1 x 1 weight"):
            call()
    atoms = dk.circle_grid(4)
    atoms[2].weight = np.array([[1.0]])
    atoms[3].weight = np.eye(2)
    mu = dk.AtomicMeasure(dim=1, atoms=atoms)
    with pytest.raises(ShapeMismatchError, match="atom 0 "):
        mu.unit_matrix()
    with pytest.raises(ShapeMismatchError, match="atom 1 has no 1 x 1 weight"):
        dk.AtomicMeasure(dim=1, atoms=atoms[2:]).unit_matrix()
    assert len(mu.pruned(1e-9).atoms) == 2
    irreps = dk.AtomicMeasure(dim=2, atoms=dk.clock_phase_grid(1, 2, 2),
                              index_rule="ordered")
    with pytest.raises(ShapeMismatchError, match="atom 0 has no 4 x 4 weight"):
        irreps.normalized()
