"""Acceptance sweep: the package's headline guarantees, one test each.

Every test prints a single pass/fail line (bypassing capture) so a full
run reads as a checklist.  Constructions from the dilation criteria are
kept in a module-scoped bank; the dimension criterion replays them and
checks the subhomogeneity slack on each.
"""

import time

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import convex
from dilatekit.measures import _canonical_indices
from conftest import (
    algebra_dimension,
    complex_gaussian,
    numerical_radius,
    random_combination,
    random_contraction,
    random_point,
    random_psd,
    random_unitary,
)


@pytest.fixture(scope="module")
def bank():
    """Dilation constructions shared with the dimension criterion."""
    return {}


def emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")


def unitarity_defect(u):
    eye = np.eye(u.shape[0])
    return max(np.linalg.norm(u.conj().T @ u - eye),
               np.linalg.norm(u @ u.conj().T - eye))


def test_criterion_01_unitary_dilation_sweep(bank, capsys):
    rng = np.random.default_rng(101)
    bad = []
    worst_unitary = 0.0
    worst_resid = 0.0
    start = time.perf_counter()
    results = []
    for i in range(50):
        d = int(rng.integers(1, 7))
        order = int(rng.integers(1, 9))
        t = random_contraction(rng, d, norm=float(rng.uniform(0.2, 1.0)))
        res = dk.dilate_circle(t, order=order)
        results.append(res)
        u = res.dilation.generators[0]
        udef = unitarity_defect(u)
        worst_unitary = max(worst_unitary, udef)
        resid = res.verification.max_moment_residual
        worst_resid = max(worst_resid, resid)
        k = res.dilation.space_dim
        if udef > 1e-10:
            bad.append(f"#{i}: unitarity {udef:.2e}")
        if resid > 1e-8:
            bad.append(f"#{i}: residual {resid:.2e}")
        if not (k <= (order + 1) * d <= 2 * d ** 3 * (order + 1)):
            bad.append(f"#{i}: K={k} breaks (N+1)d={(order + 1) * d}")
        if not res.passed:
            bad.append(f"#{i}: result not passed")
    elapsed = time.perf_counter() - start
    if elapsed > 5.0:
        bad.append(f"took {elapsed:.2f}s > 5s")
    bank[1] = results
    emit(capsys, 1, "unitary dilations from contractions", not bad,
         f"50 runs, unitarity {worst_unitary:.1e}, residual "
         f"{worst_resid:.1e}, {elapsed:.2f}s")
    assert not bad, bad


def test_criterion_02_radius_scaled_dilations(bank, capsys):
    rng = np.random.default_rng(102)
    bad = []
    worst = 0.0
    results = []
    fixtures = [(np.array([[0.0, 2.0], [0.0, 0.0]]), 4)]
    for _ in range(20):
        d = int(rng.integers(1, 6))
        order = int(rng.integers(1, 7))
        fixtures.append((complex_gaussian(rng, (d, d)), order))
    for i, (raw, order) in enumerate(fixtures):
        t = raw / numerical_radius(raw)
        res = dk.dilate_circle(t, order=order, rho=2.0)
        results.append(res)
        u = res.dilation.generators[0]
        power = np.eye(res.dilation.space_dim)
        for k in range(1, order + 1):
            power = power @ u
            defect = np.linalg.norm(
                2.0 * res.dilation.compress(power)
                - np.linalg.matrix_power(t, k))
            worst = max(worst, float(defect))
            if defect > 1e-8:
                bad.append(f"#{i} k={k}: defect {defect:.2e}")
        k = res.dilation.space_dim
        if k > (order + 1) * t.shape[0]:
            bad.append(f"#{i}: K={k} breaks (N+1)d={(order + 1) * t.shape[0]}")
        if not res.passed:
            bad.append(f"#{i}: result not passed")
    bank[2] = results
    emit(capsys, 2, "numerical-radius dilations (rho=2)", not bad,
         f"{len(fixtures)} runs, power defect {worst:.1e}")
    assert not bad, bad


def test_criterion_03_psd_feasibility_gate(capsys):
    rng = np.random.default_rng(103)
    bad = []
    for i in range(50):
        d = int(rng.integers(1, 5))
        t = random_contraction(rng, d, norm=1.05 + float(rng.uniform(0, 0.5)))
        kernel = dk.toeplitz_kernel(dk.circle_moments(t, 1.0, 1))
        low = float(np.linalg.eigvalsh(kernel)[0])
        if low >= -1e-6:
            bad.append(f"expansive #{i}: min eig {low:.2e} not < -1e-6")
        try:
            dk.dilate_circle(t, order=1)
            bad.append(f"expansive #{i}: dilation not refused")
        except dk.NotPSDError:
            pass
    for i in range(50):
        d = int(rng.integers(1, 5))
        order = int(rng.integers(1, 5))
        t = random_contraction(rng, d, norm=float(rng.uniform(0, 1.0)))
        kernel = dk.toeplitz_kernel(dk.circle_moments(t, 1.0, order))
        low = float(np.linalg.eigvalsh(kernel)[0])
        if low < -1e-9:
            bad.append(f"contractive #{i}: min eig {low:.2e} < -1e-9")
    emit(capsys, 3, "block Toeplitz PSD gate", not bad,
         "100 kernels, expansive rejected / contractive admitted")
    assert not bad, bad


def test_criterion_04_caratheodory_reduction(capsys):
    rng = np.random.default_rng(104)
    bad = []
    worst_recon = 0.0
    start = time.perf_counter()
    for i in range(100):
        n = int(rng.integers(1, 4))
        nvars = int(rng.integers(1, 4))
        length = int(rng.integers(2, 41))
        selfadjoint = bool(rng.integers(0, 2))
        comb = random_combination(rng, n, nvars, length, selfadjoint)
        reduced = dk.caratheodory_reduce(comb)
        cap = n * n * ((nvars + 1) if selfadjoint else (2 * nvars + 1))
        if len(reduced.terms) > cap:
            bad.append(f"#{i}: {len(reduced.terms)} terms > {cap}")
        before = comb.barycenter()
        after = reduced.barycenter()
        recon = max(float(np.linalg.norm(a - b))
                    for a, b in zip(after, before))
        worst_recon = max(worst_recon, recon)
        if recon > 1e-9:
            bad.append(f"#{i}: barycenter moved {recon:.2e}")
        if reduced.defect() > 1e-10:
            bad.append(f"#{i}: sum beta*beta defect {reduced.defect():.2e}")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        bad.append(f"took {elapsed:.2f}s > 10s")
    emit(capsys, 4, "Caratheodory reduction", not bad,
         f"100 combos, barycenter drift {worst_recon:.1e}, {elapsed:.2f}s")
    assert not bad, bad


def test_criterion_05_lift_unlift_roundtrip(capsys):
    rng = np.random.default_rng(105)
    bad = []
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 4))
        nvars = int(rng.integers(1, 4))
        # at least n rank-one terms so the normalization is a true sum
        length = int(rng.integers(n, 13))
        selfadjoint = bool(rng.integers(0, 2))
        comb = random_combination(rng, n, nvars, length, selfadjoint)
        kept, weights, gammas, alpha, _ = convex._lift_terms(comb)
        points = [comb.terms[j][1] for j in kept]
        rebuilt = convex._unlift(comb.n, weights, gammas, alpha, points)
        down = max(float(np.linalg.norm(b2 - b1))
                   for (b1, _), (b2, _) in zip(comb.terms, rebuilt.terms))
        _, w2, g2, _, _ = convex._lift_terms(rebuilt)
        up = float(np.max(np.abs(weights - w2)))
        up = max(up, max(float(np.linalg.norm(x - y)) for x, y in zip(gammas, g2)))
        worst = max(worst, down, up)
        if down > 1e-10 or up > 1e-10:
            bad.append(f"#{i}: down {down:.2e} up {up:.2e}")
    emit(capsys, 5, "lift/unlift roundtrip", not bad,
         f"100 combos, max drift {worst:.1e}")
    assert not bad, bad


def test_criterion_06_boundary_measure_dilation(bank, capsys):
    bad = []
    start = time.perf_counter()
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    # scale a random 3x3 so its numerical range sits at margin 0.05:
    # close enough to the curve that 128 nodes is visibly unconverged
    rng = np.random.default_rng(106)
    t0 = complex_gaussian(rng, (3, 3))
    rep = dk.numerical_range(t0, angles=512)
    csup = curve.support(rep.thetas)
    mask = rep.support > 1e-12
    t = t0 * float(np.min((csup[mask] - 0.05) / rep.support[mask]))
    if not dk.contains_numerical_range(t, curve, margin=0.0499):
        bad.append("fixture margin below 0.05")

    _, zref, _ = curve.sample(4096)

    def skew_defects(res, nodes):
        """Frobenius defect of f(T) + (C conj f)(T)* - 2 V* f(N) V against
        the 4096-node reference transform, per power k <= 4."""
        big = res.dilation.generators[0]
        out = []
        power_t = np.eye(3, dtype=np.complex128)
        power_n = np.eye(res.dilation.space_dim, dtype=np.complex128)
        for k in range(1, 5):
            power_t = power_t @ t
            power_n = power_n @ big
            ck = dk.cauchy_transform(zref ** k, curve, t)
            lhs = power_t + ck.conj().T
            rhs = 2.0 * res.dilation.compress(power_n)
            out.append(float(np.linalg.norm(lhs - rhs)))
        return out

    res256 = dk.dilate_boundary(t, curve, order=4, nodes=256)
    d256 = skew_defects(res256, 256)
    if max(d256) > 1e-5:
        bad.append(f"256-node defects {max(d256):.2e} > 1e-5")
    if not res256.passed:
        bad.append("256-node result not passed")
    res128 = dk.dilate_boundary(t, curve, order=4, nodes=128)
    d128 = skew_defects(res128, 128)
    ratio = min(a / max(b, 1e-300) for a, b in zip(d128, d256))
    if ratio < 4.0:
        bad.append(f"refinement ratio {ratio:.2f} < 4")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        bad.append(f"took {elapsed:.2f}s > 10s")
    bank[6] = [res256, res128]
    emit(capsys, 6, "boundary-measure normal dilation", not bad,
         f"defect {max(d256):.1e}, refinement x{ratio:.0f}, {elapsed:.2f}s")
    assert not bad, bad


def test_criterion_07_atomic_naimark(bank, capsys):
    rng = np.random.default_rng(107)
    bad = []
    worst = 0.0
    dils = []
    for i in range(25):
        d = int(rng.integers(1, 5))
        n_atoms = int(rng.integers(1, 9))
        on_circle = bool(rng.integers(0, 2))
        if on_circle:
            zs = np.exp(2j * np.pi * rng.uniform(size=n_atoms))
        else:
            zs = complex_gaussian(rng, (n_atoms,))
            zs = zs / np.maximum(np.abs(zs), 0.5)  # keep inverses tame
        ranks = [int(rng.integers(1, d + 1)) for _ in range(n_atoms)]
        ranks[0] = d  # total mass must be invertible to normalize
        weights = [random_psd(rng, d, r) for r in ranks]
        corr = dk.inv_sqrt_psd(sum(weights))
        atoms = dk.Atoms.from_points(zs, [corr @ w @ corr for w in weights])
        mu = dk.AtomicMeasure(dim=d, atoms=atoms)
        indices = [(k,) for k in range(-2, 3)]
        dil = dk.assemble_atomic_dilation(mu)
        dils.append((mu, dk.MomentTable(dim=d, nu=1, symmetric=on_circle, values={
            idx: mu.moment(idx) for idx in indices if any(idx)})))
        eye = np.eye(d)
        iso = float(np.linalg.norm(dil.v.conj().T @ dil.v - eye))
        if iso > 1e-12:
            bad.append(f"#{i}: isometry defect {iso:.2e}")
        ranks_sum = sum(int(np.linalg.matrix_rank(w, tol=1e-10))
                        for w in mu.atoms.weights)
        if dil.space_dim != ranks_sum:
            bad.append(f"#{i}: K={dil.space_dim} != sum ranks={ranks_sum}")
        for idx in indices:
            word = dk.word_image(idx, dil.generators, negatives="inverse")
            got = dil.compress(word)
            resid = float(np.linalg.norm(got - mu.moment(idx)))
            worst = max(worst, resid)
            if resid > 1e-12:
                bad.append(f"#{i} idx={idx}: residual {resid:.2e}")
    bank[7] = dils
    emit(capsys, 7, "atomic measures to isometric dilations", not bad,
         f"25 measures, moment defect {worst:.1e}")
    assert not bad, bad


def test_criterion_08_qcommuting_pair(bank, capsys):
    bad = []
    a, b = 1, 2
    q = np.exp(2j * np.pi * a / b)
    t1 = np.diag([1.0, q])
    t2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    res = dk.dilate_qcommute(t1, t2, a=a, b=b, order=1, nodes=8)
    u1, u2 = res.dilation.generators
    rel = float(np.linalg.norm(u2 @ u1 - q * (u1 @ u2)))
    if rel > 1e-12:
        bad.append(f"relation defect {rel:.2e}")
    worst = 0.0
    for n in range(2):
        for m in range(2):
            word = (np.linalg.matrix_power(u1, n)
                    @ np.linalg.matrix_power(u2, m))
            target = (np.linalg.matrix_power(t1, n)
                      @ np.linalg.matrix_power(t2, m))
            resid = float(np.linalg.norm(res.dilation.compress(word) - target))
            worst = max(worst, resid)
            if resid > 1e-6:
                bad.append(f"word ({n},{m}): residual {resid:.2e}")
    cap = 2 * b ** 2 * 2 ** 3 * (1 + 1) ** 2
    if res.dilation.space_dim > cap:
        bad.append(f"K={res.dilation.space_dim} > {cap}")
    if not res.passed:
        bad.append("result not passed")
    bank[8] = [res]
    emit(capsys, 8, "q-commuting unitary pair", not bad,
         f"K={res.dilation.space_dim} <= {cap}, relation {rel:.1e}, "
         f"worst word {worst:.1e}")
    assert not bad, bad


def test_criterion_09_irreducible_decomposition(capsys):
    rng = np.random.default_rng(109)
    bad = []
    worst = 0.0
    for i in range(50):
        nvars = int(rng.integers(1, 3))
        levels = [int(rng.integers(1, 4))
                  for _ in range(int(rng.integers(2, 4)))]
        n = sum(levels)
        blocks = [random_point(rng, k, nvars, selfadjoint=False)
                  for k in levels]
        w = random_unitary(rng, n)
        coords = []
        for v in range(nvars):
            big = np.zeros((n, n), dtype=np.complex128)
            at = 0
            for blk in blocks:
                k = blk.level
                big[at:at + k, at:at + k] = blk.coords[v]
                at += k
            coords.append(w @ big @ w.conj().T)
        x = dk.MatrixPoint(coords=coords, selfadjoint=False)
        leaves = dk.decompose_irreducible(x)
        if sum(leaf.level for _, leaf in leaves) != n:
            bad.append(f"#{i}: leaf levels do not sum to {n}")
        for v in range(nvars):
            recon = np.zeros((n, n), dtype=np.complex128)
            for emb, leaf in leaves:
                recon += emb @ leaf.coords[v] @ emb.conj().T
            drift = float(np.linalg.norm(recon - coords[v]))
            worst = max(worst, drift)
            if drift > 1e-9:
                bad.append(f"#{i} var {v}: recombination {drift:.2e}")
        for _, leaf in leaves:
            k = leaf.level
            dim = algebra_dimension(leaf.coords)
            if dim != k * k:
                bad.append(f"#{i}: leaf level {k} algebra dim {dim}")
    emit(capsys, 9, "irreducible decomposition", not bad,
         f"50 direct sums, recombination {worst:.1e}, leaves certified")
    assert not bad, bad


def test_criterion_10_dimension_slack(bank, capsys):
    if not bank:
        pytest.skip("needs the constructions from the earlier criteria")
    bad = []
    checked = 0
    for num in sorted(bank):
        for entry in bank[num]:
            if isinstance(entry, tuple):
                # a measure's own dilation has as many dimensions as its
                # atoms' ranks add up to; the bound is the reduction's, so
                # the measure is reduced first, as the measure routes do
                mu, table = entry
                reduced = dk.caratheodory_reduce(dk.measure_to_combination(mu, table))
                dil = dk.assemble_atomic_dilation(dk.combination_to_measure(reduced, mu))
                report = dk.dimension_report(
                    dil, mu.dim, 2 * len(_canonical_indices(table)) + 1)
            else:
                report = entry.dimensions
            checked += 1
            if report.slack < 0 or not report.ok:
                bad.append(f"criterion {num}: slack {report.slack}")
    emit(capsys, 10, "subhomogeneity dimension slack", not bad,
         f"{checked} constructions, slack >= 0 on all")
    assert not bad, bad


def test_criterion_11_feasibility_boundary(capsys):
    bad = []
    # no probability measure on the annulus circles has first moment 1.5
    table = dk.MomentTable(dim=1, nu=1, values={(1,): np.array([[1.5]])})
    grid = dk.annulus_grid(16, 0.5)
    try:
        dk.fit_matrix_measure(table, grid)
        bad.append("infeasible table was not refused")
    except dk.InfeasibleError as exc:
        if exc.residual <= 0.1:
            bad.append(f"refusal residual {exc.residual:.2e} suspiciously low")
    # a unitary with on-grid spectrum is matched through order 3
    rng = np.random.default_rng(111)
    nodes = 16
    spectrum = np.exp(2j * np.pi * np.array([1, 5, 11]) / nodes)
    w = random_unitary(rng, 3)
    t = w @ np.diag(spectrum) @ w.conj().T
    res = dk.dilate_annulus(t, 0.5, order=3, nodes=nodes)
    resid = res.verification.max_moment_residual
    if resid > 1e-6:
        bad.append(f"feasible side residual {resid:.2e} > 1e-6")
    if not res.passed:
        bad.append("feasible result not passed")
    emit(capsys, 11, "fit feasibility boundary", not bad,
         f"infeasible refused, feasible residual {resid:.1e}")
    assert not bad, bad
