import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    NonConvexCurveError,
    NotContainedError,
    ResolventSingularError,
)

from conftest import complex_gaussian, random_contraction, random_unitary


def test_numerical_range_nilpotent_disc():
    # W([[0, 2], [0, 0]]) is the closed unit disc: support function == 1
    rep = dk.numerical_range(np.array([[0.0, 2.0], [0.0, 0.0]]), angles=128)
    assert np.max(np.abs(rep.support - 1.0)) <= 1e-9
    assert rep.radius == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(np.abs(rep.points) - 1.0)) <= 1e-9


def test_numerical_range_normal_hull():
    eigs = np.array([1.0, 1j, -1.0, -0.5j])
    rep = dk.numerical_range(np.diag(eigs), angles=64)
    for th, h in zip(rep.thetas, rep.support):
        want = np.max(np.real(np.exp(-1j * th) * eigs))
        assert abs(h - want) <= 1e-12


def test_numerical_range_polygon_convex():
    rng = np.random.default_rng(103)
    t = complex_gaussian(rng, (4, 4))
    rep = dk.numerical_range(t, angles=128)
    pts = rep.points
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        cross = np.imag(np.conj(b - a) * (c - b))
        assert cross >= -1e-9 * max(1.0, np.abs(b - a) * np.abs(c - b))


def test_numerical_range_zero_operator():
    rep = dk.numerical_range(np.zeros((2, 2)))
    assert np.max(np.abs(rep.support)) == 0.0
    assert rep.radius == 0.0


def test_contains_numerical_range():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])  # W(T) = disc of radius 1/2
    disc = dk.BoundaryCurve.disc(1.0)
    assert dk.contains_numerical_range(t, disc, margin=0.4)
    assert not dk.contains_numerical_range(t, disc, margin=0.6)
    assert not dk.contains_numerical_range(2.0 * t, disc, margin=0.1)
    with pytest.raises(NonConvexCurveError):
        dk.contains_numerical_range(0.1 * t, dk.BoundaryCurve.annulus(0.5))


def test_boundary_density_scalar_zero_is_uniform():
    disc = dk.BoundaryCurve.disc(1.0)
    for theta in (0.0, 1.0, 2.5):
        d = dk.boundary_density(np.array([[0.0]]), disc, theta)
        assert abs(d[0, 0] - 1.0 / (2.0 * np.pi)) <= 1e-14


def test_density_positivity_sweep():
    rng = np.random.default_rng(107)
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    t = random_contraction(rng, 2, norm=0.45)
    assert dk.contains_numerical_range(t, curve, margin=0.02)
    thetas = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    worst = min(np.linalg.eigvalsh(dk.boundary_density(t, curve, th))[0]
                for th in thetas)
    assert worst >= -1e-8


def test_quadrature_measure_mass_and_placement():
    rng = np.random.default_rng(109)
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    t = random_contraction(rng, 3, norm=0.4)
    mu = dk.quadrature_measure(t, curve, 128)
    assert np.linalg.norm(mu.unit_matrix() - np.eye(3)) <= 1e-12
    assert 0.0 <= mu.defect <= 1e-3
    _, zetas, _ = curve.sample(128)
    sampled = {complex(z) for z in zetas}
    assert all(complex(z) in sampled for z in mu.atoms.images[:, 0, 0, 0])
    with pytest.raises(NotContainedError):
        dk.quadrature_measure(10.0 * t, curve, 64)


def test_cauchy_transform_ellipse_oracle():
    """Joukowski residue computation pins the ellipse transform exactly.

    With zeta = c1 w + c2 / w on |w| = 1 (c1 = (a+b)/2, c2 = (a-b)/2),
    conj(zeta) extends meromorphically and the residues at the two
    interior roots and the double pole at w = 0 sum to (c2/c1) z, so
    (C conj(zeta))(z) = (c2/c1) z for every z inside.
    """
    a, b = 1.0, 0.6
    curve = dk.BoundaryCurve.ellipse(a, b)
    slope = (a - b) / (a + b)
    _, zetas, _ = curve.sample(512)
    for z in (0.0, 0.3 + 0.1j, -0.2j):
        got = dk.cauchy_transform(zetas, curve, z)
        assert abs(got - slope * z) <= 1e-12
    t = np.array([[0.1, 0.3], [0.0, -0.2 + 0.1j]])
    got = dk.cauchy_transform(zetas, curve, t)
    assert np.linalg.norm(got - slope * t) <= 1e-12


def test_cauchy_transform_circle_vanishes():
    # on the circle conj(zeta) = 1/zeta, whose transform cancels exactly
    curve = dk.BoundaryCurve.disc(1.0)
    _, zetas, _ = curve.sample(256)
    for k in (1, 2, 3):
        got = dk.cauchy_transform(zetas ** k, curve, 0.4 - 0.2j)
        assert abs(got) <= 1e-13


def test_cauchy_transform_stacked_matches_single():
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    _, zetas, _ = curve.sample(128)
    stack = zetas[None, :] ** np.arange(1, 4)[:, None]
    t = np.array([[0.1, 0.3], [0.0, -0.2 + 0.1j]])
    for at in (0.3 - 0.1j, t):
        got = dk.cauchy_transform(stack, curve, at)
        assert len(got) == 3
        for f, g in zip(stack, got):
            assert np.linalg.norm(g - dk.cauchy_transform(f, curve, at)) <= 1e-14


def test_resolvent_singular_on_curve():
    # T has an eigenvalue on the ellipse at theta = 0
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    with pytest.raises(ResolventSingularError, match="numerically singular"):
        dk.boundary_density(np.diag([1.0, 0.0]), curve, 0.0)


def test_cauchy_transform_constant_and_outside():
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    _, zetas, _ = curve.sample(128)
    ones = np.ones_like(zetas)
    assert abs(dk.cauchy_transform(ones, curve, 0.2) - 1.0) <= 1e-12
    with pytest.raises(ResolventSingularError):
        dk.cauchy_transform(ones, curve, 5.0)
    with pytest.raises(ResolventSingularError):
        dk.cauchy_transform(ones, curve, np.diag([0.1, 5.0]))


def test_curve_parametrizations():
    ell = dk.BoundaryCurve.ellipse(1.0, 0.6)
    assert ell.convex
    assert ell.point(0.0) == pytest.approx(1.0)
    assert ell.point(np.pi / 2) == pytest.approx(0.6j)
    th, pts, der = ell.sample(64)
    step = th[1] - th[0]
    fd = (np.roll(pts, -1) - np.roll(pts, 1)) / (2 * step)
    assert np.max(np.abs(fd - der)) <= 1e-2
    ann = dk.BoundaryCurve.annulus(0.5)
    assert not ann.convex
    assert ann.diameter() == pytest.approx(2.0)


def test_sampled_curve_roundtrip():
    base = dk.BoundaryCurve.ellipse(0.9, 0.5)
    th, pts, der = base.sample(32)
    sampled = dk.BoundaryCurve.sampled(th, pts, der, convex=True)
    th2, pts2, der2 = sampled.sample(32)
    assert np.allclose(pts, pts2) and np.allclose(der, der2)


def test_contains_numerical_range_screen_agrees_with_eigh():
    """The pivot screen and the eigh fallback give the verdict of the plain
    support comparison on about 200 operators, with the margin swept
    through each operator's exact threshold: they may disagree only
    within 1e-12 of it."""
    rng = np.random.default_rng(151)
    curves = [dk.BoundaryCurve.disc(1.0), dk.BoundaryCurve.ellipse(1.0, 0.6),
              dk.BoundaryCurve.sampled(*dk.BoundaryCurve.ellipse(0.9, 0.7).sample(64),
                                       convex=True)]
    steps = (-1e-2, -1e-6, -1e-11, -2e-12, 2e-12, 1e-11, 1e-6, 1e-2)
    for i in range(198):
        curve = curves[i % 3]
        d = int(rng.integers(1, 5))
        t = random_contraction(rng, d, norm=float(rng.uniform(0.1, 1.2)))
        rep = dk.numerical_range(t)
        threshold = float(np.min(curve.support(rep.thetas) - rep.support))
        for step in steps:
            margin = threshold + step
            plain = bool(np.all(rep.support <= curve.support(rep.thetas) - margin))
            assert plain == (step < 0)
            assert dk.contains_numerical_range(t, curve, margin=margin) == plain
        dk.contains_numerical_range(t, curve, margin=threshold)  # the tie itself


def _conditioned(rng, d, log_cond):
    """A d x d matrix with singular values 1, ..., 1, 10^-log_cond."""
    sv = np.ones(d)
    sv[-1] = 10.0 ** -log_cond
    return (random_unitary(rng, d) * sv) @ random_unitary(rng, d)


def _svd_refusal(m, z):
    """The message of the SVD rule for the node zeta = z of stack matrix m."""
    sv = np.linalg.svd(m, compute_uv=False)
    return (f"resolvent at {complex(z):.6g} is numerically singular "
            f"(condition {sv[0] / max(sv[-1], 1e-300):.2e})")


def test_resolvents_screen_accepts_and_refuses_as_the_svd_rule():
    """The Frobenius bound accepts well-conditioned stacks outright; a node
    over it goes to the SVD rule, which accepts cond 1e10 and 10^11.9 and
    refuses 10^12.1, 1e14 and an exactly singular node with its message."""
    from dilatekit.boundary import _resolvents

    rng = np.random.default_rng(157)
    zetas = np.array([2.0, 0.0, -1.5j])
    for d in (2, 3):
        for log_cond in (10.0, 11.9):
            a = _conditioned(rng, d, log_cond)
            got = _resolvents(-a, zetas)
            want = np.linalg.inv(zetas[:, None, None] * np.eye(d) + a)
            assert np.array_equal(got, want)
        singular = np.diag([1.0] + [0.0] * (d - 1))
        for a in (_conditioned(rng, d, 12.1), _conditioned(rng, d, 14.0), singular):
            with pytest.raises(ResolventSingularError) as err:
                _resolvents(-a, zetas)
            assert str(err.value) == _svd_refusal(a, 0.0)


def _bench_boundary_densities(d, nodes):
    """The weighted density stack quadrature_measure projects, for a
    norm-0.5 operator on the bench ellipse, and the operator."""
    from dilatekit.boundary import _densities

    t = random_contraction(np.random.default_rng([163, d, nodes]), d, 0.5)
    _, zetas, dzetas = dk.BoundaryCurve.ellipse(1.0, 0.6).sample(nodes)
    return (2.0 * np.pi / nodes) * _densities(t, zetas, dzetas), t


def test_screened_density_projection_matches_psd_project():
    """Positive definite densities are kept bit for bit, within 1e-15 of
    psd_project relative to the stack's norm; indefinite and exactly singular blocks go
    through psd_project and equal it bit for bit."""
    from dilatekit.boundary import _project_densities

    for d, nodes in ((2, 128), (3, 128), (3, 192)):
        mats, _ = _bench_boundary_densities(d, nodes)
        assert np.all(np.linalg.eigvalsh(mats)[:, 0] > 0)
        got = _project_densities(mats, dk.DEFAULT_TOL)
        assert np.array_equal(got, dk.herm_part(mats))
        want = dk.psd_project(mats)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    rng = np.random.default_rng(167)
    # the last one's final pivot is exactly 0
    odd = [np.diag([1.0, -2.0, 0.5]), np.diag([1.0, 0.0, 3.0]), np.ones((3, 3)),
           np.zeros((3, 3)), -np.eye(3), dk.herm_part(complex_gaussian(rng, (3, 3))),
           np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.6]])]
    for a in odd:
        assert np.linalg.eigvalsh(a)[0] <= 1e-12
    odd = np.array(odd, dtype=np.complex128)
    assert np.array_equal(_project_densities(odd, dk.DEFAULT_TOL), dk.psd_project(odd))
    mixed = np.concatenate([mats[:4], odd])
    got = _project_densities(mixed, dk.DEFAULT_TOL)
    assert np.array_equal(got[:4], mats[:4])
    assert np.array_equal(got[4:], dk.psd_project(odd))


def test_boundary_front_half_takes_no_svd_or_stacked_eigh(monkeypatch):
    """On the bench's boundary shapes, quadrature_measure and
    cauchy_transform settle containment, conditioning and positivity by
    their screens: no SVD runs and no eigh or eigvalsh on a stack; the
    normalization's single d x d eigh is allowed."""
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    cases = [_bench_boundary_densities(d, nodes)[1] for d, nodes in
             ((2, 128), (3, 128), (3, 192))]
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for t, nodes in zip(cases, (128, 128, 192)):
        dk.quadrature_measure(t, curve, nodes)
        _, zetas, _ = curve.sample(nodes)
        dk.cauchy_transform(zetas[None, :] ** np.arange(1, 5)[:, None], curve, t)
    assert calls == [("eigh", 2)] * 3


def test_coarse_nodes_refusal_names_the_node_count():
    """A node count too coarse for the measure's congruence repair is
    refused with the node count and the remedy; more nodes build the
    dilation, failing only the moment check on quadrature error."""
    t = random_contraction(np.random.default_rng([71, 2, 4]), 2, 0.3)
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    with pytest.raises(dk.NotNormalizedError,
                       match=r"trapezoid rule at 4 nodes misses unit mass by "
                             r"2\.248e-01; use more nodes"):
        dk.dilate_boundary(t, curve, order=4, nodes=4)
    residuals = [dk.dilate_boundary(t, curve, order=4, nodes=n)
                 .verification.max_moment_residual for n in (5, 16)]
    assert 1e-2 < residuals[0] < 1e-1 and 1e-4 < residuals[1] < 1e-3


def test_trapezoid_path_refinement_ratio():
    """Criterion 06 on the trapezoid path: the ellipse given by its samples
    is reduced, not replaced by its Szego quadrature.  At margin 0.05 the
    256-node skew defects are at most 1e-5 and 128 nodes is at least 4x
    worse on every power."""
    ellipse = dk.BoundaryCurve.ellipse(1.0, 0.6)
    t0 = complex_gaussian(np.random.default_rng(106), (3, 3))
    rep = dk.numerical_range(t0, angles=512)
    csup = ellipse.support(rep.thetas)
    mask = rep.support > 1e-12
    t = t0 * float(np.min((csup[mask] - 0.05) / rep.support[mask]))
    _, zref, _ = ellipse.sample(4096)
    refs = [dk.cauchy_transform(zref ** k, ellipse, t) for k in range(1, 5)]

    def skew_defects(nodes):
        curve = dk.BoundaryCurve.sampled(*ellipse.sample(nodes), convex=True)
        res = dk.dilate_boundary(t, curve, order=4, nodes=nodes)
        assert res.dilation.provenance == "naimark"
        big = res.dilation.generators[0]
        out = []
        for k, ck in enumerate(refs, 1):
            lhs = np.linalg.matrix_power(t, k) + ck.conj().T
            rhs = 2.0 * res.dilation.compress(np.linalg.matrix_power(big, k))
            out.append(float(np.linalg.norm(lhs - rhs)))
        return res, out

    res256, d256 = skew_defects(256)
    _, d128 = skew_defects(128)
    assert res256.passed and max(d256) <= 1e-5
    assert min(a / max(b, 1e-300) for a, b in zip(d128, d256)) >= 4.0
