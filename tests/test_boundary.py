import numpy as np
import pytest

import dilatekit as dk
from dilatekit import (
    NonConvexCurveError,
    NotContainedError,
    ResolventSingularError,
)

from conftest import complex_gaussian, random_contraction


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
