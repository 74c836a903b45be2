"""End-to-end pipeline behavior on small, fast instances.

The heavyweight statistical sweeps live in test_acceptance; here each
pipeline gets one deterministic run checking the full result contract:
verification passed, dimension slack nonnegative, reduction inside the
d^2 (dim S + 1) budget, and final residual tracking the fit residual.
"""

import collections
import tracemalloc

import numpy as np
import pytest

import dilatekit as dk
from conftest import random_contraction, random_unitary


def final_tracks_fit(result):
    # assembly may add only roundoff on top of the fit residual
    assert result.measure is not None
    fit = result.measure.fit_residual
    assert fit is not None
    assert result.verification.max_moment_residual <= 2.0 * fit + 1e-11
    # the reduced measure is not renormalized: the reduction keeps unit mass
    unit = result.measure.unit_matrix()
    assert np.linalg.norm(unit - np.eye(unit.shape[0])) <= 1e-12


def test_circle_pipeline_contract():
    rng = np.random.default_rng(11)
    t = random_contraction(rng, 3, 0.9)
    result = dk.dilate_circle(t, order=3)
    assert result.passed
    assert result.dilation.provenance == "gns"
    assert result.dilation.space_dim <= 4 * 3
    assert result.dimensions.slack >= 0
    assert result.measure is None and result.reduced_terms is None
    # compressions reproduce the scaled powers
    u = result.dilation.generators[0]
    power = np.eye(result.dilation.space_dim)
    for k in range(1, 4):
        power = power @ u
        got = result.dilation.compress(power)
        assert np.linalg.norm(got - np.linalg.matrix_power(t, k)) <= 1e-8


def test_circle_berger_rho2():
    t = np.array([[0.0, 2.0], [0.0, 0.0]])  # numerical radius exactly 1
    result = dk.dilate_circle(t, order=4, rho=2.0)
    assert result.passed
    u = result.dilation.generators[0]
    power = np.eye(result.dilation.space_dim)
    for k in range(1, 5):
        power = power @ u
        got = 2.0 * result.dilation.compress(power)
        assert np.linalg.norm(got - np.linalg.matrix_power(t, k)) <= 1e-8


def test_regular_pipeline_contract():
    rng = np.random.default_rng(12)
    nodes, order, d = 8, 2, 2
    phases = np.exp(2j * np.pi * rng.integers(0, nodes, size=(2, d)) / nodes)
    w = random_unitary(rng, d)
    ts = [w @ np.diag(ph) @ w.conj().T for ph in phases]
    result = dk.dilate_regular(ts, order=order, nodes=nodes)
    assert result.passed
    dim_s = (2 * order + 1) ** 2
    assert result.reduced_terms <= d * d * dim_s
    assert result.dimensions.slack >= 0
    final_tracks_fit(result)
    u1, u2 = result.dilation.generators
    assert np.linalg.norm(u1 @ u2 - u2 @ u1) <= 1e-10


def test_boundary_pipeline_contract():
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    t = np.array([[0.2 + 0.1j, 0.3, 0.0],
                  [0.0, -0.25, 0.2],
                  [0.05, 0.0, 0.1 - 0.2j]])
    assert dk.contains_numerical_range(t, curve, margin=0.05)
    result = dk.dilate_boundary(t, curve, order=3, nodes=128)
    assert result.passed
    assert result.verification.max_moment_residual <= 1e-5
    dim_s = 2 * 3 + 1
    assert result.reduced_terms <= 9 * dim_s
    assert result.dimensions.slack >= 0
    # the dilation is normal with spectrum on the sampled curve
    n = result.dilation.generators[0]
    assert np.linalg.norm(n @ n.conj().T - n.conj().T @ n) <= 1e-10


@pytest.mark.parametrize("seed", [0, 5, 6, 59])
def test_boundary_d2_256_nodes(seed):
    # on the closed-form ellipse these draws take the Szego route; their
    # 512-term reduction (where the whole-support sweep once drifted the
    # alpha average off the identity) runs in
    # test_boundary_sampled_reduction_shapes
    rng = np.random.default_rng([seed, 3])
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    t = random_contraction(rng, 2, 0.5)
    result = dk.dilate_boundary(t, curve, order=4, nodes=256)
    assert result.passed
    assert result.reduced_terms <= 4 * (2 * 4 + 2)
    assert np.linalg.norm(result.measure.unit_matrix() - np.eye(2)) <= 1e-12


def test_boundary_rejects_uncontained():
    curve = dk.BoundaryCurve.disc(1.0)
    with pytest.raises(dk.NotContainedError):
        dk.dilate_boundary(2.0 * np.eye(2), curve, order=2, nodes=64)


def _on_curve(curve, z):
    """How far points lie off a disc or an ellipse, radially."""
    if curve.kind == "disc":
        return np.abs(np.abs(z) - curve.params["radius"])
    a, b = curve.params["a"], curve.params["b"]
    return np.abs(np.hypot(z.real / a, z.imag / b) - 1.0)


@pytest.mark.parametrize("curve", [dk.BoundaryCurve.disc(1.0),
                                   dk.BoundaryCurve.ellipse(1.0, 0.6)],
                         ids=["disc", "ellipse"])
@pytest.mark.parametrize("d, nodes, order", [(2, 128, 4), (3, 128, 4), (3, 192, 4),
                                             (2, 6, 6), (2, 6, 8)])
def test_boundary_szego_route(curve, d, nodes, order):
    """On a disc or an ellipse the trapezoid measure is replaced by its Szego
    quadrature: K <= (order + 1) d, with equality once the nodes outnumber
    the order, N normal with its eigenvalues on the curve, and the
    trapezoid measure's moments kept to roundoff.  With nodes <= order the
    quadrature error fails verification, as it does on the trapezoid path."""
    t = random_contraction(np.random.default_rng([71, d, nodes]), d, 0.3)
    result = dk.dilate_boundary(t, curve, order=order, nodes=nodes)
    k = result.dilation.space_dim
    assert k == (order + 1) * d if nodes > order else k <= nodes * d
    assert result.passed == (nodes > order)
    assert result.dilation.provenance == "szego-naimark"
    assert len(result.measure.atoms) == result.reduced_terms == k
    n = result.dilation.generators[0]
    assert np.linalg.norm(n @ n.conj().T - n.conj().T @ n) <= 1e-13
    assert np.max(_on_curve(curve, np.linalg.eigvals(n))) <= 1e-12
    trapezoid = dk.quadrature_measure(t, curve, nodes)
    for j in range(order + 1):
        assert np.linalg.norm(result.measure.moment((j,))
                              - trapezoid.moment((j,))) <= 1e-13


@pytest.mark.parametrize("d, nodes, k", [(2, 128, 24), (3, 128, 45), (3, 192, 45)])
def test_boundary_sampled_ellipse_keeps_trapezoid_path(d, nodes, k):
    """The ellipse given by its samples reduces the trapezoid measure, with
    the K that the closed-form ellipse had before the Szego route."""
    ellipse = dk.BoundaryCurve.ellipse(1.0, 0.6)
    curve = dk.BoundaryCurve.sampled(*ellipse.sample(nodes), convex=True)
    t = random_contraction(np.random.default_rng([71, d, nodes]), d, 0.5)
    result = dk.dilate_boundary(t, curve, order=4, nodes=nodes)
    assert result.passed and result.dilation.provenance == "naimark"
    assert result.dilation.space_dim == result.reduced_terms == k


@pytest.mark.parametrize("key, d, nodes", [
    ([seed, 3], 2, 256) for seed in (0, 5, 6, 59)] + [
    ([4242, draw], d, nodes) for draw in range(3)
    for d, nodes in ((2, 192), (2, 256), (3, 256))])
def test_boundary_sampled_reduction_shapes(key, d, nodes):
    """The draws and shapes of test_boundary_d2_256_nodes and
    test_boundary_left_out_shapes, where reduction once drifted or its SVD
    failed to converge, on the trapezoid path that the sampled ellipse
    keeps: 384 to 768 terms to reduce."""
    ellipse = dk.BoundaryCurve.ellipse(1.0, 0.6)
    curve = dk.BoundaryCurve.sampled(*ellipse.sample(nodes), convex=True)
    t = random_contraction(np.random.default_rng(key), d, 0.5)
    result = dk.dilate_boundary(t, curve, order=4, nodes=nodes)
    assert result.passed
    assert result.dilation.space_dim == result.reduced_terms <= d * d * (2 * 4 + 2)
    assert np.linalg.norm(result.measure.unit_matrix() - np.eye(d)) <= 1e-12


def test_regular_one_operator_takes_the_gns_route(monkeypatch):
    """One operator's regular moments are its circle moments: no grid and no
    fit, so a unitary with off-lattice spectrum passes, K is at most
    (order + 1) d, and the node count changes nothing."""
    from dilatekit import io, pipelines

    def no_fit(*args, **kwargs):
        raise AssertionError("one-variable regular data was fitted")

    monkeypatch.setattr(pipelines, "fit_matrix_measure", no_fit)
    u = np.diag(np.exp([0.1j, 2.0j]))
    for t, k in ((u, 2), (0.99 * u, 6)):
        result = dk.dilate_regular([t], order=2)
        assert result.passed and result.dilation.space_dim == k
        assert result.dilation.provenance == "gns" and result.measure is None
    t = random_contraction(np.random.default_rng(3), 3, 0.9)
    result = dk.dilate_regular([t], order=3)
    assert result.passed and result.dilation.space_dim == 12
    assert result.dimensions.slack >= 0
    other = dk.dilate_regular([t], order=3, nodes=5)
    assert (io.dump_json(io.encode_dilation(other.dilation))
            == io.dump_json(io.encode_dilation(result.dilation)))


@pytest.mark.parametrize("pipeline", ["circle", "regular", "boundary", "annulus",
                                      "qcommute"])
def test_order_zero_refused_up_front(pipeline, monkeypatch):
    """order < 1 raises the moment constructors' ShapeMismatch before any
    GNS, quadrature or fit work is done."""
    from dilatekit import pipelines

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the order check")

    for name in ("toeplitz_gns_unitary", "quadrature_measure", "fit_matrix_measure"):
        monkeypatch.setattr(pipelines, name, no_work)
    t = np.diag([0.5, 0.3])
    call = {
        "circle": lambda: dk.dilate_circle(t, order=0),
        "regular": lambda: dk.dilate_regular([t, t @ t], order=0),
        "boundary": lambda: dk.dilate_boundary(t, dk.BoundaryCurve.disc(1.0), order=0),
        "annulus": lambda: dk.dilate_annulus(t, 0.2, order=0),
        "qcommute": lambda: dk.dilate_qcommute(np.diag([0.5, -0.5]),
                                               np.array([[0.0, 0.5], [0.0, 0.0]]),
                                               1, 2, order=0),
    }[pipeline]
    with pytest.raises(dk.ShapeMismatchError, match="need at least first-order moments"):
        call()


@pytest.mark.parametrize("pipeline, error", [
    ("annulus", dk.InfeasibleError),
    ("regular", dk.InfeasibleError),
    ("regular-one", dk.NotPSDError),
    ("qcommute", dk.NotCommutingError)])
def test_overflowing_norms_refuse_without_warning(pipeline, error):
    """Data of norm 1e200 has finite moments whose squared norms overflow.
    The residual, scale and defect norms stay finite, so the refusal names
    a finite residual or defect, and no overflow warning is raised (the
    pytest configuration turns RuntimeWarning into an error).  The
    q-commute pair fails its relation (T2 T1 = T1, not -T1 T2) before any
    fit.  One regular operator takes the GNS route, whose first Verblunsky
    coefficient has norm 1e200; a pair is fitted."""
    big = 1e200 * np.eye(2)
    call = {
        "annulus": lambda: dk.dilate_annulus(big, 0.5, order=1),
        "regular": lambda: dk.dilate_regular([big, np.eye(2)], order=1, nodes=4),
        "regular-one": lambda: dk.dilate_regular([big], order=1),
        "qcommute": lambda: dk.dilate_qcommute(big, np.eye(2), a=1, b=2),
    }[pipeline]
    with pytest.raises(error, match=r"e\+200"):
        call()


def interior_torus_data(rng, d):
    """Commuting normal strict contractions."""
    w = random_unitary(rng, d)
    zs = rng.uniform(0.0, 0.5, size=(2, d)) * np.exp(2j * np.pi * rng.random((2, d)))
    return [w @ np.diag(z) @ w.conj().T for z in zs]


def _count_validations(monkeypatch):
    """Count the stack checks of Atoms (its __post_init__) and of MatrixPoint
    (_check_stack), and MatrixPoint objects built one at a time."""
    counts = collections.Counter()
    atoms_init = dk.Atoms.__post_init__
    point_init = dk.MatrixPoint.__post_init__
    point_check = dk.MatrixPoint._check_stack

    def atoms_checked(self):
        counts["Atoms check"] += 1
        atoms_init(self)

    def post_init(self):
        counts["MatrixPoint object"] += 1
        point_init(self)

    def checked(*args):
        counts["MatrixPoint check"] += 1
        return point_check(*args)

    monkeypatch.setattr(dk.Atoms, "__post_init__", atoms_checked)
    monkeypatch.setattr(dk.MatrixPoint, "__post_init__", post_init)
    monkeypatch.setattr(dk.MatrixPoint, "_check_stack", staticmethod(checked))
    return counts


def test_measure_path_validates_per_stack_not_per_atom(monkeypatch):
    """On the measure path every stack the library computes is checked
    once, whatever the number of atoms: each measure's atoms once, and
    the combination view's points once."""
    counts = _count_validations(monkeypatch)
    rng = np.random.default_rng(31)
    t = random_contraction(rng, 2, 0.5)
    ts = interior_torus_data(rng, 2)
    curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
    runs = {}
    for size in (1, 2):
        counts.clear()
        assert dk.dilate_boundary(t, curve, order=2, nodes=64 * size).passed
        boundary = dict(counts)
        counts.clear()
        assert dk.dilate_regular(ts, order=1, nodes=4 + 2 * size).passed
        runs[size] = boundary, dict(counts)
    assert runs[1] == runs[2]
    # quadrature, normalization, the Szego measure and reassembly; grid,
    # fit output, normalization and reassembly; one combination view each
    assert runs[1] == ({"Atoms check": 4, "MatrixPoint check": 1},
                       {"Atoms check": 4, "MatrixPoint check": 1})


@pytest.mark.parametrize("seed", [1, 8, 14, 18])
def test_regular_interior_d2_torus_12(seed):
    # draws whose reduction meets a working set on which numpy's default
    # SVD driver fails to converge (OpenBLAS); the gesvd retry covers them
    ts = interior_torus_data(np.random.default_rng(seed), 2)
    result = dk.dilate_regular(ts, order=1, nodes=12)
    assert result.passed
    final_tracks_fit(result)


def test_regular_interior_d3_torus_24():
    # 1728 terms to reduce: the whole-support sweep drifted the alpha
    # average by 2.7e-4 here and raised NotNormalizedError
    ts = interior_torus_data(np.random.default_rng(24), 3)
    result = dk.dilate_regular(ts, order=1, nodes=24)
    assert result.passed
    assert result.reduced_terms <= 9 * 3 ** 2
    final_tracks_fit(result)


# Shapes the benchmark workloads leave out; each must pass on every draw.
@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize("d, nodes", [(2, 192), (2, 256), (3, 256)])
def test_boundary_left_out_shapes(d, nodes, draw):
    t = random_contraction(np.random.default_rng([4242, draw]), d, 0.5)
    result = dk.dilate_boundary(t, dk.BoundaryCurve.ellipse(1.0, 0.6), order=4,
                                nodes=nodes)
    assert result.passed


@pytest.mark.parametrize("draw", range(3))
def test_regular_interior_d2_torus_12_left_out(draw):
    ts = interior_torus_data(np.random.default_rng([4242, draw]), 2)
    result = dk.dilate_regular(ts, order=1, nodes=12)
    assert result.passed


def test_fit_memory_d3_torus_24():
    # 5184 columns: one ncols x ncols float array is 205 MiB, so the fit
    # must never form the Gram matrix or a full-size KKT system
    ts = interior_torus_data(np.random.default_rng(24), 3)
    table, grid = dk.regular_moments(ts, 1), dk.torus_grid(24, 2)
    tracemalloc.start()
    try:
        dk.fit_matrix_measure(table, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_annulus_pipeline_contract():
    rng = np.random.default_rng(13)
    nodes, order, r = 16, 2, 0.5
    angles = 2j * np.pi * np.array([1, 4, 9]) / nodes
    spectrum = np.exp(angles) * np.array([1.0, r, 1.0])
    w = random_unitary(rng, 3)
    t = w @ np.diag(spectrum) @ w.conj().T
    result = dk.dilate_annulus(t, r, order=order, nodes=nodes)
    assert result.passed
    assert result.verification.max_moment_residual <= 1e-6
    dim_s = 4 * order + 1
    assert result.reduced_terms <= 9 * dim_s
    final_tracks_fit(result)
    # inverse powers are matched honestly, not as adjoints
    n = result.dilation.generators[0]
    got = result.dilation.compress(np.linalg.inv(n))
    assert np.linalg.norm(got - np.linalg.inv(t)) <= 1e-6


def test_annulus_infeasible_mean_too_large():
    # |z| <= 1 on both circles, so no measure has first moment 1.5
    t = np.array([[1.5]])
    with pytest.raises(dk.InfeasibleError) as exc:
        dk.dilate_annulus(t, 0.5, order=1, nodes=16)
    assert exc.value.residual > 0.1


def test_qcommute_pipeline_contract():
    a, b = 1, 2
    q = np.exp(2j * np.pi * a / b)
    t1 = 0.5 * np.diag([1.0, q])
    t2 = 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])
    result = dk.dilate_qcommute(t1, t2, a=a, b=b, order=1, nodes=8)
    assert result.passed
    u1, u2 = result.dilation.generators
    assert np.linalg.norm(u2 @ u1 - q * (u1 @ u2)) <= 1e-12
    dim_s = 2 * (1 + 1) ** 2 - 1
    assert result.reduced_terms <= 4 * dim_s
    assert result.dimensions.bound == b * 4 * dim_s
    final_tracks_fit(result)


@pytest.mark.parametrize("a, b", [(2, 4), (3, 6)])
def test_qcommute_fits_a_over_b_in_lowest_terms(a, b):
    """q depends only on a/b: (2, 4) and (3, 6) give the dilation of
    (1, 2) bit for bit, on 2 x 2 irreps with the bound at sub_rank 2."""
    q = np.exp(2j * np.pi / 2)
    t1 = 0.5 * np.diag([1.0, q])
    t2 = 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])
    want = dk.dilate_qcommute(t1, t2, a=1, b=2, order=1, nodes=8)
    got = dk.dilate_qcommute(t1, t2, a=a, b=b, order=1, nodes=8)
    assert got.passed
    assert got.measure.atoms.rep_dim == 2
    assert got.dimensions.bound == want.dimensions.bound
    assert np.array_equal(got.dilation.v, want.dilation.v)
    assert all(np.array_equal(g, h) for g, h in
               zip(got.dilation.generators, want.dilation.generators))


def test_qcommute_rejects_wrong_relation():
    t1 = 0.5 * np.eye(2)
    t2 = 0.5 * np.eye(2)
    # a commuting pair is not (-1)-commuting
    with pytest.raises(dk.NotCommutingError):
        dk.dilate_qcommute(t1, t2, a=1, b=2, order=1, nodes=4)


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3))])
def test_qcommute_rejects_shapes_before_commutator(shapes):
    t1, t2 = (0.1 * np.ones(s) for s in shapes)
    with pytest.raises(dk.DimensionMismatchError):
        dk.dilate_qcommute(t1, t2, a=1, b=2, order=1, nodes=4)


def test_passed_is_conjunction():
    t = np.array([[0.5]])
    result = dk.dilate_circle(t, order=2)
    assert result.passed
    result.dimensions.ok = False
    assert not result.passed


def test_dimension_bound_takes_the_operator_system_from_the_table():
    """The operator system each measure pipeline hands the dimension
    bound is 2 c + 1 for the table's c canonical indices, the size each
    pipeline used to write out by hand, and the bound is the reduction's
    d^2 (2 c + 1) terms times the atoms' size.  The GNS routes are held
    to (order + 1) d instead."""
    from dilatekit.measures import _canonical_indices

    def size(table):
        return 2 * len(_canonical_indices(table)) + 1

    t = 0.3 * np.eye(2)
    for order in (1, 2, 3):
        assert size(dk.circle_moments(t, 1.0, order)) == 2 * order + 1
        assert size(dk.laurent_moments(t, order)) == 4 * order + 1
        assert size(dk.qcommuting_moments(t, t, order)) == 2 * (order + 1) ** 2 - 1
        for nu in (2, 3):
            assert size(dk.regular_moments([t] * nu, order)) == (2 * order + 1) ** nu
    t = np.array([[0.2 + 0.1j, 0.3], [0.0, -0.25]])
    d = 2
    for result, order in ((dk.dilate_circle(t, order=3), 3),
                          (dk.dilate_regular([t], order=2), 2)):
        assert result.passed
        assert result.dimensions.bound == (order + 1) * d
    runs = [  # result, the size written out before, sub-rank
        (dk.dilate_boundary(t, dk.BoundaryCurve.disc(), order=2, nodes=32), 5, 1),
        (dk.dilate_boundary(t, dk.BoundaryCurve.sampled(
            *dk.BoundaryCurve.ellipse(1.0, 0.8).sample(64), convex=True),
            order=2, nodes=64), 5, 1),
        (dk.dilate_regular([0.3 * np.eye(2), np.diag([0.2, -0.1])], order=1, nodes=4), 9, 1),
        (dk.dilate_annulus(np.diag([0.7, 0.8j]), 0.5, order=1, nodes=8), 5, 1),
        (dk.dilate_qcommute(0.5 * np.diag([1.0, -1.0]), np.array([[0.0, 0.5], [0.0, 0.0]]),
                            a=1, b=2, order=1, nodes=4), 7, 2),
    ]
    for result, dim_s, sub_rank in runs:
        assert result.passed
        assert result.dimensions.bound == sub_rank * d ** 2 * dim_s


@pytest.mark.parametrize("d,order,rho", [(1, 1, 1.0), (2, 4, 2.0), (3, 5, 1.0), (8, 16, 1.0)])
def test_gns_dimension_bound_is_the_recursion_bound(d, order, rho):
    """dilate_circle and one-variable dilate_regular report K against
    (order + 1) d, the bound of the Szego recursion (K = d + sum r_m),
    and not against the measure routes' bound d^2 (2 c + 1)."""
    rng = np.random.default_rng([31, d, order])
    t = random_contraction(rng, d, norm=0.9)
    for result in (dk.dilate_circle(t, order, rho=rho), dk.dilate_regular([t], order)):
        dims = result.dimensions
        assert dims.bound == (order + 1) * d
        assert dims.slack == dims.bound - result.dilation.space_dim >= 0
        assert dims.ok and result.passed
    # a norm-one direction shrinks the later blocks, so K sits under the bound
    u = random_unitary(rng, d)
    dims = dk.dilate_circle(u @ np.diag([1.0] + [0.5] * (d - 1)), order).dimensions
    assert dims.bound == (order + 1) * d and dims.slack == order
