"""Normal dilation from the boundary measure of a non-normal operator.

A random 3x3 operator is scaled until its numerical range sits at margin
0.05 inside the ellipse with semiaxes (1.0, 0.6).  The boundary density
is PSD along the curve, and its trapezoid quadrature is an atomic
measure.  On an ellipse the pipeline replaces that measure by its Szego
quadrature, which has the same moments on (order + 1) d = 15 atoms, so
K stays 15 at every node count.  The assembled normal operator N on the
ellipse reproduces the skew compressions

    T^k + ((C conj(zeta^k))(T))* = 2 V* N^k V

with an error set by the quadrature truncation: refining the grid from
64 through 256 nodes shows the geometric convergence of the trapezoid
rule on an analytic integrand.
"""

import numpy as np

import dilatekit as dk

curve = dk.BoundaryCurve.ellipse(1.0, 0.6)
rng = np.random.default_rng(3)
t0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rep = dk.numerical_range(t0, angles=512)
gap = curve.support(rep.thetas) - 0.05
t = t0 * float(np.min(gap[rep.support > 0] / rep.support[rep.support > 0]))
print("margin 0.05 containment:",
      dk.contains_numerical_range(t, curve, margin=0.0499))

for theta in (0.0, 1.0, 2.5):
    d = dk.boundary_density(t, curve, theta)
    print(f"density at theta={theta}: min eigenvalue "
          f"{np.linalg.eigvalsh(d)[0]:+.3e}")

# reference transform on a fine grid to isolate the quadrature error
_, zref, _ = curve.sample(4096)
print(f"{'nodes':>6} {'K':>4} {'skew defect (k=1..4)':>42}")
for nodes in (64, 128, 256):
    res = dk.dilate_boundary(t, curve, order=4, nodes=nodes)
    big = res.dilation.generators[0]
    defects = []
    pt = np.eye(3, dtype=complex)
    pn = np.eye(res.dilation.space_dim, dtype=complex)
    for k in range(1, 5):
        pt = pt @ t
        pn = pn @ big
        ck = dk.cauchy_transform(zref ** k, curve, t)
        defects.append(np.linalg.norm(pt + ck.conj().T
                                      - 2 * res.dilation.compress(pn)))
    print(f"{nodes:>6} {res.dilation.space_dim:>4} "
          + " ".join(f"{d:.2e}" for d in defects))
