"""Dilating a q-commuting pair to q-commuting unitaries, q = -1.

T1 = diag(1, -1) and the Jordan block T2 satisfy T2 T1 = -T1 T2.  The
dilation's candidate atoms are clock-and-shift pairs, the 2-dimensional
irreducible representations of the relation, at phases of the 8 x 8
lattice.  Phases that differ by pi give equivalent pairs, so the fit
takes one pair per class, the 16 at phases below pi, each standing for
4 lattice pairs; the fitted measure keeps a handful of them.
"""

import numpy as np

import dilatekit as dk

a, b = 1, 2
q = np.exp(2j * np.pi * a / b)
t1 = np.diag([1.0, q])
t2 = np.array([[0.0, 1.0], [0.0, 0.0]])
print(f"input relation defect: {np.linalg.norm(t2 @ t1 - q * t1 @ t2):.1e}")

atom = dk.clock_shift_irrep(a, b)
clock, shift = atom.images[0]
print("clock =", np.round(clock, 6).tolist())
print("shift =", np.round(shift, 6).tolist())

res = dk.dilate_qcommute(t1, t2, a=a, b=b, order=1, nodes=8)
u1, u2 = res.dilation.generators
print(f"dilation space K = {res.dilation.space_dim} "
      f"(bound {res.dimensions.bound})")
print(f"unitary relation defect: "
      f"{np.linalg.norm(u2 @ u1 - q * u1 @ u2):.3e}")
for n in range(2):
    for m in range(2):
        word = np.linalg.matrix_power(u1, n) @ np.linalg.matrix_power(u2, m)
        target = np.linalg.matrix_power(t1, n) @ np.linalg.matrix_power(t2, m)
        err = np.linalg.norm(res.dilation.compress(word) - target)
        print(f"  T1^{n} T2^{m}: compression error {err:.2e}")

# a pair violating the relation is rejected before any fitting
try:
    dk.dilate_qcommute(np.eye(2), np.eye(2), a=1, b=2, order=1, nodes=4)
except dk.NotCommutingError as exc:
    print("commuting pair refused:", exc)
