"""Shared generators for the test suite.

Everything is seeded by the caller; no test relies on global RNG state.
BLAS runs on one thread, pinned here before numpy is first imported, as
``bench/run.py`` and ``tools/k_table.py`` pin it: ranks follow roundoff,
and the thread count changes the roundoff of a blocked product.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import dilatekit as dk  # noqa: E402


def complex_gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_contraction(rng, d, norm=1.0):
    """Random d x d matrix with spectral norm exactly ``norm``."""
    t = complex_gaussian(rng, (d, d))
    return t * (norm / np.linalg.norm(t, 2))


def random_unitary(rng, d):
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    g = complex_gaussian(rng, (d, rank))
    return g @ g.conj().T


def random_point(rng, level, nvars, selfadjoint):
    coords = []
    for _ in range(nvars):
        x = complex_gaussian(rng, (level, level))
        coords.append(0.5 * (x + x.conj().T) if selfadjoint else x)
    return dk.MatrixPoint(coords=coords, selfadjoint=selfadjoint)


def random_combination(rng, n, nvars, length, selfadjoint, level_max=3):
    """A valid length-term combination; coefficients normalized exactly."""
    raw = []
    for _ in range(length):
        k = int(rng.integers(1, level_max + 1))
        raw.append((complex_gaussian(rng, (k, n)),
                    random_point(rng, k, nvars, selfadjoint)))
    s = np.zeros((n, n), dtype=np.complex128)
    for g, _ in raw:
        s += g.conj().T @ g
    corr = dk.inv_sqrt_psd(s)
    return dk.MatrixConvexCombination(
        n=n, terms=[(g @ corr, p) for g, p in raw])


def algebra_dimension(coords, tol=1e-9):
    """Dimension of the unital *-algebra generated by the coordinates.

    Independent of the library's commutant machinery on purpose: the span
    of words is grown by right multiplication until the rank stabilizes.
    """
    mats = [np.asarray(a, dtype=np.complex128) for a in coords]
    n = mats[0].shape[0]
    gens = [np.eye(n, dtype=np.complex128)]
    for a in mats:
        gens.extend([a, a.conj().T])
    rows = np.eye(n, dtype=np.complex128).ravel()[None, :]
    while True:
        prods = [rows[i].reshape(n, n) @ g
                 for i in range(rows.shape[0]) for g in gens]
        stack = np.vstack([rows] + [m.ravel()[None, :] for m in prods])
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        r = int(np.sum(s > tol * s[0]))
        if r == rows.shape[0]:
            return r
        rows = vh[:r]


def numerical_radius(t, angles=512, refine=60):
    """max_theta lambda_max(Re e^{-i theta} T), sweep plus ternary refinement."""
    t = np.asarray(t, dtype=np.complex128)

    def f(theta):
        h = 0.5 * (np.exp(-1j * theta) * t + np.exp(1j * theta) * t.conj().T)
        return float(np.linalg.eigvalsh(h)[-1])

    thetas = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    vals = [f(th) for th in thetas]
    k = int(np.argmax(vals))
    lo = thetas[k] - 2.0 * np.pi / angles
    hi = thetas[k] + 2.0 * np.pi / angles
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return f(0.5 * (lo + hi))
