"""Independent oracles that only the tests use.

Each evaluates what the package computes in its own, slower way: the
scalar march steps the stage equations one step at a time, the data
samples call the time factors one time at a time, and the sector probe
measures the resolvent bound that the contour relies on. The derivative
of example 1's exact solution feeds the quadrature of the Caputo oracle,
and example 1's time factors are also evaluated in one call over all
times, without the package's blocks.
"""

import numpy as np

from fraccq.caputo import (
    _EXAMPLE1_AU,
    _EXAMPLE1_DHALF,
    _EXAMPLE1_OMEGAS,
    _SQRT5,
    _fresnel_half,
)
from fraccq.errors import PoleError


def rk_march_scalar(lam, table, from_step, to_step, tab, h):
    """March y' = lam*y + g(t) from y(from_step*h) = 0 to t = to_step*h.

    One inverse of the s x s stage matrix (Id - h lam A) serves the whole
    march; g enters through the stage-sample table. Returns the terminal
    value, one entry per inhomogeneity column. Each step takes the last
    stage, like fastcq._march_window, since every Tableau is stiffly
    accurate."""
    try:
        stage_inv = np.linalg.inv(np.eye(tab.s) - (h * lam) * tab.A)
    except np.linalg.LinAlgError as exc:
        raise PoleError(
            f"stage matrix singular at h*lambda={h * lam}; the contour "
            "touches the spectrum of A^-1 (plan bug)",
            where=lam,
        ) from exc
    y = np.zeros(table.dim, dtype=complex)
    ones = np.ones(tab.s)
    hA = h * tab.A
    for g in table.block(from_step, to_step) @ table.spatial:
        y = (stage_inv @ (np.outer(ones, y) + hA @ g))[-1]  # the last stage, stiffly accurate
    return y


def sector_probe(family, samples, trials: int = 4, seed: int = 0) -> float:
    """Largest observed |nu| * ||solve(nu, y)|| / ||M y|| over the samples.

    A finite, stable value across a wide |nu| sweep is the practical
    sectoriality certificate used by the property tests.
    """
    rng = np.random.default_rng(seed)
    nus = np.repeat(np.asarray(samples, dtype=complex), trials)
    shape = (len(nus), family.dim)
    ys = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    masses = np.linalg.norm(family.apply_mass(ys.T), axis=0)
    return float(np.max(np.abs(nus) * np.linalg.norm(family.solve(nus, ys), axis=1) / masses))


def sample(g, t):
    """Value of the separable data g at time t as a (dim,) array, from one
    pointwise call of its time factors."""
    fac = np.asarray(g._time_factors(np.array([float(t)])), dtype=complex)
    return fac[0] @ g.spatial


def g_stage(problem, n: int, c, h: float):
    """Stage sample vector G_n of a problem's data at times (n + c_k) h,
    shape (s, dim)."""
    return np.stack([sample(problem.g, (n + ck) * h) for ck in np.asarray(c)])


def _example1_u_prime(t):
    q = 0.5 - 0.5 * np.cos(_SQRT5 * t)
    return np.array(
        [
            12.0 * np.sin(2.0 * t) ** 5 * np.cos(2.0 * t),
            3.0 * _SQRT5 * np.sin(_SQRT5 * t) * q**5,
        ]
    )


def example1_factors_one_call(ts):
    """Example 1's time factors g(ts) = D^(1/2) u(ts) - A u(ts) as an (m, 2)
    array, with the nine harmonics of all times in one (9, m) phase array."""
    ts = np.asarray(ts, dtype=float)
    phase = np.empty((9, len(ts)), dtype=complex)  # row k: exp(i omega_k t)
    for first, stop, base in ((0, 3, 4.0), (3, 9, _SQRT5)):
        phase[first] = np.exp(1j * (base * ts))
        for k in range(first + 1, stop):
            np.multiply(phase[k - 1], phase[first], out=phase[k])
    cos = phase.real.ravel()
    _, d_cos = _fresnel_half((_EXAMPLE1_OMEGAS[:, None] * ts).ravel(), phase.imag.ravel(),
                             cos, sin=False)
    return (d_cos.reshape(9, -1).T @ _EXAMPLE1_DHALF
            - (1.0 - cos.reshape(9, -1)).T @ _EXAMPLE1_AU)


def full_grid_pairs(n):
    """(pair masses, pair symbols, pair index) of the n^3 compact-FD
    Laplacian from np.unique over the symbols at every wavevector, without
    the spectral family's fold to the indices 0..n//2."""
    eta = 2.0 * np.pi / n
    xi = 2.0 * np.pi * np.fft.fftfreq(n)
    a = (2.0 * np.cos(xi) - 2.0) / eta**2
    m = 5.0 / 6.0 + np.cos(xi) / 6.0
    (ax, ay, az), (mx, my, mz) = np.ix_(a, a, a), np.ix_(m, m, m)
    mass = mx * my * mz
    op = ax * my * mz + mx * ay * mz + mx * my * az
    pairs, index = np.unique((mass + 1j * op).ravel(), return_inverse=True)
    return pairs.real.astype(complex), pairs.imag.astype(complex), index.ravel()
