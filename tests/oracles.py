"""Independent oracles that only the tests use.

Each evaluates what the package computes in its own, slower way: the
scalar march steps the stage equations one step at a time, the data
samples call the time factors one time at a time, and the sector probe
measures the resolvent bound that the contour relies on.
"""

import numpy as np

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
