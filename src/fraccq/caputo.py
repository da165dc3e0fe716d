"""Closed-form example data, cross-checked by the Caputo-derivative oracle.

The oracle evaluates D^alpha u(t) directly from the defining convolution
of u' with the singular kernel. Substituting sigma = t - tau and then
sigma = s^(1/(1-alpha)) removes the endpoint singularity exactly, leaving
a regular integrand for adaptive Gauss-Kronrod panels:

    D^alpha u(t) = 1/Gamma(2-alpha) * int_0^{t^(1-alpha)} u'(t - s^(1/(1-alpha))) ds.

The example factories do not call it. Their solutions are finite sums of
sin(omega t) and 1 - cos(omega t), whose half-order derivatives are
closed-form in the Fresnel integrals (S, C) = fresnel(sqrt(2 omega t / pi)):

    D^(1/2) sin(omega t)       = sqrt(2 omega) (cos(omega t) C + sin(omega t) S),
    D^(1/2) (1 - cos(omega t)) = sqrt(2 omega) (sin(omega t) C - cos(omega t) S),

so the inhomogeneities are evaluated in one vectorized call per stage
table; the oracle is the independent check of that data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import fresnel

from .errors import AccuracyError, ConfigError, DomainError
from .operators import (
    ConstantInhomogeneity,
    Problem,
    SeparableInhomogeneity,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
)

_SQRT5 = math.sqrt(5.0)


def caputo_oracle(u_prime, alpha: float, t: float, tol: float = 1e-12):
    """Caputo derivative of order alpha at time t > 0, given u'.

    u_prime may return a scalar or an array; the result has the same shape.
    Raises AccuracyError when the panel refinement cannot certify tol.
    """
    if t <= 0.0:
        raise DomainError(f"the oracle needs t > 0, got t={t}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if tol < 1e-12:
        raise DomainError(f"tolerances below 1e-12 are not supported, got {tol}")
    p = 1.0 / (1.0 - alpha)
    s_max = t ** (1.0 - alpha)

    def integrand(s):
        return np.asarray(u_prime(t - s**p))

    value, err = quad_vec(
        integrand, 0.0, s_max, epsabs=tol, epsrel=tol, quadrature="gk21", limit=10000
    )
    scale = max(1.0, float(np.max(np.abs(value))))
    if err > 100.0 * tol * scale:
        raise AccuracyError(
            f"quadrature stalled at estimated error {err:.3e} (requested {tol:.3e})",
            achieved=err,
        )
    return value / math.gamma(2.0 - alpha)


def _half_derivatives(omega, t):
    """D^(1/2) of sin(omega .) and of 1 - cos(omega .) at times t >= 0, in
    the broadcast shape of omega and t (Fresnel form: module docstring)."""
    omega = np.asarray(omega, dtype=float)
    wt = omega * np.asarray(t, dtype=float)
    s, c = fresnel(np.sqrt(2.0 * wt / np.pi))
    scale = np.sqrt(2.0 * omega)
    sin, cos = np.sin(wt), np.cos(wt)
    return scale * (cos * c + sin * s), scale * (sin * c - cos * s)


@dataclass(frozen=True)
class ManufacturedProblem:
    """A Problem with known exact solution plus a provenance note."""

    problem: Problem
    description: str


# ---------------------------------------------------------------------------
# Example 1: dense 2x2 system, alpha = 1/2

# u_i = sum_k b_k (1 - cos(omega_k t)): sin^6(2t) over omega = 4, 8, 12, and
# ((1 - cos(sqrt5 t))/2)^6 = sin^12(sqrt5 t/2) over omega = sqrt5 * (1..6)
_EXAMPLE1_COSINE_SUMS = (
    (np.array([4.0, 8.0, 12.0]), np.array([15.0, -6.0, 1.0]) / 32.0),
    (_SQRT5 * np.arange(1.0, 7.0),
     np.array([1584.0, -990.0, 440.0, -132.0, 24.0, -2.0]) / 4096.0),
)


def _example1_u(t):
    return np.array(
        [np.sin(2.0 * t) ** 6, (0.5 - 0.5 * np.cos(_SQRT5 * t)) ** 6]
    )


def _example1_u_prime(t):
    q = 0.5 - 0.5 * np.cos(_SQRT5 * t)
    return np.array(
        [
            12.0 * np.sin(2.0 * t) ** 5 * np.cos(2.0 * t),
            3.0 * _SQRT5 * np.sin(_SQRT5 * t) * q**5,
        ]
    )


EXAMPLE1_MATRIX = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def _example1_factors(ts):
    """g(ts) = D^(1/2) u(ts) - A u(ts) as an (m, 2) array."""
    ts = np.asarray(ts, dtype=float)
    dhalf = [_half_derivatives(omega, ts[:, None])[1] @ b for omega, b in _EXAMPLE1_COSINE_SUMS]
    return np.stack(dhalf, axis=-1) - _example1_u(ts).T @ EXAMPLE1_MATRIX.T


def example1_problem() -> ManufacturedProblem:
    """2x2 system with alpha = 1/2 and a smooth manufactured solution.

    Both solution components are sixth powers of oscillations vanishing at
    t = 0, so the inhomogeneity is five times continuously differentiable
    with all those derivatives zero at the origin. It is evaluated in
    closed form from the cosine sums above.
    """
    problem = Problem(
        family=dense_operator(None, EXAMPLE1_MATRIX),
        alpha=0.5,
        g=SeparableInhomogeneity(np.eye(2), _example1_factors),
        u_exact=_example1_u,
    )
    return ManufacturedProblem(problem, "dense 2x2, alpha=1/2, sixth-power oscillations")


# ---------------------------------------------------------------------------
# Example 2: 3D periodic subdiffusion, alpha = 1/2


class HalfOrderTrigTable:
    """Vectorized D^(1/2) of sin(pi t) and 1 - cos(pi t) on [0, t_max].

    Evaluated in closed form through the Fresnel integrals; times outside
    the declared range raise DomainError. The adaptive oracle is the
    reference these values are tested against.
    """

    def __init__(self, t_max: float):
        self._t_max = float(t_max)

    def _checked(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self._t_max * 1.0000001):
            raise DomainError(f"time outside the declared range [0, {self._t_max}]")
        return t

    def factors(self, t):
        """(f1(t), f2(t)) as an (m, 2) array, from one Fresnel evaluation:
        f1 = D^(1/2) sin(pi .) + sin(pi t) and
        f2 = D^(1/2) (1 - cos(pi .)) + 1 - cos(pi t)."""
        t = self._checked(t)
        d_sin, d_cos = _half_derivatives(np.pi, t)
        return np.stack([d_sin + np.sin(np.pi * t), d_cos + 1.0 - np.cos(np.pi * t)], axis=-1)

    def f1(self, t):
        return self.factors(t)[..., 0]

    def f2(self, t):
        return self.factors(t)[..., 1]


def example2_fields(n_per_dim: int):
    """Grid samples of h_minus and h_plus on the periodic cube."""
    family = periodic_compact_fd_3d(n_per_dim)
    x, y, z = family.grid()
    trig_cos = np.cos(x) + np.cos(y) + np.cos(z)
    trig_sin = np.sin(x) + np.sin(y) + np.sin(z)
    return family, trig_cos - trig_sin, trig_cos + trig_sin


def example2_problem(n_per_dim: int, t_max: float = 130.0) -> ManufacturedProblem:
    """3D periodic subdiffusion with alpha = 1/2 on an n^3 compact-FD grid.

    The inhomogeneity separates into two fixed grid fields times the scalar
    factors f1, f2, evaluated together for every stage time; the grid
    fields are stored in mass form, as consumed by the resolvent solves.
    """
    if n_per_dim < 8:
        raise ConfigError(f"need n_per_dim >= 8, got {n_per_dim}")
    family, h_minus, h_plus = example2_fields(n_per_dim)
    spatial = np.stack(
        [family.apply_mass(h_minus).real, family.apply_mass(h_plus).real]
    )
    table = HalfOrderTrigTable(t_max)

    def u_exact(t):
        return h_minus * np.sin(np.pi * t) + h_plus * (1.0 - np.cos(np.pi * t))

    problem = Problem(
        family=family,
        alpha=0.5,
        g=SeparableInhomogeneity(spatial, table.factors),
        u_exact=u_exact,
    )
    return ManufacturedProblem(
        problem, f"periodic subdiffusion {n_per_dim}^3, alpha=1/2, separable data"
    )


# ---------------------------------------------------------------------------
# Example 3: fractional Schroedinger with transparent boundaries


def example3_initial(n_points: int, a_half: float) -> np.ndarray:
    """Gaussian wave packet 10 exp(-(4x)^2 + 10 i x) sampled on the grid.

    The packet must be numerically supported inside the domain: the two
    cells next to each boundary carry at most 1e-20 in modulus.
    """
    if a_half < 1.0:
        raise ConfigError(f"need a_half >= 1 for a contained packet, got {a_half}")
    family = schrodinger_tbc_1d(a_half, n_points, 0.75)
    u0 = 10.0 * np.exp(-((4.0 * family.x) ** 2) + 10j * family.x)
    family.validate_initial(u0)
    return u0


def example3_problem(n_points: int, a_half: float, alpha: float = 0.75) -> Problem:
    """Homogeneous fractional Schroedinger problem with nonzero initial data.

    Pass the result through fastcq.transform_initial to obtain the
    zero-initial-data form consumed by the solver.
    """
    family = schrodinger_tbc_1d(a_half, n_points, alpha)
    u0 = 10.0 * np.exp(-((4.0 * family.x) ** 2) + 10j * family.x)
    family.validate_initial(u0)
    return Problem(
        family=family,
        alpha=alpha,
        g=ConstantInhomogeneity(np.zeros(family.dim, dtype=complex)),
        u0=u0,
    )
