"""Operator families (resolvent providers) and problem containers.

A family answers solve(nu, y) for the system (nu*M - A) x = y at complex
frequencies nu = lambda^alpha, one frequency or a batch of them, and
solve(nu, y, weights=W) for a weighted sum of a batch of solves, and states
whether A and M are real (is_real). Three backends: dense matrices, a 3D
periodic compact-finite-difference Laplacian solved spectrally, and a 1D
free-space Schroedinger operator closed with transparent boundary rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy import fft

from . import contour
from .errors import ConfigError, DomainError, SolverError, SupportError

_SUPPORT_ABS = 1e-20


class OperatorFamily(ABC):
    """Resolvent provider: solve (nu*M - A) x = y for complex nu.

    solve() keeps no state between calls. is_real states that A and M have
    no imaginary part, so that with real data the resolvents at conjugate
    frequencies give conjugate solutions.
    """

    dim: int
    theta1_hint: float
    is_real: bool

    def solve(self, nu, y, weights=None):
        """Solve (nu*M - A) x = y; x has the shape of y.

        A scalar nu takes y of shape (dim,) or (dim, m). An array nu of
        shape (B,) solves B systems: y is (B, dim) or (B, dim, m), and
        x[k] solves the system at nu[k], bit for bit as solve(nu[k], y[k])
        would.

        With weights W of shape (B, m), y is one (dim, m) block shared by
        every node and the result is the weighted sum
        sum_k (nu_k M - A)^-1 y W[k], of shape (dim,).
        """
        nu = np.asarray(nu, dtype=complex)
        if weights is not None:
            return self._weighted_sum(nu, np.asarray(y, dtype=complex),
                                      np.asarray(weights, dtype=complex))
        if nu.ndim == 0:
            return self._solve_one(complex(nu), y)
        return self._solve_batch(nu, y)

    @abstractmethod
    def _solve_one(self, nu, y):
        """Solve (nu*M - A) x = y at one frequency; y is (dim,) or (dim, m)."""

    def _solve_batch(self, nu, y):
        """The systems at nu of shape (B,), one after another."""
        x = np.empty(np.shape(y), dtype=complex)
        for k, n in enumerate(nu.tolist()):
            x[k] = self._solve_one(n, y[k])
        return x

    def _weighted_sum(self, nu, y, weights):
        """sum_k (nu_k M - A)^-1 y W[k]: the pre-weighted right-hand sides
        W @ y.T solved as a batch and summed."""
        return self._solve_batch(nu, weights @ y.T).sum(axis=0)

    def apply_op(self, y):
        """Apply the evolution operator A (mass form), used to shift
        inhomogeneities when transforming away initial data."""
        raise NotImplementedError(f"{type(self).__name__} does not expose A")

    def apply_mass(self, y):
        """Apply the mass operator M (the identity unless overridden)."""
        return np.asarray(y)

    def validate_initial(self, u0):
        """Hook for backends with constraints on admissible initial data."""


class DenseOperator(OperatorFamily):
    """(nu*M - A) with explicit matrices; a batch of frequencies is one
    stacked LAPACK solve, which factors each matrix on its own."""

    def __init__(self, A, M=None, theta1_hint=np.pi / 2):
        self.A = np.asarray(A, dtype=complex)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigError(f"A must be square, got shape {self.A.shape}")
        self.has_mass = M is not None
        self.M = np.eye(n, dtype=complex) if M is None else np.asarray(M, dtype=complex)
        if self.M.shape != (n, n):
            raise ConfigError(f"M must match A, got shape {self.M.shape}")
        self.dim = n
        self.theta1_hint = float(theta1_hint)
        self.is_real = not (np.any(self.A.imag) or np.any(self.M.imag))

    def _solve_batch(self, nu, y):
        nu = np.asarray(nu, dtype=complex)
        y = np.asarray(y, dtype=complex)
        vector = y.ndim == nu.ndim + 1
        try:
            x = np.linalg.solve(nu[..., None, None] * self.M - self.A,
                                y[..., None] if vector else y)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"nu*M - A singular at nu={nu}", frequency=nu) from exc
        return x[..., 0] if vector else x

    _solve_one = _solve_batch  # a scalar nu is the one-frequency case

    def apply_op(self, y):
        return self.A @ np.asarray(y, dtype=complex)

    def apply_mass(self, y):
        return self.M @ np.asarray(y, dtype=complex) if self.has_mass else np.asarray(y)


def dense_operator(M, A, theta1_hint=np.pi / 2) -> DenseOperator:
    """Dense backend; pass M=None for an identity mass matrix."""
    return DenseOperator(A, M=M, theta1_hint=theta1_hint)


def _axis_mass(u, axis):
    # compact-FD mass stencil (1/12, 5/6, 1/12), periodic
    return (np.roll(u, 1, axis) + np.roll(u, -1, axis)) / 12.0 + 5.0 * u / 6.0


def _axis_lap(u, axis, eta):
    return (np.roll(u, 1, axis) - 2.0 * u + np.roll(u, -1, axis)) / eta**2


class PeriodicCompactFD3D(OperatorFamily):
    """Fourth-order compact-FD Laplacian on a periodic (2 pi)^3 grid.

    One-dimensional blocks A1 = circulant(1,-2,1)/eta^2 and
    M1 = circulant(1/12, 5/6, 1/12) composed by Kronecker sums:
    A3 = A1 x M1 x M1 + M1 x A1 x M1 + M1 x M1 x A1, M3 = M1 x M1 x M1.
    Both are diagonalized by the 3D DFT, so a solve is three FFTs and a
    pointwise division by the symbol per frequency; a batch runs its
    frequencies one after another (a stacked 4-D FFT raised peak memory).
    A weighted sum over a batch stays in Fourier space: the m columns of y
    are transformed once, the weights are contracted with the reciprocal
    symbols 1/(nu_k m - a) into one multiplier per column, and one inverse
    FFT returns the sum. The reciprocals are taken over the distinct
    (mass, op) symbol pairs only (254 of 4,096 on 16^3, 47 of 512 on 8^3).
    """

    is_real = True
    theta1_hint = np.pi / 2

    def __init__(self, n_per_dim: int):
        if n_per_dim < 4:
            raise ConfigError(f"need at least 4 grid points per axis, got {n_per_dim}")
        self.n = int(n_per_dim)
        self.eta = 2.0 * np.pi / self.n
        self.dim = self.n**3
        xi = 2.0 * np.pi * fft.fftfreq(self.n)
        a = (2.0 * np.cos(xi) - 2.0) / self.eta**2
        m = 5.0 / 6.0 + np.cos(xi) / 6.0
        self._mass_symbol = (
            m[:, None, None] * m[None, :, None] * m[None, None, :]
        )
        self._op_symbol = (
            a[:, None, None] * m[None, :, None] * m[None, None, :]
            + m[:, None, None] * a[None, :, None] * m[None, None, :]
            + m[:, None, None] * m[None, :, None] * a[None, None, :]
        )
        # distinct (mass, op) pairs; a complex key m + i a compares as the pair
        pairs, self._pair_index = np.unique(
            (self._mass_symbol + 1j * self._op_symbol).ravel(), return_inverse=True)
        self._pair_mass, self._pair_op = pairs.real, pairs.imag

    def grid(self):
        """Flattened meshgrid coordinates (x, y, z), C order."""
        x1 = self.eta * np.arange(self.n)
        x, y, z = np.meshgrid(x1, x1, x1, indexing="ij")
        return x.ravel(), y.ravel(), z.ravel()

    def _column_transforms(self, y):
        """3D DFTs of the columns of y, (dim,) or (dim, m), as (m, n, n, n).

        The columns are copied to contiguous memory first: numpy's FFT keeps
        the strides of a column view and ran about twice as slow on them.
        """
        cols = np.ascontiguousarray(np.reshape(y, (self.dim, -1)).T)
        return fft.fftn(cols.reshape(-1, self.n, self.n, self.n), axes=(1, 2, 3))

    def _weighted_sum(self, nu, y, weights):
        denom = nu[:, None] * self._pair_mass - self._pair_op  # (B, distinct pairs)
        if not np.all(denom):
            bad = nu[np.argmin(np.all(denom, axis=1))]
            raise SolverError(f"symbol vanishes at nu={bad}", frequency=bad)
        mult = weights.T @ np.reciprocal(denom, out=denom)  # (m, distinct pairs)
        hat = self._column_transforms(y).reshape(-1, self.dim)
        total = (hat * np.take(mult, self._pair_index, axis=1)).sum(axis=0)
        return fft.ifftn(total.reshape(self.n, self.n, self.n)).ravel()

    def _solve_one(self, nu, y):
        y = np.asarray(y, dtype=complex)
        denom = nu * self._mass_symbol - self._op_symbol
        if np.any(denom == 0.0):
            raise SolverError(f"symbol vanishes at nu={nu}", frequency=nu)
        x = fft.ifftn(self._column_transforms(y) / denom, axes=(1, 2, 3))
        return x.reshape(-1, self.dim).T.reshape(y.shape)

    def apply_op(self, y):
        u = np.asarray(y, dtype=complex).reshape(self.n, self.n, self.n)
        out = np.zeros_like(u)
        for axis in range(3):
            t = _axis_lap(u, axis, self.eta)
            for other in range(3):
                if other != axis:
                    t = _axis_mass(t, other)
            out += t
        return out.ravel()

    def apply_mass(self, y):
        u = np.asarray(y, dtype=complex).reshape(self.n, self.n, self.n)
        for axis in range(3):
            u = _axis_mass(u, axis)
        return u.ravel()


def periodic_compact_fd_3d(n_per_dim: int) -> PeriodicCompactFD3D:
    return PeriodicCompactFD3D(n_per_dim)


class SchrodingerTBC1D(OperatorFamily):
    """i*Laplacian on [-a, a] with transparent compact-FD boundary rows.

    Interior rows of (nu*M - i*A) are the constant tridiagonal
    (phi, psi, phi) with phi = nu/12 - i/eta^2 and psi = 5 nu/6 + 2 i/eta^2.
    The exterior decaying solution u_out = z1 * u_boundary (|z1| < 1, root
    of phi z^2 + psi z + phi = 0) folds into the two corner rows; solve()
    is one LAPACK tridiagonal solve of those closed rows per frequency.
    """

    is_real = False

    def __init__(self, a_half: float, n_points: int, alpha: float):
        if n_points < 5:
            raise ConfigError(f"need at least 5 grid points, got {n_points}")
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        self.a_half = float(a_half)
        self.n = int(n_points)
        self.dim = self.n
        self.alpha = float(alpha)
        self.eta = 2.0 * self.a_half / (self.n - 1)
        self.x = np.linspace(-self.a_half, self.a_half, self.n)
        self.theta1_hint = contour.theta1(alpha, 0.0)
        # scipy is imported here, at set-up, and only by this backend
        from scipy.linalg import solve_banded

        self._solve_banded = solve_banded

    def roots(self, nu):
        """Both roots of phi z^2 + psi z + phi = 0, decaying one first.

        The larger-magnitude numerator of the quadratic formula gives one
        root accurately; the other follows from the unit product of roots.
        """
        phi = nu / 12.0 - 1j / self.eta**2
        psi = 5.0 * nu / 6.0 + 2j / self.eta**2
        if phi == 0.0:
            raise SolverError(f"phi vanishes at nu={nu}", frequency=nu)
        disc = np.sqrt(complex(psi * psi - 4.0 * phi * phi))
        num = -psi + disc if abs(-psi + disc) >= abs(-psi - disc) else -psi - disc
        z_a = num / (2.0 * phi)
        z_b = 1.0 / z_a
        if abs(abs(z_a) - 1.0) < 1e-10 and abs(abs(z_b) - 1.0) < 1e-10:
            raise SolverError(
                f"degenerate boundary roots |z| = 1 at nu={nu}", frequency=nu
            )
        z1, z2 = (z_a, z_b) if abs(z_a) < 1.0 else (z_b, z_a)
        return z1, z2

    def closed_rows(self, nu):
        """(sub/super, diag) of the boundary-closed tridiagonal at nu."""
        phi = nu / 12.0 - 1j / self.eta**2
        psi = 5.0 * nu / 6.0 + 2j / self.eta**2
        z1, _ = self.roots(nu)
        diag = np.full(self.n, psi, dtype=complex)
        diag[0] += phi * z1
        diag[-1] += phi * z1
        return phi, diag

    def _solve_one(self, nu, y):
        phi, diag = self.closed_rows(nu)
        bands = np.array([np.full(self.n, phi), diag, np.full(self.n, phi)])
        y = np.asarray(y, dtype=complex)
        try:
            return self._solve_banded((1, 1), bands, y, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"closed tridiagonal singular at nu={nu}", frequency=nu) from exc

    def apply_op(self, y):
        # i * second difference with zero ghost values; valid for data
        # supported away from the boundary
        u = np.asarray(y, dtype=complex)
        lap = -2.0 * u.copy()
        lap[1:] += u[:-1]
        lap[:-1] += u[1:]
        return 1j * lap / self.eta**2

    def apply_mass(self, y):
        u = np.asarray(y, dtype=complex)
        out = 5.0 * u / 6.0
        out[1:] += u[:-1] / 12.0
        out[:-1] += u[1:] / 12.0
        return out

    def validate_initial(self, u0):
        u0 = np.asarray(u0)
        edge = np.max(np.abs(np.concatenate((u0[:2], u0[-2:]))))
        if edge > _SUPPORT_ABS:
            raise SupportError(
                f"initial data reaches the boundary cells (|u0| = {edge:.3e} "
                f"> {_SUPPORT_ABS:g}); enlarge the domain"
            )


def schrodinger_tbc_1d(a_half: float, n_points: int, alpha: float) -> SchrodingerTBC1D:
    return SchrodingerTBC1D(a_half, n_points, alpha)


def sector_probe(family: OperatorFamily, samples, trials: int = 4, seed: int = 0) -> float:
    """Largest observed |nu| * ||solve(nu, y)|| / ||M y|| over the samples.

    A finite, stable value across a wide |nu| sweep is the practical
    sectoriality certificate used by the property tests.
    """
    rng = np.random.default_rng(seed)
    nus = np.repeat(np.asarray(samples, dtype=complex), trials)
    shape = (len(nus), family.dim)
    ys = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    masses = np.linalg.norm([family.apply_mass(y) for y in ys], axis=1)
    return float(np.max(np.abs(nus) * np.linalg.norm(family.solve(nus, ys), axis=1) / masses))


# ---------------------------------------------------------------------------
# Inhomogeneity sampling


class SeparableStageTable:
    """Stage samples G_n = sum_r time[n, :, r] * spatial[r, :], n = 0..N-1,
    each of shape (s, dim), kept in factored form.

    Every reader works in the rank space of the data: block returns time
    factors, and a caller that needs full samples forms block @ spatial.
    is_real states that the samples are real: the time factors were given
    with a real dtype and the spatial factors have no imaginary part. The
    time factors are judged by dtype because a scan of their values costs
    time on every table: 0.18 ms for example 2 at N = 2e4 on a 2-vCPU host,
    about 1 % of a solve.
    """

    def __init__(self, time_factors, spatial):
        self.time = np.ascontiguousarray(time_factors, dtype=complex)
        self.spatial = np.ascontiguousarray(spatial, dtype=complex)
        self.is_real = not np.iscomplexobj(time_factors) and not np.any(self.spatial.imag)
        self.N, self.s, self.rank = self.time.shape
        self.dim = self.spatial.shape[1]

    def block(self, n0, n1):
        """Time factors of steps n0..n1-1 as an (n1-n0, s, rank) view; the
        samples are block(n0, n1) @ spatial."""
        return self.time[n0:n1]


class SeparableInhomogeneity:
    """Mass-form inhomogeneity g(t) = sum_r time_factors(t)[r] * spatial[r, :].

    time_factors takes an array of times (m,) and returns (m, r); tables
    never materialize the full (N, s, dim) block.
    """

    def __init__(self, spatial, time_factors: Callable[[np.ndarray], np.ndarray]):
        self.spatial = np.asarray(spatial, dtype=complex)
        self._time_factors = time_factors
        self.dim = self.spatial.shape[1]
        self.rank = self.spatial.shape[0]

    def sample(self, t):
        """Value at time t as a (dim,) array."""
        fac = np.asarray(self._time_factors(np.array([float(t)])), dtype=complex)
        return fac[0] @ self.spatial

    def table(self, N, h, c) -> SeparableStageTable:
        """Stage samples at times (n + c_k) h, n = 0..N-1."""
        c = np.asarray(c, dtype=float)
        times = ((np.arange(N)[:, None] + c[None, :]) * h).ravel()
        fac = np.asarray(self._time_factors(times))
        return SeparableStageTable(fac.reshape(N, len(c), self.rank), self.spatial)

    def shifted(self, offset) -> "SeparableInhomogeneity":
        """The sampler for g(t) + offset: one more rank with a unit time
        factor. All-zero spatial rows add nothing and are dropped."""
        offset = np.asarray(offset, dtype=complex).reshape(1, -1)
        keep = np.flatnonzero(np.any(self.spatial != 0, axis=1))
        spatial = np.vstack([self.spatial[keep], offset])
        base = self._time_factors

        def factors(ts):
            f = np.asarray(base(ts))[:, keep]
            return np.hstack([f, np.ones((f.shape[0], 1))])

        return SeparableInhomogeneity(spatial, factors)


def ConstantInhomogeneity(vec) -> SeparableInhomogeneity:
    """Time-constant data g(t) = vec: rank 1 with a unit time factor."""
    vec = np.asarray(vec, dtype=complex)
    return SeparableInhomogeneity(vec[None, :], lambda ts: np.ones((len(ts), 1)))


@dataclass(frozen=True)
class Problem:
    """Evolution problem: operator family, fractional order, data samplers."""

    family: OperatorFamily
    alpha: float
    g: SeparableInhomogeneity
    u_exact: Callable[[float], np.ndarray] | None = None
    u0: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.g.dim != self.family.dim:
            raise ConfigError(
                f"inhomogeneity dim {self.g.dim} != operator dim {self.family.dim}"
            )

    def g_stage(self, n: int, c, h: float):
        """Stage sample vector G_n at times (n + c_k) h, shape (s, dim)."""
        return np.stack([self.g.sample((n + ck) * h) for ck in np.asarray(c)])

    @property
    def has_initial(self) -> bool:
        return self.u0 is not None and bool(np.any(self.u0 != 0))
