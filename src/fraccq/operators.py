"""Operator families (resolvent providers) and problem containers.

A family answers solve(nu, y) for the system (nu*M - A) x = y at complex
frequencies nu = lambda^alpha, one frequency or a batch of them, and
solve(nu, y, weights=W) for a weighted sum of a batch of solves, and states
whether A and M are real (is_real) and the sector of its spectrum (theta0).
Each family answers one hook, _solve_batch; a scalar nu is the batch of one.
Three backends: dense matrices (one stacked LAPACK solve), a 3D periodic
compact-finite-difference Laplacian solved spectrally, and a 1D free-space
Schroedinger operator closed with transparent boundary rows, solved by its
Green's function. None of them needs scipy.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy import fft

from .errors import ConfigError, DomainError, SolverError, SupportError

_SUPPORT_ABS = 1e-20
_INDEX_MAX = int(np.iinfo(np.intp).max)
_EPS = float(np.finfo(float).eps)
_TABLE_CHUNK = 1 << 16  # least stage times per evaluation of a table's time factors
_TBC_CHUNK = 1024  # most nodes per batch of a TBC weighted sum, which bounds its (B, dim) arrays


class OperatorFamily(ABC):
    """Resolvent provider: solve (nu*M - A) x = y for complex nu.

    solve() keeps no state between calls. is_real states that A and M have
    no imaginary part, so that with real data the resolvents at conjugate
    frequencies give conjugate solutions. The spectrum of M^-1 A lies in
    |arg(-z)| <= pi/2 - theta0; contour.theta1 turns theta0 into the contour
    angle at an order. alpha is the order the family was built for, or None.
    """

    dim: int
    theta0: float
    is_real: bool
    alpha: float | None = None

    def solve(self, nu, y, weights=None):
        """Solve (nu*M - A) x = y; x has the shape of y.

        A scalar nu takes y of shape (dim,) or (dim, m) and is solved as a
        batch of one. An array nu of shape (B,) solves B systems: y is
        (B, dim) or (B, dim, m), and x[k] solves the system at nu[k], bit
        for bit as solve(nu[k], y[k]) would. A singular system or a solution
        with a non-finite entry raises SolverError.

        With weights W of shape (B, m), y is one (dim, m) block shared by
        every node and the result is the weighted sum
        sum_k (nu_k M - A)^-1 y W[k], of shape (dim,).
        """
        nu = np.asarray(nu, dtype=complex)
        try:
            if weights is not None:
                x = self._weighted_sum(nu, np.asarray(y, dtype=complex),
                                       np.asarray(weights, dtype=complex))
            elif nu.ndim == 0:  # the batch of one
                x = self._solve_batch(nu[None], np.asarray(y)[None])[0]
            else:
                x = self._solve_batch(nu, y)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"nu*M - A singular at nu={nu}", frequency=nu) from exc
        if not np.all(np.isfinite(x)):
            raise SolverError(f"non-finite solution at nu={nu}", frequency=nu)
        return x

    @abstractmethod
    def _solve_batch(self, nu, y):
        """The systems at nu of shape (B,); y is (B, dim) or (B, dim, m)."""

    def _weighted_sum(self, nu, y, weights):
        """sum_k (nu_k M - A)^-1 y W[k]: the pre-weighted right-hand sides
        W @ y.T solved as a batch and summed."""
        return self._solve_batch(nu, weights @ y.T).sum(axis=0)

    def apply_op(self, y):
        """A y (mass form) for y of shape (dim,) or (dim, m); it shifts the
        data when transform_initial moves initial data into them."""
        raise NotImplementedError(f"{type(self).__name__} does not expose A")

    def apply_mass(self, y):
        """M y for y of shape (dim,) or (dim, m); M is the identity unless overridden."""
        return np.asarray(y)

    def validate_initial(self, u0):
        """Hook for backends with constraints on admissible initial data."""


class DenseOperator(OperatorFamily):
    """(nu*M - A) with explicit matrices; a batch of frequencies is one
    stacked LAPACK solve, which factors each matrix on its own."""

    def __init__(self, A, M=None):
        self.A = np.asarray(A, dtype=complex)
        n = self.A.shape[0] if self.A.ndim else 0
        if self.A.shape != (n, n):
            raise ConfigError(f"A must be a square matrix, got shape {self.A.shape}")
        self._identity_mass = M is None
        self.M = np.eye(n, dtype=complex) if M is None else np.asarray(M, dtype=complex)
        if self.M.shape != (n, n):
            raise ConfigError(f"M must match A, got shape {self.M.shape}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.M))):
            raise ConfigError("A and M must have finite entries")
        self.dim = n
        self.is_real = not (np.any(self.A.imag) or np.any(self.M.imag))

    @functools.cached_property
    def theta0(self) -> float:
        """Least |arg z| - pi/2 over the eigenvalues z of M^-1 A, taken at the
        first solve that sizes a contour; z within a relative dim*eps of 0
        has no angle. A singular M raises ConfigError, and a z right of the
        imaginary axis DomainError."""
        try:
            op = self.A if self._identity_mass else np.linalg.solve(self.M, self.A)
            eigs = np.linalg.eigvals(op)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("M is singular: M^-1 A sets the contour angle") from exc
        tiny = self.dim * _EPS * np.max(np.abs(eigs), initial=0.0)
        eigs = eigs[np.abs(eigs) > tiny]
        if np.any(eigs.real > tiny):
            raise DomainError(f"M^-1 A has the eigenvalue {eigs[np.argmax(eigs.real)]:.6g} "
                              "right of the imaginary axis")
        return max(float(np.min(np.abs(np.angle(eigs)), initial=np.pi)) - np.pi / 2, 0.0)

    def _solve_batch(self, nu, y):
        y = np.asarray(y, dtype=complex)
        vector = y.ndim == 2
        x = np.linalg.solve(nu[:, None, None] * self.M - self.A, y[..., None] if vector else y)
        return x[..., 0] if vector else x

    def apply_op(self, y):
        return self.A @ np.asarray(y, dtype=complex)

    def apply_mass(self, y):
        return self.M @ np.asarray(y, dtype=complex)


def dense_operator(M, A) -> DenseOperator:
    """Dense backend; pass M=None for an identity mass matrix."""
    return DenseOperator(A, M=M)


class PeriodicCompactFD3D(OperatorFamily):
    """Fourth-order compact-FD Laplacian on a periodic (2 pi)^3 grid.

    One-dimensional blocks A1 = circulant(1,-2,1)/eta^2 and
    M1 = circulant(1/12, 5/6, 1/12) composed by Kronecker sums:
    A3 = A1 x M1 x M1 + M1 x A1 x M1 + M1 x M1 x A1, M3 = M1 x M1 x M1.
    Both are diagonalized by the 3D DFT. Their symbols m(xi), a(xi) are kept
    once, as the distinct (m, a) pairs (254 of 4,096 on 16^3, 47 of 512 on
    8^3) and each wavevector's index into them: a solve, apply_mass and
    apply_op multiply the column transforms by 1/(nu m - a), m or a and
    transform back, and a batch runs its frequencies one after another (a
    stacked 4-D FFT raised peak memory). A weighted sum contracts the
    weights with the reciprocals 1/(nu_k m - a) into one multiplier per
    column of y, so one inverse FFT returns it.
    """

    is_real = True
    theta0 = np.pi / 2  # a real nonpositive spectrum

    def __init__(self, n_per_dim: int):
        if (not isinstance(n_per_dim, (int, np.integer)) or n_per_dim < 4
                or int(n_per_dim) ** 3 > _INDEX_MAX):
            raise ConfigError(f"need an integer n_per_dim >= 4, n^3 indexable, got {n_per_dim!r}")
        self.n = int(n_per_dim)
        self.eta = 2.0 * np.pi / self.n
        self.dim = self.n**3
        xi = 2.0 * np.pi * fft.fftfreq(self.n)
        a = (2.0 * np.cos(xi) - 2.0) / self.eta**2
        m = 5.0 / 6.0 + np.cos(xi) / 6.0
        (ax, ay, az), (mx, my, mz) = np.ix_(a, a, a), np.ix_(m, m, m)
        mass = mx * my * mz
        op = ax * my * mz + mx * ay * mz + mx * my * az
        # a complex key m + i a compares as the pair
        pairs, self._pair_index = np.unique((mass + 1j * op).ravel(), return_inverse=True)
        # stored complex, so that nu m - a runs in one dtype
        self._pair_mass, self._pair_op = pairs.real.astype(complex), pairs.imag.astype(complex)

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

    def _reciprocals(self, nu):
        """1/(nu m - a) over the pairs for nu of shape (B,), as (B, pairs); a
        vanishing symbol raises SolverError naming its frequency."""
        denom = nu[:, None] * self._pair_mass
        denom -= self._pair_op  # in place: a second (B, pairs) array took 5x the arithmetic
        if not np.all(denom):
            bad = nu[np.argmin(np.all(denom, axis=1))]
            raise SolverError(f"symbol vanishes at nu={bad}", frequency=bad)
        return np.reciprocal(denom, out=denom)

    def _times_pairs(self, y, per_pair):
        """The column transforms of y times per_pair at each wavevector's
        pair, transformed back to the shape of y."""
        y = np.asarray(y, dtype=complex)
        symbol = np.take(per_pair, self._pair_index).reshape(self.n, self.n, self.n)
        x = fft.ifftn(self._column_transforms(y) * symbol, axes=(1, 2, 3))
        return x.reshape(-1, self.dim).T.reshape(y.shape)

    def _weighted_sum(self, nu, y, weights):
        mult = weights.T @ self._reciprocals(nu)  # (m, distinct pairs)
        hat = self._column_transforms(y).reshape(-1, self.dim)
        total = (hat * np.take(mult, self._pair_index, axis=1)).sum(axis=0)
        return fft.ifftn(total.reshape(self.n, self.n, self.n)).ravel()

    def _solve_batch(self, nu, y):
        return np.stack([self._times_pairs(yk, r) for yk, r in zip(y, self._reciprocals(nu))])

    def apply_op(self, y):
        return self._times_pairs(y, self._pair_op)

    def apply_mass(self, y):
        return self._times_pairs(y, self._pair_mass)


def periodic_compact_fd_3d(n_per_dim: int) -> PeriodicCompactFD3D:
    return PeriodicCompactFD3D(n_per_dim)


class SchrodingerTBC1D(OperatorFamily):
    """i*Laplacian on [-a, a] with transparent compact-FD boundary rows.

    Interior rows of (nu*M - i*A) are the constant tridiagonal
    (phi, psi, phi) with phi = nu/12 - i/eta^2 and psi = 5 nu/6 + 2 i/eta^2
    (_interior). The exterior decaying solution u_out = z1 * u_boundary
    (|z1| < 1, root of phi z^2 + psi z + phi = 0) folds into the two corner
    rows. The closed system's solution is the free-space Green's function
    x_i = sum_j z1^|i-j| y_j / (psi + 2 phi z1) (_solve_batch). apply_mass and
    apply_op are the interior stencils with zero ghost values, which the
    closed rows match on data that vanish at both ends.
    """

    is_real = False
    theta0 = 0.0  # a spectrum on the imaginary axis

    def __init__(self, a_half: float, n_points: int, alpha: float):
        if not isinstance(n_points, (int, np.integer)) or not 5 <= n_points <= _INDEX_MAX:
            raise ConfigError(f"need an integer n_points in [5, {_INDEX_MAX}], got {n_points!r}")
        self.n = int(n_points)
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        if not 0.0 < a_half < np.inf:
            raise ConfigError(f"half-width a_half must be finite and positive, got {a_half}")
        self.a_half = float(a_half)
        self.dim = self.n
        self.alpha = float(alpha)
        self.eta = 2.0 * self.a_half / (self.n - 1)
        if not 1e-150 < self.eta < 1e150:  # so that eta^2 and 1/eta^2 are finite floats
            raise ConfigError(f"grid spacing eta={self.eta:g} outside [1e-150, 1e150]")
        self.x = np.linspace(-self.a_half, self.a_half, self.n)

    def _interior(self, nu):
        """(phi, psi): the off-diagonal and the diagonal of the interior rows at nu."""
        return nu / 12.0 - 1j / self.eta**2, 5.0 * nu / 6.0 + 2j / self.eta**2

    def roots(self, nu):
        """Both roots of phi z^2 + psi z + phi = 0, decaying one first, elementwise in nu."""
        return self._boundary(nu)[1:]

    def _boundary(self, nu):
        """(phi, z1, z2) at nu: the interior off-diagonal and roots(nu).

        The larger-magnitude numerator of the quadratic formula gives one
        root accurately; the other follows from the unit product of roots.
        A vanishing phi, an overflowing discriminant psi^2 - 4 phi^2 or roots
        on the unit circle raise SolverError at the first node with any.
        """
        nu = np.asarray(nu, dtype=complex)
        with np.errstate(all="ignore"):
            phi, psi = self._interior(nu)
            disc = psi * psi - 4.0 * phi * phi
            plus, minus = -psi + np.sqrt(disc), -psi - np.sqrt(disc)
            z_a = np.where(abs(plus) >= abs(minus), plus, minus) / (2.0 * phi)
            z_b = 1.0 / z_a
            unit = (abs(abs(z_a) - 1.0) < 1e-10) & (abs(abs(z_b) - 1.0) < 1e-10)  # both |z| = 1
        bad = np.flatnonzero((phi == 0.0) | ~np.isfinite(disc) | unit)
        if bad.size:
            k = bad[0]
            at = nu.flat[k]
            if phi.flat[k] == 0.0:
                raise SolverError(f"phi vanishes at nu={at}", frequency=at)
            if not np.isfinite(disc.flat[k]):
                raise SolverError(f"boundary-root discriminant overflows at nu={at}", frequency=at)
            raise SolverError(f"degenerate boundary roots |z| = 1 at nu={at}", frequency=at)
        inside = abs(z_a) < 1.0
        return phi, np.where(inside, z_a, z_b)[()], np.where(inside, z_b, z_a)[()]

    def closed_rows(self, nu):
        """(sub/super, diag) of the boundary-closed tridiagonal at nu."""
        phi, psi = self._interior(nu)
        z1, _ = self.roots(nu)
        diag = np.full(self.n, psi, dtype=complex)
        diag[0] += phi * z1
        diag[-1] += phi * z1
        return phi, diag

    def _solve_batch(self, nu, y):
        """Two recurrences over the rows, with c = -z1/phi = (1 - z1^2)/(psi + 2 phi z1):
        w_i = c y_i + z1 w_(i-1) forward, x_(n-1) = w_(n-1)/(1 - z1^2), x_i = w_i + z1 x_(i+1)
        backward. Each step acts on one C-contiguous row of all columns, as in a batch of one."""
        phi, z1, _ = self._boundary(nu)
        y = np.moveaxis(np.asarray(y), 1, 0)  # (dim, B) or (dim, B, m)
        x = np.empty(y.shape, dtype=complex)
        rows = list(x.reshape(self.n, -1))  # views: row i of every column, made once
        z = np.repeat(z1, int(np.prod(y.shape[2:])))
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite solution
            np.multiply(y, (-z1 / phi).reshape(-1, *[1] * (y.ndim - 2)), out=x)
            for prev, row in zip(rows, rows[1:]):
                row += z * prev
            rows[-1][...] = 1.0 / (1.0 - z * z) * rows[-1]  # not *=, which rounds one column apart
            for nxt, row in zip(rows[::-1], rows[-2::-1]):
                row += z * nxt
        return np.moveaxis(x, 0, 1)

    def _weighted_sum(self, nu, y, weights):
        """The base class's sum over even chunks of at most _TBC_CHUNK nodes."""
        total = np.zeros(self.n, dtype=complex)
        for part in np.array_split(np.arange(len(nu)), max(1, -(-len(nu) // _TBC_CHUNK))):
            total += super()._weighted_sum(nu[part], y, weights[part])
        return total

    def apply_op(self, y):
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


# ---------------------------------------------------------------------------
# Inhomogeneity sampling


class SeparableStageTable:
    """Stage samples G_n = sum_r time[n, :, r] * spatial[r, :], n = 0..N-1,
    each of shape (s, dim), kept in factored form.

    Every reader works in the rank space of the data: block returns time
    factors, and a caller that needs full samples forms block @ spatial.
    The time factors keep their kind: float64 when given with a real
    dtype, complex128 otherwise, so real data take half the memory and the
    marches multiply them in real arithmetic. is_real states that the
    samples are real: the time factors are float64 and the spatial factors
    have no imaginary part. Complex time factors are judged by dtype, not
    by a scan of their imaginary parts, which would cost time on every
    table: 0.15 ms for example 2 at N = 2e4 on a 2-vCPU host, 1-2 % of a
    solve.
    """

    def __init__(self, time_factors, spatial):
        kind = complex if np.iscomplexobj(time_factors) else float
        self.time = np.ascontiguousarray(time_factors, dtype=kind)
        self.spatial = np.ascontiguousarray(spatial, dtype=complex)
        self.is_real = kind is float and not np.any(self.spatial.imag)
        self.N, self.s, self.rank = self.time.shape
        self.dim = self.spatial.shape[1]

    def block(self, n0, n1):
        """Time factors of steps n0..n1-1 as an (n1-n0, s, rank) view; the
        samples are block(n0, n1) @ spatial."""
        return self.time[n0:n1]


class SeparableInhomogeneity:
    """Mass-form inhomogeneity g(t) = sum_r time_factors(t)[r] * spatial[r, :].

    time_factors takes an array of times (m,) and returns (m, r); tables
    never materialize the full (N, s, dim) block. Spatial factors that are
    not a finite numeric (r, dim) array raise ConfigError.
    """

    def __init__(self, spatial, time_factors: Callable[[np.ndarray], np.ndarray]):
        spatial = np.asarray(spatial)
        if (spatial.ndim != 2 or not np.issubdtype(spatial.dtype, np.number)
                or not np.all(np.isfinite(spatial))):
            raise ConfigError("spatial factors must be a finite numeric (rank, dim) array, "
                              f"got {spatial.dtype} of shape {spatial.shape}")
        self.spatial = np.asarray(spatial, dtype=complex)
        self._time_factors = time_factors
        self.dim = self.spatial.shape[1]
        self.rank = self.spatial.shape[0]

    def table(self, N, h, c) -> SeparableStageTable:
        """Stage samples at times (n + c_k) h, n = 0..N-1. The time factors
        are evaluated in chunks of whole steps, at least 2^16 stage times
        each, so that their temporaries stay a chunk's size (example 2 at
        N = 1e6 peaked at five times its 48 MB table in one call); a table
        of one chunk is that call's array, and a longer one turns complex
        when a chunk does. Time factors that overflow or are undefined there
        raise DomainError, and a chunk that is not a numeric (stage times,
        rank) array raises ConfigError; no entry is scanned."""
        c = np.asarray(c, dtype=float)
        steps = -(-_TABLE_CHUNK // len(c))

        def factors(n0):
            times = ((np.arange(n0, min(n0 + steps, N))[:, None] + c[None, :]) * h).ravel()
            fac = np.asarray(self._time_factors(times))
            if fac.shape != (len(times), self.rank) or not np.issubdtype(fac.dtype, np.number):
                raise ConfigError(f"time factors must be numeric of shape ({len(times)}, "
                                  f"{self.rank}), got {fac.dtype} of shape {fac.shape}")
            return fac

        try:
            with np.errstate(over="raise", invalid="raise"):
                fac = factors(0)
                if N > steps:
                    whole = np.empty((N * len(c), *fac.shape[1:]), dtype=fac.dtype)
                    whole[:len(fac)] = fac
                    fac = whole
                    for n0 in range(steps, N, steps):
                        part = factors(n0)
                        fac = fac.astype(np.result_type(fac, part), copy=False)
                        fac[n0 * len(c):n0 * len(c) + len(part)] = part
        except FloatingPointError as exc:
            raise DomainError(f"the data's time factors overflow on [0, {N * h:g}]: {exc}") from exc
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
    return SeparableInhomogeneity(np.asarray(vec)[None], lambda ts: np.ones((len(ts), 1)))


@dataclass(frozen=True)
class Problem:
    """Zero-initial evolution problem D^alpha u = A u + g, u(0) = 0: operator
    family, fractional order, mass-form data and, if known, exact solution.
    transform_initial brings nonzero initial data into this form.

    A problem also keeps the stage table, circle rule and stage plan of
    its last solve parameters (fastcq._kept). They take no part in
    comparison or repr; dataclasses.replace starts without them.
    """

    family: OperatorFamily
    alpha: float
    g: SeparableInhomogeneity
    u_exact: Callable[[float], np.ndarray] | None = None
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.g.dim != self.family.dim:
            raise ConfigError(
                f"inhomogeneity dim {self.g.dim} != operator dim {self.family.dim}"
            )
        if self.family.alpha not in (None, self.alpha):
            raise ConfigError(
                f"operator family built for alpha={self.family.alpha}, "
                f"problem has alpha={self.alpha}"
            )


def transform_initial(problem: Problem, u0):
    """The zero-initial form of D^alpha v = A v + g, v(0) = u0, and its offset.

    The Caputo derivative of a constant vanishes, so u = v - u0 solves the
    problem with data g + A u0 (mass form), u(0) = 0 and exact solution
    u_exact - u0. Returns that problem and the offset u0 (real if u0 is), so
    that v = u + u0; a zero u0 returns problem itself. A u0 that is not a
    finite (dim,) vector raises ConfigError, and the family may refuse
    inadmissible data (validate_initial).
    """
    fam = problem.family
    u0 = np.asarray(u0)
    if (u0.shape != (fam.dim,) or not np.issubdtype(u0.dtype, np.number)
            or not np.all(np.isfinite(u0))):
        raise ConfigError(f"u0 must be a finite numeric vector of shape ({fam.dim},), "
                          f"got {u0.dtype} of shape {u0.shape}")
    u0 = u0.astype(np.result_type(u0, float))
    if not np.any(u0):
        return problem, u0
    fam.validate_initial(u0)
    u_exact = problem.u_exact
    shifted_exact = None if u_exact is None else (lambda t: u_exact(t) - u0)
    new = Problem(fam, problem.alpha, problem.g.shifted(fam.apply_op(u0)), shifted_exact)
    return new, u0.copy()
