"""Closed-form example data, cross-checked by the Caputo-derivative oracle.

The oracle evaluates D^alpha u(t) directly from the defining convolution
of u' with the singular kernel. Substituting sigma = t - tau and then
sigma = s^(1/(1-alpha)) removes the endpoint singularity exactly, leaving
a regular integrand for adaptive Gauss-Kronrod panels:

    D^alpha u(t) = 1/Gamma(2-alpha) * int_0^{t^(1-alpha)} u'(t - s^(1/(1-alpha))) ds.

The example factories do not call it. Their solutions are finite sums of
sin(omega t) and 1 - cos(omega t), whose half-order derivatives are
closed-form in the Fresnel integrals (S, C) at x = sqrt(2 omega t / pi):

    D^(1/2) sin(omega t)       = sqrt(2 omega) (cos(omega t) C + sin(omega t) S),
    D^(1/2) (1 - cos(omega t)) = sqrt(2 omega) (sin(omega t) C - cos(omega t) S).

The Fresnel integrals are evaluated in numpy from the rational
approximations of the Cephes library (S. L. Moshier's fresnl, which
scipy.special.fresnel also evaluates): S and C themselves for x < 1.6,
and for x >= 1.6 the auxiliary functions f, g with
C = 1/2 + (f sin - g cos)/(pi x) and S = 1/2 - (f cos + g sin)/(pi x) at
the angle pi x^2 / 2 = omega t. There the Fresnel sin and cos cancel
exactly against those of omega t:

    D^(1/2) sin(omega t)       = sqrt(2 omega) ((cos + sin)/2 - g/(pi x)),
    D^(1/2) (1 - cos(omega t)) = sqrt(2 omega) ((sin - cos)/2 + f/(pi x)),

so large arguments need no further trig calls and lose nothing to
rounding of the angle. The inhomogeneities are evaluated in
vectorized blocks of stage times; the oracle is the independent check of
that data. Only the oracle imports scipy (the oracle extra), when called.

Example 1's nine frequencies are harmonics of two base frequencies,
omega = 4 (1, 2, 3) and sqrt5 (1..6). Its tables therefore take
exp(i omega t) of all nine as powers of the two base phases exp(4it) and
exp(i sqrt5 t), formed by complex products, and sum the solution
u = sum_k b_k (1 - cos(omega_k t)) from the same cosines: two complex
exponentials per time instead of nine sines and nine cosines plus the
powers of u. This agrees with the nine separate evaluations to about
1e-15 of the data scale. The harmonics are evaluated in even blocks of
at most 1,024 stage times (_EXAMPLE1_BLOCK), a block's cosines and
sines written row by row into two (9, m) float arrays: every array of a
block takes at most 72 bytes per time (74 KB), below glibc's 128 KB mmap
threshold, so it comes from the heap and not from a fresh mapping whose
pages fault in on every build. Even blocks avoid a block of one time,
whose (1, 9) matrix product takes another BLAS path and rounds
otherwise, so the blocks are bit for bit one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError
from .operators import (
    ConstantInhomogeneity,
    Problem,
    SeparableInhomogeneity,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
    transform_initial,
)

_SQRT5 = math.sqrt(5.0)


def caputo_oracle(u_prime, alpha: float, t: float, tol: float = 1e-12):
    """Caputo derivative of order alpha at time t > 0, given u'.

    u_prime may return a scalar or an array; the result has the same shape.
    Raises AccuracyError when the panel refinement cannot certify tol,
    which a non-finite value or error estimate never does.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"the oracle needs a finite t > 0, got t={t}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not tol >= 1e-12:
        raise DomainError(f"tolerances below 1e-12 are not supported, got {tol}")
    try:  # most of a second to import; only the oracle needs it
        from scipy.integrate import quad_vec
    except ImportError as exc:
        raise ConfigError("the Caputo oracle needs scipy: install fraccq[oracle]") from exc

    p = 1.0 / (1.0 - alpha)
    s_max = t ** (1.0 - alpha)

    def integrand(s):
        return np.asarray(u_prime(t - s**p))

    value, err = quad_vec(
        integrand, 0.0, s_max, epsabs=tol, epsrel=tol, quadrature="gk21", limit=10000
    )
    scale = max(1.0, float(np.max(np.abs(value))))
    if not (err <= 100.0 * tol * scale and np.all(np.isfinite(value))):
        raise AccuracyError(
            f"quadrature stalled at estimated error {err:.3e} (requested {tol:.3e})",
            achieved=err,
        )
    return value / math.gamma(2.0 - alpha)


# Cephes fresnl rationals, coefficients highest degree first: S(x) and C(x)
# in t = x^4 for x < 1.6, and the auxiliary f(x), g(x) in u = (pi x^2)^-2
# for x >= 1.6; the leading 1.0 of a denominator is the monic coefficient
# that Cephes leaves implicit
_FRESNEL_SN = (-2.99181919401019853726e3, 7.08840045257738576863e5, -6.29741486205862506537e7,
               2.54890880573376359104e9, -4.42979518059697779103e10, 3.18016297876567817986e11)
_FRESNEL_SD = (1.0, 2.81376268889994315696e2, 4.55847810806532581675e4, 5.17343888770096400730e6,
               4.19320245898111231129e8, 2.24411795645340920940e10, 6.07366389490084639049e11)
_FRESNEL_CN = (-4.98843114573573548651e-8, 9.50428062829859605134e-6, -6.45191435683965050962e-4,
               1.88843319396703850064e-2, -2.05525900955013891793e-1, 9.99999999999999998822e-1)
_FRESNEL_CD = (3.99982968972495980367e-12, 9.15439215774657478799e-10, 1.25001862479598821474e-7,
               1.22262789024179030997e-5, 8.68029542941784300606e-4, 4.12142090722199792936e-2,
               1.00000000000000000118e0)
_FRESNEL_FN = (4.21543555043677546506e-1, 1.43407919780758885261e-1, 1.15220955073585758835e-2,
               3.45017939782574027900e-4, 4.63613749287867322088e-6, 3.05568983790257605827e-8,
               1.02304514164907233465e-10, 1.72010743268161828879e-13, 1.34283276233062758925e-16,
               3.76329711269987889006e-20)
_FRESNEL_FD = (1.0, 7.51586398353378947175e-1, 1.16888925859191382142e-1, 6.44051526508858611005e-3,
               1.55934409164153020873e-4, 1.84627567348930545870e-6, 1.12699224763999035261e-8,
               3.60140029589371370404e-11, 5.88754533621578410010e-14, 4.52001434074129701496e-17,
               1.25443237090011264384e-20)
_FRESNEL_GN = (5.04442073643383265887e-1, 1.97102833525523411709e-1, 1.87648584092575249293e-2,
               6.84079380915393090172e-4, 1.15138826111884280931e-5, 9.82852443688422223854e-8,
               4.45344415861750144738e-10, 1.08268041139020870318e-12, 1.37555460633261799868e-15,
               8.36354435630677421531e-19, 1.86958710162783235106e-22)
_FRESNEL_GD = (1.0, 1.47495759925128324529e0, 3.37748989120019970451e-1, 2.53603741420338795122e-2,
               8.14679107184306179049e-4, 1.27545075667729118702e-5, 1.04314589657571990585e-7,
               4.60680728146520428211e-10, 1.10273215066240270757e-12, 1.38796531259578871258e-15,
               8.39158816283118707363e-19, 1.86958710162783236342e-22)
_FRESNEL_EDGE = 1.28 * np.pi  # omega t at x = 1.6


def _ratio(x, num, den):
    """num(x) / den(x) by in-place Horner steps (coefficients highest first),
    each started from x * coefs[0], the first step's product."""
    out, below = x * num[0], x * den[0]
    for poly, coefs in ((out, num), (below, den)):
        poly += coefs[1]
        for a in coefs[2:]:
            poly *= x
            poly += a
    out /= below
    return out


def _fresnel_half(wt, s, c, sin=True):
    """(D^(1/2) sin(omega .), D^(1/2) (1 - cos(omega .))) / sqrt(2 omega)
    from flat arrays of the angles wt = omega t >= 0 and of sin(wt) and
    cos(wt) (Fresnel form: module docstring). With sin=False the first
    entry is None and is not computed. wt is overwritten: its callers pass
    a temporary, and each temporary here is dropped once read, so that few
    arrays are live at a time."""
    small = np.flatnonzero(wt < _FRESNEL_EDGE)
    x = np.sqrt(wt[small] * (2.0 / np.pi))
    # x >= 1.6, with inv = 1/(pi x^2) = 1/(2 omega t) and 1/(pi x) = sqrt(inv/pi);
    # entries below the edge are clamped here and overwritten below
    inv = np.maximum(wt, _FRESNEL_EDGE, out=wt)
    np.divide(0.5, inv, out=inv)
    u = inv * inv
    d_cos = _ratio(u, _FRESNEL_FN, _FRESNEL_FD)
    d_cos *= u
    d_sin = None
    if sin:
        d_sin = _ratio(u, _FRESNEL_GN, _FRESNEL_GD)
        d_sin *= inv
    del u
    r = inv / np.pi
    np.sqrt(r, out=r)
    d_cos -= 1.0
    d_cos *= r
    half = s - c
    half *= 0.5
    np.subtract(half, d_cos, out=d_cos)  # (sin - cos)/2 + f/(pi x)
    if sin:
        d_sin *= r
        np.add(s, c, out=half)
        half *= 0.5
        np.subtract(half, d_sin, out=d_sin)  # (sin + cos)/2 - g/(pi x)
    if len(small):
        x2 = x * x
        quartic = x2 * x2
        fs = _ratio(quartic, _FRESNEL_SN, _FRESNEL_SD)
        fs *= x * x2  # S(x)
        fc = _ratio(quartic, _FRESNEL_CN, _FRESNEL_CD)
        fc *= x  # C(x)
        s_small, c_small = s[small], c[small]
        d_cos[small] = s_small * fc - c_small * fs
        if sin:
            d_sin[small] = c_small * fc + s_small * fs
    return d_sin, d_cos


def _half_derivatives(omega, t):
    """(D^(1/2) sin(omega .), D^(1/2) (1 - cos(omega .)), sin(omega .),
    cos(omega .)) at times t >= 0, in the broadcast shape of omega and t
    (Fresnel form: module docstring); the last two are evaluated on the way."""
    omega = np.asarray(omega, dtype=float)
    wt = omega * np.asarray(t, dtype=float)
    shape = wt.shape
    wt = wt.ravel()
    s, c = np.sin(wt), np.cos(wt)
    scale = np.sqrt(2.0 * omega)
    d_sin, d_cos = (col.reshape(shape) for col in _fresnel_half(wt, s, c))
    d_sin *= scale
    d_cos *= scale
    return d_sin, d_cos, s.reshape(shape), c.reshape(shape)


@dataclass(frozen=True)
class ManufacturedProblem:
    """A Problem with known exact solution plus a provenance note."""

    problem: Problem
    description: str


# ---------------------------------------------------------------------------
# Example 1: dense 2x2 system, alpha = 1/2

# u_i = sum_k b_k (1 - cos(omega_k t)): sin^6(2t) over omega = 4, 8, 12, and
# ((1 - cos(sqrt5 t))/2)^6 = sin^12(sqrt5 t/2) over omega = sqrt5 * (1..6);
# column i of the weights holds the b_k of component i
_EXAMPLE1_OMEGAS = np.concatenate([[4.0, 8.0, 12.0], _SQRT5 * np.arange(1.0, 7.0)])
_EXAMPLE1_WEIGHTS = np.zeros((9, 2))
_EXAMPLE1_WEIGHTS[:3, 0] = np.array([15.0, -6.0, 1.0]) / 32.0
_EXAMPLE1_WEIGHTS[3:, 1] = np.array([1584.0, -990.0, 440.0, -132.0, 24.0, -2.0]) / 4096.0


def _example1_u(t):
    return np.array(
        [np.sin(2.0 * t) ** 6, (0.5 - 0.5 * np.cos(_SQRT5 * t)) ** 6]
    )


EXAMPLE1_MATRIX = np.array([[-1.0, 1.0], [-1.0, -1.0]])
# g = D^(1/2) u - A u = d @ (sqrt(2 omega) b) - (1 - cos(omega t)) @ (b A^T), with d
# the unscaled half derivatives of 1 - cos(omega t) (_fresnel_half)
_EXAMPLE1_DHALF = np.sqrt(2.0 * _EXAMPLE1_OMEGAS)[:, None] * _EXAMPLE1_WEIGHTS
_EXAMPLE1_AU = _EXAMPLE1_WEIGHTS @ EXAMPLE1_MATRIX.T
_EXAMPLE1_BLOCK = 1024  # most stage times per harmonic block (module docstring)


def _example1_factors(ts):
    """g(ts) = D^(1/2) u(ts) - A u(ts) as an (m, 2) array, from the powers
    of two base phases, in even blocks of at most _EXAMPLE1_BLOCK times
    (harmonic evaluation: module docstring)."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(ts), 2))
    blocks = max(1, -(-len(ts) // _EXAMPLE1_BLOCK))
    for i in range(blocks):
        b0, b1 = len(ts) * i // blocks, len(ts) * (i + 1) // blocks
        t = ts[b0:b1]
        cosines, sines = np.empty((9, len(t))), np.empty((9, len(t)))  # of omega_k t, row k
        for first, stop, base in ((0, 3, 4.0), (3, 9, _SQRT5)):
            step = phase = np.exp(1j * (base * t))
            for k in range(first, stop):
                if k > first:
                    phase = phase * step
                cosines[k], sines[k] = phase.real, phase.imag
        _, d_cos = _fresnel_half((_EXAMPLE1_OMEGAS[:, None] * t).ravel(), sines.ravel(),
                                 cosines.ravel(), sin=False)
        np.subtract(d_cos.reshape(9, -1).T @ _EXAMPLE1_DHALF, (1.0 - cosines).T @ _EXAMPLE1_AU,
                    out=out[b0:b1])
    return out


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

    Evaluated in closed form through the Fresnel integrals; NaN times and
    times outside the declared range raise DomainError. The adaptive oracle
    is the reference these values are tested against.
    """

    def __init__(self, t_max: float):
        if not 0.0 < t_max < math.inf:
            raise ConfigError(f"t_max must be finite and positive, got {t_max}")
        self._t_max = float(t_max)

    def _checked(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self._t_max * 1.0000001)):
            raise DomainError(f"time outside the declared range [0, {self._t_max}]")
        return t

    def factors(self, t):
        """(f1(t), f2(t)) as an (m, 2) array, from one Fresnel evaluation:
        f1 = D^(1/2) sin(pi .) + sin(pi t) and
        f2 = D^(1/2) (1 - cos(pi .)) + 1 - cos(pi t)."""
        d_sin, d_cos, s, c = _half_derivatives(np.pi, self._checked(t))
        d_sin += s
        d_cos += 1.0
        d_cos -= c
        return np.stack([d_sin, d_cos], axis=-1)

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
    if not n_per_dim >= 8:
        raise ConfigError(f"need n_per_dim >= 8, got {n_per_dim}")
    family, h_minus, h_plus = example2_fields(n_per_dim)
    spatial = family.apply_mass(np.stack([h_minus, h_plus], axis=1)).real.T
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


def example3_problem(n_points: int, a_half: float, alpha: float = 0.75):
    """The fractional Schroedinger equation D^alpha v = i v_xx, v(0) = u0,
    with the Gaussian wave packet u0 = 10 exp(-(4x)^2 + 10 i x), on n_points
    of [-a_half, a_half] with transparent boundaries.

    Returns (problem, u0): transform_initial of the homogeneous problem, so
    the solver's zero-initial u has data A u0 and v = u + u0. The packet must
    be numerically supported inside the domain: the two cells next to each
    boundary carry at most 1e-20 in modulus (SupportError otherwise).
    """
    family = schrodinger_tbc_1d(a_half, n_points, alpha)
    u0 = 10.0 * np.exp(-((4.0 * family.x) ** 2) + 10j * family.x)
    homogeneous = Problem(family, alpha, ConstantInhomogeneity(np.zeros(family.dim)))
    return transform_initial(homogeneous, u0)
