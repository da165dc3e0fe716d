"""Hyperbolic integration contours and their trapezoidal quadrature data.

One hyperbola per history level: lambda(x) = mu * (1 + sin(i*x - phi)),
sampled at x_k = k*tau for k = -K..K. The angle phi, the strip width d
and the step tau come from a one-dimensional minimization balancing the
discretization and truncation errors against machine precision.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ParameterRangeError

_SCAN_POINTS = 2000
_REFINE_TOL = 1e-6
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SIZED_K_MIN = 25
_SIZED_K_TOL = 1e-7


@dataclass(frozen=True)
class ContourParams:
    """Quadrature parameters shared by all levels of one run."""

    phi: float
    d: float
    rho_opt: float
    a_rho: float
    tau: float
    K: int
    Lambda: int

    @functools.cached_property
    def hyperbola(self):
        """The factors of level_nodes that no mu scales, k = -K..K, read-only:
        1 - sin(phi) cosh(k tau), sinh(k tau) and
        cos(phi) cosh(k tau) + i sin(phi) sinh(k tau)."""
        x = self.tau * np.arange(-self.K, self.K + 1)
        ch, sh = np.cosh(x), np.sinh(x)
        unit = (1.0 - np.sin(self.phi) * ch, sh, np.cos(self.phi) * ch + 1j * np.sin(self.phi) * sh)
        for arr in unit:
            arr.setflags(write=False)
        return unit


@dataclass(frozen=True)
class ContourLevel:
    """Nodes lambda_k and weights omega_k on one hyperbola, k = -K..K."""

    ell: int
    mu: float
    lambdas: np.ndarray
    omegas: np.ndarray
    K: int

    def __post_init__(self):
        self.lambdas.setflags(write=False)
        self.omegas.setflags(write=False)


def theta1(alpha: float, theta0: float) -> float:
    """Half-angle excess of the sector where the powered resolvent is analytic.

    theta0 = 0 is admitted for boundary-case operators whose spectrum
    touches the imaginary axis (the fractional Schroedinger setting).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= theta0 <= np.pi / 2:
        raise DomainError(f"theta0 must lie in [0, pi/2], got {theta0}")
    return min((np.pi * (1.0 - alpha) + 2.0 * theta0) / (2.0 * alpha), np.pi / 2)


def _a_of_rho(rho, Lambda, phi):
    return np.arccosh(Lambda / ((1.0 - rho) * np.sin(phi)))


@functools.lru_cache(maxsize=64)
def select_parameters(K: int, Lambda: int, theta: float) -> ContourParams:
    """Pick phi, d, rho_opt and tau for 2K+1 nodes and growth factor Lambda.

    phi = d = theta/2. rho_opt minimizes
        eps * eps_K(rho)^(rho-1) + eps_K(rho)^rho,
    with eps_K(rho) = exp(-2*pi*d*K / a(rho)) and
    a(rho) = arccosh(Lambda / ((1-rho) sin(phi))), located by a dense scan
    over (0,1) followed by golden-section refinement.

    Cached, since every solve with a level asks and the scan takes about
    0.14 ms; callers share the frozen ContourParams, and the warning for an
    objective monotone over (0,1) comes from the first call per arguments.
    """
    if not 2 <= K <= (np.iinfo(np.intp).max - 1) // 2:
        raise ConfigError(f"need K >= 2 with 2K+1 nodes in the index range, got K={K}")
    if Lambda < 2:
        raise ConfigError(f"need an integer growth factor Lambda >= 2, got {Lambda}")
    if not 0.0 < theta < np.pi:
        raise ConfigError(f"contour angle budget must lie in (0, pi), got {theta}")
    eps = np.finfo(float).eps
    phi = theta / 2.0

    def objective(rho):
        eps_k = np.exp(-2.0 * np.pi * phi * K / _a_of_rho(rho, Lambda, phi))
        with np.errstate(over="ignore", divide="ignore"):  # inf near rho = 0 at large K
            return eps * eps_k ** (rho - 1.0) + eps_k**rho

    grid = np.linspace(0.0, 1.0, _SCAN_POINTS + 2)[1:-1]
    values = objective(grid)
    if not np.isfinite(values).any():  # eps_K underflows to 0 at every scan point
        raise ConfigError(f"contour objective is infinite over all of (0,1) at K={K}, "
                          f"Lambda={Lambda}, theta={theta!r}; take a smaller K")
    i = int(np.argmin(values))
    if i in (0, len(grid) - 1):
        warnings.warn(
            "contour parameter objective is monotone over (0,1); "
            "using the boundary-adjacent minimizer",
            stacklevel=2,
        )
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    # golden-section refinement of the bracket
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _REFINE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = objective(x2)
    rho_opt = (lo + hi) / 2.0
    a_rho = float(_a_of_rho(rho_opt, Lambda, phi))
    return ContourParams(
        phi=phi,
        d=phi,
        rho_opt=float(rho_opt),
        a_rho=a_rho,
        tau=a_rho / K,
        K=K,
        Lambda=Lambda,
    )


def error_model(K: int, Lambda: int, theta: float) -> float:
    """Relative hyperbola quadrature error predicted for 2K+1 nodes: the
    objective eps * eps_K^(rho-1) + eps_K^rho that select_parameters
    minimises, evaluated at its returned parameters."""
    params = select_parameters(K, Lambda, theta)
    eps = np.finfo(float).eps
    eps_k = np.exp(-2.0 * np.pi * params.d * params.K / params.a_rho)
    return float(eps * eps_k ** (params.rho_opt - 1.0) + eps_k**params.rho_opt)


@functools.lru_cache(maxsize=64)
def sized_K(Lambda: int, theta: float) -> int:
    """Smallest K >= 25 at which error_model predicts <= 1e-7: 25 for the
    pi/2 sectors of the dense and spectral families, 64 for the pi/6 sector
    of the transparent-boundary family at alpha = 3/4. Cached, since every
    K = None solve asks and the search takes about 5 ms at K = 64."""
    K = _SIZED_K_MIN
    while error_model(K, Lambda, theta) > _SIZED_K_TOL:
        K += 1
    return K


def mu_level(ell: int, K: int, h: float, kappa: int, params: ContourParams) -> float:
    """Scale mu_ell = 2 pi d K (1 - rho_opt) / (Lambda^ell (kappa+1) h a(rho_opt))."""
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    if ell < 1:
        raise DomainError(f"level index must be >= 1, got {ell}")
    try:
        growth = float(params.Lambda) ** ell
    except OverflowError as exc:
        raise ParameterRangeError(f"Lambda^ell overflows for ell={ell}") from exc
    if not np.isfinite(growth):
        raise ParameterRangeError(f"Lambda^ell overflows for ell={ell}")
    mu = (
        2.0 * np.pi * params.d * K * (1.0 - params.rho_opt)
        / (growth * (kappa + 1) * h * params.a_rho)
    )
    if mu == 0.0 or not np.isfinite(mu):
        raise ParameterRangeError(f"mu underflows or overflows for ell={ell}")
    return mu


def level_nodes(mu: float, params: ContourParams, ell: int = 0) -> ContourLevel:
    """Nodes and trapezoidal weights on the hyperbola with scale mu.

    lambda_k = mu (1 - sin(phi) cosh(k tau) + i cos(phi) sinh(k tau)) and
    omega_k = tau mu (cos(phi) cosh(k tau) + i sin(phi) sinh(k tau)) / (2 pi),
    the latter with the 1/i of the inverse transform already cancelled.
    Conjugate symmetry in k holds to the last bit.
    """
    lam, om = _scaled_hyperbola(mu, params)
    return ContourLevel(ell=ell, mu=mu, lambdas=lam, omegas=om, K=params.K)


def _scaled_hyperbola(mu, params: ContourParams):
    """(lambda_k, omega_k) of level_nodes for a scale mu, a float or an
    (L, 1) array of them, from the unit hyperbola (ContourParams.hyperbola)."""
    real, sh, unit_om = params.hyperbola
    return (mu * real + 1j * (mu * np.cos(params.phi)) * sh,
            (params.tau * mu / (2.0 * np.pi)) * unit_om)


def level_contours(L: int, K: int, Lambda: int, theta: float, h: float, kappa: int):
    """The hyperbolas of levels 1..L: one parameter choice for all of them,
    each scaled by its mu_level. Returns (mus, lambdas, omegas): the (L,)
    scales and the read-only (L, 2K+1) nodes and weights, row l-1 bit for
    bit level_nodes of mu_l. The unit hyperbola is computed once per
    parameter choice (ContourParams.hyperbola) and all levels are scaled
    in one step."""
    params = select_parameters(K, Lambda, theta)
    mus = np.array([mu_level(ell, K, h, kappa, params) for ell in range(1, L + 1)])
    lambdas, omegas = _scaled_hyperbola(mus[:, None], params)
    for arr in (mus, lambdas, omegas):
        arr.setflags(write=False)
    return mus, lambdas, omegas
