"""Hyperbolic integration contours and their trapezoidal quadrature data.

One hyperbola per history level: lambda(x) = mu * (1 + sin(i*x - phi)),
sampled at x_k = k*tau for k = -K..K and scaled by level_nodes. The
angle budget is theta1(alpha, theta0) for every operator family. phi, the
strip width d and the step tau minimize an error model balancing the
discretization and truncation errors against machine precision.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ParameterRangeError

_SCAN_POINTS = 2000
_REFINE_POINTS = 1001  # over the two scan steps around the scan's argmin: spacing <= 1e-6
_SIZED_K_MIN = 25
_SIZED_K_TOL = 1e-7
_SIZED_K_MAX = 10_000
_EPS = float(np.finfo(float).eps)


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
        """The unit hyperbola that level_nodes scales by mu, k = -K..K,
        read-only: 1 - sin(phi) cosh(k tau), sinh(k tau) and
        cos(phi) cosh(k tau) + i sin(phi) sinh(k tau)."""
        x = self.tau * np.arange(-self.K, self.K + 1)
        ch, sh = np.cosh(x), np.sinh(x)
        unit = (1.0 - np.sin(self.phi) * ch, sh, np.cos(self.phi) * ch + 1j * np.sin(self.phi) * sh)
        for arr in unit:
            arr.setflags(write=False)
        return unit


def theta1(alpha: float, theta0: float) -> float:
    """Contour angle at order alpha for a spectrum in |arg(-z)| <= pi/2 - theta0:
    (z^alpha M - A)^-1 is analytic for |arg z| < pi/2 + theta1, capped at
    pi/2 (alpha = 1 gives theta0). theta0 = 0 admits a spectrum on the
    imaginary axis (the fractional Schroedinger setting)."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= theta0 <= np.pi / 2:
        raise DomainError(f"theta0 must lie in [0, pi/2], got {theta0}")
    return min((np.pi * (1.0 - alpha) + 2.0 * theta0) / (2.0 * alpha), np.pi / 2)


def _a_of_rho(rho, Lambda, phi):
    return np.arccosh(Lambda / ((1.0 - rho) * np.sin(phi)))


def _model(rho, K, Lambda, phi):
    """Relative error of 2K+1 nodes at rho and d = phi: eps eps_K^(rho-1) +
    eps_K^rho with eps_K = exp(-2 pi phi K / a(rho))."""
    eps_k = np.exp(-2.0 * np.pi * phi * K / _a_of_rho(rho, Lambda, phi))
    with np.errstate(over="ignore", divide="ignore"):  # inf near rho = 0 at large K
        return _EPS * eps_k ** (rho - 1.0) + eps_k**rho


@functools.lru_cache(maxsize=64, typed=True)
def select_parameters(K: int, Lambda: int, theta: float) -> ContourParams:
    """Pick phi, d, rho_opt and tau for 2K+1 nodes and growth factor Lambda.

    phi = d = theta/2. rho_opt minimizes the error model (_model) over
    (0,1), with a(rho) = arccosh(Lambda / ((1-rho) sin(phi))): a scan of
    2,000 points, then one of 1,001 (spacing <= 1e-6) over the two scan
    steps around its least value. K and Lambda are integers >= 2, not bools.

    Cached, since the stage plan of every fresh problem asks (benchmark
    passes, tests, convergence's three tableaux) and the scans take 0.08 ms
    on a 2-vCPU host; typed, so that 5.0 is refused after 5 is kept.
    Callers share the frozen ContourParams, and the warning for an
    objective monotone over (0,1) comes from the first call per arguments.
    """
    if (isinstance(K, bool) or not isinstance(K, (int, np.integer))
            or not 2 <= K <= (np.iinfo(np.intp).max - 1) // 2):
        raise ConfigError(f"need an integer K >= 2 with 2K+1 nodes in the index range, got K={K!r}")
    if isinstance(Lambda, bool) or not isinstance(Lambda, (int, np.integer)) or Lambda < 2:
        raise ConfigError(f"need an integer growth factor Lambda >= 2, got {Lambda!r}")
    if not 0.0 < theta < np.pi:
        raise ConfigError(f"contour angle budget must lie in (0, pi), got {theta}")
    phi = theta / 2.0
    objective = functools.partial(_model, K=K, Lambda=Lambda, phi=phi)
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
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], _REFINE_POINTS)
    rho_opt = fine[np.argmin(objective(fine))]
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
    model that select_parameters minimises (_model), at its returned
    parameters."""
    params = select_parameters(K, Lambda, theta)
    return float(_model(params.rho_opt, K, Lambda, params.phi))


def sized_K(Lambda: int, theta: float) -> int:
    """Smallest K >= 25 at which error_model predicts <= 1e-7: 25 at the
    angle pi/2, 40 at pi/4 (example 1 at alpha = 1), 64 at pi/6 (the TBC
    family at alpha = 3/4). The model falls with K, so the search doubles K
    from 25 until the model holds and then bisects, about 2 log2 K scans;
    an angle that needs a K above 10,000 (near 0.006 rad) raises
    ConfigError. A stage plan with K = None calls it once, when it is made."""
    lo, hi = _SIZED_K_MIN - 1, _SIZED_K_MIN  # after doubling: fails at lo (or lo < 25), holds at hi
    while error_model(hi, Lambda, theta) > _SIZED_K_TOL:
        if hi == _SIZED_K_MAX:
            raise ConfigError(f"the contour angle theta={theta!r} at Lambda={Lambda} needs "
                              f"K > {_SIZED_K_MAX}; pass an explicit K")
        lo, hi = hi, min(2 * hi, _SIZED_K_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if error_model(mid, Lambda, theta) > _SIZED_K_TOL else (lo, mid)
    return hi


def mu_level(ell: int, h: float, kappa: int, params: ContourParams) -> float:
    """Scale mu_ell = 2 pi d K (1 - rho_opt) / (Lambda^ell (kappa+1) h a(rho_opt))."""
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    if ell < 1:
        raise DomainError(f"level index must be >= 1, got {ell}")
    try:
        growth = float(params.Lambda) ** ell
    except OverflowError as exc:
        raise ParameterRangeError(f"Lambda^ell overflows for ell={ell}") from exc
    mu = (
        2.0 * np.pi * params.d * params.K * (1.0 - params.rho_opt)
        / (growth * (kappa + 1) * h * params.a_rho)
    )
    if mu == 0.0 or not np.isfinite(mu):
        raise ParameterRangeError(f"mu underflows or overflows for ell={ell}")
    return mu


def level_nodes(mu, params: ContourParams):
    """Read-only (lambdas, omegas) on the hyperbola of scale mu, a float, or
    on L at once for an (L, 1) array: (2K+1,) or (L, 2K+1) nodes
    lambda_k = mu (1 - sin(phi) cosh(k tau) + i cos(phi) sinh(k tau)) and
    weights omega_k = tau mu (cos(phi) cosh(k tau) + i sin(phi) sinh(k tau)) / (2 pi),
    with the 1/i of the inverse transform cancelled. Conjugate symmetry in
    k holds to the last bit."""
    real, sh, unit_om = params.hyperbola
    lambdas = mu * real + 1j * (mu * np.cos(params.phi)) * sh
    omegas = (params.tau * mu / (2.0 * np.pi)) * unit_om
    for arr in (lambdas, omegas):
        arr.setflags(write=False)
    return lambdas, omegas


def level_contours(L: int, params: ContourParams, h: float, kappa: int):
    """The hyperbolas of levels 1..L, one parameter choice scaled by each
    mu_level in one level_nodes call: read-only (L, 2K+1) (lambdas, omegas),
    row l-1 that of mu_l bit for bit."""
    mus = np.array([mu_level(ell, h, kappa, params) for ell in range(1, L + 1)])
    return level_nodes(mus[:, None], params)
