import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccq import contour, fastcq, operators
from fraccq.contour import (
    ContourParams, level_contours, level_nodes, mu_level, select_parameters, theta1,
)
from fraccq.errors import ConfigError, DomainError, ParameterRangeError
from fraccq.tableau import radau_iia

HALF_PI = np.pi / 2 * (1 - 1e-9)


def test_theta1_schrodinger_case():
    assert theta1(0.75, 0.0) == pytest.approx(np.pi / 6, abs=1e-14)


def test_theta1_dense_case():
    assert theta1(0.5, np.pi / 4) == pytest.approx(np.pi / 2, abs=1e-14)


def test_theta1_classical_limit():
    # alpha -> 1 reduces the formula to theta0
    assert theta1(1 - 1e-9, 0.3) == pytest.approx(0.3, abs=1e-6)


def test_theta1_domain_errors():
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            theta1(alpha, 0.1)
    assert theta1(1.0, 0.3) == 0.3
    with pytest.raises(DomainError):
        theta1(0.5, -0.1)


def test_select_parameters_assigns_half_angle():
    for theta in (0.3, 1.0, HALF_PI):
        p = select_parameters(25, 5, theta)
        assert p.phi == pytest.approx(theta / 2)
        assert p.d == p.phi


@pytest.mark.parametrize("theta", [0.05, np.pi / 6, np.pi / 4, HALF_PI])
@pytest.mark.parametrize("Lam", [2, 5, 8])
@pytest.mark.parametrize("K", [5, 25, 110, 500])
def test_select_parameters_scan_oracle(K, Lam, theta):
    """rho_opt beats an independent scan of the objective over the span of
    the first scan, [1/2001, 2000/2001], and, within a relative 1e-7, one at
    spacing 1e-7 around it. Where the independent scan is least at an end
    of the span (K = 110 at pi/2, K = 500 from pi/6 up) the objective is
    monotone over it, and select_parameters warns."""
    eps = np.finfo(float).eps
    phi = theta / 2

    def objective(rho):
        a = np.arccosh(Lam / ((1 - rho) * np.sin(phi)))
        ek = np.exp(-2 * np.pi * phi * K / a)
        with np.errstate(over="ignore", divide="ignore"):
            return eps * ek ** (rho - 1) + ek**rho

    span = np.linspace(1 / 2001, 2000 / 2001, 4001)
    values = objective(span)
    monotone = np.argmin(values) in (0, len(span) - 1)
    with pytest.warns(UserWarning, match="monotone") if monotone else contextlib.nullcontext():
        p = select_parameters(K, Lam, theta)
    assert span[0] <= p.rho_opt <= span[-1]
    assert objective(p.rho_opt) <= np.min(values) * (1 + 1e-9)
    near = np.linspace(max(p.rho_opt - 1e-3, span[0]), min(p.rho_opt + 1e-3, span[-1]), 20001)
    assert objective(p.rho_opt) <= np.min(objective(near)) * (1 + 1e-7)
    assert p.tau > 0


def test_a_of_rho_strictly_increasing():
    phi = np.pi / 4
    rhos = np.linspace(0.01, 0.99, 200)
    a = np.arccosh(5 / ((1 - rhos) * np.sin(phi)))
    assert np.all(np.diff(a) > 0)


def test_cosh_k_tau_identity():
    p = select_parameters(25, 5, HALF_PI)
    lhs = np.cosh(p.K * p.tau)
    rhs = p.Lambda / ((1 - p.rho_opt) * np.sin(p.phi))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_select_parameters_validation():
    with pytest.raises(ConfigError):
        select_parameters(1, 5, 1.0)
    with pytest.raises(ConfigError):
        select_parameters(10, 5, 0.0)
    # Lambda: an integer >= 2, not a bool; 5.0 also after 5 is cached.
    # inf returned a_rho = inf after a warning, and nan and 2.5 got through.
    select_parameters(10, 5, 1.0)
    for Lambda in (1, np.int64(1), float("inf"), float("nan"), 2.5, 5.0, True):
        with pytest.raises(ConfigError, match="integer growth factor"):
            select_parameters(10, Lambda, 1.0)


@pytest.mark.parametrize("K", [2.5, np.float64(3.0), True], ids=["2.5", "float64-3", "True"])
def test_select_parameters_refuses_a_non_integer_K(K):
    """K = 2.5 returned a 6-node hyperbola without its centre node, and
    np.float64(3.0) and True got through; 3.0 is refused also after 3."""
    select_parameters(3, 5, 1.0)
    with pytest.raises(ConfigError, match="integer K"):
        select_parameters(K, 5, 1.0)


def test_mu_level_ratio_and_h_scaling():
    p = select_parameters(20, 5, HALF_PI)
    mus = [mu_level(ell, 1e-3, 12, p) for ell in (1, 2, 3, 4)]
    for a, b in zip(mus, mus[1:]):
        assert b / a == pytest.approx(1 / 5, rel=1e-12)
    assert mu_level(1, 2e-3, 12, p) == pytest.approx(mus[0] / 2, rel=1e-12)


def test_mu_level_independent_recompute():
    p = select_parameters(20, 5, HALF_PI)
    got = mu_level(1, 1e-3, 12, p)
    # same closed formula, different association order
    expect = (2 * np.pi * p.d) * (20 / 5.0) * ((1 - p.rho_opt) / ((12 + 1) * 1e-3)) / p.a_rho
    assert got == pytest.approx(expect, rel=1e-12)


def test_mu_level_errors():
    p = select_parameters(20, 5, HALF_PI)
    with pytest.raises(DomainError):
        mu_level(1, -1.0, 12, p)
    with pytest.raises(ParameterRangeError):
        mu_level(100000, 1e-3, 12, p)


def test_mu_level_refuses_level_zero():
    p = select_parameters(20, 5, HALF_PI)
    for ell in (0, -1):
        with pytest.raises(DomainError, match="level index"):
            mu_level(ell, 1e-3, 12, p)


def test_underflowing_contour_objective_is_refused():
    """At K = 2000 (Lambda = 5, pi/2) and K = 1500 (Lambda = 2) eps_K
    underflows at every scan point, so no objective value is finite:
    select_parameters raises ConfigError naming K, Lambda and theta instead
    of falling back to rho = 5e-4, which failed the solve late."""
    for K, Lambda in ((2000, 5), (1500, 2)):
        with pytest.raises(ConfigError, match=f"K={K}, Lambda={Lambda}, theta=1.57"):
            select_parameters(K, Lambda, HALF_PI)


def test_level_nodes_center_values():
    p = select_parameters(25, 5, HALF_PI)
    lambdas, omegas = level_nodes(3.7, p)
    lam0 = lambdas[p.K]
    om0 = omegas[p.K]
    assert lam0.imag == 0.0 and lam0.real == pytest.approx(3.7 * (1 - np.sin(p.phi)))
    assert lam0.real > 0
    assert om0.imag == 0.0
    assert om0.real == pytest.approx(p.tau * 3.7 * np.cos(p.phi) / (2 * np.pi))


def test_level_nodes_left_end_negative_real_part():
    p = select_parameters(25, 5, HALF_PI)
    lambdas, _ = level_nodes(1.0, p)
    # cosh(K tau) > 1/sin(phi) holds by the parameter identity, so the
    # extreme nodes sit left of the imaginary axis
    assert np.cosh(p.K * p.tau) > 1 / np.sin(p.phi)
    assert lambdas[-1].real < 0
    assert lambdas[0].real < 0


def test_level_nodes_sector_containment():
    p = select_parameters(30, 5, HALF_PI)
    lambdas, _ = level_nodes(12.0, p)
    args = np.abs(np.angle(lambdas))
    assert np.all(args < np.pi / 2 + p.phi)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1e3),
    st.floats(min_value=0.1, max_value=1.5),
    st.floats(min_value=0.02, max_value=0.5),
    st.integers(min_value=2, max_value=60),
)
def test_conjugate_symmetry_property(mu, theta, tau, K):
    params = ContourParams(phi=theta / 2, d=theta / 2, rho_opt=0.5,
                           a_rho=tau * K, tau=tau, K=K, Lambda=5)
    lambdas, omegas = level_nodes(mu, params)
    assert np.max(np.abs(lambdas[::-1] - np.conj(lambdas))) <= 1e-14 * np.max(np.abs(lambdas))
    assert np.max(np.abs(omegas[::-1] - np.conj(omegas))) <= 1e-14 * np.max(np.abs(omegas))


def test_trapezoid_inverts_laplace_of_one():
    # sum_k omega_k e^(lambda_k t) / lambda_k must reproduce 1 on the level
    # interval; the exact inverse transform of 1/lambda is the constant 1
    h, kappa = 0.01, 20
    p = select_parameters(25, 5, HALF_PI)
    lambdas, omegas = level_nodes(mu_level(1, h, kappa, p), p)
    for t in np.linspace((kappa + 1) * h, 5 * (kappa + 1) * h, 7):
        val = np.sum(omegas * np.exp(lambdas * t) / lambdas)
        assert abs(val - 1.0) <= 1e-6


@pytest.mark.parametrize("K, theta, h, kappa", [
    (25, HALF_PI, 10.0 / 640, 20), (20, HALF_PI, 2.0 / 20000, 12),
    (64, np.pi / 6, 0.5 / 2000, 20), (10, 1.0, 0.5, 3),
])
def test_level_contours_equal_level_nodes(K, theta, h, kappa):
    """All levels scale one unit hyperbola, computed once per parameter
    choice, and each equals level_nodes of its mu bit for bit."""
    p = select_parameters(K, 5, theta)
    lambdas, omegas = level_contours(6, p, h, kappa)
    assert p.hyperbola is p.hyperbola and not any(a.flags.writeable for a in p.hyperbola)
    assert lambdas.shape == omegas.shape == (6, 2 * K + 1)
    for ell in range(1, 7):
        ref_lambdas, ref_omegas = level_nodes(mu_level(ell, h, kappa, p), p)
        assert (np.array_equal(lambdas[ell - 1], ref_lambdas)
                and np.array_equal(omegas[ell - 1], ref_omegas))
        assert not (ref_lambdas.flags.writeable or ref_omegas.flags.writeable)
    assert not any(a.flags.writeable for a in (lambdas, omegas))


def test_scalar_weight_sum_matches_direct_oracle():
    """Hyperbola-quadrature weights, read from a stage plan as a solve sums
    them (fastcq.StagePlan), agree with circle-rule weights within
    eps*(n h)^(alpha-1) for indices inside the level windows (frozen
    eps = 1e-9 at K = 25, measured headroom ~100x)."""
    tab = radau_iia(3)
    fam = operators.dense_operator(None, np.array([[-1.0]]))
    h, kappa, K = 0.01, 20, 25
    plan = fastcq.plan_levels(525, kappa, 5)
    ns = [21, 50, 104, 105, 200, 524]
    for alpha in (0.5, 0.75):
        stage = fastcq.StagePlan(tab, K, 5, kappa, True, alpha, HALF_PI)
        stage.add_levels(plan)
        x = fam.solve(stage.z_alpha.ravel() * h ** -alpha, np.ones((stage.z_alpha.size, 1, 1)))
        x = x.reshape(stage.z_alpha.shape)
        direct = dict(zip(ns, fastcq.weight_rows_direct(fam, tab, alpha, h, ns)))
        for n in ns:
            li = np.searchsorted(plan.m, n, side="right") - 1  # m[li] <= n < m[li+1]
            coef = stage.scale[li] * stage.r[li] ** (n - plan.m[li]) * x[li] / h
            wc = (coef @ stage.q[li]).real  # the plan folds
            err = np.max(np.abs(wc - direct[n]))
            assert err <= 1e-9 * (n * h) ** (alpha - 1)


def test_sized_K_scans_nine_times_at_pi_over_6(monkeypatch):
    """sized_K doubles K from 25 to 100 and bisects to 64: 9 error_model
    calls."""
    calls = []
    original = contour.error_model

    def counting_error_model(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(contour, "error_model", counting_error_model)
    theta = np.pi / 6 * (1 - 1e-9)
    assert contour.sized_K(5, theta) == 64
    assert len(calls) == 9


@pytest.mark.parametrize("theta, k_sized", [
    (np.pi / 2, 25), (np.pi / 4, 40), (np.pi / 6, 64), (0.3, 123), (0.1, 433), (0.05, 946),
    (0.03, 1674), (0.01, 5643)])
def test_sized_K_is_the_smallest_K_that_holds_the_model(theta, k_sized):
    """The doubling and bisection search finds the K a one-by-one search
    from 25 finds: the model holds at K and fails at K - 1."""
    assert contour.sized_K(5, theta) == k_sized
    assert contour.error_model(k_sized, 5, theta) <= 1e-7
    if k_sized > 25:
        assert contour.error_model(k_sized - 1, 5, theta) > 1e-7


@pytest.mark.parametrize("theta", [0.005, 1e-3, 1e-6])
def test_sized_K_refuses_a_K_above_its_ceiling(theta):
    """An angle that needs K > 10,000 raises ConfigError naming the angle
    and Lambda, after at most a dozen scans."""
    with pytest.raises(ConfigError, match=f"theta={theta!r} at Lambda=5 needs K > 10000"):
        contour.sized_K(5, theta)
    assert contour.sized_K(5, 0.006) == 9885  # just below the ceiling


def test_select_parameters_is_cached_with_a_bound():
    """A second call with the same arguments returns the identical
    ContourParams, and the cache keeps a finite number of answers."""
    first = select_parameters(25, 5, HALF_PI)
    assert select_parameters(25, 5, HALF_PI) is first
    assert select_parameters(26, 5, HALF_PI) is not first
    assert contour.select_parameters.cache_info().maxsize is not None
