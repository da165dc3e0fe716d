import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fraccq

from fraccq import caputo, caputo_oracle, example1_problem, example3_problem
from fraccq.caputo import EXAMPLE1_MATRIX, HalfOrderTrigTable, _example1_u
from fraccq.errors import AccuracyError, ConfigError, DomainError, SupportError
from fraccq.tableau import radau_iia
from oracles import _example1_u_prime, sample


def test_power_rule_linear():
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.5, 2.0):
            got = caputo_oracle(lambda tau: 1.0, alpha, t)
            assert got == pytest.approx(t ** (1 - alpha) / math.gamma(2 - alpha), rel=1e-11)


def test_constant_has_zero_derivative():
    assert caputo_oracle(lambda tau: 0.0, 0.5, 1.0) == 0.0


def test_quadratic_closed_form():
    got = caputo_oracle(lambda tau: 2 * tau, 0.5, 1.0)
    assert got == pytest.approx(8 / (3 * math.sqrt(math.pi)), rel=1e-11)


def test_power_rule_sweep():
    # relative error <= 1e-10 for t^p across orders and evaluation times
    for p in range(1, 7):
        for alpha in (0.25, 0.5, 0.75):
            for t in (0.1, 1.0, 10.0):
                got = caputo_oracle(lambda tau, p=p: p * tau ** (p - 1), alpha, t)
                ref = math.gamma(p + 1) / math.gamma(p + 1 - alpha) * t ** (p - alpha)
                assert abs(got - ref) <= 1e-10 * abs(ref)


def test_sin_sixth_dual_quadrature():
    """Adaptive-panel value vs the cosine-expansion of sin^6 integrated
    term by term with an independent fixed-grid Simpson rule."""
    v1 = caputo_oracle(lambda tau: 12 * np.sin(2 * tau) ** 5 * np.cos(2 * tau), 0.5, 1.0)

    def term(omega, coef, t=1.0):
        s = np.linspace(0, np.sqrt(t), 200001)
        f = np.sin(omega * (t - s**2))
        simpson = (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum()) * (s[1] - s[0]) / 3
        return coef * 2 * simpson / math.gamma(0.5)

    # sin^6(2t) = 5/16 - 15/32 cos(4t) + 3/16 cos(8t) - 1/32 cos(12t)
    v2 = term(4, 15 / 8) + term(8, -3 / 2) + term(12, 3 / 8)
    assert abs(v1 - v2) <= 1e-9


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        caputo_oracle(lambda tau: 1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        caputo_oracle(lambda tau: 1.0, 1.2, 1.0)
    with pytest.raises(DomainError):
        caputo_oracle(lambda tau: 1.0, 0.5, 1.0, tol=1e-14)


@pytest.mark.parametrize("u_prime", [
    pytest.param(lambda tau: np.nan, id="scalar"),
    pytest.param(lambda tau: np.array([np.nan, 1.0]), id="one-component-of-two"),
])
def test_oracle_refuses_a_non_finite_value(u_prime):
    """A NaN in u' returned NaN: a NaN error estimate passed the tolerance
    check, which is False for NaN."""
    with pytest.raises(AccuracyError) as err:
        caputo_oracle(u_prime, 0.5, 1.0)
    assert not np.isfinite(err.value.achieved)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_oracle_refuses_a_non_finite_time(t):
    """t = nan raised scipy's ValueError; a nan tolerance passed the check."""
    with pytest.raises(DomainError):
        caputo_oracle(lambda tau: 1.0, 0.5, t)
    with pytest.raises(DomainError):
        caputo_oracle(lambda tau: 1.0, 0.5, 1.0, tol=np.nan)


# ---------------------------------------------------------------------------
# example 1


def test_example1_values_at_zero(example1):
    assert _example1_u(0.0) == pytest.approx([0.0, 0.0])
    assert _example1_u_prime(0.0) == pytest.approx([0.0, 0.0])
    assert sample(example1.g, 0.0) == pytest.approx([0.0, 0.0])


def test_example1_solution_snapshot(example1):
    u = example1.u_exact(np.pi / 4)
    assert u[0] == pytest.approx(1.0, abs=1e-12)
    assert u[1] == pytest.approx((0.5 - 0.5 * np.cos(np.sqrt(5) * np.pi / 4)) ** 6, abs=1e-12)


def test_example1_manufactured_identity(example1):
    rng = np.random.default_rng(17)
    for t in rng.uniform(0.2, 9.5, 5):
        g = sample(example1.g, float(t))
        frac = caputo_oracle(_example1_u_prime, 0.5, float(t), tol=1e-11)
        resid = g - (frac - EXAMPLE1_MATRIX @ _example1_u(float(t)))
        assert np.max(np.abs(resid)) <= 1e-8


def test_example1_tables_never_call_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("example 1 data must not call the oracle")

    monkeypatch.setattr(caputo, "caputo_oracle", refuse)
    g = example1_problem().problem.g
    c = radau_iia(3).c
    for n in (20, 40, 80, 160, 320, 640):
        table = g.table(n, 10.0 / n, c)
        assert table.block(0, n).shape == (n, 3, 2)


def test_example1_data_matches_oracle_across_scales(example1):
    # t = 1e-6, where g ~ t^5.5 comes from cancelling cosine sums; the
    # smallest radau5 stage time of the N = 40 ladder run; the ladder's end
    # t = 10; and t = 100, where the Fresnel arguments are large
    t_stage = float(radau_iia(3).c[0]) * 10.0 / 40
    for t in (1e-6, t_stage, 10.0, 100.0):
        frac = caputo_oracle(_example1_u_prime, 0.5, t, tol=1e-12)
        ref = frac - EXAMPLE1_MATRIX @ _example1_u(t)
        assert np.max(np.abs(sample(example1.g, t) - ref)) <= 1e-10, t


def test_example1_factors_match_the_nine_frequency_form():
    """The tables take exp(i omega t) of the nine frequencies as products of
    two base phases and sum u from the same cosines; on every stage table
    of the radau5 ladder they agree with D^(1/2) of each 1 - cos(omega t)
    and sin^6-form u within 1e-14 of the data scale, and vanish exactly at
    t = 0."""
    c = radau_iia(3).c
    for n in (20, 40, 80, 160, 320, 640):
        ts = ((np.arange(n)[:, None] + c) * (10.0 / n)).ravel()
        dhalf = caputo._half_derivatives(caputo._EXAMPLE1_OMEGAS, ts[:, None])[1]
        ref = dhalf @ caputo._EXAMPLE1_WEIGHTS - _example1_u(ts).T @ EXAMPLE1_MATRIX.T
        got = caputo._example1_factors(ts)
        assert got.shape == (3 * n, 2)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n
    assert np.array_equal(caputo._example1_factors(np.zeros(3)), np.zeros((3, 2)))


def test_example1_derivative_is_consistent():
    # finite-difference check of the hand-coded u'
    for t in (0.3, 1.1, 2.7):
        fd = (_example1_u(t + 1e-6) - _example1_u(t - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - _example1_u_prime(t))) < 1e-7


# ---------------------------------------------------------------------------
# example 2


def test_half_order_table_matches_oracle():
    table = HalfOrderTrigTable(10.0)
    for t in (0.3, 1.7, 5.0, 9.9):
        ref1 = caputo_oracle(lambda tau: np.pi * np.cos(np.pi * tau), 0.5, t) + np.sin(np.pi * t)
        ref2 = caputo_oracle(lambda tau: np.pi * np.sin(np.pi * tau), 0.5, t) + 1 - np.cos(np.pi * t)
        assert abs(table.f1(np.array([t]))[0] - ref1) <= 1e-8
        assert abs(table.f2(np.array([t]))[0] - ref2) <= 1e-8


def test_half_order_table_zero_start():
    table = HalfOrderTrigTable(2.0)
    assert table.f1(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-13)
    assert table.f2(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: HalfOrderTrigTable(np.nan), id="table-nan"),
    pytest.param(lambda: HalfOrderTrigTable(-1.0), id="table-negative"),
    pytest.param(lambda: caputo.example2_problem(np.nan), id="example2-nan"),
    pytest.param(lambda: caputo.example2_problem(8.5), id="example2-8.5"),
    pytest.param(lambda: caputo.example2_problem(8, t_max=np.inf), id="example2-t_max-inf"),
    pytest.param(lambda: caputo.example3_problem(np.nan, 2.0), id="example3-nan"),
    pytest.param(lambda: caputo.example3_problem(101.7, 2.0), id="example3-101.7"),
])
def test_example_constructors_refuse_with_config_error(build):
    """HalfOrderTrigTable(nan) switched its own range check off and
    evaluated any time; a nan grid size raised a bare ValueError and
    8.5 or 101.7 built 8 or 101 points."""
    with pytest.raises(ConfigError):
        build()


def test_half_order_table_refuses_nan_times():
    with pytest.raises(DomainError):
        HalfOrderTrigTable(10.0).factors(np.array([1.0, np.nan]))


def test_half_order_factors_equal_the_two_columns():
    """factors gives f1 and f2 bit for bit as its two columns, with the
    same range check; the sin(pi t) and cos(pi t) it reuses from the
    Fresnel evaluation are bit for bit a fresh evaluation of their own."""
    table = HalfOrderTrigTable(130.0)
    ts = np.linspace(0.0, 130.0, 1001)
    assert np.array_equal(table.factors(ts), np.stack([table.f1(ts), table.f2(ts)], axis=-1))
    d_sin, d_cos = caputo._half_derivatives(np.pi, ts)[:2]
    fresh = np.stack([d_sin + np.sin(np.pi * ts), d_cos + 1.0 - np.cos(np.pi * ts)], axis=-1)
    assert np.array_equal(table.factors(ts), fresh)
    with pytest.raises(DomainError):
        table.factors(np.array([131.0]))


def _scipy_half_derivatives(omega, t):
    """Reference: the Fresnel form of the caputo docstring through
    scipy.special.fresnel."""
    from scipy.special import fresnel

    omega = np.asarray(omega, dtype=float)
    wt = omega * np.asarray(t, dtype=float)
    s, c = fresnel(np.sqrt(2.0 * wt / np.pi))
    scale = np.sqrt(2.0 * omega)
    return scale * (np.cos(wt) * c + np.sin(wt) * s), scale * (np.sin(wt) * c - np.cos(wt) * s)


def test_half_derivatives_match_scipy_fresnel():
    """The numpy Cephes evaluation agrees with scipy's Fresnel integrals to
    1e-13 sqrt(2 omega) for omega t in [0, 2000], on both sides of the
    branch edge omega t = 1.28 pi, for scalar and broadcast (m, k) inputs
    and the nine example-1 frequencies; omega t = 0 gives exact zeros."""
    omegas = np.concatenate([[1.0, np.pi], caputo._EXAMPLE1_OMEGAS])
    wt = np.concatenate([np.linspace(0.0, 10.0, 20_001), np.linspace(10.0, 2000.0, 100_001)])
    for omega in omegas:
        t = wt / omega
        for got, ref in zip(caputo._half_derivatives(omega, t), _scipy_half_derivatives(omega, t)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.sqrt(2.0 * omega), omega

    edge = 1.28 * np.pi
    t_edge = edge + np.arange(-4, 5) * np.spacing(edge)  # omega = 1: omega t = t exactly
    for got, ref in zip(caputo._half_derivatives(1.0, t_edge), _scipy_half_derivatives(1.0, t_edge)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.sqrt(2.0)

    ts = np.linspace(0.0, 10.0, 301)
    grid = caputo._half_derivatives(omegas, ts[:, None])[:2]
    for got, ref in zip(grid, _scipy_half_derivatives(omegas, ts[:, None])):
        assert got.shape == (301, len(omegas))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.sqrt(2.0 * omegas))
    for k, omega in enumerate(omegas):
        column = caputo._half_derivatives(omega, ts)
        assert all(np.array_equal(g[:, k], c) for g, c in zip(grid, column))
        point = caputo._half_derivatives(omega, ts[7])
        assert np.ndim(point[0]) == 0
        assert (point[0], point[1]) == (column[0][7], column[1][7])
        assert caputo._half_derivatives(omega, 0.0)[:2] == (0.0, 0.0)

    _, _, s, c = caputo._half_derivatives(omegas, ts[:, None])
    assert np.array_equal(s, np.sin(omegas * ts[:, None]))
    assert np.array_equal(c, np.cos(omegas * ts[:, None]))


def test_example_paths_import_no_scipy():
    """Importing fraccq, building examples 1, 2 and 3 with their stage
    tables and one fast solve of each load no scipy module, and the TBC
    family solves its closed rows; the oracle, which imports scipy itself
    when it is called, works afterwards."""
    script = textwrap.dedent("""
        import json, sys
        import numpy as np
        import fraccq

        tab = fraccq.radau_iia(3)
        for problem in (fraccq.example1_problem().problem, fraccq.example2_problem(8).problem,
                        fraccq.example3_problem(41, 2.0)[0]):
            cfg = fraccq.CQConfig(tableau=tab, h=0.02, N=50)
            u, _ = fraccq.fast_solve(problem, cfg)
            assert np.all(np.isfinite(u))
        family = fraccq.schrodinger_tbc_1d(2.0, 41, 0.75)
        nu, y = 3.0 + 1.0j, np.linspace(0.0, 1.0, 41) + 0j
        phi, diag = family.closed_rows(nu)
        matrix = np.diag(diag) + phi * (np.eye(41, k=1) + np.eye(41, k=-1))
        resid = np.max(np.abs(matrix @ family.solve(nu, y) - y))
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        pools = sorted(m for m in sys.modules if m.startswith("concurrent"))

        oracle = fraccq.caputo_oracle(lambda t: 2.0 * t, 0.5, 1.0)
        print(json.dumps({"scipy": loaded, "concurrent": pools, "oracle": oracle,
                          "tbc_resid": resid}))
    """)
    src = str(Path(fraccq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scipy"] == []
    assert out["concurrent"] == []  # every phase of a solve runs in the calling thread
    assert abs(out["oracle"] - 8.0 / (3.0 * math.sqrt(math.pi))) <= 1e-11
    assert out["tbc_resid"] <= 1e-12


def test_example2_exact_solution_starts_at_zero(example2_small):
    assert np.max(np.abs(example2_small.u_exact(0.0))) == 0.0


def test_example2_discrete_laplacian_eigenrelation():
    """The grid fields satisfy M^-1 A h = -h up to O(eta^4); Richardson fit
    of the exponent over grid doublings."""
    errs = []
    for n in (8, 16, 32):
        from fraccq.caputo import example2_fields
        family, h_minus, _ = example2_fields(n)
        lap = family.apply_op(h_minus)
        # invert the mass symbol spectrally (independent of solve())
        cube = lap.reshape(n, n, n)
        xi = 2 * np.pi * np.fft.fftfreq(n)
        m = 5 / 6 + np.cos(xi) / 6
        m3 = m[:, None, None] * m[None, :, None] * m[None, None, :]
        minv_lap = np.fft.ifftn(np.fft.fftn(cube) / m3).real.ravel()
        errs.append(np.max(np.abs(minv_lap + h_minus)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 3.8)


def test_example2_inhomogeneity_identity(example2_small):
    """Continuous manufactured identity: g = D^(1/2) u - Lap u with
    Lap h = -h, checked through the oracle at random times."""
    from fraccq.caputo import example2_fields
    family, h_minus, h_plus = example2_fields(8)
    rng = np.random.default_rng(23)
    for t in rng.uniform(0.1, 3.0, 5):
        t = float(t)
        f1_ref = caputo_oracle(lambda tau: np.pi * np.cos(np.pi * tau), 0.5, t) + np.sin(np.pi * t)
        f2_ref = caputo_oracle(lambda tau: np.pi * np.sin(np.pi * tau), 0.5, t) + 1 - np.cos(np.pi * t)
        g_cont = h_minus * f1_ref + h_plus * f2_ref
        g_mass = sample(example2_small.g, t)
        resid = g_mass - family.apply_mass(g_cont)
        assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(g_mass)))


# ---------------------------------------------------------------------------
# example 3


def test_example3_initial_values():
    _, u0 = example3_problem(101, 2.0)
    assert u0[50] == pytest.approx(10.0)  # x = 0 at the midpoint
    assert abs(u0[0]) == pytest.approx(10 * np.exp(-64.0), rel=1e-10)
    assert np.max(np.abs(u0)) == pytest.approx(10.0)


def test_example3_support_violation():
    for a_half in (1.0, 0.5):
        with pytest.raises(SupportError):
            example3_problem(101, a_half)
