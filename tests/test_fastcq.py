import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccq import (
    CQConfig,
    direct_cq,
    fast_solve,
    first_block,
    plan_levels,
    radau_iia,
    rk_march_scalar,
    transform_initial,
)
from fraccq import caputo, contour, fastcq, smallmat, tableau
from fraccq.errors import ConfigError, DomainError, PoleError
from fraccq.operators import (
    ConstantInhomogeneity,
    Problem,
    SeparableInhomogeneity,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
)

A22 = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def _gauss2():
    """The 2-stage Gauss tableau: its weights differ from the last row of
    its matrix, so it is not stiffly accurate and building it raises."""
    r3 = np.sqrt(3.0)
    return tableau.Tableau(2, np.array([[1 / 4, 1 / 4 - r3 / 6], [1 / 4 + r3 / 6, 1 / 4]]),
                           np.array([1 / 2, 1 / 2]),
                           np.array([1 / 2 - r3 / 6, 1 / 2 + r3 / 6]), 4, 2)


@pytest.fixture
def example1_complex(example1):
    """Example 1 with its data scaled by 1 + i: complex data, real operator."""
    return dataclasses.replace(example1, g=SeparableInhomogeneity(
        (1 + 1j) * example1.g.spatial, caputo._example1_factors))


def scalar_problem(value=1.0, a=-1.0, alpha=0.5):
    fam = dense_operator(None, np.array([[a]]))
    return Problem(family=fam, alpha=alpha,
                   g=ConstantInhomogeneity(np.array([value])))


# ---------------------------------------------------------------------------
# level plans and counters


def test_plan_reference_case():
    plan = plan_levels(1000, 20, 5)
    assert plan.L == 3
    assert plan.m == (21, 105, 525, 1000)


def test_plan_direct_only():
    plan = plan_levels(21, 20, 5)
    assert plan.L == 0
    assert plan.m == (21,)


def test_plan_single_level():
    plan = plan_levels(22, 20, 5)
    assert plan.L == 1
    assert plan.m == (21, 22)


def test_config_validation():
    tab = radau_iia(1)
    with pytest.raises(ConfigError):
        CQConfig(tableau=tab, h=0.1, N=0)
    with pytest.raises(ConfigError):
        CQConfig(tableau=tab, h=0.1, N=10, K=1)
    with pytest.raises(ConfigError):
        CQConfig(tableau=tab, h=0.1, N=10, kappa=0)
    with pytest.raises(ConfigError):
        CQConfig(tableau=tab, h=0.1, N=10, kappa=10, J=5)
    with pytest.raises(ConfigError):
        CQConfig(tableau=tab, h=-0.1, N=10)
    for h, N in ((np.nan, 10), (np.inf, 10), (0.1, 10.5)):
        with pytest.raises(ConfigError):
            CQConfig(tableau=tab, h=h, N=N)
    assert CQConfig(tableau=tab, h=0.1, N=np.int64(10)).N == 10
    # a non-integer K, Lambda, kappa or J is refused here, not met later as
    # a TypeError inside the solve; numpy integers stay valid
    for field, value in (("K", 25.5), ("K", np.nan), ("Lambda", 5.5), ("Lambda", np.nan),
                         ("kappa", 20.5), ("kappa", np.inf), ("J", 160.5), ("J", np.nan)):
        with pytest.raises(ConfigError):
            CQConfig(tableau=tab, h=0.1, N=40, **{field: value})
        assert getattr(CQConfig(tableau=tab, h=0.1, N=40, **{field: np.int64(40)}), field) == 40


@pytest.mark.parametrize("field", ["N", "K", "Lambda", "kappa", "J"])
def test_config_refuses_a_bool_count(field):
    """bool is an int subclass: N=True and kappa=True ran a one-step and a
    one-term solve without a word; every integer field refuses a bool."""
    with pytest.raises(ConfigError, match=f"integer {field} "):
        CQConfig(tableau=radau_iia(1), h=0.1, **{"N": 40, field: True})


@pytest.mark.parametrize("field, value", [
    ("h", "0.1"), ("h", None), ("h", 1j), ("h", True),
    pytest.param("h", 10**400, id="h-int-beyond-float"),
    ("tableau", None), ("tableau", "radau5"),
    ("workers", np.nan), ("workers", 1.5), ("workers", True), ("workers", "2"), ("workers", 0),
])
def test_config_refuses_untyped_fields(field, value):
    """A step size that is no positive finite real, a tableau that is no
    Tableau and a worker count that is no integer >= 1 raise ConfigError,
    not a TypeError or AttributeError, and h=True is no step size of 1."""
    with pytest.raises(ConfigError, match=f"{field}="):
        CQConfig(**{"tableau": radau_iia(1), "h": 0.1, "N": 40, field: value})


@pytest.mark.parametrize("h, N, K, J", [
    (5e-324, 10, None, None), (1e-310, 10, None, None),  # 1/h overflows
    (1.7e308, 64, None, None),  # N h overflows
    (0.1, 10**20, None, None), (0.1, 2**62, None, None),  # N s beyond the index range
    (0.1, 2 * 10**18, None, None),  # N s in it, but not its 16 N s bytes
    (0.1, 40, 2**62, None), (0.1, 40, None, 2**63),  # 2K+1 or J beyond it
])
def test_config_refuses_overflowing_sizes(h, N, K, J):
    """A step size whose 1/h or N h overflows and sizes beyond the index
    range raise ConfigError: they failed deep inside the solve with
    SolverError, or with ValueError from np.arange. The stage table's
    16 N s bytes count, not its N s samples."""
    with pytest.raises(ConfigError, match="h=|N="):
        CQConfig(tableau=radau_iia(3), h=h, N=N, K=K, J=J)


def test_extreme_valid_step_sizes_solve(example1, example2_small):
    """h = 1e-308 and 5.57e-309, whose 1/h lies just below the float
    limit, stay valid and solve examples 1 and 2."""
    for h in (1e-308, 5.57e-309):
        for prob in (example1, example2_small):
            u, _ = fast_solve(prob, CQConfig(tableau=radau_iia(3), h=h, N=64))
            assert np.all(np.isfinite(u))


def test_narrow_numpy_integers_are_stored_as_int():
    """np.int8 counts are kept as Python int: at the int8 Lambda and kappa
    the level plan's window cap (kappa+1) Lambda^l wrapped around and
    plan_levels looped for ever at every N > 127, and kappa = np.int8(100)
    was refused because default_J = 2 kappa wrapped to -56."""
    cfg = CQConfig(tableau=radau_iia(3), h=1e-3, N=np.int16(3000), K=np.int8(25),
                   kappa=np.int8(20), Lambda=np.int8(100), J=np.int8(41), workers=np.int8(1))
    for name in ("N", "K", "Lambda", "kappa", "J", "workers"):
        assert type(getattr(cfg, name)) is int, name
    assert type(cfg.h) is float
    assert CQConfig(tableau=radau_iia(3), h=1e-3, N=10, kappa=np.int8(100)).resolved_J() == 200
    assert plan_levels(cfg.N, cfg.kappa, cfg.Lambda).m == (21, 2100, 3000)
    u, _ = fast_solve(caputo.example1_problem().problem, cfg)
    assert np.all(np.isfinite(u))


# Hypothesis draws for the CQConfig fields: a valid range mixed with
# finite, non-finite, non-integer, zero, negative, bool, str and np.int8
# values, at N <= 64 so that every solve is small. Positive step sizes stay
# in [1e-3, 1]: CQConfig refuses an h whose 1/h or N h overflows
# (test_config_refuses_overflowing_sizes), but a valid h near the float
# limits can still overflow the data of example 1, which raises DomainError
# (tests/test_operators.py), not ConfigError.
_JUNK = st.one_of(st.floats(), st.booleans(), st.text(max_size=2), st.none())
_STEPS = st.one_of(st.floats(1e-3, 1.0), st.floats(0.125, 1.0, width=32).map(np.float32),
                   st.floats(max_value=0.0), st.sampled_from([np.nan, np.inf, 1j]),
                   st.integers(-1, 1), st.integers(-1, 1).map(np.int8),
                   st.booleans(), st.text(max_size=2), st.none())


def _counts(lo, hi):
    return st.one_of(st.integers(lo, hi), st.integers(-2, hi).map(np.int8),
                     st.integers(-2, 0), _JUNK)


@settings(max_examples=40, deadline=None)
@given(tab=st.sampled_from([radau_iia(1), radau_iia(3), None, "radau5"]),
       h=_STEPS,
       N=_counts(1, 64), K=st.one_of(st.none(), _counts(2, 30)), Lambda=_counts(2, 9),
       kappa=_counts(1, 40), J=st.one_of(st.none(), _counts(1, 90)), workers=_counts(1, 3))
def test_config_builds_and_solves_or_raises_config_error(tab, h, N, K, Lambda, kappa, J,
                                                        workers):
    """Each draw raises ConfigError or builds a config on which fast_solve
    of example 1 returns a finite result; no other exception escapes."""
    try:
        cfg = CQConfig(tableau=tab, h=h, N=N, K=K, Lambda=Lambda, kappa=kappa, J=J,
                       workers=workers)
    except ConfigError:
        return
    u, _ = fast_solve(caputo.example1_problem().problem, cfg)
    assert u.shape == (2,) and np.all(np.isfinite(u))


def test_tableau_checks_run_once_per_tableau(monkeypatch):
    """The spectrum clearance of fast_solve reads the eigenvalues the
    tableau keeps (Tableau.eigenvalues): building the tableau and two solves
    at it take the eigenvalues of A once, not once per solve. (The
    dense family takes the eigenvalues of its own M^-1 A, which are not
    counted.)"""
    calls = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or original(m))
    tab = radau_iia(3)
    prob = scalar_problem()
    for n_steps in (40, 80):
        fast_solve(prob, CQConfig(tableau=tab, h=0.05, N=n_steps, K=10))
    on_tab = [m for m in calls if np.array_equal(m, tab.A)]
    assert len(on_tab) == 1
    assert not tab.eigenvalues.flags.writeable


def test_runstats_counters(example1, example1_complex):
    """Real problems count the folded nodes (K+1 per level, J//2+1 circle
    nodes); complex data count all 2K+1 and all J, here the default
    J = 2 kappa = 40 that RunStats.J reports."""
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=1000, K=25)
    assert cfg.J is None and cfg.resolved_J() == 40
    _, stats = fast_solve(example1, cfg)
    assert stats.resolvent_solves == 3 * 26
    assert stats.rk_steps == 26 * (1000 - 21)
    assert stats.first_block_solves == 3 * 21
    assert stats.J == 40
    _, stats = fast_solve(example1_complex, cfg)
    assert stats.resolvent_solves == 3 * 51
    assert stats.rk_steps == 51 * (1000 - 21)
    assert stats.first_block_solves == 3 * 40
    # an explicit J runs as given
    _, stats = fast_solve(example1, dataclasses.replace(cfg, J=161))
    assert stats.J == 161 and stats.first_block_solves == 3 * 81


def test_wall_times_show_the_table_inside_prepare(example1):
    """RunStats.wall_times reports the stage-table build, or the lookup of
    the table the problem keeps (second solve), as "table", a part of
    "prepare"."""
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=1000, K=25)
    for _ in range(2):
        times = fast_solve(example1, cfg)[1].wall_times
        assert set(times) == {"table", "prepare", "rk_marches", "combine", "resolvent_solves",
                              "first_block", "total"}
        assert 0.0 <= times["table"] <= times["prepare"] <= times["total"]


@pytest.mark.parametrize("N, L", [(20, 0), (40, 1), (640, 3)])
def test_one_stability_call_per_solve(example1, example1_complex, monkeypatch, N, L):
    """The stability data of the contour nodes of all levels come from one
    tableau.stability call in the first solve on a fresh problem (none
    without a level), over the L (K+1) folded or L (2K+1) unfolded nodes:
    the problem's stage plan keeps them (test_stage_plan_ladder_...)."""
    calls = []
    original = tableau.stability

    def counting_stability(z, t):
        calls.append(np.shape(z))
        return original(z, t)

    monkeypatch.setattr(tableau, "stability", counting_stability)
    cfg = CQConfig(tableau=radau_iia(3), h=10.0 / N, N=N, K=25)
    assert plan_levels(N, cfg.kappa, cfg.Lambda).L == L
    for prob, nodes in ((example1, 26), (example1_complex, 51)):
        calls.clear()
        fast_solve(prob, cfg)
        assert calls == ([(L * nodes,)] if L else [])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_stacked_stage_space_equals_the_per_level_calls(s):
    """One stability call over the nodes of all levels, split per level,
    and the combine scale omega r^m over all levels at once give bit for
    bit the per-level results, folded and unfolded."""
    tab = radau_iia(s)
    h, K = 10.0 / 3000, 25
    plan = plan_levels(3000, 20, 5)
    params = contour.select_parameters(K, 5, np.pi / 2 * (1 - 1e-9))
    lams, oms = contour.level_contours(plan.L, params, h, 20)
    for used in (slice(K, None), slice(None)):
        r, q = tableau.stability(h * lams[:, used].ravel(), tab)
        r, q = r.reshape(plan.L, -1), q.reshape(plan.L, -1, s)
        scale = oms[:, used] * r ** np.array(plan.m[:plan.L])[:, None]
        for li in range(plan.L):
            r_l, q_l = tableau.stability(h * lams[li, used], tab)
            assert np.array_equal(r[li], r_l) and np.array_equal(q[li], q_l)
            assert np.array_equal(scale[li], oms[li, used] * r_l ** plan.m[li])


def test_clearance_hit_names_the_level_and_node(example1, monkeypatch):
    """The clearance test runs over the nodes of all levels at once and
    names the first offending level and node k, with the node as where.
    fast_solve runs it when it adds levels to a problem's stage plan, so
    on a fresh problem over all the solve's levels."""
    tab, h, K = radau_iia(3), 0.01, 25
    params = contour.select_parameters(K, 5, np.pi / 2 * (1 - 1e-9))
    z = h * contour.level_contours(3, params, h, 20)[0]
    fastcq._check_spectrum_clearance(z, tab)
    pole = 1.0 / tab.eigenvalues[1]
    for hits, named in ((((0, -25),), (1, -25)), (((1, 3),), (2, 3)), (((2, 25),), (3, 25)),
                        (((2, -7), (1, 4), (1, 0)), (2, 0))):
        z_hit = z.copy()
        for li, k in hits:
            z_hit[li, K + k] = pole * (1.0 + 1e-10)
        with pytest.raises(PoleError, match=f"node k={named[1]} of level {named[0]} ") as exc:
            fastcq._check_spectrum_clearance(z_hit, tab)
        assert exc.value.where == z_hit[named[0] - 1, K + named[1]]
    # fast_solve runs the test: with every node too close, it names the first
    monkeypatch.setattr(fastcq, "_SPECTRUM_CLEARANCE", 1e9)
    with pytest.raises(PoleError, match="node k=-25 of level 1 "):
        fast_solve(example1, CQConfig(tableau=tab, h=h, N=1000, K=K))


def test_default_K_is_sized_by_the_sector(example1, example1_complex, tbc_problem_small):
    """K = None runs the smallest K >= 25 at which the contour error model
    predicts <= 1e-7: 25 on the pi/2 sector, 64 on the pi/6 sector of the
    TBC family, with the bits of that K given explicitly, and the default
    solve meets direct_cq to 1e-6 relative on real data, on complex data
    with a real operator and on the TBC problem (at K = 25 it is 1.6e-4
    off). An explicit K runs as given; RunStats.K reports it."""
    tab = radau_iia(3)
    for prob, k_sized in ((example1, 25), (example1_complex, 25), (tbc_problem_small, 64)):
        cfg = CQConfig(tableau=tab, h=0.002, N=200)
        assert cfg.K is None
        u, stats = fast_solve(prob, cfg)
        assert stats.K == k_sized
        u_given, stats_given = fast_solve(prob, dataclasses.replace(cfg, K=k_sized))
        assert np.array_equal(u, u_given) and stats_given.K == k_sized
        assert fast_solve(prob, dataclasses.replace(cfg, K=30))[1].K == 30
        u_dir = direct_cq(prob, cfg)
        assert np.max(np.abs(u - u_dir)) <= 1e-6 * max(1.0, np.max(np.abs(u_dir)))


# ---------------------------------------------------------------------------
# direct oracle


def test_direct_zero_inhomogeneity():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)))
    cfg = CQConfig(tableau=radau_iia(2), h=0.05, N=20)
    assert np.max(np.abs(direct_cq(prob, cfg))) == 0.0


def test_direct_classical_limit_matches_runge_kutta():
    """alpha = 1 reduces the quadrature to plain Radau time stepping."""
    tab = radau_iia(2)
    fam = dense_operator(None, A22)

    def g(t):
        return np.array([np.sin(2 * t), np.cos(t)])

    def factors(ts):
        return np.stack([np.sin(2 * ts), np.cos(ts)], axis=-1)

    prob = Problem(family=fam, alpha=1.0, g=SeparableInhomogeneity(np.eye(2), factors))
    h, n_steps = 0.05, 20
    cfg = CQConfig(tableau=tab, h=h, N=n_steps)
    u_cq = direct_cq(prob, cfg)

    # independent classical implicit Runge-Kutta march of u' = A u + g
    y = np.zeros(2)
    for n in range(n_steps):
        gs = np.stack([g((n + ck) * h) for ck in tab.c])
        big = np.eye(tab.s * 2) - h * np.kron(tab.A, A22)
        rhs = (np.outer(np.ones(tab.s), y) + h * tab.A @ gs).ravel()
        stages = np.linalg.solve(big, rhs).reshape(tab.s, 2)
        y = stages[-1]
    assert np.max(np.abs(u_cq - y)) <= 1e-8


def test_direct_scalar_series_oracle():
    """Backward-Euler quadrature against exact power-series arithmetic of
    the scalar generating function (((1-z)/h)^(1/2) + 1)^(-1)."""
    n_steps, h = 16, 0.1
    prob = scalar_problem()
    cfg = CQConfig(tableau=radau_iia(1), h=h, N=n_steps)
    u = direct_cq(prob, cfg)

    def binom_half(k):
        out = 1.0
        for i in range(k):
            out *= (0.5 - i) / (i + 1)
        return out

    a = np.array([binom_half(k) * (-1.0) ** k for k in range(n_steps)]) / np.sqrt(h)
    a[0] += 1.0
    b = np.zeros(n_steps)
    b[0] = 1.0 / a[0]
    for n in range(1, n_steps):
        b[n] = -np.dot(a[1:n + 1], b[n - 1::-1]) / a[0]
    assert abs(u[0] - b.sum()) <= 1e-8


@pytest.mark.parametrize("n_steps", [200, 500])
def test_direct_circle_rule_is_converged_at_its_J(example1, tbc_problem_small, n_steps):
    """direct_cq at its J = 4N lies within 2e-12 relative of the same
    circle rule at J = 16N, on example 1 (t = 10) and TBC-101 (t = 0.5):
    the balanced radius (circle_radius) converges geometrically in J.
    Under the former radius rho^J = sqrt(eps) it read 3.5e-11 to 5.8e-11."""
    tab = radau_iia(3)
    for prob, t_end in ((example1, 10.0), (tbc_problem_small, 0.5)):
        h = t_end / n_steps
        u = direct_cq(prob, CQConfig(tableau=tab, h=h, N=n_steps))
        table = prob.g.table(n_steps, h, tab.c)
        J = 16 * n_steps
        rule = fastcq._circle_split(tab, prob.alpha, J, n_steps, fastcq._folds(prob, table))
        ref = fastcq._circle_sum(prob, table, n_steps, J, rule, h)[0]
        assert np.max(np.abs(u - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_explicit_weights_refuse_large_systems():
    """weight_matrices_direct is an oracle tool for s*dim <= 96: radau5 on
    a 33 x 33 operator (s*dim = 99) raises ConfigError."""
    fam = dense_operator(None, -np.eye(33))
    with pytest.raises(ConfigError, match="s\\*dim=99"):
        fastcq.weight_matrices_direct(fam, radau_iia(3), 0.5, 0.01, [0, 1])


def test_upper_edge_contour_fallback_still_solves(example1):
    """At K = 100 (Lambda = 5, pi/2) the contour objective decreases over
    all of (0,1), so select_parameters warns and takes the scan point next
    to rho = 1; the fast solve of example 1 (N = 640) still agrees with
    direct_cq under the criterion-2 bound."""
    cfg = CQConfig(tableau=radau_iia(3), h=10.0 / 640, N=640, K=100)
    with pytest.warns(UserWarning, match="monotone"):
        u, _ = fast_solve(example1, cfg)
    ref = direct_cq(example1, cfg)
    assert np.max(np.abs(u - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_latest_explicit_weight_is_converged():
    """W_700 of example 1 (radau5, h = 0.01, |W_700| = 3.8e-3) from
    weight_matrices_direct([700]) lies within 1e-12 of the same weight from
    a rule sized for n up to 1400, whose radius amplifies the rounding of
    W_700 far less. At J = 4 (max n + 1) it read 2.6e-11; at 10 (max n + 1)
    about 1e-13."""
    fam = dense_operator(None, caputo.EXAMPLE1_MATRIX)
    tab = radau_iia(3)
    w = fastcq.weight_matrices_direct(fam, tab, 0.5, 0.01, [700])[0]
    ref = fastcq.weight_matrices_direct(fam, tab, 0.5, 0.01, [700, 1400])[0]
    assert np.max(np.abs(w - ref)) <= 1e-12


def test_default_J_is_as_accurate_as_the_former_J_160(example1):
    """On the radau5 convergence ladder of example 1 (t = 10, K = 25) the
    default J = 2 kappa = 40 lies no further from a J = 2000 run than the
    former default J = 160 did under the former radius rho^J = sqrt(eps)
    (the figures below, relative in max norm), at a quarter of the circle
    systems."""
    former = {20: 2.1e-11, 40: 2.9e-11, 80: 3.6e-11, 160: 9.9e-11, 320: 2.2e-10,
              640: 3.5e-10}
    tab = radau_iia(3)
    for n_steps, err_former in former.items():
        cfg = CQConfig(tableau=tab, h=10.0 / n_steps, N=n_steps, K=25)
        u, stats = fast_solve(example1, cfg)
        ref, _ = fast_solve(example1, dataclasses.replace(cfg, J=2000))
        assert stats.J == 40
        assert np.max(np.abs(u - ref)) <= err_former * np.max(np.abs(ref))


def test_direct_matches_weight_assembly(example1, example1_complex):
    """direct_cq equals h sum_n w_n G_(N-1-n) assembled from the rows of the
    explicit-matrix circle rule, folded (example 1) and not (complex data)."""
    tab, h = radau_iia(2), 0.1
    for prob, folded in ((example1, True), (example1_complex, False)):
        for n_steps in (30, 10):
            u = direct_cq(prob, CQConfig(tableau=tab, h=h, N=n_steps))
            rows = fastcq.weight_rows_direct(prob.family, tab, prob.alpha, h, np.arange(n_steps))
            table = prob.g.table(n_steps, h, tab.c)
            samples = (table.block(0, n_steps) @ table.spatial).reshape(n_steps, -1)
            acc = h * np.einsum("nab,nb->a", rows, samples[::-1])
            assert np.isrealobj(u) == folded
            assert np.max(np.abs(u - acc)) <= 1e-9


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [200, 640, 3000])
def test_levels_match_weight_assembly(example1, example1_complex, s, n_steps):
    """fast_solve minus its first block equals h sum_(n >= m_0) w_n G_(N-1-n)
    with the weights w_n read from the stage plan the problem keeps
    (StagePlan: one solve per node on the identity), folded (example 1)
    and not (complex data), within 1e-12 relative."""
    tab, h = radau_iia(s), 10.0 / n_steps
    cfg = CQConfig(tableau=tab, h=h, N=n_steps, K=25)
    plan = plan_levels(n_steps, cfg.kappa, cfg.Lambda)
    for prob in (example1, example1_complex):
        u = fast_solve(prob, cfg)[0] - first_block(prob, cfg)[0]
        stage = prob._kept["plan"][1]
        nus = stage.z_alpha[:plan.L].ravel() * h ** -prob.alpha
        x = prob.family.solve(nus, np.broadcast_to(np.eye(2), (nus.size, 2, 2)))
        x = x.reshape(plan.L, -1, 2, 2)
        table = prob.g.table(n_steps, h, tab.c)
        samples = (table.block(0, n_steps) @ table.spatial).reshape(n_steps, -1)
        acc = 0.0
        for li in range(plan.L):
            ns = np.arange(plan.m[li], plan.m[li + 1])
            coef = stage.scale[li] * stage.r[li] ** (ns - plan.m[li])[:, None] / h
            w = np.einsum("nk,ki,kab->naib", coef, stage.q[li], x[li]).reshape(len(ns), 2, -1)
            if stage.fold:
                w = w.real
            acc = acc + h * np.einsum("nab,nb->a", w, samples[n_steps - 1 - ns])
        assert stage.fold == np.isrealobj(u) == (prob is example1)
        assert np.max(np.abs(u - acc)) <= 1e-12 * np.max(np.abs(u))


# ---------------------------------------------------------------------------
# first block


def test_first_block_zero_samples():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)))
    cfg = CQConfig(tableau=radau_iia(3), h=0.05, N=40)
    u0, solves = first_block(prob, cfg)
    assert np.max(np.abs(u0)) == 0.0
    assert solves == 3 * 21


@pytest.mark.parametrize("J", [160, 161])
def test_circle_fold_equals_the_unfolded_rule(example1, example1_complex, monkeypatch, J):
    """On a real problem the circle rule splits and solves only nodes
    j = 0..J//2 (odd J has no self-conjugate node J/2), and the folded
    first block equals the unfolded one on the data times 1 + i, divided
    by 1 + i, within 1e-12 relative."""
    from fraccq import smallmat
    tab, h, n_steps = radau_iia(3), 0.05, 40
    cfg = CQConfig(tableau=tab, h=h, N=n_steps, K=25, J=J)
    original = smallmat.eig_small
    stacks = []

    def recording_eig_small(stack):
        stacks.append(len(stack))
        return original(stack)

    monkeypatch.setattr(smallmat, "eig_small", recording_eig_small)
    u_real, solves_real = first_block(example1, cfg)
    assert stacks == [J // 2 + 1] and solves_real == 3 * (J // 2 + 1)
    u_cplx, solves_cplx = first_block(example1_complex, cfg)
    assert stacks == [J // 2 + 1, J] and solves_cplx == 3 * J
    assert np.isrealobj(u_real) and np.iscomplexobj(u_cplx)
    ref = u_cplx / (1 + 1j)
    assert np.max(np.abs(u_real - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_direct_fold_equals_the_unfolded_rule(example1, example1_complex):
    """direct_cq on example 1 (folded, J = 256 and 800 circle nodes) equals
    direct_cq on the data times 1 + i, divided by 1 + i, within 1e-12
    relative."""
    for n_steps in (40, 200):
        cfg = CQConfig(tableau=radau_iia(3), h=0.05, N=n_steps)
        u_real = direct_cq(example1, cfg)
        ref = direct_cq(example1_complex, cfg) / (1 + 1j)
        assert np.isrealobj(u_real)
        assert np.max(np.abs(u_real - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_single_weight_edge_matches_direct(example1):
    # N = 1 collapses the plan to one direct-block weight h W_0
    cfg = CQConfig(tableau=radau_iia(3), h=0.1, N=1)
    u_fast, stats = fast_solve(example1, cfg)
    u_dir = direct_cq(example1, cfg)
    assert stats.rk_steps == 0 and stats.resolvent_solves == 0
    assert np.max(np.abs(u_fast - u_dir)) <= 1e-8


def test_first_block_matches_weight_assembly(example1):
    """Block evaluation vs the same sum assembled from individually
    computed weight operators."""
    tab = radau_iia(3)
    h, n_steps = 0.05, 40
    cfg = CQConfig(tableau=tab, h=h, N=n_steps, K=25, kappa=20, J=160)
    table = example1.g.table(n_steps, h, tab.c)
    u0, _ = first_block(example1, cfg)

    rows = fastcq.weight_rows_direct(example1.family, tab, 0.5, h, list(range(21)))
    samples = table.block(0, n_steps) @ table.spatial
    acc = np.zeros(2, dtype=complex)
    for n in range(21):
        acc += rows[n] @ samples[n_steps - 1 - n].ravel()
    acc *= h
    assert np.max(np.abs(u0 - acc.real)) <= 1e-7 * max(1.0, np.max(np.abs(u0)))


# ---------------------------------------------------------------------------
# scalar marches


def test_march_zero_inhomogeneity():
    tab = radau_iia(3)
    table = ConstantInhomogeneity(np.zeros(3)).table(10, 0.1, tab.c)
    y = rk_march_scalar(-2.0 + 1j, table, 0, 10, tab, 0.1)
    assert np.max(np.abs(y)) == 0.0


def test_march_pure_accumulation():
    # lambda = 0 with backward Euler accumulates n*h*c exactly
    tab = radau_iia(1)
    c_val = 0.7
    table = ConstantInhomogeneity(np.array([c_val])).table(12, 0.25, tab.c)
    y = rk_march_scalar(0.0, table, 0, 12, tab, 0.25)
    assert y[0] == pytest.approx(12 * 0.25 * c_val, rel=1e-14)


def test_march_pole_error():
    # backward Euler at lambda = 1/h makes the stage matrix Id - h*lambda*A zero
    tab = radau_iia(1)
    table = ConstantInhomogeneity(np.array([1.0])).table(4, 0.25, tab.c)
    with pytest.raises(PoleError):
        rk_march_scalar(4.0, table, 0, 4, tab, 0.25)


def test_march_refuses_a_tableau_that_is_not_stiffly_accurate():
    """The march steps to the last stage, like _march_window, so it needs
    a stiffly accurate tableau: Tableau refuses the others when built, so
    none reaches the march."""
    with pytest.raises(ConfigError, match="stiffly accurate"):
        _gauss2()


def test_march_exponential_forcing_order():
    """lambda=-2, g=e^-t: fitted order over h-halvings >= 4.7 for the
    3-stage scheme (closed-form convolution integral as reference)."""
    tab = radau_iia(3)
    lam, t_end = -2.0, 1.0
    exact = np.exp(-2 * t_end) * (np.exp(t_end) - 1.0)
    errs, hs = [], []
    for n_steps in (4, 8, 16, 32, 64):
        h = t_end / n_steps
        g = SeparableInhomogeneity(np.ones((1, 1)), lambda ts: np.exp(-ts)[:, None])
        table = g.table(n_steps, h, tab.c)
        y = rk_march_scalar(lam, table, 0, n_steps, tab, h)
        errs.append(abs(y[0] - exact))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 4.7


def test_march_window_matches_step_loop(rng):
    """The blocked power-matrix evaluation in rank space, expanded against
    the spatial factors, equals the explicit step loop on full samples.
    The spatial factors are random and not square, so coefficients left
    unexpanded cannot pass. Powers of 64 rows march the 120 steps in a
    full block and a shorter one."""
    tab = radau_iia(3)
    h, n_steps = 0.02, 150
    spatial = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))

    def factors(ts):
        return np.stack([np.sin(3 * ts) + ts, np.exp(-ts)], axis=-1)

    table = SeparableInhomogeneity(spatial, factors).table(n_steps, h, tab.c)
    lams = rng.standard_normal(7) * 4 + 1j * rng.standard_normal(7) * 40 - 2.0
    rs = np.empty(7, dtype=complex)
    qs = np.empty((7, 3), dtype=complex)
    from fraccq.tableau import stability
    for i, lam in enumerate(lams):
        rs[i], qs[i] = stability(h * lam, tab)
    batched = fastcq._march_window(rs, qs, fastcq._descending_powers(rs, 64), table, 30, 150, h)
    assert batched.shape == (7, 2)
    for i, lam in enumerate(lams):
        ref = rk_march_scalar(lam, table, 30, 150, tab, h)
        assert ref.shape == (5,)
        assert np.max(np.abs(batched[i] @ table.spatial - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def _complex_factors(ts):
    """Two complex time factors with nonzero imaginary parts."""
    return np.stack([np.exp(1j * ts) * ts, np.sin(ts) - 0.5j * np.cos(2 * ts)], axis=-1)


def test_march_window_on_complex_time_factors(rng):
    """Complex time factors march through the real product as (re, im)
    column pairs: over a window of 1,270 steps (a full 1024-step block and
    a shorter one) the terminal values equal the explicit step loop."""
    tab = radau_iia(3)
    h, n_steps = 0.01, 1300
    spatial = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    table = SeparableInhomogeneity(spatial, _complex_factors).table(n_steps, h, tab.c)
    assert table.time.dtype == complex and np.any(table.time.imag)
    lams = rng.standard_normal(5) * 4 + 1j * rng.standard_normal(5) * 40 - 2.0
    rs, qs = tableau.stability(h * lams, tab)
    batched = fastcq._march_window(rs, qs, fastcq._descending_powers(rs, 1024), table,
                                   30, n_steps, h)
    for i, lam in enumerate(lams):
        ref = rk_march_scalar(lam, table, 30, n_steps, tab, h)
        bound = 1e-10 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(batched[i] @ table.spatial - ref)) <= bound


def test_fast_matches_direct_on_complex_time_factors():
    """Complex time factors on the real example-1 operator: at N = 2000 the
    last level's window is 1,475 steps, more than one march block, and
    fast_solve agrees with direct_cq."""
    prob = Problem(family=dense_operator(None, A22), alpha=0.5,
                   g=SeparableInhomogeneity(np.array([[1.0, 0.5], [-0.3j, 1.0]]), _complex_factors))
    cfg = CQConfig(tableau=radau_iia(3), h=5.0 / 2000, N=2000)
    u_fast, _ = fast_solve(prob, cfg)
    u_dir = direct_cq(prob, cfg)
    assert np.iscomplexobj(prob._kept["table"][1].time)
    assert np.max(np.abs(u_fast - u_dir)) <= 1e-6 * max(1.0, np.max(np.abs(u_dir)))


# ---------------------------------------------------------------------------
# fast algorithm


def test_fast_equals_first_block_without_levels(example1):
    cfg = CQConfig(tableau=radau_iia(2), h=0.5, N=20)  # N <= kappa+1
    u_fast, stats = fast_solve(example1, cfg)
    u_dir = direct_cq(example1, cfg)
    assert stats.resolvent_solves == 0
    assert np.max(np.abs(u_fast - u_dir)) <= 1e-8


def test_fast_matches_direct_dense(example1):
    cfg = CQConfig(tableau=radau_iia(3), h=0.002, N=500, K=25)
    u_fast, _ = fast_solve(example1, cfg)
    u_dir = direct_cq(example1, cfg)
    bound = 1e-6 * max(1.0, np.max(np.abs(u_dir)))
    assert np.max(np.abs(u_fast - u_dir)) <= bound


@pytest.mark.parametrize("n_steps", [200, 640])
def test_fast_matches_direct_on_a_defective_tableau(example1, sdirk2, n_steps):
    """The SDIRK tableau's A is defective, but Delta(zeta) at the circle
    nodes is not, and stability inverts Id - z A per node: fast_solve
    agrees with direct_cq on example 1 at t = 10."""
    cfg = CQConfig(tableau=sdirk2, h=10.0 / n_steps, N=n_steps)
    u_fast, _ = fast_solve(example1, cfg)
    u_dir = direct_cq(example1, cfg)
    assert np.max(np.abs(u_fast - u_dir)) <= 1e-6 * max(1.0, np.max(np.abs(u_dir)))


def test_fast_linearity(rng):
    fam = dense_operator(None, A22)

    def factors(ts):
        return np.stack([np.sin(ts), ts, np.cos(2 * ts), np.ones_like(ts)], axis=-1)

    def spatial(seed):
        # g = (c0 sin t + c1 t, c2 cos 2t + c3)
        coef = np.random.default_rng(seed).standard_normal(4)
        return np.array([[coef[0], 0.0], [coef[1], 0.0], [0.0, coef[2]], [0.0, coef[3]]])

    g1 = SeparableInhomogeneity(spatial(1), factors)
    g2 = SeparableInhomogeneity(spatial(2), factors)
    g_sum = SeparableInhomogeneity(spatial(1) + spatial(2), factors)
    cfg = CQConfig(tableau=radau_iia(2), h=0.02, N=120, K=20)
    outs = []
    for g in (g1, g2, g_sum):
        prob = Problem(family=fam, alpha=0.5, g=g)
        u, _ = fast_solve(prob, cfg)
        outs.append(u)
    resid = np.max(np.abs(outs[0] + outs[1] - outs[2]))
    assert resid <= 1e-10 * max(1.0, np.max(np.abs(outs[2])))


def test_folding_follows_the_operator_and_the_data(example1, example1_complex,
                                                   tbc_problem_small):
    """The L (K+1) upper-half nodes are solved and folded exactly when the
    operator and the data are both real; complex data on a real operator
    and real data on the complex TBC operator solve all L (2K+1). The
    folded solve of example 1 times 1 + i is the solve of its data times
    1 + i."""
    cfg = CQConfig(tableau=radau_iia(2), h=0.02, N=200, K=25)
    levels = plan_levels(200, 20, 5).L
    u_r, st_r = fast_solve(example1, cfg)
    assert np.isrealobj(u_r) and st_r.resolvent_solves == levels * 26
    u_c, st_c = fast_solve(example1_complex, cfg)
    assert st_c.resolvent_solves == levels * 51
    assert np.max(np.abs(u_c - (1 + 1j) * u_r)) <= 1e-9 * max(1.0, np.max(np.abs(u_r)))
    real_data = ConstantInhomogeneity(np.abs(tbc_problem_small.g.spatial[0]))
    for prob in (tbc_problem_small, dataclasses.replace(tbc_problem_small, g=real_data)):
        u, stats = fast_solve(prob, dataclasses.replace(cfg, h=0.002))
        assert np.iscomplexobj(u) and stats.resolvent_solves == levels * 51


def test_worker_count_does_not_change_bits(example1):
    """fast_solve (J = 40 circle nodes) and direct_cq (J = 1200) give the
    same bits at one, two and three workers."""
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=300, K=20, workers=1)
    for solver in (lambda c: fast_solve(example1, c)[0], lambda c: direct_cq(example1, c)):
        u1 = solver(cfg)
        for workers in (2, 3):
            assert np.array_equal(u1, solver(dataclasses.replace(cfg, workers=workers)))


def test_worker_count_does_not_change_bits_on_a_grid():
    """Separable subdiffusion data on 8^3 and on 10^3 (odd n): the weighted
    spectral sums of fast_solve and direct_cq give the same bits at any
    worker count."""
    from fraccq import example2_problem
    cfg = CQConfig(tableau=radau_iia(3), h=0.05, N=600, K=20, kappa=12, J=14, workers=1)
    for grid in (8, 10):
        prob = example2_problem(grid).problem
        for solver in (lambda c: fast_solve(prob, c)[0], lambda c: direct_cq(prob, c)):
            u1 = solver(cfg)
            for workers in (2, 3):
                u = solver(dataclasses.replace(cfg, workers=workers))
                assert np.array_equal(u1, u), (grid, workers)


def test_kept_table_gives_the_same_bits(example1, monkeypatch):
    """The problem keeps the stage table of its last N, h and stage nodes:
    a second solve there, and direct_cq at the same config, do not call
    g.table and give the same bits; a solve at another N, h or tableau
    builds its table once and replaces the entry. A replaced problem
    starts with nothing kept."""
    tab = radau_iia(3)
    cfg = CQConfig(tableau=tab, h=0.01, N=300, K=20)
    builds = []
    original = example1.g.table

    def counting_table(N, h, c):
        builds.append((N, h, tuple(c)))
        return original(N, h, c)

    monkeypatch.setattr(example1.g, "table", counting_table)
    u_first, _ = fast_solve(example1, cfg)
    u_direct = direct_cq(example1, cfg)
    u_again, _ = fast_solve(example1, cfg)
    assert builds == [(300, 0.01, tuple(tab.c))]
    assert np.array_equal(u_first, u_again)
    assert np.array_equal(u_direct, direct_cq(dataclasses.replace(example1), cfg))
    for other in (dataclasses.replace(cfg, N=600), dataclasses.replace(cfg, h=0.005),
                  dataclasses.replace(cfg, tableau=radau_iia(2))):
        builds.clear()
        fast_solve(example1, other)
        fast_solve(example1, other)
        assert builds == [(other.N, other.h, tuple(other.tableau.c))]
        assert example1._kept["table"][0] == (other.N, other.h, other.tableau.c.tobytes())
    assert dataclasses.replace(example1)._kept == {}


def test_oracle_equivalence_scaled_by_contour_accuracy(example1, example2_small, tbc_problem_small):
    """fast - direct is explained by its two quadrature error sources: the
    hyperbola truncation (measured as the K -> K+10 difference) plus the
    circle-rule floor of the first block (measured as the J -> 4J
    difference), each with a factor-10 allowance."""
    cases = [
        (example1, radau_iia(2), 0.01, 120),
        (example2_small, radau_iia(3), 0.01, 120),
        (tbc_problem_small, radau_iia(3), 0.002, 120),
    ]
    for prob, tab, h, n_steps in cases:
        cfg = CQConfig(tableau=tab, h=h, N=n_steps, K=20)
        cfg_hi_k = CQConfig(tableau=tab, h=h, N=n_steps, K=30)
        cfg_hi_j = CQConfig(tableau=tab, h=h, N=n_steps, K=20, J=640)
        u, _ = fast_solve(prob, cfg)
        u_hi_k, _ = fast_solve(prob, cfg_hi_k)
        u_hi_j, _ = fast_solve(prob, cfg_hi_j)
        eps_k = np.max(np.abs(u - u_hi_k))
        eps_j = np.max(np.abs(u - u_hi_j))
        u_dir = direct_cq(prob, cfg)
        assert np.max(np.abs(u - u_dir)) <= 10 * (eps_k + eps_j) + 1e-12


# ---------------------------------------------------------------------------
# initial-data transform


def test_transform_initial_noop(example1):
    same, offset = transform_initial(example1, np.zeros(2))
    assert same is example1
    assert np.max(np.abs(offset)) == 0.0


def test_transform_initial_dense_shift():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)))
    new, offset = transform_initial(prob, np.array([1.0, 0.0]))
    assert offset == pytest.approx([1.0, 0.0])
    # shifted inhomogeneity is the first column of A, constant in time
    for t in (0.0, 0.3, 2.0):
        assert new.g.sample(t) == pytest.approx(A22[:, 0])
    assert new.u_exact is None


def test_transform_initial_shifts_the_exact_solution(example1):
    """u = v - u0: the shifted problem's exact solution is the original's
    minus u0 at every time, t = 0 included."""
    u0 = np.array([0.25, -1.5])
    new, offset = transform_initial(example1, u0)
    for t in (0.0, 0.7, 3.0):
        assert np.array_equal(new.u_exact(t), example1.u_exact(t) - u0)
    offset[:] = 0.0  # the returned offset is the caller's own copy
    assert np.array_equal(new.u_exact(0.7), example1.u_exact(0.7) - u0)


def test_transform_initial_schrodinger_constant_samples():
    from fraccq import example3_problem
    prob, offset = example3_problem(101, 2.0)
    tab = radau_iia(3)
    g0 = prob.g_stage(0, tab.c, 0.01)
    g7 = prob.g_stage(7, tab.c, 0.01)
    assert np.array_equal(g0, g7)
    assert np.array_equal(offset, 10.0 * np.exp(-((4.0 * prob.family.x) ** 2)
                                                 + 10j * prob.family.x))


def test_transform_initial_schrodinger_data_is_rank_one():
    """The zero data of example 3 leave no spatial row behind: the shifted
    inhomogeneity is the constant A u0 alone."""
    from fraccq import example3_problem
    prob, u0 = example3_problem(101, 2.0)
    assert prob.g.rank == 1
    assert np.array_equal(prob.g.spatial[0], prob.family.apply_op(u0))


def test_transform_initial_reconstruction_consistency():
    """Solving the transformed problem and adding the offset approximates
    the untransformed classical solution for alpha -> 1 (sanity bridge)."""
    fam = dense_operator(None, A22)
    u0 = np.array([0.4, -0.2])
    prob = Problem(family=fam, alpha=1.0, g=ConstantInhomogeneity(np.zeros(2)))
    new, offset = transform_initial(prob, u0)
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=100)
    u, _ = fast_solve(new, cfg)
    from scipy.linalg import expm
    v_exact = expm(A22 * 1.0) @ u0
    assert np.max(np.abs((u + offset) - v_exact)) <= 1e-6
    # real operator and data: the offset is real like the folded solve
    assert u.dtype == offset.dtype == (u + offset).dtype == np.float64


def test_config_rejects_nonconforming_tableau():
    """No config sees a tableau that is not stiffly accurate: building it raises."""
    with pytest.raises(ConfigError, match="not admissible"):
        CQConfig(tableau=_gauss2(), h=0.1, N=10)


def test_circle_split_perturbs_only_the_flagged_nodes(monkeypatch):
    """A split that fails at one node perturbs that node alone; every other
    node keeps the bits of an undisturbed split."""
    from fraccq import smallmat
    from fraccq.errors import DecompositionError
    from fraccq.tableau import delta
    tab, alpha = radau_iia(3), 0.5
    rho, clean, clean_nus = fastcq._circle_split(tab, alpha, 9, 21, fold=False)
    zetas = rho * np.exp(2j * np.pi * np.arange(9) / 9)

    original = smallmat.eig_small
    seen = []

    def fail_once_at_node_5(stack):
        seen.append(np.array(stack))
        if len(seen) == 1:
            raise DecompositionError("forced", indices=np.array([5]))
        return original(stack)

    monkeypatch.setattr(smallmat, "eig_small", fail_once_at_node_5)
    _, dec, nus = fastcq._circle_split(tab, alpha, 9, 21, fold=False)
    assert len(seen) == 2
    moved = [k for k in range(9) if not np.array_equal(seen[0][k], seen[1][k])]
    assert moved == [5]
    assert np.array_equal(seen[0], delta(zetas, tab))
    keep = np.arange(9) != 5
    assert np.array_equal(dec.U[keep], clean.U[keep])
    assert np.array_equal(dec.U_inv[keep], clean.U_inv[keep])
    assert np.array_equal(nus[keep], clean_nus[keep])
    assert not np.array_equal(nus[5], clean_nus[5])
    assert np.allclose(nus[5], clean_nus[5], rtol=1e-7)


def test_circle_split_gives_up_after_one_perturbation(monkeypatch):
    from fraccq import smallmat
    from fraccq.errors import DecompositionError

    def always_fail(stack):
        raise DecompositionError("forced", indices=np.array([0]))

    monkeypatch.setattr(smallmat, "eig_small", always_fail)
    with pytest.raises(DecompositionError):
        fastcq._circle_split(radau_iia(3), 0.5, 9, 21, fold=False)


@pytest.mark.parametrize("s", [2, 3])
def test_circle_split_does_not_depend_on_h(s):
    """The split is made once, at h = 1: at every h its d^alpha h^-alpha
    gives the eigenvalues of Delta(zeta)/h, powered, within 1e-13 relative
    per node, and U diag(d/h) U^-1 rebuilds Delta(zeta)/h within 1e-12
    relative."""
    from fraccq.tableau import delta
    tab, alpha, J = radau_iia(s), 0.5, 160
    rho, dec, d_alpha = fastcq._circle_split(tab, alpha, J, 21, fold=True)
    zetas = rho * np.exp(2j * np.pi * np.arange(J // 2 + 1) / J)
    def by_imag(x):
        return np.take_along_axis(x, np.argsort(x.imag, axis=-1), axis=-1)

    for h in (0.1, 1e-3):
        mats = delta(zetas, tab) / h
        got = by_imag(d_alpha * h ** -alpha)
        want = by_imag(smallmat.power_alpha(np.linalg.eigvals(mats), alpha))
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13
        recon = (dec.U * (dec.d / h)[:, None, :]) @ dec.U_inv
        mag = np.max(np.abs(mats), axis=(-2, -1))
        assert np.max(np.max(np.abs(recon - mats), axis=(-2, -1)) / mag) <= 1e-12


def test_solve_ladder_splits_its_circle_nodes_once(example1, eig_calls):
    """fast_solve on one problem at N = 20, 40, 80, 160 with one J splits
    the circle stack once, the L = 0 solve at N = 20 included, since the
    radius is sized by kappa+1, not by m_0; at J = 160, 161, 160 three
    times, since the problem keeps one circle rule."""
    tab = radau_iia(3)
    for n_steps in (20, 40, 80, 160):
        fast_solve(example1, CQConfig(tableau=tab, h=1.0 / n_steps, N=n_steps, K=25))
    assert eig_calls == [(21, 3, 3)]
    eig_calls.clear()
    for J in (160, 161, 160):
        fast_solve(example1, CQConfig(tableau=tab, h=0.025, N=40, K=25, J=J))
    assert eig_calls == [(81, 3, 3)] * 3


# ---------------------------------------------------------------------------
# stage plans


LADDER = (20, 40, 80, 160, 320, 640)


def ladder_config(tab, n_steps, **kw):
    return CQConfig(tableau=tab, h=10.0 / n_steps, N=n_steps, K=25, **kw)


@pytest.fixture
def stage_calls(monkeypatch):
    """Names of the stage-space calls (stability, delta, eig_small) made
    during the test."""
    calls = []
    for module, name in ((tableau, "stability"), (tableau, "delta"), (smallmat, "eig_small")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_stage_plan_ladder_builds_each_piece_once(example1, stage_calls):
    """On a fresh example-1 problem the dense-ladder solves N = 20..640
    add levels 1, 2 and 3 with one stability call each and split the
    circle once (one delta and one eig_small call); RunStats.levels_built
    reads 1, 1, 0, 1, 0, 1. A second ladder on the same problem makes no
    stage-space call."""
    tab = radau_iia(3)
    built = [fast_solve(example1, ladder_config(tab, n))[1].levels_built for n in LADDER]
    assert built == [1, 1, 0, 1, 0, 1]
    assert stage_calls.count("stability") == 3 and stage_calls.count("delta") == 1
    assert stage_calls.count("eig_small") == 1
    stage_calls.clear()
    again = [fast_solve(example1, ladder_config(tab, n))[1].levels_built for n in LADDER]
    assert again == [0] * 6 and stage_calls == []


def test_replaced_problem_builds_a_new_plan(example1, stage_calls, eig_calls):
    """dataclasses.replace starts the new problem without a plan, and the
    plan takes no part in comparison or repr; an equal tableau built
    afresh finds the kept plan, and a solve with other parameters
    replaces it. The new problem splits its circle nodes itself: each
    problem keeps its own split. The return to K = 25 after K = 30 builds
    the plan's 3 levels but keeps the circle split, whose key has no K."""
    tab = radau_iia(3)
    cfg = ladder_config(tab, 640)
    assert fast_solve(example1, cfg)[1].levels_built == 4
    fresh = dataclasses.replace(example1, family=dense_operator(None, caputo.EXAMPLE1_MATRIX))
    stage_calls.clear()
    eig_calls.clear()
    assert fast_solve(fresh, cfg)[1].levels_built == 4
    assert stage_calls.count("stability") == 1 and stage_calls.count("delta") == 1
    assert stage_calls.count("eig_small") == 1 and len(eig_calls) == 1
    assert dataclasses.replace(example1) == example1 and "_kept" not in repr(example1)
    assert fast_solve(example1, cfg)[1].levels_built == 0
    # an equal tableau built afresh finds the plan, another tableau does not
    assert fast_solve(example1, dataclasses.replace(cfg, tableau=radau_iia(3)))[1].levels_built == 0
    assert fast_solve(example1, dataclasses.replace(cfg, tableau=radau_iia(2)))[1].levels_built == 4
    assert fast_solve(example1, dataclasses.replace(cfg, K=30))[1].levels_built == 4
    assert fast_solve(example1, cfg)[1].levels_built == 3


def test_each_kept_value_rebuilds_only_for_its_own_key(example1):
    """The circle rule is kept per tableau, J, kappa and fold, the stage plan
    per tableau, K, Lambda, kappa and fold: once the problem holds both, a
    solve at another J builds only the circle split and keeps the plan,
    and one at another K builds only the plan's 3 levels and keeps the
    split."""
    cfg = ladder_config(radau_iia(3), 640)
    assert fast_solve(example1, cfg)[1].levels_built == 4
    plan = example1._kept["plan"][1]
    cfg = dataclasses.replace(cfg, J=30)
    assert fast_solve(example1, cfg)[1].levels_built == 1
    assert example1._kept["plan"][1] is plan
    circle = example1._kept["circle"][1]
    assert fast_solve(example1, dataclasses.replace(cfg, K=30))[1].levels_built == 3
    assert example1._kept["circle"][1] is circle


def test_solve_bits_do_not_depend_on_earlier_solves(example1, example1_complex):
    """N = 640 on a fresh problem and N = 640 after the ladder on another
    give the same bits, folded (example 1) and unfolded (complex data):
    the first solve scales the plan it builds as later ones do."""
    tab = radau_iia(3)
    for prob in (example1, example1_complex):
        alone, _ = fast_solve(dataclasses.replace(prob), ladder_config(tab, 640))
        for n_steps in LADDER:
            after, stats = fast_solve(prob, ladder_config(tab, n_steps))
        assert stats.levels_built == 1 and np.array_equal(alone, after)


def test_kept_powers_are_read_only_and_match_a_fresh_cumprod(example1):
    """Each level of the plan keeps its descending powers once, read-only,
    min(1024, (kappa+1)(Lambda-1)Lambda^(l-1)) rows by its nodes; they and
    their trailing rows equal, bit for bit, the powers a per-block cumprod
    builds for a full block and a shorter one."""
    cfg = CQConfig(tableau=radau_iia(3), h=0.002, N=3000, K=25)
    fast_solve(example1, cfg)
    stage = example1._kept["plan"][1]
    assert [p.shape for p in stage.powers] == [(84, 26), (420, 26), (1024, 26), (1024, 26)]
    for r, powers in zip(stage.r, stage.powers):
        assert not powers.flags.writeable
        for w in {len(powers), len(powers) // 3}:
            desc = np.empty((len(r), w), dtype=complex)  # desc[:, j] = r^(w-1-j)
            desc[:, -1] = 1.0
            np.cumprod(np.broadcast_to(r[:, None], (len(r), w - 1)), axis=1,
                       out=desc[:, -2::-1])
            assert np.array_equal(powers[len(powers) - w:], desc.T)


def test_a_solve_at_a_new_N_and_h_builds_no_powers(example2_small):
    """A second solve at another N and h, within the plan's levels, reads
    the kept powers: it builds nothing and gives the bits of a fresh
    problem."""
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=3000, K=20, kappa=12, J=14)
    fast_solve(example2_small, cfg)
    kept = list(example2_small._kept["plan"][1].powers)
    other = dataclasses.replace(cfg, N=2000, h=0.015)
    u, stats = fast_solve(example2_small, other)
    assert stats.levels_built == 0
    assert all(a is b for a, b in zip(example2_small._kept["plan"][1].powers, kept, strict=True))
    assert np.array_equal(u, fast_solve(dataclasses.replace(example2_small), other)[0])


def test_pole_error_leaves_no_partial_plan(example1, monkeypatch):
    """A PoleError from the clearance test of new levels leaves the plan as
    it was: the same call raises again, naming the first new level, and
    once the nodes clear it adds exactly the missing levels."""
    tab = radau_iia(3)
    fast_solve(example1, ladder_config(tab, 40))  # circle split and level 1
    monkeypatch.setattr(fastcq, "_SPECTRUM_CLEARANCE", 1e9)
    for _ in range(2):
        with pytest.raises(PoleError, match="node k=-25 of level 2 "):
            fast_solve(example1, ladder_config(tab, 640))
    monkeypatch.undo()
    u, stats = fast_solve(example1, ladder_config(tab, 640))
    assert stats.levels_built == 2
    assert np.array_equal(u, fast_solve(dataclasses.replace(example1), ladder_config(tab, 640))[0])


# ---------------------------------------------------------------------------
# the contour angle: contour.theta1 of the order and the family's sector


def test_sized_K_follows_the_order_on_example_1(example1):
    """Example 1's spectrum, -1 +- i, has theta0 = pi/4: the contour angle
    is pi/2 up to alpha = 3/4 and pi/4 at alpha = 1, where the sized K is
    40. There fast_solve agrees with direct_cq within 1e-6 max(1, |u|)
    (t = 10, N = 200); with the pi/2 angle at every order it read 1.0e-4."""
    assert example1.family.theta0 == np.pi / 4
    for alpha, k_sized in ((0.5, 25), (1.0, 40)):
        prob = dataclasses.replace(example1, alpha=alpha)
        cfg = CQConfig(tableau=radau_iia(3), h=10.0 / 200, N=200)
        u, stats = fast_solve(prob, cfg)
        assert stats.K == k_sized
        u_dir = direct_cq(prob, cfg)
        assert np.max(np.abs(u - u_dir)) <= 1e-6 * max(1.0, np.max(np.abs(u_dir)))


def test_a_problem_sizes_its_contour_once(tbc_problem_small, monkeypatch):
    """The stage plan of a K = None problem sizes K (contour.sized_K) when
    it is made and selects its contour parameters when it adds its first
    level: solves at N = 200, 1000 and 5000 and a repeat make one call of
    each, all at the sized K = 64, and a fresh problem sizes again."""
    calls, sizing = {"sized_K": 0, "select_parameters": 0}, []
    sized_K, select_parameters = contour.sized_K, contour.select_parameters

    def counting_sized_K(*args):
        calls["sized_K"] += 1
        sizing.append(args)  # its own error_model scans are not the plan's
        try:
            return sized_K(*args)
        finally:
            sizing.pop()

    def counting_select_parameters(*args):
        calls["select_parameters"] += not sizing
        return select_parameters(*args)

    monkeypatch.setattr(contour, "sized_K", counting_sized_K)
    monkeypatch.setattr(contour, "select_parameters", counting_select_parameters)
    for N in (200, 1000, 5000, 5000):
        _, stats = fast_solve(tbc_problem_small, CQConfig(tableau=radau_iia(3), h=0.5 / N, N=N))
        assert stats.K == 64
    assert calls == {"sized_K": 1, "select_parameters": 1}
    _, stats = fast_solve(dataclasses.replace(tbc_problem_small),
                          CQConfig(tableau=radau_iia(3), h=0.5 / 200, N=200))
    assert stats.K == 64 and calls == {"sized_K": 2, "select_parameters": 2}


def test_first_block_sizes_no_contour(tbc_problem_small, monkeypatch):
    """The first block reads the stage table and its circle rule, no stage
    plan: on a fresh K = None problem it calls neither contour.sized_K nor
    contour.select_parameters."""
    calls = {"sized_K": 0, "select_parameters": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(contour, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(contour, name, counting)
    first_block(tbc_problem_small, CQConfig(tableau=radau_iia(3), h=0.5 / 200, N=200))
    assert calls == {"sized_K": 0, "select_parameters": 0}


def test_first_block_needs_no_sector(example1):
    """A = [[0.5, 1], [-1, 0.2]] has the eigenvalues 0.35 +- 0.99i, right of
    the imaginary axis, so no contour angle exists and fast_solve raises
    DomainError. The first block needs none: with example 1's data it
    equals, bit for bit, the circle sum of a fresh split at the same J
    and kappa+1 terms."""
    prob = Problem(family=dense_operator(None, np.array([[0.5, 1.0], [-1.0, 0.2]])),
                   alpha=example1.alpha, g=example1.g)
    cfg = CQConfig(tableau=radau_iia(3), h=0.5, N=20)
    u, solves = first_block(prob, cfg)
    table = prob.g.table(cfg.N, cfg.h, cfg.tableau.c)
    J, fold = cfg.resolved_J(), fastcq._folds(prob, table)
    rule = fastcq._circle_split(cfg.tableau, prob.alpha, J, cfg.kappa + 1, fold)
    want, want_solves = fastcq._circle_sum(prob, table, cfg.N, J, rule, cfg.h)
    assert np.array_equal(u, want) and solves == want_solves
    with pytest.raises(DomainError, match="right of the imaginary axis"):
        fast_solve(prob, cfg)


def test_a_spectrum_near_the_imaginary_axis_is_refused_in_milliseconds():
    """Eigenvalues -1e-3 +- i leave alpha = 1 the angle 1e-3, which needs a
    K above 10,000: the default-K solve raises ConfigError at once instead
    of sizing K = 69,297 and solving for seconds."""
    prob = Problem(family=dense_operator(None, np.array([[-1e-3, 1.0], [-1.0, -1e-3]])),
                   alpha=1.0, g=ConstantInhomogeneity(np.array([1.0, 0.0])))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="pass an explicit K"):
        fast_solve(prob, CQConfig(tableau=radau_iia(3), h=0.05, N=200))
    assert time.perf_counter() - start < 0.5


def test_contour_angles_keep_their_bits_where_the_order_leaves_them():
    """The angles of the spectral family at alpha = 1/2 (and at every order),
    example 1 at 1/2 and the transparent-boundary family at 3/4 equal, bit
    for bit, the values the families stated before the angle came from
    contour.theta1: pi/2, pi/2 and theta1(3/4, 0) = pi/6, each times
    1 - 1e-9. The one-argument form reads the family's own order, or 1."""
    spectral = periodic_compact_fd_3d(4)
    dense = dense_operator(None, caputo.EXAMPLE1_MATRIX)
    tbc = schrodinger_tbc_1d(2.0, 11, 0.75)
    half_pi = np.pi / 2 * (1.0 - 1e-9)
    for alpha in (0.5, 0.8, 1.0):
        assert CQConfig.resolved_theta(spectral, alpha) == half_pi
    assert CQConfig.resolved_theta(spectral) == half_pi
    assert CQConfig.resolved_theta(dense, 0.5) == half_pi
    tbc_theta = min((np.pi * (1.0 - 0.75) + 2.0 * 0.0) / (2.0 * 0.75), np.pi / 2) * (1.0 - 1e-9)
    assert CQConfig.resolved_theta(tbc, 0.75) == CQConfig.resolved_theta(tbc) == tbc_theta


def test_dense_sector_of_a_zero_eigenvalue():
    """An eigenvalue at zero carries no angle: A = diag(0, -1) has theta0 =
    pi/2, and its problem solves, in agreement with direct_cq."""
    fam = dense_operator(None, np.diag([0.0, -1.0]))
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.array([1.0, 1.0])))
    cfg = CQConfig(tableau=radau_iia(2), h=0.05, N=100)
    u, stats = fast_solve(prob, cfg)
    assert fam.theta0 == np.pi / 2 and stats.K == 25
    assert np.max(np.abs(u - direct_cq(prob, cfg))) <= 1e-6 * max(1.0, np.max(np.abs(u)))
    assert dense_operator(None, np.zeros((2, 2))).theta0 == np.pi / 2


def test_dense_sector_refusals_come_at_the_solve():
    """A family outside the paper's assumption builds and solves resolvents;
    the solve that sizes its contour refuses it with a typed error naming the
    cause: an eigenvalue right of the imaginary axis (DomainError) or a
    singular M, which leaves M^-1 A undefined (ConfigError)."""
    g = ConstantInhomogeneity(np.array([1.0, 1.0]))
    cfg = CQConfig(tableau=radau_iia(2), h=0.05, N=100)
    for M, A, error, match in ((None, np.diag([0.5, -1.0]), DomainError, "right of the imaginary"),
                               (np.diag([1.0, 0.0]), A22, ConfigError, "M is singular")):
        fam = dense_operator(M, A)
        assert fam.solve(2.0 + 1j, np.ones(2)).shape == (2,)
        with pytest.raises(error, match=match):
            fast_solve(Problem(family=fam, alpha=0.5, g=g), cfg)
