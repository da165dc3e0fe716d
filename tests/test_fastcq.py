import dataclasses

import numpy as np
import pytest

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
from fraccq import caputo, fastcq
from fraccq.errors import ConfigError, PoleError
from fraccq.operators import (
    ConstantInhomogeneity,
    Problem,
    SeparableInhomogeneity,
    dense_operator,
)

A22 = np.array([[-1.0, 1.0], [-1.0, -1.0]])


@pytest.fixture(scope="module")
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


def test_runstats_counters(example1):
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=1000, K=25)
    _, stats = fast_solve(example1, cfg)
    assert stats.resolvent_solves == 3 * 26
    assert stats.rk_steps == 26 * (1000 - 21)
    assert stats.first_block_solves == 3 * 160


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


def test_direct_trajectory_consistency(example1):
    cfg = CQConfig(tableau=radau_iia(2), h=0.1, N=30)
    traj = direct_cq(example1, cfg, return_trajectory=True)
    final = direct_cq(example1, cfg)
    assert traj.shape == (31, 2)
    assert np.max(np.abs(traj[0])) == 0.0
    assert np.max(np.abs(traj[-1] - final)) <= 1e-9
    # intermediate value equals a shorter run
    cfg10 = CQConfig(tableau=radau_iia(2), h=0.1, N=10)
    final10 = direct_cq(example1, cfg10)
    assert np.max(np.abs(traj[10] - final10)) <= 1e-9


# ---------------------------------------------------------------------------
# first block


def test_first_block_zero_samples():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)))
    cfg = CQConfig(tableau=radau_iia(3), h=0.05, N=40)
    plan = plan_levels(40, cfg.kappa, cfg.Lambda)
    u0, solves = first_block(prob, cfg, plan)
    assert np.max(np.abs(u0)) == 0.0
    assert solves == 3 * 160


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
    plan = plan_levels(n_steps, 20, 5)
    table = example1.g.table(n_steps, h, tab.c)
    u0, _ = first_block(example1, cfg, plan, table)

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
    unexpanded cannot pass."""
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
    batched = fastcq._march_window(rs, qs, table, 30, 150, h, block=64)
    assert batched.shape == (7, 2)
    for i, lam in enumerate(lams):
        ref = rk_march_scalar(lam, table, 30, 150, tab, h)
        assert ref.shape == (5,)
        assert np.max(np.abs(batched[i] @ table.spatial - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


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


def test_fast_rejects_pending_initial_data():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)),
                   u0=np.array([1.0, 0.0]))
    cfg = CQConfig(tableau=radau_iia(2), h=0.1, N=10)
    with pytest.raises(ConfigError):
        fast_solve(prob, cfg)


def test_worker_count_does_not_change_bits(example1):
    """fast_solve (J = 160 circle nodes) and direct_cq (J = 1200) give the
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


def test_passed_table_gives_the_same_bits(monkeypatch):
    """A caller-built stage table is used as given: g.table is not called."""
    from fraccq import example1_problem
    prob = example1_problem().problem
    tab = radau_iia(3)
    cfg = CQConfig(tableau=tab, h=0.01, N=300, K=20)
    table = prob.g.table(cfg.N, cfg.h, tab.c)
    u_own, _ = fast_solve(prob, cfg)

    def no_table(*args):
        raise AssertionError("fast_solve rebuilt the stage table")

    monkeypatch.setattr(prob.g, "table", no_table)
    u_passed, _ = fast_solve(prob, cfg, table)
    assert np.array_equal(u_own, u_passed)


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
    same, offset = transform_initial(example1)
    assert same is example1
    assert np.max(np.abs(offset)) == 0.0


def test_transform_initial_dense_shift():
    fam = dense_operator(None, A22)
    prob = Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(2)),
                   u0=np.array([1.0, 0.0]))
    new, offset = transform_initial(prob)
    assert offset == pytest.approx([1.0, 0.0])
    # shifted inhomogeneity is the first column of A, constant in time
    for t in (0.0, 0.3, 2.0):
        assert new.g.sample(t) == pytest.approx(A22[:, 0])
    assert not new.has_initial


def test_transform_initial_schrodinger_constant_samples():
    from fraccq import example3_problem
    prob0 = example3_problem(101, 2.0)
    prob, offset = transform_initial(prob0)
    tab = radau_iia(3)
    g0 = prob.g_stage(0, tab.c, 0.01)
    g7 = prob.g_stage(7, tab.c, 0.01)
    assert np.array_equal(g0, g7)
    assert np.max(np.abs(offset - prob0.u0)) == 0.0


def test_transform_initial_schrodinger_data_is_rank_one():
    """The zero data of example 3 leave no spatial row behind: the shifted
    inhomogeneity is the constant A u0 alone."""
    from fraccq import example3_problem
    prob0 = example3_problem(101, 2.0)
    prob, _ = transform_initial(prob0)
    assert prob.g.rank == 1
    assert np.array_equal(prob.g.spatial[0], prob0.family.apply_op(prob0.u0))


def test_transform_initial_reconstruction_consistency():
    """Solving the transformed problem and adding the offset approximates
    the untransformed classical solution for alpha -> 1 (sanity bridge)."""
    fam = dense_operator(None, A22)
    u0 = np.array([0.4, -0.2])
    prob = Problem(family=fam, alpha=1.0, g=ConstantInhomogeneity(np.zeros(2)), u0=u0)
    new, offset = transform_initial(prob)
    cfg = CQConfig(tableau=radau_iia(3), h=0.01, N=100)
    u, _ = fast_solve(new, cfg)
    from scipy.linalg import expm
    v_exact = expm(A22 * 1.0) @ u0
    assert np.max(np.abs((u + offset) - v_exact)) <= 1e-6
    # real operator and data: the offset is real like the folded solve
    assert u.dtype == offset.dtype == (u + offset).dtype == np.float64


def test_config_rejects_nonconforming_tableau():
    # 2-stage Gauss: weights differ from the last row of the matrix
    r3 = np.sqrt(3.0)
    from fraccq.tableau import Tableau
    gauss = Tableau(2, np.array([[1 / 4, 1 / 4 - r3 / 6], [1 / 4 + r3 / 6, 1 / 4]]),
                    np.array([1 / 2, 1 / 2]),
                    np.array([1 / 2 - r3 / 6, 1 / 2 + r3 / 6]), 4, 2)
    with pytest.raises(ConfigError):
        CQConfig(tableau=gauss, h=0.1, N=10)


def test_circle_decomp_perturbs_only_the_flagged_nodes(monkeypatch):
    """A split that fails at one node perturbs that node alone; every other
    node keeps the bits of an undisturbed split."""
    from fraccq import smallmat
    from fraccq.errors import DecompositionError
    tab, h, alpha = radau_iia(3), 0.01, 0.5
    zetas = 0.8 * np.exp(2j * np.pi * np.arange(9) / 9)
    clean, clean_nus = fastcq._circle_decomp(zetas, tab, h, alpha)

    original = smallmat.eig_small
    seen = []

    def fail_once_at_node_5(stack):
        seen.append(np.array(stack))
        if len(seen) == 1:
            raise DecompositionError("forced", indices=np.array([5]))
        return original(stack)

    monkeypatch.setattr(smallmat, "eig_small", fail_once_at_node_5)
    dec, nus = fastcq._circle_decomp(zetas, tab, h, alpha)
    assert len(seen) == 2
    moved = [k for k in range(9) if not np.array_equal(seen[0][k], seen[1][k])]
    assert moved == [5]
    assert np.array_equal(zetas, 0.8 * np.exp(2j * np.pi * np.arange(9) / 9))
    keep = np.arange(9) != 5
    assert np.array_equal(dec.U[keep], clean.U[keep])
    assert np.array_equal(dec.U_inv[keep], clean.U_inv[keep])
    assert np.array_equal(nus[keep], clean_nus[keep])
    assert not np.array_equal(nus[5], clean_nus[5])
    assert np.allclose(nus[5], clean_nus[5], rtol=1e-7)


def test_circle_decomp_gives_up_after_one_perturbation(monkeypatch):
    from fraccq import smallmat
    from fraccq.errors import DecompositionError

    def always_fail(stack):
        raise DecompositionError("forced", indices=np.array([0]))

    monkeypatch.setattr(smallmat, "eig_small", always_fail)
    with pytest.raises(DecompositionError):
        fastcq._circle_decomp(np.array([0.5, 0.5j]), radau_iia(2), 0.1, 0.5)
