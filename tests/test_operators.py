import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccq import CQConfig, contour, direct_cq, example2_problem, example3_problem, fast_solve
from fraccq import radau_iia, smallmat
from fraccq.errors import ConfigError, DomainError, FracCQError, SolverError, SupportError
from fraccq.operators import (
    ConstantInhomogeneity,
    Problem,
    SeparableInhomogeneity,
    _TBC_CHUNK,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
    transform_initial,
)
from oracles import sample, sector_probe

A22 = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def dense_kron_blocks(n):
    """Brute-force circulant assembly of the 3D compact-FD operators."""
    eta = 2 * np.pi / n
    a1 = np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    a1[0, -1] = a1[-1, 0] = 1.0
    a1 /= eta**2
    m1 = np.diag(5 / 6 * np.ones(n)) + np.diag(np.ones(n - 1) / 12, 1) + np.diag(np.ones(n - 1) / 12, -1)
    m1[0, -1] = m1[-1, 0] = 1 / 12
    a3 = (np.kron(a1, np.kron(m1, m1)) + np.kron(m1, np.kron(a1, m1))
          + np.kron(m1, np.kron(m1, a1)))
    m3 = np.kron(m1, np.kron(m1, m1))
    return a3, m3


# ---------------------------------------------------------------------------
# dense backend


def test_dense_hand_checked_2x2():
    fam = dense_operator(None, A22)
    x = fam.solve(1.0, np.array([1.0, 0.0]))
    assert x == pytest.approx([2 / 5, -1 / 5], abs=1e-14)


def test_dense_zero_frequency():
    fam = dense_operator(None, A22)
    y = np.array([0.3, -0.7])
    assert fam.solve(0.0, y) == pytest.approx(-np.linalg.solve(A22, y), abs=1e-14)


def test_dense_random_mass_residual(rng):
    a = rng.standard_normal((6, 6))
    m = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    fam = dense_operator(m, a)
    nu = 0.8 + 1.3j
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = fam.solve(nu, y)
    assert np.linalg.norm((nu * m - a) @ x - y) <= 1e-10 * np.linalg.norm(y)


def test_dense_singular_raises():
    fam = dense_operator(None, np.zeros((2, 2)))
    with pytest.raises(SolverError):
        fam.solve(0.0, np.ones(2))


# ---------------------------------------------------------------------------
# spectral periodic backend


def test_spectral_equals_dense_kronecker(rng):
    n = 4
    fam = periodic_compact_fd_3d(n)
    a3, m3 = dense_kron_blocks(n)
    for _ in range(3):
        nu = rng.standard_normal() + 1j * rng.standard_normal() + 2.0
        y = rng.standard_normal(n**3) + 1j * rng.standard_normal(n**3)
        x_spec = fam.solve(nu, y)
        x_dense = np.linalg.solve(nu * m3 - a3, y)
        assert np.max(np.abs(x_spec - x_dense)) <= 1e-9 * np.max(np.abs(x_dense))


def test_spectral_apply_matches_dense(rng):
    n = 4
    fam = periodic_compact_fd_3d(n)
    a3, m3 = dense_kron_blocks(n)
    y = rng.standard_normal(n**3)
    assert np.max(np.abs(fam.apply_op(y) - a3 @ y)) < 1e-12
    assert np.max(np.abs(fam.apply_mass(y) - m3 @ y)) < 1e-12


def test_constant_function_in_kernel():
    fam = periodic_compact_fd_3d(8)
    out = fam.apply_op(np.ones(8**3))
    assert np.max(np.abs(out)) < 1e-13


def test_symbol_fourth_order():
    # a(xi)/m(xi) = -xi^2 (1 + O(xi^4)); Richardson fit of the exponent
    xis = 0.4 * 2.0 ** -np.arange(6)
    a = 2 * np.cos(xis) - 2
    m = 5 / 6 + np.cos(xis) / 6
    rel = np.abs(a / m + xis**2) / xis**2
    slopes = np.log2(rel[:-1] / rel[1:])
    assert np.all(slopes >= 3.8)


def test_zero_symbol_error():
    fam = periodic_compact_fd_3d(4)
    with pytest.raises(SolverError):
        fam.solve(0.0, np.ones(4**3))


def test_weighted_solve_rejects_a_vanishing_symbol_inside_the_batch():
    """nu = 0 makes the symbol of the constant mode vanish; the weighted
    sum names that frequency, not a neighbour in the batch."""
    fam = periodic_compact_fd_3d(8)
    nus = np.array([1.0 + 1.0j, 0.0, 2.0j])
    with pytest.raises(SolverError) as info:
        fam.solve(nus, np.ones((fam.dim, 1)), weights=np.ones((3, 1)))
    assert info.value.frequency == 0.0


def test_spectral_weighted_solve_keeps_the_bits_of_real_symbols(rng):
    """The pair symbols are stored complex, so that nu m - a runs in one
    dtype; a weighted solve gives bit for bit the same sum as the formula
    on the real symbols."""
    for n in (8, 5):
        fam = periodic_compact_fd_3d(n)
        assert fam._pair_mass.dtype == fam._pair_op.dtype == np.complex128
        assert not np.any(fam._pair_mass.imag) and not np.any(fam._pair_op.imag)
        mass, op = fam._pair_mass.real.copy(), fam._pair_op.real.copy()
        nus = 3.0 * np.exp(1j * np.linspace(-1.2, 1.2, 21))
        y = rng.standard_normal((fam.dim, 2))
        w = rng.standard_normal((21, 2)) + 1j * rng.standard_normal((21, 2))
        mult = w.T @ np.reciprocal(nus[:, None] * mass - op)
        hat = np.fft.fftn(np.ascontiguousarray(y.T).reshape(2, n, n, n), axes=(1, 2, 3))
        total = (hat.reshape(2, -1) * np.take(mult, fam._pair_index, axis=1)).sum(axis=0)
        want = np.fft.ifftn(total.reshape(n, n, n)).ravel()
        assert np.array_equal(fam.solve(nus, y, weights=w), want)


# ---------------------------------------------------------------------------
# transparent-boundary backend


def test_tbc_vieta_and_characteristic_residual(rng):
    """Roots of 30 frequencies taken as one array equal, bit for bit, the
    roots of each frequency taken alone."""
    fam = schrodinger_tbc_1d(2.0, 101, 0.75)
    nus = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    z1s, z2s = fam.roots(nus)
    assert z1s.shape == z2s.shape == (30,)
    for nu, z1_k, z2_k in zip(nus, z1s, z2s):
        z1, z2 = fam.roots(nu)
        assert z1 == z1_k and z2 == z2_k
        assert abs(z1 * z2 - 1.0) <= 1e-12
        phi = nu / 12 - 1j / fam.eta**2
        psi = 5 * nu / 6 + 2j / fam.eta**2
        resid = phi * z1**2 + psi * z1 + phi
        assert abs(resid) <= 1e-10 * max(abs(phi), abs(psi))


@pytest.mark.parametrize("nu", [1e155 + 1e155j, np.complex128(1e160), np.float64(-1e300)])
def test_tbc_roots_refuse_an_overflowing_discriminant(nu):
    """psi^2 - 4 phi^2 beyond the float range (|nu| above about 1e155, or
    h below about 1e-220 at alpha = 3/4) raises SolverError naming nu; it
    raised a RuntimeWarning from the overflow. In a batch the first failing
    node is named, here before a later node whose phi vanishes."""
    fam = schrodinger_tbc_1d(2.0, 101, 0.75)
    with pytest.raises(SolverError, match="nu=") as err:
        fam.roots(nu)
    assert err.value.frequency == nu
    with pytest.raises(SolverError, match="discriminant overflows") as err:
        fam.roots(np.array([nu, 12j / fam.eta**2]))
    assert err.value.frequency == nu


def test_tbc_root_moduli_on_contour_frequencies():
    alpha = 0.75
    fam = schrodinger_tbc_1d(2.0, 101, alpha)
    theta = contour.theta1(alpha, fam.theta0) * (1 - 1e-9)
    params = contour.select_parameters(25, 5, theta)
    lambdas, _ = contour.level_nodes(contour.mu_level(1, 0.001, 20, params), params)
    count = 0
    for lam in lambdas:
        nu = smallmat.power_alpha(lam, alpha)
        z1, z2 = fam.roots(nu)
        assert abs(z1) < 1.0 < abs(z2)
        count += 1
    assert count == 51


def _closed_rows_solve(fam, nu, y):
    """LAPACK's dense solve of the assembled closed rows at nu."""
    phi, diag = fam.closed_rows(nu)
    n = fam.n
    return np.linalg.solve(np.diag(diag) + phi * (np.eye(n, k=1) + np.eye(n, k=-1)), y)


def test_tbc_small_system_matches_dense_assembly(rng, monkeypatch):
    """The solve equals the dense solve of the closed rows: at one node on
    n = 6, and on n = 801 at plan nodes of a default schrodinger solve
    (radau5, N = 4000): every fourth of its 120 circle nodes and every 32nd
    of its 516 level nodes, with the problem's own data, each node within
    1e-12 relative (at most 5e-13 on a 2-vCPU host, 4e-13 for a banded
    LAPACK solve). The last level's smallest nodes have |z1| near 0.998:
    on random data there any two of these solvers differ by up to 5e-12."""
    fam = schrodinger_tbc_1d(2.0, 6, 0.5)
    nu = 1.7 - 0.4j
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x_dense = _closed_rows_solve(fam, nu, y)
    assert np.max(np.abs(fam.solve(nu, y) - x_dense)) <= 1e-10 * np.max(np.abs(x_dense))

    problem = example3_problem(801, 2.0)[0]
    fam, batches = problem.family, []
    solve = fam.solve

    def recording(nu, y, weights=None):
        batches.append(np.asarray(nu))
        return solve(nu, y, weights)

    monkeypatch.setattr(fam, "solve", recording)
    fast_solve(problem, CQConfig(tableau=radau_iia(3), h=0.00025, N=4000))
    levels, circle = batches
    assert (len(levels), len(circle)) == (516, 120)
    nus = np.concatenate((circle[::4], levels[::32]))
    y = problem.g.spatial[0]
    for nu, x in zip(nus, solve(nus, np.broadcast_to(y, (len(nus), 801)))):
        x_dense = _closed_rows_solve(fam, nu, y)
        assert np.max(np.abs(x - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))


def test_tbc_closure_residual_with_ghost_cells(rng):
    n = 101
    fam = schrodinger_tbc_1d(2.0, n, 0.75)
    nu = 2.2 + 0.9j
    z1, _ = fam.roots(nu)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = fam.solve(nu, y)
    # extend by the decaying exterior solution and apply the raw rows
    ext = np.concatenate(([z1 * x[0]], x, [z1 * x[-1]]))
    phi = nu / 12 - 1j / fam.eta**2
    psi = 5 * nu / 6 + 2j / fam.eta**2
    resid = phi * ext[:-2] + psi * ext[1:-1] + phi * ext[2:] - y
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(y))


def test_tbc_multicolumn_solve(rng):
    fam = schrodinger_tbc_1d(2.0, 31, 0.75)
    nu = 0.5 + 2.0j
    ys = rng.standard_normal((31, 3)) + 1j * rng.standard_normal((31, 3))
    xs = fam.solve(nu, ys)
    for j in range(3):
        assert np.max(np.abs(xs[:, j] - fam.solve(nu, ys[:, j]))) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_rejects_non_finite_entries(bad):
    """A non-finite entry in A or M would reach every solve as NaN, and the
    family would still report itself real."""
    a_bad = A22.copy()
    a_bad[0, 1] = bad
    m_bad = np.eye(2)
    m_bad[1, 1] = bad
    with pytest.raises(ConfigError):
        dense_operator(None, a_bad)
    with pytest.raises(ConfigError):
        dense_operator(m_bad, A22)


@pytest.mark.parametrize("a_half", [-2.0, 0.0, np.nan, np.inf])
def test_tbc_rejects_a_bad_half_width(a_half):
    """-2 would build a mirrored grid (eta < 0); nan, 0 and inf give a grid
    spacing eta of nan, 0 or inf."""
    with pytest.raises(ConfigError):
        schrodinger_tbc_1d(a_half, 61, 0.75)


def test_tbc_support_validation():
    fam = schrodinger_tbc_1d(2.0, 101, 0.75)
    bad = np.ones(101)
    with pytest.raises(SupportError):
        fam.validate_initial(bad)


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("backend", ["dense", "spectral-4", "tbc"])
def test_transform_initial_refuses_a_bad_u0_with_config_error(backend, rng):
    """A u0 of another shape or with a non-finite entry gets ConfigError,
    not numpy's ValueError from a matmul or reshape, nor a later solver
    failure; the spectral family would take a (dim+1,) u0 to its reshape."""
    fam = _family(backend, rng)
    problem = Problem(family=fam, alpha=0.75, g=ConstantInhomogeneity(np.zeros(fam.dim)))
    good = np.zeros(fam.dim, dtype=complex)
    good[fam.dim // 2] = 1.0
    for bad in (np.ones(fam.dim + 1), np.ones((fam.dim, 1)), np.ones(()), ["1"] * fam.dim,
                np.where(good, np.nan, good), np.where(good, np.inf, good),
                np.where(good, complex(1.0, np.nan), good)):
        with pytest.raises(ConfigError):
            transform_initial(problem, bad)
    new, offset = transform_initial(problem, good)
    assert np.array_equal(offset, good) and new.g.rank == 1


def test_every_public_name_resolves():
    """fraccq.__all__ is exactly the README's public API sentence, every
    name resolves, and the internals of a solve and the tests' oracles are
    not top-level names: the internals stay attributes of their modules."""
    from pathlib import Path

    import fraccq
    from fraccq import fastcq, operators, tableau

    missing = [name for name in fraccq.__all__ if not hasattr(fraccq, name)]
    assert not missing
    assert "transform_initial" in fraccq.__all__ and "example3_initial" not in fraccq.__all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The public API is (.*?)\.\s", readme, flags=re.S).group(1)
    stated = re.findall(r"`([A-Za-z_]\w*)`", sentence)
    assert len(stated) == 18 and set(fraccq.__all__) == set(stated)
    internals = {contour: ("level_nodes", "mu_level", "select_parameters", "ContourParams"),
                 fastcq: ("LevelPlan", "plan_levels", "first_block"),
                 tableau: ("delta", "stability")}
    for module, names in internals.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(fraccq, name), name
    for name in ("rk_march_scalar", "sector_probe", "g_stage", "sample"):
        assert not hasattr(fraccq, name), name
    assert not hasattr(fastcq, "rk_march_scalar") and not hasattr(operators, "sector_probe")
    assert not hasattr(Problem, "g_stage") and not hasattr(SeparableInhomogeneity, "sample")


@pytest.mark.parametrize("backend", ["dense", "spectral", "tbc"])
def test_solve_linearity(backend, rng):
    if backend == "dense":
        fam = dense_operator(None, A22)
    elif backend == "spectral":
        fam = periodic_compact_fd_3d(4)
    else:
        fam = schrodinger_tbc_1d(2.0, 41, 0.75)
    nu = 1.1 + 0.7j
    for _ in range(20):
        y1 = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        y2 = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        a, b = complex(rng.standard_normal(), rng.standard_normal()), complex(
            rng.standard_normal(), rng.standard_normal())
        lhs = fam.solve(nu, a * y1 + b * y2)
        rhs = a * fam.solve(nu, y1) + b * fam.solve(nu, y2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_sector_probe_dense_bounded():
    fam = dense_operator(None, A22)
    samples = [10.0**e for e in range(-2, 7)]
    c = sector_probe(fam, samples)
    assert np.isfinite(c) and c < 50.0


def test_sector_probe_scalar_contraction():
    fam = dense_operator(None, -np.eye(3))
    samples = [0.1, 1.0, 10.0, 1e4]
    assert sector_probe(fam, samples) <= 1.0 + 1e-12


def test_sector_probe_schrodinger_powered_ray():
    alpha = 0.75
    fam = schrodinger_tbc_1d(2.0, 101, alpha)
    ray = [r * np.exp(1j * alpha * np.pi / 2) for r in (0.1, 1.0, 10.0, 100.0)]
    c = sector_probe(fam, ray, trials=2)
    assert np.isfinite(c) and c < 200.0


def test_problem_validation():
    fam = dense_operator(None, A22)
    with pytest.raises(Exception):
        Problem(family=fam, alpha=1.5, g=ConstantInhomogeneity(np.zeros(2)))
    with pytest.raises(ConfigError):
        Problem(family=fam, alpha=0.5, g=ConstantInhomogeneity(np.zeros(3)))
    # the transparent boundary rows and the contour angle depend on alpha
    tbc = schrodinger_tbc_1d(2.0, 31, 0.75)
    assert (fam.alpha, tbc.alpha) == (None, 0.75)
    Problem(family=tbc, alpha=0.75, g=ConstantInhomogeneity(np.zeros(31)))
    with pytest.raises(ConfigError):
        Problem(family=tbc, alpha=0.9, g=ConstantInhomogeneity(np.zeros(31)))


def test_families_and_tables_state_whether_they_are_real():
    """A family is real when A and M have no imaginary part; a stage table
    when its time factors have a real dtype and its spatial factors no
    imaginary part. Shifting real data by a real offset keeps it real."""
    assert dense_operator(None, A22).is_real
    assert dense_operator(np.eye(2) + 0j, A22 + 0j).is_real
    assert not dense_operator(None, A22 + 1e-3j).is_real
    assert not dense_operator(np.eye(2) * (1 + 1e-3j), A22).is_real
    assert periodic_compact_fd_3d(4).is_real
    assert not schrodinger_tbc_1d(2.0, 61, 0.75).is_real

    def real_factors(ts):
        return np.stack([np.sin(ts), np.cos(ts)], axis=-1)

    c = np.array([1 / 3, 1.0])
    spatial = np.array([[1.0, 2.0], [0.5, -1.0]])
    cases = [
        (SeparableInhomogeneity(spatial, real_factors), True),
        (SeparableInhomogeneity(spatial + 0j, real_factors), True),
        (SeparableInhomogeneity(spatial + 1e-3j, real_factors), False),
        (SeparableInhomogeneity(spatial, lambda ts: real_factors(ts) + 0j), False),
        (ConstantInhomogeneity(np.array([1.0, 2.0])), True),
        (ConstantInhomogeneity(np.array([1.0, 2.0j])), False),
        (SeparableInhomogeneity(spatial, real_factors).shifted(np.array([3.0, 0.0])), True),
        (SeparableInhomogeneity(spatial, real_factors).shifted(np.array([3.0, 1j])), False),
    ]
    for k, (g, real) in enumerate(cases):
        assert g.table(5, 0.1, c).is_real is real, k


@pytest.mark.parametrize("spatial", [np.ones(3), np.ones((1, 2, 3)), np.array([[1.0, np.nan]]),
                                     np.array([[np.inf, 0.0]]), np.array([["a", "b"]])],
                         ids=["1-D", "3-D", "nan", "inf", "strings"])
def test_separable_data_refuse_malformed_spatial_factors(spatial):
    """Spatial factors that are not a finite numeric (rank, dim) array raise
    ConfigError at construction: a 1-D array raised IndexError, a 3-D one
    was accepted, and a NaN entry reached the solve, whose SolverError
    blamed the solver."""
    with pytest.raises(ConfigError, match="spatial factors"):
        SeparableInhomogeneity(spatial, lambda ts: np.ones((len(ts), 1)))


@pytest.mark.parametrize("vec", [1.0, np.ones((2, 2)), np.array([1.0, np.nan])],
                         ids=["scalar", "2-D", "nan"])
def test_constant_data_refuse_malformed_vectors(vec):
    with pytest.raises(ConfigError, match="spatial factors"):
        ConstantInhomogeneity(vec)


@pytest.mark.parametrize("factors, shape", [
    (lambda ts: np.ones((len(ts), 3)), (10, 3)),
    (lambda ts: np.ones(len(ts)), (10,)),
    (lambda ts: np.ones((len(ts) + 1, 2)), (11, 2)),
    (lambda ts: np.full((len(ts), 2), "x"), (10, 2)),
], ids=["rank+1", "1-D", "rows+1", "strings"])
def test_stage_table_refuses_malformed_time_factors(factors, shape):
    """A chunk of time factors that is not a numeric (stage times, rank)
    array raises ConfigError naming the expected and the given shape; each
    of these raised an untyped ValueError."""
    g = SeparableInhomogeneity(np.ones((2, 4)), factors)
    with pytest.raises(ConfigError, match=rf"\(10, 2\).*{re.escape(str(shape))}"):
        g.table(5, 0.1, np.array([0.5, 1.0]))


def test_stage_tables_keep_the_kind_of_their_time_factors():
    """Real time factors stay float64 (half the memory of complex), complex
    ones are complex128; the spatial factors are complex either way."""
    c = np.array([1 / 3, 1.0])
    spatial = np.array([[1.0, 2.0]])
    for factors, kind in ((lambda ts: np.sin(ts)[:, None], np.float64),
                          (lambda ts: np.sin(ts)[:, None].astype(np.float32), np.float64),
                          (lambda ts: np.exp(1j * ts)[:, None], np.complex128)):
        table = SeparableInhomogeneity(spatial, factors).table(5, 0.1, c)
        assert table.time.dtype == kind and table.spatial.dtype == np.complex128
    assert example2_problem(8).problem.g.table(5, 0.1, c).time.dtype == np.float64


def test_a_stage_table_is_built_in_bounded_chunks():
    """Example 2 at N = 2e5 (radau5: 6e5 stage times, a 9.6 MB table) is
    evaluated in chunks of at least 2^16 stage times: the table equals one
    call of its time factors bit for bit, and its build peaks at no more
    than twice the table's bytes (five times in one call)."""
    g = example2_problem(8).problem.g
    N, c = 200_000, radau_iia(3).c
    h = 123.45 / N
    tracemalloc.start()
    try:
        table = g.table(N, h, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = ((np.arange(N)[:, None] + c[None, :]) * h).ravel()
    assert np.array_equal(table.time, g._time_factors(times).reshape(N, 3, 2))
    assert peak <= 2 * table.time.nbytes, f"peak {peak / table.time.nbytes:.2f}x the table"


def test_a_tbc_weighted_solve_is_summed_in_bounded_chunks():
    """direct_cq on TBC-801 at N = 200 (radau5, J = 800: 2,400 nodes in one
    weighted solve) peaks below 40 MB under tracemalloc: the family sums
    chunks of at most _TBC_CHUNK nodes. One batch of all nodes peaked at
    62 MB, its right-hand sides and its solutions; the chunks read 21 MB."""
    problem = example3_problem(801, 2.0)[0]
    tracemalloc.start()
    try:
        u = direct_cq(problem, CQConfig(tableau=radau_iia(3), h=0.5 / 200, N=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(u))
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def test_a_chunked_table_turns_complex_with_its_factors():
    """Time factors that are real in the first chunk and complex in a later
    one (np.emath.sqrt past t = 1) give the complex table of one call."""
    g = SeparableInhomogeneity(np.eye(1), lambda ts: np.emath.sqrt(1.0 - ts)[:, None])
    N, h = 2**17, 1e-5
    table = g.table(N, h, np.array([1.0]))
    assert table.time.dtype == np.complex128 and not table.is_real
    assert np.array_equal(table.time[:, 0, 0], np.emath.sqrt(1.0 - (np.arange(N) + 1.0) * h))


def test_stage_table_refuses_overflowing_time_factors():
    """Time factors that overflow at the stage times raise DomainError
    naming [0, N h]: example 1 at t >= 1e307 (omega t overflows) and the
    data of example 2 at t = 1e308 raised a RuntimeWarning."""
    from fraccq import example1_problem, example2_problem
    c = np.array([0.2, 0.6, 1.0])
    for g, h in ((example1_problem().problem.g, 1e306),
                 (example2_problem(8, t_max=1e308).problem.g, 1e308 / 64)):
        with pytest.raises(DomainError, match=r"on \[0, 1e\+308\]|on \[0, 6.4e\+307\]"):
            g.table(64, h, c)


def test_stage_tables_agree_across_kinds(rng):
    """Separable and constant data: the time factors of table.block,
    expanded against table.spatial, equal pointwise sample at the stage
    times (n + c_k) h."""
    c = np.array([1 / 3, 1.0])
    h = 0.2
    spatial = rng.standard_normal((2, 5))

    def factors(ts):
        return np.stack([np.sin(ts), np.cos(ts)], axis=-1)

    def pointwise(g, n0, n1):
        return np.array([[sample(g, (n + ck) * h) for ck in c] for n in range(n0, n1)])

    sep = SeparableInhomogeneity(spatial, factors)
    t_sep = sep.table(7, h, c)

    def samples(table, n0, n1):
        return table.block(n0, n1) @ table.spatial

    assert t_sep.block(0, 7).shape == (7, 2, 2)
    assert samples(t_sep, 0, 7).shape == (7, 2, 5)
    assert np.max(np.abs(samples(t_sep, 0, 7) - pointwise(sep, 0, 7))) < 1e-12
    assert np.max(np.abs(samples(t_sep, 2, 5) - pointwise(sep, 2, 5))) < 1e-12
    assert np.max(np.abs(samples(t_sep, 4, 5)[0] - pointwise(sep, 4, 5)[0])) < 1e-12
    ref = np.sin(0.37) * spatial[0] + np.cos(0.37) * spatial[1]
    assert np.max(np.abs(sample(sep, 0.37) - ref)) < 1e-12
    # constant data is the rank-1 separable case with a unit time factor
    const = ConstantInhomogeneity(spatial[0])
    t_const = const.table(7, h, c)
    assert np.array_equal(samples(t_const, 0, 7), pointwise(const, 0, 7))
    assert np.array_equal(samples(t_const, 2, 5), pointwise(const, 2, 5))
    assert np.array_equal(sample(const, 0.37), spatial[0])


@pytest.mark.parametrize("backend", ["dense", "spectral", "tbc"])
def test_batched_solve_equals_per_node_solves(backend, rng):
    if backend == "dense":
        fam = dense_operator(np.eye(5) + 0.1 * rng.standard_normal((5, 5)),
                             rng.standard_normal((5, 5)))
    elif backend == "spectral":
        fam = periodic_compact_fd_3d(4)
    else:
        fam = schrodinger_tbc_1d(2.0, 41, 0.75)
    nus = np.array([1.1 + 0.7j, 0.3 - 2.0j, 4.0 + 0.1j, 2.5j])
    ys = rng.standard_normal((4, fam.dim)) + 1j * rng.standard_normal((4, fam.dim))
    xs = fam.solve(nus, ys)
    assert xs.shape == ys.shape
    for k in range(4):
        assert np.array_equal(xs[k], fam.solve(nus[k], ys[k]))
    cols = rng.standard_normal((4, fam.dim, 3)) + 0j
    xcols = fam.solve(nus, cols)
    assert xcols.shape == cols.shape
    for k in range(4):
        assert np.array_equal(xcols[k], fam.solve(nus[k], cols[k]))


def _family(backend, rng):
    if backend == "dense":
        return dense_operator(np.eye(5) + 0.1 * rng.standard_normal((5, 5)),
                              rng.standard_normal((5, 5)))
    if backend.startswith("spectral"):
        return periodic_compact_fd_3d(int(backend.split("-")[1]))
    return schrodinger_tbc_1d(2.0, 41, 0.75)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("backend", ["dense", "spectral-8", "spectral-10", "tbc"])
def test_weighted_solve_equals_the_sum_of_node_solves(backend, m, rng):
    """solve(nus, y, weights=W) is sum_k solve(nus[k], y @ W[k]) for complex
    weights; the spectral sum in Fourier space also on an odd grid."""
    fam = _family(backend, rng)
    nus = np.array([1.1 + 0.7j, 0.3 - 2.0j, 4.0 + 0.1j, 2.5j, -0.5 + 3.0j])
    y = rng.standard_normal((fam.dim, m)) + 1j * rng.standard_normal((fam.dim, m))
    w = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
    got = fam.solve(nus, y, weights=w)
    ref = sum(fam.solve(nu, y @ wk) for nu, wk in zip(nus, w))
    assert got.shape == (fam.dim,)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if backend == "tbc":  # a batch longer than one chunk against its node solves
        nus = np.resize(nus, _TBC_CHUNK + 5) * rng.uniform(1.0, 2.0, _TBC_CHUNK + 5)
        w = rng.standard_normal((len(nus), m)) + 1j * rng.standard_normal((len(nus), m))
        ref = fam.solve(nus, w @ y.T).sum(axis=0)  # node k's system bit for bit (batched test)
        assert np.max(np.abs(fam.solve(nus, y, weights=w) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("backend", ["dense", "spectral-8", "spectral-5", "tbc"])
def test_apply_and_solve_describe_one_operator(backend, rng):
    """solve(nu, nu * apply_mass(Y) - apply_op(Y)) returns the (dim, m)
    block Y at three frequencies, one at a time and as a batch. The TBC
    block vanishes at both ends, where the closed boundary rows and the
    zero-ghost stencils agree. A block applies as its columns do."""
    fam = _family(backend, rng)
    nus = np.array([1.1 + 0.7j, 0.3 - 2.0j, 4.0 + 0.1j])
    ys = rng.standard_normal((3, fam.dim, 4)) + 1j * rng.standard_normal((3, fam.dim, 4))
    if backend == "tbc":
        ys[:, [0, -1]] = 0.0
    rhs = np.stack([nu * fam.apply_mass(y) - fam.apply_op(y) for nu, y in zip(nus, ys)])
    for apply in (fam.apply_mass, fam.apply_op):
        block = apply(ys[0])
        assert block.shape == ys[0].shape
        cols = np.stack([apply(ys[0][:, j]) for j in range(4)], axis=1)
        assert np.max(np.abs(block - cols)) <= 1e-14 * np.max(np.abs(cols))
    batched = fam.solve(nus, rhs)
    for k, nu in enumerate(nus):
        scale = np.max(np.abs(ys[k]))
        assert np.max(np.abs(fam.solve(nu, rhs[k]) - ys[k])) <= 1e-10 * scale
        assert np.max(np.abs(batched[k] - ys[k])) <= 1e-10 * scale


@pytest.mark.parametrize("build", [
    pytest.param(lambda: periodic_compact_fd_3d(8.5), id="spectral-8.5"),
    pytest.param(lambda: periodic_compact_fd_3d(8.0), id="spectral-8.0"),
    pytest.param(lambda: periodic_compact_fd_3d(np.nan), id="spectral-nan"),
    pytest.param(lambda: schrodinger_tbc_1d(2.0, 101.7, 0.75), id="tbc-101.7"),
    pytest.param(lambda: schrodinger_tbc_1d(2.0, np.nan, 0.75), id="tbc-nan"),
    pytest.param(lambda: schrodinger_tbc_1d(1e-200, 101, 0.75), id="tbc-eta-underflow"),
    pytest.param(lambda: schrodinger_tbc_1d(1e200, 101, 0.75), id="tbc-eta-overflow"),
    pytest.param(lambda: dense_operator(None, 1.0), id="dense-scalar"),
    # beyond the index range: fftfreq and linspace raised ValueError
    pytest.param(lambda: periodic_compact_fd_3d(2**21), id="spectral-n3-beyond-index"),
    pytest.param(lambda: schrodinger_tbc_1d(2.0, 2**63, 0.75), id="tbc-beyond-index"),
])
def test_operator_constructors_refuse_with_config_error(build):
    """Grid sizes must be integers: 8.5 and 101.7 built 8 and 101 points,
    and nan raised a bare ValueError. A grid spacing whose square leaves the
    float range raised ZeroDivisionError or OverflowError at the first
    solve, and a scalar A an IndexError."""
    with pytest.raises(ConfigError):
        build()


def test_numpy_integer_grid_sizes_are_kept():
    assert periodic_compact_fd_3d(np.int64(4)).n == 4
    assert schrodinger_tbc_1d(2.0, np.int32(41), 0.75).n == 41


@pytest.mark.parametrize("backend", ["dense", "spectral-4", "tbc"])
@pytest.mark.parametrize("nu", [np.nan, np.inf, complex(1.0, np.nan)])
def test_non_finite_solutions_raise_solver_error(backend, nu, rng):
    """A non-finite frequency returned NaN from every backend."""
    fam = _family(backend, rng)
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        fam.solve(nu, np.ones(fam.dim))
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        fam.solve(np.array([1.0 + 1.0j, nu]), np.ones((2, fam.dim)))
    if backend == "tbc":  # an overflowing recurrence, with RuntimeWarning an error under pytest
        with pytest.raises(SolverError):
            fam.solve(1e-6 + 1e-6j, np.full(fam.dim, 1e307))


# Hypothesis draws: finite, non-finite, non-integer, zero and negative
# values, each mixed with a valid range so that many draws solve, on grids
# of at most 7^3 or 40 points.
_REALS = st.floats()
_NUS = st.builds(complex, st.floats(), st.floats())
_MATRICES = st.integers(1, 3).flatmap(
    lambda k: st.lists(_REALS, min_size=k * k, max_size=k * k).map(
        lambda v: np.reshape(v, (k, k))))


def _solves_or_raises_typed(build, nu):
    """build() and solve at nu: the answer is finite and shaped like the
    data, or a FracCQError; any other exception fails the test."""
    try:
        with np.errstate(all="ignore"):
            fam = build()
            y = np.linspace(1.0, 2.0, fam.dim) + 0.5j
            x = fam.solve(nu, y)
    except FracCQError:
        return
    assert x.shape == y.shape and np.all(np.isfinite(x))


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(-2, 7), st.integers(-2, 7).map(np.int64), _REALS), nu=_NUS)
def test_spectral_builds_and_solves_or_raises_typed(n, nu):
    _solves_or_raises_typed(lambda: periodic_compact_fd_3d(n), nu)


@settings(max_examples=60, deadline=None)
@given(a_half=st.one_of(st.floats(0.5, 4.0), _REALS), n=st.one_of(st.integers(-2, 40), _REALS),
       alpha=st.one_of(st.floats(0.05, 0.95), _REALS), nu=_NUS)
def test_tbc_builds_and_solves_or_raises_typed(a_half, n, alpha, nu):
    _solves_or_raises_typed(lambda: schrodinger_tbc_1d(a_half, n, alpha), nu)


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(_MATRICES, _REALS), m=st.one_of(st.none(), _MATRICES), nu=_NUS)
def test_dense_builds_and_solves_or_raises_typed(a, m, nu):
    _solves_or_raises_typed(lambda: dense_operator(m, a), nu)
