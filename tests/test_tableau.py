import numpy as np
import pytest

from fraccq import radau_iia, stability, delta, check_assumptions
from fraccq.errors import ConfigError, PoleError
from fraccq.tableau import Tableau, by_name


def test_radau1_is_backward_euler():
    t = radau_iia(1)
    assert t.A.ravel() == pytest.approx([1.0])
    assert t.b == pytest.approx([1.0])
    assert t.c == pytest.approx([1.0])
    assert (t.p, t.p_stage) == (1, 1)


def test_radau3_entries_and_order_conditions():
    t = radau_iia(2)
    assert t.A.ravel() == pytest.approx([5 / 12, -1 / 12, 3 / 4, 1 / 4])
    assert t.b == pytest.approx([3 / 4, 1 / 4])
    assert t.c == pytest.approx([1 / 3, 1.0])
    # order conditions checked by direct arithmetic
    assert t.b @ np.ones(2) == pytest.approx(1.0, abs=1e-14)
    assert t.b @ t.c == pytest.approx(1 / 2, abs=1e-14)
    assert t.b @ t.c**2 == pytest.approx(1 / 3, abs=1e-14)
    assert t.b @ (t.A @ t.c) == pytest.approx(1 / 6, abs=1e-14)


def test_radau5_nodes_and_fifth_order_conditions():
    t = radau_iia(3)
    r6 = np.sqrt(6.0)
    assert t.c == pytest.approx([(4 - r6) / 10, (4 + r6) / 10, 1.0])
    # quadrature conditions B(k) for k = 1..5
    for k in range(1, 6):
        assert t.b @ t.c ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
    # stage-order conditions C(k) for k = 1..3
    for k in range(1, 4):
        lhs = t.A @ t.c ** (k - 1)
        assert lhs == pytest.approx(t.c**k / k, abs=1e-13)
    # D(k) conditions for k = 1..2
    for k in range(1, 3):
        lhs = (t.b * t.c ** (k - 1)) @ t.A
        rhs = t.b * (1.0 - t.c**k) / k
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_unsupported_stage_count():
    with pytest.raises(ConfigError):
        radau_iia(4)
    with pytest.raises(ConfigError):
        by_name("radau7")


def test_row_sums_match_nodes():
    for s in (1, 2, 3):
        t = radau_iia(s)
        assert np.max(np.abs(t.A.sum(axis=1) - t.c)) < 1e-14


def test_weights_equal_last_row_exactly():
    for s in (1, 2, 3):
        t = radau_iia(s)
        assert np.array_equal(t.b, t.A[-1])


def test_stability_at_zero():
    for s in (1, 2, 3):
        t = radau_iia(s)
        r, q = stability(0.0, t)
        assert r == pytest.approx(1.0, abs=1e-14)
        assert q == pytest.approx(t.b, abs=1e-14)


def test_backward_euler_stability_value():
    r, _ = stability(-1.0, radau_iia(1))
    assert r == pytest.approx(0.5, abs=1e-14)


def test_l_stability_limit_radau5():
    r, _ = stability(-1e6, radau_iia(3))
    assert abs(r) <= 1e-4


def test_stability_two_forms_agree():
    rng = np.random.default_rng(7)
    for s in (1, 2, 3):
        t = radau_iia(s)
        for _ in range(30):
            z = 5.0 * (rng.standard_normal() + 1j * rng.standard_normal())
            r, q = stability(z, t)
            r_alt = 1.0 + z * (q @ np.ones(s))
            assert abs(r - r_alt) <= 1e-12 * max(1.0, abs(r))


def test_stability_pole_error():
    # z = 1/a for the 1-stage scheme makes Id - z*A singular
    with pytest.raises(PoleError):
        stability(1.0, radau_iia(1))


def test_a_stability_left_half_plane():
    rng = np.random.default_rng(11)
    for s in (1, 2, 3):
        t = radau_iia(s)
        for _ in range(100):
            z = -np.abs(rng.standard_normal() * 100) + 1j * rng.standard_normal() * 100
            r, _ = stability(z, t)
            assert abs(r) <= 1.0 + 1e-12


def test_l_stability_decay_rate():
    # |r(z)| <= C/|z| with C fitted once and stable over z <= -1e4
    for s in (1, 2, 3):
        t = radau_iia(s)
        zs = -np.logspace(4, 8, 9)
        scaled = np.array([abs(stability(z, t)[0]) * abs(z) for z in zs])
        c_fit = scaled[0]
        assert np.all(scaled <= 1.5 * c_fit)


def test_delta_at_zero_is_inverse_matrix():
    for s in (1, 2, 3):
        t = radau_iia(s)
        d0 = delta(0.0, t)
        assert np.max(np.abs(d0 @ t.A - np.eye(s))) < 1e-13


def test_delta_scalar_closed_form():
    t = radau_iia(1)
    for zeta in (0.3, -0.5 + 0.2j, 0.9j):
        assert delta(zeta, t)[0, 0] == pytest.approx(1.0 - zeta, abs=1e-14)


def test_delta_2x2_against_adjugate_inverse():
    t = radau_iia(2)
    zeta = 0.1 * np.exp(1j * np.pi / 3)
    inner = t.A + zeta / (1 - zeta) * np.outer(np.ones(2), t.b)
    a, b, c, d = inner[0, 0], inner[0, 1], inner[1, 0], inner[1, 1]
    det = a * d - b * c
    adj = np.array([[d, -b], [-c, a]]) / det
    assert np.max(np.abs(delta(zeta, t) - adj)) < 1e-13


def test_delta_identity_random_unit_disk():
    rng = np.random.default_rng(3)
    t = radau_iia(3)
    for _ in range(50):
        r = np.sqrt(rng.random()) * 0.97
        zeta = r * np.exp(2j * np.pi * rng.random())
        d = delta(zeta, t)
        inner = t.A + zeta / (1 - zeta) * np.outer(np.ones(3), t.b)
        assert np.max(np.abs(d @ inner - np.eye(3))) <= 1e-12


def test_delta_pole_at_one():
    with pytest.raises(PoleError):
        delta(1.0, radau_iia(2))


def test_check_assumptions_radau_pass():
    for s in (1, 2, 3):
        rep = check_assumptions(radau_iia(s))
        assert rep.all_pass
        assert rep.abs_det > 1e-12
        assert np.all(rep.eigenvalues.real > 0)


def test_check_assumptions_singular_matrix_fails_b():
    t = Tableau(2, np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]),
                np.array([0.0, 1.0]), 1, 1)
    rep = check_assumptions(t)
    assert not rep.matrix_invertible
    assert not rep.all_pass


def test_check_assumptions_gauss_fails_a():
    # 2-stage Gauss: weights do not equal the last row
    r3 = np.sqrt(3.0)
    a = np.array([[1 / 4, 1 / 4 - r3 / 6], [1 / 4 + r3 / 6, 1 / 4]])
    t = Tableau(2, a, np.array([1 / 2, 1 / 2]), np.array([1 / 2 - r3 / 6, 1 / 2 + r3 / 6]), 4, 2)
    rep = check_assumptions(t)
    assert not rep.weights_equal_last_row
    assert rep.matrix_invertible  # Gauss matrix itself is invertible


def test_tableau_arrays_immutable():
    t = radau_iia(3)
    with pytest.raises(ValueError):
        t.A[0, 0] = 99.0


@pytest.mark.parametrize("s", [1, 2, 3])
def test_array_delta_and_stability_equal_the_scalar_results(s):
    t = radau_iia(s)
    zetas = 0.9 * np.exp(2j * np.pi * np.arange(7) / 7)
    stack = delta(zetas, t)
    assert stack.shape == (7, s, s)
    for k, zeta in enumerate(zetas):
        assert np.array_equal(stack[k], delta(complex(zeta), t))
    zs = np.array([-3.0 + 2.0j, -0.5j, 1e3 + 4.0j, -40.0])
    r, q = stability(zs, t)
    assert r.shape == (4,) and q.shape == (4, s)
    for k, z in enumerate(zs):
        r1, q1 = stability(complex(z), t)
        assert isinstance(r1, complex) and q1.shape == (s,)
        assert r1 == r[k] and np.array_equal(q1, q[k])


def test_array_delta_pole_at_one():
    with pytest.raises(PoleError):
        delta(np.array([0.5, 1.0, 0.5j]), radau_iia(2))
