import re

import numpy as np
import pytest

from fraccq import radau_iia, stability, delta
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
    """The pole of (A + zeta/(1-zeta) 1 b^T)^-1 at zeta = 1 is removable:
    the closed form gives the finite A^-1 (Id - 1 e_s^T) there."""
    for s in (1, 2, 3):
        t = radau_iia(s)
        expected = np.linalg.inv(t.A) @ (np.eye(s) - np.outer(np.ones(s), np.eye(s)[-1]))
        assert np.max(np.abs(delta(1.0, t) - expected)) <= 1e-13


def test_tableau_assumptions_radau_pass():
    for s in (1, 2, 3):
        t = radau_iia(s)
        assert abs(np.linalg.det(t.A)) > 1e-12
        assert np.all(t.eigenvalues.real > 0)
        assert not t.eigenvalues.flags.writeable


def test_tableau_assumptions_singular_matrix_fails_b():
    with pytest.raises(ConfigError, match=r"\|det A\| = 0 <= 1e-12") as exc:
        Tableau(2, np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]),
                np.array([0.0, 1.0]), 1, 1)
    assert "right half-plane" in str(exc.value)  # its eigenvalue 0 fails as well
    assert "stiffly accurate" not in str(exc.value)


def _gauss2():
    """The 2-stage Gauss tableau: its weights differ from the last row of
    its (invertible, right-half-plane) matrix."""
    r3 = np.sqrt(3.0)
    a = np.array([[1 / 4, 1 / 4 - r3 / 6], [1 / 4 + r3 / 6, 1 / 4]])
    return Tableau(2, a, np.array([1 / 2, 1 / 2]), np.array([1 / 2 - r3 / 6, 1 / 2 + r3 / 6]),
                   4, 2, "gauss4")


def test_tableau_assumptions_gauss_fails_a():
    with pytest.raises(ConfigError, match="'gauss4' is not admissible: not stiffly accurate") as exc:
        _gauss2()
    assert "det" not in str(exc.value) and "half-plane" not in str(exc.value)


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
    """At the removable pole zeta = 1 the array form equals the scalar form."""
    t = radau_iia(2)
    stack = delta(np.array([0.5, 1.0, 0.5j]), t)
    assert np.array_equal(stack[1], delta(1.0, t))
    assert np.all(np.isfinite(stack))


def test_stability_refuses_a_tableau_that_is_not_stiffly_accurate():
    """stability has one form, e_s^T (Id - z A)^-1 1, which is r(z) only
    when b is the last row of A: the 2-stage Gauss tableau is refused when
    it is built, so no Tableau reaches stability without it."""
    with pytest.raises(ConfigError, match="stiffly accurate"):
        _gauss2()


_A3 = np.array([[0.5, 0.0, 0.0], [0.25, 0.5, 0.0], [0.25, 0.25, 0.5]])


@pytest.mark.parametrize("s, a, b, c, named", [
    (2, _A3, _A3[-1], _A3.sum(axis=1), "A of shape (2, 2)"),
    (3, _A3, _A3[-1], np.array([0.5, 1.0]), "c of shape (3,)"),
    (3, _A3, _A3[-1, :2], _A3.sum(axis=1), "b of shape (3,)"),
    (3, np.where(_A3 == 0.5, np.nan, _A3), _A3[-1], _A3.sum(axis=1), "finite A"),
    (3, _A3, np.array([0.25, np.inf, 0.5]), _A3.sum(axis=1), "finite b"),
    (1, np.array([1.0]), np.array([1.0]), np.array([1.0]), "A of shape (1, 1)"),
    (2, [[1.0, 0.0], [1.0]], np.ones(2), np.ones(2), "A of shape (2, 2)"),
    (1, np.array([[1.0 + 1.0j]]), np.array([1.0]), np.array([1.0]), "real finite A"),
    (True, np.array([[1.0]]), np.array([1.0]), np.array([1.0]), "stage count"),
    (0, np.zeros((0, 0)), np.zeros(0), np.zeros(0), "stage count"),
    (2.0, np.eye(2), np.eye(2)[-1], np.ones(2), "stage count"),
])
def test_malformed_tableau_is_refused_at_construction(s, a, b, c, named):
    """Each of these used to reach fast_solve and fail there with an
    untyped broadcast or LinAlgError."""
    with pytest.raises(ConfigError, match=re.escape(named)):
        Tableau(s, a, b, c, 1, 1)


def test_tableau_keeps_read_only_copies():
    a = np.array([[1.0]])
    t = Tableau(np.int8(1), a, a[-1], np.array([1.0]), 1, 1)
    assert type(t.s) is int and a.flags.writeable
    assert not (t.A.flags.writeable or t.b.flags.writeable or t.c.flags.writeable)


def test_tableaux_compare_and_hash_by_value():
    """Two builds of one tableau are equal, hash alike and find each
    other's dict entry; a change of name, order or stage order, of c, or
    of A with its last row b makes another tableau."""
    t = radau_iia(2)
    twin = radau_iia(2)
    assert t == twin and not t != twin and hash(t) == hash(twin)
    assert {t: "kept"}[twin] == "kept"
    a, b, c = np.array(t.A), np.array(t.b), np.array(t.c)
    c_moved = c.copy()
    c_moved[0] = np.nextafter(c[0], 1.0)
    others = [radau_iia(3), radau_iia(1),
              Tableau(2, a, b, c, 3, 2, "other"), Tableau(2, a, b, c, 2, 2, t.name),
              Tableau(2, a, b, c, 3, 1, t.name), Tableau(2, a, b, c_moved, 3, 2, t.name),
              Tableau(2, 2 * a, 2 * b, c, 3, 2, t.name)]
    for other in others:
        assert t != other and not t == other
    assert len({t, twin, *others}) == 1 + len(others)
    assert t != "radau3" and t != None  # noqa: E711


def test_stability_of_a_defective_tableau_matches_its_closed_form(sdirk2):
    """r(z) = (1 + (1-2g) z)/(1 - g z)^2; an eigen-split of the defective A
    (cond(V) near 1e16) would miss it by order one."""
    t = sdirk2
    g = t.A[0, 0]
    rng = np.random.default_rng(5)
    z = np.concatenate([20.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200)),
                        -np.logspace(-3, 6, 20), [0.0, 1j, -1j]])
    r, q = stability(z, t)
    exact = (1.0 + (1.0 - 2.0 * g) * z) / (1.0 - g * z) ** 2
    assert np.max(np.abs(r - exact) / np.abs(exact)) <= 1e-14
    assert np.max(np.abs(1.0 + z * q.sum(axis=1) - exact) / np.maximum(1, np.abs(exact))) <= 1e-13
