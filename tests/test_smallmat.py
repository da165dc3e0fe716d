import numpy as np
import pytest

from fraccq import radau_iia
from fraccq.errors import BranchCutError, DecompositionError, DomainError
from fraccq.smallmat import eig_small, power_alpha
from fraccq.tableau import delta


def test_eig_diagonal_matrix():
    dec = eig_small(np.diag([2.0, 3.0j]))
    assert sorted(dec.d, key=lambda z: (z.real, z.imag)) == pytest.approx([3.0j, 2.0])
    recon = (dec.U * dec.d) @ dec.U_inv
    assert np.max(np.abs(recon - np.diag([2.0, 3.0j]))) < 1e-12


def test_eig_rotation_generator():
    dec = eig_small(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(dec.d, key=lambda z: z.imag) == pytest.approx([-1j, 1j])


def test_eig_delta_reconstruction():
    b = delta(0.01, radau_iia(2)) / 0.1
    dec = eig_small(b)
    recon = (dec.U * dec.d) @ dec.U_inv
    assert np.max(np.abs(recon - b)) <= 1e-10 * np.max(np.abs(b))


def test_eig_3x3_random_reconstruction():
    # the stage sizes s = 1..3 and one size beyond them
    rng = np.random.default_rng(5)
    for s in (1, 2, 3, 4):
        for _ in range(25):
            m = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            dec = eig_small(m)
            recon = (dec.U * dec.d) @ dec.U_inv
            assert np.max(np.abs(recon - m)) <= 1e-10 * np.max(np.abs(m))


def test_eig_defective_raises():
    with pytest.raises(DecompositionError):
        eig_small(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_refuses_non_square_stacks():
    for shape in ((2, 3), (4, 3, 2), (3,), (2, 0, 0)):
        with pytest.raises(DomainError, match="square"):
            eig_small(np.ones(shape))


def test_power_alpha_values():
    assert power_alpha(np.array([1.0 + 0j]), 0.5) == pytest.approx([1.0])
    assert power_alpha(np.array([4.0 + 0j]), 0.5) == pytest.approx([2.0])
    assert power_alpha(np.array([1j]), 0.5) == pytest.approx([np.exp(1j * np.pi / 4)])


def test_power_alpha_classical_limit_identity():
    d = np.array([2.0 + 1.0j, 0.5 - 3.0j])
    assert np.array_equal(power_alpha(d, 1.0), d)


def test_power_alpha_branch_cut():
    with pytest.raises(BranchCutError):
        power_alpha(np.array([-1.0 + 0j]), 0.5)
    with pytest.raises(BranchCutError):
        power_alpha(np.array([0.0 + 0j]), 0.5)


def test_power_alpha_domain():
    with pytest.raises(DomainError):
        power_alpha(np.array([1.0 + 0j]), 1.5)


def test_matrix_power_against_contour_oracle():
    """U d^alpha U^-1 must agree with the contour-integral matrix power."""
    rng = np.random.default_rng(99)
    alpha = 0.6
    done = 0
    while done < 20:
        # well-conditioned 2x2 with spectrum in the right half-plane
        d = rng.uniform(1.0, 3.0, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        if abs(d[0] - d[1]) < 0.3:
            d[1] += 0.5
        center = d.mean()
        radius = 1.4 * max(abs(d[0] - center), abs(d[1] - center)) + 0.4
        if center.real - radius < 0.05:
            continue  # circle would cross the branch cut; redraw
        v = rng.standard_normal((2, 2)) + 0.2j * rng.standard_normal((2, 2))
        while abs(np.linalg.det(v)) < 0.3:
            v = rng.standard_normal((2, 2)) + 0.2j * rng.standard_normal((2, 2))
        m = v @ np.diag(d) @ np.linalg.inv(v)
        dec = eig_small(m)
        via_eig = (dec.U * power_alpha(dec.d, alpha)) @ dec.U_inv
        # trapezoidal contour integral of z^alpha (z Id - M)^-1 / (2 pi i)
        nodes = center + radius * np.exp(2j * np.pi * np.arange(512) / 512)
        acc = np.zeros((2, 2), dtype=complex)
        for z in nodes:
            acc += z**alpha * np.linalg.inv(z * np.eye(2) - m) * (z - center)
        oracle = acc / 512
        assert np.max(np.abs(via_eig - oracle)) <= 1e-8
        done += 1


def test_eig_condition_flag():
    good = eig_small(np.array([[2.0, 0.3], [0.1, -1.0]]))
    assert good.d.shape == (2,)
    # nearly parallel eigenvectors, but eigenvalue gap still above the
    # defectiveness threshold: decomposes
    skewed = eig_small(np.array([[1.0, 8e7], [0.0, 2.0]]))
    assert np.sort(skewed.d.real) == pytest.approx([1.0, 2.0])


def test_stacked_eig_equals_per_matrix_splits_bitwise():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((37, 3, 3)) + 1j * rng.standard_normal((37, 3, 3))
    dec = eig_small(stack)
    assert dec.U.shape == (37, 3, 3) and dec.d.shape == (37, 3)
    for k, m in enumerate(stack):
        one = eig_small(m)
        assert np.array_equal(one.U, dec.U[k])
        assert np.array_equal(one.d, dec.d[k])
        assert np.array_equal(one.U_inv, dec.U_inv[k])


def test_stacked_eig_names_exactly_the_defective_index():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    stack[4] = [[1.0, 1.0], [0.0, 1.0]]  # a Jordan block
    with pytest.raises(DecompositionError) as info:
        eig_small(stack)
    assert info.value.indices.tolist() == [4]
    assert "[4]" in str(info.value)


def test_power_alpha_names_the_rows_on_the_cut():
    d = np.array([[1.0 + 1j, 2.0], [3.0, -1.0], [1j, 0.0]])
    with pytest.raises(BranchCutError) as info:
        power_alpha(d, 0.5)
    assert info.value.indices.tolist() == [1, 2]


def test_failed_split_is_not_kept(eig_calls):
    """A stack that fails its checks is split, and fails, on every call."""
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    for calls in (1, 2):
        with pytest.raises(DecompositionError):
            eig_small(jordan)
        assert len(eig_calls) == calls
