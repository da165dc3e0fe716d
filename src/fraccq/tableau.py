"""Radau IIA tableaux, stability data and structural checks.

The convolution quadrature machinery needs stiffly accurate, L-stable
schemes whose Runge-Kutta matrix is invertible with spectrum in the open
right half-plane. The three Radau IIA members shipped here satisfy all of
that; check_assumptions re-verifies it for any user-supplied tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, PoleError, SolverError

_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class Tableau:
    """Butcher data of an s-stage implicit Runge-Kutta scheme.

    A is the s x s Runge-Kutta matrix, b the weight row, c the nodes,
    p the classical order and p_stage the stage order. The arrays are
    read-only, so the structural checks are computed once per tableau
    (assumptions).
    """

    s: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int
    p_stage: int
    name: str = ""

    def __post_init__(self):
        for arr in (self.A, self.b, self.c):
            arr.setflags(write=False)

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.array_equal(self.b, self.A[-1]))

    @cached_property
    def assumptions(self) -> AssumptionReport:
        """check_assumptions of this tableau, computed on first use."""
        return check_assumptions(self)


def _radau1():
    a = np.array([[1.0]])
    return Tableau(1, a, a[-1].copy(), np.array([1.0]), 1, 1, "radau1")


def _radau3():
    a = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
    c = np.array([1.0 / 3.0, 1.0])
    return Tableau(2, a, a[-1].copy(), c, 3, 2, "radau3")


def _radau5():
    r6 = np.sqrt(6.0)
    a = np.array(
        [
            [(88 - 7 * r6) / 360, (296 - 169 * r6) / 1800, (-2 + 3 * r6) / 225],
            [(296 + 169 * r6) / 1800, (88 + 7 * r6) / 360, (-2 - 3 * r6) / 225],
            [(16 - r6) / 36, (16 + r6) / 36, 1.0 / 9.0],
        ]
    )
    c = np.array([(4 - r6) / 10, (4 + r6) / 10, 1.0])
    return Tableau(3, a, a[-1].copy(), c, 5, 3, "radau5")


def radau_iia(s: int) -> Tableau:
    """The s-stage Radau IIA tableau, s in {1, 2, 3}.

    Order 2s-1, stage order s; s=1 is the backward Euler scheme.
    """
    if s == 1:
        return _radau1()
    if s == 2:
        return _radau3()
    if s == 3:
        return _radau5()
    raise ConfigError(f"Radau IIA is shipped for s in {{1, 2, 3}}, got s={s}")


def by_name(name: str) -> Tableau:
    """Tableau lookup for the CLI method names radau1/radau3/radau5."""
    table = {"radau1": 1, "radau3": 2, "radau5": 3}
    if name not in table:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(table)}")
    return radau_iia(table[name])


def stability(z, t: Tableau):
    """Stability function r(z) and the row vector q(z) = b^T (Id - z A)^-1.

    For an array z, r has z's shape and q one more axis of length s. r is
    e_s^T (Id - z A)^-1 1, which stays accurate as |z| grows; a tableau
    that is not stiffly accurate raises ConfigError, as CQConfig does.
    """
    if not t.stiffly_accurate:
        raise ConfigError("stability needs a stiffly accurate tableau (b = last row of A)")
    z = np.asarray(z, dtype=complex)
    try:
        m_inv = np.linalg.inv(np.eye(t.s) - z[..., None, None] * t.A)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"Id - z*A singular at z={z}", where=z) from exc
    q = t.b @ m_inv
    r = m_inv[..., -1, :].sum(axis=-1)
    return (complex(r), q) if z.ndim == 0 else (r, q)


def delta(zeta, t: Tableau) -> np.ndarray:
    """Generating-function matrix Delta(zeta) = (A + zeta/(1-zeta) 1 b^T)^-1,
    stacked along zeta's shape when zeta is an array."""
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(zeta == 1):
        raise PoleError("Delta has a pole at zeta = 1", where=1.0)
    inner = t.A + (zeta / (1.0 - zeta))[..., None, None] * np.outer(np.ones(t.s), t.b)
    try:
        return np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Delta(zeta) inner matrix singular at zeta={zeta}") from exc


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail record of the structural assumptions on a tableau."""

    weights_equal_last_row: bool
    matrix_invertible: bool
    spectrum_in_right_half_plane: bool
    abs_det: float
    eigenvalues: np.ndarray

    @property
    def all_pass(self) -> bool:
        return (
            self.weights_equal_last_row
            and self.matrix_invertible
            and self.spectrum_in_right_half_plane
        )


def check_assumptions(t: Tableau) -> AssumptionReport:
    """Verify (a) b = last row of A, (b) A invertible, (c) Re(eig A) > 0."""
    weights_ok = t.stiffly_accurate
    abs_det = abs(np.linalg.det(t.A))
    eigs = np.linalg.eigvals(t.A)
    eigs.setflags(write=False)
    return AssumptionReport(
        weights_equal_last_row=weights_ok,
        matrix_invertible=abs_det > _DET_FLOOR,
        spectrum_in_right_half_plane=bool(np.all(eigs.real > 0)),
        abs_det=float(abs_det),
        eigenvalues=eigs,
    )
