"""Radau IIA tableaux and the tableau algebra of the convolution quadrature.

The convolution quadrature machinery needs stiffly accurate, L-stable
schemes (b^T = e_s^T A) whose Runge-Kutta matrix is invertible with
spectrum in the open right half-plane (Lubich & Ostermann, Math. Comp.
60, 1993). A Tableau is admissible by construction: Tableau refuses any
other with ConfigError, so stability, delta and the solvers take every
Tableau as it is. The three Radau IIA members shipped here qualify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PoleError

_DET_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Tableau:
    """Butcher data of an s-stage implicit Runge-Kutta scheme.

    A is the s x s Runge-Kutta matrix, b the weight row, c the nodes,
    p the classical order and p_stage the stage order. The tableau keeps
    read-only float copies of A, b and c and the read-only eigenvalues of
    A. Construction raises ConfigError for s not a positive integer, A not
    (s, s), b or c not (s,), a non-finite entry, and, naming each failed
    assumption, for b not the last row of A (not stiffly accurate),
    |det A| <= 1e-12 or an eigenvalue of A off the open right half-plane.
    Tableaux compare and hash by value: s, p, p_stage, name and the bytes
    of A, b and c.
    """

    s: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int
    p_stage: int
    name: str = ""
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.s
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 1:
            raise ConfigError(f"need a positive integer stage count s, got s={s!r}")
        object.__setattr__(self, "s", int(s))  # a narrow numpy integer would wrap around
        for name, shape in (("A", (s, s)), ("b", (s,)), ("c", (s,))):
            given = getattr(self, name)
            try:
                arr = np.array(given)
            except ValueError:  # a ragged nested sequence
                arr = np.array(None)
            if arr.dtype.kind not in "iuf" or arr.shape != shape or not np.all(np.isfinite(arr)):
                raise ConfigError(f"need a real finite {name} of shape {shape} for s={s}, "
                                  f"got {given!r}")
            arr = arr.astype(float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        eigs, abs_det = np.linalg.eigvals(self.A), abs(np.linalg.det(self.A))
        eigs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)
        failed = []
        if not np.array_equal(self.b, self.A[-1]):
            failed.append("not stiffly accurate (b is not the last row of A)")
        if abs_det <= _DET_FLOOR:
            failed.append(f"|det A| = {abs_det:.3g} <= {_DET_FLOOR:g}")
        failed += [f"eigenvalue {e:.6g} of A off the open right half-plane"
                   for e in eigs if not e.real > 0]
        if failed:
            raise ConfigError(f"tableau {self.name!r} is not admissible: " + "; ".join(failed))

    def _key(self):
        return (self.s, self.p, self.p_stage, self.name,
                self.A.tobytes(), self.b.tobytes(), self.c.tobytes())

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def radau_iia(s: int) -> Tableau:
    """The s-stage Radau IIA tableau, s in {1, 2, 3}.

    Order 2s-1, stage order s; s=1 is the backward Euler scheme.
    """
    r6 = np.sqrt(6.0)
    if s == 1:
        a, c = [[1.0]], [1.0]
    elif s == 2:
        a, c = [[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]], [1.0 / 3.0, 1.0]
    elif s == 3:
        a = [[(88 - 7 * r6) / 360, (296 - 169 * r6) / 1800, (-2 + 3 * r6) / 225],
             [(296 + 169 * r6) / 1800, (88 + 7 * r6) / 360, (-2 - 3 * r6) / 225],
             [(16 - r6) / 36, (16 + r6) / 36, 1.0 / 9.0]]
        c = [(4 - r6) / 10, (4 + r6) / 10, 1.0]
    else:
        raise ConfigError(f"Radau IIA is shipped for s in {{1, 2, 3}}, got s={s}")
    return Tableau(s, a, a[-1], c, 2 * s - 1, s, f"radau{2 * s - 1}")


def by_name(name: str) -> Tableau:
    """Tableau lookup for the CLI method names radau1/radau3/radau5."""
    table = {"radau1": 1, "radau3": 2, "radau5": 3}
    if name not in table:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(table)}")
    return radau_iia(table[name])


def stability(z, t: Tableau):
    """Stability function r(z) and the row vector q(z) = b^T (Id - z A)^-1.

    For an array z, r has z's shape and q one more axis of length s. r is
    e_s^T (Id - z A)^-1 1, which stays accurate as |z| grows, since every
    Tableau is stiffly accurate; one LAPACK inverse of Id - z A per node,
    which stays exact when A is defective. Raises PoleError where
    Id - z A is singular.
    """
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
    stacked along zeta's shape when zeta is an array.

    With b^T = e_s^T A, Sherman-Morrison gives the closed form
    A^-1 - zeta (A^-1 1) e_s^T: one inverse of A per call, linear in zeta,
    and finite at the removable point zeta = 1.
    """
    zeta = np.asarray(zeta, dtype=complex)
    a_inv = np.linalg.inv(t.A)
    out = np.broadcast_to(a_inv, zeta.shape + a_inv.shape).astype(complex)
    out[..., :, -1] -= zeta[..., None] * a_inv.sum(axis=1)
    return out
