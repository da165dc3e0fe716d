"""Stage-space linear algebra for the circle-quadrature block.

The s x s matrices Delta(zeta) of the Runge-Kutta schemes, one per circle
node, are split as one stack by LAPACK (numpy.linalg.eig and inv) into
U diag(d) U^-1, with every split checked for eigenvalue gaps and
reconstruction residual. The module keeps no state: a problem's stage
plan (fastcq.StagePlan) is what holds a split for later solves.
Also here: principal-branch fractional powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, DecompositionError, DomainError

_GAP_REL = 1e-8
_RECON_REL = 1e-10


@dataclass(frozen=True)
class EigDecomp:
    """Right eigendecomposition M = U diag(d) U_inv of a small matrix."""

    U: np.ndarray
    d: np.ndarray
    U_inv: np.ndarray


def eig_small(mtx):
    """Eigendecomposition of a square complex matrix or a stack (..., s, s).

    LAPACK splits each matrix on its own, so a stacked split equals the
    per-matrix splits bit for bit. Each split must have an eigenvalue gap
    above 1e-8 and a reconstruction residual below 1e-10, relative in max
    norm; otherwise a DecompositionError names the failing flat indices
    (exc.indices), for the caller to perturb those circle nodes and retry.
    """
    m = np.asarray(mtx, dtype=complex)
    s = m.shape[-1] if m.ndim >= 2 else 0
    if s < 1 or m.shape[-2] != s:
        raise DomainError(f"eig_small expects square matrices, got shape {m.shape}")
    try:
        d, u = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}",
                                 indices=np.arange(m[..., 0, 0].size)) from exc
    mag = np.max(np.abs(m), axis=(-2, -1))
    scale = np.maximum(np.maximum(np.max(np.abs(d), axis=-1), mag), 1e-300)
    rows, cols = np.triu_indices(s, 1)
    gap = np.min(np.abs(d[..., rows] - d[..., cols]), axis=-1, initial=np.inf)
    bad = gap < _GAP_REL * scale
    bad |= np.linalg.det(u) == 0.0
    u_inv = np.linalg.inv(np.where(bad[..., None, None], np.eye(s), u))
    resid = np.max(np.abs((u * d[..., None, :]) @ u_inv - m), axis=(-2, -1))
    bad |= ~(resid <= _RECON_REL * np.maximum(mag, 1e-300))
    if np.any(bad):
        raise DecompositionError(
            f"near-defective matrix at stack indices {np.flatnonzero(bad).tolist()} "
            f"(eigenvalue gap below {_GAP_REL:g} or reconstruction residual above "
            f"{_RECON_REL:g}, relative); perturb those quadrature nodes and retry",
            indices=np.flatnonzero(bad),
        )
    return EigDecomp(U=u, d=d, U_inv=u_inv)


def power_alpha(d, alpha):
    """Principal-branch fractional power d_i^alpha, arg in (-pi, pi).

    alpha = 1 is admitted as the exact classical limit. An entry on the
    cut raises BranchCutError naming its leading-axis indices (exc.indices).
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    arr = np.atleast_1d(np.asarray(d, dtype=complex))
    on_cut = (arr.imag == 0.0) & (arr.real <= 0.0)
    if np.any(on_cut):
        raise BranchCutError(
            f"entry {arr[on_cut][0]} lies on the closed negative real axis",
            indices=np.flatnonzero(on_cut.reshape(len(arr), -1).any(axis=1)),
        )
    if alpha == 1.0:
        out = arr.copy()
    else:
        out = np.exp(alpha * np.log(arr))
    return out if np.ndim(d) else out[0]

