"""Stage-space linear algebra for the circle-quadrature block.

The s x s matrices Delta(zeta)/h of the Runge-Kutta schemes are split by
LAPACK (numpy.linalg.eig and inv) into U diag(d) U^-1, with the splits
checked for eigenvalue gaps and reconstruction residual.
Also here: principal-branch fractional powers and the DFT helper of the
first-weights block.
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
    """Eigendecomposition of a square complex matrix.

    Returns an EigDecomp whose reconstruction residual is verified to be
    below 1e-10 relative in max norm. Raises DecompositionError for
    (near-)defective input; callers holding a circle-quadrature node are
    expected to perturb it radially and retry.
    """
    m = np.asarray(mtx, dtype=complex)
    s = m.shape[0]
    if m.shape != (s, s):
        raise DomainError(f"eig_small expects a square matrix, got shape {m.shape}")
    try:
        d, u = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}") from exc
    scale = max(float(np.max(np.abs(d))), float(np.max(np.abs(m))), 1e-300)
    gaps = np.abs(d[:, None] - d[None, :])[np.triu_indices(s, 1)]
    if gaps.size and gaps.min() < _GAP_REL * scale:
        raise DecompositionError(
            f"eigenvalue gap {gaps.min():.3e} below {_GAP_REL:g} * {scale:.3e}; "
            "near-defective matrix, perturb the quadrature node and retry"
        )
    try:
        u_inv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvector matrix singular: {exc}") from exc
    resid = float(np.max(np.abs((u * d) @ u_inv - m)))
    bound = _RECON_REL * max(float(np.max(np.abs(m))), 1e-300)
    if resid > bound:
        raise DecompositionError(
            f"reconstruction residual {resid:.3e} exceeds {bound:.3e}; "
            "perturb the quadrature node and retry"
        )
    return EigDecomp(U=u, d=d, U_inv=u_inv)


def power_alpha(d, alpha):
    """Principal-branch fractional power d_i^alpha, arg in (-pi, pi).

    alpha = 1 is admitted as the exact classical limit.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    arr = np.atleast_1d(np.asarray(d, dtype=complex))
    on_cut = (arr.imag == 0.0) & (arr.real <= 0.0)
    if np.any(on_cut):
        bad = arr[on_cut][0]
        raise BranchCutError(f"entry {bad} lies on the closed negative real axis")
    if alpha == 1.0:
        out = arr.copy()
    else:
        out = np.exp(alpha * np.log(arr))
    return out if np.ndim(d) else out[0]


def dft(x, sign, axis=0):
    """Discrete Fourier transform X_j = sum_n x_n exp(sign*2*pi*i*n*j/J).

    sign=-1 is the analysis direction used by the first-weights block.
    Backed by the FFT, which handles arbitrary lengths.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    x = np.asarray(x, dtype=complex)
    if x.shape[axis] < 1:
        raise DomainError("dft needs at least one sample")
    if sign == -1:
        return np.fft.fft(x, axis=axis)
    return np.fft.ifft(x, axis=axis) * x.shape[axis]
