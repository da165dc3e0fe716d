"""Runge-Kutta convolution quadrature: direct form and the fast algorithm.

The approximation at t = N h is u_N = h * (e_s x Id) sum_n W_n G_{N-1-n},
with weights W_n generated by the rational symbol Delta(zeta)/h of the
Runge-Kutta scheme applied to the resolvent. Two evaluation routes:

* direct_cq: every weight through trapezoidal quadrature of the circle
  integral of the generating function (oracle grade, O(N) resolvent-type
  solves). Small scale only.
* fast_solve: the first kappa+1 weights through the circle rule, the rest
  through hyperbola contours, one per geometrically growing history
  window. Per window, the weighted history sum collapses into scalar
  linear ODE marches (one per contour node) followed by a single
  resolvent solve per node: O(N) Runge-Kutta steps and
  O(log N * log(1/eps)) linear systems. The data are separable,
  g(t) = sum_r f_r(t) s_r, so the marches run on the r scalar time
  factors.

The result needs only a weighted sum of resolvent solves,
u = sum_k (nu_k M - A)^-1 S^T w_k with S the (r, dim) spatial factors, so
both routes stay in the rank space of the data and hand each sum to one
weighted family.solve: one for the circle nodes, one for the contour
nodes of all levels. The stage-space work runs on arrays of nodes: one
stability call per level, one stacked eigen-split of the circle nodes.
The paper's independent marches and solves are these stacked numpy and
LAPACK calls, and every phase of a solve runs in the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import contour, smallmat, tableau as tableau_mod
from .errors import BranchCutError, ConfigError, DecompositionError, PoleError
from .operators import OperatorFamily, Problem

_EPS = float(np.finfo(float).eps)
_MARCH_BLOCK = 1024
_SPECTRUM_CLEARANCE = 1e-8


@dataclass
class CQConfig:
    """Run parameters of one convolution-quadrature solve.

    K = None (the default) sizes the contours by the family's sector:
    fast_solve takes the smallest K >= 25 at which the contour error model
    (contour.error_model) predicts <= 1e-7 at resolved_theta, which is
    K = 25 for the pi/2 sectors of the dense and spectral backends and
    K = 64 for the pi/6 sector of the transparent-boundary Schroedinger
    family (at K = 25 its fast solve differs from direct_cq by about 3e-4
    relative). An explicit K runs as given; RunStats.K reports the K used.
    direct_cq uses no contour and does not read K.
    """

    tableau: tableau_mod.Tableau
    h: float
    N: int
    K: int | None = None
    Lambda: int = 5
    kappa: int = 20
    J: int = 160
    workers: int = 1  # reaches no phase of a solve; kept only because perfbench sets it

    def __post_init__(self):
        if self.h <= 0.0:
            raise ConfigError(f"step size must be positive, got h={self.h}")
        if self.N < 1:
            raise ConfigError(f"need at least one step, got N={self.N}")
        if self.K is not None and self.K < 2:
            raise ConfigError(f"need K >= 2, got K={self.K}")
        if self.Lambda < 2:
            raise ConfigError(f"need Lambda >= 2, got Lambda={self.Lambda}")
        if self.kappa < 1:
            raise ConfigError(f"need kappa >= 1, got kappa={self.kappa}")
        if self.J < self.kappa + 1:
            raise ConfigError(f"need J >= kappa+1, got J={self.J}, kappa={self.kappa}")
        if self.workers < 1:
            raise ConfigError(f"need workers >= 1, got {self.workers}")
        report = tableau_mod.check_assumptions(self.tableau)
        if not report.all_pass:
            raise ConfigError(
                "tableau violates the structural assumptions (stiffly accurate, "
                f"invertible matrix, right-half-plane spectrum): {report}"
            )

    @staticmethod
    def resolved_theta(family: OperatorFamily) -> float:
        """Contour angle budget, just inside the family's sector angle."""
        return family.theta1_hint * (1.0 - 1e-9)

    def resolved_K(self, family: OperatorFamily) -> int:
        """K as given, or sized by the family's sector when K is None."""
        if self.K is not None:
            return self.K
        return contour.sized_K(self.Lambda, self.resolved_theta(family))


@dataclass(frozen=True)
class LevelPlan:
    """Geometric history decomposition m_0 < m_1 < ... < m_L = N."""

    L: int
    m: tuple

    def window(self, ell: int):
        """Weight-index window [m_{ell-1}, m_ell) of level ell >= 1."""
        return self.m[ell - 1], self.m[ell]


def plan_levels(N: int, kappa: int, Lambda: int) -> LevelPlan:
    """Smallest plan with N <= Lambda^L (kappa+1); L = 0 collapses to the
    direct block handling all N weights."""
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    if N <= kappa + 1:
        return LevelPlan(L=0, m=(N,))
    L = 0
    cap = kappa + 1
    while N > cap:
        cap *= Lambda
        L += 1
    m = tuple((kappa + 1) * Lambda**ell for ell in range(L)) + (N,)
    return LevelPlan(L=L, m=m)


@dataclass
class RunStats:
    """Operation counters, the contour size K used and per-phase
    wall-clock times of one solve."""

    K: int = 0
    rk_steps: int = 0
    resolvent_solves: int = 0
    first_block_solves: int = 0
    wall_times: dict = field(default_factory=dict)


def parallel_map(fn, tasks, workers):
    """fn over tasks, in order; kept only as the span perfbench traces."""
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------------------
# circle-rule machinery (first weights and the direct oracle)


def _circle_decomp(zetas, tab, h, alpha):
    """One stacked eigen-split of Delta(zeta_j)/h over an array of nodes,
    with powered eigenvalues.

    Nodes whose split is defective or has an eigenvalue on the branch cut
    are moved radially by a part in 1e9, once, and the stack is split
    again; LAPACK splits each matrix on its own, so the others keep their bits.
    """
    zetas = np.array(zetas, dtype=complex)
    for retry in (True, False):
        try:
            dec = smallmat.eig_small(tableau_mod.delta(zetas, tab) / h)
            return dec, smallmat.power_alpha(dec.d, alpha)
        except (DecompositionError, BranchCutError) as exc:
            if not retry:
                raise
            zetas[exc.indices] *= 1.0 + 1e-9


def _circle_weights(tab, h, alpha, rho, data):
    """Frequencies and rank-space weights of the circle rule over the
    J = len(data) circle nodes, for data of shape (J, s, rank).

    With U_j diag(nu_j^(1/alpha)) U_j^-1 = Delta(zeta_j)/h, the circle sum
    sum_j [U_j (nu_j M - A)^-1 U_j^-1 data_j S]_last equals
    sum_(j,i) (nu_ji M - A)^-1 S^T w_ji with w_ji = U_j[-1, i] (U_j^-1 data_j)[i],
    one weighted family.solve. Returns nu (J*s,) and w (J*s, rank), in
    (node, stage) order. All J nodes make one stacked split: a few LAPACK
    calls over the stack.
    """
    J, s, rank = data.shape
    zetas = rho * np.exp(2j * np.pi * np.arange(J) / J)

    def node_weights(nodes):
        dec, nus = _circle_decomp(nodes, tab, h, alpha)
        return nus.ravel(), (dec.U[:, -1, :, None] * (dec.U_inv @ data)).reshape(J * s, rank)

    [(nus, weights)] = parallel_map(node_weights, [zetas], 1)
    return nus, weights


def first_block(problem: Problem, config: CQConfig, plan: LevelPlan, table=None):
    """Contribution of the first m_0 weights via the circle rule.

    Takes one DFT of the rho-scaled sequence of time factors and sums the
    s decoupled systems of every circle node in one weighted solve
    (_circle_weights). Returns the length-dim vector, real when the
    operator and the data are, and the system count s*J.
    """
    tab = config.tableau
    fam = problem.family
    if table is None:
        table = problem.g.table(config.N, config.h, tab.c)
    terms = plan.m[0]
    J = config.J
    rho = _EPS ** (1.0 / (2 * J))  # rho^J = sqrt(machine eps)

    blk = table.block(config.N - terms, config.N)  # factors of G_{N-terms}..G_{N-1}
    seq = np.zeros((J, tab.s, table.rank), dtype=complex)
    seq[:terms] = blk[::-1] * (rho ** -np.arange(terms))[:, None, None] / J
    hat = np.fft.fft(seq, axis=0)  # hat_j = sum_n seq_n exp(-2 pi i n j / J)
    nus, weights = _circle_weights(tab, config.h, problem.alpha, rho, hat)
    u0 = fam.solve(nus, table.spatial.T, weights=weights)
    if fam.is_real and table.is_real:
        u0 = u0.real.copy()
    return u0, tab.s * J


def direct_cq(problem: Problem, config: CQConfig, return_trajectory: bool = False):
    """Oracle evaluation of the convolution quadrature at t = N h.

    Every weight is taken from the trapezoidal circle rule at oracle-grade
    parameters J = max(4N, 256), rho^J = sqrt(eps). The default path
    carries the J running history sums of the time factors step by step
    and sums the s*J systems in one weighted solve at the end; with
    return_trajectory=True (small systems only) the weights are assembled
    as explicit matrices and the whole trajectory u_0..u_N is returned.
    The result is real when the operator and the data are.
    """
    tab = config.tableau
    fam = problem.family
    N, h = config.N, config.h
    s, dim = tab.s, fam.dim
    J = max(4 * N, 256)
    rho = _EPS ** (1.0 / (2 * J))
    table = problem.g.table(N, h, tab.c)
    real = fam.is_real and table.is_real

    if return_trajectory:
        w_rows = weight_rows_direct(fam, tab, problem.alpha, h, np.arange(N), J=J, rho=rho)
        traj = np.zeros((N + 1, dim), dtype=complex)
        flat = (table.block(0, N) @ table.spatial).reshape(N, s * dim)
        for m in range(1, N + 1):
            traj[m] = h * np.einsum("nab,nb->a", w_rows[:m], flat[m - 1::-1])
        return traj.real if real else traj

    z = np.exp(-2j * np.pi * np.arange(J) / J) / rho
    factors = table.block(0, N)
    hist = np.zeros((J, s, table.rank), dtype=complex)
    for n in range(N):
        hist *= z[:, None, None]
        hist += factors[n] / J

    nus, weights = _circle_weights(tab, h, problem.alpha, rho, hist)
    u = fam.solve(nus, table.spatial.T, weights=weights)
    return u.real.copy() if real else u


def weight_matrices_direct(family, tab, alpha, h, n_list, J=None, rho=None):
    """Full weight operators W_n as explicit matrices from the circle rule."""
    n_list = np.asarray(n_list, dtype=int)
    s, dim = tab.s, family.dim
    sd = s * dim
    if sd > 96:
        raise ConfigError(f"explicit weights are an oracle tool; s*dim={sd} too large")
    if J is None:
        J = max(4 * (int(n_list.max()) + 1), 256)
    if rho is None:
        rho = _EPS ** (1.0 / (2 * J))
    eye = np.eye(dim)
    dec, nus = _circle_decomp(rho * np.exp(2j * np.pi * np.arange(J) / J), tab, h, alpha)
    xs = family.solve(nus.ravel(), np.kron(dec.U_inv, eye).reshape(J * s, dim, sd))
    kernels = np.kron(dec.U, eye) @ xs.reshape(J, sd, sd)
    phases = (np.exp(-2j * np.pi * np.outer(n_list, np.arange(J)) / J)
              * (rho ** -n_list.astype(float))[:, None] / J)
    # the circle rule produces h*W_n; divide the leading h back out
    return (phases @ kernels.reshape(J, sd * sd)).reshape(len(n_list), sd, sd) / h


def weight_rows_direct(family, tab, alpha, h, n_list, J=None, rho=None):
    """Last-row weight blocks w_n = (e_s x Id) W_n as (dim, s*dim) matrices."""
    w_full = weight_matrices_direct(family, tab, alpha, h, n_list, J, rho)
    return w_full[:, (tab.s - 1) * family.dim:, :]


def weight_rows_contour(family, tab, alpha, h, n, level: contour.ContourLevel):
    """Hyperbola-quadrature approximation of w_n as a (dim, s*dim) block:
    sum_k omega_k r(h lam_k)^n q(h lam_k) x (lam_k^alpha M - A)^-1."""
    s, dim = tab.s, family.dim
    r, q = tableau_mod.stability(h * level.lambdas, tab)
    nus = smallmat.power_alpha(level.lambdas, alpha)
    x = family.solve(nus, np.broadcast_to(np.eye(dim), (len(nus), dim, dim)))
    coef = level.omegas * r ** int(n)
    return np.einsum("k,ki,kab->aib", coef, q, x).reshape(dim, s * dim)


# ---------------------------------------------------------------------------
# scalar Runge-Kutta marches


def rk_march_scalar(lam, table, from_step, to_step, tab, h):
    """March y' = lam*y + g(t) from y(from_step*h) = 0 to t = to_step*h.

    One inverse of the s x s stage matrix (Id - h lam A) serves the whole
    march; g enters through the stage-sample table. Returns the terminal
    value, one entry per inhomogeneity column.
    """
    try:
        stage_inv = np.linalg.inv(np.eye(tab.s) - (h * lam) * tab.A)
    except np.linalg.LinAlgError as exc:
        raise PoleError(
            f"stage matrix singular at h*lambda={h * lam}; the contour "
            "touches the spectrum of A^-1 (plan bug)",
            where=lam,
        ) from exc
    y = np.zeros(table.dim, dtype=complex)
    ones = np.ones(tab.s)
    hA = h * tab.A
    for g in table.block(from_step, to_step) @ table.spatial:
        stages = stage_inv @ (np.outer(ones, y) + hA @ g)
        if tab.stiffly_accurate:
            y = stages[-1]
        else:
            y = y + h * (tab.b @ (lam * stages + g))
    return y


def _march_window(r, q, table, n0, n1, h, block=_MARCH_BLOCK):
    """Terminal values of the scalar marches for a whole node set at once,
    in the rank space of the separable data.

    The march is linear in the samples, so it runs on the (N, s, rank)
    time factors of the table, and row k of the returned (nodes, rank)
    array expands to the node's terminal value as row @ table.spatial.
    For a stiffly accurate scheme one step is y <- r_k y + h q_k . G_n, so
    a block of w steps collapses into y <- r^w y + h sum_j r^(w-1-j) q.G;
    the inner sum is one matrix product of the descending power matrix
    (a cumprod written in reverse) against the time-factor block. The
    scaling by r^w commutes with q, so q is applied once at the end.
    """
    nodes = len(r)
    s, rank = table.s, table.rank
    factors = table.block(n0, n1)
    hist = np.zeros((nodes, s * rank), dtype=complex)
    for b0 in range(n0, n1, block):
        b1 = min(b0 + block, n1)
        w = b1 - b0
        desc = np.empty((nodes, w), dtype=complex)  # desc[:, j] = r^(w-1-j)
        desc[:, -1] = 1.0
        if w > 1:
            np.cumprod(np.broadcast_to(r[:, None], (nodes, w - 1)), axis=1,
                       out=desc[:, -2::-1])
        hist *= (desc[:, 0] * r)[:, None]
        hist += desc @ factors[b0 - n0:b1 - n0].reshape(w, s * rank)
    return h * np.einsum("ks,ksr->kr", q, hist.reshape(nodes, s, rank))


# ---------------------------------------------------------------------------
# the fast algorithm


def _check_spectrum_clearance(levels, tab, h):
    poles = 1.0 / np.linalg.eigvals(tab.A)
    for lev in levels:
        z = h * lev.lambdas
        dist = np.min(np.abs(z[:, None] - poles[None, :]), axis=1)
        bad = dist < _SPECTRUM_CLEARANCE * np.maximum(1.0, np.abs(z))
        if np.any(bad):
            k = int(np.argmax(bad)) - lev.K
            raise PoleError(
                f"contour node k={k} of level {lev.ell} hits the stage-matrix "
                "spectrum; adjust K or kappa",
                where=z[np.argmax(bad)],
            )


def fast_solve(problem: Problem, config: CQConfig, table=None):
    """Approximation U_N at t = N h by the level-compressed algorithm.

    Phases: (1) scalar Runge-Kutta marches over each level window,
    vectorized over contour nodes and run on the rank-r time factors of
    the separable data; (2) combine: the weight of node k of level l is
    omega_k r_k^(m_l) times its r march coefficients; (3) one weighted
    resolvent solve sums the nodes of all levels; (4) circle-rule block
    for the first m_0 weights. When the operator and the data are both real
    (family.is_real and table.is_real), the term of node -k is the
    conjugate of that of node k, so only the upper half k >= 0 of each
    contour is computed and the conjugate pairs are folded in as doubled
    real parts; otherwise all 2K+1 nodes are. A caller solving the same N,
    h and tableau repeatedly may pass the stage table of problem.g.
    """
    fam = problem.family
    alpha = problem.alpha
    if problem.has_initial:
        raise ConfigError("problem carries nonzero initial data; apply transform_initial first")
    tab = config.tableau
    N, h = config.N, config.h

    t_start = time.perf_counter()
    K = config.resolved_K(fam)
    stats = RunStats(K=K)
    plan = plan_levels(N, config.kappa, config.Lambda)
    if table is None:
        table = problem.g.table(N, h, tab.c)
    levels = contour.level_contours(plan.L, K, config.Lambda, config.resolved_theta(fam),
                                    h, config.kappa)
    _check_spectrum_clearance(levels, tab, h)

    # per-level nodes and their stability data (r, q); folding needs k = 0..K only
    fold = fam.is_real and table.is_real
    lam_used = [lev.lambdas[K:] if fold else lev.lambdas for lev in levels]
    stab = [tableau_mod.stability(h * lams, tab) for lams in lam_used]
    stats.wall_times["prepare"] = time.perf_counter() - t_start

    # the marches run first, while the table is warm in cache
    t_phase = time.perf_counter()
    coeffs = []
    for li in range(plan.L):
        m_lo, m_hi = plan.window(li + 1)
        coeffs.append(_march_window(*stab[li], table, N - m_hi, N - m_lo, h))
        stats.rk_steps += len(lam_used[li]) * (m_hi - m_lo)
    stats.wall_times["rk_marches"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    weights = []
    for li, lev in enumerate(levels):
        omegas = lev.omegas[K:] if fold else lev.omegas
        scale = omegas * stab[li][0] ** plan.m[li]
        if fold:  # node k > 0 stands for itself and its conjugate
            scale *= np.where(np.arange(len(scale)) > 0, 2.0, 1.0)
        weights.append(scale[:, None] * coeffs[li])
    stats.wall_times["combine"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    u_levels = 0.0
    if levels:
        nus = smallmat.power_alpha(np.concatenate(lam_used), alpha)
        u_levels = fam.solve(nus, table.spatial.T, weights=np.concatenate(weights))
        if fold:  # the real part of the sum is the sum of the folded pairs
            u_levels = u_levels.real
    stats.resolvent_solves = sum(len(lams) for lams in lam_used)
    stats.wall_times["resolvent_solves"] = time.perf_counter() - t_phase

    # the first block runs after the level solve, not straight after the
    # marches: its fixed work then meets the same cache state at every N
    t_phase = time.perf_counter()
    u_first, stats.first_block_solves = first_block(problem, config, plan, table)
    stats.wall_times["first_block"] = time.perf_counter() - t_phase
    stats.wall_times["total"] = time.perf_counter() - t_start
    return u_first + u_levels, stats


def transform_initial(problem: Problem):
    """Equivalent zero-initial-data problem plus the reconstruction offset.

    The inhomogeneity is shifted by the constant A u0 (mass form), and any
    exact solution is shifted accordingly; the returned offset restores the
    original unknown as v = u + u0.
    """
    dim = problem.family.dim
    if not problem.has_initial:
        return problem, np.zeros(dim)
    fam = problem.family
    fam.validate_initial(problem.u0)
    u0 = np.asarray(problem.u0, dtype=np.result_type(problem.u0, float))
    shift = fam.apply_op(u0)
    u_exact = problem.u_exact
    shifted_exact = None
    if u_exact is not None:
        def shifted_exact(t, _u_exact=u_exact, _u0=u0):
            return _u_exact(t) - _u0
    new_problem = Problem(
        family=fam,
        alpha=problem.alpha,
        g=problem.g.shifted(shift),
        u_exact=shifted_exact,
        u0=None,
    )
    return new_problem, u0.copy()
