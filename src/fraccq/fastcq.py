"""Runge-Kutta convolution quadrature: direct form and the fast algorithm.

The approximation at t = N h is u_N = h * (e_s x Id) sum_n W_n G_{N-1-n},
with weights W_n generated by the rational symbol Delta(zeta)/h of the
Runge-Kutta scheme applied to the resolvent. Two evaluation routes:

* direct_cq: the circle sum over all N weights, the trapezoidal circle
  rule for the integral of the generating function at the oracle-grade
  J = max(4N, 256) nodes.
* fast_solve: the first kappa+1 weights through the circle rule, at
  J = 2 kappa nodes unless CQConfig.J says otherwise, the rest
  through hyperbola contours, one per geometrically growing history
  window. Per window, the weighted history sum collapses into scalar
  linear ODE marches (one per contour node) followed by a single
  resolvent solve per node: O(N) Runge-Kutta steps and
  O(log N * log(1/eps)) linear systems. The data are separable,
  g(t) = sum_r f_r(t) s_r, so the marches run on the r scalar time
  factors, in blocks of up to 1024 steps, each one real matrix product
  of the factors against descending powers of the nodes' r(z).

A circle rule is one call, _circle_split(tab, alpha, J, terms, fold):
its radius balances the aliasing error rho^J against the rounding that
its rho^-n scaling amplifies, rho^(J+terms-1) = eps (circle_radius), for
kappa+1 terms in the first block at every N, N in direct_cq and
max n + 1 in weight_matrices_direct. The split is at h = 1; _circle_sum
scales its d^alpha to the solve's h, and weight_matrices_direct its own.

The result needs only a weighted sum of resolvent solves,
u = sum_k (nu_k M - A)^-1 S^T w_k with S the (r, dim) spatial factors, so
both routes stay in the rank space of the data and hand each sum to one
weighted family.solve: one for the circle nodes, one for the contour
nodes of all levels.

A solve takes only the problem and the config; the problem keeps what
its solves derive from it alone, one entry per slot (_kept), each keyed
by what it reads: the stage table of its data at N, h and the stage
nodes c; the first block's circle rule at the tableau, J, kappa and
fold; the stage plan (StagePlan) of the contour levels at the tableau,
K as given, Lambda, kappa and fold. A solve with other parameters
replaces the entries whose key moves; dataclasses.replace starts the
new problem without any. The circle nodes zeta_j depend only on J and
kappa, and the hyperbola of level l has scale mu_l ~ 1/(Lambda^l
(kappa+1) h), so in z = h lambda the split of Delta(zeta_j) with its
d^alpha and the plan's contour nodes, weights h omega, r(z) and q(z),
combine factors r^(m_(l-1)), powers z^alpha and march powers r^(w-1-j)
are the same at every h and N: each is computed once, the levels as N
grows and the march powers as deep as the solves read, and a solve only
scales them by powers of h. direct_cq and
weight_matrices_direct split their own circle on every call; the weights
experiment reads its contour weights from the stage plan (StagePlan).
When the operator and the data are both real, both routes solve only the
upper half of each node set (contour nodes k >= 0, circle nodes
j = 0..J//2) and fold the conjugate halves in as doubled real parts.
Every phase is stacked numpy and LAPACK calls in the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import contour, smallmat, tableau as tableau_mod
from .errors import BranchCutError, ConfigError, DecompositionError, PoleError
from .operators import OperatorFamily, Problem

_EPS = float(np.finfo(float).eps)
_INDEX_MAX = int(np.iinfo(np.intp).max)
_MARCH_BLOCK = 1024
_SPECTRUM_CLEARANCE = 1e-8


def circle_radius(J: int, terms: int) -> float:
    """Radius rho of the J-node circle rule for a sum of `terms` weights.

    The rule's error is about rho^J |W_(n+J)| from aliasing plus
    eps rho^-(terms-1) |W| from the rho^-n scaling; rho^(J+terms-1) = eps
    balances the two at eps^(J/(J+terms-1)) (Lubich, Numer. Math. 52,
    1988, gives rho^J = sqrt(eps), the balance at J = terms).
    """
    return _EPS ** (1.0 / (J + terms - 1))


def default_J(kappa: int) -> int:
    """Circle nodes of the first block when CQConfig.J is None: J = 2 kappa.

    The first block sums kappa+1 weights, so the balanced circle rule
    (circle_radius) errs by about eps^(2 kappa/(3 kappa)) = eps^(2/3),
    some 4e-11 relative, below the contours' 1e-7 design accuracy.
    """
    return 2 * kappa


@dataclass
class CQConfig:
    """Run parameters of one convolution-quadrature solve.

    K = None (the default) takes the smallest K >= 25 at which the contour
    error model (contour.error_model) predicts <= 1e-7 at the contour angle
    of the problem's order (resolved_theta): K = 25 for the spectral family
    and for example 1 up to alpha = 3/4, 40 for example 1 at alpha = 1 and
    64 for the transparent-boundary family at alpha = 3/4 (at K = 25 its
    fast solve differs from direct_cq by about 3e-4 relative), sized once
    per stage plan (StagePlan); an angle that needs a K above 10,000 raises
    ConfigError (contour.sized_K). An explicit K runs as given; RunStats.K
    reports the K used.
    J = None (the default) takes default_J(kappa) = 2 kappa circle nodes for
    the first block; an explicit J >= kappa+1 runs as given, and RunStats.J
    reports the J used. direct_cq uses no contour and its own J, and reads
    neither K nor J. Every Tableau is admissible by construction, so the
    config checks only that it is one.
    """

    tableau: tableau_mod.Tableau
    h: float
    N: int
    K: int | None = None
    Lambda: int = 5
    kappa: int = 20
    J: int | None = None
    workers: int = 1  # reaches no phase of a solve; kept only because perfbench sets it

    def __post_init__(self):
        if not isinstance(self.tableau, tableau_mod.Tableau):
            raise ConfigError(f"need a Runge-Kutta Tableau, got tableau={self.tableau!r}")
        # bool is an int subclass, but True is no step size, step or node count
        h = self.h
        real = isinstance(h, (int, float, np.integer, np.floating)) and not isinstance(h, bool)
        try:
            h = float(h) if real else np.nan
        except OverflowError:  # an integer beyond the float range
            h = np.inf
        if not (0.0 < h < np.inf and 1.0 / h < np.inf):  # 1/h scales every frequency
            raise ConfigError(f"need a finite h > 0 with a finite 1/h, got h={self.h!r}")
        self.h = h
        for name, least in (("N", 1), ("K", 2), ("Lambda", 2), ("kappa", 1), ("J", 1),
                            ("workers", 1)):
            value = getattr(self, name)
            if value is None and name in ("K", "J"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(f"need an integer {name} >= {least}, got {name}={value!r}")
            setattr(self, name, int(value))  # a narrow numpy integer would wrap around
        if self.resolved_J() < self.kappa + 1:
            raise ConfigError(f"need J >= kappa+1, got J={self.J}, kappa={self.kappa}")
        # the 16 N s bytes of the complex stage table, 2K+1 contour nodes and J circle nodes
        if (max(16 * self.N * self.tableau.s, 2 * (self.K or 0) + 1, self.resolved_J())
                > _INDEX_MAX or not self.N * h < np.inf):
            raise ConfigError(f"need 16 N s bytes, 2K+1 and J in the index range and a finite "
                              f"N h, got N={self.N}, s={self.tableau.s}, K={self.K}, J={self.J}, "
                              f"h={h!r}")

    @staticmethod
    def resolved_theta(family: OperatorFamily, alpha: float | None = None) -> float:
        """Just inside contour.theta1(alpha, family.theta0); alpha defaults to
        family.alpha, or to 1 (the narrowest angle) for a family of every order."""
        alpha = (family.alpha or 1.0) if alpha is None else alpha
        return contour.theta1(alpha, family.theta0) * (1.0 - 1e-9)

    def resolved_J(self) -> int:
        """J as given, or default_J(kappa) when J is None."""
        return default_J(self.kappa) if self.J is None else self.J


@dataclass(frozen=True)
class LevelPlan:
    """Geometric history decomposition m_0 < m_1 < ... < m_L = N."""

    L: int
    m: tuple  # level l >= 1 covers the weight indices [m_(l-1), m_l)


def plan_levels(N: int, kappa: int, Lambda: int) -> LevelPlan:
    """Smallest plan with N <= Lambda^L (kappa+1); L = 0 collapses to the
    direct block handling all N weights."""
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    L = 0
    cap = kappa + 1
    while N > cap:
        cap *= Lambda
        L += 1
    m = tuple((kappa + 1) * Lambda**ell for ell in range(L)) + (N,)
    return LevelPlan(L=L, m=m)


@dataclass
class RunStats:
    """Operation counters, the contour size K (the stage plan's) and circle
    size J used and per-phase wall-clock times of one solve: wall_times
    holds "prepare" (which includes "table", the stage-table build, near
    zero when the problem keeps the table), "rk_marches", "combine",
    "resolvent_solves", "first_block" and "total". levels_built counts the
    pieces this solve computed: one per new level of the stage plan
    (StagePlan.built), one for a new circle split of the first block; 0
    when the problem already held them."""

    K: int = 0
    J: int = 0
    rk_steps: int = 0
    resolvent_solves: int = 0
    first_block_solves: int = 0
    levels_built: int = 0
    wall_times: dict = field(default_factory=dict)


def parallel_map(fn, tasks, workers):
    """fn over tasks, in order; kept only as the span perfbench traces."""
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------------------
# circle-rule machinery (first weights and the direct oracle)


def _folds(problem: Problem, table) -> bool:
    """Whether the operator and the data are both real, so that conjugate
    nodes give conjugate terms and only the upper half is solved."""
    return problem.family.is_real and table.is_real


def _circle_split(tab, alpha, J, terms, fold):
    """The circle rule of a sum of `terms` weights at J nodes: its radius
    rho = circle_radius(J, terms), and one stacked eigen-split
    Delta(zeta_j) = U_j diag(d_j) U_j^-1, with the powers d_j^alpha, over
    the nodes zeta_j = rho exp(2 pi i j/J) a circle sum solves: j = 0..J//2
    when it folds, all J otherwise. Returns (rho, split, d_alpha).

    The split is at h = 1: _circle_sum scales d^alpha by h^-alpha to the
    frequencies of Delta(zeta_j)/h. Nodes whose split is defective or has
    an eigenvalue on the branch cut are moved radially by a part in 1e9,
    once, and the stack is split again; LAPACK splits each matrix on its
    own, so the others keep their bits.
    """
    def split(zetas):
        for retry in (True, False):
            try:
                dec = smallmat.eig_small(tableau_mod.delta(zetas, tab))
                return dec, smallmat.power_alpha(dec.d, alpha)
            except (DecompositionError, BranchCutError) as exc:
                if not retry:
                    raise
                zetas[exc.indices] *= 1.0 + 1e-9

    rho = circle_radius(J, terms)
    zetas = rho * np.exp(2j * np.pi * np.arange(J // 2 + 1 if fold else J) / J)
    return (rho, *parallel_map(split, [zetas], 1)[0])


def _circle_sum(problem: Problem, table, terms, J, rule, h):
    """h sum_(n < terms) (e_s x Id) W_n G_(N-1-n) over the table's last
    `terms` samples, by the circle rule (rho, split, d^alpha) of
    _circle_split at J nodes, whose d^alpha h^-alpha = nus are the
    powered eigenvalues of Delta(zeta_j)/h at the step size h.

    Takes one DFT of the rho-scaled sequence of time factors. With
    U_j diag(nu_j^(1/alpha)) U_j^-1 = Delta(zeta_j)/h, the circle sum
    sum_j [U_j (nu_j M - A)^-1 U_j^-1 hat_j S]_last equals
    sum_(j,i) (nu_ji M - A)^-1 S^T w_ji with w_ji = U_j[-1, i] (U_j^-1 hat_j)[i],
    one weighted family.solve over the s decoupled systems of every node.
    When the operator and the data are both real, the sequence is real, so
    node J-j is the conjugate of node j in its DFT value, its split and its
    solve: only nodes j = 0..J//2 are computed (one rfft), j = 1..(J-1)//2
    with doubled weight, and the real part of the sum is returned. Returns
    the sum and the system count, s times the nodes solved.
    """
    fold = _folds(problem, table)
    rho, dec, d_alpha = rule
    nus = d_alpha * h ** -problem.alpha
    blk = table.block(table.N - terms, table.N)  # factors of G_{N-terms}..G_{N-1}
    # unfolded, real factors are scaled as complex numbers, as complex factors are
    rev = blk[::-1].real if fold else blk[::-1].astype(complex)
    seq = np.zeros((J, table.s, table.rank), dtype=rev.dtype)
    seq[:terms] = rev * (rho ** -np.arange(terms))[:, None, None] / J
    if fold:
        hat = np.fft.rfft(seq, axis=0)  # hat_j for j = 0..J//2 only
        hat[1:(J + 1) // 2] *= 2.0  # node j stands for itself and node J-j
    else:
        hat = np.fft.fft(seq, axis=0)  # hat_j = sum_n seq_n exp(-2 pi i n j / J)
    weights = (dec.U[:, -1, :, None] * (dec.U_inv @ hat)).reshape(nus.size, table.rank)
    u = problem.family.solve(nus.ravel(), table.spatial.T, weights=weights)
    return (u.real.copy() if fold else u), nus.size


def _kept(problem: Problem, slot: str, key, build):
    """The value the problem keeps in `slot` for `key`, or a new one from
    build() that replaces it: one entry per slot."""
    kept = problem._kept
    if slot not in kept or kept[slot][0] != key:
        kept.pop(slot, None)  # the old value goes before the new one is built
        kept[slot] = (key, build())
    return kept[slot][1]


def _stage_table(problem: Problem, config: CQConfig):
    """The stage table a solve reads: problem.g's at the solve's N, h and
    stage nodes c, kept by the problem for the next solve there."""
    N, h, c = config.N, config.h, config.tableau.c
    return _kept(problem, "table", (N, h, c.tobytes()), lambda: problem.g.table(N, h, c))


def first_block(problem: Problem, config: CQConfig):
    """Contribution of the first m_0 = min(N, kappa+1) weights via the
    circle rule (_circle_split) at J nodes, its radius balanced for the
    term budget kappa+1 rather than m_0, so that the circle nodes are the
    same at every h and N, L = 0 solves (m_0 = N <= kappa+1) included.
    The problem keeps the rule, split at h = 1, per tableau, J, kappa and
    fold (_kept); _circle_sum scales it to the solve's h. It reads the
    stage table and no stage plan, so it sizes no contour and needs no
    sector. Returns the length-dim vector, real when the operator and the
    data are, and the system count: s*(J//2+1) when _circle_sum folds the
    conjugate nodes, s*J otherwise.
    """
    table = _stage_table(problem, config)
    tab, J, terms = config.tableau, config.resolved_J(), config.kappa + 1
    fold = _folds(problem, table)
    rule = _kept(problem, "circle", (tab, J, config.kappa, fold),
                 lambda: _circle_split(tab, problem.alpha, J, terms, fold))
    return _circle_sum(problem, table, min(config.N, terms), J, rule, config.h)


def direct_cq(problem: Problem, config: CQConfig):
    """Oracle evaluation of the convolution quadrature at t = N h.

    The circle sum (_circle_sum) over all N weights at the oracle-grade
    J = max(4N, 256), its radius balanced for N terms (_circle_split);
    u_N sums all N weights, so the amplified rounding of the last ones
    stays near 1e-12 relative. No contour, level plan or march: config.K,
    Lambda, kappa and J are not read. It reads the stage table the problem
    keeps but no stage plan: each call makes its own circle split.
    When the operator and the data are both real, only the J//2+1 nodes
    of the upper half circle are solved and the result is real.
    """
    table = _stage_table(problem, config)
    N, J = config.N, max(4 * config.N, 256)
    rule = _circle_split(config.tableau, problem.alpha, J, N, _folds(problem, table))
    return _circle_sum(problem, table, N, J, rule, config.h)[0]


def weight_matrices_direct(family, tab, alpha, h, n_list):
    """Full weight operators W_n as explicit (s*dim, s*dim) matrices from
    the circle rule at J = max(10 (max n + 1), 256) nodes, its radius
    balanced for max n + 1 terms (_circle_split), unfolded; an oracle tool
    for s*dim <= 96. Each W_n stands alone, so the last and smallest takes
    the rounding amplification rho^-(max n) in full: eps^(-1/11) here,
    where direct_cq's 4N (eps^(-1/5)) left W_700 of example 1 2.6e-11 off."""
    n_list = np.asarray(n_list, dtype=int)
    s, dim = tab.s, family.dim
    sd = s * dim
    if sd > 96:
        raise ConfigError(f"explicit weights are an oracle tool; s*dim={sd} too large")
    terms = int(n_list.max()) + 1
    J = max(10 * terms, 256)
    eye = np.eye(dim)
    rho, dec, d_alpha = _circle_split(tab, alpha, J, terms, fold=False)
    nus = d_alpha * h ** -alpha
    xs = family.solve(nus.ravel(), np.kron(dec.U_inv, eye).reshape(J * s, dim, sd))
    kernels = np.kron(dec.U, eye) @ xs.reshape(J, sd, sd)
    phases = (np.exp(-2j * np.pi * np.outer(n_list, np.arange(J)) / J)
              * (rho ** -n_list.astype(float))[:, None] / J)
    # the circle rule produces h*W_n; divide the leading h back out
    return (phases @ kernels.reshape(J, sd * sd)).reshape(len(n_list), sd, sd) / h


def weight_rows_direct(family, tab, alpha, h, n_list):
    """Last-row weight blocks w_n = (e_s x Id) W_n as (dim, s*dim) matrices."""
    w_full = weight_matrices_direct(family, tab, alpha, h, n_list)
    return w_full[:, (tab.s - 1) * family.dim:, :]


# ---------------------------------------------------------------------------
# scalar Runge-Kutta marches


def _fill_powers(rows, have, depth, r):
    """Fill the descending powers rows[j] = r^(len(rows)-1-j) of a node set
    from its `have` filled tail rows (rows[-1] = 1 at least) to `depth`,
    bit for bit one cumprod of r over all rows. A later fill runs on from
    r^(have-2), recomputing r^(have-1), so that no accumulate takes one
    step: numpy runs that through its vectorised complex multiply, which
    rounds otherwise (fused multiply-add; numpy 2.4, AVX-512). A first
    fill of 3 rows is one step, so march_powers fills at least 4."""
    asc = rows[::-1]  # asc[j] = r^j
    if have == 1:
        np.cumprod(np.broadcast_to(r, (depth - 1, len(r))), axis=0, out=asc[1:depth])
    else:
        asc = asc[have - 2:depth]
        asc[1:] = r
        np.cumprod(asc, axis=0, out=asc)


def _march_window(r, q, powers, table, n0, n1, h):
    """Terminal values of the scalar marches for a whole node set at once,
    in the rank space of the separable data.

    The march is linear in the samples, so it runs on the (N, s, rank)
    time factors of the table, and row k of the returned (nodes, rank)
    array expands to the node's terminal value as row @ table.spatial.
    For a stiffly accurate scheme one step is y <- r_k y + h q_k . G_n, so
    a block of w steps collapses into y <- r^w y + h sum_j r^(w-1-j) q.G.
    The blocks are len(powers) steps long, a shorter last one reading the
    trailing rows of the descending powers (StagePlan.march_powers), and the
    inner sum is one real matrix product of the factor columns against
    the powers viewed as (re, im) column pairs. Complex factors enter as
    their own (re, im) column pairs and are recombined once at the end.
    The scaling by r^w commutes with q, so q is applied once at the end.
    """
    width, nodes = powers.shape
    factors = table.block(n0, n1)
    cols = factors.reshape(n1 - n0, -1).view(float)
    hist = np.zeros((cols.shape[1], nodes), dtype=complex)
    for b0 in range(0, n1 - n0, width):
        blk = cols[b0:b0 + width]
        desc = powers[width - len(blk):]  # desc[j] = r^(w-1-j) for this block's w
        hist *= desc[0] * r
        hist += (blk.T @ desc.view(float)).view(complex)
    if np.iscomplexobj(factors):
        hist = hist[0::2] + 1j * hist[1::2]
    return h * np.einsum("ks,srk->kr", q, hist.reshape(table.s, table.rank, nodes))


# ---------------------------------------------------------------------------
# the fast algorithm


def _check_spectrum_clearance(z, tab, first_level=1):
    """Refuse contour nodes z = h lambda of levels first_level.., k = -K..K,
    in an (levels, 2K+1) array, that lie within a relative 1e-8 of a pole
    1/eig(A) of the stage matrix: one test over the nodes of all these
    levels, naming the first offending level and node."""
    poles = 1.0 / tab.eigenvalues
    dist = np.min(np.abs(z[..., None] - poles), axis=-1)
    bad = dist < _SPECTRUM_CLEARANCE * np.maximum(1.0, np.abs(z))
    if np.any(bad):
        li, i = np.argwhere(bad)[0]
        raise PoleError(
            f"contour node k={i - z.shape[1] // 2} of level {li + first_level} hits the "
            "stage-matrix spectrum; adjust K or kappa",
            where=z[li, i],
        )


class StagePlan:
    """Contour-level data of a problem's solves at one tableau, K, Lambda,
    kappa and fold, at its order alpha and contour angle theta, in
    z = h lambda (module docstring).

    K = None is sized once, when the plan is made (contour.sized_K), and
    the first level selects the contour parameters (params) of all levels.
    For each contour level l = 1..L it keeps, over the solved nodes
    (k = 0..K when folded, all 2K+1 otherwise): r(z) and q(z) of the
    tableau (r, q), the combine factor h omega r^(m_(l-1)), doubled on
    folded nodes k > 0 (scale), and z^alpha (z_alpha), with z and h omega
    from contour.level_contours at h = 1 and z cleared of the stage
    spectrum. The weight rows a solve sums are, for m_(l-1) <= n < m_l,
    w_n = (1/h) sum_k scale_k r_k^(n-m_(l-1)) q_k x (nu_k M - A)^-1 at
    nu_k = z_alpha_k h^-alpha, real parts when folded. Levels are
    computed when a solve first needs them; built counts them.

    It also keeps, per level, the read-only descending powers r^(w-1-j)
    of its march blocks (powers), w = min(1024, the level's full window
    (kappa+1)(Lambda-1)Lambda^(l-1)), but only as deep as the solves so
    far have read (march_powers): the tail of one (w, nodes) buffer per
    level, filled in place as a deeper solve needs it, bit for bit one
    full cumprod (_fill_powers). Unread rows are never written, so a
    buffer above glibc's mmap threshold faults in only the pages it
    fills; the example-1 ladder N = 20..640 fills 619 of 1,528 rows. A
    full level takes 1024 nodes 16 bytes: 1.1 MB for the N = 2e4
    example-2 solve (K = 20, 5 levels), 5.3 MB for the default
    Schroedinger run.
    """

    def __init__(self, tab, K, Lambda, kappa, fold, alpha, theta):
        self.tab, self.alpha = tab, alpha
        self.K = contour.sized_K(Lambda, theta) if K is None else K
        self.Lambda, self.theta, self.kappa, self.fold = Lambda, theta, kappa, fold
        self.params = None
        n_nodes = self.K + 1 if fold else 2 * self.K + 1
        self.r = np.empty((0, n_nodes), dtype=complex)
        self.q = np.empty((0, n_nodes, tab.s), dtype=complex)
        self.scale = np.empty((0, n_nodes), dtype=complex)
        self.z_alpha = np.empty((0, n_nodes), dtype=complex)
        self.powers = []  # per level, the filled tail of its buffer, read-only
        self._buffers = []
        self.built = 0

    def add_levels(self, plan: LevelPlan):
        """Extend the levels to 1..plan.L, all new levels in one stacked
        clearance test and one stability call, with the window starts
        m_(l-1) of the solve's level plan. A refused node (PoleError)
        leaves the plan as it was."""
        have, L = len(self.r), plan.L
        if L <= have:
            return
        if self.params is None:
            self.params = contour.select_parameters(self.K, self.Lambda, self.theta)
        lambdas, omegas = contour.level_contours(L, self.params, 1.0, self.kappa)
        z = lambdas[have:]  # (new, 2K+1): h lambda at every h
        _check_spectrum_clearance(z, self.tab, first_level=have + 1)
        used = slice(self.K, None) if self.fold else slice(None)  # folding needs k = 0..K
        z = z[:, used]
        r, q = tableau_mod.stability(z.ravel(), self.tab)
        r, q = r.reshape(z.shape), q.reshape(*z.shape, self.tab.s)
        # h omega r_k^(m_(l-1)) on level l
        scale = omegas[have:, used] * r ** np.array(plan.m[have:L])[:, None]
        if self.fold:  # node k > 0 stands for itself and its conjugate
            scale[:, 1:] *= 2.0
        z_alpha = smallmat.power_alpha(z.ravel(), self.alpha).reshape(z.shape)
        self.r, self.q = np.concatenate([self.r, r]), np.concatenate([self.q, q])
        self.scale = np.concatenate([self.scale, scale])
        self.z_alpha = np.concatenate([self.z_alpha, z_alpha])
        self.built += L - have

    def march_powers(self, plan: LevelPlan):
        """The powers of levels 1..plan.L (add_levels first), each filled
        to min(w, the solve's window m_l - m_(l-1)) rows, at least 4 of
        them (_fill_powers)."""
        for li in range(plan.L):
            if li == len(self._buffers):
                full = (self.kappa + 1) * (self.Lambda - 1) * self.Lambda**li
                buf = np.empty((min(_MARCH_BLOCK, full), self.r.shape[1]), dtype=complex)
                buf[-1] = 1.0
                self._buffers.append(buf)
                self.powers.append(buf[-1:])  # r^0, the one row a fill starts from
            buf, have = self._buffers[li], len(self.powers[li])
            depth = min(len(buf), max(4, plan.m[li + 1] - plan.m[li]))
            if depth > have:
                _fill_powers(buf, have, depth, self.r[li])
                self.powers[li] = buf[len(buf) - depth:]
                self.powers[li].flags.writeable = False
        return self.powers[:plan.L]


def _stage_plan(problem: Problem, config: CQConfig, fold: bool) -> StagePlan:
    """The problem's stage plan for the solve's tableau, K as given,
    Lambda, kappa and fold: the kept one, or a new one that replaces it
    (_kept). A problem's family and order do not change, so the contour
    angle (CQConfig.resolved_theta) is read only when a plan is made."""
    key, alpha = (config.tableau, config.K, config.Lambda, config.kappa, fold), problem.alpha
    return _kept(problem, "plan", key, lambda: StagePlan(
        *key, alpha, config.resolved_theta(problem.family, alpha)))


def fast_solve(problem: Problem, config: CQConfig):
    """Approximation U_N at t = N h by the level-compressed algorithm.

    Phases: (1) scalar Runge-Kutta marches over each level window,
    vectorized over contour nodes and run on the rank-r time factors of
    the separable data; (2) combine: the weight of node k of level l is
    omega_k r_k^(m_l) times its r march coefficients; (3) one weighted
    resolvent solve sums the nodes of all levels; (4) circle-rule block
    for the first m_0 weights. "prepare" reads the stage table and the
    stage plan the problem keeps (module docstring) and extends the plan
    to the solve's levels; RunStats.levels_built counts what the solve
    computed, a circle split of the first block included.
    Every solve, the first included, scales the plan in the same way:
    nu = z^alpha h^-alpha, omega r^m = (h omega r^m)/h and
    nu_circle = d^alpha h^-alpha, so its bits do not depend on which
    solves ran on the problem before it.
    """
    fam = problem.family
    N, h = config.N, config.h

    t_start = time.perf_counter()
    stats = RunStats(J=config.resolved_J())
    plan = plan_levels(N, config.kappa, config.Lambda)
    t_phase = time.perf_counter()
    table = _stage_table(problem, config)
    stats.wall_times["table"] = time.perf_counter() - t_phase
    fold = _folds(problem, table)
    stage = _stage_plan(problem, config, fold)
    stats.K, built, circle = stage.K, stage.built, problem._kept.get("circle")
    stage.add_levels(plan)
    powers = stage.march_powers(plan)  # filled here: the marches meet a warm table
    n_nodes = stage.r.shape[1]
    stats.wall_times["prepare"] = time.perf_counter() - t_start

    # the marches run first, while the table is warm in cache
    t_phase = time.perf_counter()
    coeffs = []
    for li in range(plan.L):
        m_lo, m_hi = plan.m[li], plan.m[li + 1]
        coeffs.append(_march_window(stage.r[li], stage.q[li], powers[li], table,
                                    N - m_hi, N - m_lo, h))
        stats.rk_steps += n_nodes * (m_hi - m_lo)
    stats.wall_times["rk_marches"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    u_levels = 0.0
    if plan.L:
        weights = (stage.scale[:plan.L] / h).reshape(-1, 1) * np.concatenate(coeffs)
    stats.wall_times["combine"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    if plan.L:
        nus = stage.z_alpha[:plan.L].ravel() * h ** -problem.alpha
        u_levels = fam.solve(nus, table.spatial.T, weights=weights)
        if fold:  # the real part of the sum is the sum of the folded pairs
            u_levels = u_levels.real
    stats.resolvent_solves = plan.L * n_nodes
    stats.wall_times["resolvent_solves"] = time.perf_counter() - t_phase

    # the first block runs after the level solve, not straight after the
    # marches: its fixed work then meets the same cache state at every N
    t_phase = time.perf_counter()
    u_first, stats.first_block_solves = first_block(problem, config)
    stats.wall_times["first_block"] = time.perf_counter() - t_phase
    # a circle split that first_block built is a new kept entry
    stats.levels_built = stage.built - built + (problem._kept["circle"] is not circle)
    stats.wall_times["total"] = time.perf_counter() - t_start
    return u_first + u_levels, stats

