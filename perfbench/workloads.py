"""The benchmark's workloads: the cores of the paper's numerical examples 1 and 2.

Each workload is the solve list that one CLI experiment runs with its
defaults (README.md says where a size departs from them), driven through
the library API so that import and data building are timed apart from the
solves. A workload builds its problem and stage
tables once (set-up); a pass then solves the whole list with a fresh
operator family, because a CLI process pays the nu-keyed factorizations of
every family it builds. The stage data (``problem.g``) are shared by all
passes.

The checks compare the outputs against independent computations or method
properties, never against stored output: closed-form solutions, the
``direct_cq`` oracle, a second operator backend, and bitwise agreement
between worker counts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from fraccq import caputo, contour, fastcq, operators, tableau

RADAU5 = tableau.radau_iia(3)


@dataclasses.dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))  # numpy bools do not serialize


def max_abs(a):
    return float(np.max(np.abs(a)))


def contour_error_model(K, Lambda, theta):
    """Relative hyperbola quadrature error predicted for 2K+1 nodes: the
    objective eps * eps_K^(rho-1) + eps_K^rho that
    ``contour.select_parameters`` minimises, at its returned parameters."""
    params = contour.select_parameters(K, Lambda, theta)
    eps = np.finfo(float).eps
    eps_k = np.exp(-2.0 * np.pi * params.d * params.K / params.a_rho)
    return float(eps * eps_k ** (params.rho_opt - 1.0) + eps_k**params.rho_opt)


def check_bitwise(passes):
    """Every pass, at any worker count, returns bit for bit the same outputs."""
    first = passes[0]
    differ = [i for i, outs in enumerate(passes)
              if len(outs) != len(first)
              or not all(np.array_equal(a, b) for a, b in zip(first, outs))]
    return Check("passes-bitwise-equal", not differ,
                 f"{len(passes)} passes, differing from the first: {differ or 'none'}")


class Workload:
    """A solve list with its set-up, fresh-family passes and checks."""

    name = ""

    def __init__(self):
        self.problem = None
        self.configs = ()

    def build_problem(self):
        raise NotImplementedError

    def build_tables(self):
        """Stage tables for every solve of a pass, as fast_solve asks for them."""
        for cfg in self.configs:
            self.problem.g.table(cfg.N, cfg.h, cfg.tableau.c)

    def family(self):
        """A fresh operator family with empty factor caches."""
        raise NotImplementedError

    def solve_pass(self, workers, family=None):
        """Solve the list once; returns (outputs, RunStats list, errors)."""
        problem = dataclasses.replace(self.problem, family=family or self.family())
        outputs, stats, errors = [], [], []
        for cfg in self.configs:
            try:
                u, st = fastcq.fast_solve(problem, dataclasses.replace(cfg, workers=workers))
            except Exception as exc:  # a raising solve is counted as failed
                errors.append(f"N={cfg.N}, workers={workers}: {exc!r}")
                continue
            outputs.append(u)
            stats.append(st)
        return outputs, stats, errors

    def references(self):
        """Independent computations the checks compare against."""
        raise NotImplementedError

    def checks(self, outputs, refs):
        raise NotImplementedError


class DenseLadder(Workload):
    """Example 1 (dense 2x2, alpha = 1/2): the `convergence` ladder of radau5."""

    name = "dense-ladder"
    T_END = 10.0
    LADDER = (20, 40, 80, 160, 320, 640)
    ORACLE_N = 40  # smallest ladder N with a contour level; direct_cq uses J = 256
    SLOPE, SLOPE_TOL = 4.5, 0.3
    SATURATION = 1e-7  # errors below this are excluded from the slope fit
    FINEST_MAX = 1e-8
    ORACLE_REL = 1e-6

    def build_problem(self):
        self.problem = caputo.example1_problem().problem
        self.configs = tuple(
            fastcq.CQConfig(tableau=RADAU5, h=self.T_END / n, N=n, K=25)
            for n in self.LADDER
        )

    def family(self):
        return operators.dense_operator(None, caputo.EXAMPLE1_MATRIX)

    def references(self):
        cfg = self.configs[self.LADDER.index(self.ORACLE_N)]
        return {"u_exact": self.problem.u_exact(self.T_END),
                "direct": fastcq.direct_cq(self.problem, cfg)}

    def checks(self, outputs, refs):
        errs = np.array([max_abs(u - refs["u_exact"]) for u in outputs])
        hs = self.T_END / np.array(self.LADDER)
        fit = errs > self.SATURATION
        slope = (float(np.polyfit(np.log(hs[fit]), np.log(errs[fit]), 1)[0])
                 if fit.sum() >= 2 else math.nan)
        u_fast = outputs[self.LADDER.index(self.ORACLE_N)]
        diff = max_abs(u_fast - refs["direct"])
        bound = self.ORACLE_REL * max(1.0, max_abs(refs["direct"]))
        return [
            Check("convergence-slope", abs(slope - self.SLOPE) <= self.SLOPE_TOL,
                  f"slope {slope:.3f} over {int(fit.sum())} pre-saturation points, "
                  f"want {self.SLOPE} +- {self.SLOPE_TOL}"),
            Check("finest-error", errs[-1] <= self.FINEST_MAX,
                  f"|u - u_exact| = {errs[-1]:.3e} at N={self.LADDER[-1]}, "
                  f"want <= {self.FINEST_MAX:g}"),
            Check("fast-vs-direct", diff <= bound,
                  f"N={self.ORACLE_N}: |fast - direct| = {diff:.3e}, bound {bound:.3e}"),
        ]


class Subdiffusion(Workload):
    """Example 2 (16^3 periodic subdiffusion) at the `subdiffusion` defaults
    t = 123.45, K = 20, kappa = 12, J = 14, with N = 2e4 (README: why not 1e5)."""

    name = "subdiffusion"
    GRID = 16
    T_END = 123.45
    N = 20_000

    def build_problem(self):
        self.problem = caputo.example2_problem(self.GRID, t_max=self.T_END * 1.01).problem
        self.configs = (fastcq.CQConfig(tableau=RADAU5, h=self.T_END / self.N, N=self.N,
                                        K=20, kappa=12, J=14),)

    def family(self):
        return operators.periodic_compact_fd_3d(self.GRID)

    def modal_symbols(self):
        """Operator and mass symbols a, m of the compact-FD scheme on the
        wave-number-1 modes, the only modes the solution contains."""
        eta = 2.0 * np.pi / self.GRID
        return (2.0 * np.cos(eta) - 2.0) / eta**2, 5.0 / 6.0 + np.cos(eta) / 6.0

    def spatial_floor(self, h_minus, h_plus):
        """Sup-norm bound on the semi-discrete error (derivation in README).

        The error e solves D^a e + lam e = (1 - lam) u with lam = -a/m; its
        kernel is positive with integral 1/lam, and |u| <= |h-| + 2|h+|.
        """
        a, m = self.modal_symbols()
        lam = -a / m
        return abs(1.0 - lam) / lam * max_abs(np.abs(h_minus) + 2.0 * np.abs(h_plus))

    def references(self):
        _, h_minus, h_plus = caputo.example2_fields(self.GRID)
        a, m = self.modal_symbols()
        trig = caputo.HalfOrderTrigTable(self.T_END * 1.01)
        modal = operators.Problem(
            family=operators.dense_operator(m * np.eye(2), a * np.eye(2)),
            alpha=0.5,
            g=operators.SeparableInhomogeneity(
                m * np.eye(2), lambda ts: np.stack([trig.f1(ts), trig.f2(ts)], axis=-1)),
        )
        cfg = self.configs[0]
        amp, _ = fastcq.fast_solve(modal, cfg)
        # both backends share the contour, so they differ by rounding that
        # the quadrature amplifies; the contour error model bounds that
        theta = cfg.resolved_theta(self.problem.family)
        return {"u_exact": self.problem.u_exact(self.T_END),
                "floor": self.spatial_floor(h_minus, h_plus),
                "modal": h_minus * amp[0] + h_plus * amp[1],
                "modal_model": contour_error_model(cfg.K, cfg.Lambda, theta)}

    def checks(self, outputs, refs):
        (u,) = outputs
        err = max_abs(u - refs["u_exact"])
        diff = max_abs(u - refs["modal"])
        bound = refs["modal_model"] * max(1.0, max_abs(refs["modal"]))
        return [
            Check("spatial-floor", err <= refs["floor"],
                  f"|u - u_exact| = {err:.4e}, 16^3 spatial bound {refs['floor']:.4e}"),
            Check("spectral-vs-modal", diff <= bound,
                  f"|u - modal dense solve| = {diff:.3e}, contour model "
                  f"{refs['modal_model']:.2e} x max(1,|u|) = {bound:.3e}"),
        ]


WORKLOADS = {w.name: w for w in (DenseLadder, Subdiffusion)}
