"""Experiment harness: convergence, subdiffusion timing, transparent-boundary
Schroedinger snapshots, weight diagnostics, and a selftest battery.

Emits machine-readable CSV/JSON only; plotting is out of scope. Numeric
experiment output is bitwise reproducible for a fixed spec; wall-clock
fields in the timing report naturally are not.
"""

from __future__ import annotations

from . import _env  # noqa: F401  (pin BLAS pools before numpy loads)

import argparse
import csv
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import caputo, fastcq, operators, tableau as tableau_mod
from .errors import ConfigError, FracCQError

SCHEMA_PREFIX = "fraccq"

# per-method step ladders ending at t = N h = t_end, chosen to sit inside
# the pre-saturation convergence range at K = 25
_DEFAULT_LADDERS = {
    "radau1": (80, 160, 320, 640, 1280, 2560),
    "radau3": (160, 320, 640, 1280, 2560),
    "radau5": (20, 40, 80, 160, 320, 640),
}


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def step_list(text):
    """Comma-separated nonnegative step counts, as a tuple."""
    steps = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    if not steps or any(n < 0 for n in steps):
        raise ValueError(f"step list must hold nonnegative integers, got {text!r}")
    return steps


def boolean(text):
    """true/false or 1/0, in any case."""
    value = str(text).lower()
    if value not in ("true", "false", "1", "0"):
        raise ValueError(f"boolean expected, got {text!r}")
    return value in ("true", "1")


def writable_file(path):
    """path is no directory and its directory exists and is writable."""
    parent = os.path.dirname(os.path.abspath(path))
    return not os.path.isdir(path) and os.path.isdir(parent) and os.access(parent, os.W_OK)


class Flag(NamedTuple):
    """How a flag's text parses, and which parsed values are valid."""

    parse: Callable[[str], object]
    valid: Callable[[object], bool] | None = None
    rule: str = ""


_POSITIVE = Flag(float, lambda v: 0.0 < v < np.inf, "be finite and positive")

# Every flag, stated once. Booleans are switches on the command line
# and true/false in a file.
_FLAGS = {
    "alpha": Flag(float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "h": _POSITIVE,
    "t_end": _POSITIVE,
    "steps": Flag(step_list),
    "method": Flag(str, lambda v: v in _DEFAULT_LADDERS,
                   f"be one of {', '.join(_DEFAULT_LADDERS)}"),
    "K": Flag(int, lambda v: v >= 2, "be >= 2"),
    "Lambda": Flag(int, lambda v: v >= 2, "be >= 2"),
    "kappa": Flag(int, lambda v: v >= 1, "be >= 1"),
    "J": Flag(int),
    "grid": Flag(int),
    "a_half": _POSITIVE,
    "repeats": Flag(int, lambda v: v >= 1, "be >= 1"),
    "bound": _POSITIVE,
    "reference": Flag(boolean),
    "out": Flag(str, writable_file, "name a file in an existing, writable directory"),
    "format": Flag(str, lambda v: v in ("csv", "json"), "be csv or json"),
}


class Experiment(NamedTuple):
    """One experiment, stated once.

    flags maps each flag the experiment reads to its default; compute
    takes the resolved spec. output is the CSV header of the rows compute
    returns, "json" for a nested report written as JSON only, or None when
    compute prints its own lines and returns the exit code. rules are
    (key, valid, rule) checks the experiment adds to the flags' own.
    """

    flags: dict
    compute: Callable[[dict], object]
    output: tuple | str | None
    rules: tuple = ()


_STEP_COUNTS = ("steps", lambda v: min(v) >= 1, "hold step counts N >= 1")


def read_config_file(path, keys=_FLAGS):
    """Flat key=value file; keys are flag names, '#' starts a comment.

    A key outside `keys` (all flags by default) is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = _FLAGS[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return entries


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fraccq",
        description="Experiments for the fast Runge-Kutta convolution quadrature solver.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in _EXPERIMENTS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key in experiment.flags:
            if _FLAGS[key].parse is boolean:
                p.add_argument(f"--{key}", action="store_const", const=True)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=_FLAGS[key].parse)
        p.add_argument("--config", help="key=value file of this experiment's flags")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration and exit")
    return parser


def resolve_spec(args):
    """experiment defaults < config file < explicitly passed flags."""
    experiment = _EXPERIMENTS[args.experiment]
    defaults = experiment.flags
    spec = dict(defaults)
    if args.config:
        spec.update(read_config_file(args.config, defaults))
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    if "J" in spec and spec["J"] is None:
        spec["J"] = fastcq.default_J(spec["kappa"])
    _validate(spec, experiment)
    spec["experiment"] = args.experiment
    return spec


def _validate(spec, experiment):
    """Reject invalid values before any computation starts: each flag's
    own check, then the experiment's rules."""
    checks = [(key, _FLAGS[key].valid, _FLAGS[key].rule) for key in spec]
    for key, valid, rule in checks + list(experiment.rules):
        value = spec[key]
        if value is not None and valid is not None and not valid(value):
            raise ConfigError(f"{key} must {rule}, got {value}")
    if "J" in spec and spec["J"] < spec["kappa"] + 1:
        raise ConfigError(f"J must be >= kappa+1, got J={spec['J']} kappa={spec['kappa']}")
    if "h" in spec:
        step_count(spec["t_end"], spec["h"], "t_end")
    if experiment.output == "json" and spec["format"] == "csv":
        raise ConfigError("the report is nested; only json is supported")


def step_count(t, h, name):
    """t / h as a step count: a whole number within 1e-9 relative, from 1 to
    the index range; any other ratio raises ConfigError naming t and h."""
    n = t / h
    if not (np.isfinite(n) and 1 <= round(n) <= np.iinfo(np.intp).max
            and abs(n - round(n)) <= 1e-9 * n):
        raise ConfigError(f"{name}={t} is not a multiple of h={h} by a step count "
                          "from 1 to the index range")
    return round(n)


def _write_csv(path, schema, header, rows):
    out = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        out.write(f"# schema={SCHEMA_PREFIX}.{schema}.v1\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    finally:
        if path is not None:
            out.close()


def _write_json(path, schema, payload):
    payload = {"schema": f"{SCHEMA_PREFIX}.{schema}.v1", **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit_rows(spec, schema, header, rows):
    """Row tables default to CSV; --format json wraps the same content."""
    if (spec["format"] or "csv") == "csv":
        _write_csv(spec["out"], schema, header, rows)
    else:
        _write_json(spec["out"], schema,
                    {"header": list(header), "rows": [list(r) for r in rows]})


def _cq_config(spec, tab, N, h, **fixed):
    """The CQConfig of one solve: N steps of size h with the spec's K,
    Lambda, kappa and J (None if it has none), each unless fixed here."""
    params = {key: spec.get(key) for key in ("K", "Lambda", "kappa", "J")} | fixed
    return fastcq.CQConfig(tableau=tab, h=h, N=N, **params)


# ---------------------------------------------------------------------------
# experiments


def convergence_rows(spec, problem=None):
    """Rows (method, s, h, N, K, error_inf, fitted_slope_so_far, note)."""
    t_end = spec["t_end"]
    if problem is None:
        problem = caputo.example1_problem().problem
    methods = [spec["method"]] if spec["method"] else ["radau1", "radau3", "radau5"]
    rows = []
    for method in methods:
        tab = tableau_mod.by_name(method)
        log_h, log_e = [], []
        for n in spec["steps"] or _DEFAULT_LADDERS[method]:
            h = t_end / n
            u, _ = fastcq.fast_solve(problem, _cq_config(spec, tab, n, h))
            err = float(np.max(np.abs(u - problem.u_exact(t_end))))
            note = "direct-only" if n <= spec["kappa"] + 1 else ""
            log_h.append(np.log(h))
            log_e.append(np.log(max(err, 1e-300)))
            slope = ""
            if len(set(log_h)) >= 2:  # a slope needs two step sizes
                slope = float(np.polyfit(log_h, log_e, 1)[0])
            rows.append((method, tab.s, h, n, spec["K"], err, slope, note))
    return rows


def subdiffusion_report(spec, problem=None):
    grid, t_end, repeats = spec["grid"], spec["t_end"], spec["repeats"]
    if problem is None:
        problem = caputo.example2_problem(grid, t_max=t_end * 1.01).problem
    tab = tableau_mod.by_name(spec["method"])

    def timed_run(n, warm_up):
        cfg = _cq_config(spec, tab, n, t_end / n)
        # an untimed first solve pays the problem's one-off work (the
        # circle split and the stage plan with its contour parameters),
        # which would otherwise flag the first rung of every run
        built = fastcq.fast_solve(problem, cfg)[1].levels_built if warm_up else 0
        runs = [fastcq.fast_solve(problem, cfg) for _ in range(repeats)]
        u, stats = runs[-1]
        med = {key: float(np.median([st.wall_times[key] for _, st in runs]))
               for key in ("first_block", "rk_marches", "resolvent_solves")}
        # a disturbed repeat shows in the whole solve, less the table build
        # of a rung's first repeat; sub-millisecond phases jitter by more
        # than half their median on a quiet host
        totals = [st.wall_times["total"] - st.wall_times["table"] for _, st in runs]
        flagged = bool(max(totals) - min(totals) > 0.5 * np.median(totals))
        err = float(np.max(np.abs(u - problem.u_exact(t_end))))
        return {
            "N": n,
            "phases": med,
            "rk_steps": stats.rk_steps,
            "levels_built": built + sum(st.levels_built for _, st in runs),
            "resolvent_solves": stats.resolvent_solves,
            "first_block_solves": stats.first_block_solves,
            "error_inf": err,
            "timing_flagged": flagged,
        }

    ladder = [timed_run(n, i == 0) for i, n in enumerate(spec["steps"])]
    for rung in ladder:
        if rung["error_inf"] > spec["bound"]:
            raise FracCQError(
                f"error {rung['error_inf']:.3e} at N={rung['N']} exceeds bound {spec['bound']}"
            )
    return {
        "grid": grid,
        "t_end": t_end,
        "method": tab.name,
        **{key: spec[key] for key in ("K", "kappa", "J", "repeats")},
        "n_ladder": ladder,
    }


def schrodinger_rows(spec):
    n_points, a_half, alpha = spec["grid"], spec["a_half"], spec["alpha"]
    h, t_end = spec["h"], spec["t_end"]
    snap_times = [t_end * (i + 1) / 20 for i in range(20)]
    snap_steps = [step_count(t, h, "snapshot t") for t in snap_times]

    problem, offset = caputo.example3_problem(n_points, a_half, alpha)
    grid_x = problem.family.x

    tab = tableau_mod.by_name(spec["method"])
    if spec["reference"]:
        ref_points = 2 * (n_points - 1) + 1
        ref_problem, ref_offset = caputo.example3_problem(ref_points, 4.0 * a_half, alpha)
        ref_x = ref_problem.family.x
        # run grid points present on the reference grid (every other one)
        nearest = np.abs(ref_x[None, :] - grid_x[:, None]).argmin(axis=1)
        idx_run = np.flatnonzero(np.abs(ref_x[nearest] - grid_x) < 1e-9)
        if not idx_run.size:
            raise ConfigError("reference grid does not align with the run grid")
        idx_ref = nearest[idx_run]

    def snapshot(prob, off, n, **fixed):
        """v = u + u0 at t = n h; the transformed unknown u vanishes at t = 0,
        so there |v| = |u0| exactly."""
        if n == 0:
            return off
        return fastcq.fast_solve(prob, _cq_config(spec, tab, n, h, **fixed))[0] + off

    rows = []
    for t, n in zip([0.0, *snap_times], [0, *snap_steps]):
        v = snapshot(problem, offset, n)
        err_col = [""] * n_points
        if spec["reference"]:
            v_ref = snapshot(ref_problem, ref_offset, n, K=110, kappa=60, J=240)
            for i_run, i_ref in zip(idx_run, idx_ref):
                err_col[i_run] = float(abs(v[i_run] - v_ref[i_ref]))
        rows.extend((t, float(x), float(abs(v[i])), err_col[i]) for i, x in enumerate(grid_x))
    return rows


def weights_rows(spec):
    """Rows (n, K, level, err_direct_vs_contour, note).

    The contour weights are the ones fast_solve sums: for each K, those of
    the stage plan (fastcq.StagePlan) of an N = t_end / h step solve
    (step_count) on a zero-data example-1 problem, all levels in one
    batched solve, real parts as the plan folds. Indices at or beyond N
    fall outside every planned interval and are reported with a notice
    instead of data. Below-cutoff indices are evaluated on the first
    hyperbola anyway, to document why the direct block exists.
    """
    alpha, h, t_end = spec["alpha"], spec["h"], spec["t_end"]
    N = step_count(t_end, h, "t_end")
    tab = tableau_mod.by_name(spec["method"])
    family = operators.dense_operator(None, caputo.EXAMPLE1_MATRIX)
    dim = family.dim
    problem = operators.Problem(family, alpha, operators.ConstantInhomogeneity(np.zeros(dim)))
    n_list = spec["steps"]
    k_values = (10, 15, 20, 25) if spec["K"] is None else (spec["K"],)
    plan = fastcq.plan_levels(N, spec["kappa"], spec["Lambda"])
    inside = [n for n in n_list if n < plan.m[-1]]
    w_direct = {}
    if inside and plan.L:  # a plan without levels reads no weight
        w_direct = dict(zip(inside, fastcq.weight_rows_direct(family, tab, alpha, h, inside)))
    rows = []
    for K in k_values:
        if w_direct:
            stage = fastcq._stage_plan(problem, _cq_config(spec, tab, N, h, K=K), family.is_real)
            stage.add_levels(plan)
            nus = stage.z_alpha[:plan.L] * h ** -alpha
            x = family.solve(nus.ravel(), np.broadcast_to(np.eye(dim), (nus.size, dim, dim)))
            x = x.reshape(*nus.shape, dim, dim) / h
        for n in n_list:
            if n >= plan.m[-1] or plan.L == 0:
                rows.append((n, K, "", "", "beyond-plan" if n >= plan.m[-1] else "direct-only"))
                continue
            note = "below-cutoff" if n < plan.m[0] else ""
            li = max(0, int(np.searchsorted(plan.m, n, side="right")) - 1)  # m[li] <= n < m[li+1]
            coef = stage.scale[li] * stage.r[li] ** (n - plan.m[li])  # a negative power below m[0]
            w_c = np.einsum("k,ki,kab->aib", coef, stage.q[li], x[li]).reshape(dim, -1)
            rows.append((n, K, li + 1, float(np.max(np.abs(w_c.real - w_direct[n]))), note))
    return rows


def selftest_checks():
    """Fast battery of correctness checks; yields (name, ok, detail)."""
    rng = np.random.default_rng(2024)

    def check_tableaux():
        for s in (1, 2, 3):
            tableau_mod.radau_iia(s)  # Tableau refuses an inadmissible one
        return True, "radau1/3/5 pass structural assumptions"

    def check_delta():
        tab = tableau_mod.radau_iia(3)
        for _ in range(20):
            z = 0.9 * (rng.random() + 1j * rng.random())
            d = tableau_mod.delta(z, tab)
            inner = tab.A + z / (1 - z) * np.outer(np.ones(3), tab.b)
            resid = np.max(np.abs(d @ inner - np.eye(3)))
            if resid > 1e-12:
                return False, f"Delta identity residual {resid:.2e}"
        return True, "Delta(zeta) inverse identity"

    def check_caputo():
        import math
        got = caputo.caputo_oracle(lambda t: 2 * t, 0.5, 1.0)
        ref = 8 / (3 * math.sqrt(math.pi))
        return abs(got - ref) < 1e-10, f"power rule err {abs(got - ref):.2e}"

    def check_half_order_data():
        # t = 1.28 puts omega t = 1.28 pi on the branch edge of the Fresnel evaluation
        ts = np.array([0.3, 1.28, 5.0, 100.0])
        got = caputo.HalfOrderTrigTable(100.0).factors(ts)
        worst = 0.0
        for t, (f1, f2) in zip(ts, got):
            ref1 = caputo.caputo_oracle(lambda tau: np.pi * np.cos(np.pi * tau), 0.5, t)
            ref2 = caputo.caputo_oracle(lambda tau: np.pi * np.sin(np.pi * tau), 0.5, t)
            worst = max(worst, abs(f1 - ref1 - np.sin(np.pi * t)),
                        abs(f2 - ref2 - 1.0 + np.cos(np.pi * t)))
        return worst <= 1e-10, f"numpy Fresnel data vs oracle at t = 0.3, 1.28, 5, 100: {worst:.1e}"

    def check_plan():
        plan = fastcq.plan_levels(1000, 20, 5)
        return plan.m == (21, 105, 525, 1000), f"plan {plan.m}"

    def check_equivalence():
        problem = caputo.example1_problem().problem
        cfg = fastcq.CQConfig(tableau=tableau_mod.radau_iia(2), h=1.0 / 60, N=60, K=25)
        u_fast, stats = fastcq.fast_solve(problem, cfg)
        u_dir = fastcq.direct_cq(problem, cfg)
        diff = float(np.max(np.abs(u_fast - u_dir)))
        counters_ok = (
            stats.resolvent_solves == fastcq.plan_levels(60, 20, 5).L * (25 + 1)
            and stats.rk_steps == (25 + 1) * (60 - 21)
        )
        return diff < 1e-6 and counters_ok, f"fast-direct diff {diff:.2e}"

    def check_batched():
        nus = np.array([1.0 + 2.0j, 3.0 - 1.0j, 0.5j])
        for fam in (operators.dense_operator(None, caputo.EXAMPLE1_MATRIX),
                    operators.periodic_compact_fd_3d(4),
                    operators.schrodinger_tbc_1d(2.0, 61, 0.75)):
            ys = rng.standard_normal((3, fam.dim)) + 0j
            single = [fam.solve(n, y) for n, y in zip(nus, ys)]
            if not np.array_equal(fam.solve(nus, ys), single):
                return False, f"{type(fam).__name__}: batched solve differs from per-node"
            y = rng.standard_normal((fam.dim, 2)) + 0j
            w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            loop = sum(fam.solve(n, y @ wk) for n, wk in zip(nus, w))
            if np.max(np.abs(fam.solve(nus, y, weights=w) - loop)) > 1e-12 * np.max(np.abs(loop)):
                return False, f"{type(fam).__name__}: weighted sum differs from per-node"
        return True, "3 backends batched = per-node, weighted = per-node sum"

    def check_tbc():
        fam = operators.schrodinger_tbc_1d(2.0, 61, 0.75)
        nu = 3.0 + 2.0j
        z1, z2 = fam.roots(nu)
        phi, diag = fam.closed_rows(nu)  # the closed system, as a matrix for the residual
        y = np.linspace(0.0, 1.0, 61) + 0j
        resid = (np.diag(diag) + phi * (np.eye(61, k=1) + np.eye(61, k=-1))) @ fam.solve(nu, y) - y
        ok = abs(z1 * z2 - 1) < 1e-12 and abs(z1) < 1 < abs(z2) and np.max(np.abs(resid)) <= 1e-12
        return ok, f"|z1|={abs(z1):.3f} |z2|={abs(z2):.3f}"

    checks = [
        ("tableau-assumptions", check_tableaux),
        ("delta-identity", check_delta),
        ("caputo-power-rule", check_caputo),
        ("half-order-data", check_half_order_data),
        ("level-plan", check_plan),
        ("fast-vs-direct", check_equivalence),
        ("batched-solve", check_batched),
        ("tbc-roots", check_tbc),
    ]
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"exception: {exc}"
        yield name, ok, detail


def run_selftest(spec):
    failures = 0
    for name, ok, detail in selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 4
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------

# Every experiment: its flags with their defaults (it accepts exactly
# these), its function and its output. convergence method = None runs all
# three methods; J = None resolves to fastcq.default_J(kappa) = 2 kappa
# (40 for convergence and schrodinger, 24 for subdiffusion); schrodinger
# K = None runs the K that fast_solve sizes by the sector (64); weights
# K = None runs the K ladder (10, 15, 20, 25). weights --steps are weight
# indices n, so index 0 (W_0) is valid; the transparent boundary of
# schrodinger needs alpha < 1.
_EXPERIMENTS = {
    "convergence": Experiment(
        {"t_end": 10.0, "steps": None, "method": None,
         "K": 25, "Lambda": 5, "kappa": 20, "J": None, "out": None, "format": None},
        convergence_rows,
        ("method", "s", "h", "N", "K", "error_inf", "fitted_slope_so_far", "note"),
        rules=(_STEP_COUNTS,),
    ),
    "subdiffusion": Experiment(
        {"grid": 16, "t_end": 123.45, "steps": (1000, 10000, 100000), "method": "radau5",
         "K": 20, "Lambda": 5, "kappa": 12, "J": None,
         "repeats": 3, "bound": 0.05, "out": None, "format": None},
        subdiffusion_report,
        "json",
        rules=(_STEP_COUNTS,),
    ),
    "schrodinger": Experiment(
        {"grid": 801, "a_half": 2.0, "alpha": 0.75, "h": 0.00025, "t_end": 1.0,
         "method": "radau5", "K": None, "Lambda": 5, "kappa": 20, "J": None,
         "reference": False, "out": None, "format": None},
        schrodinger_rows,
        ("t", "x", "abs_u", "abs_err"),
        rules=(("alpha", lambda v: v < 1.0, "lie in (0, 1)"),),
    ),
    "weights": Experiment(
        {"alpha": 0.5, "h": 0.01, "t_end": 10.0, "method": "radau5",
         "steps": (0, 1, 2, 4, 8, 12, 16, 20, 21, 25, 30, 40, 60, 90, 130, 200, 300,
                   450, 700, 1000),
         "K": None, "Lambda": 5, "kappa": 20, "out": None, "format": None},
        weights_rows,
        ("n", "K", "level", "err_inf", "note"),
    ),
    "selftest": Experiment({}, run_selftest, None),
}


def main(argv=None):
    """Parse, resolve and validate the spec, compute, and write the result
    in the experiment's output form."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    name = args.experiment
    experiment = _EXPERIMENTS[name]
    try:
        spec = resolve_spec(args)
        if args.dump_config:
            for key in sorted(spec):
                print(f"{key}={spec[key]}")
            return 0
        result = experiment.compute(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FracCQError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if experiment.output is None:
        return result
    if experiment.output == "json":
        _write_json(spec["out"], name, result)
    else:
        _emit_rows(spec, name, experiment.output, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
