"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measurements.

Two legs depend on facts outside the solver, and each test states its own:

* Criterion 2 sizes the contour per operator family. The hyperbola error
  decays like exp(-2 pi d K / a(rho)) with the strip half-width d capped
  at theta/2, so the pi/6-wide sector of the Schroedinger family with
  transparent boundaries (TBC) needs far more nodes than the pi/2 sector
  of the dense and subdiffusion families for the same accuracy
  (Lopez-Fernandez, Palencia & Schaedle, SIAM J. Numer. Anal. 44, 2006).
  Each leg runs at `contour.sized_K`: the smallest K >= 25 at which the
  contour error model minimised by `contour.select_parameters` predicts
  <= 1e-7.
* The 1 -> 4 worker march speedup needs four usable CPUs; on fewer the
  2x gate exceeds the ideal ceiling, so that leg is skipped there. The
  marches now run in the calling thread whatever the worker count, so
  where the leg runs it is expected to read about 1x.
"""

import os
import time

import numpy as np
import pytest

import fraccq
from fraccq import (
    CQConfig,
    direct_cq,
    fast_solve,
    radau_iia,
)
from fraccq import contour, fastcq
from fraccq.caputo import EXAMPLE1_MATRIX
from fraccq.cli import _EXPERIMENTS, schrodinger_rows, selftest_checks
from fraccq.operators import ConstantInhomogeneity, Problem, dense_operator


def report(name, ok, detail):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------


def test_criterion_1_convergence_orders(example1):
    """Fitted error slopes 1.0 / 3.0 / 4.5 (+-0.3) at t = N h = 10; K=10
    saturates while K=25 reaches 1e-8. Budget 5 minutes."""
    t_start = time.time()
    targets = {1: 1.0, 2: 3.0, 3: 4.5}
    ladders = {1: (80, 160, 320, 640, 1280, 2560),
               2: (160, 320, 640, 1280, 2560),
               3: (20, 40, 80, 160, 320, 640)}
    slopes = {}
    min_err_25 = np.inf
    for s, ladder in ladders.items():
        errs, hs = [], []
        for n in ladder:
            h = 10.0 / n
            cfg = CQConfig(tableau=radau_iia(s), h=h, N=n, K=25)
            u, _ = fast_solve(example1, cfg)
            errs.append(float(np.max(np.abs(u - example1.u_exact(10.0)))))
            hs.append(h)
        errs, hs = np.array(errs), np.array(hs)
        min_err_25 = min(min_err_25, errs.min())
        mask = errs > 1e-7  # pre-saturation range
        slopes[s] = float(np.polyfit(np.log(hs[mask]), np.log(errs[mask]), 1)[0])

    floor_errs = []
    for n in ladders[3]:
        cfg = CQConfig(tableau=radau_iia(3), h=10.0 / n, N=n, K=10)
        u, _ = fast_solve(example1, cfg)
        floor_errs.append(float(np.max(np.abs(u - example1.u_exact(10.0)))))
    k10_floor = min(floor_errs)
    elapsed = time.time() - t_start

    detail = (f"slopes={{1: {slopes[1]:.2f}, 2: {slopes[2]:.2f}, 3: {slopes[3]:.2f}}}, "
              f"K=10 floor {k10_floor:.1e}, K=25 min err {min_err_25:.1e}, {elapsed:.0f}s")
    ok = (all(abs(slopes[s] - targets[s]) <= 0.3 for s in targets)
          and k10_floor > 1e-6 and min_err_25 <= 1e-8 and elapsed <= 300)
    report("convergence-orders", ok, detail)
    for s, target in targets.items():
        assert abs(slopes[s] - target) <= 0.3, f"s={s}: slope {slopes[s]:.3f}"
    assert k10_floor > 1e-6, "K=10 run shows no saturation floor"
    assert min_err_25 <= 1e-8, "K=25 run does not reach 1e-8"
    assert elapsed <= 300


def test_criterion_2_fast_direct_equivalence(example1, example2_small, tbc_problem_small):
    """|fast - direct| <= 1e-6 * max(1, |u|) for all three backends and
    N in {50, 200, 500}, each backend at its sector-sized K. Budget 10
    minutes.

    K is the smallest K >= 25 at which the contour error model predicts
    <= 1e-7 at the family's resolved sector angle. For the dense and
    subdiffusion families (theta = pi/2, model 8.5e-11 at K=25) that is
    K=25. For the TBC family theta = theta1(0.75, 0) = pi/6 caps the strip
    half-width at pi/12; the model predicts 1.8e-3 at K=25 and 1.0e-7 at
    K=64, and the measured relative |fast - direct| falls geometrically in
    K (about 3e-4 at K=25, 5e-6 at K=40, 2e-8 at K=60 for N=500), so the
    TBC legs run at K=64. The TBC legs are also run at K=25 and held to
    the model's K=25 prediction, which keeps the size of that gap visible.
    """
    t_start = time.time()
    cases = [
        ("dense-2x2", example1, radau_iia(3), 1.0),
        ("subdiffusion-8^3", example2_small, radau_iia(3), 1.0),
        ("tbc-101", tbc_problem_small, radau_iia(3), 0.5),
    ]
    failures = []
    for name, prob, tab, t_end in cases:
        probe = CQConfig(tableau=tab, h=t_end, N=1)
        theta = probe.resolved_theta(prob.family, prob.alpha)
        k_sized = contour.sized_K(probe.Lambda, theta)
        # (K, relative bound): the criterion at the sector-sized K, plus the
        # model-bounded K=25 run where the sector forces a larger K
        legs = [(k_sized, 1e-6)]
        if k_sized > 25:
            legs.append((25, contour.error_model(25, probe.Lambda, theta)))
        print(f"  {name}: theta={theta:.4f}, sector-sized K={k_sized}")
        for k_nodes, rel_bound in legs:
            for n in (50, 200, 500):
                cfg = CQConfig(tableau=tab, h=t_end / n, N=n, K=k_nodes)
                u_fast, _ = fast_solve(prob, cfg)
                u_dir = direct_cq(prob, cfg)
                diff = float(np.max(np.abs(u_fast - u_dir)))
                bound = rel_bound * max(1.0, float(np.max(np.abs(u_dir))))
                ok = diff <= bound
                print(f"  {name} K={k_nodes} N={n}: |fast-direct|={diff:.2e} "
                      f"bound={bound:.2e} {'ok' if ok else 'VIOLATION'}")
                if not ok:
                    failures.append((name, k_nodes, n, diff, bound))
    elapsed = time.time() - t_start
    report("fast-direct-equivalence", not failures and elapsed <= 600,
           f"{len(failures)} violation(s), {elapsed:.0f}s")
    assert elapsed <= 600
    assert not failures, (
        f"fast-vs-direct violations (name, K, N, diff, bound): {failures}; "
        "at the sector-sized K the bound is 1e-6*max(1,|u|), at K=25 it is "
        "the contour error model's prediction"
    )


def test_criterion_3_complexity_counters():
    """Exact counter identities for 10 random (N, kappa, Lambda) triples."""
    rng = np.random.default_rng(314159)
    zero_g = Problem(family=dense_operator(None, EXAMPLE1_MATRIX), alpha=0.5,
                     g=ConstantInhomogeneity(np.zeros(2)))
    checked = 0
    while checked < 10:
        n = int(rng.integers(25, 2500))
        kappa = int(rng.integers(5, 41))
        lam = int(rng.choice([2, 3, 5, 7]))
        k_nodes = int(rng.integers(8, 31))
        if n <= kappa + 1:
            continue
        cfg = CQConfig(tableau=radau_iia(2), h=1e-3, N=n, K=k_nodes,
                       Lambda=lam, kappa=kappa, J=4 * kappa)
        _, stats = fast_solve(zero_g, cfg)
        # L = ceil(log_Lambda(N / (kappa+1))), evaluated in exact integers
        levels = 0
        cap = kappa + 1
        while n > cap:
            cap *= lam
            levels += 1
        assert lam ** (levels - 1) * (kappa + 1) < n <= lam**levels * (kappa + 1)
        assert stats.resolvent_solves == levels * (k_nodes + 1), (
            f"N={n} kappa={kappa} Lambda={lam}: solves {stats.resolvent_solves}")
        assert stats.rk_steps == (k_nodes + 1) * (n - kappa - 1), (
            f"N={n} kappa={kappa} Lambda={lam}: steps {stats.rk_steps}")
        checked += 1
    report("complexity-counters", True, "10 random triples exact")


def _subdiffusion_march_runner():
    """Timed fast solve of the 16^3 subdiffusion problem; returns the
    per-phase wall times for a step count and a worker count. Each step
    count solves its own problem, which keeps its stage table, so rungs
    can interleave without rebuilding tables."""
    problems = {}
    tab = radau_iia(3)
    t_end = 123.45

    def run(n, workers):
        if n not in problems:
            problems[n] = fraccq.example2_problem(16).problem
        cfg = CQConfig(tableau=tab, h=t_end / n, N=n, K=20, kappa=12, J=14,
                       workers=workers)
        _, stats = fast_solve(problems[n], cfg)
        return stats.wall_times

    return run


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def test_criterion_4_scaling_shape():
    """March time linear in N (exponent 1.0 +- 0.2) over N = 3e4..1e6,
    resolvent time sublinear and first-block time flat (ratio <= 2) over
    N = 1e3..1e5, at grid 16^3. The worker-speedup leg of this criterion
    is `test_criterion_4_worker_speedup`.

    The marches run on the rank-2 real time factors of the separable data,
    one real matrix product per block of up to 1024 steps against the
    descending powers the stage plan keeps. On a 2-CPU host they took
    about 0.1 ms at N = 1e3, 2 ms at 1e5 and 18-22 ms at 1e6. About 70 us
    of that is fixed per solve (a few calls per level), which would
    dominate a 1e3 rung and flatten the fit, so the march leg is fitted
    from N = 3e4 up, where the blocks dominate.

    The level solves and the first block are one weighted solve each, in
    that order. On the same host the resolvent phase took about 0.45 ms at
    N = 1e3 and 0.55 ms at 1e5 (63 and 126 contour nodes), and the first
    block about 0.5 ms at every N (its J = 14 circle rule splits 8 nodes,
    the upper half circle of this real problem; the split is of
    Delta(zeta_j), not of Delta(zeta_j)/h, so after the warm-up call every
    timed first block reuses the split that its problem keeps). Each leg times phases of a millisecond or less, so the rungs
    are interleaved, each solved 7 times, and each phase's minimum is
    taken: a disturbed host lengthens single phases but rarely all seven.
    """
    run = _subdiffusion_march_runner()
    march_ladder = (30000, 100000, 300000, 1000000)
    solve_ladder = (1000, 10000, 100000)
    rungs = sorted(set(march_ladder + solve_ladder))
    for n in rungs:
        run(n, 2)  # builds each rung's table and plan and warms caches before timing
    reps = {n: [] for n in rungs}
    for _ in range(7):
        for n in rungs:
            reps[n].append(run(n, 2))

    def fastest(phase, ladder):
        return [min(r[phase] for r in reps[n]) for n in ladder]

    march = fastest("rk_marches", march_ladder)
    resolvent = fastest("resolvent_solves", solve_ladder)
    first_block = fastest("first_block", solve_ladder)
    exponent = float(np.polyfit(np.log(march_ladder), np.log(march), 1)[0])
    fb_ratio = max(first_block) / min(first_block)
    res_growth = resolvent[-1] / resolvent[0]
    n_growth = solve_ladder[-1] / solve_ladder[0]

    def rungs_ms(ladder, times):
        return ", ".join(f"{n}: {t * 1e3:.3f}" for n, t in zip(ladder, times))

    detail = (f"march exponent {exponent:.2f}, first-block ratio {fb_ratio:.2f}, "
              f"resolvent growth {res_growth:.1f}x over {n_growth:.0f}x N; ms per rung: "
              f"march {{{rungs_ms(march_ladder, march)}}}, "
              f"resolvent {{{rungs_ms(solve_ladder, resolvent)}}}, "
              f"first block {{{rungs_ms(solve_ladder, first_block)}}}")
    ok = (abs(exponent - 1.0) <= 0.2 and fb_ratio <= 2.0
          and resolvent[-1] >= resolvent[0] and res_growth <= np.sqrt(n_growth))
    report("scaling-shape", ok, detail)
    assert abs(exponent - 1.0) <= 0.2, (
        f"march exponent {exponent:.3f}, expected 1.0 +- 0.2 ({detail})")
    assert fb_ratio <= 2.0, (
        f"first-block time ratio {fb_ratio:.2f} over the N ladder exceeds 2 ({detail})")
    assert resolvent[-1] >= resolvent[0] and res_growth <= np.sqrt(n_growth), (
        f"resolvent times {resolvent} are not sublinear in N ({detail})")


@pytest.mark.skipif(_usable_cpus() < 4,
                    reason=f"needs 4 usable CPUs for a 1 -> 4 worker speedup, "
                           f"found {_usable_cpus()}")
def test_criterion_4_worker_speedup():
    """>= 2x march speedup from 1 to 4 workers at N = 20000 on grid 16^3
    (median of 3 runs each).

    With fewer than 4 usable CPUs the gate exceeds the ideal ceiling, so
    the test is skipped there. The marches run on the time factors of the
    separable data in the calling thread, one level after another, so the
    worker count does not reach them: on a 2-CPU host with BLAS pinned to
    one thread they took 4.4 ms with 1 worker, 4.4 ms with 2 and 4.1 ms
    with 4 (medians of 5). Where this leg runs it is expected to read
    about 1x and fail; the gate is the criterion's and stays. The BLAS
    pool sizes are printed because an unpinned pool makes the 1-worker
    baseline itself parallel.
    """
    run = _subdiffusion_march_runner()
    run(1000, 4)  # warm caches before timing
    speed_n = 20000
    t1 = float(np.median([run(speed_n, 1)["rk_marches"] for _ in range(3)]))
    t4 = float(np.median([run(speed_n, 4)["rk_marches"] for _ in range(3)]))
    speedup = t1 / t4
    blas = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    detail = (f"march 1 worker {t1:.2f}s, 4 workers {t4:.2f}s, speedup {speedup:.2f}x, "
              f"{_usable_cpus()} usable CPUs, {blas}")
    report("worker-speedup", speedup >= 2.0, detail)
    assert speedup >= 2.0, f"march speedup 1->4 workers is {speedup:.2f}x ({detail})"


def test_criterion_5_weight_stability():
    """||W_n|| <= C (n h)^(alpha-1) e^(gamma n h) for n <= 1000, with C and
    gamma >= 0 fitted on n <= 100 (the source bound has gamma >= 0)."""
    tab = radau_iia(3)
    fam = dense_operator(None, EXAMPLE1_MATRIX)
    alpha, h = 0.5, 0.01
    ns = np.arange(1, 1001)
    w = fastcq.weight_matrices_direct(fam, tab, alpha, h, ns)
    norms = np.array([np.linalg.norm(w[i], 2) for i in range(len(ns))])
    nh = ns * h
    z = np.log(norms) - (alpha - 1) * np.log(nh)
    fit = ns <= 100
    gamma = max(0.0, float(np.polyfit(nh[fit], z[fit], 1)[0]))
    log_c = float(np.max(z[fit] - gamma * nh[fit]))
    margin = z - (log_c + gamma * nh)
    worst = float(np.max(margin))
    ok = worst <= np.log(1.05)
    report("weight-stability", ok,
           f"gamma={gamma:.3f} C={np.exp(log_c):.3f} worst margin e^{worst:.2f}")
    assert worst <= np.log(1.05), f"late-time growth beyond the fitted envelope: e^{worst:.3f}"


def test_criterion_6_contour_exponential_convergence():
    """Error vs K on the Schroedinger problem at t = 0.5 decays at least
    geometrically (trend ratio <= 0.7 per +5 nodes) until the kappa floor.

    Single steps wobble (quadrature error terms oscillate with K), so the
    decay rate is taken from the least-squares trend over the pre-floor
    range, which is the curve shape the criterion describes.
    """
    tab = radau_iia(3)
    problem, _ = fraccq.example3_problem(401, 2.0)
    h, n_steps = 0.00025, 2000  # t = 0.5
    cfg_ref = CQConfig(tableau=tab, h=h, N=n_steps, K=110, kappa=110, J=440, workers=2)
    u_ref, _ = fast_solve(problem, cfg_ref)
    ks = np.arange(15, 55, 5)
    errs = []
    for k_nodes in ks:
        cfg = CQConfig(tableau=tab, h=h, N=n_steps, K=int(k_nodes), kappa=20,
                       J=80, workers=2)
        u, _ = fast_solve(problem, cfg)
        errs.append(float(np.max(np.abs(u - u_ref))))
    errs = np.array(errs)
    pre_floor = errs > 3.0 * errs.min()
    pre_floor[np.argmin(errs):] = False
    assert np.count_nonzero(pre_floor) >= 4, f"too few pre-floor points: {errs}"
    slope = float(np.polyfit(ks[pre_floor], np.log(errs[pre_floor]), 1)[0])
    ratio_per_5 = float(np.exp(5 * slope))
    # geometric-mean ratio per +5 nodes between the range endpoints
    count = int(np.count_nonzero(pre_floor))
    per5_endpoint = float((errs[pre_floor][-1] / errs[pre_floor][0]) ** (1.0 / (count - 1)))
    detail = (f"errors {errs[0]:.1e} -> {errs[-1]:.1e}, trend ratio/+5 "
              f"{ratio_per_5:.3f}, endpoint ratio/+5 {per5_endpoint:.3f}")
    ok = ratio_per_5 <= 0.7 and per5_endpoint <= 0.7
    report("contour-exponential-convergence", ok, detail)
    assert ratio_per_5 <= 0.7
    assert per5_endpoint <= 0.7


def test_criterion_7_tbc_reference_agreement():
    """`fraccq schrodinger --K 50 --reference` at its defaults: [-2,2] n=801
    K=50 vs [-8,8] n=1601 K=110 within 1e-4 in max norm on the aligned grid
    points (every other run point), at every snapshot t = 0.05..1."""
    t_start = time.time()
    spec = dict(_EXPERIMENTS["schrodinger"].flags, K=50, reference=True)
    rows = schrodinger_rows(spec)
    errs = [err for t, _, _, err in rows if t > 0 and err != ""]
    assert len(errs) == 20 * 401
    worst = max(errs)
    elapsed = time.time() - t_start
    ok = worst <= 1e-4
    report("tbc-correctness", ok, f"worst snapshot error {worst:.2e}, {elapsed:.0f}s")
    assert worst <= 1e-4


def test_criterion_8_unit_property_suites():
    """The module invariant batteries (order conditions, Delta identity,
    eigendecomposition residuals, spectral-vs-dense, Vieta, Caputo power
    rule) all pass; the full detail lives in the unit modules, this runs
    the condensed battery."""
    results = list(selftest_checks())
    for name, ok, detail in results:
        print(f"  {name}: {'ok' if ok else 'FAIL'} ({detail})")
    ok = all(r[1] for r in results)
    report("unit-property-suites", ok, f"{len(results)} batteries")
    assert ok
