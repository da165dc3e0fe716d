"""Benchmark for fraccq: time to solution of the paper's examples 1 and 2.

Run from the repository root:

    python3 perfbench/run.py --workload dense-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run sets up its workload, runs one untimed warm-up pass, then
alternates timed passes at workers=1 and workers=2 until --seconds have
passed (at least one of each), checks every output, and prints one JSON
object as its last line. With --trace 1 it also runs one traced
workers=1 pass and reports per-layer metrics instead of end-to-end ones.
The inputs are fixed manufactured problems; --seed is recorded but selects
nothing (see README.md). Run records and span traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("dense-ladder", "subdiffusion")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up samples per run, the in-process one included; example 1's set-up
# is 10-15 s of adaptive quadrature, so it gets three samples, not five
SETUP_SAMPLES = {"dense-ladder": 3, "subdiffusion": 5}
PHASES = ("prepare", "first_block", "rk_marches", "resolvent_solves", "combine")
CHILD_TIMEOUT_S = 170


def pin_blas():
    # one BLAS thread, so a workers=2 pass uses at most two threads
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_fraccq():
    """Import fraccq from this checkout's src/, and nothing else."""
    if not (SRC / "fraccq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fraccq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fraccq

    if Path(fraccq.__file__).resolve().parent != SRC / "fraccq":
        raise SystemExit(f"perfbench: imported fraccq from {fraccq.__file__}, not {SRC}")
    import workloads

    return workloads


def machine_facts(blas_in):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_env_inherited": blas_in,
        "blas_env_used": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_only(name):
    """Child mode: one set-up in a fresh interpreter, timed from before the
    import of fraccq to ready."""
    t0 = time.perf_counter()
    workloads = import_fraccq()
    wl = workloads.WORKLOADS[name]()
    wl.build_problem()
    wl.build_tables()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_in_child(name):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def install_pass_tracing(tracer, wl, family):
    """Wrap every layer boundary a pass crosses; ``tracer.restore`` undoes it."""
    from fraccq import caputo, contour, fastcq, smallmat, tableau

    def counting_map(name, original):
        def parallel_map(fn, tasks, workers):
            tasks = list(tasks)
            with tracer.span(name, size=len(tasks)):
                return original(fn, tasks, workers)
        return parallel_map

    def table_builder(name, original):
        def table(*args, **kwargs):
            with tracer.span(name):
                built = original(*args, **kwargs)
            tracer.patch(built, "block", "operators.table_block")
            return built
        return table

    for owner, attr, name in (
        (fastcq, "first_block", "fastcq.first_block"),
        (smallmat, "eig_small", "smallmat.eig_small"),
        (smallmat, "power_alpha", "smallmat.power_alpha"),
        (tableau, "delta", "tableau.delta"),
        (tableau, "stability", "tableau.stability"),
        (contour, "select_parameters", "contour.select_parameters"),
        (contour, "mu_level", "contour.mu_level"),
        (contour, "level_nodes", "contour.level_nodes"),
        (caputo, "caputo_oracle", "caputo.oracle"),
        (family, "solve", "operators.solve"),
    ):
        tracer.patch(owner, attr, name)
    tracer.patch(fastcq, "parallel_map", "fastcq.parallel_map", counting_map)
    tracer.patch(wl.problem.g, "table", "operators.table_build", table_builder)


def timed_pass(wl, workers, family=None):
    t0 = time.perf_counter()
    outputs, stats, errors = wl.solve_pass(workers, family)
    wall = time.perf_counter() - t0
    return {
        "workers": workers,
        "wall_s": wall,
        "outputs": outputs,
        "solves": len(wl.configs),
        "errors": errors,
        "phases": {p: sum(st.wall_times[p] for st in stats) for p in PHASES},
        "rk_steps": sum(st.rk_steps for st in stats),
        "resolvent_solves": sum(st.resolvent_solves for st in stats),
        "first_block_solves": sum(st.first_block_solves for st in stats),
    }


def per_layer_metrics(tracer, w1, w2, traced):
    def med(passes, key):
        return statistics.median(p["phases"][key] for p in passes)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    out = {}
    for key in PHASES:
        out[f"fastcq.{key}_s"] = metric(med(w1, key), "s")
    for key in ("first_block", "rk_marches", "resolvent_solves"):
        out[f"fastcq.{key}_w2_s"] = metric(med(w2, key), "s")
    for key in ("rk_steps", "resolvent_solves", "first_block_solves"):
        out[f"fastcq.{key}"] = metric(w1[0][key], "count")
    out["fastcq.rk_steps_per_s"] = metric(w1[0]["rk_steps"] / med(w1, "rk_marches"), "1/s")
    out["fastcq.parallel_tasks"] = metric(tracer.totals("fastcq.parallel_map")[2], "count")

    calls, secs, _ = tracer.totals("operators.solve")
    out["operators.solve_calls"] = metric(calls, "count")
    out["operators.solve_s"] = metric(secs, "s")
    out["operators.solve_ms_per_call"] = metric(1e3 * secs / max(calls, 1), "ms")
    calls, secs, _ = tracer.totals("operators.table_block")
    out["operators.table_block_calls"] = metric(calls, "count")
    out["operators.table_block_s"] = metric(secs, "s")
    out["operators.table_build_s"] = metric(tracer.totals("operators.table_build")[1], "s")
    out["caputo.oracle_calls"] = metric(tracer.totals("caputo.oracle")[0], "count")
    out["caputo.problem_build_s"] = metric(tracer.totals("caputo.problem_build")[1], "s")
    for layer, fn in (("smallmat", "eig_small"), ("smallmat", "power_alpha"),
                      ("tableau", "delta"), ("tableau", "stability")):
        calls, secs, _ = tracer.totals(f"{layer}.{fn}")
        out[f"{layer}.{fn}_calls"] = metric(calls, "count")
        out[f"{layer}.{fn}_s"] = metric(secs, "s")
    out["contour.setup_s"] = metric(sum(
        tracer.totals(f"contour.{fn}")[1]
        for fn in ("select_parameters", "mu_level", "level_nodes")), "s")
    out["trace.overhead_s"] = metric(traced["wall_s"] - statistics.median(
        p["wall_s"] for p in w1), "s")
    return out


def run_workload(name, seed, seconds, trace):
    blas_in = {var: os.environ.get(var) for var in BLAS_VARS}
    pin_blas()
    tracer = None
    t0 = time.perf_counter()
    workloads = import_fraccq()
    wl = workloads.WORKLOADS[name]()
    if trace:
        import spans
        from fraccq import caputo

        tracer = spans.Tracer()
        for factory in ("example1_problem", "example2_problem", "example3_problem"):
            tracer.patch(caputo, factory, "caputo.problem_build")
        tracer.patch(caputo, "caputo_oracle", "caputo.oracle")
    wl.build_problem()
    if tracer:
        tracer.patch(wl.problem.g, "table", "operators.table_build")
    wl.build_tables()
    setup_samples = [time.perf_counter() - t0]
    if tracer:
        tracer.restore()
    else:
        setup_samples += [setup_in_child(name) for _ in range(SETUP_SAMPLES[name] - 1)]

    passes = [timed_pass(wl, 1)]  # warm-up, not timed
    timed = []
    t_loop = time.perf_counter()
    while not timed or time.perf_counter() - t_loop < seconds:
        timed += [timed_pass(wl, 1), timed_pass(wl, 2)]
    passes += timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w1 = [p for p in timed if p["workers"] == 1]
    w2 = [p for p in timed if p["workers"] == 2]

    traced = None
    if tracer:
        family = wl.family()
        install_pass_tracing(tracer, wl, family)
        try:
            traced = timed_pass(wl, 1, family)
        finally:
            tracer.restore()
        passes.append(traced)

    errors = [e for p in passes for e in p["errors"]]
    checks = []
    references_s = None
    if not errors:  # the checks need every output
        t_refs = time.perf_counter()
        refs = wl.references()
        references_s = time.perf_counter() - t_refs
        checks = wl.checks(timed[0]["outputs"], refs)
        checks.append(workloads.check_bitwise([p["outputs"] for p in passes]))
    attempted = sum(p["solves"] for p in passes) + len(checks)
    failed = len(errors) + sum(not c.ok for c in checks)

    if trace:
        metrics = per_layer_metrics(tracer, w1, w2, traced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "solve_s": {"value": statistics.median(p["wall_s"] for p in w1), "unit": "s"},
            "solve_w2_s": {"value": statistics.median(p["wall_s"] for p in w2), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    facts = machine_facts(blas_in)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts, "setup_samples_s": setup_samples,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        "checks": [c.__dict__ for c in checks], "references_s": references_s,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {name}: {len(w1)} + {len(w2)} timed passes, "
          f"attempted {attempted}, failed {failed}, references {references_s or 0:.2f} s")
    for e in errors:
        print(f"solve raised: {e}")
    for c in checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(c.ok for c in checks), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        pin_blas()
        setup_only(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
