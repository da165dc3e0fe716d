"""Tests of the benchmark itself: every correctness check rejects a perturbed
output, the trace wrappers put the original functions back, and the
command fails without a source tree. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The fixtures run one workers=1 pass of each workload plus its references,
about half a minute on a 2-CPU machine.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fraccq import caputo, contour, fastcq, smallmat, tableau  # noqa: E402


def solved(cls):
    wl = cls()
    wl.build_problem()
    wl.build_tables()
    outputs, _, errors = wl.solve_pass(1)
    assert not errors
    return wl, outputs, wl.references()


@pytest.fixture(scope="module")
def dense():
    return solved(workloads.DenseLadder)


@pytest.fixture(scope="module")
def subdiffusion():
    return solved(workloads.Subdiffusion)


def failing(wl, outputs, refs):
    return {c.name for c in wl.checks(outputs, refs) if not c.ok}


def scaled(outputs, factor, index=None):
    return [u * factor if index in (None, i) else u for i, u in enumerate(outputs)]


def test_dense_checks(dense):
    wl, outputs, refs = dense
    assert failing(wl, outputs, refs) == set()
    # 1e-6 relative lifts the N=640 error from ~2e-9 to ~8e-7
    assert failing(wl, scaled(outputs, 1 + 1e-6), refs) >= {"convergence-slope", "finest-error"}
    # the oracle bound is 1e-6 * max(1, |u|) with |u| < 1, so 1e-5 is the smallest decade over it
    oracle_at = wl.LADDER.index(wl.ORACLE_N)
    assert failing(wl, scaled(outputs, 1 + 1e-5, oracle_at), refs) == {"fast-vs-direct"}


def test_subdiffusion_checks(subdiffusion):
    wl, outputs, refs = subdiffusion
    assert failing(wl, outputs, refs) == set()
    assert failing(wl, scaled(outputs, 1 + 1e-6), refs) == {"spectral-vs-modal"}
    # a snapshot 0.01 later: the exact solution moves by ~0.1 in max norm
    later = outputs[0] + wl.problem.u_exact(wl.T_END + 0.01) - refs["u_exact"]
    assert failing(wl, [later], refs) == {"spatial-floor", "spectral-vs-modal"}


def test_subdiffusion_floor_bound_is_above_the_measured_error(subdiffusion):
    wl, outputs, refs = subdiffusion
    err = workloads.max_abs(outputs[0] - refs["u_exact"])
    assert 0.25 * refs["floor"] < err < refs["floor"]


def test_bitwise_check_rejects_one_ulp():
    a = [np.array([1.0, 2.0]), np.array([3.0 + 1j])]
    b = [np.array([1.0, np.nextafter(2.0, 3.0)]), np.array([3.0 + 1j])]
    assert workloads.check_bitwise([a, [x.copy() for x in a]]).ok
    assert not workloads.check_bitwise([a, b]).ok


def test_trace_wrappers_record_and_restore():
    originals = {(m, a): vars(m)[a] for m, a in (
        (fastcq, "first_block"), (fastcq, "parallel_map"), (smallmat, "eig_small"),
        (smallmat, "power_alpha"), (tableau, "delta"), (tableau, "stability"),
        (contour, "select_parameters"), (contour, "mu_level"), (contour, "level_nodes"),
        (caputo, "caputo_oracle"))}
    wl = workloads.Subdiffusion()
    wl.build_problem()
    wl.configs = (dataclasses.replace(wl.configs[0], N=500, h=wl.T_END / 500),)
    plain, _, _ = wl.solve_pass(1)

    tracer = spans.Tracer()
    family = wl.family()
    run.install_pass_tracing(tracer, wl, family)
    try:
        traced, _, errors = wl.solve_pass(1, family)
        with pytest.raises(ZeroDivisionError):
            with tracer.span("failing"):
                1 / 0
    finally:
        tracer.restore()

    assert not errors and np.array_equal(plain[0], traced[0])
    for (module, attr), fn in originals.items():
        assert vars(module)[attr] is fn, f"{module.__name__}.{attr} not restored"
    assert "solve" not in vars(family) and "table" not in vars(wl.problem.g)
    names = {s["name"] for s in tracer.spans}
    assert names >= {"fastcq.first_block", "fastcq.parallel_map", "smallmat.eig_small",
                     "smallmat.power_alpha", "tableau.delta", "tableau.stability",
                     "contour.select_parameters", "operators.solve",
                     "operators.table_build", "operators.table_block", "failing"}
    by_id = {s["id"]: s for s in tracer.spans}
    for s in tracer.spans:
        assert s["end"] >= s["start"]
        if s["name"] == "smallmat.eig_small":
            assert by_id[s["parent"]]["name"] == "fastcq.parallel_map"


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "subdiffusion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
