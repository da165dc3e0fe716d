import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccq.cli import main, read_config_file
from fraccq.errors import ConfigError


def run_cli(args):
    return main(args)


def test_selftest_exit_code(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert out.count("PASS") >= 6


@pytest.mark.parametrize("fails", ["wrong", "raises"])
def test_selftest_reports_a_failing_check(monkeypatch, capsys, fails):
    """A check that fails prints FAIL with its name and the count of failed
    checks, and exits 4; a check that raises is reported as its exception."""
    from fraccq import fastcq
    original = fastcq.plan_levels

    def broken_plan_levels(N, kappa, Lambda):
        if N != 1000:  # the level-plan check's N; the fast-vs-direct solve keeps its plan
            return original(N, kappa, Lambda)
        if fails == "raises":
            raise RuntimeError("forced")
        return fastcq.LevelPlan(L=0, m=(N,))

    monkeypatch.setattr(fastcq, "plan_levels", broken_plan_levels)
    assert run_cli(["selftest"]) == 4
    out = capsys.readouterr().out
    detail = "exception: forced" if fails == "raises" else "plan (1000,)"
    assert f"FAIL level-plan: {detail}" in out
    assert out.count("FAIL") == 1 and "1 selftest check(s) failed" in out
    assert "selftest passed" not in out


def test_selftest_without_scipy_fails_only_the_oracle_checks(monkeypatch, capsys):
    """Without scipy (the oracle extra) the Caputo oracle raises ConfigError
    naming the extra, and selftest fails exactly its two oracle checks."""
    import sys
    from fraccq import caputo
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ConfigError, match=r"fraccq\[oracle\]"):
        caputo.caputo_oracle(lambda t: 2 * t, 0.5, 1.0)
    assert run_cli(["selftest"]) == 4
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    reason = "exception: the Caputo oracle needs scipy: install fraccq[oracle]"
    assert fails == [f"FAIL caputo-power-rule: {reason}", f"FAIL half-order-data: {reason}"]


def test_convergence_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["convergence", "--method", "radau5", "--steps", "20,40", "--K", "12"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "# schema=fraccq.convergence.v1"
    assert lines[1].split(",")[:4] == ["method", "s", "h", "N"]
    # N = 20 <= kappa+1 is served by the direct block alone
    row20 = lines[2].split(",")
    assert row20[3] == "20" and row20[-1] == "direct-only"
    row40 = lines[3].split(",")
    assert row40[3] == "40" and row40[-1] == ""
    assert float(row40[5]) < float(row20[5])  # error drops with h


def test_dump_config(capsys):
    for args, expected in ((["convergence", "--K", "30"], ("K=30", "experiment=convergence")),
                           (["schrodinger"], ("K=None", "experiment=schrodinger"))):
        assert run_cli([*args, "--dump-config"]) == 0
        out = capsys.readouterr().out.splitlines()
        for line in expected:
            assert line in out


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K=11\nkappa=9\n# comment line\nmethod=radau3\n")
    assert run_cli(["convergence", "--config", str(cfg), "--K", "13",
                    "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert "K=13" in out        # flag beats file
    assert "kappa=9" in out     # file beats default
    assert "method=radau3" in out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run_cli(["convergence", "--config", str(cfg)]) == 2
    with pytest.raises(ConfigError):
        read_config_file(str(cfg))


def test_flags_and_keys_an_experiment_does_not_read_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("alpha=0.3\n")
    real_cfg = tmp_path / "real.cfg"
    real_cfg.write_text("real=true\n")
    workers_cfg = tmp_path / "workers.cfg"
    workers_cfg.write_text("workers=2\n")
    h_cfg = tmp_path / "h.cfg"
    h_cfg.write_text("h=0.25\n")
    # folding real data is derived from the problem, and every phase of a
    # solve runs in the calling thread, so no experiment reads real or workers
    gone = [[name, *extra] for name in ("convergence", "subdiffusion", "schrodinger")
            for extra in (["--real"], ["--complex"], ["--config", str(real_cfg)],
                          ["--workers", "2"], ["--config", str(workers_cfg)])]
    # convergence derives h = t_end / N for each N of its ladder
    for args in (["convergence", "--alpha", "0.3"],
                 ["convergence", "--h", "0.25"],
                 ["convergence", "--config", str(h_cfg)],
                 ["weights", "--J", "400"],
                 ["subdiffusion", "--h", "5"],
                 ["schrodinger", "--steps", "10"],
                 ["convergence", "--config", str(cfg)],
                 *gone):
        assert run_cli(args + ["--out", str(out)]) == 2, args
        assert capsys.readouterr().out == "" and not out.exists(), args
    assert run_cli(["convergence", "--dump-config"]) == 0
    dumped = capsys.readouterr().out.splitlines()
    assert not [line for line in dumped if line.startswith(("alpha=", "grid=", "workers="))]


def test_config_file_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K=notanumber\n")
    assert run_cli(["convergence", "--config", str(cfg)]) == 2
    assert run_cli(["convergence", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_file_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K=13\nkappa 9\n")
    assert run_cli(["convergence", "--config", str(cfg)]) == 2
    assert "bad.cfg:2: expected key=value" in capsys.readouterr().err


def test_schrodinger_step_that_misses_the_snapshots_exits_2(capsys):
    """The 20 snapshot times t_end (i+1)/20 must be multiples of h: at
    t_end = 1, h = 3e-4 misses them, before any problem is built."""
    assert run_cli(["schrodinger", "--h", "0.0003"]) == 2
    assert "is not a multiple of h=0.0003" in capsys.readouterr().err


def test_unwritable_out_exits_2_before_computing(tmp_path, capsys):
    target = tmp_path / "missing" / "w.csv"
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"out={target}\n")
    base = ["weights", "--steps", "25", "--K", "15", "--t-end", "0.4", "--h", "0.01"]
    for extra in (["--out", str(target)], ["--config", str(cfg)], ["--out", str(tmp_path)]):
        assert run_cli(base + extra) == 2, extra
        assert capsys.readouterr().out == "", extra
    assert not target.parent.exists()


def test_weights_table(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli(["weights", "--steps", "0,5,25,45", "--K", "15",
                    "--t-end", "0.4", "--h", "0.01", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=fraccq.weights.v1"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
    # N = 40, kappa = 20: plan m = (21, 40)
    assert rows[0][4] == "below-cutoff"
    assert rows[5][4] == "below-cutoff"
    assert rows[25][4] == ""
    assert rows[45][4] == "beyond-plan"
    # below-cutoff indices carry a visibly larger quadrature error
    assert float(rows[5][3]) > float(rows[25][3])


@pytest.mark.parametrize("t_end, h", [("0.015", "0.01"), ("10", "0.3"), ("0.001", "0.01")])
def test_weights_refuses_a_t_end_that_is_no_multiple_of_h(t_end, h, capsys):
    """t_end / h = 1.5, 33.3 and 0.1 are no step counts: they ran N = 2
    (reporting direct-only), ran N = 33, or failed on an "N >= 1" that no
    flag names. Each exits 2 with one line naming t_end and h."""
    assert run_cli(["weights", "--t-end", t_end, "--h", h]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1 and "Traceback" not in captured.err
    assert f"t_end={float(t_end)} is not a multiple of h={float(h)}" in lines[0]


def test_weights_alpha_one_runs_on_the_narrower_sector(monkeypatch, tmp_path):
    """Example 1's spectrum has theta0 = pi/4, so at alpha = 1 the weights
    contours take the angle theta1(1, pi/4) = pi/4, not pi/2."""
    from fraccq import contour
    thetas = []
    original = contour.level_contours

    def recording(L, params, h, kappa):
        thetas.append(2.0 * params.phi)  # phi = theta/2
        return original(L, params, h, kappa)

    monkeypatch.setattr(contour, "level_contours", recording)
    out = tmp_path / "w.csv"
    assert run_cli(["weights", "--alpha", "1", "--steps", "25", "--K", "25",
                    "--t-end", "0.4", "--h", "0.01", "--out", str(out)]) == 0
    assert thetas == [np.pi / 4 * (1 - 1e-9)]
    err = float(out.read_text().splitlines()[2].split(",")[3])
    assert np.isfinite(err)


def test_schrodinger_snapshots(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli([
        "schrodinger", "--grid", "41", "--a-half", "2", "--h", "0.005",
        "--t-end", "0.1", "--K", "12", "--J", "40", "--kappa", "8",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=fraccq.schrodinger.v1"
    rows = [line.split(",") for line in lines[2:]]
    # t = 0 snapshot present and equal to |u0|
    t0_rows = [r for r in rows if float(r[0]) == 0.0]
    assert len(t0_rows) == 41
    mid = [r for r in t0_rows if abs(float(r[1])) < 1e-12]
    assert len(mid) == 1 and float(mid[0][2]) == pytest.approx(10.0)
    # twenty positive snapshot times
    times = sorted({float(r[0]) for r in rows})
    assert len(times) == 21
    assert times[-1] == pytest.approx(0.1)
    # modulus stays bounded
    assert max(float(r[2]) for r in rows) <= 11.0


def test_subdiffusion_report_smoke(tmp_path):
    out = tmp_path / "sub.json"
    code = run_cli([
        "subdiffusion", "--grid", "8", "--steps", "40,80", "--t-end", "2.0",
        "--K", "16", "--kappa", "10", "--J", "12", "--repeats", "1",
        "--bound", "0.2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fraccq.subdiffusion.v1"
    assert [r["N"] for r in payload["n_ladder"]] == [40, 80]
    rung = payload["n_ladder"][0]
    assert set(rung["phases"]) == {"first_block", "rk_marches", "resolvent_solves"}
    # the first rung builds the circle split and level 1, the second level 2
    assert [r["levels_built"] for r in payload["n_ladder"]] == [2, 1]
    assert rung["error_inf"] <= 0.2
    assert "worker_ladder" not in payload and "workers" not in rung


def test_subdiffusion_bound_violation_exit_3(tmp_path):
    code = run_cli([
        "subdiffusion", "--grid", "8", "--steps", "40", "--t-end", "2.0",
        "--K", "16", "--kappa", "10", "--J", "12", "--repeats", "1",
        "--bound", "1e-30", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 3


def test_weights_error_decreases_with_k(tmp_path):
    out = tmp_path / "wk.csv"
    assert run_cli(["weights", "--steps", "30", "--t-end", "0.4", "--h", "0.01",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    err_by_k = {}
    for line in lines:
        n, k, _, err, _ = line.split(",")
        if int(n) == 30:
            err_by_k[int(k)] = float(err)
    assert set(err_by_k) == {10, 15, 20, 25}
    assert err_by_k[25] < err_by_k[10]


def test_json_format_for_row_experiments(tmp_path):
    out = tmp_path / "w.json"
    assert run_cli(["weights", "--steps", "25", "--t-end", "0.4", "--h", "0.01",
                    "--K", "15", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fraccq.weights.v1"
    assert payload["header"] == ["n", "K", "level", "err_inf", "note"]
    assert payload["rows"][0][0] == 25


def test_subdiffusion_rejects_csv(tmp_path):
    assert run_cli(["subdiffusion", "--grid", "8", "--steps", "40",
                    "--format", "csv", "--out", str(tmp_path / "x.csv")]) == 2


def test_numeric_validation_before_compute(monkeypatch, capsys):
    from fraccq import cli

    def never(spec):
        raise AssertionError("an invalid spec reached its experiment")

    for name, experiment in cli._EXPERIMENTS.items():
        monkeypatch.setitem(cli._EXPERIMENTS, name, experiment._replace(compute=never))
    for args in (["convergence", "--K", "1"],
                 ["convergence", "--kappa", "0"],
                 ["convergence", "--alpha", "1.5"],
                 ["weights", "--alpha", "1.5"],
                 # step counts N >= 1; weights --steps are indices, and W_0 exists
                 ["convergence", "--steps", "0"],
                 ["subdiffusion", "--steps", "0"],
                 ["convergence", "--t-end", "nan"],
                 ["weights", "--t-end", "inf"],
                 ["weights", "--t-end", "nan"],
                 ["schrodinger", "--t-end", "inf"],
                 ["weights", "--h", "inf"],
                 # the transparent boundary needs alpha < 1; a_half > 0 orders the grid
                 ["schrodinger", "--alpha", "1"],
                 ["schrodinger", "--a-half", "-2"],
                 # an error > nan is never true, so a nan bound would switch the check off
                 ["subdiffusion", "--bound", "nan"],
                 ["subdiffusion", "--bound", "-1"]):
        assert run_cli(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err, args
    assert run_cli(["weights", "--steps", "0", "--dump-config"]) == 0


def test_subdiffusion_explicit_flags_equal_to_global_defaults_are_kept(tmp_path, capsys):
    # K=25, kappa=20, J=160 differ from subdiffusion's defaults; passed
    # explicitly they must run as given, and J = None resolves to
    # fastcq.default_J(kappa) = 24, which the report and --dump-config show
    base = ["subdiffusion", "--grid", "8", "--steps", "100", "--repeats", "1",
            "--bound", "1"]
    explicit = ["--K", "25", "--kappa", "20", "--J", "160"]
    for flags, expected in ((explicit, (25, 20, 160)), ([], (20, 12, 24))):
        out = tmp_path / "sub.json"
        assert run_cli(base + flags + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["K"], payload["kappa"], payload["J"]) == expected
        assert run_cli(base + flags + ["--dump-config"]) == 0
        dumped = capsys.readouterr().out.splitlines()
        assert {f"K={expected[0]}", f"kappa={expected[1]}", f"J={expected[2]}"} <= set(dumped)


@pytest.mark.parametrize("rk_marches, totals, flagged", [
    # the first entry is the untimed warm-up solve, the others the repeats;
    # 0.3 ms of jitter in a 0.4 ms phase is more than half its median
    ((4e-4, 4e-4, 7e-4, 4e-4), (0.0124, 0.0124, 0.0127, 0.0124), False),
    ((4e-4, 4e-4, 4e-4, 4e-4), (0.0100, 0.0100, 0.0100, 0.0200), True),
    # a cold first solve, three times the others, is the warm-up's alone
    ((1e-3, 4e-4, 4e-4, 4e-4), (0.0300, 0.0100, 0.0100, 0.0100), False),
])
def test_subdiffusion_timing_flag_reads_the_total(monkeypatch, rk_marches, totals, flagged):
    """The flag fires on a repeat whose whole solve is a 2x outlier, not on
    sub-millisecond jitter in one phase, and not on a slow first solve of
    the process: the first rung runs one untimed solve before its
    repeats."""
    from fraccq import cli, example2_problem
    from fraccq.fastcq import RunStats

    problem = example2_problem(8, t_max=2.0).problem
    first_rung = iter(zip(rk_marches, totals))

    def stub_solve(prob, cfg):
        rk, total = next(first_rung)
        times = {"first_block": 1e-3, "rk_marches": rk, "resolvent_solves": 1e-3,
                 "table": 0.0, "total": total}
        return problem.u_exact(cfg.N * cfg.h), RunStats(wall_times=times)

    monkeypatch.setattr(cli.fastcq, "fast_solve", stub_solve)
    spec = dict(cli._EXPERIMENTS["subdiffusion"].flags, grid=8, t_end=1.0, steps=(40,), J=14)
    report = cli.subdiffusion_report(spec, problem)
    assert next(first_rung, None) is None  # the warm-up and the three repeats
    assert report["n_ladder"][0]["timing_flagged"] is flagged


def test_config_file_booleans(tmp_path, capsys):
    """A config file spells a switch true/false or 1/0 in any case; any
    other word exits 2."""
    cfg = tmp_path / "ref.cfg"
    for text, expected in (("true", True), ("FALSE", False), ("1", True), ("0", False)):
        cfg.write_text(f"reference={text}\n")
        assert run_cli(["schrodinger", "--config", str(cfg), "--dump-config"]) == 0
        assert f"reference={expected}" in capsys.readouterr().out.splitlines()
    cfg.write_text("reference=maybe\n")
    assert run_cli(["schrodinger", "--config", str(cfg), "--dump-config"]) == 2
    assert "bad value for reference" in capsys.readouterr().err


def test_j_below_kappa_plus_one_exits_2(capsys):
    assert run_cli(["convergence", "--J", "5"]) == 2
    assert "J must be >= kappa+1" in capsys.readouterr().err


def test_weights_levels_past_the_first(tmp_path):
    """At t_end = 10, h = 0.01 (N = 1000, kappa = 20, Lambda = 5) index 130
    lies in the second level's window and 700 in a later one."""
    out = tmp_path / "w.csv"
    assert run_cli(["weights", "--steps", "25,130,700", "--K", "25", "--out", str(out)]) == 0
    rows = {int(r.split(",")[0]): r.split(",") for r in out.read_text().splitlines()[2:]}
    assert rows[25][2] == "1" and rows[130][2] == "2" and int(rows[700][2]) > 2
    assert all(row[4] == "" for row in rows.values())


def test_weights_without_levels_computes_no_weights(tmp_path, monkeypatch):
    """N = t_end / h = 10 <= kappa + 1: the plan has no level, every index
    inside it is direct-only, and no weight is computed."""
    from fraccq import fastcq

    def never(*args, **kwargs):
        raise AssertionError("weights computed for a plan without levels")

    monkeypatch.setattr(fastcq, "weight_rows_direct", never)
    monkeypatch.setattr(fastcq, "_stage_plan", never)
    out = tmp_path / "w.csv"
    assert run_cli(["weights", "--t-end", "0.1", "--h", "0.01", "--steps", "0,4,9,10",
                    "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
    assert len(rows) == 4 * 4  # four indices at each of the K ladder's four values
    notes = {(int(r[0]), r[4]) for r in rows}
    assert notes == {(0, "direct-only"), (4, "direct-only"), (9, "direct-only"),
                     (10, "beyond-plan")}


def test_weights_solves_once_per_K(monkeypatch, tmp_path):
    """A default weights run makes one resolvent solve for the circle rule
    and one batched solve over all contour levels of the stage plan of
    each K of the ladder (10, 15, 20, 25): five family.solve calls, each
    contour one over the folded nodes of the plan's three levels."""
    from fraccq import operators
    calls = []
    original = operators.OperatorFamily.solve

    def counting(self, nu, y, weights=None):
        calls.append(np.shape(nu))
        return original(self, nu, y, weights)

    monkeypatch.setattr(operators.OperatorFamily, "solve", counting)
    assert run_cli(["weights", "--out", str(tmp_path / "w.csv")]) == 0
    assert len(calls) == 1 + 4
    assert calls[1:] == [(3 * (K + 1),) for K in (10, 15, 20, 25)]


@pytest.mark.parametrize("args, code", [
    (["convergence", "--steps", str(10**20)], 2),
    (["subdiffusion", "--steps", str(10**20)], 2),
    (["schrodinger", "--h", "1e-300"], 2),
    (["schrodinger", "--t-end", "1e300"], 2),
    (["subdiffusion", "--grid", str(10**20)], 2),
    (["schrodinger", "--grid", str(10**20)], 2),
    (["convergence", "--steps", "3", "--t-end", "1e308"], 3),
    (["subdiffusion", "--t-end", "1e308"], 3),
    (["convergence", "--steps", "2000000000000000000"], 2),
    (["subdiffusion", "--steps", "2000000000000000000"], 2),
    (["convergence", "--method", "radau5", "--steps", "640", "--K", "2000"], 2),
])
def test_sizes_and_times_beyond_range_exit_typed(args, code, capsys):
    """Step counts and grids beyond the index range, step sizes whose step
    count or 1/h overflows, and final times at which the data overflow end
    in a one-line message: they raised ValueError from np.arange, fftfreq
    or linspace, or a RuntimeWarning from the data. So do step counts whose
    stage table has more bytes than the index range (ValueError "array is
    too big" from np.arange) and a K at which the contour objective
    underflows (a late "non-finite solution" over several lines)."""
    assert run_cli(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err


# Hypothesis draws for the CLI: each experiment's numeric flags take a
# cheap valid value, or up to two of them one of the kinds below (zero,
# negative, non-integer, NaN/inf, tiny, huge, beyond the index range).
# Valid step counts stay small: the ratio t_end / h is drawn, not h. A
# huge --repeats is valid and runs that many solves, so it draws only the
# invalid kinds.
_INVALID = st.sampled_from(["0", "-1", "-2.5", "2.5", "nan", "inf", "-inf"])
_EXTREMES = st.one_of(_INVALID, st.sampled_from(["1e-300", "5e-324", "1e300", "1.7e308",
                                                 str(10**300), str(2**63), str(10**20)]))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _reals(lo, hi):
    return st.floats(lo, hi).map(repr)


_STEP_LISTS = st.lists(st.integers(1, 120), min_size=1, max_size=2).map(
    lambda ns: ",".join(map(str, ns)))
_CLI_VALID = {
    "convergence": {"t_end": _reals(0.1, 10.0), "steps": _STEP_LISTS, "K": _ints(10, 30),
                    "Lambda": _ints(2, 9), "kappa": _ints(1, 30), "J": _ints(61, 80)},
    "subdiffusion": {"grid": st.just("8"), "t_end": _reals(0.1, 5.0), "steps": _STEP_LISTS,
                     "K": _ints(10, 25), "Lambda": _ints(2, 9), "kappa": _ints(1, 20),
                     "J": _ints(41, 60), "repeats": _ints(1, 3), "bound": _reals(0.01, 10.0)},
    "schrodinger": {"grid": _ints(41, 61), "a_half": st.just("2.0"),
                    "alpha": _reals(0.3, 0.9), "t_end": _reals(0.01, 0.5),
                    "ratio": st.integers(1, 6).map(lambda k: 20 * k), "K": _ints(20, 40),
                    "Lambda": _ints(2, 9), "kappa": _ints(1, 20)},
    "weights": {"alpha": _reals(0.1, 1.0), "t_end": _reals(0.1, 2.0),
                "ratio": st.integers(1, 120), "steps": _STEP_LISTS, "K": _ints(5, 25),
                "Lambda": _ints(2, 9), "kappa": _ints(1, 30)},
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_answers_every_draw_with_an_exit_code(data):
    """main returns 0, 2 or 3 for every draw, and no exception escapes, not
    even a RuntimeWarning under the suite's error filter."""
    name = data.draw(st.sampled_from(sorted(_CLI_VALID)))
    valid = _CLI_VALID[name]
    flags = sorted(set(valid) - {"ratio"} | ({"h"} if "ratio" in valid else set()))
    extreme = data.draw(st.sets(st.sampled_from(flags), max_size=2))
    bad = {key: _INVALID if key == "repeats" else _EXTREMES for key in extreme}
    values = {key: data.draw(bad.get(key, valid.get(key))) for key in flags if key != "h"}
    if "h" in flags:
        ratio = data.draw(valid["ratio"])
        values["h"] = (data.draw(bad["h"]) if "h" in bad
                       else repr(float(values["t_end"]) / ratio))
    args = [name] + [arg for key, value in values.items()
                     for arg in ("--" + key.replace("_", "-"), value)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(args)
    assert code in (0, 2, 3), args
