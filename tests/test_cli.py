import json

import pytest

from fraccq.cli import main, read_config_file
from fraccq.errors import ConfigError


def run_cli(args):
    return main(args)


def test_selftest_exit_code(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert out.count("PASS") >= 6


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


def test_convergence_invalid_ladder_exit_2(tmp_path):
    code = run_cli(["convergence", "--method", "radau5", "--steps", "20,40",
                    "--h", "0.3", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_dump_config(capsys):
    assert run_cli(["convergence", "--K", "30", "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert "K=30" in out
    assert "experiment=convergence" in out


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
    # folding real data is derived from the problem, and every phase of a
    # solve runs in the calling thread, so no experiment reads real or workers
    gone = [[name, *extra] for name in ("convergence", "subdiffusion", "schrodinger")
            for extra in (["--real"], ["--complex"], ["--config", str(real_cfg)],
                          ["--workers", "2"], ["--config", str(workers_cfg)])]
    for args in (["convergence", "--alpha", "0.3"],
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


def test_numeric_validation_before_compute():
    assert run_cli(["convergence", "--K", "1"]) == 2
    assert run_cli(["convergence", "--kappa", "0"]) == 2
    assert run_cli(["convergence", "--alpha", "1.5"]) == 2
    assert run_cli(["weights", "--alpha", "1.5"]) == 2


def test_subdiffusion_explicit_flags_equal_to_global_defaults_are_kept(tmp_path, capsys):
    # K=25, kappa=20, J=160 are the global defaults; passed explicitly they
    # must run as given, not be replaced by the experiment's own defaults
    base = ["subdiffusion", "--grid", "8", "--steps", "100", "--repeats", "1",
            "--bound", "1"]
    explicit = ["--K", "25", "--kappa", "20", "--J", "160"]
    for flags, expected in ((explicit, (25, 20, 160)), ([], (20, 12, 14))):
        out = tmp_path / "sub.json"
        assert run_cli(base + flags + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["K"], payload["kappa"], payload["J"]) == expected
        assert run_cli(base + flags + ["--dump-config"]) == 0
        dumped = capsys.readouterr().out.splitlines()
        assert {f"K={expected[0]}", f"kappa={expected[1]}", f"J={expected[2]}"} <= set(dumped)


@pytest.mark.parametrize("rk_marches, totals, flagged", [
    # 0.3 ms of jitter in a 0.4 ms phase is more than half its median
    ((4e-4, 7e-4, 4e-4), (0.0124, 0.0127, 0.0124), False),
    ((4e-4, 4e-4, 4e-4), (0.0100, 0.0100, 0.0200), True),
])
def test_subdiffusion_timing_flag_reads_the_total(monkeypatch, rk_marches, totals, flagged):
    """The flag fires on a repeat whose whole solve is a 2x outlier, not on
    sub-millisecond jitter in one phase."""
    from fraccq import cli, example2_problem
    from fraccq.fastcq import RunStats

    problem = example2_problem(8, t_max=2.0).problem
    first_rung = iter(zip(rk_marches, totals))

    def stub_solve(prob, cfg, table=None):
        rk, total = next(first_rung)
        times = {"first_block": 1e-3, "rk_marches": rk, "resolvent_solves": 1e-3,
                 "total": total}
        return problem.u_exact(cfg.N * cfg.h), RunStats(wall_times=times)

    monkeypatch.setattr(cli.fastcq, "fast_solve", stub_solve)
    spec = dict(cli._EXPERIMENTS["subdiffusion"], grid=8, t_end=1.0, steps=(40,), J=14)
    report = cli.subdiffusion_report(spec, problem)
    assert report["n_ladder"][0]["timing_flagged"] is flagged
