"""CLI surface: subcommand grammar, exit codes, config/flag precedence."""

import numpy as np
import pytest

from predictor_lab import cli


def run_cli(args):
    return cli.main(args)


def test_unknown_subcommand_usage_error(capsys):
    assert run_cli(["frobnicate"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_no_subcommand_usage_error(capsys):
    assert run_cli([]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_simulate_rejects_nonpositive_tf(capsys, tmp_path):
    code = run_cli(["simulate", "--system", "linear", "--tf", "-1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_USAGE
    assert "tf" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--system", "linear", "--tf", "0.01"],
    ["benchmark", "--system", "linear", "--backends", "numeric"],
])
def test_zero_dx_is_a_usage_error(command, capsys):
    assert run_cli(command + ["--dx", "0"]) == cli.EXIT_USAGE
    assert "dx must be finite and positive, got 0.0" in capsys.readouterr().err


def test_benchmark_prints_why_a_cell_failed(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.bench, "solve_fixed_point", broken)
    code = run_cli(["benchmark", "--system", "linear", "--backends",
                    "numeric", "--dx", "0.05", "--trials", "2",
                    "--corpus-size", "3"])
    assert code == cli.EXIT_DOMAIN
    assert ("numeric  failed on corpus input 0: RuntimeError: boom"
            in capsys.readouterr().out)


def test_simulate_linear_writes_trace(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli(["simulate", "--system", "linear", "--predictor",
                    "numeric_fixed_point", "--D", "0.8", "--dhat0", "1.0",
                    "--gamma", "5", "--b", "1", "--x0", "1.0", "--tf", "3",
                    "--dx", "0.05", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,X_1,U,d_hat,phi,gamma,upsilon,pred_residual,pred_time_s"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[0] == 3000
    capsys.readouterr()


def test_simulate_divergence_exit_code(tmp_path, capsys):
    code = run_cli(["simulate", "--system", "linear", "--linear-a", "3.0",
                    "--predictor", "none", "--law", "frozen", "--D", "0.5",
                    "--dhat0", "0.5", "--dmin", "0.2", "--dmax", "1.0",
                    "--tf", "12", "--out", str(tmp_path / "div.csv")])
    assert code == cli.EXIT_DOMAIN
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=linear\ntf=2\nD=0.8\ndhat0=1.0\ngamma=5\n"
                   "predictor=numeric_fixed_point\ndx=0.05\n"
                   "# a comment line\n")
    out = tmp_path / "run.csv"
    code = run_cli(["simulate", "--config", str(cfg), "--tf", "3",
                    "--out", str(out)])
    assert code == cli.EXIT_OK
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[0] == 3000  # flag tf=3 wins over config tf=2
    capsys.readouterr()


def test_gen_dataset_unknown_system_in_config(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("system=bogus\nn=4\n")
    code = run_cli(["gen-dataset", "--config", str(cfg),
                    "--out", str(tmp_path / "d.bin")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'bogus'" in err
    assert all(name in err for name in cli.DATASET_PRESETS)
    assert not (tmp_path / "d.bin").exists()


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    code = run_cli(["simulate", "--config", str(cfg)])
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


def test_verify_deterministic_output(capsys):
    assert run_cli(["verify", "--suite", "projection", "--seed", "7"]) == \
        cli.EXIT_OK
    first = capsys.readouterr().out
    assert run_cli(["verify", "--suite", "projection", "--seed", "7"]) == \
        cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "PASS" in first


def test_verify_reports_raising_suite_as_fail(monkeypatch, capsys):
    def boom(seed=0):
        raise RuntimeError("solver stalled")

    monkeypatch.setitem(cli.verify_mod.SUITES, "boom", boom)
    assert run_cli(["verify", "--suite", "boom"]) == cli.EXIT_DOMAIN
    out = capsys.readouterr().out
    assert out.strip() == "boom  FAIL  raised RuntimeError: solver stalled"


def test_verify_unknown_suite(capsys):
    assert run_cli(["verify", "--suite", "nonsense"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_dataset_train_benchmark_pipeline(tmp_path, capsys):
    ds_path = tmp_path / "lin.bin"
    code = run_cli(["gen-dataset", "--system", "linear", "--n", "40",
                    "--m", "21", "--grid", "21", "--stride", "0.25",
                    "--tf", "4", "--seed", "2", "--out", str(ds_path)])
    assert code == cli.EXIT_OK
    assert ds_path.exists()

    model_path = tmp_path / "lin.no"
    code = run_cli(["train", "--dataset", str(ds_path), "--out",
                    str(model_path), "--dc", "8", "--layers", "1",
                    "--epochs", "5", "--patience", "5", "--seed", "1"])
    assert code == cli.EXIT_OK
    assert model_path.exists()

    bench_path = tmp_path / "bench.csv"
    code = run_cli(["benchmark", "--system", "linear", "--model",
                    str(model_path), "--backends", "numeric,neural",
                    "--dx", "0.05,0.02", "--trials", "20",
                    "--corpus-size", "8", "--out", str(bench_path)])
    assert code == cli.EXIT_OK
    lines = bench_path.read_text().splitlines()
    assert lines[0].startswith("dx,numeric_mean_s")
    capsys.readouterr()


def test_train_missing_dataset_file(tmp_path, capsys):
    code = run_cli(["train", "--dataset", str(tmp_path / "nope.bin"),
                    "--out", str(tmp_path / "m.no")])
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


def test_env_var_sets_log_level(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PREDICTOR_LAB_LOG", "debug")
    code = run_cli(["simulate", "--system", "linear", "--predictor", "none",
                    "--law", "frozen", "--D", "0.5", "--dhat0", "0.5",
                    "--dmin", "0.2", "--dmax", "1.0", "--tf", "1",
                    "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_OK
    capsys.readouterr()
