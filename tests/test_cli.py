"""CLI surface: subcommand grammar, exit codes, config/flag precedence."""

import dataclasses
import inspect
import subprocess
import sys as _sys
from pathlib import Path

import numpy as np
import pytest

from predictor_lab import cli
from predictor_lab.dataset import (DATASET_MAGIC, DATASET_VERSION,
                                   PER_RUN_FIELDS, PredictorDataset,
                                   save_dataset)
from predictor_lab.neural_operator import (FORMAT_VERSION, init_model,
                                           save_model)


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
    ["benchmark", "--system", "linear"],
])
def test_zero_dx_is_a_usage_error(command, capsys):
    assert run_cli(command + ["--dx", "0"]) == cli.EXIT_USAGE
    assert "dx must be finite and positive, got 0.0" in capsys.readouterr().err


def test_benchmark_prints_why_a_cell_failed(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.bench, "solve_fixed_point", broken)
    code = run_cli(["benchmark", "--system", "linear", "--dx", "0.05",
                    "--trials", "2", "--corpus-size", "3"])
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


@pytest.mark.parametrize("command", ["simulate", "gen-dataset"])
@pytest.mark.parametrize("line, named", [
    ("gama=5", "--gama=5"),
    ("strid=0.5", "--strid=0.5"),  # a prefix of gen-dataset's --stride
    ("tf=abc", "--tf: invalid float value: 'abc'"),
    ("uncompensated=true", "--uncompensated=true"),
], ids=["unknown-key", "prefix-key", "bad-value", "removed-key"])
def test_config_key_must_be_a_flag_with_a_valid_value(command, line, named,
                                                      tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"system=linear\n{line}\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err
    assert f"config file {cfg}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, named", [
    (["simulate", "--system", "protein", "--x0", "0.1", "--tf", "0.01"],
     "x0=(0.1,) does not match the state dimension 2 of the protein plant"),
    (["gen-dataset", "--system", "linear", "--x0-lo", "1,2", "--x0-hi", "2,3",
      "--n", "5", "--tf", "0.5", "--grid", "11", "--m", "11"],
     "does not match the state dimension 1 of the linear plant"),
    (["gen-dataset", "--system", "protein", "--x0-lo", "0.1"],
     "x0_lo=(0.1,) and x0_hi=(0.3, 32.0) differ in length"),
    (["gen-dataset", "--system", "linear", "--x0-lo", "2", "--x0-hi", "-2",
      "--n", "5", "--tf", "0.5", "--grid", "11", "--m", "11"],
     "x0_lo=(2.0,) and x0_hi=(-2.0,) need finite lo <= hi"),
    (["gen-dataset", "--system", "linear", "--x0-lo", "nan",
      "--n", "5", "--tf", "0.5", "--grid", "11", "--m", "11"],
     "x0_lo=(nan,) and x0_hi=(2.0,) need finite lo <= hi"),
])
def test_state_of_wrong_length_is_a_usage_error(command, named, tmp_path,
                                                capsys):
    out = tmp_path / "out"
    assert run_cli(command + ["--out", str(out)]) == cli.EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_gen_dataset_without_harvest_point_is_a_usage_error(tmp_path):
    """A 0.1 s source run at dt 2e-3 ends before the first 0.1 s harvest
    point; in a subprocess, so that a generator that loops forever fails
    here instead of hanging the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from predictor_lab import cli; "
            "raise SystemExit(cli.main(sys.argv[2:]))")
    out = tmp_path / "x.bin"
    proc = subprocess.run(
        [_sys.executable, "-c", code, src, "gen-dataset", "--system",
         "linear", "--n", "5", "--tf", "0.1", "--grid", "11", "--m", "11",
         "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_USAGE
    assert "t_final=0.1" in proc.stderr and "dt=0.002" in proc.stderr
    assert "stride=0.1" in proc.stderr
    assert not out.exists()


def test_benchmark_rejects_zero_trials(capsys):
    assert run_cli(["benchmark", "--system", "linear",
                    "--trials", "0"]) == cli.EXIT_USAGE
    assert "trials=0" in capsys.readouterr().err


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
    # "lipschitz" named a removed suite whose bound (5.5e270) could not fail
    for suite in ("nonsense", "lipschitz"):
        assert run_cli(["verify", "--suite", suite]) == cli.EXIT_USAGE
        assert f"unknown verify suite {suite!r}" in capsys.readouterr().err


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
                    str(model_path), "--dx", "0.05,0.02", "--trials", "20",
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


@pytest.mark.parametrize("header, named", [
    ('{"n": 1, "m": 3, "q": 3}', "'count'"),
    ('{"n": 1, "m": 3, "q": 3, "count": "2"}', "'count'"),
    ('[1, 3, 3, 2]', "JSON object"),
])
def test_malformed_dataset_header_is_a_usage_error(header, named, tmp_path,
                                                   capsys):
    path = tmp_path / "d.bin"
    path.write_bytes(f"{DATASET_MAGIC} format_version={DATASET_VERSION}\n"
                     f"{header}\n".encode())
    code = run_cli(["train", "--dataset", str(path),
                    "--out", str(tmp_path / "m.no")])
    assert code == cli.EXIT_USAGE
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("layout, named", [
    ("n=2 m=3 layers=1", "'d_c'"),
    ("n=2 m=3 d_c layers=1", "'d_c'"),
    ("n=2 m=x d_c=4 layers=1", "'m'"),
])
def test_malformed_model_layout_is_a_usage_error(layout, named, tmp_path,
                                                 capsys):
    path = tmp_path / "m.no"
    path.write_text(f"predictor-operator-model format_version={FORMAT_VERSION}"
                    f"\n{layout}\nend\n")
    code = run_cli(["simulate", "--system", "protein", "--predictor",
                    "neural", "--model", str(path), "--tf", "0.1",
                    "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_USAGE
    assert named in capsys.readouterr().err


def test_env_var_sets_log_level(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PREDICTOR_LAB_LOG", "debug")
    code = run_cli(["simulate", "--system", "linear", "--predictor", "none",
                    "--law", "frozen", "--D", "0.5", "--dhat0", "0.5",
                    "--dmin", "0.2", "--dmax", "1.0", "--tf", "1",
                    "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_OK
    capsys.readouterr()


# --- the settings each command hands to the library ------------------------

class Captured(Exception):
    """Raised by a stand-in for a library call; holds its bound arguments."""


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _stop_at(mp, owner, name):
    """Replace ``owner.name`` by a stand-in that raises Captured with the
    arguments of its call, defaults filled in."""
    real = getattr(owner, name)

    def stand_in(*args, **kwargs):
        raise Captured(_bound(real, args, kwargs))

    mp.setattr(owner, name, stand_in)


def _prefixed(prefix, config) -> dict:
    return {f"{prefix}.{k}": v for k, v in dataclasses.asdict(config).items()}


def built(monkeypatch, tmp_path, argv) -> dict:
    """The settings that ``argv`` hands to the library, as one flat dict:
    the fields of the config it builds and the keywords of the call it makes,
    each with its default filled in."""
    command = argv[0]
    corpus_args = {}
    with monkeypatch.context() as mp:
        if command == "simulate":
            _stop_at(mp, cli, "run")
        elif command == "gen-dataset":
            _stop_at(mp, cli.ds, "generate_dataset")
            argv = argv + ["--out", str(tmp_path / "d.bin")]
        elif command == "train":
            data = tmp_path / "d.bin"
            save_dataset(PredictorDataset(
                X=np.zeros((2, 1)), u=np.zeros((2, 3)), d_hat=np.ones(2),
                targets=np.zeros((2, 3, 1))), data)
            _stop_at(mp, cli.no, "train")
            argv = argv + ["--dataset", str(data),
                           "--out", str(tmp_path / "m.no")]
        else:
            make_corpus = cli.bench.make_corpus

            def recording(*args, **kwargs):
                corpus_args.update(_bound(make_corpus, args, kwargs))
                return make_corpus(*args, **kwargs)

            mp.setattr(cli.bench, "make_corpus", recording)
            _stop_at(mp, cli.bench, "benchmark_predictors")
        with pytest.raises(Captured) as info:
            cli.main(argv)
    got = info.value.args[0]
    if command == "simulate":
        return dataclasses.asdict(got["cfg"])
    if command == "gen-dataset":
        return {**_prefixed("base", got.pop("base_cfg")),
                **_prefixed("ranges", got.pop("ranges")), **got}
    if command == "train":
        del got["dataset"]
        return {**dataclasses.asdict(got.pop("cfg")), **got}
    # make_corpus's arguments describe the corpus; a backend list, in a
    # signature that takes one, follows from ``model``
    for key in ("sys", "corpus", "backends"):
        got.pop(key, None)
    system = corpus_args.pop("sys")
    return {"system": system.name, **corpus_args, **got}


# the protein scenario; the other presets state where they differ from it
SIMULATION = dict(
    system="protein", x0=(0.03, 30.0), d_true=1.0, d_hat0=2.0, d_min=0.5,
    d_max=2.5, gamma=1000.0, b=1.0, dt=1e-3, t_final=40.0,
    predictor="numeric_fixed_point", law="measured", grid_points=201,
    model_path=None, control_clip=None, solver_tol=1e-8, solver_max_iter=200,
    linear_a=-0.5, linear_b=1.0)
PRESETS = {
    "protein": {},
    "chemostat": dict(system="chemostat", x0=(2.0, 2.0), d_true=1.6,
                      d_hat0=1.8, d_min=1.0, d_max=2.2, gamma=0.2,
                      t_final=30.0, law="unmeasured"),
    "linear": dict(system="linear", x0=(1.0,), d_hat0=1.5, d_min=0.2,
                   d_max=2.0, gamma=10.0, t_final=10.0),
}
HARVEST_RUN = {"dt": 2e-3, "t_final": 16.0, "grid_points": 41}
SAMPLE_RANGES = {
    "protein": dict(x0_lo=(0.02, 15.0), x0_hi=(0.3, 32.0), d_true=(0.8, 1.4),
                    d_hat0=(0.7, 2.3)),
    "chemostat": dict(x0_lo=(1.6, 1.3), x0_hi=(3.6, 2.8), d_true=(1.3, 1.9),
                      d_hat0=(1.3, 2.1)),
    "linear": dict(x0_lo=(-2.0,), x0_hi=(2.0,), d_true=(0.5, 2.0),
                   d_hat0=(0.5, 2.0)),
}
HARVEST_KEYWORDS = dict(n_samples=1000, seed=0, m=41, q=None, stride_s=0.1,
                        target_tol=1e-9, jobs=1)
TRAINING = dict(learning_rate=1e-3, batch_size=64, epochs=300,
                early_stop_patience=40, validation_fraction=0.1, seed=0,
                d_c=64, layers=2)
BENCHMARK = dict(system="protein", count=64, d_range=(0.5, 2.0), seed=0,
                 dx_list=[0.01, 0.005, 0.001], n_trials=1000, model=None)


def expected_defaults(command, system):
    if command == "simulate":
        return {**SIMULATION, **PRESETS[system]}
    if command == "gen-dataset":
        base = {k: v for k, v in {**SIMULATION, **PRESETS[system],
                                  **HARVEST_RUN}.items()
                if k not in PER_RUN_FIELDS}
        return {**{f"base.{k}": v for k, v in base.items()},
                **{f"ranges.{k}": v for k, v in SAMPLE_RANGES[system].items()},
                **HARVEST_KEYWORDS}
    return TRAINING if command == "train" else BENCHMARK


@pytest.mark.parametrize("command, system", [
    (command, system) for command in ("simulate", "gen-dataset")
    for system in PRESETS] + [("train", None), ("benchmark", None)])
def test_defaults_are_the_preset(command, system, monkeypatch, tmp_path):
    argv = [command] + (["--system", system] if system else [])
    got = built(monkeypatch, tmp_path, argv)
    # a harvest draws these per source run, so its base config's are unused
    for key in PER_RUN_FIELDS:
        got.pop(f"base.{key}", None)
    assert got == expected_defaults(command, system)


FLAG_CASES = [
    ("simulate", "--predictor", "none", "predictor", "none"),
    ("simulate", "--law", "unmeasured", "law", "unmeasured"),
    ("simulate", "--D", "1.2", "d_true", 1.2),
    ("simulate", "--dhat0", "1.1", "d_hat0", 1.1),
    ("simulate", "--dmin", "0.4", "d_min", 0.4),
    ("simulate", "--dmax", "3", "d_max", 3.0),
    ("simulate", "--gamma", "7", "gamma", 7.0),
    ("simulate", "--b", "0.5", "b", 0.5),
    ("simulate", "--x0", "0.1,20", "x0", (0.1, 20.0)),
    ("simulate", "--tf", "5", "t_final", 5.0),
    ("simulate", "--dt", "0.002", "dt", 0.002),
    ("simulate", "--dx", "0.01", "grid_points", 101),
    ("simulate", "--model", "m.no", "model_path", "m.no"),
    ("simulate", "--clip", "0,5", "control_clip", (0.0, 5.0)),
    ("simulate", "--linear-a", "2", "linear_a", 2.0),
    ("simulate", "--linear-b", "3", "linear_b", 3.0),
    ("gen-dataset", "--n", "50", "n_samples", 50),
    ("gen-dataset", "--m", "21", "m", 21),
    ("gen-dataset", "--q", "11", "q", 11),
    ("gen-dataset", "--grid", "21", "base.grid_points", 21),
    ("gen-dataset", "--stride", "0.2", "stride_s", 0.2),
    ("gen-dataset", "--dt", "0.001", "base.dt", 0.001),
    ("gen-dataset", "--tf", "8", "base.t_final", 8.0),
    ("gen-dataset", "--law", "unmeasured", "base.law", "unmeasured"),
    ("gen-dataset", "--gamma", "7", "base.gamma", 7.0),
    ("gen-dataset", "--b", "0.5", "base.b", 0.5),
    ("gen-dataset", "--dmin", "0.4", "base.d_min", 0.4),
    ("gen-dataset", "--dmax", "3", "base.d_max", 3.0),
    ("gen-dataset", "--x0-lo", "0.1,20", "ranges.x0_lo", (0.1, 20.0)),
    ("gen-dataset", "--x0-hi", "0.2,25", "ranges.x0_hi", (0.2, 25.0)),
    ("gen-dataset", "--d-range", "0.9,1.1", "ranges.d_true", (0.9, 1.1)),
    ("gen-dataset", "--dhat0-range", "1,2", "ranges.d_hat0", (1.0, 2.0)),
    ("gen-dataset", "--jobs", "2", "jobs", 2),
    ("gen-dataset", "--seed", "3", "seed", 3),
    ("train", "--dc", "8", "d_c", 8),
    ("train", "--layers", "1", "layers", 1),
    ("train", "--epochs", "5", "epochs", 5),
    ("train", "--patience", "5", "early_stop_patience", 5),
    ("train", "--lr", "0.01", "learning_rate", 0.01),
    ("train", "--batch", "16", "batch_size", 16),
    ("train", "--val-fraction", "0.2", "validation_fraction", 0.2),
    ("train", "--seed", "3", "seed", 3),
    ("benchmark", "--system", "linear", "system", "linear"),
    ("benchmark", "--dx", "0.02,0.01", "dx_list", [0.02, 0.01]),
    ("benchmark", "--trials", "10", "n_trials", 10),
    ("benchmark", "--corpus-size", "8", "count", 8),
    ("benchmark", "--d-range", "1,1.5", "d_range", (1.0, 1.5)),
    ("benchmark", "--seed", "3", "seed", 3),
]


@pytest.mark.parametrize("command, flag, value, key, expected", FLAG_CASES,
                         ids=[f"{case[0]} {case[1]}" for case in FLAG_CASES])
def test_each_flag_sets_only_its_own_setting(command, flag, value, key,
                                             expected, monkeypatch, tmp_path):
    default = built(monkeypatch, tmp_path, [command])
    given = built(monkeypatch, tmp_path, [command, flag, value])
    assert given.keys() == default.keys()
    assert {k: v for k, v in given.items() if v != default[k]} == \
        {key: expected}


GEN_LINEAR = ["gen-dataset", "--system", "linear", "--n", "5", "--tf", "0.5",
              "--grid", "11", "--m", "11"]
BENCH_LINEAR = ["benchmark", "--system", "linear", "--dx", "0.1",
                "--trials", "1", "--corpus-size", "1"]
SIM_LINEAR = ["simulate", "--system", "linear", "--tf", "0.01"]


RANGE_CASES = [
    (SIM_LINEAR, "--clip", "1"),
    (SIM_LINEAR, "--clip", "2,1"),
    (SIM_LINEAR, "--clip", "0,inf"),
    (BENCH_LINEAR, "--d-range", "1"),
    (BENCH_LINEAR, "--d-range", "2,1"),
    (GEN_LINEAR, "--d-range", "1,2,3"),
    (GEN_LINEAR, "--d-range", "0.8"),
    (GEN_LINEAR, "--d-range", "2,1"),
    (GEN_LINEAR, "--dhat0-range", "nan,1"),
    (GEN_LINEAR, "--dhat0-range", "a,b"),
    (BENCH_LINEAR, "--dx", "0.1,abc"),
    (BENCH_LINEAR, "--dx", "0.1,0.1"),
    (BENCH_LINEAR, "--dx", "0.1,0.1000000000001"),  # one 11-point grid
]


@pytest.mark.parametrize("command, flag, value", RANGE_CASES, ids=[
    f"{command[0]} {flag} {value}" for command, flag, value in RANGE_CASES])
def test_range_flag_takes_two_ordered_finite_numbers(command, flag, value,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command + [flag, value, "--out", str(out)]) == \
        cli.EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, named", [
    (GEN_LINEAR + ["--jobs", "0"], "jobs=0 must be at least 1"),
    (GEN_LINEAR + ["--jobs", "-2"], "jobs=-2 must be at least 1"),
    (["simulate", "--tf", "0.01", "--dhat0", "3"],
     "d_hat=3.0 must start inside [d_min=0.5, d_max=2.5]"),
    (["simulate", "--tf", "0.05", "--D", "nan"], "d_true=nan must be finite"),
    (["simulate", "--system", "chemostat", "--tf", "0.05", "--D", "nan"],
     "d_true=nan must be finite"),
    (["simulate", "--tf", "0.05", "--D", "inf"], "d_true=inf must be finite"),
    (["simulate", "--tf", "0.05", "--dmax", "inf"],
     "d_max=inf must be finite"),
    (["simulate", "--tf", "0.05", "--b", "nan"],
     "b=nan must be positive and finite"),
    (["simulate", "--tf", "0.05", "--b", "inf"],
     "b=inf must be positive and finite"),
], ids=["jobs 0", "jobs -2", "dhat0 3", "D nan", "chemostat D nan", "D inf",
        "dmax inf", "b nan", "b inf"])
def test_value_out_of_range_is_named(command, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command + ["--out", str(out)]) == cli.EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--dc", "0", "d_c=0 must be at least 1"),
    ("--layers", "-1", "layers=-1 must be at least 0"),
], ids=["dc 0", "layers -1"])
def test_train_rejects_an_empty_architecture(flag, value, named, tmp_path,
                                             capsys):
    data, out = tmp_path / "d.bin", tmp_path / "m.no"
    rng = np.random.default_rng(0)
    save_dataset(PredictorDataset(
        X=rng.normal(size=(10, 1)), u=rng.normal(size=(10, 3)),
        d_hat=rng.uniform(0.5, 1.5, size=10),
        targets=rng.normal(size=(10, 3, 1))), data)
    code = run_cli(["train", "--dataset", str(data), "--out", str(out),
                    flag, value])
    assert code == cli.EXIT_DOMAIN
    assert f"training failed: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--predictor", "neural", "--tf", "0.01"],
    ["benchmark", "--dx", "0.1", "--trials", "1", "--corpus-size", "1"],
], ids=["simulate", "benchmark"])
@pytest.mark.parametrize("system, n, plant_n", [("linear", 2, 1),
                                                ("protein", 1, 2)])
def test_operator_must_match_the_plant(command, system, n, plant_n, tmp_path,
                                       capsys):
    model = tmp_path / "m.no"
    save_model(init_model(n, 11, 4, 1), model)
    out = tmp_path / "out"
    assert run_cli(command + ["--system", system, "--model", str(model),
                              "--out", str(out)]) == cli.EXIT_USAGE
    assert (f"operator state dimension {n} does not match the state "
            f"dimension {plant_n} of the {system} plant"
            in capsys.readouterr().err)
    assert not out.exists()
