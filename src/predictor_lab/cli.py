"""Command-line entry point: simulate, gen-dataset, train, benchmark, verify."""

from __future__ import annotations

import argparse
import logging
import os
import sys as _sys

import numpy as np

from . import benchmark as bench
from . import dataset as ds
from . import neural_operator as no
from . import verify as verify_mod
from .predictor import PredictorError
from .simulation import LAW_CHOICES, PREDICTOR_CHOICES, SimulationConfig, run
from .systems import make_system

log = logging.getLogger("predictor_lab")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# uniform sampling boxes the dataset subcommand defaults to, per system
DATASET_PRESETS = {
    "protein": ds.SampleRanges(x0_lo=(0.02, 15.0), x0_hi=(0.3, 32.0),
                               d_true=(0.8, 1.4), d_hat0=(0.7, 2.3)),
    "chemostat": ds.SampleRanges(x0_lo=(1.6, 1.3), x0_hi=(3.6, 2.8),
                                 d_true=(1.3, 1.9), d_hat0=(1.3, 2.1)),
    "linear": ds.SampleRanges(x0_lo=(-2.0,), x0_hi=(2.0,),
                              d_true=(0.5, 2.0), d_hat0=(0.5, 2.0)),
}

SIM_PRESETS = {
    "protein": dict(x0=(0.03, 30.0), d_true=1.0, d_hat0=2.0, d_min=0.5,
                    d_max=2.5, gamma=1000.0, b=1.0, t_final=40.0,
                    law="measured"),
    "chemostat": dict(x0=(2.0, 2.0), d_true=1.6, d_hat0=1.8, d_min=1.0,
                      d_max=2.2, gamma=0.2, b=1.0, t_final=30.0,
                      law="unmeasured"),
    "linear": dict(x0=(1.0,), d_true=1.0, d_hat0=1.5, d_min=0.2, d_max=2.0,
                   gamma=10.0, b=1.0, t_final=10.0, law="measured"),
}


def _setup_logging():
    level = os.environ.get("PREDICTOR_LAB_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def load_config_file(path) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def merged(args, config: dict, key: str, cast, default):
    """Flag wins over config file (with a logged notice), else default."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        if key in config:
            log.info("flag --%s overrides config key %s", key, key)
        return flag_val
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def cmd_simulate(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    system = merged(args, config, "system", str, "protein")
    preset = SIM_PRESETS.get(system, SIM_PRESETS["protein"])

    def get(key, cast, default):
        return merged(args, config, key, cast, default)

    cfg = SimulationConfig(
        system=system,
        x0=get("x0", _floats, preset["x0"]),
        d_true=get("D", float, preset["d_true"]),
        d_hat0=get("dhat0", float, preset["d_hat0"]),
        d_min=get("dmin", float, preset["d_min"]),
        d_max=get("dmax", float, preset["d_max"]),
        gamma=get("gamma", float, preset["gamma"]),
        b=get("b", float, preset["b"]),
        dt=get("dt", float, 1e-3),
        t_final=get("tf", float, preset["t_final"]),
        predictor=get("predictor", str, "numeric_fixed_point"),
        law=get("law", str, preset["law"]),
        grid_points=int(round(1.0 / get("dx", float, 0.005))) + 1,
        model_path=get("model", str, None),
        control_clip=get("clip", _floats, None),
        uncompensated=bool(get("uncompensated", bool, False)),
        linear_a=get("linear-a", float, -0.5),
        linear_b=get("linear-b", float, 1.0),
    )
    if cfg.t_final <= 0 or cfg.dt <= 0:
        print("error: tf and dt must be positive", file=_sys.stderr)
        return EXIT_USAGE
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE

    try:
        trace = run(cfg)
    except PredictorError as exc:
        print(f"predictor failure: {exc}", file=_sys.stderr)
        return EXIT_DOMAIN
    if args.out:
        trace.write_csv(args.out)
        log.info("trace written to %s", args.out)
    final = ", ".join(f"{v:.6g}" for v in trace.X[-1])
    print(f"t_final={trace.t[-1] + cfg.dt:g} X=({final}) "
          f"d_hat={trace.d_hat[-1]:.6g} diverged={trace.diverged}")
    return EXIT_DOMAIN if trace.diverged else EXIT_OK


def cmd_gen_dataset(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    system = merged(args, config, "system", str, "protein")
    if system not in DATASET_PRESETS:
        print(f"error: unknown system {system!r}; known: "
              f"{', '.join(DATASET_PRESETS)}", file=_sys.stderr)
        return EXIT_USAGE
    preset = DATASET_PRESETS[system]
    sim_preset = SIM_PRESETS[system]
    ranges = ds.SampleRanges(
        x0_lo=merged(args, config, "x0-lo", _floats, preset.x0_lo),
        x0_hi=merged(args, config, "x0-hi", _floats, preset.x0_hi),
        d_true=merged(args, config, "d-range", _floats, preset.d_true),
        d_hat0=merged(args, config, "dhat0-range", _floats, preset.d_hat0),
    )
    base = SimulationConfig(
        system=system,
        d_min=merged(args, config, "dmin", float, sim_preset["d_min"]),
        d_max=merged(args, config, "dmax", float, sim_preset["d_max"]),
        gamma=merged(args, config, "gamma", float, sim_preset["gamma"]),
        b=merged(args, config, "b", float, sim_preset["b"]),
        dt=merged(args, config, "dt", float, 2e-3),
        t_final=merged(args, config, "tf", float, 16.0),
        law=merged(args, config, "law", str, sim_preset["law"]),
        grid_points=merged(args, config, "grid", int, 41),
    )
    try:
        data = ds.generate_dataset(
            base, merged(args, config, "n", int, 1000), ranges,
            seed=merged(args, config, "seed", int, 0),
            m=merged(args, config, "m", int, 41),
            q=merged(args, config, "q", int, None),
            stride_s=merged(args, config, "stride", float, 0.1),
            jobs=merged(args, config, "jobs", int, 1))
    except (RuntimeError, PredictorError) as exc:
        print(f"dataset generation failed: {exc}", file=_sys.stderr)
        return EXIT_DOMAIN
    ds.save_dataset(data, args.out)
    print(f"wrote {len(data)} samples to {args.out} "
          f"(hash {data.provenance['config_hash']})")
    return EXIT_OK


def cmd_train(args) -> int:
    data = ds.load_dataset(args.dataset)
    cfg = no.TrainingConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
        early_stop_patience=args.patience,
        validation_fraction=args.val_fraction, seed=args.seed)
    try:
        model, report = no.train(data, cfg, d_c=args.dc, layers=args.layers)
    except (ValueError, RuntimeError) as exc:
        print(f"training failed: {exc}", file=_sys.stderr)
        return EXIT_DOMAIN
    no.save_model(model, args.out)
    print(f"trained d_c={args.dc} L={args.layers}: "
          f"train_err={report['train_err']:.3e} "
          f"test_eps={report['test_err']:.4f} "
          f"epochs={report['epochs_run']} -> {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    sys_model = make_system(args.system)
    model = no.load_model(args.model) if args.model else None
    backends = args.backends.split(",")
    dx_list = [float(v) for v in args.dx.split(",")]
    corpus = bench.make_corpus(sys_model, args.corpus_size,
                               d_range=_floats(args.d_range), seed=args.seed)
    report = bench.benchmark_predictors(sys_model, backends, dx_list,
                                        args.trials, corpus, model=model)
    if args.out:
        report.write_csv(args.out)
    for cell in report.cells:
        status = ("failed" if cell.failed
                  else f"{cell.mean_s * 1e3:8.3f} ms  "
                       f"(speedup {cell.speedup:6.2f}x)")
        print(f"dx={cell.dx:<7g} {cell.backend:<8} {status}")
    print(f"corpus hash {report.corpus_hash}")
    return EXIT_DOMAIN if any(c.failed for c in report.cells) else EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.suite in (None, "all") else [args.suite]
    try:
        results = verify_mod.run_suites(names, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    print(verify_mod.format_results(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predictor-lab",
        description="Delay-adaptive predictor feedback toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    sim.add_argument("--config", help="flat key=value config file")
    sim.add_argument("--system", choices=list(SIM_PRESETS))
    sim.add_argument("--predictor", choices=PREDICTOR_CHOICES)
    sim.add_argument("--law", choices=LAW_CHOICES)
    sim.add_argument("--D", type=float, help="true delay")
    sim.add_argument("--dhat0", type=float)
    sim.add_argument("--dmin", type=float)
    sim.add_argument("--dmax", type=float)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--b", type=float)
    sim.add_argument("--x0", type=_floats)
    sim.add_argument("--tf", type=float)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--dx", type=float, help="predictor grid step")
    sim.add_argument("--model", help="trained model for --predictor neural")
    sim.add_argument("--clip", type=_floats, help="control clip lo,hi")
    sim.add_argument("--uncompensated", action="store_const", const=True)
    sim.add_argument("--linear-a", type=float)
    sim.add_argument("--linear-b", type=float)
    sim.add_argument("--out", help="trace CSV path")
    sim.set_defaults(fn=cmd_simulate)

    gen = sub.add_parser("gen-dataset", help="harvest a predictor dataset")
    gen.add_argument("--config")
    gen.add_argument("--system", choices=list(DATASET_PRESETS))
    gen.add_argument("--n", type=int, help="number of samples")
    gen.add_argument("--m", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--grid", type=int)
    gen.add_argument("--stride", type=float)
    gen.add_argument("--dt", type=float)
    gen.add_argument("--tf", type=float)
    gen.add_argument("--law", choices=LAW_CHOICES)
    gen.add_argument("--gamma", type=float)
    gen.add_argument("--b", type=float)
    gen.add_argument("--dmin", type=float)
    gen.add_argument("--dmax", type=float)
    gen.add_argument("--x0-lo", type=_floats)
    gen.add_argument("--x0-hi", type=_floats)
    gen.add_argument("--d-range", type=_floats)
    gen.add_argument("--dhat0-range", type=_floats)
    gen.add_argument("--jobs", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen_dataset)

    tr = sub.add_parser("train", help="train the neural operator predictor")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--dc", type=int, default=64)
    tr.add_argument("--layers", type=int, default=2)
    tr.add_argument("--epochs", type=int, default=300)
    tr.add_argument("--patience", type=int, default=40)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--batch", type=int, default=64)
    tr.add_argument("--val-fraction", type=float, default=0.1)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(fn=cmd_train)

    bm = sub.add_parser("benchmark", help="latency comparison of backends")
    bm.add_argument("--system", default="protein")
    bm.add_argument("--model", help="trained model for the neural backend")
    bm.add_argument("--backends", default="numeric,neural")
    bm.add_argument("--dx", default="0.01,0.005,0.001")
    bm.add_argument("--trials", type=int, default=1000)
    bm.add_argument("--corpus-size", type=int, default=64)
    bm.add_argument("--d-range", default="0.5,2.0")
    bm.add_argument("--seed", type=int, default=0)
    bm.add_argument("--out")
    bm.set_defaults(fn=cmd_benchmark)

    ver = sub.add_parser("verify", help="run the property suites")
    ver.add_argument("--suite", default="all",
                     help="one of: all, " + ", ".join(verify_mod.SUITES))
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except (ValueError, no.ModelFormatError, ds.DatasetFormatError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
