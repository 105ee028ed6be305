"""Command-line entry point: simulate, gen-dataset, train, benchmark, verify.

``--config FILE`` reads a flat key=value file in which each key is the name
of one of the subcommand's flags without its dashes (``tf=3`` is ``--tf 3``,
``linear-a=2`` is ``--linear-a 2``).  The file's lines are parsed as flags in
front of the command line, so a flag given on the command line wins, and an
unknown key or a bad value is a usage error that names the file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys as _sys

from . import benchmark as bench
from . import dataset as ds
from . import neural_operator as no
from . import verify as verify_mod
from .predictor import PredictorError, PredictorGrid
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


def load_config_file(path) -> list:
    """Flat key=value file as ``--key=value`` flags; blank lines and
    # comments ignored."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            flags.append(f"--{key.strip()}={val.strip()}")
    return flags


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _or(value, default):
    return default if value is None else value


def cmd_simulate(args) -> int:
    preset = SIM_PRESETS[args.system]
    cfg = SimulationConfig(
        system=args.system,
        x0=_or(args.x0, preset["x0"]),
        d_true=_or(args.D, preset["d_true"]),
        d_hat0=_or(args.dhat0, preset["d_hat0"]),
        d_min=_or(args.dmin, preset["d_min"]),
        d_max=_or(args.dmax, preset["d_max"]),
        gamma=_or(args.gamma, preset["gamma"]),
        b=_or(args.b, preset["b"]),
        dt=args.dt,
        t_final=_or(args.tf, preset["t_final"]),
        predictor=args.predictor,
        law=_or(args.law, preset["law"]),
        grid_points=PredictorGrid.from_dx(args.dx).n_points,
        model_path=args.model,
        control_clip=args.clip,
        linear_a=args.linear_a,
        linear_b=args.linear_b,
    )
    if cfg.t_final <= 0 or cfg.dt <= 0:
        print("error: tf and dt must be positive", file=_sys.stderr)
        return EXIT_USAGE
    try:
        trace = run(cfg)  # a ValueError from cfg.validate() exits 2 in main
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
    preset = DATASET_PRESETS[args.system]
    sim_preset = SIM_PRESETS[args.system]
    ranges = ds.SampleRanges(
        x0_lo=_or(args.x0_lo, preset.x0_lo),
        x0_hi=_or(args.x0_hi, preset.x0_hi),
        d_true=_or(args.d_range, preset.d_true),
        d_hat0=_or(args.dhat0_range, preset.d_hat0),
    )
    base = SimulationConfig(
        system=args.system,
        d_min=_or(args.dmin, sim_preset["d_min"]),
        d_max=_or(args.dmax, sim_preset["d_max"]),
        gamma=_or(args.gamma, sim_preset["gamma"]),
        b=_or(args.b, sim_preset["b"]),
        dt=args.dt,
        t_final=args.tf,
        law=_or(args.law, sim_preset["law"]),
        grid_points=args.grid,
    )
    try:
        data = ds.generate_dataset(base, args.n, ranges, seed=args.seed,
                                   m=args.m, q=args.q, stride_s=args.stride,
                                   jobs=args.jobs)
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
        status = (f"failed on corpus input {cell.corpus_index}: {cell.error}"
                  if cell.failed
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
    config_help = ("flat key=value file; each key is a flag name without "
                   "its dashes, and flags on the command line win")

    sim = sub.add_parser("simulate", help="run one closed-loop simulation",
                         allow_abbrev=False)
    sim.add_argument("--config", help=config_help)
    sim.add_argument("--system", choices=list(SIM_PRESETS), default="protein")
    sim.add_argument("--predictor", choices=PREDICTOR_CHOICES,
                     default="numeric_fixed_point")
    sim.add_argument("--law", choices=LAW_CHOICES)
    sim.add_argument("--D", type=float, help="true delay")
    sim.add_argument("--dhat0", type=float)
    sim.add_argument("--dmin", type=float)
    sim.add_argument("--dmax", type=float)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--b", type=float)
    sim.add_argument("--x0", type=_floats)
    sim.add_argument("--tf", type=float)
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.add_argument("--dx", type=float, default=0.005,
                     help="predictor grid step")
    sim.add_argument("--model", help="trained model for --predictor neural")
    sim.add_argument("--clip", type=_floats, help="control clip lo,hi")
    sim.add_argument("--linear-a", type=float, default=-0.5)
    sim.add_argument("--linear-b", type=float, default=1.0)
    sim.add_argument("--out", help="trace CSV path")
    sim.set_defaults(fn=cmd_simulate)

    gen = sub.add_parser("gen-dataset", help="harvest a predictor dataset",
                         allow_abbrev=False)
    gen.add_argument("--config", help=config_help)
    gen.add_argument("--system", choices=list(DATASET_PRESETS),
                     default="protein")
    gen.add_argument("--n", type=int, default=1000, help="number of samples")
    gen.add_argument("--m", type=int, default=41)
    gen.add_argument("--q", type=int)
    gen.add_argument("--grid", type=int, default=41)
    gen.add_argument("--stride", type=float, default=0.1)
    gen.add_argument("--dt", type=float, default=2e-3)
    gen.add_argument("--tf", type=float, default=16.0)
    gen.add_argument("--law", choices=LAW_CHOICES)
    gen.add_argument("--gamma", type=float)
    gen.add_argument("--b", type=float)
    gen.add_argument("--dmin", type=float)
    gen.add_argument("--dmax", type=float)
    gen.add_argument("--x0-lo", type=_floats)
    gen.add_argument("--x0-hi", type=_floats)
    gen.add_argument("--d-range", type=_floats)
    gen.add_argument("--dhat0-range", type=_floats)
    gen.add_argument("--jobs", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen_dataset)

    tr = sub.add_parser("train", help="train the neural operator predictor",
                        allow_abbrev=False)
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

    bm = sub.add_parser("benchmark", help="latency comparison of backends",
                        allow_abbrev=False)
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

    ver = sub.add_parser("verify", help="run the property suites",
                         allow_abbrev=False)
    ver.add_argument("--suite", default="all",
                     help="one of: all, " + ", ".join(verify_mod.SUITES))
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=cmd_verify)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse the command line; with ``--config``, parse it again with the
    file's ``--key=value`` flags in front of the subcommand's own."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    flags = load_config_file(args.config)
    try:
        return parser.parse_args(argv[:1] + flags + argv[1:])
    except SystemExit:
        print(f"error: in config file {args.config}: each key must be a "
              f"flag of {args.command} with a valid value", file=_sys.stderr)
        raise


def main(argv=None) -> int:
    _setup_logging()
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (FileNotFoundError, ValueError) as exc:
        # ValueError covers ModelFormatError and DatasetFormatError
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
