"""Command-line entry point: simulate, gen-dataset, train, benchmark, verify.

A flag that sets a setting has the setting's name as its ``dest``: a field of
``SimulationConfig``, ``SampleRanges`` or ``TrainingConfig``, or a keyword of
the library call.  It defaults to ``None``, and a command passes on only the
flags that were given, so each default lives once, in the dataclass or the
signature.  A system's preset is a ``SimulationConfig`` value.

``--config FILE`` reads a flat key=value file in which each key is the name
of one of the subcommand's flags without its dashes (``tf=3`` is ``--tf 3``,
``linear-a=2`` is ``--linear-a 2``).  The file's lines are parsed as flags in
front of the command line, so a flag given on the command line wins, and an
unknown key or a bad value is a usage error that names the file.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys as _sys
from dataclasses import fields, replace

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

# SimulationConfig's defaults are the protein scenario
SIM_PRESETS = {
    "protein": SimulationConfig(),
    "chemostat": SimulationConfig(system="chemostat", x0=(2.0, 2.0),
                                  d_true=1.6, d_hat0=1.8, d_min=1.0,
                                  d_max=2.2, gamma=0.2, t_final=30.0,
                                  law="unmeasured"),
    "linear": SimulationConfig(system="linear", x0=(1.0,), d_hat0=1.5,
                               d_min=0.2, d_max=2.0, gamma=10.0,
                               t_final=10.0),
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


def _grid_steps(text: str) -> tuple:
    """Comma-separated grid steps, no two of them giving the same grid."""
    steps = _floats(text)
    try:
        sizes = {PredictorGrid.from_dx(dx).n_points for dx in steps}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(sizes) != len(steps):
        raise argparse.ArgumentTypeError(
            f"two steps in {text!r} give one grid")
    return steps


def _pair(text: str) -> tuple:
    """``lo,hi``: exactly two finite numbers with lo <= hi."""
    pair = _floats(text)
    if len(pair) != 2 or not -math.inf < pair[0] <= pair[1] < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected lo,hi with finite lo <= hi, got {text!r}")
    return pair


def _names(cls) -> set:
    return {f.name for f in fields(cls)}


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, by dest."""
    return {k: v for k, v in vars(args).items()
            if k in names and v is not None}


def cmd_simulate(args) -> int:
    given = _given(args, _names(SimulationConfig))
    if args.dx is not None:
        given["grid_points"] = PredictorGrid.from_dx(args.dx).n_points
    cfg = replace(SIM_PRESETS[args.system], **given)
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
    range_names = _names(ds.SampleRanges)
    ranges = replace(DATASET_PRESETS[args.system],
                     **_given(args, range_names))
    # d_true and d_hat0 are drawn per source run from their ranges
    base = replace(SIM_PRESETS[args.system],
                   **_given(args, _names(SimulationConfig) - range_names))
    try:
        data = ds.generate_dataset(
            base, args.n, ranges,
            **_given(args, ("seed", "m", "q", "stride_s", "jobs")))
    except (RuntimeError, PredictorError) as exc:
        print(f"dataset generation failed: {exc}", file=_sys.stderr)
        return EXIT_DOMAIN
    ds.save_dataset(data, args.out)
    print(f"wrote {len(data)} samples to {args.out} "
          f"(hash {data.provenance['config_hash']})")
    return EXIT_OK


def cmd_train(args) -> int:
    data = ds.load_dataset(args.dataset)
    cfg = no.TrainingConfig(**_given(args, _names(no.TrainingConfig)))
    try:
        model, report = no.train(data, cfg, **_given(args, ("d_c", "layers")))
    except (ValueError, RuntimeError) as exc:
        print(f"training failed: {exc}", file=_sys.stderr)
        return EXIT_DOMAIN
    no.save_model(model, args.out)
    print(f"trained d_c={model.d_c} L={model.layers}: "
          f"train_err={report['train_err']:.3e} "
          f"test_eps={report['test_err']:.4f} "
          f"epochs={report['epochs_run']} -> {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    sys_model = make_system(args.system)
    model = no.load_model(args.model) if args.model else None
    corpus = bench.make_corpus(sys_model, args.corpus_size, args.d_range,
                               **_given(args, ("seed",)))
    report = bench.benchmark_predictors(sys_model, list(args.dx),
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
        results = verify_mod.run_suites(names, **_given(args, ("seed",)))
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
    sim.add_argument("--predictor", choices=PREDICTOR_CHOICES)
    sim.add_argument("--law", choices=LAW_CHOICES)
    sim.add_argument("--D", dest="d_true", type=float, help="true delay")
    sim.add_argument("--dhat0", dest="d_hat0", type=float)
    sim.add_argument("--dmin", dest="d_min", type=float)
    sim.add_argument("--dmax", dest="d_max", type=float)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--b", type=float)
    sim.add_argument("--x0", type=_floats)
    sim.add_argument("--tf", dest="t_final", type=float)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--dx", type=float, help="predictor grid step")
    sim.add_argument("--model", dest="model_path",
                     help="trained model for --predictor neural")
    sim.add_argument("--clip", dest="control_clip", type=_pair,
                     help="control clip lo,hi")
    sim.add_argument("--linear-a", type=float)
    sim.add_argument("--linear-b", type=float)
    sim.add_argument("--out", help="trace CSV path")
    sim.set_defaults(fn=cmd_simulate)

    gen = sub.add_parser("gen-dataset", help="harvest a predictor dataset",
                         allow_abbrev=False)
    gen.add_argument("--config", help=config_help)
    gen.add_argument("--system", choices=list(DATASET_PRESETS),
                     default="protein")
    gen.add_argument("--n", type=int, default=1000, help="number of samples")
    gen.add_argument("--m", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--grid", dest="grid_points", type=int, default=41)
    gen.add_argument("--stride", dest="stride_s", type=float)
    gen.add_argument("--dt", type=float, default=2e-3)
    gen.add_argument("--tf", dest="t_final", type=float, default=16.0)
    gen.add_argument("--law", choices=LAW_CHOICES)
    gen.add_argument("--gamma", type=float)
    gen.add_argument("--b", type=float)
    gen.add_argument("--dmin", dest="d_min", type=float)
    gen.add_argument("--dmax", dest="d_max", type=float)
    gen.add_argument("--x0-lo", type=_floats)
    gen.add_argument("--x0-hi", type=_floats)
    gen.add_argument("--d-range", dest="d_true", type=_pair)
    gen.add_argument("--dhat0-range", dest="d_hat0", type=_pair)
    gen.add_argument("--jobs", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen_dataset)

    tr = sub.add_parser("train", help="train the neural operator predictor",
                        allow_abbrev=False)
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--dc", dest="d_c", type=int)
    tr.add_argument("--layers", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--patience", dest="early_stop_patience", type=int)
    tr.add_argument("--lr", dest="learning_rate", type=float)
    tr.add_argument("--batch", dest="batch_size", type=int)
    tr.add_argument("--val-fraction", dest="validation_fraction", type=float)
    tr.add_argument("--seed", type=int)
    tr.set_defaults(fn=cmd_train)

    bm = sub.add_parser("benchmark", help="latency comparison of backends",
                        allow_abbrev=False)
    bm.add_argument("--system", default="protein")
    bm.add_argument("--model", help="trained model; adds the neural backend")
    bm.add_argument("--dx", type=_grid_steps, default="0.01,0.005,0.001")
    bm.add_argument("--trials", type=int, default=1000)
    bm.add_argument("--corpus-size", type=int, default=64)
    bm.add_argument("--d-range", type=_pair, default=(0.5, 2.0))
    bm.add_argument("--seed", type=int)
    bm.add_argument("--out")
    bm.set_defaults(fn=cmd_benchmark)

    ver = sub.add_parser("verify", help="run the property suites",
                         allow_abbrev=False)
    ver.add_argument("--suite", default="all",
                     help="one of: all, " + ", ".join(verify_mod.SUITES))
    ver.add_argument("--seed", type=int)
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
