"""Workloads of the predictor_lab benchmark: inputs, phases and correctness gate.

Every scenario parameter and input generator is a copy of the program's
presets at commit 37e733c (``cli.SIM_PRESETS``, ``cli.DATASET_PRESETS``,
the ``gen-dataset`` defaults and ``benchmark.make_corpus``), so an edit to
those presets cannot change what the benchmark measures.

A workload is one closed-loop scenario at N=201 plus the offline
data -> train -> infer pipeline on the protein plant.  The offline pipeline
runs on protein in both workloads: at the chemostat's dataset presets the
Picard solve does not converge for some sampled inputs, so a chemostat
harvest would fail by construction.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from predictor_lab import dataset, neural_operator, predictor, simulation
from predictor_lab.systems import make_system

WORKLOADS = ("protein-measured", "chemostat-unmeasured")

# cli.SIM_PRESETS at commit 37e733c; t_final is set per episode below
SCENARIOS = {
    "protein-measured": dict(
        system="protein", x0=(0.03, 30.0), d_true=1.0, d_hat0=2.0,
        d_min=0.5, d_max=2.5, gamma=1000.0, b=1.0, law="measured"),
    "chemostat-unmeasured": dict(
        system="chemostat", x0=(2.0, 2.0), d_true=1.6, d_hat0=1.8,
        d_min=1.0, d_max=2.2, gamma=0.2, b=1.0, law="unmeasured"),
}


@dataclass(frozen=True)
class Sizes:
    """Work per phase.  ``full`` is what the benchmark measures; ``smoke``
    exercises every phase in a few seconds."""

    # closed loop.  An episode must be longer than the true delay
    # (SimulationConfig.validate rejects t_final <= d_true) and long enough
    # to hold the chemostat's adaptation transient (its first ~500 steps).
    loop_dt: float
    loop_grid: int
    episode_t: float
    # offline pipeline at the gen-dataset defaults, with shorter source
    # runs: one source run per harvest chunk
    harvest_t: float
    harvest_chunks: int
    # identical trainings whose median rate is reported
    train_epochs: int
    train_repeats: int
    timing_rounds: int


FULL = Sizes(loop_dt=1e-3, loop_grid=201, episode_t=2.0,
             harvest_t=4.0, harvest_chunks=4, train_epochs=40,
             train_repeats=3, timing_rounds=8)
SMOKE = Sizes(loop_dt=4e-3, loop_grid=101, episode_t=1.8,
              harvest_t=1.6, harvest_chunks=1, train_epochs=3,
              train_repeats=1, timing_rounds=1)

# Picard tolerance of the closed loop.  1e-10 is out of reach: the solve
# stalls near 4e-10 at N=201.
SOLVER_TOL = 1e-8

# gen-dataset defaults (cli.cmd_gen_dataset) and DATASET_PRESETS["protein"]
HARVEST_CFG = dict(system="protein", d_min=0.5, d_max=2.5, gamma=1000.0,
                   b=1.0, law="measured", dt=2e-3, grid_points=41)
HARVEST_RANGES = dict(x0_lo=(0.02, 15.0), x0_hi=(0.3, 32.0),
                      d_true=(0.8, 1.4), d_hat0=(0.7, 2.3))
HARVEST_M = 41
HARVEST_STRIDE = 0.1
TARGET_TOL = 1e-9
# The harvest draws come from the gen-dataset default seed (plus the chunk
# index), not from --seed: the held-out sup error of the trained operator ranged 5.0-10.6
# over data seeds 0-4, far wider than any usable bound, while for one data
# seed it repeats to 1e-11.
DATA_SEED = 0
# provenance max_residual must stay at the scale of target_tol
HARVEST_RESIDUAL_FACTOR = 10.0

# train defaults of the CLI; patience >= epochs keeps the work constant
TRAIN_D_C = 64
TRAIN_LAYERS = 2

# held-out timing corpus (benchmark.make_corpus), seeded by --seed; the
# batched forward takes its first BATCH entries
CORPUS_SIZE = 256
BATCH = 64
CORPUS_D_RANGE = (0.5, 2.0)
TIMING_GRID = 201
COLD_TOL = 1e-8
SINGLE_PER_ROUND = 256
BATCH_PER_ROUND = 16
COLD_PER_ROUND = 64

# Closed-loop reference tolerances.  X(T) is compared relative to
# max(|X_ref|, 1).  The chemostat's sign-based update law amplifies
# rounding: a 1e-10 relative change of x0 moves its d_hat(T) by 8e-3 while
# X(T) moves by 1e-9, so its d_hat tolerance is wider.
REFERENCE_TOL = {
    "protein-measured": {"x_rtol": 1e-6, "d_hat_atol": 1e-6},
    "chemostat-unmeasured": {"x_rtol": 1e-6, "d_hat_atol": 2e-2},
}


@dataclass
class Failure:
    workload: str
    stage: str
    step: Optional[int]
    message: str

    def __str__(self):
        where = "" if self.step is None else f" step={self.step}"
        return (f"FAIL workload={self.workload} stage={self.stage}{where}: "
                f"{self.message}")


def describe(exc: Exception) -> str:
    """Type, message and the program line that raised, for a Failure.

    Every stage catches Exception at its boundary so that one failing stage
    is reported as failed operations while the other stages still run."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} (raised at "
            f"{Path(frame.filename).name}:{frame.lineno} in {frame.name})")


def scenario_config(workload: str, sizes: Sizes) -> simulation.SimulationConfig:
    return simulation.SimulationConfig(
        dt=sizes.loop_dt, t_final=sizes.episode_t,
        grid_points=sizes.loop_grid, solver_tol=SOLVER_TOL,
        predictor="numeric_fixed_point", **SCENARIOS[workload])


def make_corpus(sys, count: int, d_range: tuple, seed: int,
                fine_points: int = 2001) -> dict:
    """Random states, smooth control profiles and delays (benchmark.make_corpus)."""
    rng = np.random.default_rng(seed)
    X = sys.sample_states(count, rng)
    d = rng.uniform(d_range[0], d_range[1], size=count)
    xs = np.linspace(0.0, 1.0, fine_points)
    u = np.zeros((count, fine_points))
    amp = 0.4 * sys.u_bound
    center = float(sys.controller(sys.setpoint))
    for i in range(count):
        u[i] = center + rng.uniform(-0.5, 0.5) * amp
        for k in range(1, 4):
            u[i] += (amp / (2.0 * k)) * (
                rng.uniform(-1, 1) * np.sin(2 * np.pi * k * xs)
                + rng.uniform(-1, 1) * np.cos(2 * np.pi * k * xs))
    if sys.control_lo is not None:
        u = np.clip(u, sys.control_lo, sys.control_hi)
    return {"X": X, "u_fine": u, "x_fine": xs, "d": d}


@dataclass
class Inputs:
    """Everything a run builds before it measures: the set-up cost."""

    loop_system: object
    protein: object
    corpus: dict
    u_grid: np.ndarray    # corpus profiles on the N=201 solve grid
    u_model: np.ndarray   # corpus profiles on the operator's m input nodes


def build_inputs(workload: str, seed: int) -> Inputs:
    protein = make_system("protein")
    name = SCENARIOS[workload]["system"]
    loop_system = protein if name == "protein" else make_system(name)
    corpus = make_corpus(protein, CORPUS_SIZE, CORPUS_D_RANGE, seed)
    x_fine, u_fine = corpus["x_fine"], corpus["u_fine"]
    grid = np.linspace(0.0, 1.0, TIMING_GRID)
    m_grid = np.linspace(0.0, 1.0, HARVEST_M)
    u_grid = np.array([np.interp(grid, x_fine, row) for row in u_fine])
    u_model = np.array([np.interp(m_grid, x_fine, row) for row in u_fine])
    return Inputs(loop_system, protein, corpus, u_grid, u_model)


# ---------------------------------------------------------------------------
# closed loop

@dataclass
class Episode:
    steps: int = 0
    held: int = 0
    intervals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    trace: object = None
    last_step: Optional[tuple] = None   # (t, hist, d_hat, profile)


def run_episode(cfg, system, run: Callable = simulation.run,
                ep: Optional[Episode] = None) -> Episode:
    """One closed loop; the interval between successive on_step stamps is
    the step time.  Raises what ``run`` raises, with ``ep.steps`` counting
    the steps completed."""
    stamps = []
    ep = Episode() if ep is None else ep

    def on_step(k, t, X, hist, d_hat, profile):
        stamps.append(time.perf_counter())
        ep.steps = k + 1
        if profile is None:
            ep.held += 1
        ep.last_step = (t, hist, d_hat, profile)

    ep.trace = run(cfg, system=system, on_step=on_step)
    ep.intervals = np.diff(np.asarray(stamps))
    return ep


def check_episode(workload: str, cfg, ep: Episode, reference: dict,
                  stage: str) -> list:
    """Correctness gate of one closed-loop episode."""
    fails = []

    def fail(step, msg):
        fails.append(Failure(workload, stage, step, msg))

    tr = ep.trace
    if tr.diverged:
        fail(tr.divergence_step, "state diverged")
    for name in ("X", "U", "d_hat", "phi", "pred_residual"):
        bad = np.flatnonzero(~np.all(np.isfinite(
            getattr(tr, name).reshape(tr.n_steps, -1)), axis=1))
        if bad.size:
            fail(int(bad[0]), f"non-finite {name}")
    out = np.flatnonzero((tr.d_hat < cfg.d_min) | (tr.d_hat > cfg.d_max))
    if out.size:
        fail(int(out[0]), f"d_hat={tr.d_hat[out[0]]!r} outside "
                          f"[{cfg.d_min}, {cfg.d_max}]")
    if ep.held:
        fail(None, f"{ep.held} steps held the previous control "
                   "after a predictor failure")
    dx = 1.0 / (cfg.grid_points - 1)
    limit = 10.0 * dx * dx
    worst = int(np.argmax(tr.pred_residual))
    if tr.pred_residual[worst] > limit:
        fail(worst, f"predictor residual {tr.pred_residual[worst]:.3e} "
                    f"> 10 dx^2 = {limit:.3e}")
    if reference is None:
        fail(None, "no recorded reference for this configuration")
        return fails
    tol = REFERENCE_TOL[workload]
    if tr.n_steps != reference["steps"]:
        fail(tr.n_steps, f"ran {tr.n_steps} steps, reference "
                         f"{reference['steps']}")
        return fails
    x_ref = np.asarray(reference["X_T"])
    x_err = np.abs(tr.X[-1] - x_ref) / np.maximum(np.abs(x_ref), 1.0)
    if not np.all(x_err <= tol["x_rtol"]):
        fail(tr.n_steps - 1, f"X(T)={tr.X[-1].tolist()} differs from the "
             f"reference {x_ref.tolist()} (relative {x_err.max():.2e} > "
             f"{tol['x_rtol']:g})")
    d_err = abs(tr.d_hat[-1] - reference["d_hat_T"])
    if not d_err <= tol["d_hat_atol"]:
        fail(tr.n_steps - 1, f"d_hat(T)={float(tr.d_hat[-1])!r} differs from the "
             f"reference {reference['d_hat_T']!r} by {d_err:.2e} > "
             f"{tol['d_hat_atol']:g}")
    return fails


def loop_episode(workload: str, cfg, system, reference: Optional[dict],
                 stage: str, failures: list,
                 run: Callable = simulation.run) -> Episode:
    """One gated episode; its ``trace`` is None when the run aborts."""
    ep = Episode()
    try:
        run_episode(cfg, system, run, ep)
    except Exception as exc:
        failures.append(Failure(workload, stage, ep.steps,
                                f"run aborted: {describe(exc)}"))
        ep.trace = None
        return ep
    failures.extend(check_episode(workload, cfg, ep, reference, stage))
    return ep


# ---------------------------------------------------------------------------
# offline pipeline

def harvest_config(sizes: Sizes):
    base = simulation.SimulationConfig(t_final=sizes.harvest_t, **HARVEST_CFG)
    return base, dataset.SampleRanges(**HARVEST_RANGES)


def samples_per_source_run(sizes: Sizes) -> int:
    """Harvest points per source run, as generate_dataset counts them."""
    return max(1, int(sizes.harvest_t / HARVEST_STRIDE) - 1)


def harvest_chunk(workload: str, sizes: Sizes, chunk: int, failures: list):
    """One source run's worth of protein samples, drawn with data seed
    DATA_SEED + chunk; returns (dataset or None, seconds, attempted)."""
    base, ranges = harvest_config(sizes)
    want = samples_per_source_run(sizes)
    stage = f"harvest chunk {chunk}"
    tic = time.perf_counter()
    try:
        data = dataset.generate_dataset(
            base, want, ranges, seed=DATA_SEED + chunk, m=HARVEST_M,
            stride_s=HARVEST_STRIDE, target_tol=TARGET_TOL, jobs=1)
    except Exception as exc:
        failures.append(Failure(workload, stage, None, describe(exc)))
        return None, time.perf_counter() - tic, want
    seconds = time.perf_counter() - tic
    prov = data.provenance
    lost = prov["skipped_samples"] + prov["skipped_runs"] * want
    if lost:
        failures.append(Failure(
            workload, stage, None,
            f"{prov['skipped_samples']} samples skipped, "
            f"{prov['skipped_runs']} of {prov['runs']} source runs diverged"))
    limit = HARVEST_RESIDUAL_FACTOR * TARGET_TOL
    if not prov["max_residual"] <= limit:
        failures.append(Failure(
            workload, stage, None,
            f"provenance max_residual {prov['max_residual']:.3e} > {limit:.1e}"))
    if len(data) != want:
        failures.append(Failure(workload, stage, None,
                                f"{len(data)} samples, expected {want}"))
    return data, seconds, len(data) + lost


def merge(chunks: list):
    """One training dataset from the harvested chunks."""
    provs = [c.provenance for c in chunks]
    prov = dict(provs[0], runs=sum(p["runs"] for p in provs),
                skipped_runs=sum(p["skipped_runs"] for p in provs),
                max_residual=max(p["max_residual"] for p in provs))
    return dataset.PredictorDataset(
        X=np.concatenate([c.X for c in chunks]),
        u=np.concatenate([c.u for c in chunks]),
        d_hat=np.concatenate([c.d_hat for c in chunks]),
        targets=np.concatenate([c.targets for c in chunks]),
        provenance=prov)


def train_count(n: int, cfg) -> int:
    """Training-split size, as neural_operator.train splits the data."""
    return n - 2 * max(1, int(round(cfg.validation_fraction * n)))


def warm_up_training(workload: str, data, failures: list) -> bool:
    """One untimed epoch.  The first training in a process ran at half the
    rate of later ones while the BLAS thread pool came up."""
    cfg = neural_operator.TrainingConfig(epochs=1, seed=0)
    try:
        neural_operator.train(data, cfg, d_c=TRAIN_D_C, layers=TRAIN_LAYERS)
    except Exception as exc:
        failures.append(Failure(workload, "train warm-up", None,
                                describe(exc)))
        return False
    return True


def train_model(workload: str, data, sizes: Sizes, failures: list):
    """Fixed-budget training; returns (model, report, seconds, samples seen)."""
    cfg = neural_operator.TrainingConfig(
        epochs=sizes.train_epochs, early_stop_patience=sizes.train_epochs,
        seed=0)
    tic = time.perf_counter()
    try:
        model, report = neural_operator.train(data, cfg, d_c=TRAIN_D_C,
                                              layers=TRAIN_LAYERS)
    except Exception as exc:
        failures.append(Failure(workload, "train", None, describe(exc)))
        return None, None, time.perf_counter() - tic, 0
    seconds = time.perf_counter() - tic
    for key in ("train_err", "val_err", "test_err"):
        if not np.isfinite(report[key]):
            failures.append(Failure(workload, "train", report["epochs_run"],
                                    f"non-finite {key}"))
    if report["epochs_run"] != sizes.train_epochs:
        failures.append(Failure(
            workload, "train", report["epochs_run"],
            f"stopped after {report['epochs_run']} of "
            f"{sizes.train_epochs} epochs"))
    seen = train_count(len(data), cfg) * report["epochs_run"]
    return model, report, seconds, seen


def _timed(fn):
    tic = time.perf_counter()
    out = fn()
    return time.perf_counter() - tic, out


@dataclass
class Timings:
    """Per-call seconds of the inference timings, accumulated over rounds."""

    single: list = field(default_factory=list)
    batch: list = field(default_factory=list)
    cold: list = field(default_factory=list)
    forwards: int = 0
    colds: int = 0


def forward_round(workload: str, model, inputs: Inputs, acc: Timings,
                  failures: list) -> None:
    """Single-sample and batched operator forwards on the held-out corpus,
    at N=201; appends to ``acc``."""
    c = inputs.corpus
    X, d, u = c["X"], c["d"], inputs.u_model
    queries = np.linspace(0.0, 1.0, TIMING_GRID)
    batch = slice(0, BATCH)

    def forward(stage, sel, shape, out):
        acc.forwards += 1
        step = sel if isinstance(sel, int) else None
        try:
            dt, y = _timed(lambda: neural_operator.forward(
                model, X[sel], u[sel], d[sel], queries))
        except Exception as exc:
            failures.append(Failure(workload, stage, step, describe(exc)))
            return
        out.append(dt)
        if y.shape != shape or not np.all(np.isfinite(y)):
            failures.append(Failure(workload, stage, step,
                                    f"bad output shape {y.shape} or "
                                    "non-finite values"))

    if not acc.forwards:
        # untimed: with threaded OpenBLAS, single-sample forwards issued
        # before any larger product sometimes ran at a steady 8 ms instead
        # of 0.35 ms, in some processes and not others
        forward("forward-batch warm-up", batch,
                (BATCH, TIMING_GRID, model.n), [])
    for _ in range(SINGLE_PER_ROUND):
        forward("forward", acc.forwards % len(X), (TIMING_GRID, model.n),
                acc.single)
    for _ in range(BATCH_PER_ROUND):
        forward("forward-batch", batch, (BATCH, TIMING_GRID, model.n),
                acc.batch)


def cold_round(workload: str, inputs: Inputs, acc: Timings,
               failures: list) -> None:
    """Cold Picard solves on the held-out corpus at N=201; appends to
    ``acc``."""
    c = inputs.corpus
    grid = predictor.PredictorGrid(TIMING_GRID)
    limit = 10.0 * grid.dx ** 2
    for _ in range(COLD_PER_ROUND):
        j = acc.colds % len(c["X"])
        acc.colds += 1
        u_nodes = inputs.u_grid[j]
        try:
            dt, prof = _timed(lambda: predictor.solve_fixed_point(
                inputs.protein, c["X"][j], lambda x: u_nodes, c["d"][j],
                grid, tol=COLD_TOL))
        except Exception as exc:
            failures.append(Failure(workload, "cold-solve", j, describe(exc)))
            continue
        acc.cold.append(dt)
        if not prof.residual <= limit:
            failures.append(Failure(workload, "cold-solve", j,
                                    f"residual {prof.residual:.3e} > 10 dx^2"))
