"""Wall-clock latency comparison of predictor backends across grid sizes."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .neural_operator import NeuralOperatorModel, check_state_dim, forward
from .predictor import PredictorGrid, solve_fixed_point
from .systems import SystemModel

WARMUP_SOLVES = 50
SOLVER_TOL = 1e-10     # Picard tolerance of the numeric backend
FINE_POINTS = 2001     # corpus control profiles are stored on this grid


@dataclass
class BenchCell:
    backend: str
    dx: float
    mean_s: float
    std_s: float
    speedup: float
    error: Optional[str] = None         # "ExceptionType: message" of a failure
    corpus_index: Optional[int] = None  # corpus input whose solve failed

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class BenchReport:
    cells: list = field(default_factory=list)
    corpus_hash: str = ""

    def cell(self, backend: str, dx: float) -> BenchCell:
        for c in self.cells:
            if c.backend == backend and abs(c.dx - dx) < 1e-12:
                return c
        raise KeyError((backend, dx))

    def write_csv(self, path) -> None:
        """One row per dx, coarse first; every dx has a cell per backend."""
        backends = list(dict.fromkeys(c.backend for c in self.cells))
        cols = ["dx"]
        for b in backends:
            cols += [f"{b}_mean_s", f"{b}_std_s"]
            if b != "numeric":
                cols.append(f"{b}_speedup")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for dx in sorted({c.dx for c in self.cells}, reverse=True):
                row = [f"{dx:g}"]
                for b in backends:
                    c = self.cell(b, dx)
                    values = [repr(c.mean_s), repr(c.std_s)]
                    if b != "numeric":
                        values.append(f"{c.speedup:.2f}")
                    row += ["failed"] * len(values) if c.failed else values
                fh.write(",".join(row) + "\n")


def make_corpus(sys: SystemModel, count: int, d_range: tuple,
                seed: int = 0) -> dict:
    """Random states, smooth control profiles and delays for benchmarking.

    Profiles are short random Fourier series scaled inside the system's
    control bound, stored densely so every backend resamples one source.
    """
    rng = np.random.default_rng(seed)
    X = sys.sample_states(count, rng)
    d = rng.uniform(d_range[0], d_range[1], size=count)
    xs = np.linspace(0.0, 1.0, FINE_POINTS)
    u = np.zeros((count, FINE_POINTS))
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


def corpus_hash(corpus: dict) -> str:
    h = hashlib.sha256()
    for key in ("X", "u_fine", "d"):
        h.update(np.ascontiguousarray(corpus[key]).tobytes())
    return h.hexdigest()[:16]


class _CallFailed(Exception):
    def __init__(self, index: int, cause: Exception):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _timed(fn, count: int, n_trials: int):
    """Mean and std of n_trials timed calls fn(j) after WARMUP_SOLVES untimed
    ones, j cycling through the corpus indices 0..count-1.  A failing call
    raises _CallFailed with its index."""
    times = np.empty(WARMUP_SOLVES + n_trials)
    for i, k in enumerate([*range(WARMUP_SOLVES), *range(n_trials)]):
        j = k % count
        try:
            tic = time.perf_counter()
            fn(j)
            times[i] = time.perf_counter() - tic
        except Exception as exc:
            raise _CallFailed(j, exc) from exc
    timed = times[WARMUP_SOLVES:]
    return float(timed.mean()), float(timed.std())


def benchmark_predictors(sys: SystemModel, dx_list: list, n_trials: int,
                         corpus: dict,
                         model: NeuralOperatorModel = None) -> BenchReport:
    """Mean solve wall-time per (dx, backend) cell over a shared corpus.

    The numeric backend always runs, as the speedup baseline; the neural
    backend runs when a ``model`` is given.  Only the solve is timed; input
    resampling onto each backend's grid is precomputed.  A failing backend
    marks its cell with the exception and the corpus index that raised it,
    and the run continues.
    """
    if n_trials < 1:
        raise ValueError(f"trials={n_trials} must be at least 1")
    if len(corpus["X"]) == 0:
        raise ValueError("empty benchmark corpus")
    if model is not None:
        check_state_dim(model, sys)
    grids = [PredictorGrid.from_dx(dx) for dx in dx_list]
    report = BenchReport(corpus_hash=corpus_hash(corpus))
    count = len(corpus["X"])
    X, d = corpus["X"], corpus["d"]
    x_fine, u_fine = corpus["x_fine"], corpus["u_fine"]

    for dx, grid in zip(dx_list, grids):
        u_nodes = np.array([np.interp(grid.points, x_fine, u_fine[i])
                            for i in range(count)])
        backends = {"numeric": lambda j: solve_fixed_point(
            sys, X[j], lambda x: u_nodes[j], d[j], grid, tol=SOLVER_TOL)}
        if model is not None:
            u_model = np.array([np.interp(model.input_grid, x_fine, u_fine[i])
                                for i in range(count)])
            backends["neural"] = lambda j: forward(model, X[j], u_model[j],
                                                   d[j], grid.points)
        numeric_mean = None
        for backend, fn in backends.items():
            try:
                mean_s, std_s = _timed(fn, count, n_trials)
            except _CallFailed as failure:
                cause = failure.cause
                report.cells.append(BenchCell(
                    backend=backend, dx=dx, mean_s=np.nan, std_s=np.nan,
                    speedup=np.nan, corpus_index=failure.index,
                    error=f"{type(cause).__name__}: {cause}"))
                continue
            if backend == "numeric":
                numeric_mean = mean_s
            speedup = (numeric_mean / mean_s
                       if numeric_mean is not None else np.nan)
            report.cells.append(BenchCell(backend=backend, dx=dx,
                                          mean_s=mean_s, std_s=std_s,
                                          speedup=speedup))
    return report
