"""Wall-clock latency comparison of predictor backends across grid sizes."""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .neural_operator import NeuralOperatorModel, forward
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
        backends = sorted({c.backend for c in self.cells},
                          key=lambda b: (b != "numeric", b))
        dxs = sorted({c.dx for c in self.cells}, reverse=True)
        cols = ["dx"]
        for b in backends:
            cols += [f"{b}_mean_s", f"{b}_std_s"]
            if b != "numeric":
                cols.append(f"{b}_speedup")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for dx in dxs:
                row = [f"{dx:g}"]
                for b in backends:
                    try:
                        c = self.cell(b, dx)
                        if c.failed:
                            row += ["failed", "failed"]
                            row += ["failed"] if b != "numeric" else []
                            continue
                        row += [repr(c.mean_s), repr(c.std_s)]
                        if b != "numeric":
                            row.append(f"{c.speedup:.2f}")
                    except KeyError:
                        row += [""] * (3 if b != "numeric" else 2)
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


def _timed(fn, count: int, n_trials: int, warmup: int):
    """Mean and std of n_trials timed calls fn(j) after warmup untimed ones,
    j cycling through the corpus indices 0..count-1.  A failing call raises
    _CallFailed with its index."""
    times = np.empty(warmup + n_trials)
    for i, k in enumerate(itertools.chain(range(warmup), range(n_trials))):
        j = k % count
        try:
            tic = time.perf_counter()
            fn(j)
            times[i] = time.perf_counter() - tic
        except Exception as exc:
            raise _CallFailed(j, exc) from exc
    timed = times[warmup:]
    return float(timed.mean()), float(timed.std())


def benchmark_predictors(sys: SystemModel, backends: list, dx_list: list,
                         n_trials: int, corpus: dict,
                         model: NeuralOperatorModel = None,
                         warmup: int = WARMUP_SOLVES) -> BenchReport:
    """Mean solve wall-time per (dx, backend) cell over a shared corpus.

    Only the solve is timed; input resampling onto each backend's grid is
    precomputed.  A failing backend marks its cell with the exception and
    the corpus index that raised it, and the run continues.
    """
    if n_trials < 1:
        raise ValueError(f"trials={n_trials} must be at least 1")
    if len(corpus["X"]) == 0:
        raise ValueError("empty benchmark corpus")
    if "neural" in backends and model is None:
        raise ValueError("neural backend requires a trained model")
    grids = [PredictorGrid.from_dx(dx) for dx in dx_list]
    report = BenchReport(corpus_hash=corpus_hash(corpus))
    count = len(corpus["X"])
    X, d = corpus["X"], corpus["d"]
    x_fine, u_fine = corpus["x_fine"], corpus["u_fine"]

    for dx, grid in zip(dx_list, grids):
        u_nodes = np.array([np.interp(grid.points, x_fine, u_fine[i])
                            for i in range(count)])
        u_model = None
        if model is not None:
            u_model = np.array([np.interp(model.input_grid, x_fine, u_fine[i])
                                for i in range(count)])
        numeric_mean = None
        for backend in backends:
            if backend == "numeric":
                def fn(j, _g=grid):
                    solve_fixed_point(sys, X[j], lambda x: u_nodes[j], d[j],
                                      _g, tol=SOLVER_TOL)
            elif backend == "neural":
                def fn(j, _g=grid):
                    forward(model, X[j], u_model[j], d[j], _g.points)
            else:
                raise ValueError(f"unknown backend {backend!r}")
            try:
                mean_s, std_s = _timed(fn, count, n_trials, warmup)
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
