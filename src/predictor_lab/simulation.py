"""Closed-loop simulation: plant, history, predictor, adaptation, diagnostics."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptation import (LAW_CHOICES, AdaptationState,
                         estimated_input_profile, phi_measured,
                         phi_unmeasured, step_delay_estimate)
from .history import (InputHistory, delayed_input_sampler,
                      distributed_input_xderiv, run_window_functionals,
                      window_functionals)
from .neural_operator import forward, load_model
from .predictor import (PredictorError, PredictorGrid, PredictorProfile,
                        integral_residual, q1_scan, solve_fixed_point)
from .systems import SystemModel, make_system

log = logging.getLogger("predictor_lab")

# "none" applies zero input; "uncompensated" applies kappa(X) through the
# delay, with no prediction
PREDICTOR_CHOICES = ("numeric_fixed_point", "neural", "none", "uncompensated")
MAX_CONSECUTIVE_SOLVER_FAILURES = 10
DIVERGENCE_NORM = 1e12


@dataclass
class SimulationConfig:
    system: str = "protein"
    x0: tuple = (0.03, 30.0)
    d_true: float = 1.0
    d_hat0: float = 2.0
    d_min: float = 0.5
    d_max: float = 2.5
    gamma: float = 1000.0
    b: float = 1.0
    dt: float = 1e-3
    t_final: float = 40.0
    predictor: str = "numeric_fixed_point"
    law: str = "measured"
    grid_points: int = 201
    model_path: Optional[str] = None
    control_clip: Optional[tuple] = None
    # above the float stall floor of large-state solves, far below dx^2
    solver_tol: float = 1e-8
    solver_max_iter: int = 200
    linear_a: float = -0.5
    linear_b: float = 1.0

    def validate(self):
        """Reject a configuration that ``run`` cannot execute.

        The horizon must hold at least one control step: ``run`` takes
        ``round(t_final / dt)`` steps, so ``t_final`` at or below half of
        ``dt`` leaves an empty trace.  A horizon shorter than ``d_true`` is
        valid: the input history starts idle (U = 0 on [-D, 0]), so every
        delayed lookup is defined from the first step and the plant simply
        has not yet received any control.
        """
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        steps = self.t_final / self.dt
        if not math.isfinite(steps) or round(steps) < 1:
            raise ValueError(f"t_final={self.t_final!r} must hold at least "
                             f"one step of dt={self.dt!r}")
        if self.predictor not in PREDICTOR_CHOICES:
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.law not in LAW_CHOICES:
            raise ValueError(f"unknown adaptation law {self.law!r}")
        if self.predictor == "neural" and self.model_path is None:
            raise ValueError("neural predictor requires model_path")
        if not self.d_min <= self.d_true <= self.d_max:
            log.warning("true delay %.3f outside [%.3f, %.3f]; "
                        "running anyway (robustness experiment)",
                        self.d_true, self.d_min, self.d_max)


@dataclass
class SimulationTrace:
    """Per-step record of one closed-loop run.  No control decision reads
    the diagnostics ``gamma_fn``/``upsilon_fn``: ``run`` fills them after its
    loop from U, X and d_hat."""

    t: np.ndarray
    X: np.ndarray              # (K, n)
    U: np.ndarray              # applied (clipped) control
    U_unclipped: np.ndarray
    U_arriving: np.ndarray     # U(t - D_true) seen by the plant
    d_hat: np.ndarray
    phi: np.ndarray
    gamma_fn: np.ndarray
    upsilon_fn: np.ndarray
    pred_residual: np.ndarray
    pred_time_s: np.ndarray
    diverged: bool = False
    divergence_step: Optional[int] = None
    config: Optional[SimulationConfig] = None

    @property
    def n_steps(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        n = self.X.shape[1]
        cols = ["t"] + [f"X_{i + 1}" for i in range(n)] + [
            "U", "d_hat", "phi", "gamma", "upsilon",
            "pred_residual", "pred_time_s"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(self.n_steps):
                row = [self.t[k], *self.X[k], self.U[k], self.d_hat[k],
                       self.phi[k], self.gamma_fn[k], self.upsilon_fn[k],
                       self.pred_residual[k], self.pred_time_s[k]]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _gamma(v, w, d_true, d_hat):
    return v + w["int_U2"] + (d_true - d_hat) ** 2


def _upsilon(v, w, d_true, d_hat):
    return (np.sqrt(v) + w["int_absU"] + w["int_absUdot"]
            + w["int_absUddot"] + (d_true - d_hat) ** 2)


def gamma_functional(sys: SystemModel, X, h: InputHistory, d_true: float,
                     d_hat: float) -> float:
    """V(X) + int_{t-D}^t U^2 + (D - d_hat)^2 (measured-case diagnostic)."""
    return float(_gamma(sys.lyapunov(X), window_functionals(h, d_true),
                        d_true, d_hat))


def upsilon_functional(sys: SystemModel, X, h: InputHistory, d_true: float,
                       d_hat: float) -> float:
    """sqrt V(X) + L1 norms of U, dU, ddU over max(D, d_hat) + (D - d_hat)^2."""
    return float(_upsilon(sys.lyapunov(X),
                          window_functionals(h, max(d_true, d_hat)),
                          d_true, d_hat))


def run(cfg: SimulationConfig, system: Optional[SystemModel] = None,
        on_step=None) -> SimulationTrace:
    """Explicit-Euler closed loop per the configured predictor and law.

    ``on_step(k, t, X, hist, d_hat, profile)`` fires after the control push
    each step; dataset harvesting hangs off it.  The diagnostics
    ``gamma_fn``/``upsilon_fn`` are filled from the recorded U, X and d_hat
    after the loop, so ``on_step`` cannot read them.
    """
    cfg.validate()
    sys = system if system is not None else make_system(
        cfg.system, a=cfg.linear_a, b_in=cfg.linear_b)
    X = np.asarray(cfg.x0, dtype=float).copy()
    if X.shape != (sys.state_dim,):
        raise ValueError(f"x0={cfg.x0!r} does not match the state dimension "
                         f"{sys.state_dim} of the {sys.name} plant")
    if cfg.predictor == "neural":
        model = load_model(cfg.model_path)

    clip = cfg.control_clip
    if clip is None and sys.control_lo is not None:
        clip = (sys.control_lo, sys.control_hi)

    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    window = 2.0 * max(cfg.d_max, cfg.d_true) + 4.0 * dt
    hist = InputHistory(dt, window, t0=-dt)
    grid = PredictorGrid(cfg.grid_points)
    st = AdaptationState(d_hat=cfg.d_hat0, d_min=cfg.d_min, d_max=cfg.d_max,
                         gamma=cfg.gamma, b=cfg.b, law=cfg.law)

    warm = None
    failures = 0
    warned_failure = False
    prev_u_raw = 0.0

    K = n_steps
    out = {name: np.zeros(K) for name in
           ("t", "U", "U_unclipped", "U_arriving", "d_hat", "phi",
            "pred_residual", "pred_time_s")}
    Xs = np.zeros((K, sys.state_dim))
    diverged = False
    div_step = None

    for k in range(K):
        t = k * dt
        d_hat = st.d_hat
        profile = None
        residual = 0.0
        solve_time = 0.0

        if cfg.predictor == "none":
            u_raw = 0.0
        elif cfg.predictor == "uncompensated":
            u_raw = float(sys.controller(X))
        else:
            profile_delay = d_hat if cfg.law == "unmeasured" else cfg.d_true
            sampler = delayed_input_sampler(hist, t, profile_delay)
            try:
                tic = time.perf_counter()
                if cfg.predictor == "numeric_fixed_point":
                    profile = solve_fixed_point(
                        sys, X, sampler, d_hat, grid, tol=cfg.solver_tol,
                        max_iter=cfg.solver_max_iter, warm_start=warm)
                else:  # neural
                    u_m = np.asarray(sampler(model.input_grid), dtype=float)
                    values = forward(model, X, u_m, d_hat, grid.points)
                    profile = PredictorProfile(
                        grid=grid, values=values, iterations=0,
                        residual=integral_residual(
                            sys, values, np.asarray(sampler(grid.points)),
                            d_hat, grid.dx))
                solve_time = time.perf_counter() - tic
                residual = profile.residual
                warm = profile.values
                failures = 0
                u_raw = float(sys.controller(profile.values[-1]))
            except PredictorError as exc:
                failures += 1
                if not warned_failure:
                    log.warning("predictor failed at t=%.4f (%s); "
                                "holding previous control", t, exc)
                    warned_failure = True
                if failures > MAX_CONSECUTIVE_SOLVER_FAILURES:
                    raise PredictorError(
                        f"predictor failed {failures} consecutive steps "
                        f"(t={t:.4f}): {exc}") from exc
                profile = None
                u_raw = prev_u_raw

        U = float(np.clip(u_raw, clip[0], clip[1])) if clip else float(u_raw)
        prev_u_raw = u_raw
        hist.push(t, U)

        phi = 0.0
        u_arriving = None
        if cfg.law != "frozen" and profile is not None:
            try:
                if cfg.law == "measured":
                    u_nodes = hist.sample(t + cfg.d_true * (grid.points - 1.0))
                    u_arriving = float(u_nodes[0])  # x = 0 is t - D
                    w = u_nodes - sys.controller(profile.values)
                    post_sampler = delayed_input_sampler(hist, t, cfg.d_true)
                    q1 = q1_scan(sys, profile, post_sampler, d_hat,
                                 float(u_nodes[0]))
                    phi = phi_measured(sys, w, q1, X, cfg.b, grid)
                else:
                    u_hat = estimated_input_profile(hist, d_hat, grid)
                    u_hat_x = distributed_input_xderiv(hist, d_hat, grid.points)
                    phi = phi_unmeasured(sys, profile, u_hat, u_hat_x,
                                         d_hat, grid)
                if not np.isfinite(phi):
                    phi = 0.0
            except (PredictorError, FloatingPointError):
                phi = 0.0

        if u_arriving is None:
            u_arriving = hist.sample(t - cfg.d_true)

        out["t"][k] = t
        Xs[k] = X
        out["U"][k] = U
        out["U_unclipped"][k] = u_raw
        out["U_arriving"][k] = u_arriving
        out["d_hat"][k] = d_hat
        out["phi"][k] = phi
        out["pred_residual"][k] = residual
        out["pred_time_s"][k] = solve_time

        if on_step is not None:
            on_step(k, t, X, hist, d_hat, profile)

        st = step_delay_estimate(st, phi, dt)

        X = X + dt * sys.dynamics(X, u_arriving)
        if not np.all(np.isfinite(X)) or X @ X > DIVERGENCE_NORM ** 2:
            diverged = True
            div_step = k
            log.warning("state diverged at t=%.4f; terminating run", t)
            K = k + 1
            break

    out = {name: column[:K] for name, column in out.items()}
    v = sys.lyapunov(Xs[:K])
    w_gamma = run_window_functionals(hist, out["U"], np.full(K, cfg.d_true))
    w_upsilon = run_window_functionals(hist, out["U"],
                                       np.maximum(cfg.d_true, out["d_hat"]))
    return SimulationTrace(
        X=Xs[:K], **out,
        gamma_fn=_gamma(v, w_gamma, cfg.d_true, out["d_hat"]),
        upsilon_fn=_upsilon(v, w_upsilon, cfg.d_true, out["d_hat"]),
        diverged=diverged, divergence_step=div_step, config=cfg)
