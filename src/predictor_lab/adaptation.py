"""Projection-based delay estimation: measured and unmeasured update laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import InputHistory, distributed_input
from .predictor import PredictorGrid, PredictorProfile
from .systems import SystemModel

SIGN_DEADZONE = 1e-9  # avoids chattering on floating-point noise around zero
LAW_CHOICES = ("measured", "unmeasured", "frozen")


@dataclass
class AdaptationState:
    """Current delay estimate with its bounds and gains."""

    d_hat: float
    d_min: float
    d_max: float
    gamma: float
    b: float
    law: str = "measured"  # measured | unmeasured | frozen

    def __post_init__(self):
        if not 0.0 < self.d_min <= self.d_max:
            raise ValueError("need 0 < d_min <= d_max")
        if not self.d_min <= self.d_hat <= self.d_max:
            raise ValueError("d_hat must start inside [d_min, d_max]")
        if self.gamma < 0.0 or self.b <= 0.0:
            raise ValueError("gamma must be >= 0 and b > 0")
        if self.law not in LAW_CHOICES:
            raise ValueError(f"unknown adaptation law {self.law!r}")


def project(d_hat: float, d_min: float, d_max: float, phi: float) -> float:
    """Boundary projection: zero the update when it pushes out of bounds."""
    if d_hat <= d_min and phi < 0.0:
        return 0.0
    if d_hat >= d_max and phi > 0.0:
        return 0.0
    return phi


def deadzone_sign(z, threshold: float = SIGN_DEADZONE):
    """sgn with a dead zone: 0 inside [-threshold, threshold]."""
    z = np.asarray(z, dtype=float)
    out = np.where(z > threshold, 1.0, np.where(z < -threshold, -1.0, 0.0))
    return float(out) if out.ndim == 0 else out


def phi_measured(sys: SystemModel, w: np.ndarray, q1: np.ndarray,
                 X, b: float, grid: PredictorGrid) -> float:
    """Update signal from the measured distributed input.

    phi = -int (1+x) q1 w dx / (1 + V(X) + b int (1+x) w^2 dx), both
    integrals by the trapezoid rule on the predictor grid.
    """
    xs = grid.points
    weight = 1.0 + xs
    num = np.trapezoid(weight * q1 * w, xs)
    den = 1.0 + float(sys.lyapunov(X)) + b * np.trapezoid(weight * w * w, xs)
    return float(-num / den)


def estimated_input_profile(h: InputHistory, d_hat: float,
                            grid: PredictorGrid) -> np.ndarray:
    """u_hat(x_i) = U(t + d_hat (x_i - 1)) reconstructed from the history."""
    return np.asarray(distributed_input(h, d_hat, grid.points), dtype=float)


def _q3_q4(sys: SystemModel, p: np.ndarray, u_hat: np.ndarray,
           d_hat: float):
    """Terms of the unmeasured law along the predictor curve p.

    Returns p_x = d_hat f(p, u_hat), dkappa(p), q3 = dkappa(p) . f(p(0),
    u_hat(0)) and q4 = dq3/dx.
    """
    p_x = d_hat * sys.dynamics(p, u_hat)                       # (N, n)
    grads = sys.controller_grad(p)                             # (N, n)
    f0 = sys.dynamics(p[0], float(u_hat[0]))                   # (n,)
    q3 = grads @ f0
    hess = sys.hessian_or_fd(p)                                # (N, n, n)
    q4 = np.einsum("ij,ijk,k->i", p_x, hess, f0)
    return p_x, grads, q3, q4


def phi_unmeasured(sys: SystemModel, p_hat: PredictorProfile,
                   u_hat: np.ndarray, u_hat_x: np.ndarray,
                   d_hat: float, grid: PredictorGrid) -> float:
    """Sign-based update signal when the distributed input is reconstructed.

    phi = 2 sgn(w_x(1)) q3(1) + int (1+x) [q3 sgn(w) + q4 sgn(w_x)] dx with
    q3 = dkappa(p_hat) . f(p_hat(0), u_hat(0)) and q4 = dq3/dx; the predictor
    profile must have been solved from the estimated input u_hat.
    """
    xs = grid.points
    p = p_hat.values
    w_hat = u_hat - sys.controller(p)
    p_x, grads, q3, q4 = _q3_q4(sys, p, u_hat, d_hat)
    w_hat_x = u_hat_x - np.einsum("ij,ij->i", grads, p_x)

    sw = deadzone_sign(w_hat)
    swx = deadzone_sign(w_hat_x)
    weight = 1.0 + xs
    integral = np.trapezoid(weight * (q3 * sw + q4 * swx), xs)
    return float(2.0 * swx[-1] * q3[-1] + integral)


def phi_unmeasured_bound(sys: SystemModel, p_hat: PredictorProfile,
                         u_hat: np.ndarray, d_hat: float,
                         grid: PredictorGrid) -> float:
    """Computable per-step bound 2|q3(1)| + int (1+x)(|q3|+|q4|) dx."""
    xs = grid.points
    _, _, q3, q4 = _q3_q4(sys, p_hat.values, u_hat, d_hat)
    return float(2.0 * abs(q3[-1])
                 + np.trapezoid((1.0 + xs) * (np.abs(q3) + np.abs(q4)), xs))


def step_delay_estimate(st: AdaptationState, phi: float,
                        dt: float) -> AdaptationState:
    """Explicit Euler step of the projected update, with a safety clamp."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if st.law == "frozen":
        return st
    update = st.gamma * project(st.d_hat, st.d_min, st.d_max, phi)
    d_new = float(np.clip(st.d_hat + dt * update, st.d_min, st.d_max))
    return AdaptationState(d_hat=d_new, d_min=st.d_min, d_max=st.d_max,
                           gamma=st.gamma, b=st.b, law=st.law)
