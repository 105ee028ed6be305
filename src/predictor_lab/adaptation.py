"""Projection-based delay estimation: measured and unmeasured update laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictor import PredictorGrid, PredictorProfile
from .systems import SystemModel

SIGN_DEADZONE = 1e-9  # avoids chattering on floating-point noise around zero


@dataclass
class AdaptationState:
    """Current delay estimate with its bounds and its gain."""

    d_hat: float
    d_min: float
    d_max: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.d_min <= self.d_max:
            raise ValueError(
                f"need 0 < d_min={self.d_min} <= d_max={self.d_max}")
        if not self.d_min <= self.d_hat <= self.d_max:
            raise ValueError(f"d_hat={self.d_hat} must start inside "
                             f"[d_min={self.d_min}, d_max={self.d_max}]")
        # a step multiplies gamma by phi, and inf * 0 is NaN
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"gamma={self.gamma!r} must be finite and >= 0")


def project(d_hat: float, d_min: float, d_max: float, phi: float) -> float:
    """Boundary projection: zero the update when it pushes out of bounds."""
    if d_hat <= d_min and phi < 0.0:
        return 0.0
    if d_hat >= d_max and phi > 0.0:
        return 0.0
    return phi


def deadzone_sign(z):
    """sgn with a dead zone: 0 inside [-SIGN_DEADZONE, SIGN_DEADZONE]."""
    z = np.asarray(z, dtype=float)
    out = np.where(np.abs(z) > SIGN_DEADZONE, np.sign(z), 0.0)
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
    p_x = d_hat * sys.dynamics(p, u_hat)                       # (N, n)
    grads = sys.controller_grad(p)                             # (N, n)
    f0 = sys.dynamics(p[0], float(u_hat[0]))                   # (n,)
    q3 = grads @ f0
    hess = sys.hessian_or_fd(p)                                # (N, n, n)
    q4 = np.einsum("ij,ijk,k->i", p_x, hess, f0)
    w_hat_x = u_hat_x - np.einsum("ij,ij->i", grads, p_x)

    sw = deadzone_sign(w_hat)
    swx = deadzone_sign(w_hat_x)
    weight = 1.0 + xs
    integral = np.trapezoid(weight * (q3 * sw + q4 * swx), xs)
    return float(2.0 * swx[-1] * q3[-1] + integral)


def step_delay_estimate(st: AdaptationState, phi: float,
                        dt: float) -> AdaptationState:
    """Explicit Euler step of the projected update, with a safety clamp;
    phi = 0 keeps d_hat, which is how ``run`` holds it under the frozen law."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    update = st.gamma * project(st.d_hat, st.d_min, st.d_max, phi)
    d_new = float(min(max(st.d_hat + dt * update, st.d_min), st.d_max))
    return AdaptationState(d_hat=d_new, d_min=st.d_min, d_max=st.d_max,
                           gamma=st.gamma)
