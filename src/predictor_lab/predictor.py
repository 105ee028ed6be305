"""Numeric solvers for the implicit state predictor on the unit interval.

The predictor curve p(x) solves p(x) = X + d * int_0^x f(p(y), u(y)) dy.
The solver is Picard successive approximation on the trapezoid quadrature.
A classical 4th-order explicit march of the equivalent initial-value problem
dp/dx = d f(p, u(x)) is kept as an independent reference solution that the
verify suites and the tests compare Picard against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .systems import SystemModel


class PredictorError(RuntimeError):
    """Solver failure; carries the last residual when available."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class PredictorGrid:
    """Uniform grid x_i = i/(N-1) on [0, 1]."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")

    @classmethod
    def from_dx(cls, dx: float) -> "PredictorGrid":
        """The grid of round(1/dx) + 1 points; a ValueError names a ``dx``
        that is not finite and positive or leaves fewer than 2 points."""
        if not (math.isfinite(dx) and dx > 0.0):
            raise ValueError(f"dx must be finite and positive, got {dx!r}")
        n_points = int(round(1.0 / dx)) + 1
        if n_points < 2:
            raise ValueError(f"dx={dx!r} leaves fewer than 2 grid points")
        return cls(n_points)

    @property
    def dx(self) -> float:
        return 1.0 / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        xs = np.linspace(0.0, 1.0, self.n_points)
        xs.flags.writeable = False
        return xs

    @cached_property
    def nodes_and_midpoints(self) -> np.ndarray:
        """The N nodes, then the N-1 cell midpoints; read-only."""
        xs = self.points
        q = np.concatenate([xs, np.clip(xs[:-1] + 0.5 * self.dx, 0.0, 1.0)])
        q.flags.writeable = False
        return q


@dataclass
class PredictorProfile:
    grid: PredictorGrid
    values: np.ndarray          # (N, n)
    iterations: int
    residual: float


def _trapezoid_cumsum(g: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid sums h * sum_{j<i} (g_j + g_{j+1}) at nodes 1..N-1."""
    return np.add.accumulate(h * (g[1:] + g[:-1]), axis=0)


def integral_residual(sys: SystemModel, values: np.ndarray, u_nodes: np.ndarray,
                      delay: float, dx: float) -> float:
    """Sup-norm defect of the integral form at the grid nodes."""
    g = sys.dynamics(values, u_nodes)
    defect = values[1:] - values[0] - delay * _trapezoid_cumsum(g, 0.5 * dx)
    return float(np.abs(defect).max())


def solve_fixed_point(sys: SystemModel, X, u_sampler: Callable, delay: float,
                      grid: PredictorGrid, tol: float = 1e-10,
                      max_iter: int = 200,
                      warm_start: Optional[np.ndarray] = None) -> PredictorProfile:
    """Picard iteration p <- X + delay * Trapezoid(f(p, u)) until sup-norm tol.

    Each sweep evaluates the dynamics along the previous iterate and rebuilds
    the whole curve at once from the running trapezoid sum; the step size is
    the sup-norm change between successive iterates.  Two buffers, both
    starting at X, hold the iterate and the next one; ``warm_start`` is only
    read.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol={tol!r} must be finite and positive")
    if not (math.isfinite(delay) and delay >= 0.0):
        raise ValueError(f"delay={delay!r} must be finite and >= 0")
    if max_iter < 1:
        raise ValueError(f"max_iter={max_iter!r} must be at least 1")
    X = np.atleast_1d(np.asarray(X, dtype=float))
    n = sys.state_dim
    xs = grid.points
    u_nodes = np.asarray(u_sampler(xs), dtype=float)
    p = np.empty((grid.n_points, n))
    if warm_start is not None and warm_start.shape == p.shape:
        p[1:] = warm_start[1:]
    else:
        p[1:] = X
    p[0] = X
    p_next = np.empty_like(p)
    p_next[0] = X

    hfac = 0.5 * grid.dx * delay
    step = np.inf
    for k in range(1, max_iter + 1):
        g = sys.dynamics(p, u_nodes)
        np.add(X, _trapezoid_cumsum(g, hfac), out=p_next[1:])
        step = float(np.abs(p_next - p).max())
        if not math.isfinite(step):
            raise PredictorError(
                f"divergence: non-finite iterate at iteration {k}",
                iterations=k)
        p, p_next = p_next, p
        if step < tol:
            res = integral_residual(sys, p, u_nodes, delay, grid.dx)
            return PredictorProfile(grid=grid, values=p, iterations=k,
                                    residual=res)
    raise PredictorError(
        f"fixed-point solve did not converge in {max_iter} iterations "
        f"(last step {step:.3e})",
        residual=step, iterations=max_iter)


def solve_ode_march(sys: SystemModel, X, u_sampler: Callable, delay: float,
                    grid: PredictorGrid) -> PredictorProfile:
    """March dp/dx = delay * f(p, u(x)) with the classical 4th-order step."""
    X = np.atleast_1d(np.asarray(X, dtype=float))
    xs = grid.points
    h = grid.dx
    u_lo = np.asarray(u_sampler(xs), dtype=float)
    u_mid = np.asarray(u_sampler(np.clip(xs[:-1] + 0.5 * h, 0.0, 1.0)), dtype=float)

    p = np.empty((grid.n_points, sys.state_dim))
    p[0] = X
    for i in range(grid.n_points - 1):
        y = p[i]
        k1 = delay * sys.dynamics(y, u_lo[i])
        k2 = delay * sys.dynamics(y + 0.5 * h * k1, u_mid[i])
        k3 = delay * sys.dynamics(y + 0.5 * h * k2, u_mid[i])
        k4 = delay * sys.dynamics(y + h * k3, u_lo[i + 1])
        p[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(p[i + 1])):
            raise PredictorError(
                f"divergence: non-finite state at grid node {i + 1}",
                iterations=i + 1)
    res = integral_residual(sys, p, u_lo, delay, h)
    return PredictorProfile(grid=grid, values=p, iterations=grid.n_points - 1,
                            residual=res)


def _cell_propagators(sys: SystemModel, profile: PredictorProfile,
                      u_sampler: Callable, delay: float) -> np.ndarray:
    """Per-cell 4th-order propagators of dr/dx = delay * (df/dp) r."""
    h = profile.grid.dx
    p = profile.values
    p_mid = 0.5 * (p[:-1] + p[1:])
    # nodes and cell midpoints in one history read and one Jacobian call
    u = np.asarray(u_sampler(profile.grid.nodes_and_midpoints), dtype=float)
    A = delay * sys.jacobian_state(np.concatenate([p, p_mid]), u)
    if not np.isfinite(A).all():
        raise PredictorError("non-finite Jacobian along the predictor curve")
    A_lo, A_mid = A[:len(p)], A[len(p):]                # (N | N-1, n, n)

    eye = np.eye(sys.state_dim)
    # one 4th-order step applied to the identity, batched over cells
    k1 = A_lo[:-1]
    k2 = A_mid @ (eye + 0.5 * h * k1)
    k3 = A_mid @ (eye + 0.5 * h * k2)
    k4 = A_lo[1:] @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def transition_matrix(sys: SystemModel, profile: PredictorProfile,
                      u_sampler: Callable, delay: float) -> np.ndarray:
    """Phi(x_i, 0) for dPhi/dx = delay * (df/dp)(p(x), u(x)) Phi, Phi(0) = I.

    Each cell advances by the 4th-order one-step propagator of the marching
    solver, so Phi(x_i, 0) = P_{i-1} ... P_0.  The prefix products are formed
    by doubling in ceil(log2 N) batched matmuls; returns an (N, n, n) stack.
    """
    props = _cell_propagators(sys, profile, u_sampler, delay)
    phi = np.concatenate([np.eye(sys.state_dim)[None], props])
    k = 1
    while k < len(phi):
        # phi[i] holds P_{i-1} ... P_{i-k}; append the next k earlier factors
        phi[k:] = phi[k:] @ phi[:-k]
        k *= 2
    return phi


def q1_scan(sys: SystemModel, profile: PredictorProfile, u_sampler: Callable,
            delay: float, u0: float) -> np.ndarray:
    """q1(x_i) = dkappa(p(x_i)) . Phi(x_i, 0) f(X, u0) for the measured law.

    Phi is the transition-matrix stack along the predictor curve and X the
    curve's start p(0).
    """
    tm = transition_matrix(sys, profile, u_sampler, delay)
    f0 = sys.dynamics(profile.values[0], float(u0))
    grads = sys.controller_grad(profile.values)        # (N, n)
    return np.einsum("ij,ij->i", grads, tm @ f0)

