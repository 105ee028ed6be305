"""Benchmark plant models: dynamics, nominal controllers and Lyapunov data.

Three systems are shipped: a two-protein activator/repressor clock, a
chemostat bioreactor, and a scalar linear plant used as an analytic oracle
for the predictor solvers.  All callables are vectorized over a leading
batch axis so grid-wide evaluations stay in numpy.

A plant declares only its equations, its setpoint and its box; the state
dimension, the Lyapunov function and the controller Hessian (always by
central differences, ``hessian_or_fd``) are derived from them.  Building a
plant needs numpy alone.  Its closed-loop equilibrium comes from a few
Newton steps with the analytic Jacobian (``_newton_root``).  Its sampled
Lipschitz constant ``C_f`` is computed on first read, taking SVDs only of
the samples whose Frobenius norm can reach the maximum
(``_estimate_lipschitz``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

_ESTIMATE_SAMPLES = 100_000
_ESTIMATE_SEED = 20240911
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class SystemModel:
    """A plant/controller pair with the derivative data the toolkit needs.

    ``dynamics``, ``jacobian_state``, ``jacobian_input``, ``controller`` and
    ``controller_grad`` all accept states of shape (n,) or (..., n) and
    scalar or (...,) inputs, and broadcast accordingly.  ``setpoint`` is the
    closed-loop equilibrium, found at construction by Newton's method with
    the analytic Jacobian until the step is at most 1e-15 * max(1, |x|_inf).
    The state dimension is ``len(x_lo)``.  ``C_f``, computed on first read,
    is the largest of |df/du| and the spectral norm of df/dx over a
    fixed-seed sample of 100 000 (state, input) pairs in the box
    [x_lo, x_hi] x [-u_bound, u_bound].
    """

    name: str
    dynamics: Callable
    jacobian_state: Callable
    jacobian_input: Callable
    controller: Callable
    controller_grad: Callable
    setpoint: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    u_bound: float
    control_lo: Optional[float] = None
    control_hi: Optional[float] = None

    @property
    def state_dim(self) -> int:
        return len(self.x_lo)

    @cached_property
    def C_f(self) -> float:
        """Sampled Lipschitz bound of f over the box."""
        return _estimate_lipschitz(self.jacobian_state, self.jacobian_input,
                                   self.x_lo, self.x_hi, self.u_bound,
                                   self.state_dim)

    @property
    def x_bound(self) -> float:
        """Largest state norm over the compact box (the box radius)."""
        corners = np.maximum(np.abs(self.x_lo), np.abs(self.x_hi))
        return float(np.linalg.norm(corners))

    def lyapunov(self, X):
        """V(X) = |X - setpoint|^2 over the last axis of (..., n)."""
        d = np.asarray(X, dtype=float) - self.setpoint
        return np.sum(d * d, axis=-1)

    def sample_states(self, count, rng):
        """Uniform states inside the compact box, shape (count, n)."""
        return rng.uniform(self.x_lo, self.x_hi, size=(count, self.state_dim))

    def hessian_or_fd(self, X):
        """Controller Hessian by central differences of ``controller_grad``.

        Step h = 1e-5 * (1 + |X|) per coordinate pair.  Accepts (..., n).
        Exact zeros for a linear controller.  The name is kept for the
        benchmark, which patches and probes this method.
        """
        X = np.asarray(X, dtype=float)
        h = 1e-5 * (1.0 + np.linalg.norm(X, axis=-1))
        # row i of each (n, n) block is a step of h along axis i; one
        # controller_grad call takes both signs of every step
        steps = h[..., None, None] * np.eye(self.state_dim)
        g = self.controller_grad(np.stack([X[..., None, :] + steps,
                                           X[..., None, :] - steps]))
        out = (g[0] - g[1]) / (2.0 * h[..., None, None])
        # symmetrize: FD of the gradient need not be exactly symmetric
        return 0.5 * (out + np.swapaxes(out, -1, -2))


def _newton_root(name, F, J, x0) -> np.ndarray:
    """Root of F by Newton's method from x0, with the Jacobian J of F.

    Stops when the step is at most 1e-15 * max(1, |x|_inf); raises a
    RuntimeError naming the plant on a non-finite iterate or after
    ``_NEWTON_MAX_ITER`` steps.
    """
    x = np.array(x0, dtype=float)
    for _ in range(_NEWTON_MAX_ITER):
        step = np.linalg.solve(J(x), F(x))
        x = x - step
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"{name}: Newton search for the equilibrium "
                               f"reached a non-finite iterate {x}")
        if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(x).max()):
            return x
    raise RuntimeError(f"{name}: Newton search for the equilibrium did not "
                       f"converge in {_NEWTON_MAX_ITER} iterations")


def _estimate_lipschitz(jac_x, jac_u, x_lo, x_hi, u_bound, n) -> float:
    """Sampling-based maximization of the Lipschitz bound C_f of f.

    Equal to the maximum of |J_u| and the spectral norm of J_x over all
    samples; SVDs are taken only where the Frobenius norm of J_x, an upper
    bound of its spectral norm, reaches a floor that is itself at most C_f.
    """
    rng = np.random.default_rng(_ESTIMATE_SEED)
    X = rng.uniform(x_lo, x_hi, size=(_ESTIMATE_SAMPLES, n))
    u = rng.uniform(-u_bound, u_bound, size=_ESTIMATE_SAMPLES)
    jx = jac_x(X, u)
    ju_max = np.linalg.norm(jac_u(X, u), axis=-1).max()
    col_sq = np.sum(jx * jx, axis=-2)          # squared column norms
    fro = np.sqrt(np.sum(col_sq, axis=-1))
    # a column norm and |J_x|_F / sqrt(n) are lower bounds of the spectral
    # norm; the relative slack keeps rounding from pruning the maximizer
    floor = max(ju_max, np.sqrt(col_sq.max()), fro.max() / np.sqrt(n))
    keep = fro >= floor * (1.0 - 1e-12)
    spectral = np.linalg.norm(jx[keep], ord=2, axis=(-2, -1))
    return float(spectral.max(initial=ju_max))


# ---------------------------------------------------------------------------
# protein activator/repressor clock

K1 = 300.0
K2 = 300.0
KA = 0.04
KB = 0.004
PROTEIN_SETPOINT_NOMINAL = (0.0939, 5.2525)


def hill_f1(x1, x2):
    return (K1 * x1 ** 2 + KA) / (1.0 + x1 ** 2 + x2 ** 2)


def hill_f2(x1):
    return (K2 * x1 ** 2 + KB) / (1.0 + x1 ** 2)


def _hill_f1_grad(x1, x2):
    den = 1.0 + x1 ** 2 + x2 ** 2
    num = K1 * x1 ** 2 + KA
    d1 = (2.0 * K1 * x1 * den - num * 2.0 * x1) / den ** 2
    d2 = -num * 2.0 * x2 / den ** 2
    return d1, d2


def _hill_f2_deriv(x1):
    den = 1.0 + x1 ** 2
    return (2.0 * K2 * x1 * den - (K2 * x1 ** 2 + KB) * 2.0 * x1) / den ** 2


def _make_protein() -> SystemModel:
    # reduced residual (x1 - f1, x2 - 2 f2): the controller's offset f1_star
    # is f1 at the root, so solving f(x, k(x)) = 0 would be circular
    def closed_loop_root(v):
        x1, x2 = v
        return np.array([x1 - hill_f1(x1, x2), x2 - 2.0 * hill_f2(x1)])

    def closed_loop_root_jac(v):
        x1, x2 = v
        d1, d2 = _hill_f1_grad(x1, x2)
        return np.array([[1.0 - d1, -d2], [-2.0 * _hill_f2_deriv(x1), 1.0]])

    xstar = _newton_root("protein", closed_loop_root, closed_loop_root_jac,
                         PROTEIN_SETPOINT_NOMINAL)
    f1_star = float(hill_f1(xstar[0], xstar[1]))

    def dynamics(X, u):
        X = np.asarray(X, dtype=float)
        x1, x2 = X[..., 0], X[..., 1]
        dx1 = -x1 + hill_f1(x1, x2) + np.asarray(u, dtype=float)
        dx2 = -0.5 * x2 + hill_f2(x1)
        return np.stack([dx1, dx2], axis=-1)

    def jacobian_state(X, u):
        X = np.asarray(X, dtype=float)
        x1, x2 = X[..., 0], X[..., 1]
        d11, d12 = _hill_f1_grad(x1, x2)
        J = np.zeros(np.shape(x1) + (2, 2))
        J[..., 0, 0] = -1.0 + d11
        J[..., 0, 1] = d12
        J[..., 1, 0] = _hill_f2_deriv(x1)
        J[..., 1, 1] = -0.5
        return J

    def jacobian_input(X, u):
        X = np.asarray(X, dtype=float)
        J = np.zeros(X.shape)
        J[..., 0] = 1.0
        return J

    def controller(X):
        X = np.asarray(X, dtype=float)
        return -hill_f1(X[..., 0], X[..., 1]) + f1_star

    def controller_grad(X):
        X = np.asarray(X, dtype=float)
        d1, d2 = _hill_f1_grad(X[..., 0], X[..., 1])
        return np.stack([-d1, -d2], axis=-1)

    # operating envelope of the closed-loop benchmark runs; keeps the
    # sampled Lipschitz constant small enough that exp(D_max * C_f) stays
    # finite in double precision
    return SystemModel(
        name="protein", dynamics=dynamics,
        jacobian_state=jacobian_state, jacobian_input=jacobian_input,
        controller=controller, controller_grad=controller_grad,
        setpoint=xstar, x_lo=np.array([0.0, 2.0]),
        x_hi=np.array([0.22, 33.0]), u_bound=5.0,
    )


# ---------------------------------------------------------------------------
# chemostat bioreactor

CHEMOSTAT = {
    "Z_star": 3.0, "S_star": 2.0, "U_star": 0.9, "sigma": 10.0,
    "chi": 0.1, "S_in": 5.33, "xi": 0.5, "rho0": 1.0,
}


def growth_rate(S):
    return 7.0 * S / (2.0 * (1.0 + S + S ** 2))


def growth_rate_deriv(S):
    return 7.0 * (1.0 - S ** 2) / (2.0 * (1.0 + S + S ** 2) ** 2)


def _make_chemostat() -> SystemModel:
    p = CHEMOSTAT
    mu_star = float(growth_rate(p["S_star"]))
    gain = p["sigma"] * p["chi"] / mu_star ** (1.0 + p["xi"])

    def controller(X):
        X = np.asarray(X, dtype=float)
        Z, S = X[..., 0], X[..., 1]
        mu = growth_rate(S)
        base = p["U_star"] * mu * Z / (mu_star * p["Z_star"])
        kink = gain * np.abs(mu - mu_star) ** (1.0 + p["xi"])
        return base + np.where(S <= p["S_star"], kink, 0.0)

    def controller_grad(X):
        X = np.asarray(X, dtype=float)
        Z, S = X[..., 0], X[..., 1]
        mu = growth_rate(S)
        dmu = growth_rate_deriv(S)
        dZ = p["U_star"] * mu / (mu_star * p["Z_star"])
        g = mu - mu_star
        kink = gain * (1.0 + p["xi"]) * np.abs(g) ** p["xi"] * np.sign(g) * dmu
        dS = p["U_star"] * dmu * Z / (mu_star * p["Z_star"])
        dS = dS + np.where(S <= p["S_star"], kink, 0.0)
        return np.stack([dZ, dS], axis=-1)

    def dynamics(X, u):
        X = np.asarray(X, dtype=float)
        u = np.asarray(u, dtype=float)
        Z, S = X[..., 0], X[..., 1]
        mu = growth_rate(S)
        dZ = (p["rho0"] * mu - p["chi"] - u) * Z
        dS = u * (p["S_in"] - S) - mu * Z
        return np.stack([dZ, dS], axis=-1)

    def jacobian_state(X, u):
        X = np.asarray(X, dtype=float)
        u = np.asarray(u, dtype=float)
        Z, S = X[..., 0], X[..., 1]
        mu = growth_rate(S)
        dmu = growth_rate_deriv(S)
        J = np.zeros(np.shape(Z) + (2, 2))
        J[..., 0, 0] = p["rho0"] * mu - p["chi"] - u
        J[..., 0, 1] = p["rho0"] * dmu * Z
        J[..., 1, 0] = -mu
        J[..., 1, 1] = -u - dmu * Z
        return J

    def jacobian_input(X, u):
        X = np.asarray(X, dtype=float)
        Z, S = X[..., 0], X[..., 1]
        return np.stack([-Z, p["S_in"] - S], axis=-1)

    def closed_loop(x):
        return dynamics(x, controller(x))

    def closed_loop_jac(x):
        u = controller(x)
        return (jacobian_state(x, u)
                + np.outer(jacobian_input(x, u), controller_grad(x)))

    xstar = _newton_root("chemostat", closed_loop, closed_loop_jac,
                         [p["Z_star"], p["S_star"]])

    return SystemModel(
        name="chemostat", dynamics=dynamics,
        jacobian_state=jacobian_state, jacobian_input=jacobian_input,
        controller=controller, controller_grad=controller_grad,
        setpoint=xstar, x_lo=np.array([1.0, 0.8]),
        x_hi=np.array([4.5, 3.5]), u_bound=4.0,
        control_lo=0.0, control_hi=5.0,
    )


# ---------------------------------------------------------------------------
# linear scalar oracle system

def _make_linear(a: float, b_in: float) -> SystemModel:
    if b_in == 0.0:
        raise ValueError("linear system requires b_in != 0")
    a = float(a)
    b_in = float(b_in)

    def dynamics(X, u):
        X = np.asarray(X, dtype=float)
        u = np.asarray(u, dtype=float)
        return (a * X[..., 0] + b_in * u)[..., None]

    def jacobian_state(X, u):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[:-1] + (1, 1), a)

    def jacobian_input(X, u):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape, b_in)

    def controller(X):
        X = np.asarray(X, dtype=float)
        return -(a + 1.0) * X[..., 0] / b_in

    def controller_grad(X):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape, -(a + 1.0) / b_in)

    return SystemModel(
        name="linear", dynamics=dynamics,
        jacobian_state=jacobian_state, jacobian_input=jacobian_input,
        controller=controller, controller_grad=controller_grad,
        setpoint=np.zeros(1), x_lo=np.array([-5.0]), x_hi=np.array([5.0]),
        u_bound=5.0,
    )


def make_system(name: str, a: float = -0.5, b_in: float = 1.0) -> SystemModel:
    """Build one of the three benchmark systems by name.

    ``a`` and ``b_in`` apply only to the linear system.
    """
    if name == "protein":
        return _make_protein()
    if name == "chemostat":
        return _make_chemostat()
    if name == "linear":
        return _make_linear(a, b_in)
    raise ValueError(f"unknown system name: {name!r}")
