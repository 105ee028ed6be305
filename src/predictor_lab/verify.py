"""Self-check property suites behind the `verify` CLI subcommand."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import neural_operator as no
from .adaptation import AdaptationState, project, step_delay_estimate
from .dataset import PredictorDataset, load_dataset, save_dataset
from .history import InputHistory, delayed_input_sampler
from .predictor import PredictorGrid, solve_fixed_point, solve_ode_march
from .simulation import SimulationConfig, run
from .systems import make_system

PROFILE_MODES = 3      # Fourier modes of a random control profile
SIMPSON_REFINE = 10    # the closed form's quadrature grid is this much finer
SOLVER_TRIALS = 50     # inputs per plant in solver-agreement and oracle


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_profile(rng, bound: float, center: float = 0.0, clip: tuple = None):
    """Smooth random control profile on [0, 1] as a short Fourier series."""
    coeffs = rng.uniform(-1.0, 1.0, size=(PROFILE_MODES, 2))
    offset = rng.uniform(-0.5, 0.5)

    def u(x):
        x = np.asarray(x, dtype=float)
        total = np.full_like(x, offset, dtype=float)
        for k in range(1, PROFILE_MODES + 1):
            total = total + (coeffs[k - 1, 0] * np.sin(2 * np.pi * k * x)
                             + coeffs[k - 1, 1] * np.cos(2 * np.pi * k * x)) / (2 * k)
        out = center + bound * total
        return np.clip(out, clip[0], clip[1]) if clip else out

    return u


def system_profile(sys, rng):
    """Admissible random control profile for a system (physical range kept),
    of amplitude half its ``u_bound``."""
    center = float(sys.controller(sys.setpoint))
    clip = None
    if sys.control_lo is not None:
        clip = (sys.control_lo, sys.control_hi)
    return random_profile(rng, 0.5 * sys.u_bound, center=center, clip=clip)


def linear_closed_form(a: float, b_in: float, X0: float, u, delay: float,
                       grid: PredictorGrid) -> np.ndarray:
    """p(x) = e^{a d x} X + b d int_0^x e^{a d (x-y)} u(y) dy on the grid.

    The convolution integral is evaluated by Simpson quadrature on a
    ``SIMPSON_REFINE``-times finer grid, independent of either numeric solver.
    """
    from scipy.integrate import cumulative_simpson

    n_fine = SIMPSON_REFINE * (grid.n_points - 1) + 1
    xf = np.linspace(0.0, 1.0, n_fine)
    g = np.exp(-a * delay * xf) * np.asarray(u(xf), dtype=float)
    cum = cumulative_simpson(g, x=xf, initial=0.0)
    p_fine = np.exp(a * delay * xf) * (X0 + b_in * delay * cum)
    return p_fine[::SIMPSON_REFINE]


def suite_projection(seed: int = 0) -> SuiteResult:
    """1e5 random update steps never push the estimate out of bounds."""
    rng = np.random.default_rng(seed)
    st = AdaptationState(d_hat=1.0, d_min=0.5, d_max=2.5, gamma=50.0)
    worst = 0.0
    for _ in range(100_000):
        phi = rng.standard_cauchy()  # heavy tails stress the clamp
        st = step_delay_estimate(st, phi, dt=1e-2)
        worst = max(worst, st.d_min - st.d_hat, st.d_hat - st.d_max)
        if worst > 0.0:
            break
    interior = project(1.0, 0.5, 2.5, 0.123) == 0.123
    at_hi = project(2.5, 0.5, 2.5, 1.0) == 0.0
    at_lo = project(0.5, 0.5, 2.5, 1.0) == 1.0
    ok = worst <= 0.0 and interior and at_hi and at_lo
    return SuiteResult("projection", ok,
                       f"max bound violation {max(worst, 0.0):.1e}")


def suite_transport(seed: int = 0) -> SuiteResult:
    """Distributed input reproduces the delayed control record."""
    dt = 1e-3
    delay = 1.3
    h = InputHistory(dt, 4.0, t0=0.0)
    u_true = lambda t: np.sin(3.0 * t) + 0.25 * np.cos(7.0 * t)
    n_steps = 6000
    for k in range(1, n_steps + 1):
        h.push(k * dt, float(u_true(k * dt)))
    t = n_steps * dt
    xs = np.linspace(0.0, 1.0, 257)
    prof = delayed_input_sampler(h, t, delay)(xs)
    exact = u_true(t + delay * (xs - 1.0))
    max_uddot = 9.0 + 0.25 * 49.0
    bound = dt ** 2 * max_uddot
    err = float(np.abs(prof - exact).max())

    shift_err = 0.0
    rng = np.random.default_rng(seed)
    for x in rng.uniform(0.0, 1.0, size=32):
        lhs = delayed_input_sampler(h, t, delay)(x)
        rhs = delayed_input_sampler(h, t, delay * (1.0 - x))(0.0)
        shift_err = max(shift_err, abs(lhs - rhs))
    ok = err <= bound and shift_err <= 1e-12
    return SuiteResult("transport", ok,
                       f"interp err {err:.2e} (bound {bound:.2e}), "
                       f"shift identity err {shift_err:.1e}")


def suite_solver_agreement(seed: int = 0) -> SuiteResult:
    """Picard and 4th-order march agree to within 10 dx^2 on all systems."""
    rng = np.random.default_rng(seed)
    grid = PredictorGrid(101)
    tol = 10.0 * grid.dx ** 2
    worst = 0.0
    for name in ("protein", "chemostat", "linear"):
        sys = make_system(name)
        for _ in range(SOLVER_TRIALS):
            X = sys.sample_states(1, rng)[0]
            u = system_profile(sys, rng)
            delay = rng.uniform(0.5, 2.0)
            a = solve_fixed_point(sys, X, u, delay, grid)
            b = solve_ode_march(sys, X, u, delay, grid)
            worst = max(worst, float(np.abs(a.values - b.values).max()))
    return SuiteResult("solver-agreement", worst <= tol,
                       f"max disagreement {worst:.2e} (tol {tol:.2e})")


def suite_oracle(seed: int = 0) -> SuiteResult:
    """Both numeric solvers reproduce the linear closed form to 1e-4."""
    a, b_in = 0.7, 1.3
    sys = make_system("linear", a=a, b_in=b_in)
    grid = PredictorGrid(1001)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(SOLVER_TRIALS):
        X0 = rng.uniform(-2.0, 2.0)
        u = random_profile(rng, 2.0)
        delay = rng.uniform(0.5, 2.0)
        exact = linear_closed_form(a, b_in, X0, u, delay, grid)
        fp = solve_fixed_point(sys, [X0], u, delay, grid)
        ma = solve_ode_march(sys, [X0], u, delay, grid)
        worst = max(worst,
                    float(np.abs(fp.values[:, 0] - exact).max()),
                    float(np.abs(ma.values[:, 0] - exact).max()))
    return SuiteResult("oracle", worst <= 1e-4,
                       f"max error vs closed form {worst:.2e}")


def suite_w_consistency(seed: int = 0) -> SuiteResult:
    """Exact-predictor feedback keeps w(1, t) at solver-tolerance zero."""
    sys = make_system("protein")
    worst = 0.0

    def on_step(k, t, X, hist, d_hat, profile):
        nonlocal worst
        if profile is None:
            return
        w1 = hist.sample(t) - float(sys.controller(profile.values[-1]))
        worst = max(worst, abs(w1))

    cfg = SimulationConfig(d_hat0=1.5, gamma=100.0, t_final=4.0,
                           grid_points=101, solver_tol=1e-10)
    run(cfg, system=sys, on_step=on_step)
    return SuiteResult("w-consistency", worst < 1e-6,
                       f"max |w(1,t)| = {worst:.2e}")


def suite_gradient_check(seed: int = 0) -> SuiteResult:
    """Analytic training gradients match central finite differences."""
    rng = np.random.default_rng(seed)
    n, m, d_c, layers = 2, 7, 4, 1
    model = no.init_model(n, m, d_c, layers, seed=seed)
    B, Q = 3, 9
    X = rng.normal(size=(B, n))
    u = rng.normal(size=(B, m))
    d = rng.uniform(0.5, 2.0, size=B)
    queries = np.linspace(0.0, 1.0, Q)
    targets = rng.normal(size=(B, Q, n))

    _, grads = no.training_loss_and_grads(model, X, u, d, targets, queries)
    eps = 1e-5  # large enough that FD roundoff stays below the tolerance
    worst = 0.0
    for name, arr in model.params.items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = no.training_loss_and_grads(model, X, u, d, targets,
                                               queries)
            arr[idx] = orig - eps
            lm, _ = no.training_loss_and_grads(model, X, u, d, targets,
                                               queries)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    return SuiteResult("gradient-check", worst < 1e-4,
                       f"max relative gradient error {worst:.2e}")


def suite_serialization(seed: int = 0) -> SuiteResult:
    """Model and dataset containers round-trip exactly."""
    rng = np.random.default_rng(seed)
    model = no.init_model(n=2, m=11, d_c=8, layers=2, seed=seed,
                          norm_in=(rng.normal(size=4), 1 + rng.random(4)),
                          norm_out=(rng.normal(size=2), 1 + rng.random(2)))
    queries = np.linspace(0.0, 1.0, 13)
    X = rng.normal(size=(100, 2))
    u = rng.normal(size=(100, 11))
    d = rng.uniform(0.5, 2.5, size=100)
    before = no.forward(model, X, u, d, queries)

    ds = PredictorDataset(X=X, u=u, d_hat=d,
                          targets=rng.normal(size=(100, 13, 2)),
                          provenance={"system": "synthetic", "seed": seed})
    with tempfile.TemporaryDirectory() as tmp:
        mpath = os.path.join(tmp, "m.no")
        dpath = os.path.join(tmp, "d.bin")
        no.save_model(model, mpath)
        loaded = no.load_model(mpath)
        after = no.forward(loaded, X, u, d, queries)
        model_exact = bool(np.all(before == after))

        save_dataset(ds, dpath)
        ds2 = load_dataset(dpath)
        ds_exact = (np.array_equal(ds.X, ds2.X)
                    and np.array_equal(ds.u, ds2.u)
                    and np.array_equal(ds.d_hat, ds2.d_hat)
                    and np.array_equal(ds.targets, ds2.targets))
    ok = model_exact and ds_exact
    return SuiteResult("serialization", ok,
                       f"model exact={model_exact}, dataset exact={ds_exact}")


SUITES = {
    "projection": suite_projection,
    "transport": suite_transport,
    "solver-agreement": suite_solver_agreement,
    "oracle": suite_oracle,
    "w-consistency": suite_w_consistency,
    "gradient-check": suite_gradient_check,
    "serialization": suite_serialization,
}


def run_suites(names=None, seed: int = 0):
    """Run the named suites (all by default); a suite that raises is a FAIL."""
    names = list(SUITES) if not names else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown verify suite {name!r}; "
                             f"choices: {', '.join(SUITES)}")
        try:
            results.append(SUITES[name](seed=seed))
        except Exception as exc:
            results.append(SuiteResult(name, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results


def format_results(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    return "\n".join(lines)
