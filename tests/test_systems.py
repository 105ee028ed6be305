"""Plant model invariants: formulas, equilibria, derivative consistency."""

import subprocess
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve

import predictor_lab as pl
from predictor_lab import systems
from predictor_lab.systems import CHEMOSTAT, growth_rate, hill_f1, hill_f2

PAPER_PROTEIN_EQ = np.array([0.0939, 5.2525])
PAPER_CHEMOSTAT_EQ = np.array([3.0, 2.0])


def test_make_system_unknown_name():
    with pytest.raises(ValueError, match="unknown system"):
        pl.make_system("reactor")


def test_linear_requires_nonzero_gain():
    with pytest.raises(ValueError, match="b_in"):
        pl.make_system("linear", a=1.0, b_in=0.0)


@pytest.mark.parametrize("name", ["protein", "chemostat", "linear"])
def test_equilibrium_residual(name):
    sys = pl.make_system(name)
    u_star = float(sys.controller(sys.setpoint))
    resid = sys.dynamics(sys.setpoint, u_star)
    assert np.abs(resid).max() < 1e-9


def test_protein_hill_functions():
    assert hill_f1(0.5, 1.0) == pytest.approx((300 * 0.25 + 0.04) / 2.25)
    assert hill_f2(0.5) == pytest.approx((300 * 0.25 + 0.004) / 1.25)


def test_protein_paper_equilibrium_is_near_fixed_point(protein):
    # the published (rounded) equilibrium closes the loop to ~1e-3
    u = float(protein.controller(PAPER_PROTEIN_EQ))
    resid = protein.dynamics(PAPER_PROTEIN_EQ, u)
    assert np.abs(resid).max() < 1e-3
    assert np.linalg.norm(protein.setpoint - PAPER_PROTEIN_EQ) < 1e-3


def test_protein_controller_formula(protein):
    X = np.array([0.12, 8.0])
    expected = -hill_f1(0.12, 8.0) + hill_f1(0.0939, 5.2525)
    assert float(protein.controller(X)) == pytest.approx(expected, abs=1e-4)


def test_protein_lyapunov_is_shifted_quadratic(protein):
    X = np.array([0.2, 7.0])
    d = X - protein.setpoint
    assert float(protein.lyapunov(X)) == pytest.approx(float(d @ d), rel=1e-12)
    assert float(protein.lyapunov(protein.setpoint)) == 0.0


def test_protein_dynamics_form(protein):
    X = np.array([0.05, 20.0])
    u = 0.3
    got = protein.dynamics(X, u)
    assert got[0] == pytest.approx(-0.05 + hill_f1(0.05, 20.0) + 0.3)
    assert got[1] == pytest.approx(-10.0 + hill_f2(0.05))


def test_chemostat_growth_rate_unit_at_setpoint():
    assert growth_rate(2.0) == pytest.approx(1.0)


def test_chemostat_dynamics_form(chemostat):
    p = CHEMOSTAT
    X = np.array([2.5, 1.7])
    u = 0.8
    got = chemostat.dynamics(X, u)
    mu = growth_rate(1.7)
    assert got[0] == pytest.approx((p["rho0"] * mu - p["chi"] - u) * 2.5)
    assert got[1] == pytest.approx(u * (p["S_in"] - 1.7) - mu * 2.5)


def test_chemostat_controller_value_and_continuity(chemostat):
    # at (Z*, S*) the kink branch vanishes and kappa = U*
    assert float(chemostat.controller(PAPER_CHEMOSTAT_EQ)) == pytest.approx(0.9)
    below = float(chemostat.controller(np.array([3.0, 2.0 - 1e-8])))
    above = float(chemostat.controller(np.array([3.0, 2.0 + 1e-8])))
    assert below == pytest.approx(above, abs=1e-6)


def test_chemostat_controller_piecewise_branch(chemostat):
    p = CHEMOSTAT
    Z, S = 3.2, 1.4
    mu, mu_star = growth_rate(S), growth_rate(2.0)
    base = p["U_star"] * mu * Z / (mu_star * p["Z_star"])
    kink = (p["sigma"] * p["chi"] / mu_star ** 1.5) * abs(mu - mu_star) ** 1.5
    assert float(chemostat.controller(np.array([Z, S]))) == pytest.approx(
        base + kink, rel=1e-12)
    # above S* only the proportional part remains
    S = 2.6
    mu = growth_rate(S)
    base = p["U_star"] * mu * Z / (mu_star * p["Z_star"])
    assert float(chemostat.controller(np.array([Z, S]))) == pytest.approx(
        base, rel=1e-12)


def test_linear_zero_drift_variant():
    sys = pl.make_system("linear", a=0.0, b_in=1.0)
    rng = np.random.default_rng(0)
    for X in rng.normal(size=(5, 1)):
        dx = sys.dynamics(X, 0.37)
        assert dx.shape == (1,)
        assert dx[0] == pytest.approx(0.37)


@pytest.mark.parametrize("name", ["protein", "chemostat", "linear"])
def test_jacobians_match_finite_differences(name, request):
    sys = request.getfixturevalue(
        {"protein": "protein", "chemostat": "chemostat", "linear": "linear"}[name])
    rng = np.random.default_rng(42)
    X = sys.sample_states(100, rng)
    u = rng.uniform(-0.5 * sys.u_bound, 0.5 * sys.u_bound, size=100)
    if sys.control_lo is not None:
        u = np.clip(u, sys.control_lo, sys.control_hi)
    h = 1e-6
    for i in range(100):
        Ji = sys.jacobian_state(X[i], u[i])
        for c in range(sys.state_dim):
            e = np.zeros(sys.state_dim)
            e[c] = h * (1.0 + abs(X[i, c]))
            fd = (sys.dynamics(X[i] + e, u[i])
                  - sys.dynamics(X[i] - e, u[i])) / (2.0 * e[c])
            denom = max(1.0, np.abs(Ji[:, c]).max())
            assert np.abs(Ji[:, c] - fd).max() / denom < 1e-5
        ju = sys.jacobian_input(X[i], u[i])
        hu = h * (1.0 + abs(u[i]))
        fd_u = (sys.dynamics(X[i], u[i] + hu)
                - sys.dynamics(X[i], u[i] - hu)) / (2.0 * hu)
        assert np.abs(ju - fd_u).max() / max(1.0, np.abs(ju).max()) < 1e-5
        grad = sys.controller_grad(X[i])
        for c in range(sys.state_dim):
            e = np.zeros(sys.state_dim)
            e[c] = h * (1.0 + abs(X[i, c]))
            fd = (sys.controller(X[i] + e)
                  - sys.controller(X[i] - e)) / (2.0 * e[c])
            assert abs(grad[c] - fd) / max(1.0, abs(grad[c])) < 1e-5


@pytest.mark.parametrize("name", ["protein", "chemostat", "linear"])
def test_lyapunov_positive_definite(name, request):
    sys = request.getfixturevalue(name)
    rng = np.random.default_rng(1)
    X = sys.sample_states(200, rng)
    vals = sys.lyapunov(X)
    keep = np.linalg.norm(X - sys.setpoint, axis=1) > 1e-6
    assert np.all(vals[keep] > 0.0)


def test_hessian_fallback_matches_analytic_zero(linear):
    # finite differences of a constant gradient are exact zeros
    X = np.array([[0.5], [-1.0]])
    assert np.array_equal(linear.hessian_or_fd(X), np.zeros((2, 1, 1)))


def _hessian_fd_per_axis(sys, X):
    """Reference: central differences of the gradient, one axis at a time."""
    X = np.asarray(X, dtype=float)
    n = sys.state_dim
    h = 1e-5 * (1.0 + np.linalg.norm(X, axis=-1))
    out = np.zeros(X.shape[:-1] + (n, n))
    eye = np.eye(n)
    for i in range(n):
        step = h[..., None] * eye[i]
        gp = sys.controller_grad(X + step)
        gm = sys.controller_grad(X - step)
        out[..., i, :] = (gp - gm) / (2.0 * h[..., None])
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("name", ["protein", "chemostat"])
def test_hessian_fd_matches_per_axis_loop(name, protein, chemostat):
    sys = {"protein": protein, "chemostat": chemostat}[name]
    states = sys.sample_states(500, np.random.default_rng(7))
    kink = states[:50].copy()
    kink[:, 1] = CHEMOSTAT["S_star"]  # the chemostat controller's kink
    for X in (states, states[0], kink, kink[0]):
        assert np.array_equal(sys.hessian_or_fd(X), _hessian_fd_per_axis(sys, X))


def test_protein_hessian_fd_is_symmetric(protein):
    H = protein.hessian_or_fd(np.array([0.1, 6.0]))
    assert np.allclose(H, H.T)


def test_protein_open_loop_limit_cycle(protein):
    """U = 0 keeps the orbit oscillating instead of settling at the setpoint."""
    sol = solve_ivp(lambda t, X: protein.dynamics(X, 0.0), [0.0, 40.0],
                    [0.03, 30.0], rtol=1e-8, atol=1e-10, dense_output=True)
    ts = np.linspace(20.0, 40.0, 4001)
    Y = sol.sol(ts).T
    rel = np.hypot((Y[:, 0] - protein.setpoint[0]) / protein.setpoint[0],
                   (Y[:, 1] - protein.setpoint[1]) / protein.setpoint[1])
    assert rel.min() > 0.5
    # sustained oscillation: x2 keeps swinging over a wide range
    assert Y[:, 1].max() - Y[:, 1].min() > 10.0


def test_chemostat_positivity(chemostat):
    rng = np.random.default_rng(5)
    dt = 1e-3
    X = np.array([2.0, 2.0])
    u_seq = np.clip(rng.normal(0.9, 0.8, size=10_000), 0.0, 5.0)
    for u in u_seq:
        X = X + dt * chemostat.dynamics(X, u)
        assert X[0] > 0.0 and X[1] > 0.0


def test_import_leaves_scipy_unloaded():
    src = str(Path(pl.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import predictor_lab; print('scipy' in sys.modules)")
    out = subprocess.run([_sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _lipschitz_all_samples(jac_x, jac_u, x_lo, x_hi, u_bound, n):
    """Reference: the spectral norm of every sample's J_x."""
    rng = np.random.default_rng(systems._ESTIMATE_SEED)
    X = rng.uniform(x_lo, x_hi, size=(systems._ESTIMATE_SAMPLES, n))
    u = rng.uniform(-u_bound, u_bound, size=systems._ESTIMATE_SAMPLES)
    jx_norm = np.linalg.norm(jac_x(X, u), ord=2, axis=(-2, -1))
    ju_norm = np.linalg.norm(jac_u(X, u), axis=-1)
    return float(np.maximum(jx_norm, ju_norm).max())


@pytest.mark.parametrize("name", ["protein", "chemostat", "linear"])
def test_pruned_lipschitz_matches_all_samples(name, request):
    sys = request.getfixturevalue(name)
    ref = _lipschitz_all_samples(sys.jacobian_state, sys.jacobian_input,
                                 sys.x_lo, sys.x_hi, sys.u_bound,
                                 sys.state_dim)
    assert sys.C_f == ref


def test_lipschitz_estimate_waits_for_first_read(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return estimate(*args)

    estimate = systems._estimate_lipschitz
    monkeypatch.setattr(systems, "_estimate_lipschitz", counting)
    for name in ("protein", "chemostat", "linear"):
        plant = pl.make_system(name)
        assert len(calls) == 0
        assert plant.C_f == plant.C_f
        assert len(calls) == 1
        calls.clear()
    # dataclasses.replace (the benchmark's tracer) gives a copy that
    # estimates its own bound
    copy = replace(plant, dynamics=plant.dynamics)
    assert copy.C_f == plant.C_f
    assert len(calls) == 1


def test_pruned_lipschitz_keeps_spectral_max_below_largest_frobenius():
    # sample 0 has the largest Frobenius norm (sqrt 18) but spectral norm 3;
    # sample 1 holds the spectral maximum 4 with Frobenius norm 4
    def jac_x(X, u):
        J = 0.1 * X[:, :, None] * X[:, None, :] + 0.05 * u[:, None, None]
        J[0] = np.diag([3.0, 3.0])
        J[1] = [[4.0, 0.0], [0.0, 0.0]]
        return J

    def jac_u(X, u):
        return 0.5 * X

    args = (jac_x, jac_u, np.zeros(2), np.ones(2), 1.0, 2)
    ref = _lipschitz_all_samples(*args)
    assert ref == 4.0
    assert systems._estimate_lipschitz(*args) == ref


def test_protein_setpoint_matches_fsolve(protein):
    def residual(v):
        x1, x2 = v
        return [x1 - hill_f1(x1, x2), x2 - 2.0 * hill_f2(x1)]

    ref = fsolve(residual, systems.PROTEIN_SETPOINT_NOMINAL, xtol=1e-14)
    assert np.array_equal(protein.setpoint, ref)


def test_chemostat_setpoint_matches_fsolve(chemostat):
    def closed_loop(v):
        v = np.asarray(v)
        return chemostat.dynamics(v, chemostat.controller(v))

    ref = fsolve(closed_loop, [CHEMOSTAT["Z_star"], CHEMOSTAT["S_star"]],
                 xtol=1e-14)
    assert np.all(np.abs(chemostat.setpoint - ref) <= np.spacing(np.abs(ref)))
    assert (np.abs(closed_loop(chemostat.setpoint)).max()
            <= np.abs(closed_loop(ref)).max())


def test_newton_failure_names_the_plant(monkeypatch):
    # a NaN Jacobian makes the first Newton iterate non-finite
    monkeypatch.setattr(systems, "_hill_f1_grad",
                        lambda x1, x2: (np.nan, np.nan))
    with pytest.raises(RuntimeError, match="protein: .*non-finite"):
        pl.make_system("protein")
    # x^2 + 1 has no real root: Newton wanders until the iteration cap
    with pytest.raises(RuntimeError, match="toy: .*did not converge"):
        systems._newton_root("toy", lambda x: x ** 2 + 1.0,
                             lambda x: np.array([[2.0 * x[0]]]), [0.5])
