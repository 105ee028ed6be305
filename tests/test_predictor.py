"""Predictor solvers against closed-form, cross-solver and matrix-exponential oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

import predictor_lab as pl
from predictor_lab.predictor import PredictorError, _cell_propagators
from predictor_lab.systems import SystemModel
from predictor_lab.verify import linear_closed_form, random_profile

from linear_oracle import LINEAR_A, LINEAR_B


def toy_system(dynamics, jacobian_state, n=1, controller=None,
               controller_grad=None):
    """Bare SystemModel for solver tests; unused pieces are placeholders."""
    zero_vec = lambda X: np.zeros(np.shape(np.atleast_1d(X))[:-1] + (n,)) \
        if np.ndim(X) > 1 else np.zeros(n)
    return SystemModel(
        name="toy", dynamics=dynamics,
        jacobian_state=jacobian_state,
        jacobian_input=lambda X, u: np.zeros(np.shape(X)),
        controller=(controller or (lambda X: np.zeros(np.shape(X)[:-1]))),
        controller_grad=(controller_grad or (lambda X: np.zeros(np.shape(X)))),
        setpoint=np.zeros(n), x_lo=-np.ones(n), x_hi=np.ones(n),
        u_bound=1.0)


def zero_dynamics_system(n=2):
    return toy_system(
        dynamics=lambda X, u: np.zeros(np.shape(np.asarray(X, dtype=float))),
        jacobian_state=lambda X, u: np.zeros(
            np.shape(np.asarray(X)[..., 0]) + (n, n)), n=n)


def test_grid_invariants():
    grid = pl.PredictorGrid(11)
    xs = grid.points
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert np.allclose(np.diff(xs), grid.dx)
    with pytest.raises(ValueError):
        pl.PredictorGrid(1)


def test_grid_points_built_once_and_read_only():
    grid = pl.PredictorGrid(11)
    xs = grid.points
    assert grid.points is xs
    assert np.array_equal(xs, np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="read-only"):
        xs[0] = 0.5
    assert grid == pl.PredictorGrid(11)


def test_fixed_point_zero_dynamics_one_iteration():
    sys = zero_dynamics_system()
    X = np.array([0.4, -1.2])
    prof = pl.solve_fixed_point(sys, X, lambda x: np.zeros_like(x), 1.5,
                                pl.PredictorGrid(21))
    assert prof.iterations == 1
    assert np.array_equal(prof.values, np.tile(X, (21, 1)))
    assert prof.residual == 0.0


def test_march_zero_dynamics():
    sys = zero_dynamics_system()
    X = np.array([0.4, -1.2])
    prof = pl.solve_ode_march(sys, X, lambda x: np.zeros_like(x), 1.5,
                              pl.PredictorGrid(21))
    assert np.allclose(prof.values, X)


def test_profile_starts_at_state(linear):
    rng = np.random.default_rng(0)
    u = random_profile(rng, 1.0)
    prof = pl.solve_fixed_point(linear, [0.7], u, 1.3, pl.PredictorGrid(33))
    assert prof.values[0, 0] == 0.7


def test_fixed_point_matches_linear_closed_form_second_order(linear):
    """Error vs the closed form shrinks ~4x per grid refinement."""
    rng = np.random.default_rng(2)
    u = random_profile(rng, 2.0)
    errs = []
    for n_pts in (51, 101, 201):
        grid = pl.PredictorGrid(n_pts)
        exact = linear_closed_form(LINEAR_A, LINEAR_B, 1.1, u, 1.7, grid)
        prof = pl.solve_fixed_point(linear, [1.1], u, 1.7, grid)
        errs.append(np.abs(prof.values[:, 0] - exact).max())
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_march_matches_linear_closed_form_fourth_order(linear):
    rng = np.random.default_rng(3)
    u = random_profile(rng, 2.0)
    grid = pl.PredictorGrid(101)
    exact = linear_closed_form(LINEAR_A, LINEAR_B, -0.4, u, 1.2, grid)
    prof = pl.solve_ode_march(linear, [-0.4], u, 1.2, grid)
    # smooth profile: 4th-order error at dx=0.01 is far below 1e-6
    assert np.abs(prof.values[:, 0] - exact).max() < 1e-6


def test_march_vanishing_delay(linear):
    rng = np.random.default_rng(4)
    u = random_profile(rng, 2.0)
    prof = pl.solve_ode_march(linear, [0.9], u, 1e-8, pl.PredictorGrid(11))
    assert np.abs(prof.values - 0.9).max() < 1e-7


def test_solvers_agree_on_operating_inputs(protein):
    """Picard and the 4th-order march agree to 10 dx^2 on harvested inputs."""
    grid = pl.PredictorGrid(101)
    tol = 10.0 * grid.dx ** 2
    inputs = []

    def harvest(k, t, X, hist, d_hat, profile):
        if k % 500 == 0 and k > 0:
            sampler_vals = hist.sample(t + 1.0 * (grid.points - 1.0))
            inputs.append((X.copy(), sampler_vals.copy(), d_hat))

    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=1.0,
                              d_hat0=1.8, gamma=200.0, b=1.0, dt=1e-3,
                              t_final=8.0, law="measured", grid_points=101)
    pl.run(cfg, system=protein, on_step=harvest)
    assert len(inputs) >= 10
    for X, u_nodes, d_hat in inputs:
        u = lambda x: np.interp(x, grid.points, u_nodes)
        a = pl.solve_fixed_point(protein, X, u, d_hat, grid)
        b = pl.solve_ode_march(protein, X, u, d_hat, grid)
        assert np.abs(a.values - b.values).max() < tol


def test_fixed_point_nonconvergence_error(linear):
    with pytest.raises(PredictorError) as exc:
        pl.solve_fixed_point(linear, [1.0], lambda x: np.ones_like(x), 1.5,
                             pl.PredictorGrid(41), max_iter=2)
    assert exc.value.residual is not None
    assert exc.value.iterations == 2


def test_fixed_point_divergence_error():
    blow_up = toy_system(
        dynamics=lambda X, u: np.square(np.asarray(X, dtype=float)) * 1e8,
        jacobian_state=lambda X, u: np.zeros(np.shape(np.asarray(X)[..., 0])
                                             + (1, 1)))
    with pytest.raises(PredictorError, match="divergence|did not converge"):
        pl.solve_fixed_point(blow_up, [10.0], lambda x: np.zeros_like(x),
                             2.0, pl.PredictorGrid(21))


def test_transition_matrix_identity_for_zero_jacobian():
    sys = zero_dynamics_system()
    grid = pl.PredictorGrid(11)
    prof = pl.solve_fixed_point(sys, [0.1, 0.2], lambda x: np.zeros_like(x),
                                1.0, grid)
    tm = pl.transition_matrix(sys, prof, lambda x: np.zeros_like(x), 1.0)
    assert np.allclose(tm, np.eye(2))


def test_transition_matrix_scalar_exponential():
    # dphi/dx = delay * (-1) * phi -> phi(1) = exp(-2) at delay 2
    sys = toy_system(
        dynamics=lambda X, u: -np.asarray(X, dtype=float),
        jacobian_state=lambda X, u: np.full(
            np.shape(np.asarray(X)[..., 0]) + (1, 1), -1.0))
    grid = pl.PredictorGrid(101)
    prof = pl.solve_fixed_point(sys, [1.0], lambda x: np.zeros_like(x), 2.0,
                                grid)
    tm = pl.transition_matrix(sys, prof, lambda x: np.zeros_like(x), 2.0)
    assert abs(tm[-1, 0, 0] - np.exp(-2.0)) < 1e-6


def test_transition_matrix_constant_jacobian_vs_expm():
    A = np.array([[-0.3, 0.8], [-0.5, -0.1]])
    sys = toy_system(
        dynamics=lambda X, u: np.asarray(X, dtype=float) @ A.T,
        jacobian_state=lambda X, u: np.broadcast_to(
            A, np.shape(np.asarray(X)[..., 0]) + (2, 2)).copy(), n=2)
    grid = pl.PredictorGrid(101)
    delay = 1.4
    prof = pl.solve_fixed_point(sys, [0.5, -0.2], lambda x: np.zeros_like(x),
                                delay, grid)
    tm = pl.transition_matrix(sys, prof, lambda x: np.zeros_like(x), delay)
    for i in (25, 50, 100):
        exact = expm(delay * grid.points[i] * A)
        assert np.abs(tm[i] - exact).max() < 1e-8


def test_q1_zero_at_equilibrium(protein):
    grid = pl.PredictorGrid(21)
    u_star = float(protein.controller(protein.setpoint))
    u = lambda x: np.full(np.shape(x), u_star)
    prof = pl.solve_fixed_point(protein, protein.setpoint, u, 1.0, grid)
    q1 = pl.q1_scan(protein, prof, u, 1.0, u_star)
    assert np.abs(q1).max() < 1e-7


def test_q1_zero_for_constant_controller():
    sys = toy_system(
        dynamics=lambda X, u: -np.asarray(X, dtype=float),
        jacobian_state=lambda X, u: np.full(
            np.shape(np.asarray(X)[..., 0]) + (1, 1), -1.0),
        controller=lambda X: np.full(np.shape(X)[:-1], 2.0),
        controller_grad=lambda X: np.zeros(np.shape(X)))
    grid = pl.PredictorGrid(21)
    u = lambda x: np.zeros_like(x)
    prof = pl.solve_fixed_point(sys, [1.0], u, 1.0, grid)
    assert np.abs(pl.q1_scan(sys, prof, u, 1.0, 0.0)).max() == 0.0


def test_q1_linear_closed_form(linear):
    a, b = LINEAR_A, LINEAR_B
    grid = pl.PredictorGrid(101)
    X0, u0, delay = 0.6, 0.25, 1.3
    u = lambda x: np.full(np.shape(x), u0)
    prof = pl.solve_fixed_point(linear, [X0], u, delay, grid)
    q1 = pl.q1_scan(linear, prof, u, delay, u0)
    kappa_grad = -(a + 1.0) / b
    expected = kappa_grad * np.exp(a * delay * grid.points) * (a * X0 + b * u0)
    assert np.abs(q1 - expected).max() < 1e-6


def test_transition_matrix_is_ordered_prefix_product(protein):
    """Phi(x_0) = I and Phi(x_{i+1}) = P_i Phi(x_i) with the cell
    propagators P_i; the protein Jacobians along the curve do not commute,
    so a product taken in the wrong order fails here."""
    rng = np.random.default_rng(6)
    u = random_profile(rng, 1.0)
    grid = pl.PredictorGrid(201)
    prof = pl.solve_fixed_point(protein, np.array([0.1, 8.0]), u, 1.2, grid)
    props = _cell_propagators(protein, prof, u, 1.2)
    tm = pl.transition_matrix(protein, prof, u, 1.2)
    assert tm.shape == (grid.n_points, 2, 2)
    assert np.array_equal(tm[0], np.eye(2))
    defect = np.abs(tm[1:] - props @ tm[:-1]).max()
    assert defect < 1e-12 * np.abs(tm).max()


def test_uniform_predictor_bound_holds(protein):
    from predictor_lab.predictor import uniform_predictor_bound
    bound = uniform_predictor_bound(protein, 2.5)
    assert np.isfinite(bound)
    rng = np.random.default_rng(7)
    from predictor_lab.verify import system_profile
    for _ in range(20):
        X = protein.sample_states(1, rng)[0]
        u = system_profile(protein, rng, scale=0.8)
        prof = pl.solve_fixed_point(protein, X, u,
                                    rng.uniform(0.5, 2.5),
                                    pl.PredictorGrid(51))
        assert np.abs(prof.values).max() <= bound


def test_warm_start_reduces_iterations(protein):
    rng = np.random.default_rng(8)
    u = random_profile(rng, 0.5)
    grid = pl.PredictorGrid(101)
    X = np.array([0.08, 6.0])
    cold = pl.solve_fixed_point(protein, X, u, 1.0, grid)
    warm = pl.solve_fixed_point(protein, X + 1e-4, u, 1.0, grid,
                                warm_start=cold.values)
    assert warm.iterations < cold.iterations
