"""Projection operator and both delay update laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predictor_lab as pl
from predictor_lab.predictor import PredictorGrid, PredictorProfile
from predictor_lab.systems import SystemModel


def test_project_truth_table():
    assert pl.project(2.5, 0.5, 2.5, 1.0) == 0.0      # outward at the top
    assert pl.project(0.5, 0.5, 2.5, 1.0) == 1.0      # inward passes
    assert pl.project(0.5, 0.5, 2.5, -1.0) == 0.0     # outward at the bottom
    assert pl.project(1.3, 0.5, 2.5, -0.7) == -0.7    # interior identity


@given(st.floats(0.1, 5.0), st.floats(0.0, 5.0), st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_project_never_pushes_outward(d_min, width, phi):
    d_max = d_min + width
    for d_hat in (d_min, 0.5 * (d_min + d_max), d_max):
        out = pl.project(d_hat, d_min, d_max, phi)
        if d_hat <= d_min:
            assert out >= 0.0 or out == 0.0
        if d_hat >= d_max:
            assert out <= 0.0 or out == 0.0


def test_phi_measured_zero_cases(protein):
    grid = PredictorGrid(21)
    w = np.zeros(21)
    q1 = np.ones(21)
    assert pl.phi_measured(protein, w, q1, protein.setpoint, 1.0, grid) == 0.0
    assert pl.phi_measured(protein, np.ones(21), np.zeros(21),
                           protein.setpoint, 1.0, grid) == 0.0


def test_phi_measured_hand_quadrature(protein):
    # w = q1 = 1, V(X*) = 0, b = 1: phi = -(3/2)/(1 + 3/2) = -0.6
    grid = PredictorGrid(201)
    w = np.ones(201)
    q1 = np.ones(201)
    phi = pl.phi_measured(protein, w, q1, protein.setpoint, 1.0, grid)
    assert phi == pytest.approx(-0.6, abs=1e-9)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_phi_measured_bounded_by_numerator(protein, seed):
    rng = np.random.default_rng(seed)
    grid = PredictorGrid(41)
    w = rng.normal(size=41)
    q1 = rng.normal(size=41)
    X = protein.sample_states(1, rng)[0]
    phi = pl.phi_measured(protein, w, q1, X, 1.0, grid)
    xs = grid.points
    bound = np.trapezoid((1.0 + xs) * np.abs(q1) * np.abs(w), xs)
    assert abs(phi) <= bound + 1e-12


def test_estimated_input_profile_matches_true_delay():
    h = pl.InputHistory(1e-3, 4.0, t0=0.0)
    for k in range(1, 4001):
        h.push(k * 1e-3, np.sin(3 * k * 1e-3))
    grid = PredictorGrid(11)
    u_hat = pl.estimated_input_profile(h, 1.5, grid)
    truth = h.sample(h.current_time + 1.5 * (grid.points - 1))
    assert np.array_equal(u_hat, truth)


def test_estimated_input_profile_linear_record():
    h = pl.InputHistory(1e-3, 10.0, t0=0.0)
    for k in range(1, 10001):
        h.push(k * 1e-3, k * 1e-3)
    grid = PredictorGrid(5)
    u_hat = pl.estimated_input_profile(h, 2.0, grid)
    assert u_hat[0] == pytest.approx(8.0, abs=1e-12)  # U(t - d_hat)


def scalar_test_system(f_const=2.0):
    """kappa' = 1, kappa'' = 0, f = const: the hand-computable case."""
    return SystemModel(
        name="scalar-hand",
        dynamics=lambda X, u: np.full(np.shape(np.asarray(X)), f_const),
        jacobian_state=lambda X, u: np.zeros(
            np.shape(np.asarray(X)[..., 0]) + (1, 1)),
        controller=lambda X: np.asarray(X)[..., 0],
        controller_grad=lambda X: np.ones(np.shape(X)),
        setpoint=np.zeros(1), x_lo=-np.ones(1), x_hi=np.ones(1),
        u_bound=1.0)


def hand_profile(sys, grid, d_hat, values):
    return PredictorProfile(grid=grid, values=values, iterations=1,
                            residual=0.0)


def test_phi_unmeasured_hand_value():
    """2 sgn(w_x(1)) q3(1) + int (1+x)[q3 sgn(w) + q4 sgn(w_x)] = 7."""
    sys = scalar_test_system(f_const=2.0)
    grid = PredictorGrid(101)
    d_hat = 1.0
    p_vals = np.zeros((101, 1))                    # kappa(p) = 0
    u_hat = np.ones(101)                           # w_hat = 1 > 0
    # w_x = u_x - kappa' * p_x = u_x - d_hat * 2 > 0 with u_x = 3
    u_hat_x = np.full(101, 3.0)
    phi = pl.phi_unmeasured(sys, hand_profile(sys, grid, d_hat, p_vals),
                            u_hat, u_hat_x, d_hat, grid)
    assert phi == pytest.approx(7.0, abs=1e-9)


def test_phi_unmeasured_zero_when_matched():
    sys = scalar_test_system(f_const=2.0)
    grid = PredictorGrid(51)
    d_hat = 1.0
    p_vals = np.linspace(0.0, 2.0, 51)[:, None]    # kappa(p) = p
    u_hat = p_vals[:, 0].copy()                    # w_hat = 0
    u_hat_x = np.full(51, d_hat * 2.0)             # w_x = 0
    phi = pl.phi_unmeasured(sys, hand_profile(sys, grid, d_hat, p_vals),
                            u_hat, u_hat_x, d_hat, grid)
    assert phi == 0.0


def test_phi_unmeasured_zero_when_drift_vanishes():
    sys = scalar_test_system(f_const=0.0)
    grid = PredictorGrid(51)
    p_vals = np.random.default_rng(0).normal(size=(51, 1))
    u_hat = np.ones(51)
    u_hat_x = np.ones(51)
    phi = pl.phi_unmeasured(sys, hand_profile(sys, grid, 1.0, p_vals),
                            u_hat, u_hat_x, 1.0, grid)
    assert phi == 0.0


def test_deadzone_sign():
    assert pl.deadzone_sign(5e-10) == 0.0
    assert pl.deadzone_sign(-5e-10) == 0.0
    assert pl.deadzone_sign(1e-8) == 1.0
    assert pl.deadzone_sign(-1e-8) == -1.0


def test_step_delay_estimate_euler_arithmetic():
    # d + dt * gamma * phi = 1 + 1e-3 * 1000 * 1e-4 = 1.0001
    st_ = pl.AdaptationState(d_hat=1.0, d_min=0.5, d_max=2.5, gamma=1000.0)
    out = pl.step_delay_estimate(st_, 1e-4, 1e-3)
    assert out.d_hat == pytest.approx(1.0001, abs=1e-12)
    # larger phi saturates at the clamp
    out2 = pl.step_delay_estimate(st_, 10.0, 1e-3)
    assert out2.d_hat == pytest.approx(2.5)


def test_step_delay_estimate_zero_phi():
    st_ = pl.AdaptationState(d_hat=1.2, d_min=0.5, d_max=2.5, gamma=10.0)
    assert pl.step_delay_estimate(st_, 0.0, 1e-2).d_hat == 1.2


def test_step_delay_estimate_projection_at_bound():
    st_ = pl.AdaptationState(d_hat=2.5, d_min=0.5, d_max=2.5, gamma=10.0)
    assert pl.step_delay_estimate(st_, 5.0, 1e-2).d_hat == 2.5


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_estimate_stays_in_bounds_under_fuzz(seed):
    rng = np.random.default_rng(seed)
    st_ = pl.AdaptationState(d_hat=float(rng.uniform(0.6, 2.4)), d_min=0.6,
                             d_max=2.4, gamma=float(rng.uniform(0.1, 500.0)))
    for _ in range(500):
        st_ = pl.step_delay_estimate(st_, float(rng.standard_cauchy()), 1e-2)
        assert 0.6 <= st_.d_hat <= 2.4


def test_adaptation_state_validation():
    with pytest.raises(ValueError):
        pl.AdaptationState(d_hat=0.1, d_min=0.5, d_max=2.5, gamma=1.0)
    with pytest.raises(ValueError):
        pl.AdaptationState(d_hat=1.0, d_min=-0.5, d_max=2.5, gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        pl.AdaptationState(d_hat=1.0, d_min=0.5, d_max=2.5, gamma=-1.0)
    with pytest.raises(ValueError, match="gamma"):
        pl.AdaptationState(d_hat=1.0, d_min=0.5, d_max=2.5, gamma=np.inf)
