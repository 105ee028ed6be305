"""Closed-loop simulation behavior and diagnostic functionals."""

import numpy as np
import pytest

import predictor_lab as pl
from predictor_lab.predictor import PredictorError
from predictor_lab.simulation import gamma_functional, upsilon_functional


def zero_history(sys, dt=1e-3, window=4.0):
    return pl.InputHistory(dt, window, t0=0.0)


def constant_history(value, dt=1e-3, window=4.0):
    """A history whose whole record, guard samples included, holds value."""
    h = pl.InputHistory(dt, window, t0=0.0)
    for k in range(1, int(round(window / dt)) + 4):
        h.push(k * dt, value)
    return h


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        pl.SimulationConfig(dt=0.0).validate()
    with pytest.raises(ValueError, match="t_final"):
        pl.SimulationConfig(t_final=0.0).validate()
    with pytest.raises(ValueError, match="t_final"):
        pl.SimulationConfig(t_final=0.4e-3, dt=1e-3).validate()
    # a horizon shorter than the delay is valid: the history starts idle
    pl.SimulationConfig(t_final=0.5, d_true=1.0).validate()
    with pytest.raises(ValueError, match="predictor"):
        pl.SimulationConfig(predictor="magic").validate()
    with pytest.raises(ValueError, match="law"):
        pl.SimulationConfig(law="magic").validate()
    with pytest.raises(ValueError, match="model_path"):
        pl.SimulationConfig(predictor="neural").validate()


def test_gamma_functional_values(linear):
    h = zero_history(linear)
    assert gamma_functional(linear, [0.0], h, 2.0, 2.0) == 0.0
    assert gamma_functional(linear, [1.0], h, 2.0, 2.0) == pytest.approx(1.0)
    assert gamma_functional(linear, [0.0], h, 2.0, 1.5) == pytest.approx(0.25)
    h1 = constant_history(1.0)
    assert gamma_functional(linear, [0.0], h1, 2.0, 2.0) == pytest.approx(2.0)


def test_upsilon_functional_values(linear):
    h = zero_history(linear)
    assert upsilon_functional(linear, [0.0], h, 2.0, 2.0) == 0.0
    h1 = constant_history(1.0)
    assert upsilon_functional(linear, [0.0], h1, 1.5, 1.0) == pytest.approx(
        1.5 + 0.25, abs=1e-9)  # int |U| over max horizon + D-tilde^2
    # ramp record: int |U| = t - 1/2, int |U'| = 1 over horizon 1
    h2 = pl.InputHistory(1e-3, 6.0, t0=0.0)
    for k in range(1, 6001):
        h2.push(k * 1e-3, k * 1e-3)
    got = upsilon_functional(linear, [0.0], h2, 1.0, 1.0)
    assert got == pytest.approx((6.0 - 0.5) + 1.0, rel=1e-6)


def test_exact_match_initialization_keeps_estimate(protein):
    """At the setpoint with the true delay, the measured law barely moves."""
    cfg = pl.SimulationConfig(system="protein", x0=tuple(protein.setpoint),
                              d_true=1.0, d_hat0=1.0, d_min=0.5, d_max=2.5,
                              gamma=1000.0, b=1.0, dt=1e-3, t_final=2.0,
                              predictor="numeric_fixed_point", law="measured",
                              grid_points=41)
    tr = pl.run(cfg, system=protein)
    assert np.abs(tr.d_hat - 1.0).max() < 1e-3 * cfg.gamma * cfg.t_final
    assert np.abs(tr.X[-1] - protein.setpoint).max() < 1e-6


def test_frozen_law_holds_estimate(protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=0.8,
                              d_hat0=1.7, gamma=1000.0, b=1.0, dt=1e-3,
                              t_final=1.5, predictor="numeric_fixed_point",
                              law="frozen", grid_points=41)
    tr = pl.run(cfg, system=protein)
    assert np.all(tr.d_hat == 1.7)
    assert np.all(tr.phi == 0.0)


def test_uncompensated_flag_applies_controller_through_delay(protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=0.5,
                              d_hat0=0.5, gamma=0.0, dt=1e-3, t_final=1.0,
                              predictor="uncompensated", law="frozen")
    tr = pl.run(cfg, system=protein)
    # logged control equals kappa of the logged state at each step
    expected = protein.controller(tr.X)
    assert np.abs(tr.U_unclipped - expected).max() < 1e-12


def test_open_loop_zero_input(protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=0.5,
                              d_hat0=0.5, gamma=0.0, dt=1e-3, t_final=1.0,
                              predictor="none", law="frozen")
    tr = pl.run(cfg, system=protein)
    assert np.all(tr.U == 0.0)


def test_divergence_terminates_with_record():
    cfg = pl.SimulationConfig(system="linear", linear_a=3.0, linear_b=1.0,
                              x0=(1.0,), d_true=0.5, d_hat0=0.5, gamma=0.0,
                              dt=1e-3, t_final=12.0, predictor="none",
                              law="frozen", d_min=0.2, d_max=1.0)
    tr = pl.run(cfg)
    assert tr.diverged
    assert tr.divergence_step is not None
    assert tr.n_steps < int(12.0 / 1e-3)


def test_persistent_solver_failure_aborts(protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=1.0,
                              d_hat0=2.0, gamma=10.0, dt=1e-3, t_final=1.0,
                              predictor="numeric_fixed_point", law="measured",
                              grid_points=41, solver_max_iter=1)
    with pytest.raises(PredictorError, match="consecutive"):
        pl.run(cfg, system=protein)


def test_euler_refinement_first_order(protein):
    """Halving dt moves the endpoint by O(dt)."""
    ends = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0),
                                  d_true=1.0, d_hat0=1.5, gamma=100.0, b=1.0,
                                  dt=dt, t_final=2.0,
                                  predictor="numeric_fixed_point",
                                  law="measured", grid_points=41)
        ends[dt] = pl.run(cfg, system=protein).X[-1]
    d1 = np.linalg.norm(ends[2e-3] - ends[1e-3])
    d2 = np.linalg.norm(ends[1e-3] - ends[5e-4])
    richardson_c = d1 / 1e-3
    assert d2 < richardson_c * 1e-3  # first-order: next halving shrinks ~2x
    assert d2 < 0.75 * d1


def test_w1_consistency_under_exact_predictor():
    from predictor_lab.verify import suite_w_consistency
    res = suite_w_consistency(seed=0)
    assert res.passed, res.detail


def test_estimate_stays_in_bounds_along_trace(protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.05, 25.0), d_true=1.2,
                              d_hat0=2.0, d_min=0.5, d_max=2.5, gamma=1000.0,
                              b=1.0, dt=1e-3, t_final=3.0,
                              predictor="numeric_fixed_point", law="measured",
                              grid_points=41)
    tr = pl.run(cfg, system=protein)
    assert tr.d_hat.min() >= 0.5 and tr.d_hat.max() <= 2.5


def test_neural_backend_runs_closed_loop(linear_model, tmp_path):
    from predictor_lab.neural_operator import save_model
    path = tmp_path / "lin.no"
    save_model(linear_model, path)
    cfg = pl.SimulationConfig(system="linear", linear_a=-0.5, linear_b=1.0,
                              x0=(1.0,), d_true=1.0, d_hat0=1.2, d_min=0.5,
                              d_max=2.0, gamma=5.0, b=1.0, dt=1e-3,
                              t_final=6.0, predictor="neural",
                              law="measured", grid_points=41,
                              model_path=str(path))
    tr = pl.run(cfg)
    assert not tr.diverged
    assert abs(tr.X[-1, 0]) < 0.1  # stabilized near the origin
    assert np.all(np.isfinite(tr.pred_residual))


def test_trace_csv_format(tmp_path, protein):
    cfg = pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=0.8,
                              d_hat0=1.0, gamma=10.0, dt=1e-3, t_final=0.5,
                              predictor="numeric_fixed_point", law="measured",
                              grid_points=21)
    tr = pl.run(cfg, system=protein)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,X_1,X_2,U,d_hat,phi,gamma,upsilon,"
                        "pred_residual,pred_time_s")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (tr.n_steps, 10)
    assert np.allclose(data[:, 1:3], tr.X)


def _window_functionals_per_step(h, horizon):
    """Reference: the one-window arithmetic ``run`` used to repeat per step."""
    dt = h.sample_period
    v = h._values
    d1 = np.empty_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    d1[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    d1[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    d2 = np.empty_like(v)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt ** 2
    d2[0] = (v[2] - 2.0 * v[1] + v[0]) / dt ** 2
    d2[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) / dt ** 2
    pos_start = (len(v) - 1) - horizon / dt
    k_first = int(np.ceil(pos_start - 1e-12))
    frac_width = (k_first - pos_start) * dt

    def integrate(nodes, transform):
        y = transform(nodes[k_first:])
        total = dt * (y.sum() - 0.5 * (y[0] + y[-1]))
        if frac_width > 1e-15 and k_first > 0:
            w = pos_start - (k_first - 1)
            y0 = transform(nodes[k_first - 1] * (1.0 - w) + nodes[k_first] * w)
            total += 0.5 * frac_width * (y0 + y[0])
        return total

    return (integrate(v, np.square), integrate(v, np.abs),
            integrate(d1, np.abs), integrate(d2, np.abs))


def _run_with_replayed_diagnostics(cfg):
    """Run ``cfg`` and recompute Gamma/Upsilon step by step from on_step."""
    sys = pl.make_system(cfg.system, a=cfg.linear_a, b_in=cfg.linear_b)
    gamma, upsilon = [], []

    def on_step(k, t, X, hist, d_hat, profile):
        dX = X - sys.setpoint
        tilde2 = (cfg.d_true - d_hat) ** 2
        u2, _, _, _ = _window_functionals_per_step(hist, cfg.d_true)
        _, absu, absud, absudd = _window_functionals_per_step(
            hist, max(cfg.d_true, d_hat))
        gamma.append(dX @ dX + u2 + tilde2)
        upsilon.append(np.sqrt(dX @ dX) + absu + absud + absudd + tilde2)

    tr = pl.run(cfg, system=sys, on_step=on_step)
    return tr, np.array(gamma), np.array(upsilon)


@pytest.mark.parametrize("cfg", [
    pl.SimulationConfig(system="protein", x0=(0.03, 30.0), d_true=1.0,
                        d_hat0=1.5, gamma=100.0, dt=2e-3, t_final=1.6,
                        law="measured", grid_points=41),
    # d_hat starts above D and falls below it: Upsilon's horizon switches
    pl.SimulationConfig(system="chemostat", x0=(2.0, 2.0), d_true=1.6,
                        d_hat0=1.62, d_min=1.0, d_max=2.2, gamma=0.2,
                        dt=2e-3, t_final=2.0, law="unmeasured",
                        grid_points=41),
    pl.SimulationConfig(system="linear", linear_a=5.0, x0=(1.0,),
                        d_true=0.5, d_hat0=0.5, d_min=0.2, d_max=1.0,
                        gamma=0.0, dt=1e-3, t_final=12.0,
                        predictor="uncompensated", law="frozen"),
], ids=["protein-measured", "chemostat-crossing", "linear-diverging"])
def test_diagnostics_after_run_match_per_step_replay(cfg):
    tr, gamma, upsilon = _run_with_replayed_diagnostics(cfg)
    if cfg.system == "chemostat":
        above = tr.d_hat > cfg.d_true
        assert above.any() and not above.all()
    if cfg.system == "linear":
        assert tr.diverged and len(tr.gamma_fn) == tr.n_steps
    assert np.abs(tr.U).max() > 0.0
    np.testing.assert_allclose(tr.gamma_fn, gamma, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(tr.upsilon_fn, upsilon, rtol=1e-12, atol=0.0)
