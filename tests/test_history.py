"""Input history: interpolation, distributed-input lookups, window integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predictor_lab as pl
from predictor_lab.history import HistoryWindowError, delayed_input_sampler


def filled_history(fn, dt=1e-3, window=4.0, t_end=4.0):
    h = pl.InputHistory(dt, window, t0=0.0)
    for k in range(1, int(round(t_end / dt)) + 1):
        h.push(k * dt, float(fn(k * dt)))
    return h


def profile(h, delay, x):
    """u(x) = U(t + delay (x - 1)) at the newest recorded time t."""
    return delayed_input_sampler(h, h.current_time, delay)(x)


def test_push_then_sample_same_instant():
    h = pl.InputHistory(0.1, 1.0, t0=0.0)
    h.push(0.1, 3.25)
    assert h.sample(0.1) == 3.25


@given(st.floats(-100.0, 100.0))
@settings(max_examples=25, deadline=None)
def test_constant_history_samples_constant(c):
    h = pl.InputHistory(0.01, 0.5, t0=0.0)
    for k in range(1, 101):
        h.push(k * 0.01, c)
    for theta in (1.0, 0.763, 0.5001, 0.9999):
        assert h.sample(theta) == pytest.approx(c)


def test_sine_history_interpolation():
    h = filled_history(np.sin)
    assert abs(h.sample(1.234) - np.sin(1.234)) < 1e-5


def test_push_non_uniform_rejected():
    h = pl.InputHistory(0.1, 1.0, t0=0.0)
    h.push(0.1, 0.0)
    with pytest.raises(ValueError, match="non-uniform"):
        h.push(0.25, 0.0)
    with pytest.raises(ValueError, match="non-uniform"):
        h.push(0.1, 0.0)


def test_query_outside_window_is_error():
    h = filled_history(np.sin, window=2.0)
    with pytest.raises(HistoryWindowError) as exc:
        h.sample(1.5)  # window is [2, 4]
    assert exc.value.earliest == pytest.approx(2.0)
    with pytest.raises(HistoryWindowError):
        h.sample(4.5)


def test_distributed_input_boundaries():
    h = filled_history(np.sin, t_end=4.0)
    # x = 1 is the control being applied now
    assert profile(h, 2.0, 1.0) == pytest.approx(np.sin(4.0))
    # x = 0 at the true delay is the input reaching the plant
    assert profile(h, 2.0, 0.0) == pytest.approx(np.sin(2.0), abs=1e-6)


def test_distributed_input_linear_record():
    h = filled_history(lambda t: t, dt=1e-3, window=10.0, t_end=10.0)
    # U(theta) = theta, t=10, delay=2, x=0.25 -> 10 + 2(0.25-1) = 8.5 exactly
    assert profile(h, 2.0, 0.25) == pytest.approx(8.5, abs=1e-12)


def test_distributed_input_before_history_reports_earliest():
    h = filled_history(np.sin, window=2.0, t_end=4.0)
    with pytest.raises(ValueError):
        profile(h, 3.0, 0.0)  # needs t=1, window starts at 2


def test_xderiv_constant_is_zero():
    h = filled_history(lambda t: 0.7)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.abs(pl.distributed_input_xderiv(h, 1.5, xs)).max() < 1e-12


def test_xderiv_ramp_is_delay():
    h = filled_history(lambda t: t)
    got = pl.distributed_input_xderiv(h, 2.0, np.linspace(0.1, 1.0, 7))
    assert np.abs(got - 2.0).max() < 1e-9


def test_xderiv_sine_analytic():
    h = filled_history(np.sin, dt=1e-3, window=5.0, t_end=5.0)
    got = pl.distributed_input_xderiv(h, 1.5, 0.5)
    assert got == pytest.approx(1.5 * np.cos(5.0 + 1.5 * (0.5 - 1.0)),
                                abs=1e-4)


def whole_record_xderiv(h, delay, x):
    """du/dx from dU/dt at every stored node: centred inside, one-sided at
    both ends, interpolated between the nodes around each query."""
    v, dt = h._values, h.sample_period
    nodes = np.empty_like(v)
    nodes[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    nodes[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    nodes[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    pos = h._positions(h.current_time + delay * (x - 1.0))
    i0 = np.clip(np.floor(pos).astype(int), 0, len(v) - 2)
    frac = pos - i0
    return delay * (nodes[i0] * (1.0 - frac) + nodes[i0 + 1] * frac)


def test_xderiv_matches_the_whole_record_stencil():
    h = filled_history(lambda t: np.sin(3.0 * t) + 0.1 * t * t, window=2.0)
    # the longest delay the margin allows reaches one node past the oldest
    longest = h.window_length - h.sample_period
    xs = np.concatenate([np.linspace(0.0, 1.0, 201),
                         np.random.default_rng(0).uniform(0.0, 1.0, 200),
                         1.0 - np.array([1e-4, 1e-6, 1e-9])])
    for delay in (longest, 1.3, 0.0105, 1e-3):
        want = whole_record_xderiv(h, delay, xs)
        assert np.array_equal(pl.distributed_input_xderiv(h, delay, xs), want)
        assert pl.distributed_input_xderiv(h, delay, 1.0) == want[200]


def test_xderiv_margin_error():
    h = filled_history(np.sin, window=1.0, t_end=2.0)
    with pytest.raises(HistoryWindowError, match="margin"):
        pl.distributed_input_xderiv(h, 1.0, 0.0)


def test_window_functionals_zero_history():
    h = pl.InputHistory(1e-2, 2.0, t0=0.0)
    w = pl.window_functionals(h, 1.0)
    assert all(v == 0.0 for v in w.values())


def test_window_functionals_constant():
    h = filled_history(lambda t: 1.0, dt=1e-2, window=3.0, t_end=3.0)
    w = pl.window_functionals(h, 2.0)
    assert w["int_U2"] == pytest.approx(2.0)
    assert w["int_absU"] == pytest.approx(2.0)
    assert w["int_absUdot"] == pytest.approx(0.0, abs=1e-12)
    assert w["int_absUddot"] == pytest.approx(0.0, abs=1e-12)


def test_window_functionals_ramp_derivative():
    # ramp record covering the whole horizon window plus stencil margins
    h = filled_history(lambda t: t, dt=1e-3, window=1.5, t_end=2.0)
    w = pl.window_functionals(h, 1.0)
    assert w["int_absUdot"] == pytest.approx(1.0, rel=1e-6)


def test_window_functionals_horizon_exceeds_record():
    h = filled_history(np.sin, window=2.0)
    with pytest.raises(HistoryWindowError, match="horizon"):
        pl.window_functionals(h, 2.5)


@given(st.floats(0.0, 1.0), st.floats(0.2, 1.9))
@settings(max_examples=40, deadline=None)
def test_shift_composition_identity(x, delay):
    h = filled_history(np.sin, dt=1e-3, window=2.0, t_end=4.0)
    lhs = profile(h, delay, x)
    rhs = profile(h, delay * (1.0 - x), 0.0) if x < 1.0 else lhs
    assert abs(lhs - rhs) < 1e-12


def test_transport_identity_against_logged_record():
    """Profile lookups equal direct delayed interpolation of the raw log."""
    dt = 1e-3
    u_fn = lambda t: np.sin(3.0 * t) + 0.25 * np.cos(7.0 * t)
    h = filled_history(u_fn, dt=dt, window=4.0, t_end=6.0)
    ts = np.arange(0, 6001) * dt
    log = u_fn(ts)
    xs = np.linspace(0.0, 1.0, 101)
    delay = 1.3
    prof = profile(h, delay, xs)
    direct = np.interp(6.0 + delay * (xs - 1.0), ts, log)
    max_uddot = 9.0 + 0.25 * 49.0
    assert np.abs(prof - direct).max() <= dt ** 2 * max_uddot


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_a_window_error(bad):
    h = filled_history(np.sin, window=2.0)
    name = f"t={bad!r} is not finite"
    with pytest.raises(HistoryWindowError, match=name) as exc:
        h.sample(bad)
    assert exc.value.earliest == pytest.approx(2.0)
    with pytest.raises(HistoryWindowError, match=name):
        h.sample(np.array([3.0, bad, 3.5]))
    # the first non-finite time is named, even after an out-of-window one
    with pytest.raises(HistoryWindowError, match=name):
        h.sample(np.array([1.0, bad, np.nan]))


def test_non_finite_xderiv_point_is_a_window_error():
    h = filled_history(np.sin, window=2.0)
    with pytest.raises(HistoryWindowError, match="t=nan is not finite"):
        pl.distributed_input_xderiv(h, 0.5, [0.5, np.nan])
    with pytest.raises(HistoryWindowError, match="t=nan is not finite"):
        pl.distributed_input_xderiv(h, 0.5, np.nan)
