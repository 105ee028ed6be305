"""Sliding uniform record of the applied control U(t).

The history realizes the in-transit actuation profile u(x, t) = U(t + d(x-1))
and its x-derivative by interpolating the stored samples, and provides the
windowed integral functionals used by the stability diagnostics.
"""

from __future__ import annotations

import numpy as np

GUARD_SAMPLES = 2  # extra old samples kept for derivative stencils


class HistoryWindowError(ValueError):
    """Query outside the recorded window; carries the earliest valid time."""

    def __init__(self, message, earliest=None):
        super().__init__(message)
        self.earliest = earliest


class InputHistory:
    """Fixed-capacity record of (time, U) samples on a uniform grid.

    The buffer is pre-filled with zeros (an idle actuator) so that delayed
    lookups are valid from the first step.  Single writer; reads never mutate.
    """

    def __init__(self, sample_period: float, window_length: float,
                 t0: float = 0.0):
        if sample_period <= 0.0:
            raise ValueError("sample_period must be positive")
        if window_length <= 0.0:
            raise ValueError("window_length must be positive")
        self.sample_period = float(sample_period)
        n_window = int(np.ceil(window_length / sample_period - 1e-9))
        self.window_length = n_window * self.sample_period
        self._capacity = n_window + 1 + GUARD_SAMPLES
        self._origin = float(t0)
        # oldest to newest (guards included); a push slides it by one
        self._values = np.zeros(self._capacity)
        self._newest = 0  # absolute step index of the newest sample

    @property
    def current_time(self) -> float:
        return self._origin + self._newest * self.sample_period

    @property
    def window_start(self) -> float:
        return self.current_time - self.window_length

    def push(self, t: float, value: float) -> None:
        """Append the control applied at time t; t must advance by one period."""
        expected = self._origin + (self._newest + 1) * self.sample_period
        if abs(t - expected) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"non-uniform push: got t={t!r}, expected {expected!r}")
        self._newest += 1
        self._values[:-1] = self._values[1:]
        self._values[-1] = float(value)

    def _positions(self, times):
        """Fractional grid positions of query times, validated to the window."""
        times = np.asarray(times, dtype=float)
        lo = self.window_start - 1e-9 * max(1.0, abs(self.window_start))
        hi = self.current_time + 1e-9 * max(1.0, abs(self.current_time))
        if np.any(times < lo) or np.any(times > hi):
            bad = float(times[(times < lo) | (times > hi)].flat[0])
            raise HistoryWindowError(
                f"query t={bad!r} outside recorded window "
                f"[{self.window_start!r}, {self.current_time!r}]",
                earliest=self.window_start)
        return (times - self._origin) / self.sample_period - (
            self._newest - (self._capacity - 1))

    def sample(self, t):
        """U at time(s) t by linear interpolation; scalar in, scalar out."""
        pos = self._positions(t)
        vals = self._values
        i0 = np.clip(np.floor(pos).astype(int), 0, self._capacity - 2)
        frac = pos - i0
        out = vals[i0] * (1.0 - frac) + vals[i0 + 1] * frac
        return float(out) if np.isscalar(t) else out

    def _derivative_nodes(self) -> np.ndarray:
        """dU/dt at every stored node: centered interior, one-sided ends."""
        v = self._values
        dt = self.sample_period
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
        return d

    def sample_derivative(self, t):
        """dU/dt at time(s) t, interpolated between the node stencils."""
        pos = self._positions(t)
        nodes = self._derivative_nodes()
        i0 = np.clip(np.floor(pos).astype(int), 0, self._capacity - 2)
        frac = pos - i0
        out = nodes[i0] * (1.0 - frac) + nodes[i0 + 1] * frac
        return float(out) if np.isscalar(t) else out


def distributed_input(h: InputHistory, delay: float, x):
    """u(x, t) = U(t + delay (x - 1)) from the recorded history."""
    if not 0.0 < delay <= h.window_length + 1e-12:
        raise ValueError(f"delay {delay!r} outside (0, window_length]")
    x = np.asarray(x, dtype=float)
    theta = h.current_time + delay * (x - 1.0)
    return h.sample(theta) if x.ndim else float(h.sample(float(theta)))


def delayed_input_sampler(h: InputHistory, t: float, delay: float):
    """u(x) = U(t + delay (x-1)), holding the newest sample at the x=1 edge.

    Inside a control step U(t) is not yet pushed, so the profile's newest
    cell is zero-order-held; the plant integration is O(dt) anyway.  After
    the push the hold is a no-op.
    """
    newest = h.current_time

    def sampler(x):
        theta = np.minimum(t + delay * (np.asarray(x, dtype=float) - 1.0),
                           newest)
        return h.sample(theta)

    return sampler


def distributed_input_xderiv(h: InputHistory, delay: float, x):
    """du/dx = delay * U'(t + delay (x - 1)), U' by finite differences."""
    if not 0.0 < delay <= h.window_length + 1e-12:
        raise ValueError(f"delay {delay!r} outside (0, window_length]")
    x = np.asarray(x, dtype=float)
    theta = h.current_time + delay * (x - 1.0)
    if np.any(theta < h.window_start + h.sample_period - 1e-12):
        raise HistoryWindowError(
            "insufficient margin for the derivative stencil",
            earliest=h.window_start + h.sample_period)
    d = h.sample_derivative(theta)
    return delay * (d if x.ndim else float(d))


def _window_integrals(record: np.ndarray, dt: float, horizons) -> dict:
    """Trapezoid integrals of U^2, |U|, |dU/dt|, |d2U/dt2| over sliding windows.

    Window k is ``record[k:k + C]``, C = len(record) - len(horizons) + 1, over
    its last ``horizons[k]`` seconds; its derivative nodes are centred except
    the one-sided newest.  Each window is summed on its own: differences of
    one running sum lose relative precision once U has decayed.
    """
    v = np.asarray(record, dtype=float)
    width = len(v) - len(horizons) + 1
    newest = np.arange(len(horizons)) + (width - 1)
    pos_start = (width - 1) - np.asarray(horizons, dtype=float) / dt
    k_first = np.ceil(pos_start - 1e-12).astype(int)
    frac_width = (k_first - pos_start) * dt  # [0, dt): partial first cell
    partial = (frac_width > 1e-15) & (k_first > 0)
    w = pos_start - (k_first - 1)
    lo = newest - (width - 1) + k_first  # record index of the first node
    pairs = np.stack([lo, newest], axis=1).ravel()
    d1, d2 = np.zeros_like(v), np.zeros_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt ** 2
    d1_newest = (3.0 * v[newest] - 4.0 * v[newest - 1]
                 + v[newest - 2]) / (2.0 * dt)

    def integrate(nodes, newest_node, transform):
        y, y_new = transform(nodes), transform(newest_node)
        inner = np.where(lo < newest, np.add.reduceat(y, pairs)[::2], 0.0)
        y_lo = np.where(lo < newest, y[lo], y_new)
        total = dt * (inner + y_new - 0.5 * (y_lo + y_new))
        # interpolate the signal at t-horizon, then transform
        y0 = transform(nodes[lo - 1] * (1.0 - w)
                       + np.where(lo < newest, nodes[lo], newest_node) * w)
        return total + np.where(partial, 0.5 * frac_width * (y0 + y_lo), 0.0)

    # the one-sided second difference at the newest node is the centred
    # one a node earlier
    return {"int_U2": integrate(v, v[newest], np.square),
            "int_absU": integrate(v, v[newest], np.abs),
            "int_absUdot": integrate(d1, d1_newest, np.abs),
            "int_absUddot": integrate(d2, d2[newest - 1], np.abs)}


def window_functionals(h: InputHistory, horizon: float) -> dict:
    """Trapezoid integrals of U^2, |U|, |dU/dt|, |d2U/dt2| over [t-horizon, t]."""
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    if horizon > h.window_length + 1e-12:
        raise HistoryWindowError(
            f"horizon {horizon!r} exceeds recorded window {h.window_length!r}",
            earliest=h.window_start)
    w = _window_integrals(h._values, h.sample_period, [horizon])
    return {name: float(value[0]) for name, value in w.items()}


def run_window_functionals(h: InputHistory, pushed, horizons) -> dict:
    """``window_functionals(h, horizons[k])`` as read after each push.

    ``h`` started idle at zero and then received exactly the values
    ``pushed`` (as ``simulation.run`` builds it); entry k of each returned
    array is the window integral right after ``pushed[k]``.
    """
    record = np.concatenate([np.zeros(h._capacity - 1),
                             np.asarray(pushed, dtype=float)])
    return _window_integrals(record, h.sample_period, horizons)
