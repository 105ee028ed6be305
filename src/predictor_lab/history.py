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

    def __init__(self, message, earliest=None, latest=None):
        super().__init__(message)
        self.earliest = earliest
        self.latest = latest


class InputHistory:
    """Fixed-capacity circular record of (time, U) samples on a uniform grid.

    The buffer is pre-filled with ``fill`` (an idle actuator) so that delayed
    lookups are valid from the first step.  Single writer; reads never mutate.
    """

    def __init__(self, sample_period: float, window_length: float,
                 t0: float = 0.0, fill: float = 0.0):
        if sample_period <= 0.0:
            raise ValueError("sample_period must be positive")
        if window_length <= 0.0:
            raise ValueError("window_length must be positive")
        self.sample_period = float(sample_period)
        n_window = int(np.ceil(window_length / sample_period - 1e-9))
        self.window_length = n_window * self.sample_period
        self._capacity = n_window + 1 + GUARD_SAMPLES
        self._origin = float(t0)
        self._values = np.full(self._capacity, float(fill))
        self._newest = 0  # absolute step index of the newest sample
        self._cache = {}  # per-push memo of ordered/derivative views

    @property
    def current_time(self) -> float:
        return self._origin + self._newest * self.sample_period

    @property
    def window_start(self) -> float:
        return self.current_time - self.window_length

    def _index_of(self, k: int) -> int:
        return k % self._capacity

    def push(self, t: float, value: float) -> None:
        """Append the control applied at time t; t must advance by one period."""
        expected = self._origin + (self._newest + 1) * self.sample_period
        if abs(t - expected) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"non-uniform push: got t={t!r}, expected {expected!r}")
        self._newest += 1
        self._values[self._index_of(self._newest)] = float(value)
        ordered = self._cache.get("ordered")
        self._cache.clear()
        if ordered is not None:
            # slide the memoized chronological view instead of rebuilding
            ordered[:-1] = ordered[1:]
            ordered[-1] = value
            self._cache["ordered"] = ordered

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
                earliest=self.window_start, latest=self.current_time)
        return (times - self._origin) / self.sample_period - (
            self._newest - (self._capacity - 1))

    def _ordered(self) -> np.ndarray:
        """Stored values ordered oldest to newest (guards included)."""
        if "ordered" not in self._cache:
            ks = np.arange(self._newest - (self._capacity - 1),
                           self._newest + 1)
            self._cache["ordered"] = self._values[ks % self._capacity]
        return self._cache["ordered"]

    def sample(self, t):
        """U at time(s) t by linear interpolation; scalar in, scalar out."""
        pos = self._positions(t)
        vals = self._ordered()
        i0 = np.clip(np.floor(pos).astype(int), 0, self._capacity - 2)
        frac = pos - i0
        out = vals[i0] * (1.0 - frac) + vals[i0 + 1] * frac
        return float(out) if np.isscalar(t) else out

    def _derivative_nodes(self) -> np.ndarray:
        """dU/dt at every stored node: centered interior, one-sided ends."""
        if "d1" not in self._cache:
            v = self._ordered()
            dt = self.sample_period
            d = np.empty_like(v)
            d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
            d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
            d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
            self._cache["d1"] = d
        return self._cache["d1"]

    def _second_derivative_nodes(self) -> np.ndarray:
        """d2U/dt2 via 3-point second differences (one-sided at the ends)."""
        if "d2" not in self._cache:
            v = self._ordered()
            dt2 = self.sample_period ** 2
            d = np.empty_like(v)
            d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt2
            d[0] = (v[2] - 2.0 * v[1] + v[0]) / dt2
            d[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) / dt2
            self._cache["d2"] = d
        return self._cache["d2"]

    def sample_derivative(self, t):
        """dU/dt at time(s) t, interpolated between the node stencils."""
        pos = self._positions(t)
        nodes = self._derivative_nodes()
        i0 = np.clip(np.floor(pos).astype(int), 0, self._capacity - 2)
        frac = pos - i0
        out = nodes[i0] * (1.0 - frac) + nodes[i0 + 1] * frac
        return float(out) if np.isscalar(t) else out

    def dump_csv(self, path) -> None:
        ks = np.arange(self._newest - (self._capacity - 1), self._newest + 1)
        times = self._origin + ks * self.sample_period
        with open(path, "w") as fh:
            fh.write("time,U\n")
            for t, v in zip(times, self._ordered()):
                fh.write(f"{t!r},{v!r}\n")


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
            earliest=h.window_start + h.sample_period, latest=h.current_time)
    d = h.sample_derivative(theta)
    return delay * (d if x.ndim else float(d))


def window_functionals(h: InputHistory, horizon: float) -> dict:
    """Trapezoid integrals of U^2, |U|, |dU/dt|, |d2U/dt2| over [t-horizon, t]."""
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    if horizon > h.window_length + 1e-12:
        raise HistoryWindowError(
            f"horizon {horizon!r} exceeds recorded window {h.window_length!r}",
            earliest=h.window_start, latest=h.current_time)
    dt = h.sample_period
    pos_start = (h._capacity - 1) - horizon / dt
    k_first = int(np.ceil(pos_start - 1e-12))
    frac_width = (k_first - pos_start) * dt  # [0, dt): partial first cell

    vals = h._ordered()
    d1 = h._derivative_nodes()
    d2 = h._second_derivative_nodes()

    def integrate(nodes, transform):
        y = transform(nodes[k_first:])
        total = dt * (y.sum() - 0.5 * (y[0] + y[-1]))
        if frac_width > 1e-15 and k_first > 0:
            # interpolate the signal at t-horizon, then transform
            w = (pos_start - (k_first - 1))
            y0 = transform(nodes[k_first - 1] * (1.0 - w) + nodes[k_first] * w)
            total += 0.5 * frac_width * (y0 + y[0])
        return float(total)

    return {
        "int_U2": integrate(vals, np.square),
        "int_absU": integrate(vals, np.abs),
        "int_absUdot": integrate(d1, np.abs),
        "int_absUddot": integrate(d2, np.abs),
    }
