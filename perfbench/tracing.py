"""Spans and counters recorded around predictor_lab's public functions.

The program is instrumented from outside: a name imported with
``from .x import y`` is replaced where its caller looks it up, a method on
its class, and a plant's dynamics through ``dataclasses.replace`` on the
``SystemModel``.  Each call becomes a span (name, start, end, parent) kept in
memory until ``Tracer.drain``; a span's self time is its duration minus the
durations of its direct children.  ``instrument`` restores every original
when it exits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (module, attribute, span name): module attributes patched where the
# caller resolves them
MODULE_PATCHES = (
    ("predictor_lab.simulation", "solve_fixed_point", "predictor.solve"),
    ("predictor_lab.simulation", "q1_scan", "predictor.q1_scan"),
    ("predictor_lab.simulation", "integral_residual",
     "predictor.integral_residual"),
    ("predictor_lab.predictor", "integral_residual",
     "predictor.integral_residual"),
    ("predictor_lab.simulation", "phi_measured", "adaptation.phi"),
    ("predictor_lab.simulation", "phi_unmeasured", "adaptation.phi"),
    ("predictor_lab.simulation", "estimated_input_profile",
     "adaptation.estimated_input_profile"),
    ("predictor_lab.simulation", "step_delay_estimate",
     "adaptation.step_delay_estimate"),
    ("predictor_lab.simulation", "distributed_input_xderiv",
     "history.distributed_input_xderiv"),
    ("predictor_lab.simulation", "window_functionals",
     "history.window_functionals"),
    ("predictor_lab.simulation", "gamma_functional",
     "simulation.gamma_functional"),
    ("predictor_lab.simulation", "upsilon_functional",
     "simulation.upsilon_functional"),
    ("predictor_lab.dataset", "run", "simulation.run"),
    ("predictor_lab.dataset", "solve_target", "dataset.solve_target"),
    ("predictor_lab.dataset", "solve_fixed_point", "dataset.target_solve"),
    ("predictor_lab.neural_operator", "training_loss_and_grads",
     "neural_operator.loss_and_grads"),
    ("predictor_lab.neural_operator", "forward", "neural_operator.forward"),
)

# (module, class, method, span name)
CLASS_PATCHES = (
    ("predictor_lab.history", "InputHistory", "sample", "history.sample"),
    ("predictor_lab.systems", "SystemModel", "hessian_or_fd",
     "systems.hessian_or_fd"),
    ("predictor_lab.neural_operator", "AdamState", "step",
     "neural_operator.adam"),
)


def _count_iterations(key):
    def count(counters, args, result, exc):
        done = (result.iterations if exc is None
                else getattr(exc, "iterations", 0))
        counters[key] += done or 0
    return count


def _count_rows(counters, args, result, exc):
    counters["systems.dynamics.rows"] += int(np.prod(np.shape(args[0])[:-1]))


def _count_points(counters, args, result, exc):
    counters["history.sample.points"] += int(np.size(args[1]))


COUNTS = {
    "predictor.solve": _count_iterations("predictor.solve.iterations"),
    "dataset.target_solve": _count_iterations(
        "dataset.solve_target.iterations"),
    "systems.dynamics": _count_rows,
    "history.sample": _count_points,
}


class Stat(NamedTuple):
    calls: int
    total_s: float
    self_s: float


@dataclasses.dataclass
class Spans:
    """Spans of one phase: parallel arrays indexed by span id."""

    names: list
    name: np.ndarray
    parent: np.ndarray    # span id of the caller, -1 at the root
    start: np.ndarray
    end: np.ndarray
    counters: dict

    def aggregate(self) -> dict:
        """Calls, total and self seconds per span name."""
        k = len(self.names)
        dur = self.end - self.start
        inner = self.parent >= 0
        children = np.bincount(self.parent[inner], weights=dur[inner],
                               minlength=len(dur))
        calls = np.bincount(self.name, minlength=k)
        total = np.bincount(self.name, weights=dur, minlength=k)
        own = np.bincount(self.name, weights=dur - children, minlength=k)
        return {n: Stat(int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def arrays(self, phase: str) -> dict:
        """The spans as arrays keyed by phase, for ``np.savez``."""
        return {f"{phase}.names": np.array(self.names),
                f"{phase}.name": self.name, f"{phase}.parent": self.parent,
                f"{phase}.start": self.start, f"{phase}.end": self.end}


class Tracer:
    """In-memory span store shared by every wrapper it makes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.counters = defaultdict(int)

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call, plus the counts for ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        count = COUNTS.get(name)
        errors = name + ".errors"
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        stack, counters, clock = self._stack, self.counters, self.clock

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counters[errors] += 1
                if count is not None:
                    count(counters, args, None, exc)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def drain(self) -> Spans:
        """Hand over the spans recorded so far and start empty."""
        if self._stack:
            raise RuntimeError("drain inside an open span")
        spans = Spans(names=list(self.names),
                      name=np.array(self._name, dtype=np.int64),
                      parent=np.array(self._parent, dtype=np.int64),
                      start=np.array(self._start), end=np.array(self._end),
                      counters=dict(self.counters))
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        self.counters.clear()
        return spans

    def system(self, system):
        """``system`` whose dynamics record spans and row counts."""
        return dataclasses.replace(
            system, dynamics=self.wrap(system.dynamics, "systems.dynamics"))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for module, attr, span in MODULE_PATCHES:
            owner = importlib.import_module(module)
            patch(owner, attr, tracer.wrap(vars(owner)[attr], span))
        for module, cls, attr, span in CLASS_PATCHES:
            owner = getattr(importlib.import_module(module), cls)
            patch(owner, attr, tracer.wrap(vars(owner)[attr], span))
        ds = importlib.import_module("predictor_lab.dataset")
        make_system = vars(ds)["make_system"]
        patch(ds, "make_system", tracer.wrap(
            lambda *a, **k: tracer.system(make_system(*a, **k)),
            "systems.make_system"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
