"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    stats = tracer.drain().aggregate()
    # outer [0, 5] holds inner [1, 2] and [3, 4]
    assert stats["outer"] == tracing.Stat(1, 5.0, 3.0)
    assert stats["inner"] == tracing.Stat(2, 2.0, 2.0)
    assert tracer.drain().aggregate() == {}


def test_failed_call_closes_its_span_and_counts_an_error():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    spans = tracer.drain()
    assert spans.counters["boom.errors"] == 1
    assert spans.aggregate()["boom"].calls == 1


def _installed():
    found = {}
    for module, attr, _ in tracing.MODULE_PATCHES:
        owner = importlib.import_module(module)
        found[(module, attr)] = vars(owner)[attr]
    for module, cls, attr, _ in tracing.CLASS_PATCHES:
        owner = getattr(importlib.import_module(module), cls)
        found[(cls, attr)] = vars(owner)[attr]
    ds = importlib.import_module("predictor_lab.dataset")
    found[("dataset", "make_system")] = vars(ds)["make_system"]
    return found


def test_instrument_restores_every_original():
    before = _installed()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            during = _installed()
            raise RuntimeError("leave the block early")
    assert all(during[k] is not before[k] for k in before)
    after = _installed()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_reference_fails_the_gate(workload):
    sizes = workloads.SMOKE
    cfg = workloads.scenario_config(workload, sizes)
    inputs = workloads.build_inputs(workload, 0)
    ep = workloads.run_episode(cfg, inputs.loop_system)
    reference = REFERENCE[workload]["smoke"]
    assert workloads.check_episode(workload, cfg, ep, reference, "t") == []

    tol = workloads.REFERENCE_TOL[workload]
    moved_x = dict(reference, X_T=[x * (1 + 100 * tol["x_rtol"])
                                   for x in reference["X_T"]])
    fails = workloads.check_episode(workload, cfg, ep, moved_x, "t")
    assert [f.step for f in fails] == [ep.steps - 1]
    assert "X(T)" in fails[0].message and workload in str(fails[0])

    moved_d = dict(reference, d_hat_T=reference["d_hat_T"]
                   + 2 * tol["d_hat_atol"])
    fails = workloads.check_episode(workload, cfg, ep, moved_d, "t")
    assert len(fails) == 1 and "d_hat(T)" in fails[0].message
