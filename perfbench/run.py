"""Benchmark of predictor_lab: closed-loop control steps and the offline pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload protein-measured --seed 0 \\
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate instrumented run.  ``--all`` runs every
workload in turn and prints one table.  The last line of standard output is
the JSON result; the environment record precedes it and is also written,
with the spans of a traced run, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference.json"
SETUP_REPEATS = 3
PROBE_CALLS = 200


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Import predictor_lab from this checkout's src/; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "predictor_lab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no predictor_lab package under {src}")
    tic = time.perf_counter()
    sys.path.insert(0, str(src))
    import predictor_lab
    from predictor_lab import (adaptation, dataset, history,  # noqa: F401
                               neural_operator, predictor, simulation,
                               systems)
    seconds = time.perf_counter() - tic
    if Path(predictor_lab.__file__).resolve().parent != src / "predictor_lab":
        raise ImportError(f"predictor_lab resolved to {predictor_lab.__file__}")
    return seconds


# ---------------------------------------------------------------------------
# environment record

def _openblas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# runs

def _median_ms(seconds):
    return statistics.median(seconds) * 1e3 if seconds else None


def _reference(workload: str, sizes):
    import workloads
    with open(REFERENCE_PATH) as fh:
        recorded = json.load(fh)[workload]
    return recorded["smoke" if sizes is workloads.SMOKE else "full"]


def build(workload: str, seed: int, repeats: int):
    """Build the run's inputs ``repeats`` times; returns (inputs, seconds)."""
    import workloads
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        inputs = workloads.build_inputs(workload, seed)
        times.append(time.perf_counter() - tic)
    return inputs, statistics.median(times)


def plain_run(workload, seed, seconds, sizes, import_s, failures):
    """The untraced run: end-to-end metrics.

    Machine speed drifted by +-20% over tens of seconds on the machine the
    bounds were set on, so every timed activity is spread across the run
    instead of filling one block.  The closed loop gets half of
    ``seconds``: half of that between the harvest chunks, the rest between
    the inference rounds that follow the first training.  The other
    trainings sit between inference rounds, and a round of cold solves
    follows every harvest chunk and inference round.
    """
    import numpy as np
    import workloads
    inputs, build_s = build(workload, seed, SETUP_REPEATS)
    cfg = workloads.scenario_config(workload, sizes)
    reference = _reference(workload, sizes)
    loop_budget = seconds / 2.0
    first = 0.5 * loop_budget
    episodes, chunks, rates = [], [], []
    loop_s = harvest_s = 0.0
    samples_tried = 0
    report = model = None
    timing = workloads.Timings()

    def episodes_until(target):
        nonlocal loop_s
        while not episodes or (episodes[-1].trace is not None
                               and loop_s < target):
            tic = time.perf_counter()
            episodes.append(workloads.loop_episode(
                workload, cfg, inputs.loop_system, reference,
                f"closed-loop episode {len(episodes)}", failures))
            loop_s += time.perf_counter() - tic

    def train_once():
        nonlocal report, model
        model, rep, dt, seen = workloads.train_model(workload, data, sizes,
                                                     failures)
        if model is None:
            return
        if report is not None and rep["test_err"] != report["test_err"]:
            failures.append(workloads.Failure(
                workload, "train", None, "identical trainings gave "
                f"test_err {report['test_err']!r} and {rep['test_err']!r}"))
        report = rep
        rates.append(seen / dt)

    for chunk in range(sizes.harvest_chunks):
        part, dt, tried = workloads.harvest_chunk(workload, sizes, chunk,
                                                  failures)
        harvest_s += dt
        samples_tried += tried
        chunks.append(part)
        workloads.cold_round(workload, inputs, timing, failures)
        episodes_until(first * (chunk + 1) / sizes.harvest_chunks)

    data = (workloads.merge(chunks)
            if all(c is not None for c in chunks) else None)
    if data is not None and workloads.warm_up_training(workload, data,
                                                       failures):
        train_once()
    rounds = sizes.timing_rounds
    train_rounds = {rounds * k // sizes.train_repeats
                    for k in range(1, sizes.train_repeats)}
    for r in range(rounds):
        if model is not None:
            workloads.forward_round(workload, model, inputs, timing,
                                    failures)
            if r in train_rounds:
                train_once()
        workloads.cold_round(workload, inputs, timing, failures)
        episodes_until(first + (loop_budget - first) * (r + 1) / rounds)
    attempted = (samples_tried + len(rates) * sizes.train_epochs
                 + timing.forwards + timing.colds)

    done = [ep for ep in episodes if ep.trace is not None]
    steps = sum(ep.steps for ep in done)
    held = sum(ep.held for ep in done)
    attempted += sum(ep.steps for ep in episodes)
    intervals = (np.concatenate([ep.intervals for ep in done]) * 1e3
                 if done else np.zeros(0))

    metrics = {
        "setup_s": import_s + build_s,
        "step_ms_p50": float(np.median(intervals)) if intervals.size else None,
        "step_ms_mean": float(intervals.mean()) if intervals.size else None,
        "pred_residual_max": (max(float(ep.trace.pred_residual.max())
                                  for ep in done) if done else None),
        "solved_step_frac": 1.0 - held / steps if steps else None,
        "dataset_samples_per_s": (len(data) / harvest_s
                                  if data is not None else None),
        "kept_sample_frac": (len(data) / samples_tried
                             if data is not None else None),
        "train_samples_per_s": statistics.median(rates) if rates else None,
        "no_test_err": report["test_err"] if report else None,
        "no_forward_ms_p50": _median_ms(timing.single),
        "no_forward_batch_ms_p50": _median_ms(timing.batch),
        "cold_solve_ms_p50": _median_ms(timing.cold),
    }
    return metrics, attempted


def _probe(fn, calls=PROBE_CALLS):
    times = []
    for _ in range(calls):
        tic = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tic)
    return statistics.median(times) * 1e3


def probes(cfg, system, ep) -> dict:
    """Per-call ms of the layer functions the scenario's law never calls,
    timed on the state of the last traced step."""
    import numpy as np
    from predictor_lab import history, predictor
    t, hist, d_hat, profile = ep.last_step
    points = profile.grid.points

    def sampler(x):
        return hist.sample(np.minimum(t + cfg.d_true * (x - 1.0),
                                      hist.current_time))

    u0 = float(hist.sample(t - cfg.d_true))
    return {
        "predictor.q1_scan": lambda: _probe(lambda: predictor.q1_scan(
            system, profile, sampler, d_hat, u0)),
        "history.distributed_input_xderiv": lambda: _probe(
            lambda: history.distributed_input_xderiv(hist, d_hat, points)),
        "systems.hessian_or_fd": lambda: _probe(
            lambda: system.hessian_or_fd(profile.values)),
    }


def traced_run(workload, seed, sizes, failures):
    """The instrumented run: per-layer metrics.

    Its work is fixed, not set by --seconds, so that its counts repeat
    exactly: two traced and two untraced episodes of the closed loop in the
    order untraced, traced, traced, untraced, then the offline pipeline
    traced, then untraced cold solves and forwards at N=101 and N=1001.
    """
    import numpy as np
    import tracing
    import workloads
    from predictor_lab import neural_operator, predictor, simulation

    inputs, _ = build(workload, seed, 1)
    cfg = workloads.scenario_config(workload, sizes)
    reference = _reference(workload, sizes)
    tracer = tracing.Tracer()
    traced_system = tracer.system(inputs.loop_system)
    traced_sim_run = tracer.wrap(simulation.run, "simulation.run")
    plain, traced = [], []
    for i, use_trace in enumerate((False, True, True, False)):
        stage = f"closed-loop episode {i}" + (" traced" if use_trace else "")
        if use_trace:
            with tracing.instrument(tracer):
                ep = workloads.loop_episode(workload, cfg, traced_system,
                                            reference, stage, failures,
                                            traced_sim_run)
        else:
            ep = workloads.loop_episode(workload, cfg, inputs.loop_system,
                                        reference, stage, failures)
        if ep.trace is None:
            return {}, ep.steps
        (traced if use_trace else plain).append(ep)
    loop_spans = tracer.drain()

    chunks, samples_tried = [], 0
    with tracing.instrument(tracer):
        for chunk in range(sizes.harvest_chunks):
            part, _, tried = workloads.harvest_chunk(workload, sizes, chunk,
                                                     failures)
            chunks.append(part)
            samples_tried += tried
    harvest_spans = tracer.drain()
    data = (workloads.merge(chunks)
            if all(c is not None for c in chunks) else None)
    model = None
    if data is not None and workloads.warm_up_training(workload, data,
                                                       failures):
        with tracing.instrument(tracer):
            model, _, _, _ = workloads.train_model(workload, data, sizes,
                                                   failures)
    train_spans = tracer.drain()

    # untraced cold solves and single forwards at two more grid sizes
    corpus = inputs.corpus
    sizes_ms = {}
    for n in (101, 1001):
        grid = predictor.PredictorGrid(n)
        u = [np.interp(grid.points, corpus["x_fine"], row)
             for row in corpus["u_fine"][:workloads.BATCH]]
        cold, fwd = [], []
        for j in range(workloads.BATCH):
            tic = time.perf_counter()
            try:
                predictor.solve_fixed_point(
                    inputs.protein, corpus["X"][j], lambda x: u[j],
                    corpus["d"][j], grid, tol=workloads.COLD_TOL)
            except Exception as exc:
                failures.append(workloads.Failure(
                    workload, f"cold-solve n{n}", j, workloads.describe(exc)))
                continue
            cold.append(time.perf_counter() - tic)
            if model is not None:
                tic = time.perf_counter()
                neural_operator.forward(model, corpus["X"][j],
                                        inputs.u_model[j], corpus["d"][j],
                                        grid.points)
                fwd.append(time.perf_counter() - tic)
        sizes_ms[n] = (_median_ms(cold), _median_ms(fwd))

    OUT_DIR.mkdir(exist_ok=True)
    arrays = {}
    for phase, spans in (("loop", loop_spans), ("harvest", harvest_spans),
                         ("train", train_spans)):
        arrays.update(spans.arrays(phase))
    np.savez(OUT_DIR / f"spans-{workload}-seed{seed}.npz", **arrays)

    steps = sum(ep.steps for ep in traced)
    untraced_iv = np.concatenate([ep.intervals for ep in plain]) * 1e3
    traced_iv = np.concatenate([ep.intervals for ep in traced]) * 1e3
    loop = loop_spans.aggregate()
    lc = loop_spans.counters
    probe = probes(cfg, inputs.loop_system, traced[-1])

    def total_ms(agg, *names):
        return sum(agg[n].total_s for n in names if n in agg) * 1e3

    def per_step(*names):
        return total_ms(loop, *names) / steps

    def per_call(name):
        """From the loop, or from a probe when the loop never calls it."""
        if name in loop:
            return total_ms(loop, name) / loop[name].calls
        return probe[name]()

    solve = loop["predictor.solve"]
    harvest_agg = harvest_spans.aggregate()
    targets = harvest_agg.get("dataset.solve_target",
                              tracing.Stat(0, 0.0, 0.0))
    train_agg = train_spans.aggregate()
    adam_steps = train_agg["neural_operator.adam"].calls if model else 0
    prov = data.provenance if data is not None else {}
    metrics = {
        "simulation.step_ms_p90": float(np.percentile(untraced_iv, 90)),
        "simulation.step_ms_p99": float(np.percentile(untraced_iv, 99)),
        "simulation.diagnostics_ms_per_step": per_step(
            "simulation.gamma_functional", "simulation.upsilon_functional"),
        "simulation.self_ms_per_step":
            loop["simulation.run"].self_s * 1e3 / steps,
        "predictor.solve.calls": solve.calls,
        "predictor.solve.ms_per_call": solve.total_s * 1e3 / solve.calls,
        "predictor.solve.iterations": lc["predictor.solve.iterations"],
        "predictor.solve.iters_per_call":
            lc["predictor.solve.iterations"] / solve.calls,
        "predictor.solve.failures": lc.get("predictor.solve.errors", 0),
        "predictor.q1_scan.ms_per_call": per_call("predictor.q1_scan"),
        "predictor.integral_residual.ms_per_call":
            per_call("predictor.integral_residual"),
        "predictor.cold_solve_ms_p50.n101": sizes_ms[101][0],
        "predictor.cold_solve_ms_p50.n1001": sizes_ms[1001][0],
        "history.sample.calls": loop["history.sample"].calls,
        "history.sample.points": lc["history.sample.points"],
        "history.sample.ms_per_step": per_step("history.sample"),
        "history.window_functionals.ms_per_step":
            per_step("history.window_functionals"),
        # once per step where the unmeasured law calls it
        "history.distributed_input_xderiv.ms_per_step":
            per_call("history.distributed_input_xderiv"),
        "adaptation.phi.ms_per_step": per_step(
            "adaptation.phi", "adaptation.estimated_input_profile"),
        "adaptation.step_delay_estimate.ms_per_step":
            per_step("adaptation.step_delay_estimate"),
        "systems.dynamics.calls": loop["systems.dynamics"].calls,
        "systems.dynamics.rows": lc["systems.dynamics.rows"],
        "systems.dynamics.ms_per_step": per_step("systems.dynamics"),
        "systems.hessian_or_fd.ms_per_step":
            per_call("systems.hessian_or_fd"),
        "neural_operator.loss_and_grads.ms_per_step": (
            total_ms(train_agg, "neural_operator.loss_and_grads") / adam_steps
            if adam_steps else None),
        "neural_operator.adam.ms_per_step": (
            total_ms(train_agg, "neural_operator.adam") / adam_steps
            if adam_steps else None),
        "neural_operator.train.steps": adam_steps,
        "neural_operator.forward_ms_p50.n101": sizes_ms[101][1],
        "neural_operator.forward_ms_p50.n1001": sizes_ms[1001][1],
        "dataset.closed_loop_s": (
            total_ms(harvest_agg, "simulation.run") - targets.total_s * 1e3)
            / 1e3,
        "dataset.solve_target.calls": targets.calls,
        "dataset.solve_target.ms_per_call": (
            targets.total_s * 1e3 / targets.calls if targets.calls else None),
        "dataset.solve_target.iters_per_call": (
            harvest_spans.counters.get("dataset.solve_target.iterations", 0)
            / targets.calls if targets.calls else None),
        "dataset.yield": (len(data) / targets.calls
                          if targets.calls and data is not None else None),
        "dataset.runs": prov.get("runs"),
        "dataset.skipped_runs": prov.get("skipped_runs"),
        "trace.overhead_frac": float(traced_iv.mean() / untraced_iv.mean()
                                     - 1.0),
    }
    attempted = (sum(ep.steps for ep in plain + traced) + samples_tried
                 + sizes.train_epochs + 4 * workloads.BATCH)
    return metrics, attempted


def run_one(args) -> int:
    import workloads
    spec = load_spec()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    failures = []
    if args.trace:
        metrics, attempted = traced_run(args.workload, args.seed, sizes,
                                           failures)
    else:
        metrics, attempted = plain_run(args.workload, args.seed,
                                          args.seconds, sizes, args.import_s,
                                          failures)
    for f in failures:
        print(f, file=sys.stderr)
    names = [m["name"] for m in wanted]
    # a failed stage leaves its metrics out; anything else is a defect here
    missing = [] if failures else sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}")
    metrics = {name: metrics.get(name) for name in names}
    result = {
        "correct": not failures and all(v is not None
                                        for v in metrics.values()),
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env,
              "failures": [str(f) for f in failures], "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for m in wanted:
        value = metrics[m["name"]]
        shown = ("n/a" if value is None else str(value)
                 if isinstance(value, int) else f"{value:.6g}")
        print(f"{args.workload:22s} {m['name']:45s} {shown:>12s} {m['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, gate applied to each."""
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"{w['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def record_reference(args) -> int:
    """Record X(T) and d_hat(T) of every scenario at this commit."""
    import workloads
    out = {"commit": _git_commit()}
    for w in workloads.WORKLOADS:
        out[w] = {}
        for label, sizes in (("full", workloads.FULL),
                             ("smoke", workloads.SMOKE)):
            inputs = workloads.build_inputs(w, 0)
            cfg = workloads.scenario_config(w, sizes)
            ep = workloads.run_episode(cfg, inputs.loop_system)
            out[w][label] = {"steps": ep.trace.n_steps,
                             "X_T": ep.trace.X[-1].tolist(),
                             "d_hat_T": float(ep.trace.d_hat[-1])}
    REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("protein-measured",
                                          "chemostat-unmeasured"))
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the held-out timing corpus (default 0)")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measured time of an untraced run (default 50); "
                        "half goes to the closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every phase at a tiny size, for tests")
    p.add_argument("--all", action="store_true",
                   help="run every workload and print one table")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this checkout")
    args = p.parse_args(argv)
    if not (args.all or args.record_reference or args.workload):
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        args.import_s = import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.record_reference:
        return record_reference(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
