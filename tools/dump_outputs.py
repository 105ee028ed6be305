"""Dump the numeric outputs of a source tree, and compare two dumps.

    python tools/dump_outputs.py DIR OUT.npz
    python tools/dump_outputs.py --compare A.npz B.npz

The first form imports ``predictor_lab`` from ``DIR/src`` and the benchmark's
``workloads`` from ``DIR/perfbench``, and saves, at the benchmark's full
sizes:

- the closed-loop trace of each benchmark scenario;
- protein harvest chunks 0-3, and the operator trained on them;
- the cold Picard solves of the 256-input timing corpus at N=201;
- ``C_f`` and the setpoint of each plant.

The second form prints each array name with whether the two dumps hold
``np.array_equal`` arrays under it, and exits 1 if any differ or either dump
lacks a name.  Dumping a change and its parent, each in its own process,
shows whether the change kept every output bit for bit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

TRACE_FIELDS = ("X", "U", "U_unclipped", "U_arriving", "d_hat", "phi",
                "pred_residual", "gamma_fn", "upsilon_fn")
HARVEST_CHUNKS = 4
PLANTS = ("protein", "chemostat", "linear")


def _import_tree(root: Path):
    """``predictor_lab`` and ``workloads`` of the tree at ``root``."""
    for path in (root / "perfbench", root / "src"):
        sys.path.insert(0, str(path))
    import predictor_lab
    import workloads
    for module, home in ((predictor_lab, root / "src"),
                         (workloads, root / "perfbench")):
        if home.resolve() not in Path(module.__file__).resolve().parents:
            raise RuntimeError(f"{module.__name__} was imported from "
                               f"{module.__file__}, not from {home}")
    return predictor_lab, workloads


def _raise_on(failures: list) -> None:
    if failures:
        raise RuntimeError("; ".join(str(f) for f in failures))


def dump(root, sizes: str = "FULL") -> dict:
    """Every compared array of the tree at ``root``, keyed by name, at the
    benchmark's ``FULL`` or ``SMOKE`` sizes."""
    pl, wl = _import_tree(Path(root))
    sizes = getattr(wl, sizes)
    failures = []
    out = {}
    for workload in wl.WORKLOADS:
        cfg = wl.scenario_config(workload, sizes)
        trace = pl.simulation.run(cfg, system=pl.make_system(cfg.system))
        for name in TRACE_FIELDS:
            out[f"{workload}/{name}"] = getattr(trace, name)

    chunks = []
    for chunk in range(HARVEST_CHUNKS):
        data, _, _ = wl.harvest_chunk("dump", sizes, chunk, failures)
        _raise_on(failures)
        chunks.append(data)
        for name in ("X", "u", "d_hat", "targets"):
            out[f"harvest{chunk}/{name}"] = getattr(data, name)
        for name in ("max_residual", "stride_s", "config_hash"):
            out[f"harvest{chunk}/{name}"] = np.array(data.provenance[name])
    model, report, _, _ = wl.train_model("dump", wl.merge(chunks), sizes,
                                         failures)
    _raise_on(failures)
    out["train/test_err"] = np.array(report["test_err"])
    for name, value in model.params.items():
        out[f"train/{name}"] = value

    inputs = wl.build_inputs(wl.WORKLOADS[0], seed=0)
    grid = pl.PredictorGrid(wl.TIMING_GRID)
    corpus = inputs.corpus
    solves = [pl.predictor.solve_fixed_point(
        inputs.protein, corpus["X"][j], lambda x, u=u: u, corpus["d"][j],
        grid, tol=wl.COLD_TOL) for j, u in enumerate(inputs.u_grid)]
    out["cold/values"] = np.array([s.values for s in solves])
    out["cold/iterations"] = np.array([s.iterations for s in solves])
    out["cold/residual"] = np.array([s.residual for s in solves])

    for name in PLANTS:
        plant = pl.make_system(name)
        out[f"{name}/C_f"] = np.array(plant.C_f)
        out[f"{name}/setpoint"] = plant.setpoint
    return out


def compare(a: dict, b: dict) -> list:
    """(name, equal) for every name in either dump; a missing name differs."""
    return [(name, name in a and name in b
             and np.array_equal(a[name], b[name]))
            for name in sorted(set(a) | set(b))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare the dumps A.npz and B.npz")
    parser.add_argument("first", help="DIR to dump, or dump A to compare")
    parser.add_argument("second", help="OUT.npz to write, or dump B")
    args = parser.parse_args(argv)
    if not args.compare:
        np.savez(args.second, **dump(args.first))
        return 0
    with np.load(args.first) as a, np.load(args.second) as b:
        rows = compare(dict(a), dict(b))
    for name, equal in rows:
        print(f"{name} array_equal={equal}")
    differ = sum(not equal for _, equal in rows)
    print(f"{len(rows)} arrays compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
