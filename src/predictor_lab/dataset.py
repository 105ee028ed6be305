"""Predictor training datasets harvested from closed-loop numeric runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .history import delayed_input_sampler
from .predictor import PredictorError, PredictorGrid, solve_fixed_point
from .simulation import SimulationConfig, run
from .systems import make_system

DATASET_MAGIC = "predictor-dataset"
DATASET_VERSION = 1
TARGET_MAX_ITER = 1000      # Picard iterations of one cold target solve
MAX_SKIP_FRACTION = 0.2     # share of source runs that may diverge
# drawn per source run or fixed by the harvest, so not part of a config hash
PER_RUN_FIELDS = ("x0", "d_true", "d_hat0", "predictor", "model_path")


class DatasetFormatError(ValueError):
    """Malformed dataset container."""


@dataclass
class SampleRanges:
    """Uniform sampling boxes for the source simulations."""

    x0_lo: tuple
    x0_hi: tuple
    d_true: tuple       # (lo, hi)
    d_hat0: tuple       # (lo, hi)

    def __post_init__(self):
        # a shorter bound would broadcast against the longer one
        if len(self.x0_lo) != len(self.x0_hi):
            raise ValueError(f"x0_lo={self.x0_lo!r} and x0_hi={self.x0_hi!r} "
                             "differ in length")
        if not all(-np.inf < lo <= hi < np.inf
                   for lo, hi in zip(self.x0_lo, self.x0_hi)):
            raise ValueError(f"x0_lo={self.x0_lo!r} and x0_hi={self.x0_hi!r} "
                             "need finite lo <= hi")
        for name in ("d_true", "d_hat0"):
            lo, hi = getattr(self, name)
            if not -np.inf < lo <= hi < np.inf:
                raise ValueError(f"{name}={(lo, hi)!r} needs finite lo <= hi")


@dataclass
class PredictorDataset:
    X: np.ndarray        # (S, n)
    u: np.ndarray        # (S, m) control profile on the input grid
    d_hat: np.ndarray    # (S,)
    targets: np.ndarray  # (S, Q, n) converged predictor curves
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def q(self) -> int:
        return self.targets.shape[1]

    def __len__(self) -> int:
        return len(self.X)

    @property
    def input_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m)

    @property
    def output_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.q)


def _config_hash(cfg: SimulationConfig, ranges: SampleRanges, m: int,
                 q: int, stride_s: float) -> str:
    settings = {k: v for k, v in vars(cfg).items()
                if k not in PER_RUN_FIELDS}
    blob = json.dumps({"cfg": settings, "ranges": vars(ranges),
                       "m": m, "q": q, "stride": stride_s},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def solve_target(sys, X, u_profile, d_hat, q, tol=1e-9):
    """Cold numeric solve from an m-grid input profile; the NO's ground truth."""
    m_grid = np.linspace(0.0, 1.0, len(u_profile))
    sampler = lambda x: np.interp(x, m_grid, u_profile)
    prof = solve_fixed_point(sys, X, sampler, d_hat, PredictorGrid(q), tol=tol,
                             max_iter=TARGET_MAX_ITER)
    return prof.values, prof.residual


def _source_run(args) -> dict:
    """One seeded closed-loop run, harvesting tuples at stride intervals."""
    (cfg, x0, d_true, d_hat0, m, q, stride_steps, tol) = args
    sys = make_system(cfg.system, a=cfg.linear_a, b_in=cfg.linear_b)
    cfg = replace(cfg, x0=tuple(x0), d_true=float(d_true),
                  d_hat0=float(d_hat0), predictor="numeric_fixed_point")
    m_grid = np.linspace(0.0, 1.0, m)
    rows = {"X": [], "u": [], "d_hat": [], "targets": [], "residuals": []}

    skipped_samples = 0

    def harvest(k, t, X, hist, d_hat, profile):
        nonlocal skipped_samples
        if k == 0 or k % stride_steps:
            return
        delay = cfg.predictor_delay(d_hat)
        u_m = delayed_input_sampler(hist, t, delay)(m_grid)
        try:
            values, residual = solve_target(sys, X, u_m, d_hat, q, tol=tol)
        except PredictorError:
            skipped_samples += 1
            return
        rows["X"].append(X.copy())
        rows["u"].append(u_m)
        rows["d_hat"].append(d_hat)
        rows["targets"].append(values)
        rows["residuals"].append(residual)

    try:
        trace = run(cfg, system=sys, on_step=harvest)
        ok = not trace.diverged
    except PredictorError:
        ok = False
    return {"ok": ok, "skipped_samples": skipped_samples,
            "X": np.array(rows["X"]) if rows["X"] else np.zeros((0, sys.state_dim)),
            "u": np.array(rows["u"]) if rows["u"] else np.zeros((0, m)),
            "d_hat": np.array(rows["d_hat"]),
            "targets": (np.array(rows["targets"]) if rows["targets"]
                        else np.zeros((0, q, sys.state_dim))),
            "max_residual": max(rows["residuals"], default=0.0)}


def generate_dataset(base_cfg: SimulationConfig, n_samples: int,
                     ranges: SampleRanges, seed: int = 0, m: int = 41,
                     q: int = None, stride_s: float = 0.1,
                     target_tol: float = 1e-9,
                     jobs: int = 1) -> PredictorDataset:
    """Harvest (X, u, d_hat) -> predictor-curve tuples from closed-loop runs.

    Source runs sample initial state, true delay and initial estimate from
    ``ranges``; divergent runs are skipped and counted.  The stride is
    rounded to whole steps of dt, and the provenance records the stride
    harvested at.  The result is shuffled deterministically by ``seed``.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if jobs < 1:
        raise ValueError(f"jobs={jobs!r} must be at least 1")
    if stride_s <= 0.0 or base_cfg.dt <= 0.0:
        raise ValueError("harvest stride and dt must be positive")
    stride_steps = max(1, int(round(stride_s / base_cfg.dt)))
    # harvest points of one source run: steps k = stride_steps, 2 stride_steps,
    # ... below round(t_final / dt)
    per_run = (int(round(base_cfg.t_final / base_cfg.dt)) - 1) // stride_steps
    if per_run < 1:
        raise ValueError(
            f"a source run of t_final={base_cfg.t_final!r} at "
            f"dt={base_cfg.dt!r} holds no harvest point at stride={stride_s!r}")
    if q is None:
        q = m
    rng = np.random.default_rng(seed)

    chunks = []
    total = 0
    runs_done = 0
    skipped = 0
    max_residual = 0.0
    while total < n_samples:
        need = n_samples - total
        wave = max(1, int(np.ceil(need / per_run)))
        args = []
        for _ in range(wave):
            x0 = rng.uniform(ranges.x0_lo, ranges.x0_hi)
            d_true = rng.uniform(*ranges.d_true)
            d_hat0 = rng.uniform(*ranges.d_hat0)
            args.append((base_cfg, x0, d_true, d_hat0, m, q, stride_steps,
                         target_tol))
        if jobs > 1:
            # lazy, so that a package import never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_source_run, args))
        else:
            results = [_source_run(a) for a in args]
        for res in results:
            runs_done += 1
            if not res["ok"]:
                skipped += 1
            else:
                chunks.append(res)
                total += len(res["X"])
                max_residual = max(max_residual, res["max_residual"])
            if runs_done >= 5 and skipped > MAX_SKIP_FRACTION * runs_done:
                raise RuntimeError(
                    f"{skipped}/{runs_done} source runs diverged "
                    f"(> {MAX_SKIP_FRACTION:.0%} skip budget)")

    X = np.concatenate([c["X"] for c in chunks])
    u = np.concatenate([c["u"] for c in chunks])
    d_hat = np.concatenate([c["d_hat"] for c in chunks])
    targets = np.concatenate([c["targets"] for c in chunks])

    order = np.random.default_rng(seed).permutation(len(X))[:n_samples]
    skipped_samples = sum(c["skipped_samples"] for c in chunks)
    harvested_stride = stride_steps * base_cfg.dt
    prov = {"system": base_cfg.system, "law": base_cfg.law,
            "dx": 1.0 / (q - 1), "dt": base_cfg.dt, "seed": seed,
            "stride_s": harvested_stride, "target_tol": target_tol,
            "max_residual": float(max_residual),
            "runs": runs_done, "skipped_runs": skipped,
            "skipped_samples": skipped_samples,
            "config_hash": _config_hash(base_cfg, ranges, m, q,
                                        harvested_stride)}
    return PredictorDataset(X=X[order], u=u[order], d_hat=d_hat[order],
                            targets=targets[order], provenance=prov)


def save_dataset(ds: PredictorDataset, path) -> None:
    header = {"n": ds.n, "m": ds.m, "q": ds.q, "count": len(ds),
              "provenance": ds.provenance}
    payload = np.concatenate([
        ds.X.reshape(-1), ds.u.reshape(-1), ds.d_hat.reshape(-1),
        ds.targets.reshape(-1)]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(f"{DATASET_MAGIC} format_version={DATASET_VERSION}\n".encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(payload.tobytes())


def load_dataset(path) -> PredictorDataset:
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace").strip()
        if not magic.startswith(DATASET_MAGIC):
            raise DatasetFormatError(f"not a {DATASET_MAGIC} file")
        try:
            version = int(magic.split("format_version=")[1])
        except (IndexError, ValueError) as exc:
            raise DatasetFormatError("missing format_version") from exc
        if version != DATASET_VERSION:
            raise DatasetFormatError(
                f"unsupported format_version {version} "
                f"(supported: {DATASET_VERSION})")
        try:
            header = json.loads(fh.readline().decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetFormatError("corrupt header") from exc
        raw = fh.read()

    keys = ("n", "m", "q", "count")
    if not isinstance(header, dict):
        raise DatasetFormatError("header is not a JSON object")
    for key in keys:
        if not isinstance(header.get(key), int):
            raise DatasetFormatError(
                f"header key {key!r} is missing or not an integer")
    n, m, q, count = (header[k] for k in keys)
    expected = count * (n + m + 1 + q * n)
    got = len(raw) // 8
    if count > 0 and got == 0:
        raise DatasetFormatError("header-only file: empty payload")
    if got != expected or len(raw) % 8:
        raise DatasetFormatError(
            f"payload length mismatch: expected {expected} float64 values, "
            f"got {len(raw) / 8:g}")
    flat = np.frombuffer(raw, dtype="<f8")
    ofs = 0

    def take(shape):
        nonlocal ofs
        size = int(np.prod(shape))
        out = flat[ofs:ofs + size].reshape(shape).copy()
        ofs += size
        return out

    return PredictorDataset(
        X=take((count, n)), u=take((count, m)), d_hat=take((count,)),
        targets=take((count, q, n)), provenance=header.get("provenance", {}))
