"""Averaging-kernel neural operator serving as a drop-in predictor.

The network lifts each input node (a control sample, the state, or the
delay estimate, each tagged with a coordinate) to a channel field, applies
hidden layers combining a pointwise affine map with a mean-pooling kernel
term, pools, and projects per query coordinate back to a state prediction.
Forward, backward and the optimizer are plain numpy so the parameter
gradients stay analytic and checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1
X_NODE_COORD = -1.0
DELAY_NODE_COORD = -2.0


class ModelFormatError(ValueError):
    """Malformed or unsupported model file."""


@dataclass
class TrainingConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 300
    early_stop_patience: int = 40
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.epochs,
               self.early_stop_patience) <= 0:
            raise ValueError("training config fields must be positive")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass
class NeuralOperatorModel:
    """Weights plus the input layout and normalization constants."""

    n: int                   # state dimension
    m: int                   # control samples on the fixed input grid
    d_c: int                 # channel dimension
    layers: int              # hidden layer count
    params: dict             # name -> ndarray, ordered per param_names()
    norm_in_mu: np.ndarray   # (n + 2,) value-channel normalization
    norm_in_sd: np.ndarray
    norm_out_mu: np.ndarray  # (n,) output normalization
    norm_out_sd: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def input_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m)


def param_names(n: int, d_c: int, layers: int) -> list:
    names = ["lift_W1", "lift_b1", "lift_W2", "lift_b2"]
    for l in range(1, layers + 1):
        names += [f"hidden_W{l}", f"hidden_b{l}", f"hidden_V{l}"]
    names += ["proj_W1", "proj_b1", "proj_W2", "proj_b2"]
    return names


def param_shapes(n: int, d_c: int, layers: int) -> dict:
    in_dim = n + 3  # n+2 value channels plus the node coordinate
    shapes = {
        "lift_W1": (d_c, in_dim), "lift_b1": (d_c,),
        "lift_W2": (d_c, d_c), "lift_b2": (d_c,),
        "proj_W1": (d_c, d_c + 1), "proj_b1": (d_c,),
        "proj_W2": (n, d_c), "proj_b2": (n,),
    }
    for l in range(1, layers + 1):
        shapes[f"hidden_W{l}"] = (d_c, d_c)
        shapes[f"hidden_b{l}"] = (d_c,)
        shapes[f"hidden_V{l}"] = (d_c, d_c)
    return shapes


def init_model(n: int, m: int, d_c: int, layers: int, seed: int = 0,
               norm_in=None, norm_out=None) -> NeuralOperatorModel:
    """Symmetric uniform fan-in initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(n, d_c, layers).items():
        if name.endswith(("b1", "b2")) or name.startswith("hidden_b"):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    if norm_in is None:
        norm_in = (np.zeros(n + 2), np.ones(n + 2))
    if norm_out is None:
        norm_out = (np.zeros(n), np.ones(n))
    return NeuralOperatorModel(
        n=n, m=m, d_c=d_c, layers=layers, params=params,
        norm_in_mu=np.asarray(norm_in[0], dtype=float),
        norm_in_sd=np.asarray(norm_in[1], dtype=float),
        norm_out_mu=np.asarray(norm_out[0], dtype=float),
        norm_out_sd=np.asarray(norm_out[1], dtype=float),
        meta={"seed": seed})


def build_features(model: NeuralOperatorModel, X: np.ndarray, u: np.ndarray,
                   d_hat: np.ndarray) -> np.ndarray:
    """Encode (X, u, d_hat) batches as node features (B, m+2, n+3).

    Control samples occupy channel 0 at their grid coordinates; the state
    and the delay estimate ride on reserved nodes with coordinates -1, -2
    so the mean-pooling kernel sees them.
    """
    B = X.shape[0]
    n, m = model.n, model.m
    if u.shape != (B, m):
        raise ValueError(f"expected u of shape {(B, m)}, got {u.shape}")
    mu, sd = model.norm_in_mu, model.norm_in_sd
    F = np.zeros((B, m + 2, n + 3))
    F[:, :m, 0] = (u - mu[0]) / sd[0]
    F[:, :m, n + 2] = model.input_grid
    F[:, m, 1:n + 1] = (X - mu[1:n + 1]) / sd[1:n + 1]
    F[:, m, n + 2] = X_NODE_COORD
    F[:, m + 1, n + 1] = (d_hat - mu[n + 1]) / sd[n + 1]
    F[:, m + 1, n + 2] = DELAY_NODE_COORD
    return F


def _forward_cached(model: NeuralOperatorModel, F: np.ndarray,
                    queries: np.ndarray):
    """Normalized-space forward pass, returning the cache for backprop.

    Node and query axes are flattened so every contraction is one GEMM.
    """
    p = model.params
    B, P, in_dim = F.shape
    Q = len(queries)
    d_c = model.d_c

    F2 = F.reshape(B * P, in_dim)
    T1 = np.tanh(F2 @ p["lift_W1"].T + p["lift_b1"])
    H = T1 @ p["lift_W2"].T + p["lift_b2"]          # (B*P, d_c)
    hiddens = [H]
    means = []
    for l in range(1, model.layers + 1):
        M = H.reshape(B, P, d_c).mean(axis=1)
        means.append(M)
        A = H @ p[f"hidden_W{l}"].T + p[f"hidden_b{l}"]
        A = A.reshape(B, P, d_c)
        A += (M @ p[f"hidden_V{l}"].T)[:, None, :]
        H = np.tanh(A.reshape(B * P, d_c))
        hiddens.append(H)
    z = H.reshape(B, P, d_c).mean(axis=1)

    G = np.empty((B, Q, d_c + 1))
    G[:, :, :d_c] = z[:, None, :]
    G[:, :, d_c] = queries
    G2 = G.reshape(B * Q, d_c + 1)
    Tq = np.tanh(G2 @ p["proj_W1"].T + p["proj_b1"])
    Y = (Tq @ p["proj_W2"].T + p["proj_b2"]).reshape(B, Q, model.n)
    cache = {"F2": F2, "T1": T1, "hiddens": hiddens, "means": means,
             "G2": G2, "Tq": Tq, "B": B, "P": P, "Q": Q}
    return Y, cache


def _backward(model: NeuralOperatorModel, dY: np.ndarray, cache: dict) -> dict:
    p = model.params
    B, P, Q = cache["B"], cache["P"], cache["Q"]
    d_c = model.d_c
    grads = {}

    dY2 = dY.reshape(B * Q, model.n)
    Tq, G2 = cache["Tq"], cache["G2"]
    grads["proj_W2"] = dY2.T @ Tq
    grads["proj_b2"] = dY2.sum(axis=0)
    dAq = (dY2 @ p["proj_W2"]) * (1.0 - Tq * Tq)
    grads["proj_W1"] = dAq.T @ G2
    grads["proj_b1"] = dAq.sum(axis=0)
    dG = dAq @ p["proj_W1"]
    dz = dG[:, :d_c].reshape(B, Q, d_c).sum(axis=1)

    dH = np.repeat(dz / P, P, axis=0)               # (B*P, d_c)
    for l in range(model.layers, 0, -1):
        H_out = cache["hiddens"][l]
        H_in = cache["hiddens"][l - 1]
        M = cache["means"][l - 1]
        dA = dH * (1.0 - H_out * H_out)
        dA_b = dA.reshape(B, P, d_c).sum(axis=1)
        grads[f"hidden_W{l}"] = dA.T @ H_in
        grads[f"hidden_b{l}"] = dA_b.sum(axis=0)
        grads[f"hidden_V{l}"] = dA_b.T @ M
        dH = dA @ p[f"hidden_W{l}"]
        dH += np.repeat((dA_b @ p[f"hidden_V{l}"]) / P, P, axis=0)

    T1, F2 = cache["T1"], cache["F2"]
    grads["lift_W2"] = dH.T @ T1
    grads["lift_b2"] = dH.sum(axis=0)
    dA1 = (dH @ p["lift_W2"]) * (1.0 - T1 * T1)
    grads["lift_W1"] = dA1.T @ F2
    grads["lift_b1"] = dA1.sum(axis=0)
    return grads


def forward(model: NeuralOperatorModel, X, u_samples, d_hat, queries):
    """Predict the state curve at the query coordinates.

    X: (n,) or (B, n); u_samples: (m,) or (B, m); d_hat scalar or (B,).
    Returns (Q, n) for single inputs, (B, Q, n) for batches.
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    u = np.atleast_2d(np.asarray(u_samples, dtype=float))
    d = np.atleast_1d(np.asarray(d_hat, dtype=float))
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    if np.any(queries < 0.0) or np.any(queries > 1.0):
        raise ValueError("queries must lie in [0, 1]")
    F = build_features(model, X, u, d)
    Yn, _ = _forward_cached(model, F, queries)
    Y = Yn * model.norm_out_sd + model.norm_out_mu
    return Y[0] if single else Y


def training_loss_and_grads(model: NeuralOperatorModel, X, u, d_hat,
                            targets_norm, queries, boundary_weight=0.1):
    """Normalized MSE plus the s=0 boundary-consistency penalty, with grads.

    ``queries[0]`` must be 0 so the boundary output is part of the pass.
    """
    if queries[0] != 0.0:
        raise ValueError("training queries must start at s = 0")
    F = build_features(model, X, u, d_hat)
    Y, cache = _forward_cached(model, F, queries)
    B, Q, n = Y.shape
    resid = Y - targets_norm
    loss = float(np.mean(resid * resid))
    dY = 2.0 * resid / resid.size

    X_norm = (X - model.norm_out_mu) / model.norm_out_sd
    bresid = Y[:, 0, :] - X_norm
    loss += boundary_weight * float(np.mean(bresid * bresid))
    dY[:, 0, :] += boundary_weight * 2.0 * bresid / bresid.size

    grads = _backward(model, dY, cache)
    return loss, grads


class AdamState:
    """Per-parameter first/second moment accumulators, bias-corrected."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            params[k] -= lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2)
                                                  + self.eps)


def _split_indices(count: int, validation_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(count)
    n_hold = max(1, int(round(validation_fraction * count)))
    test = idx[:n_hold]
    val = idx[n_hold:2 * n_hold]
    train = idx[2 * n_hold:]
    if len(train) == 0:
        raise ValueError("dataset too small for the requested splits")
    return train, val, test


def _normalization(X, u, d_hat, targets):
    n = X.shape[1]
    mu = np.empty(n + 2)
    sd = np.empty(n + 2)
    mu[0], sd[0] = u.mean(), u.std()
    mu[1:n + 1], sd[1:n + 1] = X.mean(axis=0), X.std(axis=0)
    mu[n + 1], sd[n + 1] = d_hat.mean(), d_hat.std()
    out_mu = targets.reshape(-1, n).mean(axis=0)
    out_sd = targets.reshape(-1, n).std(axis=0)
    sd[sd < 1e-12] = 1.0
    out_sd[out_sd < 1e-12] = 1.0
    return (mu, sd), (out_mu, out_sd)


def sup_error(model: NeuralOperatorModel, X, u, d_hat, targets, queries,
              batch: int = 256) -> float:
    """Largest absolute prediction error over a sample set (raw units)."""
    worst = 0.0
    for i in range(0, len(X), batch):
        pred = forward(model, X[i:i + batch], u[i:i + batch],
                       d_hat[i:i + batch], queries)
        worst = max(worst, float(np.abs(pred - targets[i:i + batch]).max()))
    return worst


def train(dataset, cfg: TrainingConfig, d_c: int = 64, layers: int = 2,
          boundary_weight: float = 0.1):
    """Fit the operator to a predictor dataset; returns (model, report).

    Early-stops on validation loss, restores the best-validation weights
    and reports the held-out sup-norm error as the empirical approximation
    accuracy.
    """
    X, u, d_hat, targets = dataset.X, dataset.u, dataset.d_hat, dataset.targets
    if len(X) == 0:
        raise ValueError("empty dataset")
    queries = dataset.output_grid
    n, m = dataset.n, dataset.m

    tr, va, te = _split_indices(len(X), cfg.validation_fraction, cfg.seed)
    norm_in, norm_out = _normalization(X[tr], u[tr], d_hat[tr], targets[tr])
    model = init_model(n, m, d_c, layers, seed=cfg.seed,
                       norm_in=norm_in, norm_out=norm_out)
    t_norm = (targets - norm_out[0]) / norm_out[1]

    def eval_loss(idx):
        total, count = 0.0, 0
        for i in range(0, len(idx), 512):
            sel = idx[i:i + 512]
            loss, _ = training_loss_and_grads(
                model, X[sel], u[sel], d_hat[sel], t_norm[sel], queries,
                boundary_weight)
            total += loss * len(sel)
            count += len(sel)
        return total / count

    rng = np.random.default_rng(cfg.seed + 1)
    adam = AdamState(model.params)
    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    stall = 0
    train_loss = np.nan
    epochs_run = 0

    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        # cosine decay to 10% of the base rate over the epoch budget
        frac = (epoch - 1) / max(1, cfg.epochs - 1)
        lr = cfg.learning_rate * (0.1 + 0.45 * (1.0 + np.cos(np.pi * frac)))
        order = rng.permutation(tr)
        total, count = 0.0, 0
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i:i + cfg.batch_size]
            loss, grads = training_loss_and_grads(
                model, X[sel], u[sel], d_hat[sel], t_norm[sel], queries,
                boundary_weight)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch} "
                    f"(batch starting {i}); aborting")
            adam.step(model.params, grads, lr)
            total += loss * len(sel)
            count += len(sel)
        train_loss = total / count

        val_loss = eval_loss(va)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
            stall = 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break

    model.params = best_params
    test_err = sup_error(model, X[te], u[te], d_hat[te], targets[te], queries)
    report = {"train_err": float(train_loss), "val_err": float(best_val),
              "test_err": float(test_err), "epochs_run": epochs_run,
              "seed": cfg.seed}
    model.meta.update(report)
    return model, report


# ---------------------------------------------------------------------------
# serialization: versioned structured-text container

def _format_array(a: np.ndarray) -> list:
    a2 = np.atleast_2d(a)
    return [" ".join(repr(float(v)) for v in row) for row in a2]


def save_model(model: NeuralOperatorModel, path) -> None:
    lines = [f"predictor-operator-model format_version={FORMAT_VERSION}",
             f"n={model.n} m={model.m} d_c={model.d_c} "
             f"layers={model.layers}"]
    arrays = {"norm_in_mu": model.norm_in_mu, "norm_in_sd": model.norm_in_sd,
              "norm_out_mu": model.norm_out_mu,
              "norm_out_sd": model.norm_out_sd}
    arrays.update({k: model.params[k]
                   for k in param_names(model.n, model.d_c, model.layers)})
    for name, arr in arrays.items():
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"array {name} {shape}")
        lines.extend(_format_array(arr))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> NeuralOperatorModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("predictor-operator-model"):
        raise ModelFormatError("not a predictor-operator model file")
    try:
        version = int(lines[0].split("format_version=")[1])
    except (IndexError, ValueError) as exc:
        raise ModelFormatError("missing format_version in header") from exc
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version} (supported: {FORMAT_VERSION})")
    if len(lines) < 2:
        raise ModelFormatError("truncated file: missing layout line")
    # key=value tokens; a token without "=" reads as an empty value
    layout = dict(token.partition("=")[::2] for token in lines[1].split())
    keys = ("n", "m", "d_c", "layers")
    for key in keys:
        if not layout.get(key, "").isdecimal():
            raise ModelFormatError(f"layout key {key!r} is missing or not a "
                                   "whole number")
    n, m, d_c, layers = (int(layout[k]) for k in keys)

    expected = ["norm_in_mu", "norm_in_sd", "norm_out_mu", "norm_out_sd"]
    expected += param_names(n, d_c, layers)
    arrays = {}
    i = 2
    for name in expected:
        if i >= len(lines) or not lines[i].startswith("array "):
            raise ModelFormatError(f"truncated file: missing section {name!r}")
        parts = lines[i].split()
        if parts[1] != name:
            raise ModelFormatError(
                f"expected section {name!r}, found {parts[1]!r}")
        shape = tuple(int(s) for s in parts[2:])
        rows = shape[0] if len(shape) > 1 else 1
        block = lines[i + 1:i + 1 + rows]
        if len(block) < rows:
            raise ModelFormatError(f"truncated file: section {name!r} short")
        try:
            arr = np.array([[float(v) for v in row.split()] for row in block])
        except ValueError as exc:
            raise ModelFormatError(f"bad number in section {name!r}") from exc
        arr = arr.reshape(shape)
        want = param_shapes(n, d_c, layers).get(name)
        if want is not None and arr.shape != want:
            raise ModelFormatError(
                f"dimension mismatch in {name!r}: {arr.shape} != {want}")
        arrays[name] = arr
        i += 1 + rows
    if i >= len(lines) or lines[i] != "end":
        raise ModelFormatError("truncated file: missing end marker")

    params = {k: arrays[k] for k in param_names(n, d_c, layers)}
    return NeuralOperatorModel(
        n=n, m=m, d_c=d_c, layers=layers, params=params,
        norm_in_mu=arrays["norm_in_mu"].reshape(-1),
        norm_in_sd=arrays["norm_in_sd"].reshape(-1),
        norm_out_mu=arrays["norm_out_mu"].reshape(-1),
        norm_out_sd=arrays["norm_out_sd"].reshape(-1))
