"""Neural operator: algebraic contracts, training behavior, serialization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predictor_lab as pl
from predictor_lab import neural_operator as no

from linear_oracle import make_oracle_linear_dataset


def small_model(seed=0, n=2, m=9, d_c=6, layers=2):
    return no.init_model(n=n, m=m, d_c=d_c, layers=layers, seed=seed)


def random_inputs(model, count, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(count, model.n))
    u = rng.normal(size=(count, model.m))
    d = rng.uniform(0.5, 2.5, size=count)
    return X, u, d


def test_zero_weights_constant_projection_bias():
    model = small_model()
    for k in model.params:
        model.params[k][:] = 0.0
    c = np.array([1.5, -2.0])
    model.params["proj_b2"][:] = c
    X, u, d = random_inputs(model, 8)
    out = no.forward(model, X, u, d, np.linspace(0, 1, 5))
    assert np.allclose(out, c)


def test_forward_deterministic():
    model = small_model(seed=4)
    X, u, d = random_inputs(model, 4, seed=1)
    q = np.linspace(0, 1, 7)
    a = no.forward(model, X, u, d, q)
    b = no.forward(model, X, u, d, q)
    assert np.array_equal(a, b)


def test_forward_single_sample_shape():
    model = small_model()
    X, u, d = random_inputs(model, 1)
    out = no.forward(model, X[0], u[0], float(d[0]), np.linspace(0, 1, 4))
    assert out.shape == (4, model.n)


def test_forward_validates_inputs():
    model = small_model()
    X, u, d = random_inputs(model, 2)
    with pytest.raises(ValueError, match="shape"):
        no.forward(model, X, u[:, :-1], d, [0.5])
    with pytest.raises(ValueError, match="queries"):
        no.forward(model, X, u, d, [1.2])


def test_permutation_contract():
    """Permuting (value, coordinate) node pairs is a no-op; permuting values
    under fixed coordinates is not."""
    model = small_model(seed=9, m=9)
    X, u, d = random_inputs(model, 1, seed=2)
    q = np.linspace(0, 1, 5)
    base = no.forward(model, X, u, d, q)

    rng = np.random.default_rng(3)
    perm = rng.permutation(model.m)
    # permuting values only changes the function the operator sees
    shuffled = no.forward(model, X, u[:, perm], d, q)
    assert not np.allclose(base, shuffled)

    # permuting value+coordinate pairs leaves every node intact, so the
    # mean-pooled field is unchanged; emulate by permuting feature rows
    F = no.build_features(model, X, u, d)
    F_perm = F.copy()
    F_perm[:, :model.m] = F[:, perm]
    Y0, _ = no._forward_cached(model, F, q)
    Y1, _ = no._forward_cached(model, F_perm, q)
    assert np.allclose(Y0, Y1, atol=1e-13)


def reference_forward(model, F, queries):
    """The projection as one GEMM over the concatenated [z; s] rows of every
    (sample, query) pair, with the cache reference_backward reads."""
    p = model.params
    B, P, in_dim = F.shape
    Q, d_c = len(queries), model.d_c
    F2 = F.reshape(B * P, in_dim)
    T1 = np.tanh(F2 @ p["lift_W1"].T + p["lift_b1"])
    H = T1 @ p["lift_W2"].T + p["lift_b2"]
    hiddens, means = [H], []
    for l in range(1, model.layers + 1):
        M = H.reshape(B, P, d_c).mean(axis=1)
        means.append(M)
        A = (H @ p[f"hidden_W{l}"].T + p[f"hidden_b{l}"]).reshape(B, P, d_c)
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
    return Y, (F2, T1, hiddens, means, G2, Tq)


def reference_backward(model, dY, cache):
    F2, T1, hiddens, means, G2, Tq = cache
    p = model.params
    B, Q, n = dY.shape
    d_c = model.d_c
    P = F2.shape[0] // B
    grads = {}
    dY2 = dY.reshape(B * Q, n)
    grads["proj_W2"] = dY2.T @ Tq
    grads["proj_b2"] = dY2.sum(axis=0)
    dAq = (dY2 @ p["proj_W2"]) * (1.0 - Tq * Tq)
    grads["proj_W1"] = dAq.T @ G2
    grads["proj_b1"] = dAq.sum(axis=0)
    dz = (dAq @ p["proj_W1"])[:, :d_c].reshape(B, Q, d_c).sum(axis=1)
    dH = np.repeat(dz / P, P, axis=0)
    for l in range(model.layers, 0, -1):
        dA = dH * (1.0 - hiddens[l] * hiddens[l])
        dA_b = dA.reshape(B, P, d_c).sum(axis=1)
        grads[f"hidden_W{l}"] = dA.T @ hiddens[l - 1]
        grads[f"hidden_b{l}"] = dA_b.sum(axis=0)
        grads[f"hidden_V{l}"] = dA_b.T @ means[l - 1]
        dH = dA @ p[f"hidden_W{l}"]
        dH += np.repeat((dA_b @ p[f"hidden_V{l}"]) / P, P, axis=0)
    grads["lift_W2"] = dH.T @ T1
    grads["lift_b2"] = dH.sum(axis=0)
    dA1 = (dH @ p["lift_W2"]) * (1.0 - T1 * T1)
    grads["lift_W1"] = dA1.T @ F2
    grads["lift_b1"] = dA1.sum(axis=0)
    return grads


def max_rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("Q", [1, 7])
@pytest.mark.parametrize("B", [1, 5])
def test_factored_projection_matches_concatenated_reference(B, Q, layers):
    """The rank-one query term and the query-first reductions give the
    concatenated-[z; s] outputs and gradients up to rounding."""
    model = small_model(seed=B + Q, layers=layers)
    rng = np.random.default_rng(layers)
    for value in model.params.values():
        value += 0.3 * rng.normal(size=value.shape)  # nonzero biases
    X, u, d = random_inputs(model, B, seed=Q)
    q = np.linspace(0, 1, Q) if Q > 1 else np.array([0.4])
    F = no.build_features(model, X, u, d)
    Y, cache = no._forward_cached(model, F, q)
    Y_ref, ref_cache = reference_forward(model, F, q)
    assert max_rel_err(Y, Y_ref) <= 1e-12
    dY = rng.normal(size=Y.shape)
    grads = no._backward(model, dY, cache)
    ref = reference_backward(model, dY, ref_cache)
    assert grads.keys() == ref.keys()
    for name in ref:
        assert max_rel_err(grads[name], ref[name]) <= 1e-12, name


def test_batched_forward_rows_match_single_forwards():
    model = small_model(seed=6, d_c=16)
    X, u, d = random_inputs(model, 64, seed=4)
    q = np.linspace(0, 1, 21)
    batch = no.forward(model, X, u, d, q)
    for i in range(64):
        single = no.forward(model, X[i], u[i], float(d[i]), q)
        assert max_rel_err(batch[i], single) <= 1e-12


def test_forward_and_training_leave_their_inputs_unchanged():
    model = small_model(seed=8)
    rng = np.random.default_rng(5)
    model.norm_in_mu = rng.normal(size=model.n + 2)
    model.norm_out_mu = rng.normal(size=model.n)
    model.norm_out_sd = 1.0 + rng.random(model.n)
    X, u, d = random_inputs(model, 6, seed=5)
    q = np.linspace(0, 1, 5)
    targets = rng.normal(size=(6, 5, model.n))
    inputs = (X, u, d, q, targets)
    before = [a.copy() for a in inputs]
    params = {k: v.copy() for k, v in model.params.items()}
    first = no.forward(model, X, u, d, q)
    no.training_loss_and_grads(model, X, u, d, targets, q)
    second = no.forward(model, X, u, d, q)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    assert all(np.array_equal(model.params[k], v) for k, v in params.items())
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)


def test_validation_loss_is_the_training_loss_without_backprop():
    model = small_model(seed=3)
    X, u, d = random_inputs(model, 9, seed=6)
    q = np.linspace(0, 1, 5)
    targets = np.random.default_rng(6).normal(size=(9, 5, model.n))
    loss, _ = no.training_loss_and_grads(model, X, u, d, targets, q)
    Y, _ = no._forward_cached(model, no.build_features(model, X, u, d), q)
    assert no._loss(model, Y, X, targets)[0] == loss


def test_normalization_round_trip():
    rng = np.random.default_rng(11)
    mu, sd = rng.normal(size=3), 1.0 + rng.random(3)
    y = rng.normal(size=(50, 3))
    assert np.abs((y - mu) / sd * sd + mu - y).max() < 1e-12


def test_gradient_check_small_model():
    from predictor_lab.verify import suite_gradient_check
    res = suite_gradient_check(seed=12)
    assert res.passed, res.detail


def test_train_rejects_empty_dataset():
    ds = pl.PredictorDataset(X=np.zeros((0, 1)), u=np.zeros((0, 5)),
                             d_hat=np.zeros(0), targets=np.zeros((0, 5, 1)))
    with pytest.raises(ValueError, match="empty"):
        no.train(ds, no.TrainingConfig(epochs=1))


def test_train_constant_targets():
    rng = np.random.default_rng(0)
    count, m, q = 240, 9, 9
    ds = pl.PredictorDataset(
        X=np.full((count, 1), 0.7), u=rng.normal(size=(count, m)),
        d_hat=rng.uniform(0.5, 2, count),
        targets=np.full((count, q, 1), 0.7))
    cfg = no.TrainingConfig(learning_rate=3e-3, batch_size=32, epochs=40,
                            early_stop_patience=40, seed=1)
    model, report = no.train(ds, cfg, d_c=8, layers=1)
    assert report["test_err"] < 1e-3


def test_training_config_validation():
    with pytest.raises(ValueError):
        no.TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        no.TrainingConfig(validation_fraction=1.5)


def test_training_queries_must_start_at_zero():
    model = small_model()
    X, u, d = random_inputs(model, 2)
    with pytest.raises(ValueError, match="s = 0"):
        no.training_loss_and_grads(model, X, u, d,
                                   np.zeros((2, 3, model.n)),
                                   np.array([0.5, 0.7, 1.0]))


def test_linear_oracle_training_quality(linear_model, linear_oracle_dataset):
    """Well-trained operator fits the linear predictor to small sup error."""
    report = linear_model.meta["report"]
    assert report["test_err"] < 1e-2


def test_boundary_consistency_after_training(linear_model,
                                             linear_oracle_dataset):
    """The s=0 output reproduces the current state within the trained error."""
    ds = linear_oracle_dataset
    eps = max(linear_model.meta["report"]["test_err"], 1e-3)
    pred0 = no.forward(linear_model, ds.X[:200], ds.u[:200], ds.d_hat[:200],
                       np.array([0.0]))
    assert np.abs(pred0[:, 0, :] - ds.X[:200]).max() <= 3.0 * eps


def test_capacity_trend_on_linear_dataset():
    """Test error does not degrade (20% band) as width doubles with 4x budget."""
    ds = make_oracle_linear_dataset(500, m=21, q=21, seed=23)
    errs = []
    for d_c, epochs in ((8, 10), (16, 40), (32, 160), (64, 640)):
        cfg = no.TrainingConfig(learning_rate=3e-3, batch_size=64,
                                epochs=epochs, early_stop_patience=epochs,
                                seed=2)
        _, report = no.train(ds, cfg, d_c=d_c, layers=1)
        errs.append(report["test_err"])
    for small, big in zip(errs, errs[1:]):
        assert big <= 1.2 * small


@given(st.integers(0, 1000))
@settings(max_examples=5, deadline=None)
def test_save_load_round_trip_exact(tmp_path_factory, seed):
    model = small_model(seed=seed, m=7, d_c=5, layers=1)
    rng = np.random.default_rng(seed)
    model.norm_in_mu = rng.normal(size=model.n + 2)
    model.norm_in_sd = 1.0 + rng.random(model.n + 2)
    model.norm_out_mu = rng.normal(size=model.n)
    model.norm_out_sd = 1.0 + rng.random(model.n)
    path = tmp_path_factory.mktemp("models") / f"m{seed}.no"
    no.save_model(model, path)
    loaded = no.load_model(path)
    X, u, d = random_inputs(model, 20, seed=seed)
    q = np.linspace(0, 1, 6)
    assert np.array_equal(no.forward(model, X, u, d, q),
                          no.forward(loaded, X, u, d, q))


def test_load_accepts_v1_header_with_dropped_fields(tmp_path):
    """Files written before the activation/includes_delay fields were dropped
    still load, and the ignored fields do not change the forward pass."""
    model = small_model()
    path = tmp_path / "m.no"
    no.save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "n=2 m=9 d_c=6 layers=2"
    lines[1] += " activation=tanh includes_delay=1"
    old = tmp_path / "old.no"
    old.write_text("\n".join(lines) + "\n")
    loaded = no.load_model(old)
    X, u, d = random_inputs(model, 5)
    q = np.linspace(0, 1, 6)
    assert np.array_equal(no.forward(model, X, u, d, q),
                          no.forward(loaded, X, u, d, q))


def test_load_rejects_truncated_file(tmp_path):
    model = small_model()
    path = tmp_path / "m.no"
    no.save_model(model, path)
    lines = path.read_text().splitlines()
    truncated = tmp_path / "trunc.no"
    truncated.write_text("\n".join(lines[: len(lines) // 2]))
    with pytest.raises(no.ModelFormatError, match="missing section|short"):
        no.load_model(truncated)


@pytest.mark.parametrize("name, size", [("norm_in_mu", 4), ("norm_out_sd", 2)])
def test_load_rejects_normalization_of_the_wrong_length(name, size, tmp_path):
    # n=2 saves n + 2 input and n output entries; a section cut by one entry,
    # header included, must not load and leave forward to broadcast the rest
    path = tmp_path / "m.no"
    no.save_model(small_model(n=2), path)
    lines = path.read_text().splitlines()
    at = lines.index(f"array {name} {size}")
    lines[at:at + 2] = [f"array {name} {size - 1}",
                        " ".join(lines[at + 1].split()[1:])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(no.ModelFormatError, match=re.escape(
            f"dimension mismatch in {name!r}: ({size - 1},) != ({size},)")):
        no.load_model(path)


def test_load_rejects_bumped_version(tmp_path):
    model = small_model()
    path = tmp_path / "m.no"
    no.save_model(model, path)
    text = path.read_text().replace("format_version=1", "format_version=2", 1)
    bumped = tmp_path / "v2.no"
    bumped.write_text(text)
    with pytest.raises(no.ModelFormatError, match="unsupported"):
        no.load_model(bumped)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.no"
    path.write_text("not a model\n1 2 3\n")
    with pytest.raises(no.ModelFormatError):
        no.load_model(path)
