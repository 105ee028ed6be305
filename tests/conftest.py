"""Shared fixtures; heavy artifacts (datasets, trained models) are session-scoped."""

import numpy as np
import pytest

import predictor_lab as pl
from predictor_lab.neural_operator import TrainingConfig, train
from predictor_lab.verify import linear_closed_form, random_profile

LINEAR_A = 0.7
LINEAR_B = 1.3


@pytest.fixture(scope="session")
def protein():
    return pl.make_system("protein")


@pytest.fixture(scope="session")
def chemostat():
    return pl.make_system("chemostat")


@pytest.fixture(scope="session")
def linear():
    return pl.make_system("linear", a=LINEAR_A, b_in=LINEAR_B)


def make_oracle_linear_dataset(n_samples, m=21, q=21, seed=0,
                               a=LINEAR_A, b_in=LINEAR_B):
    """Linear-system dataset with closed-form targets (independent oracle)."""
    rng = np.random.default_rng(seed)
    grid = pl.PredictorGrid(q)
    m_grid = np.linspace(0.0, 1.0, m)
    X = rng.uniform(-2.0, 2.0, size=(n_samples, 1))
    d = rng.uniform(0.5, 2.0, size=n_samples)
    u = np.empty((n_samples, m))
    targets = np.empty((n_samples, q, 1))
    for i in range(n_samples):
        prof = random_profile(rng, 2.0)
        u[i] = prof(m_grid)
        u_interp = lambda x: np.interp(x, m_grid, u[i])
        targets[i, :, 0] = linear_closed_form(a, b_in, X[i, 0], u_interp,
                                              d[i], grid)
    ds = pl.PredictorDataset(X=X, u=u, d_hat=d, targets=targets,
                             provenance={"system": "linear-oracle",
                                         "seed": seed})
    return ds


@pytest.fixture(scope="session")
def linear_oracle_dataset():
    return make_oracle_linear_dataset(2000, m=41, q=41, seed=11)


@pytest.fixture(scope="session")
def linear_model(linear_oracle_dataset):
    """Well-trained operator on the linear oracle dataset."""
    cfg = TrainingConfig(learning_rate=2e-3, batch_size=64, epochs=350,
                         early_stop_patience=60, seed=5)
    model, report = train(linear_oracle_dataset, cfg, d_c=64, layers=2)
    model.meta["report"] = report
    return model
