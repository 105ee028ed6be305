"""Shared fixtures; heavy artifacts (datasets, trained models) are session-scoped."""

import pytest

import predictor_lab as pl
from predictor_lab.neural_operator import TrainingConfig, train

from linear_oracle import LINEAR_A, LINEAR_B, make_oracle_linear_dataset


@pytest.fixture(scope="session")
def protein():
    return pl.make_system("protein")


@pytest.fixture(scope="session")
def chemostat():
    return pl.make_system("chemostat")


@pytest.fixture(scope="session")
def linear():
    return pl.make_system("linear", a=LINEAR_A, b_in=LINEAR_B)


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
