import numpy as np
import pytest

from rantwin import anomaly, mlp, ran_sim

DATASET_SEED = 7
SPLIT_SEED = 13
TRAIN_SEED = 21


@pytest.fixture(scope="session")
def default_dataset():
    """The default 2505-sample dataset, generated once per session."""
    return anomaly.generate_dataset(
        ran_sim.SimConfig(),
        2505,
        (0.25, 0.25, 0.25, 0.25),
        anomaly.default_fault_specs(),
        seed=DATASET_SEED,
    )


def standardized_arrays(samples, stats):
    return anomaly.standardize(samples.features, stats), samples.label


@pytest.fixture(scope="session")
def pipeline(default_dataset):
    """Split/standardize/train once; shared by evaluation-heavy tests."""
    train_set, test_set = anomaly.split_dataset(default_dataset, 0.8, seed=SPLIT_SEED)
    stats = anomaly.FeatureStats.from_samples(train_set)
    x_train, y_train = standardized_arrays(train_set, stats)
    x_test, y_test = standardized_arrays(test_set, stats)
    model = mlp.init_model([16, 16], seed=TRAIN_SEED)
    model, report = mlp.train(
        model,
        list(zip(x_train, y_train)),
        list(zip(x_test, y_test)),
        mlp.TrainConfig(seed=TRAIN_SEED),
    )
    return {
        "samples": default_dataset,
        "train": train_set,
        "test": test_set,
        "stats": stats,
        "x_test": x_test,
        "y_test": y_test,
        "model": model,
        "report": report,
    }

