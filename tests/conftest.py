import numpy as np
import pytest
from hypothesis import settings

from condreg import Dataset

# Property tests replay the same examples on every run, so the suite is
# deterministic and its run time bounded.
settings.register_profile("condreg", derandomize=True, max_examples=60, deadline=None, database=None)
settings.load_profile("condreg")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_dataset(rng, n, k, response="Y", coefs=None, noise=1.0):
    """Random full-rank dataset with a linear response plus noise."""
    names = [f"x{i + 1}" for i in range(k)]
    base = rng.normal(size=(n, k))
    # introduce some correlation structure between predictors
    mix = np.eye(k) + 0.3 * rng.normal(size=(k, k))
    data = base @ mix
    if coefs is None:
        coefs = rng.normal(size=k) * 2.0
    y = 1.5 + data @ coefs + noise * rng.normal(size=n)
    columns = [(response, y)]
    columns += [(name, data[:, i]) for i, name in enumerate(names)]
    return Dataset(columns)


@pytest.fixture
def coded_cells():
    """Four-cell two-level design with the published cell means."""
    return Dataset(
        {
            "SDH": [737.1, 639.9, 658.3, 736.7],
            "Pb": [-1.0, 1.0, -1.0, 1.0],
            "Cd": [-1.0, -1.0, 1.0, 1.0],
        }
    )
