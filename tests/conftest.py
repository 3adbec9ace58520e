import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from condreg import Dataset

# Property tests replay the same examples on every run, so the suite is
# deterministic and its run time bounded.
settings.register_profile("condreg", derandomize=True, max_examples=60, deadline=None, database=None)
settings.load_profile("condreg")


def pytest_configure(config):
    """Keep the suite out of the user's cache of parsed inputs: every CLI
    command, in process or in a subprocess, caches under a directory of
    this session's own."""
    config.condreg_cache = tempfile.mkdtemp(prefix="condreg-cache-")
    os.environ["XDG_CACHE_HOME"] = config.condreg_cache


def pytest_unconfigure(config):
    shutil.rmtree(config.condreg_cache, ignore_errors=True)


def modules_after(code, watched=("numpy",)):
    """condreg's submodules loaded, then whether each watched module is
    (numpy, by default), after ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('condreg.')),"
        f" *(m in sys.modules for m in {list(watched)!r})]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


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
