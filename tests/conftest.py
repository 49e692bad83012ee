import os
from pathlib import Path

import numpy as np
import pytest

import ezmerton
from ezmerton import Market, Preferences
from ezmerton.closed_form import candidate_policy


@pytest.fixture(scope="session")
def prefs():
    # Reference preferences: theta = 2/3, rho = -1/2.
    return Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)


@pytest.fixture(scope="session")
def market():
    # Reference market: sharpe = 0.25.
    return Market(r=0.02, mu=0.07, sigma=0.2)


@pytest.fixture(scope="session")
def policy(prefs, market):
    return candidate_policy(prefs, market)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for child interpreters that import this ezmerton."""
    src = str(Path(ezmerton.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
