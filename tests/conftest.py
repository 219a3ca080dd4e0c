import numpy as np
import pytest

from treetrace import harness
from treetrace.harness import fnv1a64


@pytest.fixture
def no_trials(monkeypatch):
    def trial(*args):
        raise AssertionError("a trial ran for a spec that should have been rejected")

    monkeypatch.setattr(harness, "run_trial", trial)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(fnv1a64("tests:0")))


def make_rng(tag: str):
    return np.random.Generator(np.random.PCG64(fnv1a64(f"tests:{tag}")))
