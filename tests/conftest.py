import hashlib
import os
from types import SimpleNamespace

import numpy as np
import pytest

from softalign import synthgen
from softalign.synthgen import SynthSpec, generate
from softalign.trainer import TrainConfig, train


@pytest.fixture(scope="session")
def small_dataset():
    """Small synthetic dataset shared by trainer/harness/CLI tests."""
    return generate(SynthSpec(n_samples=200, d_roi=48, latent_dim=24, seed=11))


@pytest.fixture(scope="session")
def small_config():
    return TrainConfig(epochs=4, batch_size=25, seed=7)


@pytest.fixture(scope="session")
def small_state(small_dataset, small_config):
    state, metrics = train(small_dataset, small_config)
    return state, metrics


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _same_bits(a, b) -> bool:
    """Equal dtypes, shapes and values, zeros of equal sign and NaNs in the
    same places: the bits that matter, without the padding bytes of an
    extended-precision ``longdouble``."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.fixture
def same_bits():
    return _same_bits


@pytest.fixture
def sha256_runs(monkeypatch):
    """The sha256 runs inside ``synthgen``, one entry each.

    Only this process may hash: a run in a forked worker raises, so a
    sweep whose workers hash the dataset fails.
    """
    runs, parent, sha256 = [], os.getpid(), hashlib.sha256

    def counting(*args):
        if os.getpid() != parent:
            raise AssertionError("a worker process hashed the dataset")
        runs.append(args)
        return sha256(*args)

    monkeypatch.setattr(synthgen, "hashlib", SimpleNamespace(sha256=counting))
    return runs
