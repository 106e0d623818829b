"""The kernels the graph and trainer run, and what importing costs."""

import subprocess
import sys

import numpy as np
import pytest

from softalign import backend


def test_active_backend_reported():
    assert backend.active_backend() == "numpy"


@pytest.mark.parametrize("name", ["masked_softmax_rows", "masked_logsoftmax_rows"])
def test_masked_softmax_excludes_diagonal(name, rng):
    kernel = getattr(backend, name)
    z = np.ascontiguousarray(rng.standard_normal((6, 6)))
    out = kernel(z)
    assert (np.diagonal(out) == 0.0).all()
    probs = out if name == "masked_softmax_rows" else np.where(
        np.eye(6, dtype=bool), 0.0, np.exp(out))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # huge diagonal must not influence the off-diagonal normalization
    z2 = z.copy()
    np.fill_diagonal(z2, 1e6)
    np.testing.assert_allclose(out, kernel(z2), atol=1e-15)


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, softalign; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
