"""The kernels the graph and trainer run, and what importing costs."""

import subprocess
import sys

import numpy as np
import pytest

from softalign import backend, gradcheck
from softalign.distributions import Temperature
from softalign.objectives import LossConfig


def test_active_backend_reported():
    assert backend.active_backend() == "numpy"


def softmax_rows(z):
    """Row softmax by its two-pass formula: the reference the fused
    kernel's softmax is held to, bit for bit."""
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=-1, keepdims=True)


def logsoftmax_rows(z):
    """Row log-softmax by its two-pass formula: the reference the fused
    kernel's log-softmax is held to, bit for bit."""
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def kl_term_rows(a, log_a, log_b):
    """``sum_j a_ij (log a_ij - log b_ij)``: the reference each side of the
    graph's JS rows is held to, bit for bit; entries with ``a_ij == 0``
    contribute 0."""
    return (a * (log_a - log_b)).sum(axis=-1)


def _softmax(z):
    """The library's row softmax: the fused kernel's first array."""
    return backend.softmax_logsoftmax_rows(z)[0]


def _offdiag(kernel):
    """``kernel`` on logits whose diagonal is -inf, as the disentangled
    direction of the graph runs it."""
    def run(z):
        z = z.copy()
        backend.fill_diagonal(z, -np.inf)
        return kernel(z)
    return run


# name -> (kernel, number of inputs); the masked cases are the plain
# softmax kernels on -inf-diagonal logits, and the log-softmax and KL-row
# cases are the references above
ROW_KERNELS = {
    "softmax_rows": (_softmax, 1),
    "logsoftmax_rows": (logsoftmax_rows, 1),
    "masked_softmax_rows": (_offdiag(_softmax), 1),
    "masked_logsoftmax_rows": (_offdiag(logsoftmax_rows), 1),
    "softmax_vjp_rows": (backend.softmax_vjp_rows, 2),
    "kl_term_rows": (kl_term_rows, 3),
}


def _probs(name, out):
    return np.exp(out) if name == "masked_logsoftmax_rows" else out


@pytest.mark.parametrize("name", ["masked_softmax_rows", "masked_logsoftmax_rows"])
def test_masked_softmax_excludes_diagonal(name, rng):
    kernel, _ = ROW_KERNELS[name]
    z = np.ascontiguousarray(rng.standard_normal((6, 6)))
    out = kernel(z)
    probs = _probs(name, out)
    assert (np.diagonal(probs) == 0.0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # huge diagonal must not influence the off-diagonal normalization
    z2 = z.copy()
    np.fill_diagonal(z2, 1e6)
    assert np.array_equal(out, kernel(z2))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
def test_row_kernel_on_stack_matches_each_slice(name, dtype, rng):
    kernel, n_args = ROW_KERNELS[name]
    args = [rng.standard_normal((7, 5, 5)).astype(dtype) for _ in range(n_args)]
    if name == "kl_term_rows":
        args[0] = _softmax(args[0])
    stacked = kernel(*args)
    for b in range(7):
        one = kernel(*(x[b] for x in args))
        assert stacked[b].dtype == one.dtype == dtype
        assert np.array_equal(stacked[b], one)
    if name.startswith("masked"):
        diagonal = np.diagonal(_probs(name, stacked), axis1=-2, axis2=-1)
        assert (diagonal == 0.0).all()


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6)])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_fused_kernel_equals_the_single_kernels(dtype, shape, masked, rng,
                                               same_bits):
    z = (8.0 * rng.standard_normal(shape)).astype(dtype)
    if masked:
        backend.fill_diagonal(z, -np.inf)
    p, ln_p = backend.softmax_logsoftmax_rows(z)
    assert same_bits(p, softmax_rows(z))
    assert same_bits(ln_p, logsoftmax_rows(z))
    # a block of rows gives the bits of the same rows of the whole matrix
    p_rows, ln_rows = backend.softmax_logsoftmax_rows(z[..., 2:5, :])
    assert same_bits(p_rows, p[..., 2:5, :])
    assert same_bits(ln_rows, ln_p[..., 2:5, :])


@pytest.mark.parametrize("disentangled", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_js_rows_equal_the_kl_row_formula(dtype, disentangled, rng, same_bits):
    # JS takes each side's KL to the mixture m from the one log-ratio it
    # also scales into that side's gradient; its rows keep the KL rows' bits
    n = 6
    pred, guid = (4.0 * rng.standard_normal((2, n, n))).astype(dtype)
    cfg = LossConfig(beta=0.3, divergence="js")
    graph = gradcheck._Graph(*np.ones((4, n, 1)), Temperature(0.0), cfg,
                             want_grad=True, dtype=dtype)
    k_pred, k_guid = graph.key("v", "t", False), graph.key("r", "a", True)
    graph._z[k_pred], graph._z[k_guid] = pred, guid
    block = gradcheck._Block(graph, 0, n)
    rows = gradcheck._soft_direction(block, k_pred, k_guid, 1.0, disentangled)
    p, ln_p = block.rows(k_pred, offdiag=disentangled)
    t, ln_t, _ = gradcheck._targets(block, k_guid, disentangled)
    m = t + p
    m *= 0.5
    if disentangled:  # the graph's log 1 = +0 on the diagonal
        backend.fill_diagonal(m, 1.0)
    ln_m = np.log(m)
    assert rows.dtype == dtype
    assert same_bits(rows, 0.5 * (kl_term_rows(t, ln_t, ln_m)
                                  + kl_term_rows(p, ln_p, ln_m)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_softmax_vjp_into_its_input(dtype, rng, same_bits):
    p = _softmax(rng.standard_normal((3, 5, 5)).astype(dtype))
    g = rng.standard_normal((3, 5, 5)).astype(dtype)
    expected = backend.softmax_vjp_rows(p, g)
    assert backend.softmax_vjp_rows(p, g, out=g) is g
    assert same_bits(g, expected)


@pytest.mark.parametrize("value", [0.0, -np.inf, np.arange(4.0)])
def test_fill_diagonal_matches_numpy(value, rng):
    x = rng.standard_normal((4, 4))
    expected = x.copy()
    np.fill_diagonal(expected, value)
    backend.fill_diagonal(x, value)
    assert np.array_equal(x, expected)


@pytest.mark.parametrize("start, stop", [(0, 1), (0, 3), (2, 5), (4, 5), (0, 5)])
def test_fill_diagonal_on_a_block_of_rows(start, stop, rng):
    full = rng.standard_normal((2, 5, 5))
    value = np.arange(stop - start) + 10.0
    expected = full.copy()
    for b in range(2):
        np.fill_diagonal(expected[b], np.r_[full[b].diagonal()[:start], value,
                                            full[b].diagonal()[stop:]])
    block = full[:, start:stop].copy()
    backend.fill_diagonal(block, value, start)
    assert np.array_equal(block, expected[:, start:stop])


def test_fill_diagonal_rejects_rows_past_the_matrix():
    with pytest.raises(ValueError):
        backend.fill_diagonal(np.ones((3, 5)), 0.0, 3)


def test_fill_diagonal_rejects_a_view_it_cannot_write():
    with pytest.raises(ValueError):
        backend.fill_diagonal(np.ones((4, 4)).T, 0.0)


def _fresh_import(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # every module: the package namespace itself imports none of them
    assert _fresh_import(
        "import sys; import softalign.cli; print('scipy' in sys.modules)"
    ) == "False"


def _loaded_submodules(statement: str) -> set:
    return set(_fresh_import(
        f"import sys; {statement}; "
        "print(' '.join(m for m in sys.modules if m.startswith('softalign.')))"
    ).split())


def test_package_import_loads_no_submodule():
    assert _loaded_submodules("import softalign") == set()


def test_module_import_loads_only_its_own_imports():
    loaded = _loaded_submodules("import softalign.gradcheck")
    assert "softalign.gradcheck" in loaded
    unrelated = {f"softalign.{m}"
                 for m in ("harness", "trainer", "synthgen", "container", "cli")}
    assert not loaded & unrelated, sorted(loaded & unrelated)
