"""The package's CPUs: the BLAS pin at import and the one thread pool."""

import concurrent.futures
import ctypes
import hashlib
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softalign
from softalign import cpus, gradcheck, harness
from softalign.distributions import Temperature
from softalign.objectives import LossConfig
from softalign.synthgen import SynthSpec, generate
from softalign.trainer import TrainConfig

SRC = Path(__file__).resolve().parent.parent / "src"

OPENBLAS = softalign._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy bundles no OpenBLAS here")


def _blas_threads() -> int:
    getter = OPENBLAS.scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


def _python(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "PYTHONPATH": path, **env})
    assert run.returncode == 0, run.stderr
    return run.stdout


# ---------------------------------------------------------------------------
# BLAS pin
# ---------------------------------------------------------------------------

@needs_openblas
def test_import_pins_blas_to_one_thread():
    code = (
        "import ctypes\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "lib = ctypes.CDLL(str(sorted((Path(np.__file__).parent.parent / 'numpy.libs')"
        ".glob('libscipy_openblas64_*'))[0]))\n"
        "get = lib.scipy_openblas_get_num_threads64_\n"
        "before = get()\n"
        "import softalign\n"
        "print(before, get())\n"
    )
    assert _python(code, OPENBLAS_NUM_THREADS="2").split() == ["2", "1"]


@needs_openblas
@pytest.mark.parametrize("library", ["no_setter", "no_library"])
def test_missing_setter_logs_and_leaves_the_count(library, monkeypatch, caplog):
    setter = OPENBLAS.scipy_openblas_set_num_threads64_
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    # the C library has no OpenBLAS symbol
    stand_in = ctypes.CDLL(None) if library == "no_setter" else None
    monkeypatch.setattr(softalign, "_openblas", lambda: stand_in)
    setter(2)
    try:
        with caplog.at_level(logging.WARNING, logger="softalign"):
            assert softalign._pin_blas() is False
        assert _blas_threads() == 2
    finally:
        setter(1)
    assert softalign._SET_THREADS in caplog.text
    assert _blas_threads() == 1


_TRAJECTORY = (
    "import hashlib\n"
    "from softalign import synthgen, trainer\n"
    "dataset = synthgen.generate(synthgen.SynthSpec(n_samples=320, rois_per_image=2))\n"
    "state, metrics = trainer.train(dataset, trainer.TrainConfig(max_steps=5))\n"
    "digest = hashlib.sha256(repr(metrics).encode())\n"
    "for store in (state.params, state.m, state.v):\n"
    "    for name, x in store.items():\n"
    "        digest.update(name.encode() + x.tobytes())\n"
    "print(digest.hexdigest())\n"
)


@needs_openblas
def test_trajectories_do_not_depend_on_the_blas_thread_count():
    # the default ROI width (2052): the ROI head's 64 x 2052 @ 2052 x 64
    # forward takes another path on two OpenBLAS threads than on one
    one, two = (_python(_TRAJECTORY, OPENBLAS_NUM_THREADS=count) for count in ("1", "2"))
    assert one == two


# ---------------------------------------------------------------------------
# the thread pool
# ---------------------------------------------------------------------------

def _backward(n: int):
    rng = np.random.default_rng(n)
    v, t, r, a = (rng.standard_normal((n, 6)) for _ in range(4))
    return gradcheck.backward("mixed_gamma", v, t, r, a, Temperature.from_tau(0.07),
                              LossConfig(gamma=0.4))


def _bundle_bytes(result) -> bytes:
    value, bundle = result
    scalars = (np.float64(x).tobytes() for x in (value, bundle.d_log_inv_tau))
    return b"".join((*scalars, *(bundle.by_name(name).tobytes() for name in "vtra")))


def test_map_tasks_keeps_order_and_raises_the_first_error(monkeypatch):
    monkeypatch.setattr(cpus, "_usable_cpus", lambda: 3)

    def task(i):
        if i in (2, 4):
            raise ValueError(f"item {i}")
        return i * i
    assert cpus.map_tasks(lambda i: i * i, range(7)) == [i * i for i in range(7)]
    with pytest.raises(ValueError, match="item 2"):
        cpus.map_tasks(task, range(7))


def test_budget_divides_the_cpus(monkeypatch):
    monkeypatch.setattr(cpus, "_usable_cpus", lambda: 5)
    monkeypatch.setattr(cpus, "_share", 1)
    assert cpus.budget() == 5
    cpus.divide(2)
    assert cpus.budget() == 2
    cpus.divide(8)
    assert cpus.budget() == 1


def _child_backward(queue) -> None:
    queue.put((cpus._pool is None, _bundle_bytes(_backward(130))))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_starts_its_own_pool(monkeypatch):
    # the parent's pool threads are running when it forks; the child
    # forgets that pool and runs a multi-block graph on a new one
    monkeypatch.setattr(cpus, "_usable_cpus", lambda: 2)
    want = _bundle_bytes(_backward(130))
    assert cpus._pool is not None
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_backward, args=(queue,))
    child.start()
    try:
        fresh, got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert fresh and got == want


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_sweep_keeps_the_bits_and_the_thread_budget(monkeypatch):
    # the parent's pool runs before the sweep; a jobs=2 sweep at N=130
    # (three row blocks a step) gives the serial rows, no worker inherits
    # a running pool, and no more graph tasks ever run at once, over the
    # parent and both workers, than there are usable CPUs
    monkeypatch.setattr(cpus, "_usable_cpus", lambda: 2)
    dataset = generate(SynthSpec(n_samples=260, n_concepts=8, latent_dim=12,
                                 d_image=10, d_text=9, d_roi=11, d_tag=7,
                                 rois_per_image=3, seed=5))
    base = TrainConfig(max_steps=6, batch_size=130, seed=4)
    gammas = [0.0, 0.3, 0.6, 1.0]
    serial = repr(harness.gamma_sweep(dataset, base, gammas))  # repr keeps every bit

    running = multiprocessing.get_context("fork").Array("i", 2)  # now, most
    map_tasks = cpus.map_tasks

    def counted(fn):
        def run(item):
            with running.get_lock():
                running[0] += 1
                running[1] = max(running[1], running[0])
            try:
                return fn(item)
            finally:
                with running.get_lock():
                    running[0] -= 1
        return run
    monkeypatch.setattr(cpus, "map_tasks", lambda fn, items: map_tasks(counted(fn), items))

    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(cpus._pool)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)

    _backward(130)  # starts this process's pool
    assert cpus._pool is not None
    rows = harness.gamma_sweep(dataset, base, gammas, jobs=2)
    assert pools == [None]
    assert repr(rows) == serial
    assert 1 <= running[1] <= 2, running[1]


def test_ablation_suite_runs_on_the_cpu_budget(monkeypatch):
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    dataset = generate(SynthSpec(n_samples=60, n_concepts=8, latent_dim=8, d_image=6,
                                 d_text=5, d_roi=7, d_tag=4, rois_per_image=3, seed=22))
    base = TrainConfig(max_steps=4, batch_size=30, seed=3)
    results = {}
    for count in (1, 2):
        monkeypatch.setattr(cpus, "_usable_cpus", lambda: count)
        rows, states = harness.ablation_suite(dataset, base)
        digest = hashlib.sha256(repr([row.to_dict() for row in rows]).encode())
        for name, state in states.items():
            for store in (state.params, state.m, state.v):
                for key, x in store.items():
                    digest.update(f"{name} {key}".encode() + x.tobytes())
        results[count] = digest.hexdigest()
    assert started == [2]
    assert results[1] == results[2]
