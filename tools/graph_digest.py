"""Digest the loss graph and the paths around it, to hold a tree to its bits.

Its output is committed as ``tools/graph_digest.txt``, and
``tests/test_graph_digest.py`` runs it and names every line that differs
from that file. A change that moves bits on purpose regenerates the file,
and the file's diff shows which lines moved:

    PYTHONPATH=src python3 tools/graph_digest.py > tools/graph_digest.txt

The first line is a header, ``# numpy=<version> openblas=<version>
core=<name>`` (:func:`environment_line`): the bits depend on numpy and on
the BLAS kernels its bundled OpenBLAS picks for the CPU, so the test
compares lines only where the header matches the running environment.
Then come 36 lines: one per selector, one multi-block line per selector,
two N=512 lines, one multi-block oracle line per selector, one line of
error messages, then the lines of the non-graph paths. Each selector
line holds three sha256 digests:

* ``grads``: the four input gradients and both temperature gradients of
  ``gradcheck.backward_with_components``, or the exception type it raises;
* ``values``: its value and components (sorted by name), or the exception;
* ``fd``: ``gradcheck.finite_difference_grad`` (the extended-precision
  oracle) on a smaller grid.

The graph grid is divergence x stop-gradient x supervision form x split
temperature x beta {0, 0.3} x N {2, 5} for every selector, crossed with
lambda_re {0, 0.7, 1} x mu_clip {0, 0.3, 0.5} for ``total`` and lambda_re x
gamma {0, 0.4, 1} for ``mixed_gamma``: 4,224 cases. The oracle grid is
selector x stop-gradient x divergence x (lambda_re, mu_clip, gamma) in
{(0, 0, 0), (0.7, 0.3, 0.4), (1, 0.5, 1)} x (N, d) in {(3, 3), (4, 2),
(5, 3)} at beta 0.3: 324 cases. The non-square shapes make a transposed
perturbation index change the ``fd`` digest.

A ``blocks[selector]`` line digests the same ``grads`` and ``values`` at
N=130, which the graph runs in three row blocks (64, 64 and 2 rows), over
divergence x stop-gradient at the default loss config with gamma 0.4:
6 cases per selector. A ``blocks512[selector]`` line does the same for
``total`` and ``mixed_gamma`` at N=512, the loss_heavy batch, which the
graph runs in eight row blocks, with lambda_re 1 and gamma 0.5: 6 cases
per selector. Each of these lines is computed twice, with the graph
seeing 1 usable CPU (every matmul, block and product in the calling
thread) and 2 (each on the package's thread pool); the tool exits
non-zero if the two differ, and prints the line once. A
``fd_blocks[selector]`` line digests ``fd`` at N=66 and d=1, which the
graph runs in a 64-row block and a 2-row one, with stop-gradient on and
off at the default loss config with gamma 0.4: under stop-gradient the
oracle's frozen target table then holds entries for both blocks. At
d=1 every unit row is +-1, so the input columns read about 0 and the
temperature derivative, which runs against that table, carries the
content.

The ``errors`` line digests the type and the message, ``"Type: text"``,
of every exception that ``backward_with_components`` raises on the
selector grid, then of ``gradcheck.backward`` of ``soft_re`` at beta 1 on
two saturated batches (a 5-row one whose row 3 has an off-diagonal mass
of about 4 exp(-2 / 0.05), and a 130-row one whose rows 70 and 129 have
about 129 exp(-1 / 0.02)), with the batch as the prediction and as the
guidance inputs, at ``_BLOCK_ROWS`` 1, 3 and 64 and at 1 and 2 usable
CPUs: a change to a ``DegenerateRow`` message or to which row a blocked
or threaded graph names shows here, where the selector lines keep only
the exception type.

The other lines cover the data, training, eval and report paths on a
small fixed dataset spec:

* ``dataset_hash``: ``synthgen.dataset_hash`` of the generated dataset;
* ``init``: the sha256 of ``trainer.init_state``'s params, ``m`` and ``v``
  (each name, shape and bytes) for the mean and attention ROI pools, each
  with one and with split temperatures;
* ``train[mode]``: for the mean and attention ROI pools, the sha256 of the
  four ``trainer.forward_batch`` embedding batches over the full set after
  a 20-step ``train``, the sha256 of the ``harness.logit_profile`` of that
  state in both directions (the ``positions`` bytes and ``repr`` of the
  four scalars), and the 7 ``harness.retrieval_eval`` fields of that state
  (``repr`` of each float);
* ``files``: the sha256 of the bytes ``synthgen.save`` writes for the
  dataset and ``trainer.save_checkpoint`` writes for the attention-pool
  state, and ``synthgen.dataset_hash`` of the dataset that
  ``synthgen.load`` reads back;
* ``ranks``: the sha256 of ``numkit.off_diagonal_ranks`` of a symmetric
  40x40 matrix with ties, of the same matrix with one entry nudged by an
  ulp (ranked in full) and with one NaN (the argsort path), and of
  ``relevance_ranks()`` of the dataset that ``synthgen.load`` reads back;
* ``loaded[mode]``: for the mean, max, min and attention ROI pools, the
  sha256 of the embeddings (as in ``train[mode]``) after an 8-step
  ``train`` on the dataset that ``synthgen.load`` reads back, and whether
  the same run on the generated dataset gives the same digest;
* ``grad_check``: the sha256 of ``gradcheck.check_gradients(...).to_json()``
  for every selector at the default loss config, seed 0, n 4 and d 3 (the
  exception type where the config cannot evaluate a selector);
* ``reference``: the sha256 of the independent reference forward in
  ``objectives`` on unit rows: the ``clip``, ``soft``, ``soft_re`` and
  ``total`` fields of ``softclip_total``, ``mixed_guidance_loss`` at gamma
  0.4 and ``clip_loss`` (each, or the exception type it raises), over
  divergence x supervision form x lambda_re {0, 1} x split temperature x
  N {2, 3, 5, 9}: 192 cases;
* ``suite``: the sha256 of the ``harness.ablation_suite`` rows and each
  variant's trained state (params, moments and step), of the
  ``harness.gamma_sweep`` rows at jobs 1 and 2, and of the
  ``harness.sweep`` rows of ``harness.ablation_points`` over seeds 0 and 1
  at jobs 2 (``softalign ablate`` on a pool, each worker stamping the
  dataset hash), on 8-step runs;
* ``outputs``: the sha256 of every file that ``cli.main`` writes in a
  tiny run on the same spec: ``gen-data``, an 8-step ``train`` with
  ``--metrics``, ``eval``, ``ablate`` (the CSV and its JSON mirror),
  ``sweep-beta`` over betas 0 and 0.5 (both files; beta 0 is skipped
  under the default divergence, so a skipped point shows),
  ``sweep-gamma`` with ``--jobs 2`` (both files), ``grad-check --out``
  and ``logit-profile``;
* ``eval``: on the default ``SynthSpec`` (seed 0, n 2000), whose 4M
  off-diagonal pairs make the rank sort meet truncated-key collisions,
  the sha256 of the bytes of ``relevance_ranks()`` and the 7
  ``harness.retrieval_eval`` fields (``repr`` of each float) after a
  20-step ``train`` at the default ``TrainConfig``.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import softalign
from softalign import cli, cpus, gradcheck, harness, numkit, objectives, synthgen, trainer
from softalign.distributions import Temperature
from softalign.errors import SoftalignError
from softalign.numkit import l2_normalize_rows
from softalign.objectives import DIVERGENCES, LOSS_VARIANTS, SUPERVISION_FORMS, LossConfig

WEIGHTS = (0.0, 0.7, 1.0)
EXTRA = {
    "total": [dict(lambda_re=lam, mu_clip=mu)
              for lam in WEIGHTS for mu in (0.0, 0.3, 0.5)],
    "mixed_gamma": [dict(lambda_re=lam, gamma=gamma)
                    for lam in WEIGHTS for gamma in (0.0, 0.4, 1.0)],
}
FD_WEIGHTS = [dict(lambda_re=0.0, mu_clip=0.0, gamma=0.0),
              dict(lambda_re=0.7, mu_clip=0.3, gamma=0.4),
              dict(lambda_re=1.0, mu_clip=0.5, gamma=1.0)]
FD_SHAPES = ((3, 3), (4, 2), (5, 3))
BLOCKS_N = 130  # two full row blocks of the graph and a 2-row one
BLOCKS512_SELECTORS = ("total", "mixed_gamma")
FD_BLOCKS_N = 66  # a 64-row block and a 2-row one
SPEC = synthgen.SynthSpec(n_samples=120, n_concepts=8, latent_dim=12, d_image=10,
                          d_text=9, d_roi=11, d_tag=7, rois_per_image=3, seed=3)


def environment_line() -> str:
    """The header: numpy's version, and the version and the core of the
    OpenBLAS that numpy bundles, the library the package pins to one
    thread (``softalign._openblas``; ``unknown`` without it)."""
    version = core = "unknown"
    lib = softalign._openblas()
    if lib is not None:
        config, corename = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        for call in (config, corename):
            call.argtypes, call.restype = (), ctypes.c_char_p
        version = config().decode().split()[1]  # "OpenBLAS <version> <options>"
        core = corename().decode()
    return f"# numpy={np.__version__} openblas={version} core={core}"


def _inputs(n: int, d: int):
    rng = np.random.default_rng((n, d))
    return [rng.standard_normal((n, d)) for _ in range(4)]


def _scalar(x) -> bytes:
    return b"none" if x is None else struct.pack("<d", x)


def _grads(bundle) -> bytes:
    arrays = (bundle.d_v, bundle.d_t, bundle.d_r, bundle.d_a)
    return (b"".join(np.ascontiguousarray(g, dtype="<f8").tobytes() for g in arrays)
            + _scalar(bundle.d_log_inv_tau) + _scalar(bundle.d_log_inv_tau_guidance))


def _error(exc) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def _graph_case(selector, n, cfg, split, grads, values, errors=None) -> None:
    v, t, r, a = _inputs(n, 6)
    g_tau = Temperature.from_tau(0.2) if split else None
    try:
        value, comps, bundle = gradcheck.backward_with_components(
            selector, v, t, r, a, Temperature.from_tau(0.07), cfg,
            guidance_tau=g_tau)
    except (SoftalignError, ValueError) as exc:
        grads.update(type(exc).__name__.encode())
        values.update(type(exc).__name__.encode())
        if errors is not None:
            errors.update(_error(exc))
        return
    grads.update(_grads(bundle))
    values.update(_scalar(value))
    for name in sorted(comps):
        values.update(name.encode() + _scalar(comps[name]))


def _fd_case(selector, cfg, n, d, fd) -> None:
    v, t, r, a = _inputs(n, d)
    try:
        bundle = gradcheck.finite_difference_grad(
            selector, v, t, r, a, Temperature.from_tau(0.07), cfg)
    except (SoftalignError, ValueError) as exc:
        fd.update(type(exc).__name__.encode())
        return
    fd.update(_grads(bundle))


def _saturated(errors) -> None:
    """The degenerate-row errors of two saturated batches, for both sides,
    at several row-block sizes and usable-CPU counts."""
    # n=5: row 3 points away from four equal rows; n=130: rows 70 and 129
    # each point along an axis of their own, away from 128 equal rows
    small = np.zeros((5, 4))
    small[:, 0] = [-1.0, -1.0, -1.0, 1.0, -1.0]
    large = np.zeros((130, 3))
    large[:, 0] = -1.0
    large[70] = [0.0, 1.0, 0.0]
    large[129] = [0.0, 0.0, 1.0]
    saved = gradcheck._BLOCK_ROWS
    try:
        for far, tau in ((small, 0.05), (large, 0.02)):
            v, t, r, a = _inputs(*far.shape)
            for side, block, count in itertools.product(
                    ("prediction", "target"), (1, 3, 64), (1, 2)):
                gradcheck._BLOCK_ROWS = block
                inputs = ((far, far.copy(), r, a) if side == "prediction"
                          else (v, t, far, far.copy()))
                try:
                    with _usable_cpus(count):
                        gradcheck.backward("soft_re", *inputs, Temperature.from_tau(tau),
                                           LossConfig(beta=1.0))
                    errors.update(b"no error")
                except (SoftalignError, ValueError) as exc:
                    errors.update(_error(exc))
    finally:
        gradcheck._BLOCK_ROWS = saved


@contextmanager
def _usable_cpus(count: int):
    """The graph sees ``count`` usable CPUs (``cpus._usable_cpus``)."""
    saved = cpus._usable_cpus
    cpus._usable_cpus = lambda: count
    try:
        yield
    finally:
        cpus._usable_cpus = saved


def _blocks_line(label: str, cases) -> str:
    """The ``grads`` and ``values`` digests of ``cases``, each a
    ``(selector, n, cfg)``, computed at 1 and at 2 usable CPUs: the
    serial graph and the pooled one. Exits non-zero if they differ."""
    lines = set()
    for count in (1, 2):
        grads, values = hashlib.sha256(), hashlib.sha256()
        with _usable_cpus(count):
            for selector, n, cfg in cases:
                _graph_case(selector, n, cfg, False, grads, values)
        lines.add(f"{label} grads={grads.hexdigest()} values={values.hexdigest()}")
    if len(lines) != 1:
        raise SystemExit(f"{label} differs between 1 and 2 usable CPUs")
    return lines.pop()


def main() -> None:
    print(environment_line())
    errors = hashlib.sha256()
    for selector in LOSS_VARIANTS:
        grads, values, fd = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        base = itertools.product(DIVERGENCES, (True, False), SUPERVISION_FORMS,
                                 (False, True), (0.0, 0.3), (2, 5))
        for (div, sg, form, split, beta, n), extra in itertools.product(
                base, EXTRA.get(selector, [{}])):
            cfg = LossConfig(divergence=div, stop_gradient_targets=sg,
                             supervision_form=form, beta=beta,
                             split_guidance_temperature=split, **extra)
            _graph_case(selector, n, cfg, split, grads, values, errors)
        for sg, div, weights, (n, d) in itertools.product(
                (True, False), DIVERGENCES, FD_WEIGHTS, FD_SHAPES):
            cfg = LossConfig(divergence=div, stop_gradient_targets=sg, **weights)
            _fd_case(selector, cfg, n, d, fd)
        print(f"{selector:<13} grads={grads.hexdigest()} "
              f"values={values.hexdigest()} fd={fd.hexdigest()}")
    for selector in LOSS_VARIANTS:
        print(_blocks_line(f"blocks[{selector}]", [
            (selector, BLOCKS_N, LossConfig(divergence=div, stop_gradient_targets=sg,
                                            gamma=0.4))
            for div, sg in itertools.product(DIVERGENCES, (True, False))]))
    for selector in BLOCKS512_SELECTORS:
        print(_blocks_line(f"blocks512[{selector}]", [
            (selector, 512, LossConfig(divergence=div, stop_gradient_targets=sg,
                                       lambda_re=1.0, gamma=0.5))
            for div, sg in itertools.product(DIVERGENCES, (True, False))]))
    for selector in LOSS_VARIANTS:
        fd = hashlib.sha256()
        for sg in (True, False):
            cfg = LossConfig(stop_gradient_targets=sg, gamma=0.4)
            _fd_case(selector, cfg, FD_BLOCKS_N, 1, fd)
        print(f"fd_blocks[{selector}] fd={fd.hexdigest()}")
    _saturated(errors)
    print(f"errors={errors.hexdigest()}")
    _paths()


def _paths() -> None:
    dataset = synthgen.generate(SPEC)
    print(f"dataset_hash={synthgen.dataset_hash(dataset)}")
    print(f"init={_init()}")
    for mode in ("mean", "attention"):
        cfg = trainer.TrainConfig(max_steps=20, batch_size=30, seed=1,
                                  roi_aggregation=mode)
        state, _ = trainer.train(dataset, cfg)
        embeddings = _embeddings(state, dataset)
        profiles = hashlib.sha256()
        for direction in harness.DIRECTIONS:
            prof = harness.logit_profile(state, dataset, direction=direction)
            profiles.update(np.ascontiguousarray(prof.positions, dtype="<f8").tobytes())
            profiles.update(repr((prof.top1, prof.top2_10, prof.top11_50,
                                  prof.full_sum)).encode())
        result = harness.retrieval_eval(state, dataset)
        fields = " ".join(f"{k}={v!r}" for k, v in result.to_dict().items())
        print(f"train[{mode}] embeddings={embeddings} "
              f"profiles={profiles.hexdigest()} {fields}")
    print(f"files={_files(dataset, state)}")
    print(f"ranks={_ranks(dataset)}")
    _loaded(dataset)
    report = hashlib.sha256()
    for selector in LOSS_VARIANTS:
        try:
            text = gradcheck.check_gradients(selector, seed=0, n=4, d=3).to_json()
        except (SoftalignError, ValueError) as exc:
            text = type(exc).__name__
        report.update(text.encode())
    print(f"grad_check={report.hexdigest()}")
    print(f"reference={_reference()}")
    print(f"suite={_suite(dataset)}")
    print(f"outputs={_outputs()}")
    print(f"eval={_eval()}")


def _eval() -> str:
    dataset = synthgen.generate(synthgen.SynthSpec(seed=0))
    state, _ = trainer.train(dataset, trainer.TrainConfig(max_steps=20))
    ranks = hashlib.sha256(dataset.relevance_ranks().tobytes()).hexdigest()
    result = harness.retrieval_eval(state, dataset)
    return " ".join([f"relevance_ranks:{ranks}",
                     *(f"{k}={v!r}" for k, v in result.to_dict().items())])


def _files(dataset, state) -> str:
    with tempfile.TemporaryDirectory() as root:
        data, ckpt = Path(root, "data"), Path(root, "ckpt")
        synthgen.save(dataset, data)
        trainer.save_checkpoint(state, ckpt)
        return (f"data:{hashlib.sha256(data.read_bytes()).hexdigest()} "
                f"ckpt:{hashlib.sha256(ckpt.read_bytes()).hexdigest()} "
                f"loaded_hash:{synthgen.dataset_hash(synthgen.load(data))}")


def _ranks(dataset) -> str:
    a = np.round(np.random.default_rng(40).standard_normal((40, 40)), 1)
    symmetric = a + a.T
    nudged, nan = symmetric.copy(), symmetric.copy()
    nudged[3, 7] = np.nextafter(nudged[3, 7], np.inf)
    nan[5, 2] = np.nan
    digest = hashlib.sha256()
    for m in (symmetric, nudged, nan):
        digest.update(numkit.off_diagonal_ranks(m).tobytes())
    with tempfile.TemporaryDirectory() as root:
        synthgen.save(dataset, Path(root, "data"))
        digest.update(synthgen.load(Path(root, "data")).relevance_ranks().tobytes())
    return digest.hexdigest()


def _embeddings(state, dataset) -> str:
    digest = hashlib.sha256()
    for m in trainer.forward_batch(state, dataset, range(dataset.n)):
        digest.update(np.ascontiguousarray(m, dtype="<f8").tobytes())
    return digest.hexdigest()


def _loaded(dataset) -> None:
    with tempfile.TemporaryDirectory() as root:
        path = Path(root, "data")
        synthgen.save(dataset, path)
        loaded = synthgen.load(path)
        for mode in ("mean", "max", "min", "attention"):
            cfg = trainer.TrainConfig(max_steps=8, batch_size=30, seed=1,
                                      roi_aggregation=mode)
            got, want = (_embeddings(trainer.train(ds, cfg)[0], ds)
                         for ds in (loaded, dataset))
            print(f"loaded[{mode}] embeddings={got} in_memory={got == want}")


def _init() -> str:
    digest = hashlib.sha256()
    for mode, split in itertools.product(("mean", "attention"), (False, True)):
        cfg = trainer.TrainConfig(seed=1, roi_aggregation=mode, loss=LossConfig(
            split_guidance_temperature=split))
        state = trainer.init_state(SPEC, cfg)
        for store in (state.params, state.m, state.v):
            for key, x in store.items():
                digest.update(f"{key} {x.shape}".encode()
                              + np.ascontiguousarray(x, dtype="<f8").tobytes())
    return digest.hexdigest()


def _reference() -> str:
    digest = hashlib.sha256()
    tau, g_tau = Temperature.from_tau(0.07), Temperature.from_tau(0.2)
    for div, form, lam, split, n in itertools.product(
            DIVERGENCES, SUPERVISION_FORMS, (0.0, 1.0), (False, True), (2, 3, 5, 9)):
        cfg = LossConfig(divergence=div, supervision_form=form, lambda_re=lam,
                         split_guidance_temperature=split)
        v, t, r, a = (l2_normalize_rows(x) for x in _inputs(n, 6))
        calls = (
            lambda: objectives.softclip_total(v, t, r, a, tau, cfg, guidance_tau=g_tau),
            lambda: objectives.mixed_guidance_loss(v, t, r, a, tau, 0.4, cfg,
                                                   guidance_tau=g_tau),
            lambda: objectives.clip_loss(v, t, tau, cfg.target_floor),
        )
        for call in calls:
            try:
                out = call()
            except (SoftalignError, ValueError) as exc:
                digest.update(type(exc).__name__.encode())
                continue
            if isinstance(out, objectives.LossBreakdown):
                for name in ("clip", "soft", "soft_re", "total"):
                    digest.update(name.encode() + _scalar(getattr(out, name)))
            else:
                digest.update(_scalar(out))
    return digest.hexdigest()


def _suite(dataset) -> str:
    digest = hashlib.sha256()
    base = trainer.TrainConfig(max_steps=8, batch_size=30, seed=2)
    rows, states = harness.ablation_suite(dataset, base)
    digest.update(repr([row.to_dict() for row in rows]).encode())
    for name, state in states.items():
        digest.update(f"{name} step={state.step}".encode())
        for store in (state.params, state.m, state.v):
            for key, x in store.items():
                digest.update(key.encode()
                              + np.ascontiguousarray(x, dtype="<f8").tobytes())
    for jobs in (1, 2):
        rows = harness.gamma_sweep(dataset, base, [0.0, 0.5, 1.0], jobs=jobs)
        digest.update(repr([row.to_dict() for row in rows]).encode())
    rows = harness.sweep(dataset, harness.ablation_points(base, [0, 1]), jobs=2)
    digest.update(repr([row.to_dict() for row in rows]).encode())
    return digest.hexdigest()


def _outputs() -> str:
    os.environ["SALB_LOG"] = "error"  # the runs log each file they write
    steps = ["--max-steps", "8", "--batch-size", "30"]
    with tempfile.TemporaryDirectory() as root:
        out = Path(root)
        (out / "spec.json").write_text(json.dumps({"synth": SPEC.to_dict()}))
        data, ckpt = str(out / "data.salb"), str(out / "model.ckpt")
        runs = [
            ["gen-data", "--config", str(out / "spec.json"), "--out", data],
            ["train", "--data", data, *steps, "--seed", "2", "--out", ckpt,
             "--metrics", str(out / "steps.csv")],
            ["eval", "--data", data, "--ckpt", ckpt, "--out", str(out / "eval.json")],
            ["ablate", "--data", data, *steps, "--seeds", "0",
             "--out", str(out / "ablate.csv")],
            ["sweep-beta", "--data", data, *steps, "--betas", "0,0.5",
             "--out", str(out / "beta.csv")],
            ["sweep-gamma", "--data", data, *steps, "--gammas", "0,0.5,1",
             "--jobs", "2", "--out", str(out / "gamma.csv")],
            ["grad-check", "--loss", "total", "--n", "4", "--d", "3", "--seed", "0",
             "--out", str(out / "report.json")],
            ["logit-profile", "--data", data, "--ckpt", ckpt,
             "--out", str(out / "profile.csv")],
        ]
        for argv in runs:
            if cli.main(argv) != 0:
                raise SystemExit(f"softalign {argv[0]} failed")
        (out / "spec.json").unlink()
        return " ".join(f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}"
                        for p in sorted(out.iterdir()))


if __name__ == "__main__":
    main()
