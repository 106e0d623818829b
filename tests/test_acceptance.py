"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The desk-scale experiments (criteria 6, 7, 9) share a
module-scoped pilot: the default synthetic benchmark trained under the
five objective variants with three seeds.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from softalign import gradcheck
from softalign.distributions import (
    Temperature,
    disentangle_negatives,
    label_smooth_targets,
    mix_targets,
    one_hot_targets,
)
from softalign.errors import FormatError
from softalign.harness import (
    ablation_suite,
    ablation_variants,
    gamma_sweep,
    logit_profile,
    write_results_csv,
)
from softalign.numkit import l2_normalize_rows
from softalign.objectives import (
    LOSS_VARIANTS,
    DistBundle,
    LossConfig,
    clip_loss,
    js_rows,
    kl_rows,
    mixed_guidance_loss,
    relation_enhanced_soft_loss,
    softclip_total,
    sym_kl_rows,
)
from softalign.synthgen import SynthSpec, from_bytes, generate, load, save, to_bytes
from softalign.trainer import (
    TrainConfig,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)

LN2 = float(np.log(2.0))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


class Pilot:
    """Default-benchmark ablation runs shared by criteria 6, 7 and 9."""

    def __init__(self):
        self.dataset = generate(SynthSpec())
        self.base = TrainConfig()
        t0 = time.time()
        self.rows = {}
        self.states = {}
        for seed in (0, 1, 2):
            rows, states = ablation_suite(self.dataset,
                                          replace(self.base, seed=seed))
            self.rows[seed] = rows
            self.states[seed] = states
        self.elapsed = time.time() - t0

    def spearman(self, variant: str) -> list:
        return [next(r for r in self.rows[s] if r.variant == variant)
                .result.spearman for s in (0, 1, 2)]


@pytest.fixture(scope="module")
def pilot():
    return Pilot()


def test_criterion_1_gradient_fidelity():
    """All six selectors, 10 seeds, N in {2,4,8}, D in {4,16}, both
    stop-gradient settings: max relative error < 1e-5 at eps = 1e-5,
    within 60 s."""
    t0 = time.time()
    worst = 0.0
    failures = []
    for selector in LOSS_VARIANTS:
        for stop_grad in (True, False):
            cfg = LossConfig(stop_gradient_targets=stop_grad)
            for seed, n, d in itertools.product(range(10), (2, 4, 8), (4, 16)):
                rep = gradcheck.check_gradients(selector, seed=seed, n=n,
                                                d=d, cfg=cfg)
                worst = max(worst, rep.max_rel_err)
                if not rep.passed:
                    failures.append((selector, stop_grad, seed, n, d))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    detail = f"720 configs, worst rel err {worst:.3e}, {elapsed:.1f}s (budget 60s)"
    _report("criterion 1 gradient fidelity", ok, detail)
    assert not failures, failures[:5]
    assert elapsed < 60.0, detail


def test_criterion_2_reduction_identity():
    """beta=0 + forward KL + lambda=mu=0 reduces the total objective to
    the contrastive loss within 1e-9 on 100 random batches."""
    cfg = LossConfig(beta=0.0, divergence="forward_kl",
                     lambda_re=0.0, mu_clip=0.0)
    tau = Temperature.from_tau(0.07)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(4, 17))
        v, t, r, a = (l2_normalize_rows(rng.standard_normal((n, d)))
                      for _ in range(4))
        diff = abs(softclip_total(v, t, r, a, tau, cfg).total
                   - clip_loss(v, t, tau))
        worst = max(worst, diff)
    ok = worst < 1e-9
    _report("criterion 2 reduction identity", ok, f"worst |diff| {worst:.3e}")
    assert ok


def test_criterion_3_closed_form_targets():
    """Label smoothing matches its closed form exactly for n = 3..64;
    target mixing matches entrywise within 1e-15."""
    for n in range(3, 65):
        got = label_smooth_targets(n, 0.2)
        expected = np.full((n, n), 0.2 / (n - 1))
        np.fill_diagonal(expected, 1.0 - 0.2)
        assert np.array_equal(got, expected), f"n={n}"
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        beta = float(rng.random())
        soft = rng.dirichlet(np.ones(n), size=n)
        y = one_hot_targets(n)
        got = mix_targets(y, soft, beta)
        expected = (1.0 - beta) * y + beta * soft
        worst = max(worst, np.abs(got - expected).max())
    ok = worst < 1e-15
    _report("criterion 3 closed-form targets", ok,
            f"smoothing exact for n=3..64; mix worst err {worst:.2e}")
    assert ok


def test_criterion_4_disentanglement():
    """1000 random rows: unit sums and negative-ratio preservation within
    1e-9; the two-sample relation-enhanced loss is identically zero."""
    rng = np.random.default_rng(41)
    worst_sum = worst_ratio = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        p = rng.dirichlet(np.full(n, 0.7), size=n)
        out = disentangle_negatives(p)
        worst_sum = max(worst_sum, np.abs(out.inner.sum(axis=1) - 1.0).max())
        if n >= 3:
            i = int(rng.integers(0, n))
            cols = [j for j in range(n) if j != i]
            j, k = cols[0], cols[-1]
            got = out.inner[i, 0] / out.inner[i, -1]
            want = p[i, j] / p[i, k]
            worst_ratio = max(worst_ratio, abs(got - want) / max(1.0, abs(want)))
    cfg = LossConfig()
    zero_vals = []
    for seed in range(5):
        g = np.random.default_rng(seed)
        v, t, r, a = (l2_normalize_rows(g.standard_normal((2, 6)))
                      for _ in range(4))
        from softalign.objectives import build_distributions

        bundle = build_distributions(v, t, r, a, Temperature.from_tau(0.07), cfg)
        zero_vals.append(relation_enhanced_soft_loss(bundle, cfg))
    ok = worst_sum < 1e-9 and worst_ratio < 1e-9 and all(z == 0.0 for z in zero_vals)
    _report("criterion 4 disentanglement", ok,
            f"worst row-sum err {worst_sum:.2e}, worst ratio err "
            f"{worst_ratio:.2e}, N=2 loss values {set(zero_vals)}")
    assert ok


def test_criterion_5_divergence_properties():
    """Gibbs nonnegativity and identity-of-indiscernibles for KL (1e-9),
    exact symmetry for symmetric KL (1e-12), JS bounded by ln 2; 1000
    fuzz pairs each."""
    rng = np.random.default_rng(5150)
    ok = True
    worst_sym = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a = rng.dirichlet(np.full(n, 0.5), size=2)
        b = rng.dirichlet(np.full(n, 0.5), size=2)
        kl = kl_rows(a, b)
        ok &= kl >= -1e-12
        if np.abs(a - b).max() > 1e-6:
            ok &= kl > 1e-9 or np.allclose(a, b, atol=1e-9)
        ok &= kl_rows(a, a) == 0.0
        worst_sym = max(worst_sym, abs(sym_kl_rows(a, b) - sym_kl_rows(b, a)))
        js = js_rows(a, b)
        ok &= 0.0 <= js <= LN2 + 1e-12
    ok &= worst_sym < 1e-12
    _report("criterion 5 divergence properties", ok,
            f"1000 pairs; sym-KL asymmetry {worst_sym:.2e}")
    assert ok


def test_criterion_6_ablation_ordering(pilot):
    """Full objective vs contrastive baseline on the default benchmark:
    mean spearman gap over 3 seeds exceeds the pilot-derived margin 0.1;
    suite runtime under 10 minutes."""
    full = pilot.spearman("softclip")
    base = pilot.spearman("clip")
    gap = float(np.mean(full) - np.mean(base))
    ok = gap > 0.1 and pilot.elapsed < 600.0
    _report("criterion 6 ablation ordering", ok,
            f"mean spearman {np.mean(full):.4f} (full) vs {np.mean(base):.4f} "
            f"(contrastive), gap {gap:.4f} > 0.1; suite {pilot.elapsed:.0f}s")
    for seed in (0, 1, 2):
        variants = [r.variant for r in pilot.rows[seed]]
        assert variants == list(dict(ablation_variants(pilot.base)))
    assert gap > 0.1
    assert pilot.elapsed < 600.0


def test_criterion_7_logit_profile_direction(pilot):
    """On the criterion-6 checkpoints the full objective is less
    top-1-confident and carries more tail (positions 11-50) mass."""
    ok = True
    details = []
    for seed in (0, 1, 2):
        p_clip = logit_profile(pilot.states[seed]["clip"], pilot.dataset,
                               direction="t2v")
        p_full = logit_profile(pilot.states[seed]["softclip"], pilot.dataset,
                               direction="t2v")
        ok &= p_full.top1 < p_clip.top1
        ok &= p_full.top11_50 > p_clip.top11_50
        details.append(f"seed {seed}: top1 {p_clip.top1:.3f}->{p_full.top1:.3f}, "
                       f"top11-50 {p_clip.top11_50:.3f}->{p_full.top11_50:.3f}")
    _report("criterion 7 logit-profile direction", ok, "; ".join(details))
    assert ok


def test_criterion_8_gamma_sweep_endpoints(pilot):
    """Guidance mixing is affine at initialization (1e-12) and training
    completes with finite losses at gamma in {0, 0.5, 1}."""
    cfg = replace(pilot.base, epochs=6)
    state = init_state(pilot.dataset.spec, cfg)
    idx = np.arange(cfg.batch_size)
    v, t, r, a = forward_batch(state, pilot.dataset, idx)
    tau = state.temperature
    vals = [mixed_guidance_loss(v, t, r, a, tau, g, cfg.loss)
            for g in (0.0, 0.5, 1.0)]
    lin_err = abs(vals[1] - 0.5 * (vals[0] + vals[2]))
    rows = gamma_sweep(pilot.dataset, cfg, [0.0, 0.5, 1.0])
    finite = all(np.isfinite(r.final_loss) and np.isfinite(r.result.spearman)
                 for r in rows)
    ok = lin_err < 1e-12 and finite and len(rows) == 3
    _report("criterion 8 gamma endpoints", ok,
            f"linearity residual {lin_err:.2e}; trained losses "
            f"{[round(r.final_loss, 3) for r in rows]}")
    assert ok


def test_criterion_9_determinism_and_resume(pilot, tmp_path):
    """Re-running a criterion-6 suite with the same seed reproduces the
    CSV byte for byte; checkpoint resume matches uninterrupted training
    bitwise."""
    repeat_rows, _ = ablation_suite(pilot.dataset,
                                    replace(pilot.base, seed=0))
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_results_csv(pilot.rows[0], p1)
    write_results_csv(repeat_rows, p2)
    csv_ok = p1.read_bytes() == p2.read_bytes()

    full = pilot.states[0]["softclip"]
    cfg = dict(ablation_variants(replace(pilot.base, seed=0)))["softclip"]
    part, _ = train(pilot.dataset, cfg, stop_at_step=311)
    ck = tmp_path / "part.ckpt"
    save_checkpoint(part, ck)
    resumed, _ = train(pilot.dataset, cfg, state=load_checkpoint(ck))
    resume_ok = (
        resumed.step == full.step
        and all(np.array_equal(full.params[k], resumed.params[k])
                for k in full.params)
        and all(np.array_equal(full.m[k], resumed.m[k]) for k in full.m)
        and all(np.array_equal(full.v[k], resumed.v[k]) for k in full.v)
    )
    ok = csv_ok and resume_ok
    _report("criterion 9 determinism and resume", ok,
            f"CSV identical: {csv_ok}; resume bitwise: {resume_ok}")
    assert ok


def test_criterion_10_format_round_trips(pilot, tmp_path):
    """Dataset and checkpoint containers round-trip bitwise; corrupted
    headers raise FormatError."""
    ds = generate(SynthSpec(n_samples=80, d_roi=32, seed=6))
    dpath = tmp_path / "ds.salb"
    save(ds, dpath)
    back = load(dpath)
    ds_ok = back.spec == ds.spec and all(
        np.array_equal(getattr(back, f), getattr(ds, f))
        for f in ("image_features", "text_features", "roi_features",
                  "tag_features", "relevance")
    )

    state = pilot.states[0]["softclip"]
    cpath = tmp_path / "model.ckpt"
    save_checkpoint(state, cpath)
    loaded = load_checkpoint(cpath)
    ck_ok = loaded.step == state.step and all(
        np.array_equal(state.params[k], loaded.params[k])
        for k in state.params
    )

    corrupt_ok = True
    blob = bytearray(to_bytes(ds))
    blob[6] ^= 0xFF  # flip a header byte
    try:
        from_bytes(bytes(blob))
        corrupt_ok = False
    except FormatError:
        pass
    ckblob = bytearray(cpath.read_bytes())
    ckblob[8] ^= 0xFF
    cbad = tmp_path / "bad.ckpt"
    cbad.write_bytes(bytes(ckblob))
    try:
        load_checkpoint(cbad)
        corrupt_ok = False
    except FormatError:
        pass

    ok = ds_ok and ck_ok and corrupt_ok
    _report("criterion 10 format round-trips", ok,
            f"dataset bitwise: {ds_ok}; checkpoint bitwise: {ck_ok}; "
            f"corruption detected: {corrupt_ok}")
    assert ok
