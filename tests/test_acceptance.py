"""End-to-end acceptance suite. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; criterion 4 trains sixty small adversarial models and dominates
the runtime (a few minutes).
"""
import dataclasses
import time

import numpy as np
import pytest

from cizsl.data import (SyntheticConfig, load_dataset, make_synthetic,
                        save_dataset, class_means)
from cizsl.divergence import DivergenceParams, sm_divergence
from cizsl.errors import DatasetFormatError
from cizsl.evaluate import (ClassCenters, harmonic_mean, retrieval_precision,
                            seen_unseen_curve, synthesize_centers, trapezoid_auc,
                            zsl_top1)
from cizsl.gradcheck import run_gradient_contract
from cizsl.losses import interpolate_texts, sample_alpha
from cizsl.net import (DiscriminatorArch, GeneratorArch, build_discriminator,
                       build_generator, load_checkpoint, save_checkpoint)
from cizsl.numerics import RngStream, STREAM_EVAL
from cizsl.train import TrainConfig, cross_validate_lambda, train
from helpers import datasets_equal

KL = DivergenceParams(mode="kl", gamma=1.0, beta=1.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def rand_simplex(rng, k):
    p = rng.uniform(0.02, 1.0, k)
    return p / p.sum()


def test_criterion_1_divergence_limits():
    start = time.time()
    rng = RngStream(271, 0)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        p = rand_simplex(rng, k)
        q = rand_simplex(rng, k)
        gamma = float(rng.uniform(0.2, 2.5))
        if abs(gamma - 1.0) < 0.05:
            gamma = 1.6

        kl_lim = sm_divergence(p, q, DivergenceParams(
            mode="sharma-mittal", gamma=1.0 + 1e-6, beta=1.0 - 1e-6))
        worst = max(worst, abs(kl_lim - sm_divergence(p, q, KL)))

        renyi_lim = sm_divergence(p, q, DivergenceParams(
            mode="sharma-mittal", gamma=gamma, beta=1.0 + 1e-6))
        renyi = sm_divergence(p, q, DivergenceParams(mode="renyi", gamma=gamma,
                                                     beta=1.0))
        worst = max(worst, abs(renyi_lim - renyi))

        tsallis_eq = sm_divergence(p, q, DivergenceParams(
            mode="sharma-mittal", gamma=gamma, beta=gamma))
        tsallis = sm_divergence(p, q, DivergenceParams(mode="tsallis",
                                                       gamma=gamma, beta=gamma))
        worst = max(worst, abs(tsallis_eq - tsallis))

        # factor-2 identity: the family limit at (0.5, 1) is twice the
        # Bhattacharyya divergence
        bh_lim = sm_divergence(p, q, DivergenceParams(
            mode="sharma-mittal", gamma=0.5, beta=1.0 + 1e-6))
        bh = sm_divergence(p, q, DivergenceParams(mode="bhattacharyya",
                                                  gamma=0.5, beta=1.0))
        worst = max(worst, abs(bh_lim - 2.0 * bh))

    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(1, "divergence limit suite", ok,
           f"worst_abs_err={worst:.3g} runtime={elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_2_gradient_contract():
    start = time.time()
    rep = run_gradient_contract(seed=0, n_configs=20)
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 60.0
    worst = max(c.max_rel_err / c.tolerance for c in rep.checks)
    report(2, "gradient contract", ok,
           f"families={len(rep.checks)} worst_tol_ratio={worst:.3g} "
           f"runtime={elapsed:.1f}s")
    for check in rep.checks:
        assert check.passed, f"{check.name}: {check.max_rel_err} >= {check.tolerance}"
    assert elapsed < 60.0


def test_criterion_3_metric_oracles():
    start = time.time()
    rng = RngStream(37, 0)
    ok = True

    # nearest-center accuracy vs exhaustive recomputation (<= 200 points)
    ids = [2, 5, 9, 14]
    cents = ClassCenters(class_ids=np.array(ids), centers=rng.normal((4, 5)))
    feats = rng.normal((200, 5))
    labels = np.array(ids)[rng.integers(0, 4, 200)]
    fast = zsl_top1(feats, labels, cents)
    per_class = {}
    for i in range(200):
        best, best_d = None, np.inf
        for cid, center in zip(cents.class_ids, cents.centers):
            d = float(np.linalg.norm(feats[i] - center))
            if d < best_d:
                best, best_d = int(cid), d
        per_class.setdefault(int(labels[i]), []).append(best == int(labels[i]))
    brute = float(np.mean([np.mean(v) for v in per_class.values()]))
    ok &= fast == brute

    # AUC hand cases, incl. the 0.465 trapezoid
    ok &= abs(trapezoid_auc([0.0, 0.6, 0.9], [0.8, 0.5, 0.0]) - 0.465) < 1e-15
    ok &= trapezoid_auc([0.0, 1.0], [1.0, 0.0]) == 0.5
    ok &= trapezoid_auc([0.0, 1.0, 1.0], [1.0, 1.0, 0.0]) == 1.0

    # harmonic mean
    ok &= harmonic_mean(0.6, 0.3) == pytest.approx(0.4)
    ok &= harmonic_mean(0.5, 0.5) == 0.5
    ok &= harmonic_mean(0.9, 0.0) == 0.0

    # retrieval vs brute-force re-ranking
    uc = ClassCenters(class_ids=np.array([1, 7]), centers=rng.normal((2, 4)))
    feats = rng.normal((120, 4))
    labels = np.array([1, 7, 99])[rng.integers(0, 3, 120)]
    labels[:2] = [1, 7]
    got = retrieval_precision(feats, labels, uc, ratios=(0.25, 0.5, 1.0))
    for ratio in (0.25, 0.5, 1.0):
        per = []
        for cid, center in zip(uc.class_ids, uc.centers):
            ranked = sorted(range(120),
                            key=lambda i: (float(np.linalg.norm(feats[i] - center)), i))
            n_c = int(np.sum(labels == cid))
            k = int(np.ceil(ratio * n_c))
            per.append(sum(1 for i in ranked[:k] if labels[i] == cid) / k)
        ok &= got[ratio] == float(np.mean(per))

    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(3, "metric oracles", ok, f"runtime={elapsed:.2f}s")
    assert ok


def _benchmark_auc(model, ds, seed):
    seen_ids = np.sort(ds.seen_class_ids)
    seen_centers = ClassCenters(class_ids=seen_ids,
                                centers=class_means(ds, seen_ids))
    desc = {int(c): ds.descriptor_of(int(c)) for c in ds.unseen_class_ids}
    unseen = synthesize_centers(model.generator, desc, 30,
                                RngStream(seed, STREAM_EVAL))
    return seen_unseen_curve(ds.features, ds.labels, seen_centers, unseen).auc


@pytest.mark.slow
def test_criterion_4_ablation_direction():
    """Creativity-regularized training beats the non-creative baseline on the
    hard synthetic split, and by more than on the matched easy split."""
    start = time.time()
    grid = [0.01, 0.1, 1.0, 10.0]
    seeds = [1, 2, 3, 4, 5]
    results = {}
    for split in ("hard", "easy"):
        rows = []
        for seed in seeds:
            ds = make_synthetic(SyntheticConfig(
                n_super=8, classes_per_super=4, instances_per_class=50,
                text_dim=32, feature_dim=48, noise_dim=16,
                descriptor_noise=0.3, feature_noise=0.05, nonlinear=True,
                split_mode=split, unseen_fraction=0.25, seed=seed))
            cfg = TrainConfig(n_steps=400, batch_size=32, seed=seed,
                              text_embed_dim=16, hidden_dim=48,
                              eval_interval=100)
            best_lam, _ = cross_validate_lambda(ds, cfg, grid)
            full = train(ds, dataclasses.replace(cfg, lambda_creativity=best_lam))
            base = train(ds, dataclasses.replace(cfg, creativity_enabled=False))
            rows.append((_benchmark_auc(full, ds, seed),
                         _benchmark_auc(base, ds, seed)))
        results[split] = rows

    hard, easy = results["hard"], results["easy"]
    mean_full = float(np.mean([r[0] for r in hard]))
    mean_base = float(np.mean([r[1] for r in hard]))
    wins = sum((hard[i][0] - hard[i][1]) >= (easy[i][0] - easy[i][1])
               for i in range(len(seeds)))
    elapsed = time.time() - start
    ok = mean_full >= mean_base and wins >= 4 and elapsed < 600.0
    report(4, "ablation direction", ok,
           f"hard full={mean_full:.3f} base={mean_base:.3f} "
           f"hard>=easy improvement in {wins}/5 seeds runtime={elapsed:.0f}s")
    assert mean_full >= mean_base
    assert wins >= 4
    assert elapsed < 600.0


def test_criterion_5_training_fidelity(tmp_path):
    ds = make_synthetic(SyntheticConfig(
        n_super=3, classes_per_super=1, instances_per_class=30,
        text_dim=8, feature_dim=12, noise_dim=4, split_mode="hard",
        unseen_fraction=0.34, seed=3))
    cfg = TrainConfig(n_steps=500, batch_size=16, seed=3, noise_dim=4,
                      learning_rate=0.003, text_embed_dim=8, hidden_dim=24)
    m1 = train(ds, cfg)
    m2 = train(ds, cfg)
    (tmp_path / "a.csv").write_text(m1.history.to_csv())
    (tmp_path / "b.csv").write_text(m2.history.to_csv())
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    gap_drop = m1.history.w_gap[499] < m1.history.w_gap[9]
    ok = identical and gap_drop
    report(5, "training-procedure fidelity", ok,
           f"csv_identical={identical} gap step10={m1.history.w_gap[9]:.4f} "
           f"step500={m1.history.w_gap[499]:.4f}")
    assert identical
    assert gap_drop


def test_criterion_6_interpolation_and_alpha_modes():
    start = time.time()
    rng = RngStream(63, 0)
    ok = True

    # symmetry: swapping endpoints and mirroring alpha is the identity
    t_a, t_b = rng.normal(16), rng.normal(16)
    for alpha in (0.2, 0.37, 0.5, 0.8):
        ok &= np.allclose(interpolate_texts(t_a, t_b, alpha),
                          interpolate_texts(t_b, t_a, 1.0 - alpha), atol=1e-15)

    draws = sample_alpha(RngStream(64, 0), "uniform-0.2-0.8", 10_000)
    ok &= bool(np.all(draws >= 0.2) and np.all(draws < 0.8))
    ok &= abs(float(draws.mean()) - 0.5) < 0.01

    draws = sample_alpha(RngStream(65, 0), "uniform-0-1", 10_000)
    ok &= bool(np.all(draws >= 0.0) and np.all(draws < 1.0))
    ok &= abs(float(draws.mean()) - 0.5) < 0.01

    draws = sample_alpha(RngStream(66, 0), "fixed-0.5", 10_000)
    ok &= bool(np.all(draws == 0.5))

    draws = sample_alpha(RngStream(67, 0), "normal-0.5", 10_000)
    ok &= bool(np.all(draws >= 0.0) and np.all(draws <= 1.0))
    ok &= abs(float(draws.mean()) - 0.5) < 0.01
    ok &= abs(float(draws.std()) - 0.5 / 3.0) < 0.02

    elapsed = time.time() - start
    ok &= elapsed < 2.0
    report(6, "interpolation and alpha modes", ok, f"runtime={elapsed:.2f}s")
    assert ok


def test_criterion_7_format_round_trips(tmp_path):
    ds = make_synthetic(SyntheticConfig(
        n_super=4, classes_per_super=2, instances_per_class=6,
        text_dim=5, feature_dim=7, noise_dim=3, split_mode="easy",
        unseen_fraction=0.5, seed=11))
    save_dataset(ds, tmp_path / "ds.json")
    loaded = load_dataset(tmp_path / "ds.json")
    dataset_ok = datasets_equal(ds, loaded)

    rng = RngStream(99, 0)
    gen = build_generator(GeneratorArch(text_dim=5, noise_dim=3, output_dim=7,
                                        embed_dim=4, hidden_dims=(6,)), rng)
    disc = build_discriminator(DiscriminatorArch(input_dim=7, n_classes=4), rng)
    save_checkpoint(tmp_path / "m.czsl", gen, disc)
    gen2, disc2 = load_checkpoint(tmp_path / "m.czsl")
    ckpt_ok = (np.array_equal(gen.param_vector(), gen2.param_vector())
               and np.array_equal(disc.param_vector(), disc2.param_vector()))
    save_checkpoint(tmp_path / "m2.czsl", gen2, disc2)
    ckpt_ok &= (tmp_path / "m.czsl").read_bytes() == (tmp_path / "m2.czsl").read_bytes()

    # corrupted magic / version rejected with the named error
    magic_ok = version_ok = False
    raw = bytearray((tmp_path / "m.czsl").read_bytes())
    (tmp_path / "bad_magic.czsl").write_bytes(b"XXXX" + bytes(raw[4:]))
    try:
        load_checkpoint(tmp_path / "bad_magic.czsl")
    except DatasetFormatError as e:
        magic_ok = "magic" in str(e)
    raw[4:6] = (200).to_bytes(2, "little")
    (tmp_path / "bad_version.czsl").write_bytes(bytes(raw))
    try:
        load_checkpoint(tmp_path / "bad_version.czsl")
    except DatasetFormatError as e:
        version_ok = "version" in str(e)

    blob_magic_ok = blob_version_ok = False
    feats = tmp_path / "ds_features.czfd"
    raw = bytearray(feats.read_bytes())
    good = bytes(raw)
    feats.write_bytes(b"YYYY" + good[4:])
    try:
        load_dataset(tmp_path / "ds.json")
    except DatasetFormatError as e:
        blob_magic_ok = "magic" in str(e)
    feats.write_bytes(good[:4] + (77).to_bytes(2, "little") + good[6:])
    try:
        load_dataset(tmp_path / "ds.json")
    except DatasetFormatError as e:
        blob_version_ok = "version" in str(e)

    ok = all((dataset_ok, ckpt_ok, magic_ok, version_ok, blob_magic_ok,
              blob_version_ok))
    report(7, "format round trips", ok)
    assert ok
