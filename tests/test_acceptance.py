"""Acceptance criteria 1-10, one test per criterion.

Each test is self-contained apart from the shared five-seed default runs
(criteria 7-9), which a session fixture computes once.  Directional
criteria print their measured margins so a passing run still reports the
actual numbers (run pytest with -rA or -s to see them).
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from oracles import (
    assert_pool_streams_equal,
    brute_force_topk,
    easy_ids,
    flatten_params,
    hard_ids,
    ssim,
    tampering_ratio,
    unflatten_params,
)

from dffc import cli, forgeries, hardness, pacing, runner
from dffc.forgeries import DatasetConfig
from dffc.model import (
    ModelParams,
    bce_loss,
    forward_batch,
    gradients,
    init_params,
)


def test_criterion_01_hardness_math_oracles():
    """Eq-level hardness operations match closed forms to 1e-12 in < 1 s."""
    start = time.perf_counter()

    # Instantaneous hardness: loss * eta_max / eta.
    for loss, eta, expected in ((0.7, 0.1, 0.7), (0.7, 0.05, 1.4), (0.3, 0.001, 30.0)):
        s_t = hardness.instantaneous_hardness(np.array([loss]), eta, 0.1)
        assert s_t[0] == pytest.approx(expected, abs=1e-12)

    # Single EMA update from d=1: 0.9*2 + 0.1*1 = 1.9 -> with s=2, d0=1.
    state = hardness.HardnessState.fresh(np.zeros(1), gamma=0.9, alpha_f=0.5)
    state.dih[0] = 1.0
    hardness.update_dih(state, np.array([0]), np.array([2.0]))
    assert state.dih[0] == pytest.approx(1.9, abs=1e-12)

    # DFH = dih + alpha_f * q.
    state2 = hardness.HardnessState.fresh(np.array([0.4]), gamma=0.9, alpha_f=0.5)
    state2.dih[0] = 1.9
    assert hardness.dfh_all(state2)[0] == pytest.approx(2.1, abs=1e-12)

    # Closed-form DIH property over 100 random sequences:
    # d_T = (1-g)^T d_0 + g * sum_k (1-g)^(T-k) s_k.
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = rng.uniform(0.05, 0.95)
        d0 = rng.uniform(0.0, 2.0)
        seq = rng.uniform(0.0, 3.0, size=rng.integers(1, 30))
        st = hardness.HardnessState.fresh(np.zeros(1), gamma=g, alpha_f=0.0)
        st.dih[0] = d0
        for s in seq:
            hardness.update_dih(st, np.array([0]), np.array([s]))
        closed = (1.0 - g) ** len(seq) * d0 + sum(
            g * (1.0 - g) ** (len(seq) - 1 - k) * s for k, s in enumerate(seq)
        )
        assert st.dih[0] == pytest.approx(closed, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"hardness oracle suite took {elapsed:.2f}s"


def test_criterion_02_selection_oracle():
    """Top-k / bottom-k selection equals a brute-force stable sort, < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)

    # Exhaustive small cases with heavy ties.
    tie_values = (0.0, 0.5, 1.0)
    for n in range(1, 13):
        for trial in range(30):
            scores = np.array(rng.choice(tie_values, size=n))
            for k in range(1, n + 1):
                assert list(pacing.select_hard_pool(scores, k)) == brute_force_topk(
                    scores, k, largest=True
                )
                assert list(pacing.select_easy_pool(scores, k)) == brute_force_topk(
                    scores, k, largest=False
                )

    # 1000 random N=500 cases (ties included via quantization).
    for trial in range(1000):
        scores = np.round(rng.uniform(0.0, 1.0, size=500), 2)
        k = int(rng.integers(1, 501))
        assert list(pacing.select_hard_pool(scores, k)) == brute_force_topk(scores, k, True)
        assert list(pacing.select_easy_pool(scores, k)) == brute_force_topk(scores, k, False)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"selection oracle suite took {elapsed:.2f}s"


def test_criterion_03_pacing_trajectory():
    """Default milestones on N=1000 give the exact 20-epoch pool sizes."""
    pacing.check_pacing((2, 5, 8, 12, 15), 0.9, 1000, 20)
    sizes = [pacing.pool_size_at_epoch(1000, t, (2, 5, 8, 12, 15), 0.9) for t in range(1, 21)]
    expected = [1000] * 4 + [900] * 3 + [810] * 4 + [729] * 3 + [656] * 6
    assert sizes == expected


def test_criterion_04_gradient_finite_differences():
    """Analytic gradients vs central differences, 20 draws, rel err < 1e-4."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for draw in range(20):
        d = int(rng.integers(3, 9))
        h_units = int(rng.integers(2, 7))
        b = int(rng.integers(2, 10))
        params = init_params(d, h_units, seed=int(rng.integers(0, 10_000)))
        while True:
            X = rng.normal(size=(b, d))
            # Central differences straddle the ReLU kink when a
            # pre-activation lies within the step; redraw those batches
            # (the loss is not differentiable there, so FD says nothing).
            if np.abs(X @ params.W1.T + params.b1).min() > 1e-3:
                break
        y = rng.integers(0, 2, size=b).astype(np.float64)

        g, _ = gradients(params, X, y)
        analytic = flatten_params(ModelParams(g.W1, g.b1, g.w2, g.b2))

        def mean_loss(vec):
            probs = forward_batch(unflatten_params(vec, params), X)
            return float(bce_loss(probs, y).mean())

        theta = flatten_params(params)
        step = 1e-5
        numeric = np.zeros_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += step
            down[i] -= step
            numeric[i] = (mean_loss(up) - mean_loss(down)) / (2.0 * step)

        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_criterion_05_reduction_properties():
    """(a) warm-up-only dffc == vanilla stream; (b) alpha_f=0 dffc == dih pools."""
    dataset = DatasetConfig(seed=0)
    common = dict(dataset=dataset, seed=0)

    # (a) With the single milestone at the final epoch, warm-up covers the
    # whole run and the batch stream must equal vanilla's exactly.
    a1 = runner.run_training(runner.RunConfig(milestones=(20,), **common))
    a2 = runner.run_training(runner.RunConfig(mode="vanilla", **common))
    assert_pool_streams_equal(a1, a2)

    # (b) Quality prior disabled: pool selection must match dih mode.
    b1 = runner.run_training(runner.RunConfig(mode="dffc", alpha_f=0.0, **common))
    b2 = runner.run_training(runner.RunConfig(mode="dih", alpha_f=0.0, **common))
    for r1, r2 in zip(b1.epochs, b2.epochs, strict=True):
        np.testing.assert_array_equal(hard_ids(r1["pool"]), hard_ids(r2["pool"]))
        np.testing.assert_array_equal(easy_ids(r1["pool"]), easy_ids(r2["pool"]))
    assert_pool_streams_equal(b1, b2)


def test_criterion_06_metric_correctness():
    """SSIM (self/symmetry/golden), AUC hand case, constructed TAR."""
    img = np.random.default_rng(6).uniform(size=(8, 8))
    other = np.random.default_rng(7).uniform(size=(8, 8))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    assert ssim(img, other) == pytest.approx(ssim(other, img), abs=1e-12)
    a = np.array([0.0, 0.0, 1.0, 1.0]).reshape(2, 2)
    b = np.array([0.0, 0.5, 1.0, 1.0]).reshape(2, 2)
    assert ssim(a, b) == pytest.approx(0.8673852211341008, abs=1e-15)

    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert runner.roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-12)

    real = np.zeros((4, 5))
    fake = real.copy()
    fake[0, 0] = 0.5
    assert tampering_ratio(fake, real) == 0.05


def test_criterion_07_directional_experiment(five_seed_runs):
    """dffc vs vanilla: hard-tercile acc and AUC within tolerance, < 3 min."""
    runs = five_seed_runs["runs"]
    dffc_hard = np.mean([runs[s]["dffc"].epochs[-1]["acc_hard"] for s in runs])
    van_hard = np.mean([runs[s]["vanilla"].epochs[-1]["acc_hard"] for s in runs])
    dffc_auc = np.mean([runs[s]["dffc"].epochs[-1]["test_auc"] for s in runs])
    van_auc = np.mean([runs[s]["vanilla"].epochs[-1]["test_auc"] for s in runs])
    elapsed = five_seed_runs["elapsed_seconds"]
    print(
        f"\nhard-tercile acc: dffc={dffc_hard:.4f} vanilla={van_hard:.4f} "
        f"(margin {dffc_hard - van_hard:+.4f}); "
        f"AUC: dffc={dffc_auc:.4f} vanilla={van_auc:.4f} "
        f"(margin {dffc_auc - van_auc:+.4f}); wall time {elapsed:.1f}s"
    )
    assert dffc_hard >= van_hard - 0.005, (
        f"hard-tercile acc {dffc_hard:.4f} vs vanilla {van_hard:.4f}"
    )
    assert dffc_auc >= van_auc - 0.005, f"AUC {dffc_auc:.4f} vs vanilla {van_auc:.4f}"
    assert elapsed < 180.0, f"five-seed runs took {elapsed:.1f}s"


def test_criterion_08_dfh_decay(five_seed_runs):
    """Mean DFH decays epoch 3 -> 20 and bottom traces stay below top, >= 4/5 seeds."""
    runs = five_seed_runs["runs"]
    decay_pass, trace_pass, details = [], [], []
    for seed, pair in runs.items():
        res = pair["dffc"]
        by_epoch = {record["epoch"]: record["mean_dfh"] for record in res.epochs}
        decay_ok = by_epoch[20] < by_epoch[3]

        groups = cli.trace_groups(res.epochs, seed)

        def group_means(group):
            ids = groups[group]
            traced = res.epochs[cli.TRACE_START_EPOCH - 1 :]
            return np.array([record["dfh"][ids] for record in traced]).mean(axis=1)

        top, bottom = group_means("top"), group_means("bottom")
        trace_ok = bool(np.all(bottom < top))
        decay_pass.append(decay_ok)
        trace_pass.append(trace_ok)
        details.append(
            f"seed {seed}: dfh e3={by_epoch[3]:.3f} e20={by_epoch[20]:.3f} "
            f"decay={'ok' if decay_ok else 'FAIL'} traces={'ok' if trace_ok else 'FAIL'}"
        )
    print("\n" + "\n".join(details))
    both = [d and t for d, t in zip(decay_pass, trace_pass)]
    assert sum(both) >= 4, "\n".join(details)


def test_criterion_09_tar_ssim_extremes(five_seed_runs):
    """Hardest-DFH fakes: strictly lower TAR and higher SSIM, >= 4/5 seeds."""
    runs = five_seed_runs["runs"]
    passes, details = [], []
    for seed, pair in runs.items():
        run = pair["dffc"]
        ext = forgeries.dfh_extremes_report(
            run.dataset_config, forgeries.TEST_SPLIT, hardness.dfh_all(run.test_hardness)
        )
        tar_ok = ext["top"]["mean_tar"] < ext["bottom"]["mean_tar"]
        ssim_ok = ext["top"]["mean_ssim"] > ext["bottom"]["mean_ssim"]
        passes.append(tar_ok and ssim_ok)
        details.append(
            f"seed {seed}: TAR top={ext['top']['mean_tar']:.3f} "
            f"bottom={ext['bottom']['mean_tar']:.3f} "
            f"SSIM top={ext['top']['mean_ssim']:.3f} "
            f"bottom={ext['bottom']['mean_ssim']:.3f} "
            f"{'ok' if tar_ok and ssim_ok else 'FAIL'}"
        )
    print("\n" + "\n".join(details))
    assert sum(passes) >= 4, "\n".join(details)


def test_criterion_10_determinism(tmp_path):
    """Repeated `train` with one resolved config is byte-identical."""
    overrides = [
        "--override", "dataset.n_train=200",
        "--override", "dataset.n_test=100",
        "--override", "total_epochs=8",
        "--override", "pacing.milestones=[2,4,6]",
        "--override", "pacing.easy_pool_size=50",
    ]
    first = tmp_path / "first"
    assert cli.main(["train", *overrides, "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert cli.main(
        ["train", "--config", str(first / "resolved_config.json"), "--out", str(second)]
    ) == 0
    for name in ("metrics.csv", "checkpoint.json", "checkpoint.bin"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
