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

from dffc import cli, hardness, pacing, runner
from dffc.forgeries import DatasetConfig, ssim, tampering_ratio
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
    assert hardness.instantaneous_hardness(0.7, 0.1, 0.1) == pytest.approx(0.7, abs=1e-12)
    assert hardness.instantaneous_hardness(0.7, 0.05, 0.1) == pytest.approx(1.4, abs=1e-12)
    assert hardness.instantaneous_hardness(0.3, 0.001, 0.1) == pytest.approx(30.0, abs=1e-12)

    # Single EMA update from d=1: 0.9*2 + 0.1*1 = 1.9 -> with s=2, d0=1.
    state = hardness.HardnessState.fresh(np.zeros(1), gamma=0.9, alpha_f=0.5)
    state.dih[0] = 1.0
    hardness.update_dih(state, 0, 2.0)
    assert state.dih[0] == pytest.approx(1.9, abs=1e-12)

    # DFH = dih + alpha_f * q.
    state2 = hardness.HardnessState.fresh(np.array([0.4]), gamma=0.9, alpha_f=0.5)
    state2.dih[0] = 1.9
    assert hardness.dfh(state2, 0) == pytest.approx(2.1, abs=1e-12)

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
            hardness.update_dih(st, 0, float(s))
        closed = (1.0 - g) ** len(seq) * d0 + sum(
            g * (1.0 - g) ** (len(seq) - 1 - k) * s for k, s in enumerate(seq)
        )
        assert st.dih[0] == pytest.approx(closed, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"hardness oracle suite took {elapsed:.2f}s"


def _brute_force_pool(scores, k, hardest):
    # Ties break toward the smaller index in both directions.
    key = (lambda i: (-scores[i], i)) if hardest else (lambda i: (scores[i], i))
    return sorted(sorted(range(len(scores)), key=key)[:k])


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
                assert list(pacing.select_hard_pool(scores, k)) == _brute_force_pool(
                    scores, k, hardest=True
                )
                assert list(pacing.select_easy_pool(scores, k)) == _brute_force_pool(
                    scores, k, hardest=False
                )

    # 1000 random N=500 cases (ties included via quantization).
    for trial in range(1000):
        scores = np.round(rng.uniform(0.0, 1.0, size=500), 2)
        k = int(rng.integers(1, 501))
        assert list(pacing.select_hard_pool(scores, k)) == _brute_force_pool(scores, k, True)
        assert list(pacing.select_easy_pool(scores, k)) == _brute_force_pool(scores, k, False)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"selection oracle suite took {elapsed:.2f}s"


def test_criterion_03_pacing_trajectory():
    """Default milestones on N=1000 give the exact 20-epoch pool sizes."""
    schedule = pacing.PacingSchedule(
        milestones=(2, 5, 8, 12, 15),
        alpha_k=0.9,
        easy_pool_size=1000,
        n_samples=1000,
        total_epochs=20,
    )
    sizes = [pacing.pool_size_at_epoch(schedule, t) for t in range(1, 21)]
    expected = [1000] * 4 + [900] * 3 + [810] * 4 + [729] * 3 + [656] * 6
    assert sizes == expected


def _flatten(p: ModelParams) -> np.ndarray:
    return np.concatenate([p.W1.ravel(), p.b1, p.w2, [p.b2]])


def _unflatten(vec: np.ndarray, like: ModelParams) -> ModelParams:
    h, d = like.W1.shape
    i = h * d
    return ModelParams(
        W1=vec[:i].reshape(h, d),
        b1=vec[i : i + h].copy(),
        w2=vec[i + h : i + 2 * h].copy(),
        b2=float(vec[i + 2 * h]),
    )


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

        g = gradients(params, X, y)
        analytic = _flatten(ModelParams(g.W1, g.b1, g.w2, g.b2))

        def mean_loss(vec):
            probs = forward_batch(_unflatten(vec, params), X)
            return float(bce_loss(probs, y).mean())

        theta = _flatten(params)
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
    assert a1.entry_streams == a2.entry_streams
    for la, lb in zip(a1.loss_streams, a2.loss_streams):
        np.testing.assert_array_equal(la, lb)

    # (b) Quality prior disabled: pool selection must match dih mode.
    b1 = runner.run_training(runner.RunConfig(mode="dffc", alpha_f=0.0, **common))
    b2 = runner.run_training(runner.RunConfig(mode="dih", alpha_f=0.0, **common))
    for p1, p2 in zip(b1.entry_streams, b2.entry_streams, strict=True):
        np.testing.assert_array_equal(p1.hard_ids, p2.hard_ids)
        np.testing.assert_array_equal(p1.easy_ids, p2.easy_ids)
    assert b1.entry_streams == b2.entry_streams


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
    dffc_hard = np.mean([runs[s]["dffc"].rows[-1]["acc_hard"] for s in runs])
    van_hard = np.mean([runs[s]["vanilla"].rows[-1]["acc_hard"] for s in runs])
    dffc_auc = np.mean([runs[s]["dffc"].rows[-1]["test_auc"] for s in runs])
    van_auc = np.mean([runs[s]["vanilla"].rows[-1]["test_auc"] for s in runs])
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
        by_epoch = {row["epoch"]: row["mean_dfh"] for row in res.rows}
        decay_ok = by_epoch[20] < by_epoch[3]

        def group_means(group):
            ids = res.trace_groups[group]
            values = np.array([res.dfh_traces[i]["values"] for i in ids])
            return values.mean(axis=0)

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
        ext = pair["dffc"].extremes
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
