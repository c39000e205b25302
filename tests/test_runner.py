"""Tests for the training runner: metrics, pooling invariants, reductions.

Oracle notes:
  [DERIVED] roc_auc hand case -- scores [0.1,0.4,0.35,0.8], labels
      [0,0,1,1]: one of four positive/negative pairs is mis-ranked,
      AUC = 0.75.
  [ORACLE] roc_auc over heavily tied random scores -- equals the rank-sum
      form over scipy.stats.rankdata's average ranks exactly; scipy is a
      test-only dependency, so that test is skipped where it is absent.
  [DERIVED] loss wiring -- epoch-1 first-batch losses must equal BCE of
      the forward pass at the initial parameters, reconstructed outside
      the runner from the same standardization.
  [DERIVED] reductions -- a hard-pool milestone at the final epoch makes
      curriculum selection inert, so every epoch record's pool and losses
      must equal vanilla's; alpha_f=0 makes dffc's pools equal dih's.
  [TRIVIAL] config validation, determinism, CSV shape.

The CSV text and the DFH traces of a run are read through ``cli``, which
holds the run-record formats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from oracles import assert_pool_streams_equal, easy_ids, hard_ids
from test_golden import SMALL

from dffc import augment, cli, forgeries, hardness, pacing, runner
from dffc.errors import ConfigError
from dffc.forgeries import DatasetConfig, generate_dataset, quality_priors
from dffc.model import MAX_BCE, PROB_EPS, TRAIN_DTYPE, bce_loss, forward_batch, init_params


def metrics_text(result: runner.MetricsLog) -> str:
    return cli.csv_text(cli.METRICS_COLUMNS, result.epochs)


def pool_log_text(result: runner.MetricsLog) -> str:
    return cli.csv_text(cli.POOL_LOG_COLUMNS, result.epochs)


def pools(result: runner.MetricsLog) -> list[pacing.EpochPool]:
    return [record["pool"] for record in result.epochs]


class TestRocAuc:
    def test_hand_case_three_quarters(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert runner.roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert runner.roc_auc(scores, labels) == 1.0

    def test_all_tied_scores_give_half(self):
        scores = np.full(6, 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert runner.roc_auc(scores, labels) == pytest.approx(0.5, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            runner.roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_equals_rank_sum_over_scipy_midranks(self):
        rankdata = pytest.importorskip("scipy.stats").rankdata
        rng = np.random.default_rng(20)
        for _ in range(3000):
            n = int(rng.integers(2, 401))
            scores = np.round(rng.uniform(0.0, 1.0, n), int(rng.integers(0, 4)))
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            n_pos = int(labels.sum())
            n_neg = n - n_pos
            oracle = (rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (
                n_pos * n_neg
            )
            assert runner.roc_auc(scores, labels) == oracle

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_naming_its_index(self, bad):
        scores = np.array([0.1, 0.4, 0.35, bad, 0.8])
        labels = np.array([0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match=f"got {bad} at index 3"):
            runner.roc_auc(scores, labels)


class TestTerciles:
    def test_hand_case(self):
        priors = np.array([0.0, 0.1, 0.4, 0.5, 0.8, 0.9])
        buckets = runner.tercile_assignments(priors)
        np.testing.assert_array_equal(buckets, [0, 0, 1, 1, 2, 2])

    def test_all_buckets_used_on_default_data(self):
        _, test = generate_dataset(DatasetConfig(n_train=4, n_test=60, seed=1))
        priors, _ = quality_priors(test.images)
        buckets = runner.tercile_assignments(priors)
        assert set(buckets) == {0, 1, 2}


class TestRunConfig:
    def test_defaults(self):
        cfg = runner.RunConfig()
        assert cfg.mode == "dffc"
        assert cfg.milestones == (2, 5, 8, 12, 15)
        assert cfg.gamma == 0.9 and cfg.alpha_f == 0.5 and cfg.alpha_k == 0.9
        assert cfg.eta_max == 0.1 and cfg.eta_min == 0.001
        assert cfg.total_epochs == 20
        assert cfg.hidden_units == 32 and cfg.batch_size == 64

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            runner.RunConfig(mode="sphinx")

    def test_dih_requires_zero_alpha_f(self):
        with pytest.raises(ConfigError):
            runner.RunConfig(mode="dih", alpha_f=0.5)
        cfg = runner.RunConfig(mode="dih", alpha_f=0.0)
        assert cfg.alpha_f == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"hidden_units": 0},
            {"total_epochs": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"eta_min": 0},
            {"milestones": ()},
            {"alpha_k": 0},
            {"gamma": 2},
            {"alpha_f": -1},
            {"mode": "babystep", "babystep_growth_factor": 0.5},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            runner.RunConfig(**kwargs)

    def test_smallest_eta_min_keeps_the_largest_hardness_finite(self):
        # The largest clamped loss scaled by eta_max / eta_min, as
        # instantaneous_hardness takes it, is finite just down to eta_min.
        eta_max = 0.1
        eta_min = MAX_BCE * eta_max / sys.float_info.max
        while not math.isfinite(MAX_BCE * eta_max / eta_min):
            eta_min = math.nextafter(eta_min, math.inf)
        config = runner.RunConfig(eta_max=eta_max, eta_min=eta_min)
        top = hardness.instantaneous_hardness(np.array([MAX_BCE]), config.eta_min, eta_max)
        assert np.isfinite(top).all()
        with pytest.raises(ConfigError, match="^eta_min: "):
            runner.RunConfig(eta_max=eta_max, eta_min=math.nextafter(eta_min, 0.0))

    def test_largest_loss_is_the_clamped_bce_bound(self):
        probs = np.array([PROB_EPS, 0.5, 1.0 - PROB_EPS])
        losses = [bce_loss(probs, np.full(3, y)) for y in (0.0, 1.0)]
        assert max(loss.max() for loss in losses) == MAX_BCE


@pytest.fixture(scope="module")
def small_result():
    dataset = DatasetConfig(n_train=60, n_test=20, seed=3)
    config = runner.RunConfig(
        dataset=dataset,
        total_epochs=6,
        milestones=(2, 3, 4),
        easy_pool_size=10,
        batch_size=16,
        hidden_units=8,
        seed=3,
    )
    return config, runner.run_training(config)


class TestRunWiring:
    def test_first_batch_losses_use_initial_params(self, small_result):
        config, result = small_result
        train, _ = generate_dataset(config.dataset)
        to_input = runner.fit_input_transform(train.images)
        params = init_params(train.images[0].size, config.hidden_units, config.seed)

        pool = result.epochs[0]["pool"]
        assert (pool.seeds[: config.batch_size] == -1).all()
        first = pool.entries[: config.batch_size]
        X = to_input(train.images[first])
        y = (first % 2).astype(np.float64)  # fakes are the odd rows
        expected = bce_loss(forward_batch(params, X), y)
        np.testing.assert_array_equal(result.epochs[0]["losses"][: len(first)], expected)

    def test_dih_updates_only_inside_hard_pool(self, small_result):
        config, result = small_result
        # Replay which sample ids were eligible for a DIH update and check
        # the recorded update counts match exactly.
        expected_counts = np.zeros(config.dataset.n_train, dtype=int)
        for pool in pools(result):
            expected_counts[pool.entries[pool.seeds == -1]] += 1
        np.testing.assert_array_equal(result.train_hardness.update_count, expected_counts)
        # Samples never selected after the warm-up keep fewer updates.
        assert expected_counts.max() == config.total_epochs
        assert expected_counts.min() < config.total_epochs

    def test_pool_size_trajectory(self, small_result):
        config, result = small_result
        sizes = [record["pool_size"] for record in result.epochs]
        expected = [
            pacing.pool_size_at_epoch(
                config.dataset.n_train, t, config.milestones, config.alpha_k
            )
            for t in range(1, config.total_epochs + 1)
        ]
        assert sizes == expected

    def test_easy_pool_appears_after_warmup(self, small_result):
        config, result = small_result
        warmup = config.milestones[0]
        for t, pool in enumerate(pools(result), start=1):
            if t <= warmup:
                assert len(easy_ids(pool)) == 0
            else:
                assert len(easy_ids(pool)) == config.easy_pool_size

    def test_metrics_rows_shape(self, small_result):
        config, result = small_result
        assert len(result.epochs) == config.total_epochs
        for record in result.epochs:
            assert 0.0 <= record["test_acc"] <= 1.0
            assert 0.0 <= record["test_auc"] <= 1.0
            assert record["eta"] <= config.eta_max

    def test_traces_recorded_from_start_epoch(self, small_result):
        config, result = small_result
        n_values = config.total_epochs - cli.TRACE_START_EPOCH + 1
        traces = json.loads(cli.dfh_trace_json(result.epochs, config.seed))
        groups = cli.trace_groups(result.epochs, config.seed)
        traced = {sid for ids in groups.values() for sid in ids}
        assert traces and sorted(map(int, traces)) == sorted(traced)
        for trace in traces.values():
            assert trace["start_epoch"] == cli.TRACE_START_EPOCH
            assert len(trace["values"]) == n_values
        for group in ("top", "median", "bottom"):
            assert groups[group]

    def test_extremes_report_present(self, small_result):
        config, result = small_result
        assert result.dataset_config == config.dataset
        assert result.test_hardness.n_samples == config.dataset.n_test
        extremes = forgeries.dfh_extremes_report(
            result.dataset_config, forgeries.TEST_SPLIT, hardness.dfh_all(result.test_hardness)
        )
        for side in ("top", "bottom"):
            assert "mean_tar" in extremes[side]
            assert "mean_ssim" in extremes[side]

    def test_byte_determinism(self, small_result):
        config, result = small_result
        again = runner.run_training(config)
        assert metrics_text(result) == metrics_text(again)
        assert pool_log_text(result) == pool_log_text(again)
        assert cli.dfh_trace_json(result.epochs, config.seed) == cli.dfh_trace_json(
            again.epochs, config.seed
        )


class TestVanillaAndBabystep:
    def test_vanilla_uses_full_dataset_every_epoch(self):
        config = runner.RunConfig(
            mode="vanilla",
            dataset=DatasetConfig(n_train=40, n_test=20, seed=2),
            total_epochs=3,
            batch_size=16,
            hidden_units=8,
            seed=2,
        )
        result = runner.run_training(config)
        for pool in pools(result):
            assert hard_ids(pool).tolist() == list(range(40))
            assert len(easy_ids(pool)) == 0

    def test_babystep_pool_growth(self):
        config = runner.RunConfig(
            mode="babystep",
            dataset=DatasetConfig(n_train=40, n_test=20, seed=2),
            total_epochs=6,
            batch_size=16,
            hidden_units=8,
            seed=2,
            babystep_start_fraction=0.25,
            babystep_growth_factor=2.0,
            babystep_step_length=2,
        )
        result = runner.run_training(config)
        hard_id_sets = [set(hard_ids(pool).tolist()) for pool in pools(result)]
        sizes = [len(h) for h in hard_id_sets]
        assert sizes == [10, 10, 20, 20, 40, 40]
        # Stages are easiest-first and nested.
        for a, b in zip(hard_id_sets, hard_id_sets[1:]):
            assert a <= b

    def test_augment_all_attaches_seeds_everywhere(self, monkeypatch):
        config = runner.RunConfig(
            dataset=DatasetConfig(n_train=40, n_test=20, seed=2),
            total_epochs=4,
            milestones=(2, 3),
            easy_pool_size=5,
            batch_size=16,
            hidden_units=8,
            seed=2,
            augment_all=True,
        )
        real_augment_pixels, augmented = runner.augment_pixels, []

        def spy(images, ids, spec, seeds, out):
            augmented.append((ids.copy(), seeds.copy()))
            return real_augment_pixels(images, ids, spec, seeds, out)

        monkeypatch.setattr(runner, "augment_pixels", spy)
        result = runner.run_training(config)
        assert len(augmented) == len(result.epochs) == 4
        for t, (pool, (ids, seeds)) in enumerate(zip(pools(result), augmented), start=1):
            # Every entry is augmented, in training order; the originals by
            # seeds of salt 1, the easy copies by the pool's own seeds.
            np.testing.assert_array_equal(ids, pool.entries)
            originals = pool.seeds < 0
            expected = pool.seeds.copy()
            expected[originals] = pacing.derive_augmentation_seed(config.seed, t, salt=1)
            np.testing.assert_array_equal(seeds, expected)
            assert (seeds >= 0).all() and originals.any()


class TestReductions:
    def test_no_shrink_milestone_equals_vanilla(self):
        # With the only milestone at the final epoch the curriculum never
        # leaves warm-up, so the sample stream must match vanilla exactly.
        dataset = DatasetConfig(n_train=40, n_test=20, seed=5)
        common = dict(
            dataset=dataset, total_epochs=5, batch_size=16, hidden_units=8, seed=5
        )
        dffc_cfg = runner.RunConfig(milestones=(5,), **common)
        vanilla_cfg = runner.RunConfig(mode="vanilla", **common)
        a = runner.run_training(dffc_cfg)
        b = runner.run_training(vanilla_cfg)
        assert_pool_streams_equal(a, b)
        assert metrics_text(a) == metrics_text(b)

    def test_zero_alpha_f_equals_dih(self):
        dataset = DatasetConfig(n_train=40, n_test=20, seed=5)
        common = dict(
            dataset=dataset,
            total_epochs=6,
            milestones=(2, 3, 4),
            easy_pool_size=5,
            batch_size=16,
            hidden_units=8,
            seed=5,
        )
        dffc_cfg = runner.RunConfig(mode="dffc", alpha_f=0.0, **common)
        dih_cfg = runner.RunConfig(mode="dih", alpha_f=0.0, **common)
        a = runner.run_training(dffc_cfg)
        b = runner.run_training(dih_cfg)
        for pa, pb in zip(pools(a), pools(b), strict=True):
            np.testing.assert_array_equal(hard_ids(pa), hard_ids(pb))
            np.testing.assert_array_equal(easy_ids(pa), easy_ids(pb))
        assert_pool_streams_equal(a, b)
        assert metrics_text(a) == metrics_text(b)


class TestEvaluate:
    def test_empty_test_set_rejected(self):
        params = init_params(4, 2, seed=0)
        with pytest.raises(ValueError, match="empty test set"):
            runner.evaluate(params, np.empty((0, 4)), np.array([]), np.array([]))


class TestInputTransform:
    def test_out_receives_the_allocating_result_bit_for_bit(self):
        # float32 pixel values held in float64, as the dataset's are.
        images = np.random.default_rng(30).uniform(0, 1, (50, 8, 8))
        images = images.astype(np.float32).astype(np.float64)
        to_input = runner.fit_input_transform(images[:40])
        expected = to_input(images)
        assert expected.shape == (50, 64) and expected.dtype == TRAIN_DTYPE
        out = np.full((50, 64), np.nan, dtype=TRAIN_DTYPE)
        assert to_input(images, out=out) is out
        assert out.tobytes() == expected.tobytes()
        # In place over rows of raw float32 pixels, as run_training
        # standardizes the augmented rows augment_pixels writes.
        rows = images.reshape(50, 64).astype(TRAIN_DTYPE)
        assert to_input(rows, out=rows) is rows
        assert rows.tobytes() == expected.tobytes()

    def test_rows_round_the_float64_standardization(self):
        # Centred and scaled in float64, each step rounded to float32: within
        # one float32 ulp of the float64 transform rounded once.
        images = np.random.default_rng(31).uniform(0, 1, (50, 8, 8))
        to_input = runner.fit_input_transform(images[:40])
        exact = to_input(images, out=np.empty((50, 64)))
        rows = to_input(images)
        ulp = np.spacing(np.abs(exact).astype(np.float32))
        assert np.all(np.abs(rows - exact.astype(np.float32)) <= ulp)


class TestEpochAssembly:
    def test_chunk_size_does_not_change_the_run(self, small_run_config, monkeypatch):
        # Ten easy copies per epoch: chunks of 3 split them 3+3+3+1.
        reference = runner.run_training(small_run_config)
        monkeypatch.setattr(augment, "AUGMENT_CHUNK", 3)
        chunked = runner.run_training(small_run_config)
        assert metrics_text(chunked) == metrics_text(reference)
        assert_pool_streams_equal(chunked, reference)

    @pytest.mark.parametrize("augment_all", [False, True])
    def test_row_store_feeds_the_batches_of_a_separate_augmented_matrix(
        self, small_run_config, monkeypatch, augment_all
    ):
        # Each batch is one gather from the run's row store. It must equal the
        # batch gathered from the standardized training matrix with its
        # augmented rows overwritten from the epoch's own augment_pixels
        # output. Under augment_all the store grows in epoch 1; epoch 3's
        # hard and easy parts overlap.
        config = dataclasses.replace(small_run_config, augment_all=augment_all)
        real_gradients, batches = runner.gradients, []

        def spy(params, X, y):
            batches.append(X.copy())
            return real_gradients(params, X, y)

        monkeypatch.setattr(runner, "gradients", spy)
        result = runner.run_training(config)
        train, _ = generate_dataset(config.dataset)
        to_input = runner.fit_input_transform(train.images)
        X_train = to_input(train.images)
        batches = iter(batches)
        for t, pool in enumerate(pools(result), start=1):
            ids, seeds = pool.entries, pool.seeds.copy()
            originals = seeds < 0
            if augment_all:
                seeds[originals] = pacing.derive_augmentation_seed(config.seed, t, salt=1)
            augmented = np.flatnonzero(seeds >= 0)
            X_augmented = np.empty((len(augmented), X_train.shape[1]), dtype=X_train.dtype)
            if len(augmented):
                augment.augment_pixels(
                    train.images, ids[augmented], config.augment, seeds[augmented], X_augmented
                )
                to_input(X_augmented, out=X_augmented)
            if t == 1:
                assert len(augmented) == (len(ids) if augment_all else 0)
            for start in range(0, len(ids), config.batch_size):
                stop = start + config.batch_size
                expected = X_train[ids[start:stop]]
                mine = (augmented >= start) & (augmented < stop)
                expected[augmented[mine] - start] = X_augmented[mine]
                assert next(batches).tobytes() == expected.tobytes(), (t, start)
        assert next(batches, None) is None
        assert result.epochs[2]["overlap"] > 0

    def test_non_finite_epoch_loss_rejected(self, small_run_config, monkeypatch):
        real_bce = runner.bce_loss
        calls = []

        def nan_after_epoch_1(probs, y):
            # Epoch 1 makes two calls: one for its 60 training losses and
            # one for the test set.
            calls.append(None)
            losses = real_bce(probs, y)
            return losses if len(calls) <= 2 else np.full_like(losses, np.nan)

        monkeypatch.setattr(runner, "bce_loss", nan_after_epoch_1)
        with pytest.raises(ValueError, match="epoch 2: non-finite training loss nan"):
            runner.run_training(small_run_config)

    def test_non_finite_loss_names_its_own_sample(self, small_run_config, monkeypatch):
        # The second batch's probability at row 5 (entry 16 + 5) is NaN;
        # the error names that entry's sample, not the first batch's.
        real_gradients, real_build_pool = runner.gradients, runner._build_pool
        pools, calls = [], []

        def keep_pool(*args):
            pools.append(real_build_pool(*args))
            return pools[-1]

        def nan_in_second_batch(params, X, y):
            grads, probs = real_gradients(params, X, y)
            calls.append(None)
            if len(calls) == 2:
                probs[5] = np.nan
            return grads, probs

        monkeypatch.setattr(runner, "_build_pool", keep_pool)
        monkeypatch.setattr(runner, "gradients", nan_in_second_batch)
        with pytest.raises(ValueError) as info:
            runner.run_training(small_run_config)
        sample = pools[0].entries[small_run_config.batch_size + 5]
        assert str(info.value) == f"epoch 1: non-finite training loss nan (sample {sample})"


class TestTrainingDtype:
    def test_every_batch_and_evaluation_runs_in_float32(self, monkeypatch):
        # A float64 operand anywhere in a step (the targets, a bias, the
        # transform's mean) would promote its matrix products to float64
        # without changing any result enough for another test to see.
        real_gradients, real_forward, real_augment = (
            runner.gradients, runner.forward_batch, runner.augment_pixels
        )
        dtypes = {"batch": set(), "grads": set(), "probs": set(), "eval": set(), "rows": set()}

        def gradients_spy(params, X, y):
            grads, probs = real_gradients(params, X, y)
            dtypes["batch"] |= {X.dtype, params.W1.dtype, params.b1.dtype, params.w2.dtype}
            dtypes["grads"] |= {grads.W1.dtype, grads.b1.dtype, grads.w2.dtype}
            dtypes["probs"].add(probs.dtype)
            return grads, probs

        def forward_spy(params, X):
            probs = real_forward(params, X)
            dtypes["eval"] |= {X.dtype, params.W1.dtype, probs.dtype}
            return probs

        def augment_spy(images, ids, spec, seeds, out):
            dtypes["rows"].add(out.dtype)
            return real_augment(images, ids, spec, seeds, out)

        monkeypatch.setattr(runner, "gradients", gradients_spy)
        monkeypatch.setattr(runner, "forward_batch", forward_spy)
        monkeypatch.setattr(runner, "augment_pixels", augment_spy)
        result = runner.run_training(cli.build_run_config(cli.resolve_config(None, SMALL)))
        assert dtypes == {name: {np.dtype(TRAIN_DTYPE)} for name in dtypes}
        final = result.final_params
        assert final.W1.dtype == final.b1.dtype == final.w2.dtype == TRAIN_DTYPE
        # The bookkeeping stays float64.
        assert all(record["losses"].dtype == np.float64 for record in result.epochs)
        assert result.train_hardness.dih.dtype == result.test_hardness.dih.dtype == np.float64
