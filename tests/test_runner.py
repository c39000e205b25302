"""Tests for the training runner: metrics, pooling invariants, reductions.

Oracle notes:
  [DERIVED] roc_auc hand case -- scores [0.1,0.4,0.35,0.8], labels
      [0,0,1,1]: one of four positive/negative pairs is mis-ranked,
      AUC = 0.75.
  [DERIVED] loss wiring -- epoch-1 first-batch losses must equal BCE of
      the forward pass at the initial parameters, reconstructed outside
      the runner from the same standardization.
  [DERIVED] reductions -- a hard-pool milestone at the final epoch makes
      curriculum selection inert, so entry and loss streams must equal
      vanilla's; alpha_f=0 makes dffc's pools equal dih's.
  [TRIVIAL] config validation, determinism, CSV shape.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dffc import forgeries, hardness, pacing, runner
from dffc.errors import ConfigError
from dffc.forgeries import DatasetConfig, generate_dataset, quality_priors
from dffc.model import bce_loss, forward_batch, init_params


def metrics_text(result: runner.MetricsLog) -> str:
    return runner.csv_text(runner.METRICS_COLUMNS, result.rows)


def pool_log_text(result: runner.MetricsLog) -> str:
    return runner.csv_text(runner.POOL_LOG_COLUMNS, result.pool_rows)


def comparison_text(rows: list[dict]) -> str:
    return runner.csv_text(runner.COMPARISON_COLUMNS, rows)


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
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            runner.RunConfig(**kwargs)


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
        raw = train.images.reshape(len(train), -1)
        mean = raw.mean(axis=0)
        std = (raw.std(axis=0) + 1e-8) / runner.INPUT_GAIN
        params = init_params(raw.shape[1], config.hidden_units, config.seed)

        pool = result.entry_streams[0]
        assert (pool.seeds[: config.batch_size] == -1).all()
        first = pool.entries[: config.batch_size]
        X = (raw[first] - mean) / std
        y = (first % 2).astype(np.float64)  # fakes are the odd rows
        expected = bce_loss(forward_batch(params, X), y)
        np.testing.assert_array_equal(result.loss_streams[0][: len(first)], expected)

    def test_dih_updates_only_inside_hard_pool(self, small_result):
        config, result = small_result
        # Replay which sample ids were eligible for a DIH update and check
        # the recorded update counts match exactly.
        expected_counts = np.zeros(config.dataset.n_train, dtype=int)
        for pool in result.entry_streams:
            expected_counts[pool.entries[pool.seeds == -1]] += 1
        np.testing.assert_array_equal(result.train_hardness.update_count, expected_counts)
        # Samples never selected after the warm-up keep fewer updates.
        assert expected_counts.max() == config.total_epochs
        assert expected_counts.min() < config.total_epochs

    def test_pool_size_trajectory(self, small_result):
        config, result = small_result
        schedule = config.pacing_schedule(config.dataset.n_train)
        sizes = [row["pool_size"] for row in result.rows]
        expected = [
            pacing.pool_size_at_epoch(schedule, t)
            for t in range(1, config.total_epochs + 1)
        ]
        assert sizes == expected

    def test_easy_pool_appears_after_warmup(self, small_result):
        config, result = small_result
        warmup = config.milestones[0]
        for t, pool in enumerate(result.entry_streams, start=1):
            if t <= warmup:
                assert len(pool.easy_ids) == 0
            else:
                assert len(pool.easy_ids) == config.easy_pool_size

    def test_metrics_rows_shape(self, small_result):
        config, result = small_result
        assert len(result.rows) == config.total_epochs
        for row in result.rows:
            assert 0.0 <= row["test_acc"] <= 1.0
            assert 0.0 <= row["test_auc"] <= 1.0
            assert row["eta"] <= config.eta_max

    def test_traces_recorded_from_start_epoch(self, small_result):
        config, result = small_result
        n_values = config.total_epochs - runner.TRACE_START_EPOCH + 1
        assert result.dfh_traces
        for trace in result.dfh_traces.values():
            assert trace["start_epoch"] == runner.TRACE_START_EPOCH
            assert len(trace["values"]) == n_values
        for group in ("top", "median", "bottom"):
            assert result.trace_groups[group]

    def test_extremes_report_present(self, small_result):
        _, result = small_result
        for side in ("top", "bottom"):
            assert "mean_tar" in result.extremes[side]
            assert "mean_ssim" in result.extremes[side]

    def test_byte_determinism(self, small_result):
        config, result = small_result
        again = runner.run_training(config)
        assert metrics_text(result) == metrics_text(again)
        assert pool_log_text(result) == pool_log_text(again)
        assert runner.dfh_trace_json(result) == runner.dfh_trace_json(again)


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
        for pool in result.entry_streams:
            assert pool.hard_ids.tolist() == list(range(40))
            assert len(pool.easy_ids) == 0

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
        hard_id_sets = [set(pool.hard_ids.tolist()) for pool in result.entry_streams]
        sizes = [len(h) for h in hard_id_sets]
        assert sizes == [10, 10, 20, 20, 40, 40]
        # Stages are easiest-first and nested.
        for a, b in zip(hard_id_sets, hard_id_sets[1:]):
            assert a <= b

    def test_augment_all_attaches_seeds_everywhere(self):
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
        result = runner.run_training(config)
        for pool in result.entry_streams:
            assert (pool.seeds >= 0).all()


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
        assert a.entry_streams == b.entry_streams
        for la, lb in zip(a.loss_streams, b.loss_streams):
            np.testing.assert_array_equal(la, lb)
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
        for pa, pb in zip(a.entry_streams, b.entry_streams, strict=True):
            np.testing.assert_array_equal(pa.hard_ids, pb.hard_ids)
            np.testing.assert_array_equal(pa.easy_ids, pb.easy_ids)
        assert a.entry_streams == b.entry_streams
        assert metrics_text(a) == metrics_text(b)


class TestCompare:
    def test_rows_and_csv(self):
        dataset = DatasetConfig(n_train=40, n_test=20, seed=6)
        configs = [
            runner.RunConfig(
                mode=mode, dataset=dataset, total_epochs=3,
                milestones=(2, 3), easy_pool_size=5,
                batch_size=16, hidden_units=8, seed=6,
                alpha_f=0.0 if mode == "dih" else 0.5,
            )
            for mode in ("vanilla", "dffc", "dih")
        ]
        rows = runner.compare_modes(configs)
        assert [r["mode"] for r in rows] == ["vanilla", "dffc", "dih"]
        text = comparison_text(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("mode,")
        assert len(lines) == 4
        summary = runner.summarize_comparison(rows)
        assert {s["mode"] for s in summary} == {"vanilla", "dffc", "dih"}
        assert all(s["n_seeds"] == 1 for s in summary)

    def test_mismatched_dataset_configs_rejected(self):
        configs = [
            runner.RunConfig(dataset=DatasetConfig(n_train=40, n_test=20, seed=1)),
            runner.RunConfig(dataset=DatasetConfig(n_train=80, n_test=20, image_size=8, seed=1)),
        ]
        with pytest.raises(ConfigError, match="dataset.n_train is 40 and 80"):
            runner.compare_modes(configs)

    def test_dataset_generated_once_with_unchanged_rows(self, monkeypatch):
        dataset = DatasetConfig(n_train=40, n_test=20, seed=6)
        configs = [
            runner.RunConfig(
                mode=mode, dataset=dataset, total_epochs=3, milestones=(2, 3),
                easy_pool_size=5, batch_size=16, hidden_units=8, seed=seed,
                augment_all=aug, alpha_f=0.0 if mode == "dih" else 0.5,
            )
            for mode, aug, seed in (
                ("vanilla", False, 6), ("dffc", False, 6), ("dffc", True, 7), ("dih", False, 6)
            )
        ]
        expected = []
        for config in configs:
            final = runner.run_training(config).rows[-1]
            expected.append(
                {
                    "mode": config.mode, "augment_all": config.augment_all,
                    "seed": config.seed, "final_acc": final["test_acc"],
                    "final_auc": final["test_auc"], "acc_hard": final["acc_hard"],
                }
            )
        generated = []
        generate = forgeries.generate_dataset
        monkeypatch.setattr(
            forgeries, "generate_dataset", lambda cfg: generated.append(cfg) or generate(cfg)
        )
        rows = runner.compare_modes(configs)
        assert generated == [dataset]
        assert comparison_text(rows) == comparison_text(expected)

    def test_mismatched_dataset_seeds_rejected(self):
        configs = [
            runner.RunConfig(dataset=DatasetConfig(n_train=40, n_test=20, seed=1)),
            runner.RunConfig(dataset=DatasetConfig(n_train=40, n_test=20, seed=2)),
        ]
        with pytest.raises(ConfigError):
            runner.compare_modes(configs)

    def test_empty_config_list_rejected(self):
        with pytest.raises(ConfigError):
            runner.compare_modes([])


class TestEvaluate:
    def test_empty_test_set_rejected(self):
        params = init_params(4, 2, seed=0)
        with pytest.raises(ValueError, match="empty test set"):
            runner.evaluate(params, np.empty((0, 4)), np.array([]), np.array([]))


class TestEpochAssembly:
    def test_chunk_size_does_not_change_the_run(self, small_run_config, monkeypatch):
        # Ten easy copies per epoch: chunks of 3 split them 3+3+3+1.
        reference = runner.run_training(small_run_config)
        monkeypatch.setattr(runner, "AUGMENT_CHUNK", 3)
        chunked = runner.run_training(small_run_config)
        assert metrics_text(chunked) == metrics_text(reference)
        for a, b in zip(chunked.loss_streams, reference.loss_streams):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_epoch_loss_rejected(self, small_run_config, monkeypatch):
        real_bce = runner.bce_loss
        calls = []

        def nan_after_epoch_1(probs, y):
            # Epoch 1 makes five calls: four batches of 16 (60 samples)
            # and one for the test set.
            calls.append(None)
            losses = real_bce(probs, y)
            return losses if len(calls) <= 5 else np.full_like(losses, np.nan)

        monkeypatch.setattr(runner, "bce_loss", nan_after_epoch_1)
        with pytest.raises(ValueError, match="epoch 2: non-finite training loss nan"):
            runner.run_training(small_run_config)
