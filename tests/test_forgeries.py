"""Tests for the synthetic forgery benchmark and its analysis metrics.

Oracle notes:
  [DERIVED] ssim golden 0.8673852211341008 -- computed by hand from the
      single-window formula (unit range, C1=1e-4, C2=9e-4, ddof=1) for
      a=[0,0,1,1], b=[0,0.5,1,1] on a 2x2 grid.
  [DERIVED] tampering-ratio 0.05 case -- constructed array of 20 pixels
      with exactly one pixel differing by more than the threshold.
  [DERIVED] laplacian_variance oracle -- direct convolution with the 3x3
      kernel using numpy padding, written independently of the source.
  [DERIVED] generation chunking -- each pair draws from its own
      generator, so the split is the same whatever the chunk size, and a
      smaller split is a prefix of a larger one.
  [TRIVIAL] determinism, pairing, ranges, validation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.stats import spearmanr

from dffc import forgeries
from dffc.errors import ConfigError
from dffc.forgeries import (
    DEFAULT_TAR_THRESHOLD,
    DatasetConfig,
    Split,
    dfh_extremes_report,
    generate_dataset,
    laplacian_variance,
    quality_prior,
    quality_priors,
    ssim,
    tampering_ratio,
)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=7))


def assert_splits_identical(a: Split, b: Split) -> None:
    for f in dataclasses.fields(Split):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


class TestDatasetConfig:
    def test_defaults_are_valid(self):
        cfg = DatasetConfig()
        assert cfg.n_train == 2000 and cfg.n_test == 1000
        assert cfg.image_size == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_train": 0},
            {"n_train": 101},
            {"n_test": -2},
            {"n_test": 3},
            {"image_size": 3},
            {"seed": -1},
            {"seed": 2**64},
            {"amplitude_range": (0.3, 0.1)},
            {"amplitude_range": (-0.1, 0.2)},
            {"blur_range": (1.0, 0.5)},
            {"blur_range": (-0.5, 0.5)},
            {"brightness_range": (0.1, -0.1)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetConfig(**kwargs)


class TestGeneration:
    def test_deterministic_across_calls(self, small_dataset):
        again = generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=7))
        for split, split_again in zip(small_dataset, again):
            assert_splits_identical(split, split_again)

    def test_seed_changes_content(self, small_dataset):
        train, _ = small_dataset
        other, _ = generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=8))
        assert not np.array_equal(train.images, other.images)

    def test_sizes_ids_and_balance(self, small_dataset):
        train, test = small_dataset
        assert len(train) == 80 and len(test) == 40
        for split in (train, test):
            n = len(split)
            for f in dataclasses.fields(Split):
                assert len(getattr(split, f.name)) == n, f.name
            assert split.targets.tolist() == [0.0, 1.0] * (n // 2)

    def test_pairing_structure(self, small_dataset):
        cfg = DatasetConfig(n_train=80, n_test=40, seed=7)
        train, _ = small_dataset
        reals, fakes = train.clean_images[0::2], train.clean_images[1::2]
        assert (train.amplitudes[0::2] == 0.0).all()
        # A fake is its real's base plus an artifact of at most its
        # amplitude, so row i - 1 holds the real that fake i was made from.
        amps = train.amplitudes[1::2]
        assert (np.abs(fakes - reals).max(axis=(1, 2)) <= amps).all()
        assert np.abs(fakes - np.roll(reals, 1, axis=0)).max() > cfg.amplitude_range[1]

    def test_pixel_and_parameter_ranges(self, small_dataset):
        cfg = DatasetConfig(n_train=80, n_test=40, seed=7)
        for split in small_dataset:
            assert split.images.shape[1:] == (cfg.image_size, cfg.image_size)
            assert split.images.min() >= 0.0 and split.images.max() <= 1.0
            lo, hi = cfg.blur_range
            assert ((lo <= split.blur_sigmas) & (split.blur_sigmas <= hi)).all()
            lo, hi = cfg.brightness_range
            deltas = split.brightness_deltas
            assert ((lo <= deltas) & (deltas <= hi)).all()
            lo, hi = cfg.amplitude_range
            amps = split.amplitudes[1::2]
            assert ((lo <= amps) & (amps <= hi)).all()

    def test_every_fake_differs_from_its_real(self, small_dataset):
        train, _ = small_dataset
        reals, fakes = train.clean_images[0::2], train.clean_images[1::2]
        assert (fakes != reals).any(axis=(1, 2)).all()

    def test_clean_images_present(self, small_dataset):
        train, _ = small_dataset
        assert train.clean_images.shape == train.images.shape
        assert train.clean_images.min() >= 0.0 and train.clean_images.max() <= 1.0

    def test_chunk_size_does_not_change_the_split(self, small_dataset, monkeypatch):
        monkeypatch.setattr(forgeries, "GENERATE_CHUNK", 3)
        chunked = generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=7))
        for split, split_chunked in zip(small_dataset, chunked):
            assert_splits_identical(split, split_chunked)

    def test_smaller_split_is_a_prefix(self, small_dataset):
        train, _ = small_dataset
        larger, _ = generate_dataset(DatasetConfig(n_train=400, n_test=40, seed=7))
        prefix = Split(*(getattr(larger, f.name)[:80] for f in dataclasses.fields(Split)))
        assert_splits_identical(train, prefix)


class TestTamperingRatio:
    def test_constructed_five_percent(self):
        real = np.zeros((4, 5))
        fake = real.copy()
        fake[0, 0] = 0.5  # exactly 1 of 20 pixels past the threshold
        assert tampering_ratio(fake, real) == pytest.approx(0.05, abs=0.0)

    def test_threshold_is_strict(self):
        real = np.zeros((2, 2))
        fake = np.full((2, 2), DEFAULT_TAR_THRESHOLD)
        assert tampering_ratio(fake, real) == 0.0
        fake_above = np.full((2, 2), DEFAULT_TAR_THRESHOLD * 1.01)
        assert tampering_ratio(fake_above, real) == 1.0

    def test_identical_images_are_zero(self):
        img = np.random.default_rng(0).uniform(size=(6, 6))
        assert tampering_ratio(img, img) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            tampering_ratio(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            tampering_ratio(np.zeros((2, 2)), np.zeros((2, 2)), threshold=0.0)


class TestSsim:
    def test_self_similarity_is_one(self):
        img = np.random.default_rng(1).uniform(size=(8, 8))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_golden_value(self):
        a = np.array([0.0, 0.0, 1.0, 1.0]).reshape(2, 2)
        b = np.array([0.0, 0.5, 1.0, 1.0]).reshape(2, 2)
        assert ssim(a, b) == pytest.approx(0.8673852211341008, abs=1e-15)

    def test_bounded_by_one_for_nonnegative_images(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(size=(5, 5))
            b = rng.uniform(size=(5, 5))
            assert ssim(a, b) <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 2)), np.zeros((2, 3)))


def _laplacian_variance_oracle(image: np.ndarray) -> float:
    padded = np.pad(image, 1, mode="reflect")
    resp = (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * padded[1:-1, 1:-1]
    )
    return float(resp.var())


class TestQualityPrior:
    def test_laplacian_variance_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            img = rng.uniform(size=(16, 16))
            assert laplacian_variance(img) == pytest.approx(
                _laplacian_variance_oracle(img), rel=1e-12
            )

    def test_constant_image_has_zero_variance(self):
        assert laplacian_variance(np.full((8, 8), 0.3)) == 0.0

    @pytest.mark.parametrize(
        "shape", [(4, 4), (5, 5), (16, 16), (32, 32), (3, 3), (7, 9), (33, 17)]
    )
    def test_stack_equals_per_image_taps_exactly(self, shape):
        # Reference: the single-image tap loop, image by image.
        kernel = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)

        def one(image):
            padded = np.pad(image, 1, mode="reflect")
            resp = np.zeros_like(image)
            for dy in range(3):
                for dx in range(3):
                    tap = kernel[dy, dx]
                    if tap:
                        resp += tap * padded[dy : dy + shape[0], dx : dx + shape[1]]
            return float(resp.var())

        stack = np.random.default_rng(sum(shape)).uniform(size=(6, *shape))
        expected = [one(image) for image in stack]
        assert laplacian_variance(stack).tolist() == expected
        assert [laplacian_variance(image) for image in stack] == expected

    def test_blur_increases_prior(self):
        train, _ = generate_dataset(DatasetConfig(n_train=4, n_test=2, seed=0))
        from dffc.augment import gaussian_blur

        img = train.images[0]
        normalizer = laplacian_variance(img)
        sharp = quality_prior(img, normalizer)
        blurred = quality_prior(gaussian_blur(img, 1.5), normalizer)
        assert blurred > sharp

    def test_priors_in_unit_interval_and_normalizer(self, small_dataset):
        train, _ = small_dataset
        priors, normalizer = quality_priors(train.images)
        assert priors.shape == (len(train),)
        assert normalizer > 0.0
        assert priors.min() >= 0.0 and priors.max() <= 1.0
        assert priors.min() == 0.0  # the sharpest sample defines the scale

    def test_prior_tracks_blur_strength(self, small_dataset):
        # The prior exists to proxy post-processing degradation; it must
        # correlate with the known blur sigma, not with scene content.
        train, _ = small_dataset
        priors, _ = quality_priors(train.images)
        rho = spearmanr(train.blur_sigmas, priors).statistic
        assert rho > 0.5, f"Spearman(blur, prior) = {rho:.3f}"

    def test_normalizer_validation(self):
        with pytest.raises(ValueError):
            quality_prior(np.zeros((4, 4)), 0.0)
        with pytest.raises(ValueError):
            quality_priors(np.zeros((1, 4, 4)), normalizer=-1.0)


class TestExtremesReport:
    def test_constructed_ranking(self, small_dataset):
        train, _ = small_dataset
        # Score fakes by their own amplitude: strongest artifact -> top.
        report = dfh_extremes_report(train, train.amplitudes, fraction=0.1)
        n_fakes = len(train) // 2
        m = max(1, int(n_fakes * 0.1))
        assert len(report["top"]["ids"]) == m
        assert len(report["bottom"]["ids"]) == m
        assert all(i % 2 == 1 for i in report["top"]["ids"] + report["bottom"]["ids"])
        top_amps = train.amplitudes[report["top"]["ids"]]
        bottom_amps = train.amplitudes[report["bottom"]["ids"]]
        assert top_amps.min() >= bottom_amps.max()

    def test_stats_follow_the_ranking(self, small_dataset):
        # Rank fakes by the very quantity each stat reports; the grouped
        # means must then separate in the matching direction.
        train, _ = small_dataset
        clean = train.clean_images
        tar_scores = np.zeros(len(train))
        ssim_scores = np.zeros(len(train))
        for i in range(1, len(train), 2):
            tar_scores[i] = tampering_ratio(clean[i], clean[i - 1])
            ssim_scores[i] = -ssim(clean[i], clean[i - 1])
        by_tar = dfh_extremes_report(train, tar_scores, fraction=0.1)
        assert by_tar["top"]["mean_tar"] > by_tar["bottom"]["mean_tar"]
        by_ssim = dfh_extremes_report(train, ssim_scores, fraction=0.1)
        assert by_ssim["top"]["mean_ssim"] < by_ssim["bottom"]["mean_ssim"]

    def test_fraction_validation(self, small_dataset):
        train, _ = small_dataset
        scores = np.zeros(len(train))
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(ValueError):
                dfh_extremes_report(train, scores, fraction=bad)

    def test_requires_fakes(self):
        empty = Split(np.zeros((0, 4, 4)), np.zeros((0, 4, 4)), *np.zeros((3, 0)))
        with pytest.raises(ValueError):
            dfh_extremes_report(empty, np.zeros(0), fraction=0.1)
