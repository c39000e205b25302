"""Tests for the synthetic forgery benchmark and its analysis metrics.

Oracle notes:
  [DERIVED] ssim golden 0.8673852211341008 -- computed by hand from the
      single-window formula (unit range, C1=1e-4, C2=9e-4, ddof=1) for
      a=[0,0,1,1], b=[0,0.5,1,1] on a 2x2 grid.
  [DERIVED] tampering-ratio 0.05 case -- constructed array of 20 pixels
      with exactly one pixel differing by more than the threshold.
  [DERIVED] laplacian_variance oracle -- direct convolution with the 3x3
      kernel using numpy padding, written independently of the source.
  [TRIVIAL] determinism, pairing, ranges, validation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import spearmanr

from dffc.errors import ConfigError
from dffc.forgeries import (
    DEFAULT_TAR_THRESHOLD,
    LABEL_FAKE,
    LABEL_REAL,
    DatasetConfig,
    ToySample,
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
        train, test = small_dataset
        train2, test2 = generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=7))
        for a, b in zip(train + test, train2 + test2):
            assert a.id == b.id and a.label == b.label
            np.testing.assert_array_equal(a.image, b.image)

    def test_seed_changes_content(self, small_dataset):
        train, _ = small_dataset
        other, _ = generate_dataset(DatasetConfig(n_train=80, n_test=40, seed=8))
        assert any(
            not np.array_equal(a.image, b.image) for a, b in zip(train, other)
        )

    def test_sizes_ids_and_balance(self, small_dataset):
        train, test = small_dataset
        assert len(train) == 80 and len(test) == 40
        for split in (train, test):
            assert [s.id for s in split] == list(range(len(split)))
            n_fake = sum(s.is_fake for s in split)
            assert n_fake == len(split) // 2

    def test_pairing_structure(self, small_dataset):
        train, _ = small_dataset
        for s in train:
            if s.label == LABEL_REAL:
                assert s.paired_real_id is None
                assert s.artifact_mask is None
                assert s.artifact_amplitude == 0.0
                assert s.target == 0.0
            else:
                assert s.label == LABEL_FAKE
                assert s.paired_real_id == s.id - 1
                assert train[s.paired_real_id].label == LABEL_REAL
                assert s.target == 1.0

    def test_pixel_and_parameter_ranges(self, small_dataset):
        cfg = DatasetConfig(n_train=80, n_test=40, seed=7)
        train, test = small_dataset
        for s in train + test:
            assert s.image.shape == (cfg.image_size, cfg.image_size)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert cfg.blur_range[0] <= s.blur_sigma <= cfg.blur_range[1]
            lo, hi = cfg.brightness_range
            assert lo <= s.brightness_delta <= hi
            if s.is_fake:
                alo, ahi = cfg.amplitude_range
                assert alo <= s.artifact_amplitude <= ahi

    def test_mask_matches_tamper_support(self, small_dataset):
        train, _ = small_dataset
        for s in train:
            if not s.is_fake:
                continue
            real = train[s.paired_real_id]
            diff = np.abs(s.clean_image - real.clean_image) > 0.0
            # The modulated bump can be zero at isolated pixels inside its
            # support, but every tampered pixel must be inside the mask.
            assert np.all(s.artifact_mask[diff])
            assert s.artifact_mask.any()

    def test_clean_images_present(self, small_dataset):
        train, _ = small_dataset
        for s in train:
            assert s.clean_image is not None
            assert s.clean_image.min() >= 0.0 and s.clean_image.max() <= 1.0


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

        img = train[0].image
        normalizer = laplacian_variance(img)
        sharp = quality_prior(img, normalizer)
        blurred = quality_prior(gaussian_blur(img, 1.5), normalizer)
        assert blurred > sharp

    def test_priors_in_unit_interval_and_normalizer(self, small_dataset):
        train, _ = small_dataset
        priors, normalizer = quality_priors(train)
        assert priors.shape == (len(train),)
        assert normalizer > 0.0
        assert priors.min() >= 0.0 and priors.max() <= 1.0
        assert priors.min() == 0.0  # the sharpest sample defines the scale

    def test_prior_tracks_blur_strength(self, small_dataset):
        # The prior exists to proxy post-processing degradation; it must
        # correlate with the known blur sigma, not with scene content.
        train, _ = small_dataset
        priors, _ = quality_priors(train)
        sigmas = np.array([s.blur_sigma for s in train])
        rho = spearmanr(sigmas, priors).statistic
        assert rho > 0.5, f"Spearman(blur, prior) = {rho:.3f}"

    def test_normalizer_validation(self):
        with pytest.raises(ValueError):
            quality_prior(np.zeros((4, 4)), 0.0)
        with pytest.raises(ValueError):
            quality_priors(
                [ToySample(id=0, image=np.zeros((4, 4)), label=LABEL_REAL,
                           artifact_amplitude=0.0, blur_sigma=0.0,
                           brightness_delta=0.0)],
                normalizer=-1.0,
            )


class TestExtremesReport:
    def test_constructed_ranking(self, small_dataset):
        train, _ = small_dataset
        # Score fakes by their own amplitude: strongest artifact -> top.
        scores = np.zeros(len(train))
        for s in train:
            scores[s.id] = s.artifact_amplitude
        report = dfh_extremes_report(train, scores, fraction=0.1)
        n_fakes = len(train) // 2
        m = max(1, int(n_fakes * 0.1))
        assert len(report["top"]["ids"]) == m
        assert len(report["bottom"]["ids"]) == m
        amp = {s.id: s.artifact_amplitude for s in train if s.is_fake}
        top_amps = [amp[i] for i in report["top"]["ids"]]
        bottom_amps = [amp[i] for i in report["bottom"]["ids"]]
        assert min(top_amps) >= max(bottom_amps)

    def test_stats_follow_the_ranking(self, small_dataset):
        # Rank fakes by the very quantity each stat reports; the grouped
        # means must then separate in the matching direction.
        train, _ = small_dataset
        by_id = {s.id: s for s in train}
        tar_scores = np.zeros(len(train))
        ssim_scores = np.zeros(len(train))
        for s in train:
            if s.is_fake:
                real = by_id[s.paired_real_id]
                tar_scores[s.id] = tampering_ratio(s.clean_image, real.clean_image)
                ssim_scores[s.id] = -ssim(s.clean_image, real.clean_image)
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

    def test_requires_clean_images(self, small_dataset):
        train, _ = small_dataset
        stripped = [
            ToySample(
                id=s.id, image=s.image, label=s.label,
                artifact_amplitude=s.artifact_amplitude,
                blur_sigma=s.blur_sigma, brightness_delta=s.brightness_delta,
                paired_real_id=s.paired_real_id,
            )
            for s in train
        ]
        with pytest.raises(ValueError):
            dfh_extremes_report(stripped, np.zeros(len(train)), fraction=0.1)

    def test_requires_fakes(self):
        reals = [
            ToySample(id=0, image=np.zeros((4, 4)), label=LABEL_REAL,
                      artifact_amplitude=0.0, blur_sigma=0.0,
                      brightness_delta=0.0, clean_image=np.zeros((4, 4)))
        ]
        with pytest.raises(ValueError):
            dfh_extremes_report(reals, np.zeros(1), fraction=0.1)

