"""Tests for the synthetic forgery benchmark and its analysis metrics.

Oracle notes:
  [DERIVED] ssim golden 0.8673852211341008 -- computed by hand from the
      single-window formula (unit range, C1=1e-4, C2=9e-4, ddof=1) for
      a=[0,0,1,1], b=[0,0.5,1,1] on a 2x2 grid.
  [DERIVED] tampering-ratio 0.05 case -- constructed array of 20 pixels
      with exactly one pixel differing by more than the threshold.
  [DERIVED] laplacian_variance oracle -- direct convolution with the 3x3
      kernel using numpy padding, written independently of the source.
  [DERIVED] pair draws -- pair p's 24 uniforms are row p of its split's
      table, which oracles.pair_draws rebuilds by scalar uniform calls.
  [DERIVED] generation chunking -- a pair's row depends only on the key
      and p, so the split is the same whatever the chunk size, a
      smaller split is a prefix of a larger one, and the clean pairs of
      any ids, in any order, are the matching rows of the whole split's.
  [DERIVED] base images and bumps -- oracles.base_images and oracles.bumps
      take every cosine at every pixel; the package takes each once per
      distinct argument and must give the same bits, at every size and
      inside whole splits at any chunk size.
  [DERIVED] post-processing -- each image is
      brightness_adjust(gaussian_blur(clean, sigma), delta) of oracles.py;
      a sigma whose 2 * sigma**2 underflows to 0 blurs as sigma 0 does.
  [TRIVIAL] determinism, pairing, ranges, validation.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import (
    base_images,
    brightness_adjust,
    bumps,
    gaussian_blur,
    laplacian_variances,
    pair_draws,
    ssim,
    tampering_ratio,
)

from dffc import forgeries
from dffc.errors import ConfigError
from dffc.forgeries import (
    DEFAULT_TAR_THRESHOLD,
    TEST_SPLIT,
    TRAIN_SPLIT,
    DatasetConfig,
    Split,
    clean_pairs,
    dfh_extremes_report,
    generate_dataset,
    laplacian_variance,
    quality_priors,
    ssims,
    tampering_ratios,
)


SMALL = DatasetConfig(n_train=80, n_test=40, seed=7)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SMALL)


def rebuild(config: DatasetConfig, split_code: int = TRAIN_SPLIT) -> tuple[np.ndarray, ...]:
    """``clean_pairs`` of every pair of a split, in pair order."""
    return clean_pairs(config, split_code, np.arange(config.split_size(split_code) // 2))


def assert_same_bits(a: np.ndarray, b: np.ndarray, name: str = "") -> None:
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_splits_identical(a: Split, b: Split) -> None:
    for f in dataclasses.fields(Split):
        assert_same_bits(getattr(a, f.name), getattr(b, f.name), f.name)


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
            {"brightness_range": (-1e308, 1e308)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetConfig(**kwargs)


class TestGeneration:
    def test_deterministic_across_calls(self, small_dataset):
        again = generate_dataset(SMALL)
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
        train, _ = small_dataset
        clean = rebuild(SMALL)[0]
        reals, fakes = clean[0::2], clean[1::2]
        assert (train.amplitudes[0::2] == 0.0).all()
        # A fake is its real's base plus an artifact of at most its
        # amplitude, so row i - 1 holds the real that fake i was made from.
        amps = train.amplitudes[1::2]
        assert (np.abs(fakes - reals).max(axis=(1, 2)) <= amps).all()
        assert np.abs(fakes - np.roll(reals, 1, axis=0)).max() > SMALL.amplitude_range[1]

    def test_pixel_and_parameter_ranges(self, small_dataset):
        for split, code in zip(small_dataset, (TRAIN_SPLIT, TEST_SPLIT)):
            assert split.images.shape[1:] == (SMALL.image_size, SMALL.image_size)
            assert split.images.min() >= 0.0 and split.images.max() <= 1.0
            lo, hi = SMALL.blur_range
            assert ((lo <= split.blur_sigmas) & (split.blur_sigmas <= hi)).all()
            lo, hi = SMALL.brightness_range
            deltas = rebuild(SMALL, code)[3]
            assert ((lo <= deltas) & (deltas <= hi)).all()
            lo, hi = SMALL.amplitude_range
            amps = split.amplitudes[1::2]
            assert ((lo <= amps) & (amps <= hi)).all()

    def test_every_fake_differs_from_its_real(self):
        clean = rebuild(SMALL)[0]
        reals, fakes = clean[0::2], clean[1::2]
        assert (fakes != reals).any(axis=(1, 2)).all()

    def test_clean_images_present(self, small_dataset):
        # The rebuilt clean images, post-processed by the single-image
        # oracles, are the split's images.
        for split, code in zip(small_dataset, (TRAIN_SPLIT, TEST_SPLIT)):
            clean, _, sigmas, deltas = rebuild(SMALL, code)
            assert clean.shape == split.images.shape
            assert clean.min() >= 0.0 and clean.max() <= 1.0
            for i, (img, sigma, delta) in enumerate(zip(clean, sigmas, deltas)):
                post = brightness_adjust(gaussian_blur(img, float(sigma)), delta)
                assert_same_bits(post, split.images[i], str(i))

    @pytest.mark.parametrize("size", [5, 16])
    def test_underflowing_blur_sigma_blurs_as_zero_does(self, size):
        # 2 * sigma**2 underflows to 0 below about 1.5e-162; such a sigma
        # would make the kernel 0/0 at its centre.
        sizes = {"n_train": 80, "n_test": 40, "image_size": size}
        tiny = generate_dataset(DatasetConfig(**sizes, blur_range=(0.0, 1e-200)))
        zero = generate_dataset(DatasetConfig(**sizes, blur_range=(0.0, 0.0)))
        for split_tiny, split_zero in zip(tiny, zero):
            assert split_tiny.blur_sigmas.any()
            assert_same_bits(split_tiny.images, split_zero.images)
            assert_same_bits(split_tiny.amplitudes, split_zero.amplitudes)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_clean_pairs_of_shuffled_ids_match_the_full_rebuild(self, chunk, monkeypatch):
        monkeypatch.setattr(forgeries, "GENERATE_CHUNK", chunk)
        splits = zip(generate_dataset(SMALL), (TRAIN_SPLIT, TEST_SPLIT))
        for split, code in splits:
            full = rebuild(SMALL, code)
            assert_same_bits(full[1], split.amplitudes, "amplitudes")
            assert_same_bits(full[2], split.blur_sigmas, "blur_sigmas")
            n_pairs = len(split) // 2
            ids = np.random.default_rng(chunk).permutation(n_pairs)[: n_pairs // 2 + 1]
            rows = np.stack([2 * ids, 2 * ids + 1], axis=1).ravel()
            for part, whole in zip(clean_pairs(SMALL, code, ids), full):
                assert_same_bits(part, whole[rows])

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("split_code", [TRAIN_SPLIT, TEST_SPLIT])
    def test_pair_draws_match_the_scalar_oracle(self, seed, split_code):
        # An empty blur range still takes its draws.
        config = DatasetConfig(n_train=80, n_test=40, seed=seed, blur_range=(0.2, 0.2))
        n_pairs = config.split_size(split_code) // 2
        ids = np.array([n_pairs - 1, 0, 5, 5, 13])
        draws = forgeries._pair_draws(config, split_code, ids)
        assert draws.shape == (len(ids), 24)
        for pair, row in zip(ids, draws):
            assert row.tolist() == pair_draws(config, split_code, int(pair))

    def test_a_pair_does_not_depend_on_the_split_sizes_or_the_other_ids(self):
        # Pair 9 alone, of 20-pair splits, equals pair 9 among other ids of
        # 200- and 60-pair splits.
        small = DatasetConfig(n_train=40, n_test=40, seed=11)
        large = dataclasses.replace(small, n_train=400, n_test=120)
        for code in (TRAIN_SPLIT, TEST_SPLIT):
            alone = clean_pairs(small, code, np.array([9]))
            among = clean_pairs(large, code, np.array([17, 9, 0, 9]))
            for part, whole in zip(alone, among):
                assert_same_bits(part, whole[2:4])
                assert_same_bits(part, whole[6:8])

    @pytest.mark.parametrize("split_code", [TRAIN_SPLIT, TEST_SPLIT])
    def test_clean_pairs_rejects_ids_outside_the_split(self, split_code):
        n_pairs = SMALL.split_size(split_code) // 2
        for bad in (-1, n_pairs):
            with pytest.raises(ValueError, match=rf"^id {bad} outside 0\.\.{n_pairs - 1}$"):
                clean_pairs(SMALL, split_code, np.array([0, bad, 1]))

    def test_chunk_size_does_not_change_the_split(self, small_dataset, monkeypatch):
        monkeypatch.setattr(forgeries, "GENERATE_CHUNK", 3)
        chunked = generate_dataset(SMALL)
        for split, split_chunked in zip(small_dataset, chunked):
            assert_splits_identical(split, split_chunked)

    def test_smaller_split_is_a_prefix(self, small_dataset):
        train, _ = small_dataset
        larger, _ = generate_dataset(DatasetConfig(n_train=400, n_test=40, seed=7))
        prefix = Split(*(getattr(larger, f.name)[:80] for f in dataclasses.fields(Split)))
        assert_splits_identical(train, prefix)


class TestTemplates:
    @pytest.mark.parametrize("size", range(4, 34))
    def test_match_the_full_grid_references_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        amps = rng.uniform(0.2, 1.0, (9, len(forgeries._MODES)))
        phases = rng.uniform(0.0, 2.0 * np.pi, amps.shape)
        expected = base_images(amps, phases, size)
        assert_same_bits(forgeries._base_images(amps, phases, size), expected)
        # Bumps in the generator's bounds (cx, cy, rx, ry, phase), wider ones
        # reaching past the frame, one whose ellipse holds no pixel and one
        # that passes exactly through pixels (r == 1 at (3, 0) and (0, 1)).
        in_bounds = [(0.25, 0.75), (0.25, 0.75), (0.33, 0.45), (0.33, 0.45)]
        wide = [(-1.0, 2.0), (-1.0, 2.0), (0.01, 2.0), (0.01, 2.0)]
        draws = [
            [*(rng.uniform(lo, hi) * size for lo, hi in ranges), rng.uniform(0.0, 2.0 * np.pi)]
            for ranges in [in_bounds] * 6 + [wide] * 6
        ]
        draws = np.array(draws + [[0.5, 0.5, 0.1, 0.1, 1.0], [0.0, 0.0, 3.0, 1.0, 0.5]])
        assert_same_bits(forgeries._bumps(draws, size), bumps(draws, size))

    def test_base_images_gather_nothing_the_size_of_the_grid(self):
        # Beyond the output, only per-mode tables of at most 3 * size terms
        # per image and a few (size, size) masks are allocated. Gathering a
        # mode's terms onto the grid would add a whole output's worth.
        m, size = 128, 64
        rng = np.random.default_rng(5)
        amps = rng.uniform(0.2, 1.0, (m, len(forgeries._MODES)))
        phases = rng.uniform(0.0, 2.0 * np.pi, amps.shape)
        output = m * size * size * 8
        tracemalloc.start()
        try:
            forgeries._base_images(amps, phases, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = 4 * m * 3 * size * 8 + 4 * size * size * 8
        assert peak <= output + tables < 2 * output, (peak, output, tables)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("size", [5, 17, 32])
    def test_split_matches_the_one_built_from_the_references(self, size, chunk, monkeypatch):
        config = DatasetConfig(n_train=14, n_test=10, image_size=size, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(forgeries, "_base_images", base_images)
            patch.setattr(forgeries, "_bumps", bumps)
            expected = generate_dataset(config)
        monkeypatch.setattr(forgeries, "GENERATE_CHUNK", chunk)
        for split, split_expected in zip(generate_dataset(config), expected):
            assert_splits_identical(split, split_expected)


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


class TestRowwiseMetrics:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [4, 5, 16, 32])
    def test_match_the_single_image_references_bit_for_bit(self, size, seed):
        # The default 1000 pairs: squaring a mean by multiplication instead
        # of pow() moves its last bit about once in a thousand values.
        config = DatasetConfig(n_test=10, image_size=size, seed=seed)
        clean = rebuild(config)[0]
        fakes, reals = clean[1::2], clean[::2]
        rows = [stack.reshape(len(stack), -1) for stack in (fakes, reals)]
        pairs = list(zip(fakes, reals))
        assert tampering_ratios(*rows).tolist() == [tampering_ratio(f, r) for f, r in pairs]
        assert ssims(*rows).tolist() == [ssim(f, r) for f, r in pairs]


def _tap_loop_variance(image: np.ndarray) -> float:
    """The single-image tap loop of the Laplacian, each tap multiplied in."""
    kernel = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)
    h, w = image.shape
    padded = np.pad(image, 1, mode="reflect")
    resp = np.zeros_like(image)
    for dy in range(3):
        for dx in range(3):
            tap = kernel[dy, dx]
            if tap:
                resp += tap * padded[dy : dy + h, dx : dx + w]
    return float(resp.var())


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
            assert laplacian_variance(img[None])[0] == pytest.approx(
                _laplacian_variance_oracle(img), rel=1e-12
            )

    def test_constant_image_has_zero_variance(self):
        assert laplacian_variance(np.full((1, 8, 8), 0.3))[0] == 0.0

    @pytest.mark.parametrize(
        "shape", [(4, 4), (5, 5), (16, 16), (32, 32), (3, 3), (7, 9), (33, 17)]
    )
    def test_stack_equals_per_image_taps_exactly(self, shape):
        stack = np.random.default_rng(sum(shape)).uniform(size=(6, *shape))
        expected = [_tap_loop_variance(image) for image in stack]
        assert laplacian_variance(stack).tolist() == expected
        assert [laplacian_variance(image[None])[0] for image in stack] == expected

    def test_stack_larger_than_its_chunk_equals_per_image_taps_exactly(self):
        # Two whole chunks and a part one.
        n = 2 * forgeries.GENERATE_CHUNK + 44
        stack = np.random.default_rng(40).uniform(size=(n, 16, 16))
        expected = [_tap_loop_variance(image) for image in stack]
        assert laplacian_variance(stack).tolist() == expected

    @pytest.mark.parametrize(
        "shape", [(4, 4), (5, 5), (16, 16), (4, 5), (5, 16), (16, 4)]
    )
    def test_gathered_padding_equals_np_pad_across_chunks(self, shape):
        # One whole chunk and a part one.
        n = forgeries.GENERATE_CHUNK + 37
        stack = np.random.default_rng(sum(shape) + 1).uniform(size=(n, *shape))
        assert laplacian_variance(stack).tolist() == laplacian_variances(stack).tolist()

    def test_blur_increases_prior(self):
        train, _ = generate_dataset(DatasetConfig(n_train=4, n_test=2, seed=0))
        img = train.images[0]
        normalizer = laplacian_variance(img[None])[0]
        (sharp, blurred), _ = quality_priors(np.stack([img, gaussian_blur(img, 1.5)]), normalizer)
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
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        train, _ = small_dataset
        priors, _ = quality_priors(train.images)
        rho = spearmanr(train.blur_sigmas, priors).statistic
        assert rho > 0.5, f"Spearman(blur, prior) = {rho:.3f}"

    def test_normalizer_validation(self):
        with pytest.raises(ValueError):
            quality_priors(np.zeros((1, 4, 4)), normalizer=0.0)
        with pytest.raises(ValueError):
            quality_priors(np.zeros((1, 4, 4)), normalizer=-1.0)

    @pytest.mark.parametrize("normalizer", [0.0, -1.0, np.nan])
    def test_explicit_normalizer_named_with_its_value(self, normalizer):
        with pytest.raises(ValueError, match=f"normalizer must be positive, got {normalizer}"):
            quality_priors(np.ones((2, 4, 4)), normalizer=normalizer)

    def test_flat_images_named_with_their_count(self):
        with pytest.raises(ValueError, match="all 3 images are flat"):
            quality_priors(np.full((3, 4, 4), 0.7))


class TestExtremesReport:
    def test_constructed_ranking(self, small_dataset):
        train, _ = small_dataset
        # Score fakes by their own amplitude: strongest artifact -> top.
        report = dfh_extremes_report(SMALL, TRAIN_SPLIT, train.amplitudes)
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
        clean = rebuild(SMALL)[0]
        tar_scores = np.zeros(len(train))
        ssim_scores = np.zeros(len(train))
        for i in range(1, len(train), 2):
            tar_scores[i] = tampering_ratio(clean[i], clean[i - 1])
            ssim_scores[i] = -ssim(clean[i], clean[i - 1])
        by_tar = dfh_extremes_report(SMALL, TRAIN_SPLIT, tar_scores)
        assert by_tar["top"]["mean_tar"] > by_tar["bottom"]["mean_tar"]
        by_ssim = dfh_extremes_report(SMALL, TRAIN_SPLIT, ssim_scores)
        assert by_ssim["top"]["mean_ssim"] < by_ssim["bottom"]["mean_ssim"]

    def test_requires_fakes(self):
        with pytest.raises(ValueError, match="split 1 has 40 samples, got 0 scores"):
            dfh_extremes_report(SMALL, TEST_SPLIT, np.zeros(0))

    @pytest.mark.parametrize(
        "split_code, n_scores, n_samples",
        [(TRAIN_SPLIT, 79, 80), (TRAIN_SPLIT, 81, 80), (TRAIN_SPLIT, 40, 80), (TEST_SPLIT, 80, 40)],
    )
    def test_wrong_score_count_names_both_counts(self, split_code, n_scores, n_samples):
        match = f"split {split_code} has {n_samples} samples, got {n_scores} scores"
        with pytest.raises(ValueError, match=match):
            dfh_extremes_report(SMALL, split_code, np.zeros(n_scores))

    def test_unknown_split_code_is_named(self):
        with pytest.raises(ValueError, match="got 2"):
            dfh_extremes_report(SMALL, 2, np.zeros(40))
