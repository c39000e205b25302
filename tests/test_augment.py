"""Augmentation tests: kernel shape, identity cases, hand-checked warps,
seeded determinism, and ``augment_pixels`` checked for exact equality
against the single-image operations of ``oracles.py``. Most tests read
``augment_pixels`` through :func:`augment_stack`, which augments each image
of a stack by its own seed and returns the rows as a stack again. Each
entry's draws come from the scalar-loop oracle ``augmentation_draws``."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (
    affine,
    augmentation_bounds,
    augmentation_draws,
    band_matrix,
    brightness_adjust,
    gaussian_blur,
    gaussian_kernel_1d,
    table_row,
    tap_sum_blur,
)

from dffc import augment
from dffc.augment import (
    AugmentationSpec,
    _band_matrices,
    _pad_offsets,
    _radius_runs,
    _reflect_index,
    augment_pixels,
    blur_shift,
    table_rows,
)
from dffc.errors import ConfigError
from dffc.forgeries import DatasetConfig, generate_dataset


def augment_stack(images: np.ndarray, spec: AugmentationSpec, seeds) -> np.ndarray:
    """Each image of an ``(n, h, w)`` stack augmented by its own seed, as a stack."""
    return augment_ids(images, np.arange(len(images)), spec, seeds).reshape(images.shape)


def augment_ids(images: np.ndarray, ids, spec: AugmentationSpec, seeds) -> np.ndarray:
    """``augment_pixels`` of the entries ``ids`` of a stack, as fresh rows."""
    out = np.empty((len(ids), images[0].size))
    augment_pixels(images, np.asarray(ids), spec, seeds, out)
    return out


def blurred_shifted(images: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """:func:`blur_shift` of a stack, into a fresh stack."""
    out = np.empty_like(images)
    blur_shift(images, sigmas, deltas, out)
    return out


class TestKernel:
    def test_normalized_and_symmetric(self):
        k = gaussian_kernel_1d(1.3)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(k, k[::-1], atol=1e-15)

    def test_radius_covers_three_sigma(self):
        assert len(gaussian_kernel_1d(1.0)) == 2 * 3 + 1
        assert len(gaussian_kernel_1d(0.5)) == 2 * 2 + 1

    def test_values_match_analytic_form(self):
        sigma = 0.8
        k = gaussian_kernel_1d(sigma)
        radius = math.ceil(3 * sigma)
        raw = np.array(
            [math.exp(-(x**2) / (2 * sigma**2)) for x in range(-radius, radius + 1)]
        )
        np.testing.assert_allclose(k, raw / raw.sum(), atol=1e-12)


    def test_batched_kernels_equal_single_kernels_exactly(self):
        rng = np.random.default_rng(0)
        boundaries = np.array([k / 3.0 for k in range(1, 19)])
        # The smallest sigma whose 2 * sigma**2 does not underflow to 0.
        tiny = 1.5717277847026288e-162
        assert 2.0 * tiny**2 > 0.0 == 2.0 * np.nextafter(tiny, 0.0) ** 2
        underflow = np.array([0.0, 5e-324, 1e-200, np.nextafter(tiny, 0.0)])
        sigmas = np.concatenate(
            [
                rng.uniform(0.0, 3.0, 20000),
                10.0 ** rng.uniform(-4.0, 0.5, 2000),
                boundaries,
                np.nextafter(boundaries, 0.0),
                np.nextafter(boundaries, np.inf),
                [tiny],
                underflow,
            ]
        )
        seen = np.zeros(len(sigmas), dtype=int)
        radii = []
        for rows, taps in _radius_runs(sigmas):
            assert 0 < len(rows) <= augment.AUGMENT_CHUNK
            seen[rows] += 1
            if taps is None:
                # Radius 0 blurs nothing: sigma 0 and the sigmas whose single
                # kernel would be 0/0 at its centre.
                assert (2.0 * sigmas[rows] ** 2 == 0.0).all()
                radii.append(0)
                continue
            radii.append(taps.shape[1] // 2)
            for sigma, row in zip(sigmas[rows], taps):
                # Near tiny, x**2 / (2 * sigma**2) overflows to inf in the
                # single kernel, as in _radius_runs, and exp gives the side taps 0.
                with np.errstate(over="ignore"):
                    expected = gaussian_kernel_1d(float(sigma))
                assert np.array_equal(row, expected), sigma
        assert (seen == 1).all()
        assert radii == sorted(radii, reverse=True) and radii[-1] == 0


class TestReflectIndex:
    @staticmethod
    def expected(idx, n):
        if n == 1:
            return np.zeros_like(idx)
        m = np.mod(idx, 2 * n - 2)
        return np.where(m >= n, 2 * n - 2 - m, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33])
    def test_matches_period_formula(self, n):
        rng = np.random.default_rng(n)
        idx = np.concatenate(
            [
                rng.integers(-3 * n, 4 * n, 500),
                rng.integers(-(10**12), 10**12, 100),
                [-(10**12), 10**12, -1, 0, n - 1, n],
            ]
        )
        np.testing.assert_array_equal(_reflect_index(idx, n), self.expected(idx, n))

    def test_in_frame_indices_returned_unchanged(self):
        idx = np.arange(16).reshape(4, 4)
        np.testing.assert_array_equal(_reflect_index(idx, 16), idx)
        np.testing.assert_array_equal(idx, np.arange(16).reshape(4, 4))
        shifted = idx - 2
        np.testing.assert_array_equal(_reflect_index(shifted, 16), self.expected(shifted, 16))
        np.testing.assert_array_equal(shifted, idx - 2)


class TestBlur:
    def test_sigma_zero_is_identity_copy(self):
        # The image rounded to float32, as every blur computes, in float64.
        img = np.random.default_rng(0).uniform(0, 1, (8, 8))
        out = gaussian_blur(img, 0.0)
        assert out.dtype == np.float64
        assert out.tobytes() == img.astype(np.float32).astype(np.float64).tobytes()
        assert out is not img

    def test_constant_image_unchanged(self):
        # 0.4 rounded to float32 and the band product's rounding: 0.55 eps.
        img = np.full((6, 6), 0.4)
        np.testing.assert_allclose(gaussian_blur(img, 1.2), img, atol=np.finfo(np.float32).eps)

    def test_reduces_variance(self):
        img = np.random.default_rng(1).uniform(0, 1, (16, 16))
        assert gaussian_blur(img, 1.0).var() < img.var()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((4, 4)), -0.1)

    @pytest.mark.parametrize("size", [5, 16])
    def test_stack_equals_per_image_blur_exactly(self, size):
        # Sigmas up to 3 give radii up to 9, beyond a 5 px image.
        rng = np.random.default_rng(size)
        images = rng.uniform(0, 1, (12, size, size))
        sigmas = rng.uniform(0.0, 3.0, 12)
        sigmas[::3] = 0.0
        deltas = rng.uniform(-0.5, 0.5, 12)
        blurred = [gaussian_blur(img, s) for img, s in zip(images, sigmas)]
        expected = np.stack([brightness_adjust(b, d) for b, d in zip(blurred, deltas)])
        assert blurred_shifted(images, sigmas, deltas).tobytes() == expected.tobytes()
        # With no shift, the blur alone; with neither, the images rounded to float32.
        zeros = np.zeros(12)
        assert blurred_shifted(images, sigmas, zeros).tobytes() == np.stack(blurred).tobytes()
        rounded = images.astype(np.float32).astype(np.float64)
        assert blurred_shifted(images, zeros, zeros).tobytes() == rounded.tobytes()

    def test_huge_deltas_clip_to_ones_and_zeros(self):
        # A delta is clamped to [-1, 1] before its float32 cast, where 1e300
        # would overflow; the clamp changes no pixel of the float64 formula.
        rng = np.random.default_rng(31)
        images = rng.uniform(0, 1, (8, 9, 7))
        sigmas = np.tile([0.0, 1.3], 4)
        deltas = np.repeat([1e300, -1e300, 1e308, -1e308], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = blurred_shifted(images, sigmas, deltas)
        for image, sigma, delta, got in zip(images, sigmas, deltas, out):
            blurred = gaussian_blur(image, sigma, dtype=np.float64)
            expected = np.clip(blurred + delta, 0.0, 1.0)
            assert expected.tobytes() == np.full_like(image, float(delta > 0)).tobytes()
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_every_radius_in_one_stack(self, order):
        # Radius ceil(3 * sigma): two sigmas for each radius 1 to 5, and zeros.
        sigmas = np.array([0.0, 0.0, 0.0] + [r / 3.0 - d for r in range(1, 6) for d in (0.01, 0.3)])
        assert sorted({math.ceil(3 * s) for s in sigmas}) == [0, 1, 2, 3, 4, 5]
        if order == "descending":
            sigmas = sigmas[::-1]
        elif order == "shuffled":
            sigmas = np.random.default_rng(17).permutation(sigmas)
        images = np.random.default_rng(18).uniform(0, 1, (len(sigmas), 13, 9))
        deltas = np.random.default_rng(19).uniform(-0.2, 0.2, len(sigmas))
        blurred = [gaussian_blur(img, s) for img, s in zip(images, sigmas)]
        expected = np.stack([brightness_adjust(b, d) for b, d in zip(blurred, deltas)])
        assert blurred_shifted(images, sigmas, deltas).tobytes() == expected.tobytes()

    def test_writes_into_a_view_of_a_larger_stack(self):
        # As generation does: each chunk is written into its rows of the split.
        rng = np.random.default_rng(26)
        images = rng.uniform(0, 1, (10, 11, 7))
        sigmas = rng.uniform(0.0, 2.0, 10)
        sigmas[::4] = 0.0
        deltas = rng.uniform(-0.3, 0.3, 10)
        split = np.full((16, 11, 7), -1.0)
        blur_shift(images, sigmas, deltas, split[3:13])
        blurred = [gaussian_blur(img, s) for img, s in zip(images, sigmas)]
        expected = np.stack([brightness_adjust(b, d) for b, d in zip(blurred, deltas)])
        assert split[3:13].tobytes() == expected.tobytes()
        assert (split[:3] == -1.0).all() and (split[13:] == -1.0).all()

    def test_underflowing_sigma_blurs_as_zero_does(self):
        # 2 * sigma**2 underflows to 0 below about 1.5e-162.
        images = np.random.default_rng(20).uniform(0, 1, (6, 8, 8))
        deltas = np.linspace(-0.3, 0.3, 6)
        tiny = np.array([0.0, 5e-324, 1e-300, 1e-200, 1e-170, 1.5e-162])
        expected = blurred_shifted(images, np.zeros(6), deltas)
        assert blurred_shifted(images, tiny, deltas).tobytes() == expected.tobytes()
        seeds = list(range(300))
        images = np.random.default_rng(21).uniform(0, 1, (300, 16, 16))
        spec = AugmentationSpec(blur_sigma_range=(0.0, 1e-200))
        out = augment_stack(images, spec, seeds)
        assert np.isfinite(out).all()
        zero = AugmentationSpec(blur_sigma_range=(0.0, 0.0))
        assert out.tobytes() == augment_stack(images, zero, seeds).tobytes()


    def test_band_product_within_rounding_of_tap_sum(self):
        # The band product rounds the image and the band matrices to float32
        # and multiplies in float32, so its bits differ from the float64 tap
        # sum's. Measured on these cases, in float32 eps: at most 1.41 for
        # sigmas up to 1.5 (radius 5), and 1.31 for radii of 2 to 3 image
        # widths, which fold over more than one reflection period; the bound
        # is 2 for both.
        eps = np.finfo(np.float32).eps
        worst = {"narrow": 0.0, "wide": 0.0}
        for size in range(4, 34):
            rng = np.random.default_rng(size)
            for w in (size, 37 - size):
                image = rng.uniform(0, 1, (size, w))
                narrow = rng.uniform(0.0, 1.5, 6)
                wide = rng.uniform(2 * max(size, w) / 3, max(size, w), 2)
                assert (np.ceil(3 * wide) > 2 * (max(size, w) - 1)).all()
                for sigmas, kind in ((narrow, "narrow"), (wide, "wide")):
                    for sigma in sigmas:
                        taps = tap_sum_blur(image, gaussian_kernel_1d(sigma))
                        diff = np.abs(gaussian_blur(image, sigma) - taps)
                        worst[kind] = max(worst[kind], diff.max())
        assert max(worst.values()) <= 2 * eps, worst
        # Radius 0: the band matrices are identities, and both blurs the image.
        image = np.random.default_rng(3).uniform(0, 1, (9, 5))
        one = np.ones(1)
        blurred = band_matrix(one, 9) @ image @ band_matrix(one, 5).T
        assert blurred.tobytes() == image.tobytes()
        assert tap_sum_blur(image, one).tobytes() == image.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 33])
    def test_band_matrices_equal_the_scalar_loop(self, n):
        # Radii up to 12 fold over several reflection periods of a small axis.
        sigmas = np.random.default_rng(n).uniform(0.01, 4.0, 400)
        for rows, taps in _radius_runs(sigmas):
            if taps is None:
                continue
            bands = _band_matrices(taps, n)
            for sigma, band in zip(sigmas[rows], bands):
                assert band.tobytes() == band_matrix(gaussian_kernel_1d(sigma), n).tobytes()

    @pytest.mark.parametrize("size", [(16, 16), (9, 13), (5, 5)])
    def test_entry_bits_do_not_depend_on_its_run(self, size):
        # Sigmas in (1, 4/3] all take radius 4, so the entries share their
        # runs: of 1, 2, AUGMENT_CHUNK and AUGMENT_CHUNK + 1 (two runs).
        n = augment.AUGMENT_CHUNK + 1
        rng = np.random.default_rng(size[1])
        images = rng.uniform(0, 1, (n,) + size)
        sigmas = rng.uniform(1.0, 4.0 / 3.0, n)
        assert {math.ceil(3 * s) for s in sigmas} == {4}
        deltas = rng.uniform(-0.2, 0.2, n)
        whole = blurred_shifted(images, sigmas, deltas)
        expected = np.stack(
            [brightness_adjust(gaussian_blur(i, s), d) for i, s, d in zip(images, sigmas, deltas)]
        )
        assert whole.tobytes() == expected.tobytes()
        _, seeds = stack_and_seeds(n, 1, seed=size[0])
        spec = AugmentationSpec(blur_sigma_range=(1.0, 4.0 / 3.0))
        augmented = augment_stack(images, spec, seeds)
        for k in (1, 2, n - 1):
            part = blurred_shifted(images[-k:], sigmas[-k:], deltas[-k:])
            assert part.tobytes() == whole[-k:].tobytes(), k
            part = augment_ids(images, np.arange(n - k, n), spec, seeds[-k:])
            assert part.tobytes() == augmented[-k:].reshape(k, -1).tobytes(), k


class TestBrightness:
    def test_shift_and_clamp(self):
        img = np.array([[0.0, 0.5, 0.95]])
        np.testing.assert_allclose(
            brightness_adjust(img, 0.1), [[0.1, 0.6, 1.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            brightness_adjust(img, -0.2), [[0.0, 0.3, 0.75]], atol=1e-12
        )


class TestAffine:
    def test_identity_transform(self):
        img = np.random.default_rng(2).uniform(0, 1, (7, 9))
        np.testing.assert_allclose(affine(img, 0.0, 0.0, 0.0), img, atol=1e-12)

    def test_unit_translation_shifts_columns(self):
        img = np.random.default_rng(3).uniform(0, 1, (5, 5))
        out = affine(img, 0.0, 1.0, 0.0)
        # output(x, y) = input(x-1, y) away from the reflected border
        np.testing.assert_allclose(out[:, 1:], img[:, :-1], atol=1e-12)

    def test_quarter_turn_hand_case(self):
        img = np.arange(9, dtype=float).reshape(3, 3) / 10.0
        out = affine(img, 90.0, 0.0, 0.0)
        # For a 3x3 grid about center (1, 1): out[y, x] = in[2 - x, y].
        expected = np.array(
            [[img[2 - x, y] for x in range(3)] for y in range(3)]
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_vertical_translation(self):
        img = np.random.default_rng(4).uniform(0, 1, (6, 6))
        out = affine(img, 0.0, 0.0, 2.0)
        np.testing.assert_allclose(out[2:, :], img[:-2, :], atol=1e-12)


class TestSpec:
    def test_defaults(self):
        spec = AugmentationSpec()
        assert spec.blur_sigma_range == (0.0, 1.5)
        assert spec.brightness_range == (-0.15, 0.15)
        assert spec.rotation_range_degrees == (-10.0, 10.0)
        assert spec.translation_range_pixels == (-2.0, 2.0)

    def test_inverted_range_rejected(self):
        for bounds in ((0.2, -0.2), (1, 0)):
            with pytest.raises(ConfigError, match="brightness_range"):
                AugmentationSpec(brightness_range=bounds)
            with pytest.raises(ConfigError, match="blur_sigma_range"):
                AugmentationSpec(blur_sigma_range=bounds)

    def test_negative_blur_rejected(self):
        with pytest.raises(ConfigError, match="blur_sigma_range"):
            AugmentationSpec(blur_sigma_range=(-0.5, 1.0))

    def test_range_width_must_be_finite(self):
        # Uniform draws over a width beyond the largest float are not finite.
        with pytest.raises(ConfigError, match="brightness_range"):
            AugmentationSpec(brightness_range=(-1e308, 1e308))

    def test_translation_beyond_the_warp_index_rejected(self):
        # The warp reads pixels through int64 indices; a rotation can scale a
        # shift by sqrt(2), so 2**62 is the largest bound it can take.
        for bounds in ((1e19, 1e19), (-(2.0**62) - 2048, 0.0), (0.0, 2.0**63)):
            with pytest.raises(ConfigError, match="translation_range_pixels"):
                AugmentationSpec(translation_range_pixels=bounds)
        images = np.random.default_rng(4).uniform(0, 1, (3, 8, 8))
        for rotation in (-180.0, -45.0, 45.0, 135.0, 180.0):
            for shift in (-(2.0**62), 2.0**62):
                spec = AugmentationSpec(
                    rotation_range_degrees=(rotation, rotation),
                    translation_range_pixels=(shift, shift),
                )
                assert np.isfinite(augment_stack(images, spec, [1, 2, 3])).all()


class TestAugmentPixels:
    def test_same_seed_same_output(self):
        img = np.random.default_rng(5).uniform(0, 1, (1, 16, 16))
        spec = AugmentationSpec()
        np.testing.assert_array_equal(
            augment_stack(img, spec, [123]), augment_stack(img, spec, [123])
        )

    def test_different_seed_different_output(self):
        img = np.random.default_rng(6).uniform(0, 1, (1, 16, 16))
        spec = AugmentationSpec()
        assert not np.array_equal(
            augment_stack(img, spec, [1]), augment_stack(img, spec, [2])
        )

    def test_degenerate_spec_is_identity(self):
        img = np.random.default_rng(7).uniform(0, 1, (1, 8, 8))
        spec = AugmentationSpec(
            blur_sigma_range=(0.0, 0.0),
            brightness_range=(0.0, 0.0),
            rotation_range_degrees=(0.0, 0.0),
            translation_range_pixels=(0.0, 0.0),
        )
        np.testing.assert_allclose(augment_stack(img, spec, [99]), img, atol=1e-12)

    def test_output_stays_in_unit_range(self):
        img = np.random.default_rng(8).uniform(0, 1, (1, 16, 16))
        out = augment_stack(img, AugmentationSpec(), [77])
        assert out.min() >= 0.0 and out.max() <= 1.0


def oracle(image: np.ndarray, spec: AugmentationSpec, seed: int, sample_id: int) -> np.ndarray:
    """One image through the single-image operations, with the draws of
    sample ``sample_id`` under ``seed``."""
    sigma, delta, theta, dx, dy = augmentation_draws(spec, seed, sample_id)
    return affine(brightness_adjust(gaussian_blur(image, sigma), delta), theta, dx, dy)


def oracle_stack(images: np.ndarray, spec: AugmentationSpec, seeds) -> np.ndarray:
    """:func:`oracle` of each image of a stack, image i as sample i."""
    return np.stack([oracle(img, spec, s, i) for i, (img, s) in enumerate(zip(images, seeds))])


def stack_and_seeds(n: int, size: int, seed: int) -> tuple[np.ndarray, list[int]]:
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, size, size))
    return images, [int(s) for s in rng.integers(0, 2**63, n)]


class TestTableRows:
    """Rows of a keyed table of uniforms against the scalar-loop oracle."""

    BOUNDS = ((0.0, 1.5), (-0.15, 0.15), (-10.0, 10.0), (-2.0, 2.0), (3.0, 3.0))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_rows_match_the_scalar_loop(self, seed):
        ids = np.array([0, 40, 3, 3, 99, 1])
        got = table_rows(seed, self.BOUNDS, ids, 100)
        assert got.shape == (len(ids), len(self.BOUNDS))
        for i, row in zip(ids, got):
            assert row.tolist() == table_row(seed, self.BOUNDS, int(i))

    @pytest.mark.parametrize("seed", [0, 2**32 + 3, 2**64 - 1])
    @pytest.mark.parametrize("spawn_key", [(1, 0), (1, 1), (2, 9, 1)])
    def test_spawn_keyed_rows_match_the_scalar_loop(self, seed, spawn_key):
        # The lab's keys: a seed of one or two words, then a spawn key, over
        # as many bounds as a dataset pair draws, every seventh one empty.
        rng = np.random.default_rng(seed % 97)
        lows, widths = rng.uniform(-5.0, 5.0, 24), rng.uniform(0.0, 3.0, 24)
        widths[::7] = 0.0
        bounds = [(float(lo), float(lo + w)) for lo, w in zip(lows, widths)]
        ids = np.array([59, 0, 31, 7, 7])
        got = table_rows(np.random.SeedSequence(seed, spawn_key=spawn_key), bounds, ids, 60)
        assert got.shape == (len(ids), 24)
        for i, row in zip(ids, got):
            key = np.random.SeedSequence(seed, spawn_key=spawn_key)
            assert row.tolist() == table_row(key, bounds, int(i))

    def test_a_row_does_not_depend_on_the_table_or_the_other_ids(self):
        key = np.random.SeedSequence(5, spawn_key=(9,))
        alone = table_rows(key, self.BOUNDS, np.array([17]), 18)
        among = table_rows(key, self.BOUNDS, np.array([50, 17, 2]), 5000)
        assert alone[0].tobytes() == among[1].tobytes()

    @pytest.mark.parametrize("bad", [-1, -3, 30, 31, 2**32, 2**63 - 1])
    def test_ids_outside_the_table_rejected(self, bad):
        # A negative id must not read a row from the table's end.
        with pytest.raises(ValueError, match=rf"^id {bad} outside 0\.\.29$"):
            table_rows(3, self.BOUNDS, np.array([2, bad, 29]), 30)

    def test_no_ids_draw_no_rows(self):
        assert table_rows(3, self.BOUNDS, np.zeros(0, np.int64), 30).shape == (0, 5)
        assert table_rows(3, self.BOUNDS, np.zeros(0, np.int64), 0).shape == (0, 5)


class TestAugmentStack:
    @pytest.mark.parametrize(
        "size, spec",
        [
            (16, AugmentationSpec()),
            (32, AugmentationSpec()),
            # sigma 1.4 to 2 gives blur radius 5 or 6, beyond a 4 px image
            (4, AugmentationSpec(blur_sigma_range=(1.4, 2.0))),
            (16, AugmentationSpec(blur_sigma_range=(0.0, 0.0))),
            (16, AugmentationSpec(blur_sigma_range=(3.0, 6.0))),
            # shifts of many image widths read far outside the frame
            (8, AugmentationSpec(translation_range_pixels=(-1e6, 1e6))),
            (
                16,
                AugmentationSpec(
                    rotation_range_degrees=(-40.0, 40.0), translation_range_pixels=(-1e6, 1e6)
                ),
            ),
            # Negative cosines turn the grid over, so the reads' least and
            # greatest source coordinates sit at other corners of the image.
            ((16, 11), AugmentationSpec(rotation_range_degrees=(-180.0, 180.0))),
            # Angles of many turns, on a cropped stack wider than it is high.
            ((12, 16), AugmentationSpec(rotation_range_degrees=(-1e6, 1e6))),
        ],
    )
    def test_matches_single_image_oracle(self, size, spec):
        # An (h, w) size crops a square stack to a non-contiguous view.
        h, w = (size, size) if isinstance(size, int) else size
        images, seeds = stack_and_seeds(40, max(h, w), seed=h)
        images = images[:, :h, :w]
        out = augment_stack(images, spec, seeds)
        expected = oracle_stack(images, spec, seeds)
        assert out.shape == images.shape
        np.testing.assert_array_equal(out, expected)

    def test_mixed_radii_in_one_chunk(self):
        images, seeds = stack_and_seeds(64, 16, seed=11)
        spec = AugmentationSpec()
        radii = set()
        for i, s in enumerate(seeds):
            sigma = augmentation_draws(spec, s, i)[0]
            radii.add(len(gaussian_kernel_1d(sigma)) // 2)
        assert len(radii) >= 4
        expected = oracle_stack(images, spec, seeds)
        np.testing.assert_array_equal(augment_stack(images, spec, seeds), expected)

    @pytest.mark.parametrize("one_seed", [False, True])
    def test_output_does_not_depend_on_chunk_mates(self, one_seed):
        # An entry's pixels depend only on its image, its id and its seed:
        # with a seed per entry, and with one seed for all, as in an epoch.
        images, seeds = stack_and_seeds(30, 16, seed=13)
        if one_seed:
            seeds = seeds[:1] * 30
        spec = AugmentationSpec(blur_sigma_range=(0.0, 3.0))
        whole = augment_ids(images, np.arange(30), spec, seeds)
        order = np.random.default_rng(14).permutation(30)
        shuffled = augment_ids(images, order, spec, [seeds[i] for i in order])
        np.testing.assert_array_equal(shuffled, whole[order])
        for lo, hi in ((0, 1), (1, 7), (7, 30)):
            part = augment_ids(images, np.arange(lo, hi), spec, seeds[lo:hi])
            np.testing.assert_array_equal(part, whole[lo:hi])

    def test_stack_spanning_many_chunks(self, monkeypatch):
        # 300 entries in chunks of 7: 42 full chunks and one of 6.
        monkeypatch.setattr(augment, "AUGMENT_CHUNK", 7)
        images, seeds = stack_and_seeds(300, 16, seed=19)
        spec = AugmentationSpec()
        expected = oracle_stack(images, spec, seeds)
        assert augment_stack(images, spec, seeds).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [16, 32])
    def test_within_four_float32_eps_of_the_float64_formulas(self, size):
        # An epoch's call on the dataset's images: the pipeline computes in
        # float32 and stores float64. The same operations in float64 differ
        # by 1.9 eps here at 16 px and 3.1 eps at 32 px, where coordinates
        # near 32 round to a float32 ulp twice as coarse. The error is that
        # rounding times the image's gradient: on white-noise images it
        # reaches 17 and 26 eps.
        train, _ = generate_dataset(DatasetConfig(n_train=1000, n_test=2, image_size=size))
        spec, seed = AugmentationSpec(), 12345
        out = augment_stack(train.images, spec, [seed] * len(train))
        draws = table_rows(seed, augmentation_bounds(spec), np.arange(len(train)), len(train))
        exact = np.stack(
            [
                affine(
                    brightness_adjust(gaussian_blur(img, sigma, np.float64), delta, np.float64),
                    theta, dx, dy, np.float64,
                )
                for img, (sigma, delta, theta, dx, dy) in zip(train.images, draws)
            ]
        )
        assert np.abs(out - exact).max() <= 4 * np.finfo(np.float32).eps

    def test_input_left_untouched(self):
        images, seeds = stack_and_seeds(8, 16, seed=15)
        before = images.copy()
        augment_stack(images, AugmentationSpec(), seeds)
        np.testing.assert_array_equal(images, before)

    def test_ids_pick_the_source_images(self):
        # Entries read their images by id from a larger stack: out of order,
        # some ids repeated with different seeds, most never read.
        images, _ = stack_and_seeds(50, 16, seed=24)
        ids = np.array([7, 3, 3, 49, 0, 7, 7, 21, 3, 12] * 4)
        _, seeds = stack_and_seeds(len(ids), 1, seed=25)
        spec = AugmentationSpec(blur_sigma_range=(0.0, 3.0))
        out = np.empty((len(ids), 256))
        augment_pixels(images, ids, spec, seeds, out)
        expected = np.stack([oracle(images[i], spec, s, i).ravel() for i, s in zip(ids, seeds)])
        assert out.tobytes() == expected.tobytes()

    def test_two_seeds_of_an_epoch_match_the_oracle(self):
        # As under augment_all: the originals take one seed, the easy copies
        # another, and an id may be in both parts.
        images, (first, second, *_) = stack_and_seeds(40, 16, seed=30)
        ids = np.array([3, 17, 0, 39, 8, 17, 3, 25])
        seeds = [first] * 5 + [second] * 3
        out = augment_ids(images, ids, AugmentationSpec(), seeds)
        expected = [oracle(images[i], AugmentationSpec(), s, i).ravel() for i, s in zip(ids, seeds)]
        assert out.tobytes() == np.stack(expected).tobytes()
        assert out[1].tobytes() != out[5].tobytes()

    def test_writes_into_a_row_slice_of_a_larger_matrix(self):
        # As training does: the epoch's augmented rows follow the training
        # rows of one store, and every other row is left as it was.
        images, _ = stack_and_seeds(30, 9, seed=27)
        ids = np.array([4, 0, 29, 4, 17, 8, 8, 11])
        _, seeds = stack_and_seeds(len(ids), 1, seed=28)
        spec = AugmentationSpec(blur_sigma_range=(0.0, 2.0))
        alone = np.empty((len(ids), 81))
        augment_pixels(images, ids, spec, seeds, alone)
        store = np.random.default_rng(29).uniform(-1, 1, (20, 81))
        before = store.copy()
        augment_pixels(images, ids, spec, seeds, store[7:15])
        assert store[7:15].tobytes() == alone.tobytes()
        assert store[:7].tobytes() == before[:7].tobytes()
        assert store[15:].tobytes() == before[15:].tobytes()

    @pytest.mark.parametrize(
        "n_ids, n_seeds, n_rows", [(2, 3, 3), (3, 2, 3), (3, 3, 2)]
    )
    def test_ids_seeds_and_out_rows_must_agree(self, n_ids, n_seeds, n_rows):
        images, seeds = stack_and_seeds(3, 8, seed=16)
        with pytest.raises(ValueError, match=f"{n_ids} ids, {n_seeds} seeds and {n_rows} out"):
            augment_pixels(
                images, np.arange(n_ids), AugmentationSpec(), seeds[:n_seeds],
                np.empty((n_rows, 64)),
            )

    def test_traced_memory_does_not_grow_with_the_call(self):
        # Beyond the preallocated matrix, only each entry's draws (a few dozen
        # bytes) grow with the call; every image goes through a run of at
        # most AUGMENT_CHUNK images on its own. An output stack, or a gather
        # of every entry's image, would add 6 MB from 1 000 to 4 000 images.
        run_bytes = augment.AUGMENT_CHUNK * 16 * 16 * 8
        peaks = {}
        for n in (1000, 4000):
            images, seeds = stack_and_seeds(n, 16, seed=27)
            out = np.empty((n, 256))
            tracemalloc.start()
            try:
                augment_pixels(images, np.arange(n), AugmentationSpec(), seeds, out)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[4000] - peaks[1000] < 2 * run_bytes, peaks


def source_grid(h, w, rotations, dxs, dys):
    """The warp's float32 source coordinates ``(fx, fy)`` over an ``(h, w,
    m)`` run, by the expressions of ``affine`` in ``oracles.py``, image axis
    last."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    thetas = np.radians(rotations)
    cos_t, sin_t = np.cos(thetas).astype(np.float32), np.sin(thetas).astype(np.float32)
    u = (np.arange(w, dtype=np.float32)[:, None] - dxs.astype(np.float32)) - cx
    v = (np.arange(h, dtype=np.float32)[:, None, None] - dys.astype(np.float32)) - cy
    return cos_t * u + sin_t * v + cx, -sin_t * u + cos_t * v + cy


class TestReadSpan:
    """The warp takes each axis's padded read span from the four corners of
    the grid; rounding is monotone, so the floors of the whole grid reach
    their least and greatest there."""

    @pytest.mark.parametrize("h, w", [(16, 16), (5, 7), (13, 4), (1, 6)])
    def test_corner_floors_bound_the_grid(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        m = 300
        turns = np.array([0.0, 45.0, 90.0, 135.0, 180.0, -90.0, -180.0, 360.0])
        rotations = np.concatenate([turns, rng.uniform(-360.0, 360.0, m - len(turns))])
        # Shifts inside one reflection, on its ends, and far beyond it.
        for scale in (0.0, 3.0, float(max(h, w)), 1e6, 2.0**62):
            dxs, dys = (rng.uniform(-scale, scale, m) for _ in range(2))
            fx, fy = source_grid(h, w, rotations, dxs, dys)
            floors = np.floor(fx), np.floor(fy)
            for floor in floors:
                corners = floor[[0, -1]][:, [0, -1]]
                np.testing.assert_array_equal(corners.min(axis=(0, 1)), floor.min(axis=(0, 1)))
                np.testing.assert_array_equal(corners.max(axis=(0, 1)), floor.max(axis=(0, 1)))
            # The padded axis spans [min, max + 1] of the floors, folded into
            # one period where they reach beyond one reflection: for the whole
            # run, and for runs of one image at each of the listed turns.
            for part in [slice(None)] + [slice(i, i + 1) for i in range(len(turns))]:
                for src, floor, n in ((fx, floors[0], w), (fy, floors[1], h)):
                    self.check_span(src[..., part], floor[..., part], n)

    @pytest.mark.parametrize("h, w", [(16, 16), (5, 7), (1, 6), (6, 1), (1, 1)])
    def test_float_offsets_read_what_the_int64_floors_read(self, h, w):
        # The oracle reflects the int64 copies of its floors; the warp keeps
        # the floors in float32. The fraction must be the coordinate less its
        # int64 floor, rounded to float32, and each offset an exact integer
        # whose padded reads are the oracle's reflected floor and floor + 1:
        # unrotated, at turns whose cosine is negative, and at shifts whose
        # reads fold.
        rng = np.random.default_rng(h * 10 + w)
        turns = np.array([0.0, 100.0, 135.0, 180.0, -120.0, -180.0, 225.0])
        rotations = np.concatenate([turns, rng.uniform(-720.0, 720.0, 60)])
        m = len(rotations)
        for scale in (0.0, 2.5, 3.0 * max(h, w), 1e6, 2.0**62):
            dxs, dys = (rng.uniform(-scale, scale, m) for _ in range(2))
            for src, n in zip(source_grid(h, w, rotations, dxs, dys), (w, h)):
                floor = np.floor(src).astype(np.int64)
                work = src.copy()
                offsets, reads = _pad_offsets(work, n)
                assert offsets.dtype == work.dtype == np.float32
                at = offsets.astype(np.int64)
                assert (at == offsets).all()
                assert work.tobytes() == (src - floor).astype(np.float32).tobytes()
                np.testing.assert_array_equal(reads[at], _reflect_index(floor, n))
                np.testing.assert_array_equal(reads[at + 1], _reflect_index(floor + 1, n))

    def test_offsets_beyond_float32_integers_read_the_oracle(self):
        # Unfolded, an axis of n pixels reads from 1 - n to 2n - 2: 128
        # entries of 128 px, shifted by 127 and -126.5 in turn, gather a
        # padded run of 382 * 382 * 128 elements (75 MB), beyond the 2**24
        # whose offsets float32 holds exactly.
        n, m = 128, 128
        images = np.random.default_rng(32).uniform(0, 1, (m, n, n)).astype(np.float32)
        shifts = np.tile([127.0, -126.5], m // 2)
        rotations = np.zeros(m)
        fx, _ = source_grid(n, n, rotations, shifts, shifts)
        floors = np.floor(fx)
        assert (floors.min(), floors.max() + 1) == (1 - n, 2 * n - 2)
        assert (3 * n - 2) ** 2 * m > 2**24
        out = augment._warp(images, rotations, shifts, shifts)
        for image, shift, row in zip(images, shifts, out):
            expected = affine(image, 0.0, shift, shift)
            assert row.astype(np.float64).tobytes() == expected.tobytes(), shift

    @staticmethod
    def check_span(src, floor, n):
        """``_pad_offsets`` of ``src`` against the floors of its whole grid."""
        idx = floor.astype(np.int64)
        if idx.min() < 1 - n or idx.max() + 1 > 2 * n - 2:
            idx = np.mod(idx, max(2 * n - 2, 1))
        lo, hi = int(idx.min()), int(idx.max()) + 1
        offsets, reads = _pad_offsets(src.copy(), n)
        np.testing.assert_array_equal(offsets, idx - lo)
        np.testing.assert_array_equal(reads, _reflect_index(np.arange(lo, hi + 1), n))


def edge_shifts(n: int) -> list[float]:
    """Unrotated shifts that land the floor indices of an axis of ``n`` pixels
    exactly on the ends of one reflection, ``-(n - 1)`` and ``2n - 2``, and
    just inside or beyond them."""
    return [n - 1.0, n - 0.5, n, 1.0 - n, 2.0 - n, 1.5 - n]


class TestThinStacks:
    """Stacks one or two pixels across, read far outside the frame."""

    @pytest.mark.parametrize("shape", [(4, 1, 16), (4, 16, 1), (4, 2, 2)])
    @pytest.mark.parametrize("rotations", [(0.0, 0.0), (30.0, 30.0), (-10.0, 10.0)])
    def test_far_shifts_match_single_image_oracle(self, shape, rotations):
        # Rotated by different angles, one far shift sends each image's reads
        # to a different place, so a stack's reads span many periods.
        images, seeds = stack_and_seeds(shape[0], 16, seed=21)
        images = images[:, : shape[1], : shape[2]].copy()
        for shift in (1e6, -1e6, 2.0**62, -(2.0**62)):
            spec = AugmentationSpec(
                rotation_range_degrees=rotations, translation_range_pixels=(shift, shift)
            )
            expected = oracle_stack(images, spec, seeds)
            out = augment_stack(images, spec, seeds)
            assert out.tobytes() == expected.tobytes(), shift

    @pytest.mark.parametrize("shape", [(4, 1, 16), (4, 16, 1), (4, 2, 2), (4, 5, 7)])
    def test_floors_on_the_ends_of_one_reflection(self, shape):
        _, h, w = shape
        images, seeds = stack_and_seeds(shape[0], 16, seed=22)
        images = images[:, :h, :w].copy()
        floors = set()
        for shift in edge_shifts(h) + edge_shifts(w):
            spec = AugmentationSpec(
                rotation_range_degrees=(0.0, 0.0), translation_range_pixels=(shift, shift)
            )
            # Unrotated, pixel x of the output reads x - shift of the input.
            for n in (h, w):
                floors.update(np.floor(np.arange(n) - shift).astype(int).tolist())
            expected = oracle_stack(images, spec, seeds)
            out = augment_stack(images, spec, seeds)
            assert out.tobytes() == expected.tobytes(), shift
        for n in (h, w):
            assert {1 - n, 2 * n - 2} <= floors

    def test_far_shift_pads_only_one_period(self):
        # Unfolded, a shift of 1e6 would pad the stack by 1e6 columns (64 MB)
        # and its single row by 1e6 rows.
        images, seeds = stack_and_seeds(4, 16, seed=23)
        images = images[:, :1, :].copy()
        spec = AugmentationSpec(translation_range_pixels=(1e6, 1e6))
        augment_stack(images, spec, seeds)
        tracemalloc.start()
        try:
            augment_stack(images, spec, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
