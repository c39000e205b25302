"""Augmentation tests: kernel shape, identity cases, hand-checked warps,
seeded determinism, and the stack version of ``augment_pixels`` checked
for exact equality against the single-image operations."""

import math

import numpy as np
import pytest

from dffc.augment import (
    AugmentationSpec,
    _reflect_index,
    affine,
    augment_pixels,
    blur_stack,
    brightness_adjust,
    gaussian_blur,
    gaussian_kernel_1d,
    gaussian_kernels,
)


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
        sigmas = np.concatenate(
            [
                rng.uniform(0.0, 3.0, 20000),
                10.0 ** rng.uniform(-4.0, 0.5, 2000),
                boundaries,
                np.nextafter(boundaries, 0.0),
                np.nextafter(boundaries, np.inf),
            ]
        )
        sigmas = sigmas[sigmas > 0.0]
        taps = gaussian_kernels(sigmas)
        radius = taps.shape[1] // 2
        for sigma, row in zip(sigmas, taps):
            k = gaussian_kernel_1d(float(sigma))
            r = len(k) // 2
            assert np.array_equal(row[radius - r : radius + r + 1], k), sigma
            assert not row[: radius - r].any() and not row[radius + r + 1 :].any()


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
        assert _reflect_index(idx, 16) is idx
        shifted = idx - 2
        np.testing.assert_array_equal(_reflect_index(shifted, 16), self.expected(shifted, 16))
        np.testing.assert_array_equal(shifted, idx - 2)


class TestBlur:
    def test_sigma_zero_is_identity_copy(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8))
        out = gaussian_blur(img, 0.0)
        np.testing.assert_array_equal(out, img)
        assert out is not img

    def test_constant_image_unchanged(self):
        img = np.full((6, 6), 0.4)
        np.testing.assert_allclose(gaussian_blur(img, 1.2), img, atol=1e-12)

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
        expected = np.stack([gaussian_blur(img, s) for img, s in zip(images, sigmas)])
        out = blur_stack(images, sigmas)
        assert out.tobytes() == expected.tobytes()
        assert blur_stack(images, np.zeros(12)).tobytes() == images.tobytes()


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
        with pytest.raises(ValueError):
            AugmentationSpec(brightness_range=(0.2, -0.2))

    def test_negative_blur_rejected(self):
        with pytest.raises(ValueError):
            AugmentationSpec(blur_sigma_range=(-0.5, 1.0))


class TestAugmentPixels:
    def test_same_seed_same_output(self):
        img = np.random.default_rng(5).uniform(0, 1, (16, 16))
        spec = AugmentationSpec()
        np.testing.assert_array_equal(
            augment_pixels(img, spec, 123), augment_pixels(img, spec, 123)
        )

    def test_different_seed_different_output(self):
        img = np.random.default_rng(6).uniform(0, 1, (16, 16))
        spec = AugmentationSpec()
        assert not np.array_equal(
            augment_pixels(img, spec, 1), augment_pixels(img, spec, 2)
        )

    def test_degenerate_spec_is_identity(self):
        img = np.random.default_rng(7).uniform(0, 1, (8, 8))
        spec = AugmentationSpec(
            blur_sigma_range=(0.0, 0.0),
            brightness_range=(0.0, 0.0),
            rotation_range_degrees=(0.0, 0.0),
            translation_range_pixels=(0.0, 0.0),
        )
        np.testing.assert_allclose(augment_pixels(img, spec, 99), img, atol=1e-12)

    def test_output_stays_in_unit_range(self):
        img = np.random.default_rng(8).uniform(0, 1, (16, 16))
        out = augment_pixels(img, AugmentationSpec(), 77)
        assert out.min() >= 0.0 and out.max() <= 1.0


def oracle(image: np.ndarray, spec: AugmentationSpec, seed: int) -> np.ndarray:
    """One image through the single-image operations, with ``seed``'s draws."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(*spec.blur_sigma_range)
    delta = rng.uniform(*spec.brightness_range)
    theta = rng.uniform(*spec.rotation_range_degrees)
    dx = rng.uniform(*spec.translation_range_pixels)
    dy = rng.uniform(*spec.translation_range_pixels)
    return affine(brightness_adjust(gaussian_blur(image, sigma), delta), theta, dx, dy)


def stack_and_seeds(n: int, size: int, seed: int) -> tuple[np.ndarray, list[int]]:
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, size, size))
    return images, [int(s) for s in rng.integers(0, 2**63, n)]


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
        ],
    )
    def test_matches_single_image_oracle(self, size, spec):
        images, seeds = stack_and_seeds(40, size, seed=size)
        out = augment_pixels(images, spec, seeds)
        expected = np.stack([oracle(img, spec, s) for img, s in zip(images, seeds)])
        assert out.shape == images.shape
        np.testing.assert_array_equal(out, expected)

    def test_mixed_radii_in_one_chunk(self):
        images, seeds = stack_and_seeds(64, 16, seed=11)
        spec = AugmentationSpec()
        radii = set()
        for s in seeds:
            sigma = np.random.default_rng(s).uniform(*spec.blur_sigma_range)
            radii.add(len(gaussian_kernel_1d(sigma)) // 2)
        assert len(radii) >= 4
        expected = np.stack([oracle(img, spec, s) for img, s in zip(images, seeds)])
        np.testing.assert_array_equal(augment_pixels(images, spec, seeds), expected)

    def test_single_entry_stack_equals_single_image(self):
        images, seeds = stack_and_seeds(1, 16, seed=12)
        spec = AugmentationSpec()
        stacked = augment_pixels(images, spec, seeds)
        single = augment_pixels(images[0], spec, seeds[0])
        assert stacked.shape == (1, 16, 16) and single.shape == (16, 16)
        np.testing.assert_array_equal(stacked[0], single)
        np.testing.assert_array_equal(single, oracle(images[0], spec, seeds[0]))

    def test_output_does_not_depend_on_chunk_mates(self):
        images, seeds = stack_and_seeds(30, 16, seed=13)
        spec = AugmentationSpec(blur_sigma_range=(0.0, 3.0))
        whole = augment_pixels(images, spec, seeds)
        order = np.random.default_rng(14).permutation(30)
        shuffled = augment_pixels(images[order], spec, [seeds[i] for i in order])
        np.testing.assert_array_equal(shuffled, whole[order])
        for lo, hi in ((0, 1), (1, 7), (7, 30)):
            part = augment_pixels(images[lo:hi], spec, seeds[lo:hi])
            np.testing.assert_array_equal(part, whole[lo:hi])

    def test_input_left_untouched(self):
        images, seeds = stack_and_seeds(8, 16, seed=15)
        before = images.copy()
        augment_pixels(images, AugmentationSpec(), seeds)
        np.testing.assert_array_equal(images, before)

    def test_seed_count_must_match_stack(self):
        images, seeds = stack_and_seeds(3, 8, seed=16)
        with pytest.raises(ValueError, match="3 seeds"):
            augment_pixels(images[:2], AugmentationSpec(), seeds)
