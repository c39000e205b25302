"""Seeded lightweight augmentations for easy-pool samples.

Images are 2-D float64 arrays in [0, 1]. The three operations (Gaussian
blur, brightness shift, affine warp) are applied in that fixed order by
:func:`augment_pixels`; every parameter is drawn from the spec ranges by
a stream keyed by the entry's seed, so augmentation is fully
reproducible. The streams are numpy's: entry i's five draws are
``default_rng(seed_i).uniform(lo, hi)`` in order (SeedSequence, then
PCG64), computed for the whole stack at once by :mod:`dffc.streams`.
A seed must lie in 0..2**64 - 1.

:func:`augment_pixels` works on a stack of images with one seed each, so
the runner augments the easy-pool copies of an epoch in chunks. Every
entry of a stack comes out bit-identical to augmenting that image alone,
and so bit-identical to the single-image operations below
(:func:`gaussian_blur`, :func:`brightness_adjust`, :func:`affine`), which
stay as the reference they are tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dffc import streams


@dataclass(frozen=True)
class AugmentationSpec:
    blur_sigma_range: tuple[float, float] = (0.0, 1.5)
    brightness_range: tuple[float, float] = (-0.15, 0.15)
    rotation_range_degrees: tuple[float, float] = (-10.0, 10.0)
    translation_range_pixels: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self) -> None:
        for name in (
            "blur_sigma_range",
            "brightness_range",
            "rotation_range_degrees",
            "translation_range_pixels",
        ):
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))
            if lo > hi:
                raise ValueError(f"{name}: lo {lo} > hi {hi}")
        if self.blur_sigma_range[0] < 0.0:
            raise ValueError("blur sigma must be non-negative")


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discrete Gaussian with radius ceil(3*sigma), normalized to sum 1."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def gaussian_kernels(sigmas: np.ndarray) -> np.ndarray:
    """Row i is ``gaussian_kernel_1d(sigmas[i])``, centred in zero taps to the
    largest radius; every sigma must be positive.

    The kernels of one radius are built in one step, with the same operations
    as the single kernel: ``np.float_power(sigma, 2.0)`` is the libm ``pow``
    behind Python's ``sigma**2`` (numpy's array ``**2`` is ``x*x``, which
    rounds differently for some sigmas), and each row is summed on its own.
    """
    radii = np.ceil(3.0 * sigmas).astype(np.int64)
    radius = int(radii.max())
    taps = np.zeros((len(sigmas), 2 * radius + 1))
    two_var = 2.0 * np.float_power(sigmas, 2.0)
    for r in np.unique(radii):
        rows = np.flatnonzero(radii == r)
        xs = np.arange(-r, r + 1, dtype=np.float64)
        k = np.exp(-(xs**2) / two_var[rows, None])
        taps[rows, radius - r : radius + r + 1] = k / k.sum(axis=1, keepdims=True)
    return taps


def _conv1d_reflect(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(image, pad, mode="reflect")
    out = np.zeros_like(image)
    for j, w in enumerate(kernel):
        if axis == 0:
            out += w * padded[j : j + image.shape[0], :]
        else:
            out += w * padded[:, j : j + image.shape[1]]
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding; sigma=0 is the identity."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return image.copy()
    kernel = gaussian_kernel_1d(sigma)
    out = _conv1d_reflect(image, kernel, axis=0)
    out = _conv1d_reflect(out, kernel, axis=1)
    return np.clip(out, 0.0, 1.0)


def brightness_adjust(image: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(image + delta, 0.0, 1.0)


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    # Mirror without repeating the edge sample (period 2n-2), matching
    # numpy's "reflect" padding. Indices inside the frame map to themselves,
    # so only the others are folded; with none, ``idx`` itself is returned.
    if n == 1:
        return np.zeros_like(idx)
    outside = (idx < 0) | (idx >= n)
    if not outside.any():
        return idx
    period = 2 * n - 2
    folded = np.mod(idx[outside], period)
    out = idx.copy()
    out[outside] = np.where(folded >= n, period - folded, folded)
    return out


def affine(image: np.ndarray, rotation_degrees: float, dx: float, dy: float) -> np.ndarray:
    """Rotation about the image center plus translation, bilinear sampling.

    Inverse-mapped: each output pixel samples the input at the inverse
    transform, with reflected reads outside the frame. rotation=0, dx=1
    gives output(x, y) = input(x-1, y).
    """
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(rotation_degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    u = xs - dx - cx
    v = ys - dy - cy
    src_x = cos_t * u + sin_t * v + cx
    src_y = -sin_t * u + cos_t * v + cy

    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = src_x - x0
    fy = src_y - y0
    x0r, x1r = _reflect_index(x0, w), _reflect_index(x0 + 1, w)
    y0r, y1r = _reflect_index(y0, h), _reflect_index(y0 + 1, h)
    out = (
        image[y0r, x0r] * (1 - fy) * (1 - fx)
        + image[y0r, x1r] * (1 - fy) * fx
        + image[y1r, x0r] * fy * (1 - fx)
        + image[y1r, x1r] * fy * fx
    )
    return np.clip(out, 0.0, 1.0)


@lru_cache(maxsize=64)
def _reflected_range(n: int, radius: int) -> np.ndarray:
    """Indices of ``n`` samples padded by ``radius`` on each side, reflected."""
    table = _reflect_index(np.arange(-radius, n + radius), n)
    table.flags.writeable = False
    return table


def blur_stack(images: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """:func:`gaussian_blur` of each image by its own sigma; sigma=0 copies it.

    Every kernel of a positive sigma is padded with zero taps to the
    largest radius, so the blurred entries share one reflected gather per
    axis. A zero tap adds exactly 0.0 and the taps are summed in order
    from zeros, as in :func:`_conv1d_reflect`.
    """
    out = images.copy()
    blurred = np.flatnonzero(sigmas > 0.0)
    if not len(blurred):
        return out
    taps = gaussian_kernels(sigmas[blurred])
    radius = taps.shape[1] // 2
    _, h, w = images.shape
    acc = images[blurred]
    for axis, size in ((1, h), (2, w)):
        padded = np.take(acc, _reflected_range(size, radius), axis=axis)
        acc = np.zeros((len(blurred), h, w))
        for j in range(2 * radius + 1):
            window = padded[:, j : j + h, :] if axis == 1 else padded[:, :, j : j + w]
            acc += taps[:, j, None, None] * window
    out[blurred] = np.clip(acc, 0.0, 1.0)
    return out


def _floor_and_fraction(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflected indices of ``floor(src)`` and ``floor(src) + 1``, and the fraction.

    The fraction ``src - floor(src)`` is written into ``src``. Subtracting
    the float floor gives the same bits as subtracting its int64 copy, as
    :func:`affine` does.
    """
    floor = np.floor(src)
    idx = floor.astype(np.int64)
    i0, i1 = _reflect_index(idx, n), _reflect_index(idx + 1, n)
    src -= floor
    return i0, i1, src


def _affine_stack(
    images: np.ndarray, rotations: np.ndarray, dxs: np.ndarray, dys: np.ndarray
) -> np.ndarray:
    """:func:`affine` of each image by its own angle and shift, one gather.

    Products are taken in place where that keeps :func:`affine`'s order of
    operations, so a chunk holds few full-size temporaries at once.
    """
    n, h, w = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    thetas = [math.radians(r) for r in rotations]
    cos_t = np.array([math.cos(t) for t in thetas])[:, None, None]
    sin_t = np.array([math.sin(t) for t in thetas])[:, None, None]
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    u = (xs - dxs[:, None, None]) - cx
    v = (ys - dys[:, None, None]) - cy
    src_x = cos_t * u + sin_t * v + cx
    src_y = -sin_t * u + cos_t * v + cy
    del u, v
    x0r, x1r, fx = _floor_and_fraction(src_x, w)
    y0r, y1r, fy = _floor_and_fraction(src_y, h)
    # Flat offsets into the whole stack: image, then row, then column.
    base = (np.arange(n) * (h * w))[:, None, None]
    row0, row1 = base + y0r * w, base + y1r * w
    del y0r, y1r
    flat = images.reshape(-1)
    gx, gy = 1 - fx, 1 - fy
    out = flat[row0 + x0r]
    out *= gy
    out *= gx
    for row, col, wy, wx in ((row0, x1r, gy, fx), (row1, x0r, fy, gx), (row1, x1r, fy, fx)):
        term = flat[row + col]
        term *= wy
        term *= wx
        out += term
    return np.clip(out, 0.0, 1.0, out=out)


def augment_pixels(
    images: np.ndarray, spec: AugmentationSpec, seeds: int | Sequence[int]
) -> np.ndarray:
    """Apply blur -> brightness -> affine with parameters drawn per seed.

    ``images`` is a stack ``(n, h, w)`` with a sequence of ``n`` seeds, or
    one ``(h, w)`` image with an int seed (the ``n = 1`` case). Entry ``i``
    draws its five parameters from ``default_rng(seeds[i])``, computed for
    every entry at once by :func:`streams.uniforms`, and comes out
    bit-identical to ``affine(brightness_adjust(gaussian_blur(image,
    sigma), delta), theta, dx, dy)`` whichever entries share its stack.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2:
        return augment_pixels(images[None], spec, [seeds])[0]
    if images.ndim != 3 or len(images) != len(seeds):
        raise ValueError(
            f"expected an (n, h, w) stack with n seeds, got shape {images.shape} "
            f"and {len(seeds)} seeds"
        )
    draws = streams.uniforms(
        (seeds,),
        (
            spec.blur_sigma_range,
            spec.brightness_range,
            spec.rotation_range_degrees,
            spec.translation_range_pixels,
            spec.translation_range_pixels,
        ),
    )
    sigmas, deltas, rotations, dxs, dys = draws.T
    out = blur_stack(images, sigmas)
    out += deltas[:, None, None]
    np.clip(out, 0.0, 1.0, out=out)
    return _affine_stack(out, rotations, dxs, dys)
