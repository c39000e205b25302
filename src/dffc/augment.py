"""Seeded lightweight augmentations for easy-pool samples.

Images are float64 stacks ``(n, h, w)`` in [0, 1]. The three operations
(Gaussian blur, brightness shift, affine warp) are applied in that fixed
order by :func:`augment_pixels`; every parameter is drawn from the spec
ranges by a stream keyed by the entry's seed, so augmentation is fully
reproducible. The streams are numpy's: entry i's five draws are
``default_rng(seed_i).uniform(lo, hi)`` in order (SeedSequence, then
PCG64), computed for the whole stack at once by :mod:`dffc.streams`.
A seed must lie in 0..2**64 - 1.

:func:`augment_pixels` works on a stack of images with one seed each, so
the runner augments all the easy-pool copies of an epoch in one call. It
draws every entry's parameters in one step, then blurs, shifts and warps
the stack ``AUGMENT_CHUNK`` entries at a time. Every entry of a stack
comes out bit-identical to the single-image operations ``gaussian_blur``,
``brightness_adjust`` and ``affine`` of ``tests/oracles.py``, the reference
it is tested against, whichever entries share its stack or its chunk.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from dffc import streams
from dffc.errors import ConfigError, check_range

#: Entries blurred, shifted and warped per step of :func:`augment_pixels`.
#: The output is one array, so the temporaries grow with the chunk, not with
#: the stack: about 3.5 MB at 128 16 px images, 6.9 MB at 256. On a 2-CPU
#: Xeon (2 MB of L2 per core), 1 000 images took 28-32 ms in chunks of 64
#: or 128, 40-42 ms in chunks of 256 and 50-53 ms in chunks of 512 or more.
AUGMENT_CHUNK = 128


@dataclass(frozen=True)
class AugmentationSpec:
    blur_sigma_range: tuple[float, float] = (0.0, 1.5)
    brightness_range: tuple[float, float] = (-0.15, 0.15)
    rotation_range_degrees: tuple[float, float] = (-10.0, 10.0)
    translation_range_pixels: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            bounds = check_range(name, getattr(self, name), non_negative=name == "blur_sigma_range")
            object.__setattr__(self, name, bounds)
        # The warp's int64 pixel index holds any rotation of a shift of at most 2**62.
        lo, hi = self.translation_range_pixels
        if max(-lo, hi) > 2.0**62:
            raise ConfigError(
                f"translation_range_pixels: need |lo| and |hi| at most 2**62, got ({lo}, {hi})"
            )


def gaussian_kernels(sigmas: np.ndarray) -> np.ndarray:
    """Row i is the discrete Gaussian of ``sigmas[i]`` with radius
    ``ceil(3 * sigma)``, normalized to sum 1 (``gaussian_kernel_1d`` of
    ``tests/oracles.py``), centred in zero taps to the largest radius; every
    sigma must be positive.

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


def blur_stack(images: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur with reflect padding of each image by its own
    sigma; sigma=0 copies it. Each entry equals ``gaussian_blur`` of
    ``tests/oracles.py``.

    The blurred entries share one reflected gather per axis, padded to the
    largest radius. They are ordered by radius, widest first, so the entries
    that a tap at offset ``k`` from the centre reaches, those of radius at
    least ``k``, are a prefix of the stack; each tap multiplies and adds only
    that prefix. So every entry sums its own kernel's taps in order from
    zeros, as in the oracle's ``_conv1d_reflect``.
    """
    out = images.copy()
    blurred = np.flatnonzero(sigmas > 0.0)
    if not len(blurred):
        return out
    radii = np.ceil(3.0 * sigmas[blurred]).astype(np.int64)
    widest_first = np.argsort(-radii, kind="stable")
    blurred, radii = blurred[widest_first], radii[widest_first]
    taps = gaussian_kernels(sigmas[blurred])
    radius = taps.shape[1] // 2
    reach = np.count_nonzero(radii[:, None] >= np.arange(radius + 1), axis=0)
    _, h, w = images.shape
    acc = images[blurred]
    tmp = np.empty_like(acc)
    for axis, size in ((1, h), (2, w)):
        padded = np.take(acc, _reflect_index(np.arange(-radius, size + radius), size), axis=axis)
        acc = np.zeros_like(tmp)
        for j in range(2 * radius + 1):
            m = reach[abs(j - radius)]
            window = padded[:m, j : j + h, :] if axis == 1 else padded[:m, :, j : j + w]
            np.multiply(taps[:m, j, None, None], window, out=tmp[:m])
            acc[:m] += tmp[:m]
    out[blurred] = np.clip(acc, 0.0, 1.0)
    return out


def _floor_and_fraction(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflected indices of ``floor(src)`` and ``floor(src) + 1``, and the fraction.

    The fraction ``src - floor(src)`` is written into ``src``. Subtracting
    the float floor gives the same bits as subtracting its int64 copy, as
    ``affine`` of ``tests/oracles.py`` does.
    """
    floor = np.floor(src)
    idx = floor.astype(np.int64)
    i0, i1 = _reflect_index(idx, n), _reflect_index(idx + 1, n)
    src -= floor
    return i0, i1, src


def _affine_stack(
    images: np.ndarray, rotations: np.ndarray, dxs: np.ndarray, dys: np.ndarray
) -> np.ndarray:
    """Rotation about the centre plus translation of each image by its own
    angle and shift, bilinear and inverse-mapped with reflected reads, in one
    gather. Each entry equals ``affine`` of ``tests/oracles.py``.

    Products are taken in place where that keeps the oracle's order of
    operations, so a chunk holds few full-size temporaries at once.
    """
    n, h, w = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    thetas = [math.radians(r) for r in rotations]
    cos_t = np.array([math.cos(t) for t in thetas])[:, None, None]
    sin_t = np.array([math.sin(t) for t in thetas])[:, None, None]
    # u varies along a row and v down a column, so only the sums are full-size.
    u = (np.arange(w, dtype=np.float64) - dxs[:, None, None]) - cx
    v = (np.arange(h, dtype=np.float64)[:, None] - dys[:, None, None]) - cy
    src_x = cos_t * u + sin_t * v
    src_x += cx
    src_y = -sin_t * u + cos_t * v
    src_y += cy
    del u, v
    x0r, x1r, fx = _floor_and_fraction(src_x, w)
    row0, row1, fy = _floor_and_fraction(src_y, h)
    # Flat offsets into the whole stack: image, then row, then column.
    base = (np.arange(n) * (h * w))[:, None, None]
    for rows in (row0, row1):
        rows *= w
        rows += base
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


def augment_pixels(images: np.ndarray, spec: AugmentationSpec, seeds: Sequence[int]) -> np.ndarray:
    """Apply blur -> brightness -> affine with parameters drawn per seed.

    ``images`` is a stack ``(n, h, w)`` with a sequence of ``n`` seeds. Entry
    ``i`` draws its five parameters from ``default_rng(seeds[i])``, computed
    for every entry at once by :func:`streams.uniforms`, and comes out
    bit-identical to ``affine(brightness_adjust(gaussian_blur(image, sigma),
    delta), theta, dx, dy)`` of ``tests/oracles.py`` whichever entries share
    its stack.
    """
    images = np.asarray(images, dtype=np.float64)
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
    out = np.empty_like(images)
    for start in range(0, len(images), AUGMENT_CHUNK):
        rows = slice(start, start + AUGMENT_CHUNK)
        chunk = blur_stack(images[rows], sigmas[rows])
        chunk += deltas[rows, None, None]
        np.clip(chunk, 0.0, 1.0, out=chunk)
        out[rows] = _affine_stack(chunk, rotations[rows], dxs[rows], dys[rows])
    return out
