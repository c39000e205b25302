"""Seeded lightweight augmentations for easy-pool samples.

Images are float64 stacks ``(n, h, w)`` in [0, 1]. The three operations
(Gaussian blur, brightness shift, affine warp) are applied in that fixed
order by :func:`augment_pixels`; every parameter is drawn from the spec
ranges by a stream keyed by the entry's seed, so augmentation is fully
reproducible. The streams are numpy's: entry i's five draws are
``default_rng(seed_i).uniform(lo, hi)`` in order (SeedSequence, then
PCG64), computed for the whole stack at once by :mod:`dffc.streams`.
A seed must lie in 0..2**64 - 1.

:func:`augment_pixels` augments every easy-pool copy of an epoch in one
call, each entry one sample id of the source stack with its own seed, and
writes each entry's augmented pixels, flattened, into its row of a matrix
the caller holds. It draws every entry's parameters in one step. Its blur,
shift and clip are one pipeline, which also post-processes the synthetic
dataset (:func:`blur_shift`): the entries go widest blur radius first, in
runs of one radius and at most ``AUGMENT_CHUNK`` entries, with the kernels
of each radius built in one step. Each run gathers its own source images
by sample id, so nothing the size of the whole call is gathered or
stacked. From its gather to its output a run is one contiguous ``(h, w,
m)`` stack, the image axis innermost: each blur tap multiplies a slab of
rows, then of columns, by the run's ``(m,)`` tap vector, and the shift
adds its ``(m,)`` deltas, with nothing transposed between the steps. The
warp reads the run from a copy reflect-padded just enough to hold every
read, its span taken from the four corners of the source grid, so one
flat offset per pixel finds all four of its corners: the next x lies
``m`` elements on, the next y one padded row on. A run is transposed only
as it is gathered and as it is written, in one copy, into its rows of the
caller's matrix (:func:`augment_pixels`) or its images of the caller's
stack (:func:`blur_shift`). Every entry comes out bit-identical to the
single-image ``gaussian_blur``, ``brightness_adjust`` and ``affine`` of
``tests/oracles.py``, whichever entries share its call or its run.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from dffc import streams
from dffc.errors import ConfigError, check_range

#: Most entries per run of the blur-and-shift pipeline. Each run is gathered,
#: augmented and written into its rows of pixels on its own, so the
#: temporaries grow with the run, not with the call: beyond its output
#: matrix, an :func:`augment_pixels` call on 1 000 16 px images peaks at
#: 1.45 MB of traced memory in runs of 64, 2.78 MB at 128 and 4.97 MB at
#: 256. On a 2-CPU Xeon (2 MB of L2 per core), with runs stored ``(h, w,
#: m)``, such a call took a median 17.1, 20.9 and 22.3 ms in runs of 64, 128
#: and 256 (30 alternated calls each), but inside default dffc runs the 18
#: calls of a run took 0.626 s in runs of 128, against 0.641 s in runs of 64
#: (faster in 2 of 9 runs) and 0.655 s in runs of 256 (1 of 9), alternated.
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


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    # Mirror without repeating the edge sample (period 2n-2), matching
    # numpy's "reflect" padding. Indices inside the frame map to themselves,
    # so only the others are folded.
    if n == 1:
        return np.zeros_like(idx)
    outside = (idx < 0) | (idx >= n)
    period = 2 * n - 2
    folded = np.mod(idx[outside], period)
    out = idx.copy()
    out[outside] = np.where(folded >= n, period - folded, folded)
    return out


def _radius_runs(sigmas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The entries of ``sigmas``, widest blur radius first, in runs of one
    radius and at most ``AUGMENT_CHUNK`` entries: each run's indices into
    ``sigmas`` and its kernels, ``(m, 2r + 1)``, or ``None`` for radius 0.

    Entry i's kernel is ``gaussian_kernel_1d(sigmas[i])`` of
    ``tests/oracles.py``, of radius ``ceil(3 * sigma)``, and the kernels of
    one radius are built in one step by the same operations:
    ``np.float_power(sigma, 2.0)`` is the libm ``pow`` behind Python's
    ``sigma**2`` (numpy's array ``**2`` is ``x*x``, which rounds differently
    for some sigmas), and each row is summed on its own. Where ``2 *
    sigma**2`` underflows to 0 the centre tap would be 0/0, so such a sigma
    takes radius 0; every sigma below about 0.025 has the kernel [0, 1, 0].
    """
    two_var = 2.0 * np.float_power(sigmas, 2.0)
    radii = np.where(two_var > 0.0, np.ceil(3.0 * sigmas), 0.0).astype(np.int64)
    order = np.argsort(-radii, kind="stable")
    radii = radii[order]
    cuts = np.flatnonzero(np.diff(radii, prepend=-1, append=-1))
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        group, r = order[lo:hi], radii[lo]
        taps = None
        if r:
            xs = np.arange(-r, r + 1, dtype=np.float64)
            # Near the smallest sigma with a kernel, x**2 / (2 * sigma**2)
            # overflows to inf, whose exp is the side tap 0 of the single kernel.
            with np.errstate(over="ignore"):
                k = np.exp(-(xs**2) / two_var[group, None])
            taps = k / k.sum(axis=1, keepdims=True)
        for start in range(0, len(group), AUGMENT_CHUNK):
            run = slice(start, start + AUGMENT_CHUNK)
            runs.append((group[run], None if taps is None else taps[run]))
    return runs


def _tap_sum(padded: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One blur pass along ``axis`` (0 or 1) of an ``(h, w, m)`` run
    reflect-padded by the radius there: each slab times its tap's ``(m,)``
    vector, summed in order from zeros, as ``_conv1d_reflect`` of
    ``tests/oracles.py`` does."""
    size = padded.shape[axis] - (taps.shape[1] - 1)
    lead = (slice(None),) * axis
    acc = np.zeros_like(padded[lead + (slice(0, size),)])
    tmp = np.empty_like(acc)
    for j, tap in enumerate(taps.T):
        np.multiply(padded[lead + (slice(j, j + size),)], tap, out=tmp)
        acc += tmp
    return acc


def _blur_shift_runs(
    images: np.ndarray, ids: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each run of :func:`_radius_runs` as its indices into ``ids``
    and the images of those ids blurred (none at radius 0), shifted by their
    deltas and clipped, as one contiguous ``(h, w, m)`` stack, the image axis
    innermost. Entry i is image ``ids[i]`` with ``sigmas[i]`` and
    ``deltas[i]``; each run gathers only its own images.

    A run's images are gathered in one step, reflect-padded along their
    rows by the blur radius, and transposed in one copy. The first pass sums
    slabs of those rows; the second sums slabs of columns gathered
    reflect-padded from the first by ``np.take``, which keeps the stack
    C-ordered. Nothing is transposed between the passes, and the gathered
    images are freed once the first pass has read them.
    """
    _, h, w = images.shape
    for rows, taps in _radius_runs(sigmas):
        r = 0 if taps is None else taps.shape[1] // 2
        rows_read = _reflect_index(np.arange(-r, h + r), h)
        run = images[ids[rows, None], rows_read].transpose(1, 2, 0).copy()
        if taps is not None:
            run = _tap_sum(run, taps, 0)
            run = _tap_sum(np.take(run, _reflect_index(np.arange(-r, w + r), w), axis=1), taps, 1)
            np.clip(run, 0.0, 1.0, out=run)
        run += deltas[rows]
        yield rows, np.clip(run, 0.0, 1.0, out=run)


def blur_shift(
    images: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray, out: np.ndarray
) -> None:
    """Blur each image of an ``(n, h, w)`` stack by its sigma (none at 0),
    shift it by its delta, clip it to [0, 1], and write it into its image
    of ``out``, an ``(n, h, w)`` stack (a view is written through). Each
    entry equals ``brightness_adjust(gaussian_blur(image, sigma), delta)``
    of ``tests/oracles.py``.
    """
    for rows, run in _blur_shift_runs(images, np.arange(len(images)), sigmas, deltas):
        out[rows] = run.transpose(2, 0, 1)


def _pad_offsets(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``floor(src)`` as offsets into a reflect-padded axis of length ``n``,
    and the frame indices that padded axis reads.

    ``src`` holds one axis's source coordinates over a run's ``(h, w, m)``
    grid. Each is a rounded sum of terms monotone in x and in y, so the
    floors reach their least and greatest at the grid's four corners, where
    the read span is taken. The fraction ``src - floor(src)`` is written
    into ``src``; subtracting the float floor gives the same bits as
    subtracting its int64 copy, as ``affine`` of ``tests/oracles.py`` does.
    Reflection has period ``2n - 2`` (1 when ``n`` is 1), so floors that
    reach beyond one reflection, where ``floor`` or ``floor + 1`` leaves
    ``[1 - n, 2n - 2]``, are first folded into one period; either way the
    padded axis covers ``[min, max + 1]`` of the floors, at most ``n - 1``
    beyond each edge (1 when ``n`` is 1).
    """
    corners = np.floor(src[[0, -1]][:, [0, -1]])
    lo, hi = int(corners.min()), int(corners.max()) + 1
    floor = np.floor(src)
    idx = floor.astype(np.int64)
    src -= floor
    if lo < 1 - n or hi > 2 * n - 2:
        np.mod(idx, max(2 * n - 2, 1), out=idx)
        lo, hi = int(idx.min()), int(idx.max()) + 1
    idx -= lo
    return idx, _reflect_index(np.arange(lo, hi + 1), n)


def _warp(run: np.ndarray, rotations: np.ndarray, dxs: np.ndarray, dys: np.ndarray) -> np.ndarray:
    """Rotation about the centre plus translation of each image of an
    ``(h, w, m)`` run by its own angle and shift, bilinear and inverse-mapped
    with reflected reads. The output is ``(m, h*w)`` rows, a transposed view
    of the warped ``(h, w, m)`` run, and row i equals ``affine(...).ravel()``
    of ``tests/oracles.py``.

    The run is reflect-padded just enough to hold every read, so one flat
    offset per pixel finds its four corners at fixed distances. Products are
    taken in place where that keeps the oracle's order of operations.
    """
    h, w, m = run.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    thetas = np.radians(rotations)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    # u varies along a row and v down a column, so only the sums are full-size.
    u = (np.arange(w, dtype=np.float64)[:, None] - dxs) - cx
    v = (np.arange(h, dtype=np.float64)[:, None, None] - dys) - cy
    fx = cos_t * u + sin_t * v
    fx += cx
    fy = -sin_t * u + cos_t * v
    fy += cy
    del u, v
    offsets, x_reads = _pad_offsets(fx, w)
    y_offsets, y_reads = _pad_offsets(fy, h)
    # The gather is C-contiguous, (y, x, image), so its flat view is no copy.
    flat = run[y_reads[:, None], x_reads].reshape(-1)
    # One flat offset per pixel: y (a padded row), then x, then the image.
    y_step = len(x_reads) * m
    y_offsets *= len(x_reads)
    offsets += y_offsets
    del y_offsets
    offsets *= m
    offsets += np.arange(m)
    gx, gy = 1 - fx, 1 - fy
    out = np.take(flat, offsets)
    out *= gy
    out *= gx
    # The other corners in the oracle's order: (y0, x1) lies m elements on,
    # (y1, x0) one padded row on, (y1, x1) both. Mode "wrap" lets take
    # write into term unbuffered; every offset is in range, so none wraps.
    term = np.empty_like(out)
    for shift, wy, wx in ((m, gy, fx), (y_step, fy, gx), (y_step + m, fy, fx)):
        np.take(flat[shift:], offsets, out=term, mode="wrap")
        term *= wy
        term *= wx
        out += term
    return np.clip(out, 0.0, 1.0, out=out).reshape(-1, m).T


def augment_pixels(
    images: np.ndarray,
    ids: np.ndarray,
    spec: AugmentationSpec,
    seeds: Sequence[int],
    out: np.ndarray,
) -> None:
    """Apply blur -> brightness -> affine with parameters drawn per seed, and
    write each result's pixels, flattened, into its row of ``out``.

    Entry ``i`` augments ``images[ids[i]]`` of the ``(n, h, w)`` stack with
    the five parameters drawn from ``default_rng(seeds[i])``, computed for
    every entry at once by :func:`streams.uniforms`; an id may repeat.
    ``out[i]`` receives ``h * w`` pixels, bit-identical to ``affine(
    brightness_adjust(gaussian_blur(images[ids[i]], sigma), delta), theta,
    dx, dy).ravel()`` of ``tests/oracles.py``, whichever entries share the
    call.
    """
    images = np.asarray(images, dtype=np.float64)
    ids = np.asarray(ids)
    if images.ndim != 3 or not len(ids) == len(seeds) == len(out):
        raise ValueError(
            f"expected an (n, h, w) stack and as many seeds and out rows as ids, got "
            f"shape {images.shape}, {len(ids)} ids, {len(seeds)} seeds and {len(out)} out rows"
        )
    sigmas, deltas, rotations, dxs, dys = streams.uniforms(
        (seeds,),
        (
            spec.blur_sigma_range,
            spec.brightness_range,
            spec.rotation_range_degrees,
            spec.translation_range_pixels,
            spec.translation_range_pixels,
        ),
    ).T
    for rows, run in _blur_shift_runs(images, ids, sigmas, deltas):
        # The one transposing copy of the run, into its rows.
        out[rows] = _warp(run, rotations[rows], dxs[rows], dys[rows])
