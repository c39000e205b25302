"""Seeded lightweight augmentations for easy-pool samples.

Images are stored as float64 stacks ``(n, h, w)`` in [0, 1], and the
three operations (Gaussian blur, brightness shift, affine warp) compute
in float32: each run is cast to float32 once, and its pixels are written
into the caller's array in that array's dtype, a split's float64 images
(:func:`blur_shift`) or the rows of the runner's float32 row store
(:func:`augment_pixels`), which take them with no cast. They are
applied in that fixed order by :func:`augment_pixels`; every parameter is
drawn from the spec ranges by numpy's ``default_rng`` keyed by the
entry's seed, so augmentation is fully reproducible. Entry i's five draws are row ``ids[i]``
of one table per seed, ``default_rng(seed).uniform(lo, hi, size=(n, 5))``
(:func:`table_rows`): numpy fills a table row by row, so an entry's draws
depend on its seed and its sample id alone.

:func:`augment_pixels` augments every easy-pool copy of an epoch in one
call, each entry one sample id of the source stack with its seed, and
writes each entry's augmented pixels, flattened, into its row of a matrix
the caller holds. It draws one table per distinct seed. Its blur,
shift and clip are one pipeline, which also post-processes the synthetic
dataset (:func:`blur_shift`): the entries go widest blur radius first, in
runs of one radius and at most ``AUGMENT_CHUNK`` entries, with the kernels
of each radius built in one step. Each run gathers its own source images
by sample id, as one ``(m, h, w)`` stack, so nothing the size of the whole
call is gathered or stacked. Each entry's kernel and the reflect padding
fold into one band matrix per axis, so the blur of a run is two batched
matrix products, ``K_h @ X @ K_w.T``, and the shift adds each entry's
delta; the band matrices are filled from cached fold layers of each
kernel width and axis length, in float64, and each is cast to float32
once. The warp gathers a blurred ``(m, h, w)`` run once, with the image
axis innermost, into a ``(h', w', m)`` copy reflect-padded just enough to
hold every read, its span taken from the four corners of the source
grid, so one flat offset per pixel finds all four of its corners: the
next x lies ``m`` elements on, the next y one padded row on. The offsets
are summed in int64, since a padded run can hold more elements than
float32 counts exactly, from floors cast through int32. A run's warped
pixels are transposed once as they are written into their rows of the
caller's matrix (:func:`augment_pixels`), which may be a row slice of a
larger one; :func:`blur_shift` writes its runs into their images of the
caller's stack as they are. Every entry comes out
bit-identical to the single-image ``gaussian_blur``, ``brightness_adjust``
and ``affine`` of ``tests/oracles.py``, whichever entries share its call
or its run; the blur's bits, like any matrix product's, depend on the
BLAS build.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from dffc.errors import ConfigError, check_range

#: Most entries per run of the blur-and-shift pipeline. Each run is gathered,
#: augmented and written into its rows of pixels on its own, so the
#: temporaries grow with the run, not with the call: beyond its output
#: matrix, an :func:`augment_pixels` call on 1 000 16 px images peaks at
#: 0.93 MB of traced memory in runs of 64, 1.72 MB at 128 and 3.05 MB at
#: 256, the run's gathered float64 images and float64 band matrices
#: included. On a 2-CPU Xeon with one BLAS thread, such a call took a median
#: 16.6, 19.6 and 21.3 ms in runs of 64, 128 and 256 (30 alternated calls
#: each, the machine in a slow phase). Inside default dffc runs, runs of 64
#: read run_s 5.4% higher than runs of 128 when the pipeline was float64
#: (6 of 6 alternated rounds). In float32, runs of 256 read run_s 2.9% lower
#: than runs of 128, but in only 7 of 10 alternated pairs and by less than
#: the spread of the runs of 128, and their peak RSS was 0.46 MB higher in
#: 10 of 10.
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


def table_rows(key, bounds: Sequence[tuple[float, float]], ids: np.ndarray, n: int) -> np.ndarray:
    """Rows ``ids`` of the ``(n, len(bounds))`` table
    ``default_rng(key).uniform(lo, hi)``, column j drawn in ``bounds[j]``.

    numpy fills the table row by row, so row p depends only on the key and
    on p, not on ``n`` or on the other ids, and only the rows up to the
    greatest id are drawn. An id outside ``0..n - 1`` raises a
    ``ValueError`` that names it.
    """
    ids = np.asarray(ids)
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise ValueError(f"id {bad[0]} outside 0..{n - 1}")
    lo, hi = np.array(bounds, dtype=np.float64).T
    rows = int(ids.max()) + 1 if len(ids) else 0
    return np.random.default_rng(key).uniform(lo, hi, size=(rows, len(lo)))[ids]


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


@functools.lru_cache(maxsize=64)
def _fold_layers(size: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Where the taps of a kernel of ``size`` land in the flat ``(n, n)``
    band matrix of an axis of ``n`` pixels, split into layers: row i holds
    tap j at column ``_reflect_index(i + j - size // 2)``, and layer k holds
    the k-th tap, in ascending tap order, to land on each position, as the
    positions and their taps. No position repeats within a layer, and there
    are two layers unless the kernel folds over more than one reflection.

    Cached, as read-only arrays: building the layers costs about as much
    as filling one run's band matrices from them."""
    at = np.arange(n)[:, None]
    flat = at * n + _reflect_index(at + np.arange(size) - size // 2, n)
    # Tap j's layer: how many taps before it in its row land on its column.
    layer = np.tril(flat[:, :, None] == flat[:, None, :], -1).sum(axis=2)
    tap = np.broadcast_to(np.arange(size), flat.shape)
    layers = tuple((flat[layer == k], tap[layer == k]) for k in range(layer.max() + 1))
    for array in (a for pair in layers for a in pair):
        array.flags.writeable = False
    return layers


def _band_matrices(taps: np.ndarray, n: int) -> np.ndarray:
    """Each kernel of a run, ``(m, 2r + 1)``, folded with the reflect
    padding of an axis of ``n`` pixels into one ``(n, n)`` band matrix: row
    i holds tap j at column ``_reflect_index(i + j - r)``, the taps that
    fold onto one column added in order from zero. Of the
    :func:`_fold_layers`, the first is written (0 + t is t) and each later
    one added. ``K @ x`` then blurs each column of ``x`` along its ``n``
    rows."""
    bands = np.zeros((len(taps), n * n))
    (at, tap), *later = _fold_layers(taps.shape[1], n)
    bands[:, at] = taps[:, tap]
    for at, tap in later:
        bands[:, at] += taps[:, tap]
    return bands.reshape(-1, n, n)


def _blur_shift_runs(
    images: np.ndarray, ids: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each run of :func:`_radius_runs` as its indices into ``ids``
    and the images of those ids blurred (none at radius 0), shifted by their
    deltas and clipped, as one float32 ``(m, h, w)`` stack. Entry i is image
    ``ids[i]`` with ``sigmas[i]`` and ``deltas[i]``; each run gathers only
    its own images and casts them to float32 once.

    A run is blurred as two batched matrix products, ``K_h @ X @ K_w.T``,
    each entry's band matrices from :func:`_band_matrices` (one for both
    axes of a square image). ``np.matmul`` takes each image's product on
    its own, so an entry's bits do not depend on what shares its run.
    """
    _, h, w = images.shape
    # A delta at or beyond 1 clips every pixel in [0, 1] to 1 or 0, so the
    # clamp changes no pixel, and it keeps a huge delta's float32 cast finite.
    shifts = np.clip(deltas, -1.0, 1.0).astype(np.float32)
    for rows, taps in _radius_runs(sigmas):
        run = images[ids[rows]].astype(np.float32)
        if taps is not None:
            row_bands = _band_matrices(taps, h).astype(np.float32)
            col_bands = row_bands if w == h else _band_matrices(taps, w).astype(np.float32)
            np.matmul(np.matmul(row_bands, run), col_bands.transpose(0, 2, 1), out=run)
            np.clip(run, 0.0, 1.0, out=run)
        run += shifts[rows, None, None]
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
        out[rows] = run


def _pad_offsets(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``floor(src)`` as offsets into a reflect-padded axis of length ``n``,
    in the dtype of ``src``, and the frame indices that padded axis reads.

    ``src`` holds one axis's source coordinates over a run's ``(h, w, m)``
    grid. Each is a rounded sum of terms monotone in x and in y, so the
    floors reach their least and greatest at the grid's four corners, where
    the read span is taken. The fraction ``src - floor(src)`` is written
    into ``src``, as ``affine`` of ``tests/oracles.py`` computes it.
    Reflection has period ``2n - 2`` (1 when ``n`` is 1), so floors that
    reach beyond one reflection, where ``floor`` or ``floor + 1`` leaves
    ``[1 - n, 2n - 2]``, are first folded into one period; either way the
    padded axis covers ``[min, max + 1]`` of the floors, at most ``n - 1``
    beyond each edge (1 when ``n`` is 1). A floor is an integer that its
    dtype holds exactly, and the fold's ``mod`` is exact. Every floor then
    lies within three axis lengths of 0, so for an axis below 2**22 pixels
    the shift by the least floor is exact in float32 too, and the shifted
    floors cast exactly to int32.
    """
    corners = np.floor(src[[0, -1]][:, [0, -1]])
    lo, hi = int(corners.min()), int(corners.max()) + 1
    floor = np.floor(src)
    src -= floor
    if lo < 1 - n or hi > 2 * n - 2:
        np.mod(floor, max(2 * n - 2, 1), out=floor)
        lo, hi = int(floor.min()), int(floor.max()) + 1
    floor -= lo
    return floor, _reflect_index(np.arange(lo, hi + 1), n)


def _warp(run: np.ndarray, rotations: np.ndarray, dxs: np.ndarray, dys: np.ndarray) -> np.ndarray:
    """Rotation about the centre plus translation of each image of a float32
    ``(m, h, w)`` run by its own angle and shift, bilinear and inverse-mapped
    with reflected reads. The output is float32 ``(m, h*w)`` rows, a
    transposed view of the warped ``(h, w, m)`` run, and row i equals
    ``affine(...).ravel()`` of ``tests/oracles.py``. The cosines and sines
    are taken in float64 and cast; every coordinate, weight and pixel is
    float32.

    The run is gathered once, reflect-padded just enough to hold every read
    and with the image axis innermost, so one flat offset per pixel finds
    its four corners at fixed distances. Products are taken in place where
    that keeps the oracle's order of operations.
    """
    m, h, w = run.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    thetas = np.radians(rotations)
    cos_t, sin_t = np.cos(thetas).astype(np.float32), np.sin(thetas).astype(np.float32)
    # u varies along a row and v down a column, so only the sums are full-size.
    u = (np.arange(w, dtype=np.float32)[:, None] - dxs.astype(np.float32)) - cx
    v = (np.arange(h, dtype=np.float32)[:, None, None] - dys.astype(np.float32)) - cy
    fx = cos_t * u + sin_t * v
    fx += cx
    fy = -sin_t * u + cos_t * v
    fy += cy
    del u, v
    x_floors, x_reads = _pad_offsets(fx, w)
    y_floors, y_reads = _pad_offsets(fy, h)
    # The gather is C-contiguous, (y, x, image), so its flat view is no copy.
    flat = run.transpose(1, 2, 0)[y_reads[:, None], x_reads].reshape(-1)
    # One flat offset per pixel: y (a padded row), then x, then the image,
    # summed in int64, since a padded run can hold more than the 2**24
    # elements whose offsets float32 holds exactly. Each floor lies within
    # three axis lengths of 0, so it casts exactly through int32, which
    # numpy casts float32 to about four times faster than to int64.
    y_step = len(x_reads) * m
    offsets = np.multiply(y_floors.astype(np.int32), len(x_reads), dtype=np.int64)
    offsets += x_floors.astype(np.int32)
    del x_floors, y_floors
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
    the five parameters in row ``ids[i]`` of ``seeds[i]``'s table
    (:func:`table_rows`); an id may repeat. ``out[i]`` receives ``h * w``
    pixels, bit-identical to ``affine(brightness_adjust(gaussian_blur(
    images[ids[i]], sigma), delta), theta, dx, dy).ravel()`` of
    ``tests/oracles.py``, whichever entries share the call.
    """
    images = np.asarray(images, dtype=np.float64)
    ids = np.asarray(ids)
    if images.ndim != 3 or not len(ids) == len(seeds) == len(out):
        raise ValueError(
            f"expected an (n, h, w) stack and as many seeds and out rows as ids, got "
            f"shape {images.shape}, {len(ids)} ids, {len(seeds)} seeds and {len(out)} out rows"
        )
    bounds = (
        spec.blur_sigma_range,
        spec.brightness_range,
        spec.rotation_range_degrees,
        spec.translation_range_pixels,
        spec.translation_range_pixels,
    )
    draws = np.empty((len(ids), len(bounds)))
    keys, which = np.unique(np.asarray(seeds), return_inverse=True)
    for k, key in enumerate(keys):
        at = which == k
        draws[at] = table_rows(int(key), bounds, ids[at], len(images))
    sigmas, deltas, rotations, dxs, dys = draws.T
    for rows, run in _blur_shift_runs(images, ids, sigmas, deltas):
        out[rows] = _warp(run, rotations[rows], dxs[rows], dys[rows])
