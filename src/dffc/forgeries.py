"""Procedural synthetic forgery benchmark plus analysis metrics.

Each training pair starts from a procedurally generated grayscale "real"
image (smooth low-frequency content plus a fixed fine checkerboard
dither). The fake copy adds a banded elliptical artifact of random
amplitude, size, location and phase; both copies are then independently
post-processed with Gaussian blur and a brightness shift, augmentation's
first two steps, by the same code (:func:`dffc.augment.blur_shift`).

A split is a :class:`Split` of aligned arrays, one row per sample: the
images and the ground-truth amplitude and blur sigma. The pairing is the
row layout, real in row ``2p`` and fake in row ``2p + 1``. The clean
(pre-post-processing) images, which the tamper-ratio and similarity
analyses compare, are not stored: :func:`clean_pairs` rebuilds those of
any pairs on demand, together with their ground truth, by the code path
that generation post-processes. The tamper mask is where a fake's clean
image differs from its real's. Pair p's 24 parameters are row p of its
split's table, ``default_rng(key).uniform(lo, hi, size=(n_pairs, 24))``
with the key ``SeedSequence(seed, spawn_key=(PAIR_STREAM, split))`` (split
0 for train, 1 for test), drawn once per split by
``augment.table_rows``; numpy fills the table row by row, so a pair's
draws depend only on the seed, the split and p. The images are then built
a :data:`GENERATE_CHUNK` of pairs at a time,
and each chunk is post-processed straight into its rows of the split, so
only the post-processed images are kept. Each cosine of a base image or
an artifact is taken once per distinct argument (per wave number, row or
column, not per pixel) and reaches the grid through a strided view of its
table or by broadcasting, never by a gather. The pixels keep the bits of
the full-grid formulas: the wave numbers are exact integers in float64,
and every product is taken, on the same operands, before the add.

Images are stored as float32 in [0, 1], the dtype the blur and shift
compute in, as augmentation does. Fake is the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from dffc.augment import _reflect_index, blur_shift, table_rows
from dffc.errors import ConfigError, check_blur_bound, check_float64_count, check_range, check_seed

LABEL_REAL = "real"
LABEL_FAKE = "fake"

#: Mimics 8-bit quantization on unit-range pixels.
DEFAULT_TAR_THRESHOLD = 1.0 / 255.0

#: The split codes of the pair tables.
TRAIN_SPLIT, TEST_SPLIT = 0, 1

#: The first spawn-key word of the pair tables' keys. Each keyed stream of
#: the lab has its own (README, "Random streams").
PAIR_STREAM = 1


@dataclass(frozen=True)
class DatasetConfig:
    n_train: int = 2000
    n_test: int = 1000
    image_size: int = 16
    amplitude_range: tuple[float, float] = (0.12, 0.2)
    blur_range: tuple[float, float] = (0.0, 0.5)
    brightness_range: tuple[float, float] = (-0.06, 0.06)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("amplitude_range", "blur_range", "brightness_range"):
            bounds = check_range(name, getattr(self, name), non_negative=name != "brightness_range")
            object.__setattr__(self, name, bounds)
        lo, hi = self.brightness_range
        if not (-1.0 < lo and hi < 1.0):
            raise ConfigError(
                f"brightness_range: need -1 < lo and hi < 1, or every pixel of a "
                f"shifted image clips to one value; got ({lo}, {hi})"
            )
        if self.n_train <= 0 or self.n_train % 2:
            raise ConfigError(f"n_train must be positive and even, got {self.n_train}")
        if self.n_test <= 0 or self.n_test % 2:
            raise ConfigError(f"n_test must be positive and even, got {self.n_test}")
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        pixels = self.image_size**2
        check_float64_count("image_size", "an image", pixels)
        check_float64_count("n_train", "the training images", self.n_train * pixels)
        check_float64_count("n_test", "the test images", self.n_test * pixels)
        check_blur_bound("blur_range", self.blur_range, "image_size", self.image_size)
        check_seed("seed", self.seed)

    def split_size(self, split_code: int) -> int:
        """The sample count of the split with this code."""
        if split_code == TRAIN_SPLIT:
            return self.n_train
        if split_code == TEST_SPLIT:
            return self.n_test
        raise ValueError(
            f"split code must be {TRAIN_SPLIT} (train) or {TEST_SPLIT} (test), got {split_code}"
        )


#: Pairs generated per step; the step's clean pairs and their temporaries
#: grow with it. Generating the 32 px default dataset (25 MB of images)
#: raises the peak RSS by 26 MB at 64 pairs, 30 MB at 128, 36 MB at 256
#: and 43 MB with each split in one step. Timed alternately (process CPU
#: time, 2-CPU Xeon), 64 pairs ran within 2% of 128 at 32 px but 12%
#: slower at 16 px, and 256 ran 7% slower at 32 px.
#: :func:`laplacian_variance` takes this many images per step.
GENERATE_CHUNK = 128

#: Whole-cycle low-frequency Fourier modes (horizontal, vertical) of the
#: base images.
_MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (0, 2), (1, 2), (1, -2))


@dataclass(frozen=True)
class Split:
    """One split as aligned arrays in which row i is sample i.

    Rows ``2p`` and ``2p + 1`` are the real and the fake of pair p, so the
    fakes are the odd rows and fake i's real is row ``i - 1``. ``images``
    holds the post-processed pixels in float32, the only ones a run trains
    and evaluates on; :func:`clean_pairs` rebuilds the clean ones of any
    pairs, in float64. ``amplitudes`` is 0.0 for the reals.
    """

    images: np.ndarray
    amplitudes: np.ndarray
    blur_sigmas: np.ndarray

    def __len__(self) -> int:
        return len(self.images)

    @property
    def targets(self) -> np.ndarray:
        """1.0 for a fake (odd row), 0.0 for a real."""
        return (np.arange(len(self)) % 2).astype(np.float64)


def _base_images(amps: np.ndarray, phases: np.ndarray, size: int) -> np.ndarray:
    """Smooth low-frequency composites with pixel values inside [0.2, 0.8].

    Image i is a random mix of the whole-cycle low-frequency Fourier
    ``_MODES``, with amplitudes ``amps[i]`` and phases ``phases[i]`` (one
    column per mode), so pristine images carry no energy in the
    mid-frequency band the forgery artifact occupies.

    Mode (h, v) at pixel (y, x) depends only on the integer
    ``k = h*x + v*y``, which spans at most ``3*size - 2`` values, so each
    image's term is taken once per ``k`` of that span, into one table row
    per image, and added through a view of the table with strides
    ``(row, v, h)``: nothing the size of the grid is gathered. That is the
    full-grid sum to the bit: ``k`` is exact in float64, so equal ``k``
    gives equal wave bits, and each term's amplitude product is taken on
    the same operands before the add.
    """
    m = len(amps)
    img = np.full((m, size, size), 0.5)
    # Whole-cycle Fourier modes are exactly orthogonal (over the image
    # grid) to the forgery's banding frequency, so pristine images carry
    # no energy at the frequency the artifact occupies.
    budget = 0.3 / len(_MODES)
    for (h, v), amp, phase in zip(_MODES, amps.T, phases.T):
        k_lo = min(0, h * (size - 1)) + min(0, v * (size - 1))
        k_hi = max(0, h * (size - 1)) + max(0, v * (size - 1))
        wave = 2.0 * np.pi * np.arange(k_lo, k_hi + 1, dtype=np.float64) / size
        terms = (amp * budget)[:, None] * np.cos(wave + phase[:, None])
        # Column -k_lo holds k = 0, and every k of the grid lies in the row.
        at_zero = terms[:, -k_lo:]
        step = terms.itemsize
        img += as_strided(
            at_zero, (m, size, size), (terms.strides[0], v * step, h * step), writeable=False
        )
    # Fixed-amplitude checkerboard dither at the Nyquist frequency.  Its
    # Laplacian response dwarfs the smooth content's, so measured
    # sharpness tracks the post-processing blur level instead of the
    # random scene content, and it sits far from the artifact's band.
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img += 0.02 * np.where((xs + ys) % 2 == 0, 1.0, -1.0)
    return img


def _bumps(draws: np.ndarray, size: int) -> np.ndarray:
    """Smooth elliptical artifact templates with compact support.

    Row i of ``draws`` is bump i's centre, radii and banding phase (cx, cy,
    rx, ry, phase). The envelope (peak 1) is modulated by mid-frequency
    vertical banding. Natural content is smooth in that band, so the
    modulation is what makes fakes detectable at all, and post-processing
    blur attenuates it, which is what grades sample difficulty.

    Each cosine is taken once per distinct argument: the banding and the
    x and y radius terms on one row or column per bump, the envelope only
    inside the ellipse, where the full-grid clip to [0, 1] is the
    identity. Every pixel keeps the full-grid value to the bit.
    """
    cx, cy, rx, ry, phase = (col[:, None, None] for col in draws.T)
    xs = np.arange(size, dtype=np.float64)
    r = ((xs - cx) / rx) ** 2 + ((xs[:, None] - cy) / ry) ** 2
    np.sqrt(r, out=r)
    inside = r < 1.0
    envelope = np.zeros_like(r)
    envelope[inside] = np.cos(0.5 * np.pi * r[inside]) ** 2
    # Vertical banding, period 8 px, with a per-sample random phase.
    # Detecting it requires a translation-invariant (quadrature-energy)
    # response, so the easy-pool translation augmentation cannot flip an
    # augmented fake into looking pristine, and blur at sigma 1.5 still
    # only halves the banding energy.
    modulation = np.cos(0.25 * np.pi * xs + phase)
    envelope *= modulation
    return envelope


def clean_pairs(
    config: DatasetConfig, split_code: int, pair_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clean images and the ground truth of the given pairs of a split.

    Returns ``(clean, amplitudes, sigmas, deltas)`` with two rows per id, in
    the order of ``pair_ids``: row ``2k`` is pair ``pair_ids[k]``'s real and
    row ``2k + 1`` its fake. ``clean`` holds the pixels before
    post-processing, the pristine base for a real and base plus artifact
    for a fake; the other arrays hold each row's artifact amplitude (0.0
    for a real), blur sigma and brightness delta. Pair p's rows depend only
    on ``config.seed``, ``split_code`` and p, so they are the same whatever
    the other ids are. An id outside ``0..n_pairs - 1`` raises a
    ``ValueError`` that names it.
    """
    return _build_pairs(_pair_draws(config, split_code, pair_ids), config.image_size)


def _pair_draws(config: DatasetConfig, split_code: int, pair_ids: np.ndarray) -> np.ndarray:
    """Each pair's uniforms, one row per id, in the column layout of
    :func:`_build_pairs`: rows of the split's table."""
    size = config.image_size
    centre, radius = (0.25 * size, 0.75 * size), (0.33 * size, 0.45 * size)
    phase = (0.0, 2.0 * np.pi)
    bounds = [(0.2, 1.0), phase] * len(_MODES) + [centre, centre, radius, radius, phase]
    bounds += [config.amplitude_range] + [config.blur_range, config.brightness_range] * 2
    key = np.random.SeedSequence(config.seed, spawn_key=(PAIR_STREAM, split_code))
    return table_rows(key, bounds, pair_ids, config.split_size(split_code) // 2)


def _build_pairs(
    draws: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`clean_pairs` from the pairs' uniforms.

    A row of ``draws`` holds, in draw order: (amplitude, phase) per base
    mode, the bump's cx, cy, rx, ry and banding phase, the artifact
    amplitude, then (blur sigma, brightness delta) for the real and for
    the fake.
    """
    modes, bump, pair_amplitudes = np.split(draws[:, :-4], [2 * len(_MODES), -1], axis=1)
    # (sigma, delta) rows in row order: real, fake, real, fake, ...
    sigmas, deltas = draws[:, -4:].reshape(-1, 2).T.copy()
    amplitudes = np.zeros(len(sigmas))
    amplitudes[1::2] = pair_amplitudes[:, 0]
    clean = np.empty((len(sigmas), size, size))
    reals, fakes = clean[0::2], clean[1::2]
    reals[...] = _base_images(modes[:, 0::2], modes[:, 1::2], size)
    # The artifact, then its base added to it: the same bits as the base
    # plus the artifact, since addition commutes.
    np.multiply(pair_amplitudes[:, :, None], _bumps(bump, size), out=fakes)
    fakes += reals
    np.clip(fakes, 0.0, 1.0, out=fakes)
    return clean, amplitudes, sigmas, deltas


def generate_split(config: DatasetConfig, split_code: int) -> Split:
    """The split with this code, train or test; each is built on its own."""
    n = config.split_size(split_code)
    size = config.image_size
    draws = _pair_draws(config, split_code, np.arange(n // 2))
    images = np.empty((n, size, size), dtype=np.float32)
    amplitudes = np.empty(n)
    sigmas = np.empty(n)
    for start in range(0, n // 2, GENERATE_CHUNK):
        pairs = slice(start, start + GENERATE_CHUNK)
        rows = slice(2 * start, 2 * (start + GENERATE_CHUNK))
        clean, amplitudes[rows], sigmas[rows], deltas = _build_pairs(draws[pairs], size)
        blur_shift(clean, sigmas[rows], deltas, images[rows])
    return Split(images, amplitudes, sigmas)


def generate_dataset(config: DatasetConfig) -> tuple[Split, Split]:
    """Deterministic (train, test) splits with exactly balanced classes."""
    return generate_split(config, TRAIN_SPLIT), generate_split(config, TEST_SPLIT)


def laplacian_variance(images: np.ndarray) -> np.ndarray:
    """Variance of the 3x3 Laplacian response (reflect padding) of each image
    of an ``(n, h, w)`` stack; a sharpness score. The stack goes through
    ``GENERATE_CHUNK`` images at a time, so the temporaries do not grow with
    it; each image's score is computed on its own either way. Each chunk is
    gathered reflect-padded by one pixel, through the reflected indices of
    the blur's band matrices. The response is summed in float64 whatever the
    images' dtype: each tap of a float32 image is exact there, the centre's
    too, since -4 is a power of two."""
    n, h, w = images.shape
    rows, cols = (_reflect_index(np.arange(-1, k + 1), k) for k in (h, w))
    # Each padded pixel's flat index in its image: one take gathers a chunk
    # padded in C order. A fancy index leaves the image axis innermost,
    # which made the taps about 1.5 times as slow at 32 px.
    index = rows[:, None] * w + cols
    out = np.empty(n)
    for start in range(0, n, GENERATE_CHUNK):
        padded = np.take(images[start : start + GENERATE_CHUNK].reshape(-1, h * w), index, axis=1)
        # The taps of [[0, 1, 0], [1, -4, 1], [0, 1, 0]] in row-major order; a
        # unit tap adds its slice unmultiplied (1.0 * x is x to the bit).
        resp = np.zeros((len(padded), h, w))
        resp += padded[:, 0:h, 1 : w + 1]
        resp += padded[:, 1 : h + 1, 0:w]
        resp += -4.0 * padded[:, 1 : h + 1, 1 : w + 1]
        resp += padded[:, 1 : h + 1, 2 : w + 2]
        resp += padded[:, 2 : h + 2, 1 : w + 1]
        out[start : start + GENERATE_CHUNK] = resp.reshape(len(padded), -1).var(axis=1)
    return out


def quality_priors(images: np.ndarray, normalizer: float | None = None) -> tuple[np.ndarray, float]:
    """Static hardness in [0, 1] of each image of an ``(n, h, w)`` stack: blurrier (lower
    Laplacian variance) is harder. The normalizer defaults to the stack's max sharpness."""
    variances = laplacian_variance(images)
    if normalizer is None:
        normalizer = float(variances.max())
        if normalizer == 0.0:
            raise ValueError(
                f"all {len(images)} images are flat (zero Laplacian variance), "
                "so their max sharpness gives no positive normalizer"
            )
    if not normalizer > 0.0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    priors = np.clip(1.0 - variances / normalizer, 0.0, 1.0)
    return priors, normalizer


def tampering_ratios(fakes: np.ndarray, reals: np.ndarray) -> np.ndarray:
    """Per row pair of two ``(m, p)`` pixel stacks: the fraction of pixels
    differing by strictly more than :data:`DEFAULT_TAR_THRESHOLD`."""
    return np.mean(np.abs(fakes - reals) > DEFAULT_TAR_THRESHOLD, axis=1)


def ssims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Structural similarity of each row pair of two ``(m, p)`` pixel stacks,
    ``p >= 2``, over a single global window (images are tiny).

    Unit dynamic range, C1 = 0.01^2, C2 = 0.03^2, unbiased (co)variance.
    """
    c1, c2 = 0.01**2, 0.03**2
    mu_a, mu_b = a.mean(axis=1), b.mean(axis=1)
    var_a, var_b = a.var(axis=1, ddof=1), b.var(axis=1, ddof=1)
    cov = ((a - mu_a[:, None]) * (b - mu_b[:, None])).sum(axis=1) / (a.shape[1] - 1)
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    # ** 2 on an array multiplies, which on some images differs in the last
    # bit from the pow() that ** 2 on a numpy scalar calls; float_power calls pow().
    den = (np.float_power(mu_a, 2.0) + np.float_power(mu_b, 2.0) + c1) * (var_a + var_b + c2)
    return num / den


#: The share of a split's fakes in each group of :func:`dfh_extremes_report`.
EXTREMES_FRACTION = 0.1

#: The keys of the ``top`` and ``bottom`` groups of ``extremes.json``, and the
#: annotation :func:`~dffc.errors.typed` checks each value against.
EXTREMES_KEYS = {"ids": tuple[int, ...], "mean_tar": float, "mean_ssim": float}


def dfh_extremes_report(
    dataset_config: DatasetConfig, split_code: int, dfh_scores: np.ndarray
) -> dict:
    """Tamper-ratio / similarity statistics for the hardest- and easiest-
    scored :data:`EXTREMES_FRACTION` of the fakes of one split, measured
    against their pristine paired reals: the ``extremes.json`` document.

    ``dfh_scores`` holds one score per sample of the split; only the
    selected pairs' clean images are rebuilt, by :func:`clean_pairs`.
    """
    n = dataset_config.split_size(split_code)
    scores = np.asarray(dfh_scores, dtype=np.float64)
    if len(scores) != n:
        raise ValueError(
            f"dfh_scores: split {split_code} has {n} samples, got {len(scores)} scores"
        )
    order = np.argsort(scores[1::2], kind="stable")
    m = max(1, int(n // 2 * EXTREMES_FRACTION))
    # Fake i is pair i // 2's, so these are pair ids: the top group, then the bottom.
    pair_ids = np.concatenate([order[::-1][:m], order[:m]])
    clean = clean_pairs(dataset_config, split_code, pair_ids)[0].reshape(2 * len(pair_ids), -1)
    fakes, reals = clean[1::2], clean[0::2]
    tars, similarities = tampering_ratios(fakes, reals), ssims(fakes, reals)

    def _stats(group: slice) -> dict:
        return {
            "ids": (2 * pair_ids[group] + 1).tolist(),
            "mean_tar": float(np.mean(tars[group])),
            "mean_ssim": float(np.mean(similarities[group])),
        }

    return {
        "fraction": EXTREMES_FRACTION,
        "top": _stats(slice(0, m)),
        "bottom": _stats(slice(m, 2 * m)),
    }
