"""Procedural synthetic forgery benchmark plus analysis metrics.

Each training pair starts from a procedurally generated grayscale "real"
image (smooth low-frequency content plus a fixed fine checkerboard
dither). The fake copy adds a banded elliptical artifact of random
amplitude, size, location and phase; both copies are then independently
post-processed with Gaussian blur and a brightness shift.

A split is a :class:`Split` of aligned arrays, one row per sample: the
images, the clean (pre-post-processing) images, and the ground-truth
amplitude, blur sigma and brightness delta. The pairing is the row
layout, real in row ``2p`` and fake in row ``2p + 1``, and the clean
images are what make the tamper-ratio and similarity analyses possible
at all. The tamper mask is not stored; it is where a fake's clean image
differs from its real's. Pair p draws its 24 parameters from its own
stream, numpy's ``default_rng((seed, split, p))`` (split 0 for train, 1 for
test), computed for every pair of a split at once by :mod:`dffc.streams`;
the images are then built a stack of pairs at a time.

Images are float64 in [0, 1]. Fake is the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dffc import streams
from dffc.augment import blur_stack
from dffc.errors import ConfigError

LABEL_REAL = "real"
LABEL_FAKE = "fake"

#: Mimics 8-bit quantization on unit-range pixels.
DEFAULT_TAR_THRESHOLD = 1.0 / 255.0

_LAPLACIAN_KERNEL = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)


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
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))
            if lo > hi:
                raise ConfigError(f"{name}: lo {lo} > hi {hi}")
        if self.amplitude_range[0] < 0.0 or self.blur_range[0] < 0.0:
            raise ConfigError("amplitude and blur ranges must be non-negative")
        if self.n_train <= 0 or self.n_train % 2:
            raise ConfigError(f"n_train must be positive and even, got {self.n_train}")
        if self.n_test <= 0 or self.n_test % 2:
            raise ConfigError(f"n_test must be positive and even, got {self.n_test}")
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        if not 0 <= self.seed < streams.KEY_LIMIT:
            raise ConfigError(f"seed must be in 0..2**64 - 1, got {self.seed}")


#: Pairs generated per step. 64 to 256 pairs run equally fast; the step's
#: temporaries grow with it. Generating the 32 px default dataset (48 MB
#: of arrays) raises the peak RSS by 60 MB at 128 pairs, and by 114 MB
#: with each split in one step.
GENERATE_CHUNK = 128

#: Whole-cycle low-frequency Fourier modes (horizontal, vertical) of the
#: base images.
_MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (0, 2), (1, 2), (1, -2))


@dataclass(frozen=True)
class Split:
    """One split as aligned arrays in which row i is sample i.

    Rows ``2p`` and ``2p + 1`` are the real and the fake of pair p, so the
    fakes are the odd rows and fake i's real is row ``i - 1``.
    ``clean_images`` holds the pixels before post-processing: the pristine
    base for a real, base plus artifact for a fake. ``amplitudes`` is 0.0
    for the reals.
    """

    images: np.ndarray
    clean_images: np.ndarray
    amplitudes: np.ndarray
    blur_sigmas: np.ndarray
    brightness_deltas: np.ndarray

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
    """
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((len(amps), size, size), 0.5)
    # Whole-cycle Fourier modes are exactly orthogonal (over the image
    # grid) to the forgery's banding frequency, so pristine images carry
    # no energy at the frequency the artifact occupies.
    budget = 0.3 / len(_MODES)
    for (h, v), amp, phase in zip(_MODES, amps.T, phases.T):
        wave = 2.0 * np.pi * (h * xs + v * ys) / size
        img += (amp * budget)[:, None, None] * np.cos(wave + phase[:, None, None])
    # Fixed-amplitude checkerboard dither at the Nyquist frequency.  Its
    # Laplacian response dwarfs the smooth content's, so measured
    # sharpness tracks the post-processing blur level instead of the
    # random scene content, and it sits far from the artifact's band.
    img += 0.02 * np.where((xs + ys) % 2 == 0, 1.0, -1.0)
    return img


def _bumps(draws: np.ndarray, size: int) -> np.ndarray:
    """Smooth elliptical artifact templates with compact support.

    Row i of ``draws`` is bump i's centre, radii and banding phase (cx, cy,
    rx, ry, phase). The envelope (peak 1) is modulated by mid-frequency
    vertical banding. Natural content is smooth in that band, so the
    modulation is what makes fakes detectable at all, and post-processing
    blur attenuates it, which is what grades sample difficulty.
    """
    cx, cy, rx, ry, phase = (col[:, None, None] for col in draws.T)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    r = np.sqrt(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2)
    envelope = np.where(r < 1.0, np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 2, 0.0)
    # Vertical banding, period 8 px, with a per-sample random phase.
    # Detecting it requires a translation-invariant (quadrature-energy)
    # response, so the easy-pool translation augmentation cannot flip an
    # augmented fake into looking pristine, and blur at sigma 1.5 still
    # only halves the banding energy.
    modulation = np.cos(0.25 * np.pi * xs + phase)
    return envelope * modulation


def _generate_split(config: DatasetConfig, n: int, split_code: int) -> Split:
    size = config.image_size
    n_modes = len(_MODES)
    # Each pair's uniforms, in draw order: (amplitude, phase) per base
    # mode, the bump's cx, cy, rx, ry and banding phase, the artifact
    # amplitude, then (blur sigma, brightness delta) for the real and for
    # the fake.
    centre, radius = (0.25 * size, 0.75 * size), (0.33 * size, 0.45 * size)
    phase = (0.0, 2.0 * np.pi)
    bounds = [(0.2, 1.0), phase] * n_modes + [centre, centre, radius, radius, phase]
    bounds += [config.amplitude_range] + [config.blur_range, config.brightness_range] * 2
    # Pair p's stream is default_rng((seed, split, p)), so generation is
    # order-independent and every pair is drawn in the same array step.
    draws = streams.uniforms((config.seed, split_code, np.arange(n // 2)), bounds)
    modes, bump, pair_amplitudes = np.split(draws[:, :-4], [2 * n_modes, -1], axis=1)
    # (sigma, delta) rows in sample order: real, fake, real, fake, ...
    sigmas, deltas = draws[:, -4:].reshape(n, 2).T.copy()
    amplitudes = np.zeros(n)
    amplitudes[1::2] = pair_amplitudes[:, 0]

    clean = np.empty((n, size, size))
    images = np.empty((n, size, size))
    for start in range(0, n // 2, GENERATE_CHUNK):
        pairs = slice(start, start + GENERATE_CHUNK)
        rows = slice(2 * start, 2 * (start + GENERATE_CHUNK))
        base = _base_images(modes[pairs, 0::2], modes[pairs, 1::2], size)
        fake = base + pair_amplitudes[pairs, :, None] * _bumps(bump[pairs], size)
        clean[rows][0::2] = base
        clean[rows][1::2] = np.clip(fake, 0.0, 1.0)
        # Post-processing: blur (none at sigma 0), then a brightness shift.
        blurred = blur_stack(clean[rows], sigmas[rows])
        images[rows] = np.clip(blurred + deltas[rows, None, None], 0.0, 1.0)
    return Split(images, clean, amplitudes, sigmas, deltas)


def generate_dataset(config: DatasetConfig) -> tuple[Split, Split]:
    """Deterministic (train, test) splits with exactly balanced classes."""
    train = _generate_split(config, config.n_train, split_code=0)
    test = _generate_split(config, config.n_test, split_code=1)
    return train, test


def laplacian_variance(images: np.ndarray) -> float | np.ndarray:
    """Variance of the 3x3 Laplacian response (reflect padding); a sharpness score.

    ``images`` is one ``(h, w)`` image, giving a float, or an ``(n, h, w)``
    stack, giving one variance per image (the image is the ``n = 1`` case).
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2:
        return float(laplacian_variance(images[None])[0])
    n, h, w = images.shape
    padded = np.pad(images, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    resp = np.zeros_like(images)
    for dy in range(3):
        for dx in range(3):
            tap = _LAPLACIAN_KERNEL[dy, dx]
            if tap:
                resp += tap * padded[:, dy : dy + h, dx : dx + w]
    return resp.reshape(n, -1).var(axis=1)


def quality_prior(image: np.ndarray, normalizer: float) -> float:
    """Static hardness in [0, 1]: blurrier (lower Laplacian variance) is harder."""
    if normalizer <= 0.0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    return float(np.clip(1.0 - laplacian_variance(image) / normalizer, 0.0, 1.0))


def quality_priors(images: np.ndarray, normalizer: float | None = None) -> tuple[np.ndarray, float]:
    """Priors for an ``(n, h, w)`` stack; the normalizer defaults to its max sharpness."""
    variances = laplacian_variance(images)
    if normalizer is None:
        normalizer = float(variances.max())
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive")
    priors = np.clip(1.0 - variances / normalizer, 0.0, 1.0)
    return priors, normalizer


def tampering_ratio(
    fake: np.ndarray, real: np.ndarray, threshold: float = DEFAULT_TAR_THRESHOLD
) -> float:
    """Fraction of pixels differing by strictly more than ``threshold``."""
    if fake.shape != real.shape:
        raise ValueError(f"shape mismatch: {fake.shape} vs {real.shape}")
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return float(np.mean(np.abs(fake - real) > threshold))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity over a single global window (images are tiny).

    Unit dynamic range, C1 = 0.01^2, C2 = 0.03^2, unbiased (co)variance.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    c1, c2 = 0.01**2, 0.03**2
    a = a.astype(np.float64).ravel()
    b = b.astype(np.float64).ravel()
    mu_a, mu_b = a.mean(), b.mean()
    n = len(a)
    var_a = a.var(ddof=1) if n > 1 else 0.0
    var_b = b.var(ddof=1) if n > 1 else 0.0
    cov = ((a - mu_a) * (b - mu_b)).sum() / (n - 1) if n > 1 else 0.0
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(num / den)


def dfh_extremes_report(split: Split, dfh_scores: np.ndarray, fraction: float) -> dict:
    """Tamper-ratio / similarity statistics for the hardest- and easiest-
    scored fakes, measured against their pristine paired reals."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction must be in (0, 0.5], got {fraction}")
    if len(split) < 2:
        raise ValueError("no fake samples in dataset")
    fake_ids = np.arange(1, len(split), 2)
    scores = np.asarray(dfh_scores, dtype=np.float64)[fake_ids]
    order = np.argsort(scores, kind="stable")
    m = max(1, int(len(fake_ids) * fraction))

    def _stats(idx: np.ndarray) -> dict:
        ids = fake_ids[idx]
        clean = split.clean_images
        tars = [tampering_ratio(clean[i], clean[i - 1]) for i in ids]
        ssims = [ssim(clean[i], clean[i - 1]) for i in ids]
        return {
            "ids": ids.tolist(),
            "mean_tar": float(np.mean(tars)),
            "mean_ssim": float(np.mean(ssims)),
        }

    return {
        "fraction": fraction,
        "top": _stats(order[::-1][:m]),
        "bottom": _stats(order[:m]),
    }
