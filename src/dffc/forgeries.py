"""Procedural synthetic forgery benchmark plus analysis metrics.

Each training pair starts from a procedurally generated grayscale "real"
image (smooth low-frequency content plus a fixed fine checkerboard
dither). The fake copy adds a banded elliptical artifact of random
amplitude, size, location and phase; both copies are then independently
post-processed with Gaussian blur and a brightness shift. Ground truth
(amplitude, blur strength, tamper mask, real/fake pairing) is kept
alongside, which is what makes the tamper-ratio and similarity analyses
possible at all.

Images are 2-D float64 arrays in [0, 1]. Fake is the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dffc.augment import gaussian_blur
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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class ToySample:
    id: int
    image: np.ndarray
    label: str
    artifact_amplitude: float
    blur_sigma: float
    brightness_delta: float
    paired_real_id: int | None = None
    artifact_mask: np.ndarray | None = None
    #: Pre-post-processing pixels (pristine base for reals, base+bump for
    #: fakes).
    clean_image: np.ndarray | None = None

    @property
    def is_fake(self) -> bool:
        return self.label == LABEL_FAKE

    @property
    def target(self) -> float:
        return 1.0 if self.is_fake else 0.0


def _base_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth low-frequency composite with pixel values inside [0.2, 0.8].

    Content is a random mix of whole-cycle low-frequency Fourier modes,
    so pristine images carry no energy in the mid-frequency band the
    forgery artifact occupies.
    """
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((size, size), 0.5)
    # Whole-cycle Fourier modes are exactly orthogonal (over the image
    # grid) to the forgery's banding frequency, so pristine images carry
    # no energy at the frequency the artifact occupies.
    modes = [(1, 0), (0, 1), (1, 1), (1, -1), (0, 2), (1, 2), (1, -2)]
    budget = 0.3 / len(modes)
    for h, v in modes:
        amp = rng.uniform(0.2, 1.0) * budget
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img += amp * np.cos(2.0 * np.pi * (h * xs + v * ys) / size + phase)
    # Fixed-amplitude checkerboard dither at the Nyquist frequency.  Its
    # Laplacian response dwarfs the smooth content's, so measured
    # sharpness tracks the post-processing blur level instead of the
    # random scene content, and it sits far from the artifact's band.
    img += 0.02 * np.where((xs + ys) % 2 == 0, 1.0, -1.0)
    return img


def _bump(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth elliptical artifact template with compact support.

    The envelope (peak 1) is modulated by mid-frequency vertical banding.
    Natural content is smooth in that band, so the modulation is what
    makes fakes detectable at all, and post-processing blur attenuates
    it, which is what grades sample difficulty.
    """
    cx = rng.uniform(0.25 * size, 0.75 * size)
    cy = rng.uniform(0.25 * size, 0.75 * size)
    rx = rng.uniform(0.33 * size, 0.45 * size)
    ry = rng.uniform(0.33 * size, 0.45 * size)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    r = np.sqrt(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2)
    envelope = np.where(r < 1.0, np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 2, 0.0)
    # Vertical banding, period 8 px, with a per-sample random phase.
    # Detecting it requires a translation-invariant (quadrature-energy)
    # response, so the easy-pool translation augmentation cannot flip an
    # augmented fake into looking pristine, and blur at sigma 1.5 still
    # only halves the banding energy.
    phase = rng.uniform(0.0, 2.0 * np.pi)
    modulation = np.cos(0.25 * np.pi * xs + phase)
    return envelope * modulation


def _postprocess(
    image: np.ndarray, rng: np.random.Generator, config: DatasetConfig
) -> tuple[np.ndarray, float, float]:
    sigma = rng.uniform(*config.blur_range)
    delta = rng.uniform(*config.brightness_range)
    out = gaussian_blur(image, sigma) if sigma > 0.0 else image.copy()
    return np.clip(out + delta, 0.0, 1.0), sigma, delta


def _generate_split(config: DatasetConfig, n: int, split_code: int) -> list[ToySample]:
    samples: list[ToySample] = []
    size = config.image_size
    for pair in range(n // 2):
        # Per-pair stream keyed by (seed, split, pair) so generation is
        # order-independent and parallelizable.
        rng = np.random.default_rng((config.seed, split_code, pair))
        base = _base_image(rng, size)
        bump = _bump(rng, size)
        amplitude = rng.uniform(*config.amplitude_range)
        fake_clean = np.clip(base + amplitude * bump, 0.0, 1.0)
        real_img, real_sigma, real_delta = _postprocess(base, rng, config)
        fake_img, fake_sigma, fake_delta = _postprocess(fake_clean, rng, config)
        real_id, fake_id = 2 * pair, 2 * pair + 1
        samples.append(
            ToySample(
                id=real_id,
                image=real_img,
                label=LABEL_REAL,
                artifact_amplitude=0.0,
                blur_sigma=real_sigma,
                brightness_delta=real_delta,
                clean_image=base,
            )
        )
        samples.append(
            ToySample(
                id=fake_id,
                image=fake_img,
                label=LABEL_FAKE,
                artifact_amplitude=amplitude,
                blur_sigma=fake_sigma,
                brightness_delta=fake_delta,
                paired_real_id=real_id,
                artifact_mask=bump != 0.0,
                clean_image=fake_clean,
            )
        )
    return samples


def generate_dataset(config: DatasetConfig) -> tuple[list[ToySample], list[ToySample]]:
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


def quality_priors(samples: list[ToySample], normalizer: float | None = None) -> tuple[np.ndarray, float]:
    """Priors for a whole split; the normalizer defaults to the split's max sharpness."""
    variances = laplacian_variance(np.stack([s.image for s in samples]))
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


def dfh_extremes_report(
    samples: list[ToySample], dfh_scores: np.ndarray, fraction: float
) -> dict:
    """Tamper-ratio / similarity statistics for the hardest- and easiest-
    scored fakes, measured against their pristine paired reals."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction must be in (0, 0.5], got {fraction}")
    by_id = {s.id: s for s in samples}
    fakes = [s for s in samples if s.is_fake]
    if not fakes:
        raise ValueError("no fake samples in dataset")
    for s in fakes:
        if s.clean_image is None or by_id[s.paired_real_id].clean_image is None:
            raise ValueError("pristine images unavailable; regenerate the dataset from config")
    fake_ids = np.array([s.id for s in fakes])
    scores = np.asarray(dfh_scores, dtype=np.float64)[fake_ids]
    order = np.argsort(scores, kind="stable")
    m = max(1, int(len(fakes) * fraction))

    def _stats(idx: np.ndarray) -> dict:
        ids = [int(fake_ids[i]) for i in idx]
        tars, ssims = [], []
        for sid in ids:
            fake = by_id[sid]
            real = by_id[fake.paired_real_id]
            tars.append(tampering_ratio(fake.clean_image, real.clean_image))
            ssims.append(ssim(fake.clean_image, real.clean_image))
        return {
            "ids": ids,
            "mean_tar": float(np.mean(tars)),
            "mean_ssim": float(np.mean(ssims)),
        }

    return {
        "fraction": fraction,
        "top": _stats(order[::-1][:m]),
        "bottom": _stats(order[:m]),
    }
