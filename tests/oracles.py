"""Independent references the tests check the package against.

The single-image augmentations (:func:`gaussian_blur`,
:func:`brightness_adjust`, :func:`affine`) are the bit-exact oracles of
``dffc.augment``'s stack operations, :func:`tampering_ratio` and
:func:`ssim` the bit-exact oracles of ``dffc.forgeries``' row-wise
``tampering_ratios`` and ``ssims``, :func:`base_images` and :func:`bumps`
the bit-exact full-grid oracles of ``dffc.forgeries``' ``_base_images`` and
``_bumps``, :func:`laplacian_variances` the ``np.pad`` reference of
``dffc.forgeries.laplacian_variance``'s gathered padding,
:func:`masked_sigmoid` and :func:`gradients_reference` the bit-exact
oracles of ``dffc.model``'s ``_sigmoid`` and ``gradients``,
:func:`flatten_params` and :func:`unflatten_params` map a model's
parameters to one vector and back for the finite-difference checks,
:func:`load_checkpoint` decodes the
``checkpoint.json`` and ``checkpoint.bin`` that ``model.save_checkpoint``
writes, :func:`brute_force_topk` is the sorting reference of
``dffc.pacing``'s hard- and easy-pool selection, :func:`hard_ids`,
:func:`easy_ids` and :func:`overlap` are the
sort-based references of ``EpochPool.composition``,
:func:`assert_pools_equal` compares two epoch pools and
:func:`assert_pool_streams_equal` two runs' epoch records.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from dffc.augment import _reflect_index
from dffc.forgeries import _MODES, DEFAULT_TAR_THRESHOLD
from dffc.model import PROB_EPS, ModelParams
from dffc.pacing import EpochPool
from dffc.runner import MetricsLog


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discrete Gaussian with radius ceil(3*sigma), normalized to sum 1."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


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


def tampering_ratio(fake: np.ndarray, real: np.ndarray) -> float:
    """Fraction of pixels differing by strictly more than ``DEFAULT_TAR_THRESHOLD``."""
    if fake.shape != real.shape:
        raise ValueError(f"shape mismatch: {fake.shape} vs {real.shape}")
    return float(np.mean(np.abs(fake - real) > DEFAULT_TAR_THRESHOLD))


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


def base_images(amps: np.ndarray, phases: np.ndarray, size: int) -> np.ndarray:
    """The base images with every mode's cosine taken at every pixel."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((len(amps), size, size), 0.5)
    budget = 0.3 / len(_MODES)
    for (h, v), amp, phase in zip(_MODES, amps.T, phases.T):
        wave = 2.0 * np.pi * (h * xs + v * ys) / size
        img += (amp * budget)[:, None, None] * np.cos(wave + phase[:, None, None])
    img += 0.02 * np.where((xs + ys) % 2 == 0, 1.0, -1.0)
    return img


def bumps(draws: np.ndarray, size: int) -> np.ndarray:
    """The artifact templates with every cosine taken at every pixel."""
    cx, cy, rx, ry, phase = (col[:, None, None] for col in draws.T)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    r = np.sqrt(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2)
    envelope = np.where(r < 1.0, np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 2, 0.0)
    modulation = np.cos(0.25 * np.pi * xs + phase)
    return envelope * modulation


def laplacian_variances(stack: np.ndarray) -> np.ndarray:
    """The variance of each image's 3x3 Laplacian response, the whole stack
    reflect-padded by ``np.pad`` and the taps added in row-major order."""
    h, w = stack.shape[1:]
    padded = np.pad(stack, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    resp = np.zeros_like(stack)
    resp += padded[:, 0:h, 1 : w + 1]
    resp += padded[:, 1 : h + 1, 0:w]
    resp += -4.0 * padded[:, 1 : h + 1, 1 : w + 1]
    resp += padded[:, 1 : h + 1, 2 : w + 2]
    resp += padded[:, 2 : h + 2, 1 : w + 1]
    return resp.reshape(len(stack), -1).var(axis=1)


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, each sign's formula on its own masked gather."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def gradients_reference(
    params: ModelParams, X: np.ndarray, y: np.ndarray
) -> tuple[ModelParams, np.ndarray]:
    """The clamped-BCE batch gradient and clamped probabilities, with the
    masked sigmoid, ``np.clip`` and ``np.outer``."""
    A1 = np.maximum(X @ params.W1.T + params.b1, 0.0)
    probs = np.clip(masked_sigmoid(A1 @ params.w2 + params.b2), PROB_EPS, 1.0 - PROB_EPS)
    live = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    dz2 = np.where(live, probs - y, 0.0) / X.shape[0]
    dZ1 = np.outer(dz2, params.w2) * (A1 > 0.0)
    grads = ModelParams(W1=dZ1.T @ X, b1=dZ1.sum(axis=0), w2=A1.T @ dz2, b2=float(dz2.sum()))
    return grads, probs


def flatten_params(params: ModelParams) -> np.ndarray:
    """``W1``, ``b1``, ``w2`` and ``b2`` as one vector, in that order."""
    return np.concatenate(
        [params.W1.ravel(), params.b1.ravel(), params.w2.ravel(), [params.b2]]
    )


def unflatten_params(vec: np.ndarray, like: ModelParams) -> ModelParams:
    """The inverse of :func:`flatten_params` for parameters shaped as ``like``."""
    n_h, n_in = like.W1.shape
    i = 0
    W1 = vec[i : i + n_h * n_in].reshape(n_h, n_in); i += n_h * n_in
    b1 = vec[i : i + n_h].copy(); i += n_h
    w2 = vec[i : i + n_h].copy(); i += n_h
    return ModelParams(W1=W1, b1=b1, w2=w2, b2=float(vec[i]))


def load_checkpoint(header_path: Path, blob_path: Path) -> tuple[ModelParams, dict]:
    header = json.loads(Path(header_path).read_text())
    shapes = header["shapes"]
    flat = np.frombuffer(Path(blob_path).read_bytes(), dtype="<f8").astype(np.float64)
    h, d = shapes["W1"]
    n1 = h * d
    expected = n1 + 2 * h + 1
    if len(flat) != expected:
        raise ValueError(f"parameter blob holds {len(flat)} floats, expected {expected}")
    params = ModelParams(
        W1=flat[:n1].reshape(h, d),
        b1=flat[n1 : n1 + h],
        w2=flat[n1 + h : n1 + 2 * h],
        b2=float(flat[n1 + 2 * h]),
    )
    return params, header


def brute_force_topk(scores, k, largest):
    """The ``k`` indices of the largest (or smallest) ``scores``, ascending:
    (score, index) pairs sorted explicitly, ties to the smaller index."""
    keyed = sorted(
        range(len(scores)),
        key=(lambda i: (-scores[i], i)) if largest else (lambda i: (scores[i], i)),
    )
    return sorted(keyed[:k])


def hard_ids(pool: EpochPool) -> np.ndarray:
    """Sorted distinct ids of a pool's originals."""
    return np.unique(pool.entries[pool.seeds < 0])


def easy_ids(pool: EpochPool) -> np.ndarray:
    """Sorted distinct ids of a pool's augmented copies."""
    return np.unique(pool.entries[pool.seeds >= 0])


def overlap(pool: EpochPool) -> int:
    """Samples that appear in a pool both raw and augmented."""
    return len(np.intersect1d(hard_ids(pool), easy_ids(pool), assume_unique=True))


def assert_pools_equal(a: EpochPool, b: EpochPool, t: int = 1) -> None:
    """Epoch ``t``'s two pools are equal, entry for entry and seed for seed."""
    np.testing.assert_array_equal(a.entries, b.entries, err_msg=f"entries of pool {t}")
    np.testing.assert_array_equal(a.seeds, b.seeds, err_msg=f"seeds of pool {t}")


def assert_pool_streams_equal(a: MetricsLog, b: MetricsLog) -> None:
    """Two runs trained on the same pools, with the same losses, every epoch."""
    assert len(a.epochs) == len(b.epochs)
    for t, (ra, rb) in enumerate(zip(a.epochs, b.epochs), start=1):
        assert_pools_equal(ra["pool"], rb["pool"], t)
        np.testing.assert_array_equal(ra["losses"], rb["losses"], err_msg=f"losses of epoch {t}")
