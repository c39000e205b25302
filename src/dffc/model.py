"""From-scratch binary classifier: one-hidden-layer ReLU MLP, BCE loss,
plain SGD, and a per-epoch cosine learning-rate schedule."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dffc.errors import InvalidScheduleError

#: Output probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] so the
#: loss stays finite.
PROB_EPS = 1e-7


@dataclass
class ModelParams:
    W1: np.ndarray  # (hidden, inputs)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float


@dataclass(frozen=True)
class LrSchedule:
    eta_max: float
    eta_min: float
    total_epochs: int

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_min <= self.eta_max:
            raise InvalidScheduleError(
                f"need 0 < eta_min <= eta_max, got {self.eta_min}, {self.eta_max}"
            )
        if self.total_epochs < 1:
            raise InvalidScheduleError("total_epochs must be >= 1")


def init_params(n_inputs: int, n_hidden: int, seed: int) -> ModelParams:
    """Weights uniform in [-1/sqrt(d), 1/sqrt(d)], biases zero."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(n_inputs)
    return ModelParams(
        W1=rng.uniform(-bound, bound, (n_hidden, n_inputs)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-bound, bound, n_hidden),
        b2=0.0,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Probabilities for a (batch, inputs) pixel matrix."""
    X = np.atleast_2d(X)
    if X.shape[1] != params.W1.shape[1]:
        raise ValueError(f"expected {params.W1.shape[1]} inputs, got {X.shape[1]}")
    hidden = np.maximum(X @ params.W1.T + params.b1, 0.0)
    logits = hidden @ params.w2 + params.b2
    return np.clip(_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)


def bce_loss(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy; inputs assumed pre-clamped."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def gradients(params: ModelParams, X: np.ndarray, y: np.ndarray) -> ModelParams:
    """Mean-over-batch gradient of the clamped BCE loss.

    Where the output clamp is active the loss is locally constant in the
    logit, so those rows contribute zero (this is what a finite-difference
    check sees too).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    Z1 = X @ params.W1.T + params.b1
    A1 = np.maximum(Z1, 0.0)
    p_raw = _sigmoid(A1 @ params.w2 + params.b2)
    live = (p_raw > PROB_EPS) & (p_raw < 1.0 - PROB_EPS)
    dz2 = np.where(live, p_raw - y, 0.0) / X.shape[0]
    dA1 = np.outer(dz2, params.w2)
    dZ1 = dA1 * (Z1 > 0.0)
    return ModelParams(
        W1=dZ1.T @ X,
        b1=dZ1.sum(axis=0),
        w2=A1.T @ dz2,
        b2=float(dz2.sum()),
    )


def sgd_step(params: ModelParams, grads: ModelParams, eta: float) -> ModelParams:
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    return ModelParams(
        W1=params.W1 - eta * grads.W1,
        b1=params.b1 - eta * grads.b1,
        w2=params.w2 - eta * grads.w2,
        b2=params.b2 - eta * grads.b2,
    )


def cosine_lr(schedule: LrSchedule, t: int) -> float:
    """Learning rate at 1-based epoch ``t``: eta_max at t=1 decaying to
    eta_min at t=total_epochs along a half cosine."""
    if not 1 <= t <= schedule.total_epochs:
        raise ValueError(f"epoch {t} outside 1..{schedule.total_epochs}")
    if schedule.total_epochs == 1:
        return schedule.eta_max
    span = schedule.eta_max - schedule.eta_min
    phase = math.pi * (t - 1) / (schedule.total_epochs - 1)
    return schedule.eta_min + 0.5 * span * (1.0 + math.cos(phase))


# ---------------------------------------------------------------------------
# Checkpoints: JSON header + little-endian float64 parameter blob.

def save_checkpoint(params: ModelParams, seed: int, epoch: int, header_path: Path, blob_path: Path) -> None:
    header = {
        "shapes": {
            "W1": list(params.W1.shape),
            "b1": list(params.b1.shape),
            "w2": list(params.w2.shape),
            "b2": [],
        },
        "seed": seed,
        "epoch": epoch,
    }
    Path(header_path).write_text(json.dumps(header, indent=1))
    blob = np.concatenate(
        [params.W1.ravel(), params.b1, params.w2, [params.b2]]
    ).astype("<f8")
    Path(blob_path).write_bytes(blob.tobytes())


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
