"""From-scratch binary classifier: one-hidden-layer ReLU MLP, BCE loss,
plain SGD, and a per-epoch cosine learning-rate schedule, whose bounds
and length :func:`check_lr` checks once for a run. Each SGD step runs one
forward pass: :func:`gradients` also returns the clamped probabilities the
step's losses are recorded from, and :func:`sgd_step` updates the
parameter arrays in place.

The model trains in :data:`TRAIN_DTYPE`, float32: its weights, the input
rows the runner feeds it, and so both matrix products of each step and
the evaluation's forward pass. The forward pass, the gradients and the
update compute in the dtype of their operands, so a float64 operand
anywhere in a step promotes its matrix products to float64; the learning
rate, a Python float, is rounded to the weights' dtype, and one beyond
float32's range overflows that cast. What needs float64 stays float64:
``b2`` is a Python float, :func:`bce_loss` widens the probabilities it is
given, and the checkpoint holds ``<f8`` values, into which float32 widens
exactly.

At 16 px a step's arrays are small, so its cost is mostly the number of
numpy calls: the sigmoid and the output clamp are whole-array ufunc calls
with no boolean gathers, and the ReLU and clamp write into the arrays they
read. At 32 px a step is bound by its matrix products instead, so the
layout of their operands decides its cost. ``W1`` keeps its
``(hidden, inputs)`` shape but is stored F-ordered, so ``W1.T`` is
C-contiguous and the forward product ``X @ W1.T`` is a plain GEMM of two
row-major operands; :func:`gradients` returns the weight gradient
F-ordered too, so the in-place update never mixes memory orders. The
checkpoint does not see the order: its header gives the
``(hidden, inputs)`` shape and its blob ``W1.ravel()``, in C order."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dffc.errors import ConfigError

#: Output probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] so the
#: loss stays finite.
PROB_EPS = 1e-7

#: The dtype of the weights, the input rows and every matrix product of
#: training and evaluation.
TRAIN_DTYPE = np.float32


@dataclass
class ModelParams:
    W1: np.ndarray  # (hidden, inputs), F-ordered
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float


def init_params(n_inputs: int, n_hidden: int, seed: int) -> ModelParams:
    """Weights uniform in [-1/sqrt(d), 1/sqrt(d)], biases zero, in
    :data:`TRAIN_DTYPE`: the weights are drawn in float64 and cast once,
    ``W1`` into F order."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(n_inputs)
    return ModelParams(
        W1=rng.uniform(-bound, bound, (n_hidden, n_inputs)).astype(TRAIN_DTYPE, order="F"),
        b1=np.zeros(n_hidden, dtype=TRAIN_DTYPE),
        w2=rng.uniform(-bound, bound, n_hidden).astype(TRAIN_DTYPE),
        b2=0.0,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` where ``z >= 0``, else ``exp(z) / (1 + exp(z))``.

    Both are taken of ``e = exp(-|z|) <= 1``, so neither overflows: the
    numerator ``1`` or ``e`` over ``1 + e``. ``np.minimum(z, -z)`` is the
    ``-|z|`` that keeps a NaN's sign bit.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _forward(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and clamped output probabilities."""
    hidden = X @ params.W1.T + params.b1
    np.maximum(hidden, 0.0, out=hidden)
    probs = _sigmoid(hidden @ params.w2 + params.b2)
    # np.clip's bits, without its Python-level argument handling.
    np.maximum(probs, PROB_EPS, out=probs)
    np.minimum(probs, 1.0 - PROB_EPS, out=probs)
    return hidden, probs


def forward_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Probabilities for a (batch, inputs) pixel matrix."""
    if X.shape[1] != params.W1.shape[1]:
        raise ValueError(f"expected {params.W1.shape[1]} inputs, got {X.shape[1]}")
    return _forward(params, X)[1]


def bce_loss(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy; inputs assumed pre-clamped."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


#: The largest loss of a clamped probability: a real scored ``1 - PROB_EPS``.
MAX_BCE = float(bce_loss(np.array([PROB_EPS, 1.0 - PROB_EPS]), np.array([1.0, 0.0])).max())


def gradients(params: ModelParams, X: np.ndarray, y: np.ndarray) -> tuple[ModelParams, np.ndarray]:
    """Mean-over-batch gradient of the clamped BCE loss, and the clamped
    probabilities of the same forward pass (equal to :func:`forward_batch`).

    Where the output clamp is active the loss is locally constant in the
    logit, so those rows contribute zero (this is what a finite-difference
    check sees too).

    The step computes in the dtype of ``X`` and the parameters; ``y`` is
    taken in ``X``'s dtype, so 0/1 targets never widen it.
    """
    y = np.asarray(y, dtype=X.dtype).ravel()
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    A1, probs = _forward(params, X)
    live = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    dz2 = np.where(live, probs - y, 0.0) / X.shape[0]
    dZ1 = dz2[:, None] * params.w2 * (A1 > 0.0)
    grads = ModelParams(W1=(X.T @ dZ1).T, b1=dZ1.sum(axis=0), w2=A1.T @ dz2, b2=float(dz2.sum()))
    return grads, probs


def sgd_step(params: ModelParams, grads: ModelParams, eta: float) -> ModelParams:
    """One SGD update in place: each array of ``params`` becomes
    ``W - eta * g``, and ``params`` itself is returned. ``grads`` is only
    read. A negative ``eta`` raises before anything is written."""
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    params.W1 -= eta * grads.W1
    params.b1 -= eta * grads.b1
    params.w2 -= eta * grads.w2
    params.b2 = params.b2 - eta * grads.b2
    return params


def check_lr(eta_max: float, eta_min: float, total_epochs: int) -> None:
    """Reject cosine-schedule bounds outside ``0 < eta_min <= eta_max``, a
    run shorter than one epoch, and bounds whose largest instantaneous
    hardness, ``MAX_BCE * eta_max / eta_min``, overflows."""
    if not 0.0 < eta_min <= eta_max:
        raise ConfigError(f"eta_min: need 0 < eta_min <= eta_max, got {eta_min}, {eta_max}")
    if total_epochs < 1:
        raise ConfigError("total_epochs must be >= 1")
    # In the order hardness.instantaneous_hardness takes it, at eta_t = eta_min.
    scaled = MAX_BCE * eta_max
    for name, value in (("eta_max", scaled), ("eta_min", scaled / eta_min)):
        if not math.isfinite(value):
            raise ConfigError(
                f"{name}: the largest loss ({MAX_BCE}) times eta_max / eta_min "
                f"({eta_max} / {eta_min}) overflows the instantaneous hardness"
            )


def cosine_lr(eta_max: float, eta_min: float, total_epochs: int, t: int) -> float:
    """Learning rate at 1-based epoch ``t``: eta_max at t=1 decaying to
    eta_min at t=total_epochs along a half cosine."""
    if not 1 <= t <= total_epochs:
        raise ValueError(f"epoch {t} outside 1..{total_epochs}")
    if total_epochs == 1:
        return eta_max
    phase = math.pi * (t - 1) / (total_epochs - 1)
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(phase))


# ---------------------------------------------------------------------------
# Checkpoints: JSON header + little-endian float64 parameter blob, into
# which the float32 weights widen exactly.

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
