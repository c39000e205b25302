"""Per-sample hardness scores.

Three pieces, combined into a single Dynamic Forensic Hardness (DFH)
value per training sample:

* instantaneous hardness: the sample's current loss, normalized by the
  ratio of the peak learning rate to the current one (so late, small-step
  epochs are not read as "everything became easy");
* DIH: an exponential moving average of instantaneous hardness over the
  epochs in which the sample was trained in the hard pool (the only
  samples :func:`update_dih` is called for);
* a static quality prior in [0, 1] (blurrier / lower-quality images are
  considered harder a priori), weighted by ``alpha_f``.

All vectors are float64 so that selection by ranking is stable across
platforms. ``hardness_state.json`` holds one object with the keys of
:data:`STATE_KEYS`, written by :meth:`HardnessState.to_json` and read by
:meth:`HardnessState.from_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from dffc.errors import InvalidScheduleError, require_keys

#: The keys of ``hardness_state.json``, in the order they are written.
STATE_KEYS = ("gamma", "alpha_f", "dih", "prior", "update_count")


def check_hardness(gamma: float, alpha_f: float) -> None:
    """Reject an EMA weight outside [0, 1] or a negative prior weight."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if alpha_f < 0.0:
        raise ValueError(f"alpha_f must be non-negative, got {alpha_f}")


@dataclass
class HardnessState:
    """Mutable per-sample hardness bookkeeping for one training run.

    ``dih`` starts at zero for every sample: during warm-up all samples
    are updated equally often, so the shared cold start does not affect
    relative ordering.
    """

    dih: np.ndarray
    prior: np.ndarray
    gamma: float
    alpha_f: float
    update_count: np.ndarray

    def __post_init__(self) -> None:
        self.dih = np.asarray(self.dih, dtype=np.float64)
        self.prior = np.asarray(self.prior, dtype=np.float64)
        self.update_count = np.asarray(self.update_count, dtype=np.int64)
        if not (len(self.dih) == len(self.prior) == len(self.update_count)):
            raise ValueError("dih, prior and update_count must have equal length")
        check_hardness(self.gamma, self.alpha_f)
        for name in ("dih", "prior"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ValueError(
                    f"{name} values must be finite; sample {bad[0]} has {values[bad[0]]}"
                )
        if len(self.prior) and (self.prior.min() < 0.0 or self.prior.max() > 1.0):
            raise ValueError("prior values must lie in [0, 1]")

    @classmethod
    def fresh(cls, prior: np.ndarray, gamma: float, alpha_f: float) -> "HardnessState":
        """State with zero loss history for ``len(prior)`` samples."""
        n = len(prior)
        return cls(
            dih=np.zeros(n), prior=prior, gamma=gamma, alpha_f=alpha_f,
            update_count=np.zeros(n, dtype=np.int64),
        )

    @property
    def n_samples(self) -> int:
        return len(self.dih)

    def to_json(self) -> str:
        return json.dumps({key: np.asarray(getattr(self, key)).tolist() for key in STATE_KEYS})

    @classmethod
    def from_json(cls, text: str) -> "HardnessState":
        """The state :meth:`to_json` wrote; a ``ValueError`` names a missing key."""
        doc = json.loads(text)
        require_keys(doc, STATE_KEYS)
        return cls(
            dih=doc["dih"],
            prior=doc["prior"],
            gamma=float(doc["gamma"]),
            alpha_f=float(doc["alpha_f"]),
            update_count=doc["update_count"],
        )


def instantaneous_hardness(
    loss: float | np.ndarray, eta_t: float, eta_max: float
) -> float | np.ndarray:
    """Loss scaled by eta_max / eta_t, for one loss or an array of losses.

    A float loss gives a float and an array an array. Raises
    :class:`ValueError` for a negative or non-finite loss, and
    :class:`InvalidScheduleError` when the learning rate is outside
    (0, eta_max]; that always indicates a broken schedule upstream.
    """
    losses = np.asarray(loss, dtype=np.float64)
    for problem, bad in (("finite", ~np.isfinite(losses)), ("non-negative", losses < 0.0)):
        where = np.flatnonzero(bad)
        if len(where):
            at = f" at index {where[0]}" if losses.ndim else ""
            raise ValueError(f"loss must be {problem}, got {losses.flat[where[0]]}{at}")
    if eta_t <= 0.0 or eta_t > eta_max:
        raise InvalidScheduleError(
            f"learning rate {eta_t} outside (0, {eta_max}]"
        )
    s_t = losses * eta_max / eta_t
    return s_t if losses.ndim else float(s_t)


def _check_index(state: HardnessState, sample_id: int | np.ndarray) -> None:
    ids = np.asarray(sample_id)
    bad = np.flatnonzero((ids < 0) | (ids >= state.n_samples))
    if len(bad):
        raise IndexError(f"sample_id {ids.flat[bad[0]]} out of range for N={state.n_samples}")


def update_dih(
    state: HardnessState,
    sample_id: int | np.ndarray,
    s_t: float | np.ndarray,
) -> HardnessState:
    """EMA update for one sample, or for an array of distinct samples with
    one instantaneous hardness each. The runner calls it only for the
    samples trained in the hard pool, so the DIH of every other sample
    keeps its value."""
    ids = np.asarray(sample_id)
    s_t = np.asarray(s_t, dtype=np.float64)
    if ids.shape != s_t.shape:
        raise ValueError(f"{ids.size} sample ids but {s_t.size} hardness values")
    _check_index(state, ids)
    bad = np.flatnonzero(~(np.isfinite(s_t) & (s_t >= 0.0)))
    if len(bad):
        raise ValueError(
            f"instantaneous hardness must be finite and non-negative, got {s_t.flat[bad[0]]} "
            f"for sample {ids.flat[bad[0]]}"
        )
    if ids.ndim:
        unique, counts = np.unique(ids, return_counts=True)
        if len(unique) < len(ids):
            raise ValueError(f"sample ids must be distinct; {unique[counts > 1][0]} repeats")
    g = state.gamma
    state.dih[ids] = g * s_t + (1.0 - g) * state.dih[ids]
    state.update_count[ids] += 1
    return state


def dfh(state: HardnessState, sample_id: int) -> float:
    """Combined hardness: loss-history EMA plus weighted quality prior."""
    _check_index(state, sample_id)
    return float(state.dih[sample_id] + state.alpha_f * state.prior[sample_id])


def dfh_all(state: HardnessState) -> np.ndarray:
    """Vectorized :func:`dfh` over every sample."""
    return state.dih + state.alpha_f * state.prior
