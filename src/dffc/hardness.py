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

from dffc.errors import ConfigError, require_keys

#: The keys of ``hardness_state.json``, in the order they are written, and
#: the annotation :func:`~dffc.errors.typed` checks each value against.
STATE_KEYS = {"gamma": float, "alpha_f": float, "dih": tuple[float, ...],
              "prior": tuple[float, ...], "update_count": tuple[int, ...]}


def check_hardness(gamma: float, alpha_f: float) -> None:
    """Reject an EMA weight outside [0, 1] or a negative prior weight."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    if alpha_f < 0.0:
        raise ConfigError(f"alpha_f must be non-negative, got {alpha_f}")


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
        """The state :meth:`to_json` wrote. A ``ValueError`` names a missing key, or a
        value that :func:`~dffc.errors.typed` rejects, such as a NaN ``prior[0]``."""
        doc = json.loads(text)
        require_keys(doc, STATE_KEYS)
        return cls(
            dih=doc["dih"],
            prior=doc["prior"],
            gamma=float(doc["gamma"]),
            alpha_f=float(doc["alpha_f"]),
            update_count=doc["update_count"],
        )


def instantaneous_hardness(losses: np.ndarray, eta_t: float, eta_max: float) -> np.ndarray:
    """Each loss of an array scaled by eta_max / eta_t.

    Raises a :class:`ValueError` for a negative or non-finite loss, naming
    its index, or for a learning rate outside (0, eta_max]. The run config
    has checked the schedule already, so a bad rate here is a fault in the
    caller, not in a config.
    """
    losses = np.asarray(losses, dtype=np.float64)
    for problem, bad in (("finite", ~np.isfinite(losses)), ("non-negative", losses < 0.0)):
        where = np.flatnonzero(bad)
        if len(where):
            raise ValueError(f"loss must be {problem}, got {losses[where[0]]} at index {where[0]}")
    if eta_t <= 0.0 or eta_t > eta_max:
        raise ValueError(f"learning rate {eta_t} outside (0, {eta_max}]")
    return losses * eta_max / eta_t


def update_dih(state: HardnessState, ids: np.ndarray, s_t: np.ndarray) -> HardnessState:
    """EMA update for an array of distinct samples with one instantaneous
    hardness each. The runner calls it only for the samples trained in the
    hard pool, so the DIH of every other sample keeps its value.

    An id outside ``0..N-1`` raises an ``IndexError``; a repeated id then
    raises a ``ValueError`` naming the smallest one, found by counting ids
    per sample rather than by sorting them."""
    ids = np.asarray(ids)
    s_t = np.asarray(s_t, dtype=np.float64)
    if ids.shape != s_t.shape:
        raise ValueError(f"{ids.size} sample ids but {s_t.size} hardness values")
    bad = np.flatnonzero((ids < 0) | (ids >= state.n_samples))
    if len(bad):
        raise IndexError(f"sample_id {ids[bad[0]]} out of range for N={state.n_samples}")
    bad = np.flatnonzero(~(np.isfinite(s_t) & (s_t >= 0.0)))
    if len(bad):
        raise ValueError(
            f"instantaneous hardness must be finite and non-negative, got {s_t[bad[0]]} "
            f"for sample {ids[bad[0]]}"
        )
    repeated = np.flatnonzero(np.bincount(ids, minlength=state.n_samples) > 1)
    if len(repeated):
        raise ValueError(f"sample ids must be distinct; {repeated[0]} repeats")
    g = state.gamma
    state.dih[ids] = g * s_t + (1.0 - g) * state.dih[ids]
    state.update_count[ids] += 1
    return state


def dfh_all(state: HardnessState) -> np.ndarray:
    """Combined hardness of every sample: loss-history EMA plus weighted quality prior."""
    return state.dih + state.alpha_f * state.prior
