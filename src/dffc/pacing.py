"""Epoch-indexed pacing: which samples train at epoch t.

The curriculum pool has two parts. The hard pool holds the top-k samples
by hardness score; k starts at the full dataset size during warm-up and
shrinks by ``alpha_k`` at each milestone epoch. The easy pool holds the
bottom-E samples, which enter the pool as augmented copies to keep the
data diverse. A static "easiest-first, growing prefix" baseline
(BabyStep) is also provided.

A pool is two int64 arrays in training order: each entry's sample id and
its augmentation seed, -1 for an original. The seed of an entry is
numpy's ``SeedSequence((rng_seed, t, id, salt)).generate_state(1)[0]``
(salt 0 for the easy pool, 1 for the originals under ``augment_all``),
computed for a whole epoch as one array by :mod:`dffc.streams`;
``rng_seed`` must be below 2**64 and ids below 2**32. Everything here is a
pure function of its inputs; given the same seed the resulting pool is
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dffc import streams
from dffc.errors import InvalidScheduleError


@dataclass(frozen=True)
class PacingSchedule:
    milestones: tuple[int, ...]
    alpha_k: float
    easy_pool_size: int
    n_samples: int
    total_epochs: int

    def __post_init__(self) -> None:
        ms = tuple(int(m) for m in self.milestones)
        object.__setattr__(self, "milestones", ms)
        if not ms:
            raise InvalidScheduleError("milestones must be non-empty")
        if any(m <= 0 for m in ms):
            raise InvalidScheduleError("milestones must be positive epoch indices")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise InvalidScheduleError(f"milestones must be strictly increasing: {ms}")
        if ms[-1] > self.total_epochs:
            raise InvalidScheduleError(
                f"last milestone {ms[-1]} exceeds total_epochs {self.total_epochs}"
            )
        if not 0.0 < self.alpha_k <= 1.0:
            raise InvalidScheduleError(f"alpha_k must be in (0, 1], got {self.alpha_k}")
        if self.easy_pool_size < 0:
            raise InvalidScheduleError("easy_pool_size must be non-negative")
        if self.n_samples <= 0:
            raise InvalidScheduleError("n_samples must be positive")
        if self.total_epochs <= 0:
            raise InvalidScheduleError("total_epochs must be positive")

    @property
    def warmup_epochs(self) -> int:
        return self.milestones[0]


def pool_size_at_epoch(schedule: PacingSchedule, t: int) -> int:
    """Hard-pool size k at epoch ``t`` (1-based).

    Full dataset through warm-up, then one multiplicative shrink (floored,
    bounded below by 1) at each later milestone.
    """
    if not 1 <= t <= schedule.total_epochs:
        raise ValueError(f"epoch {t} outside 1..{schedule.total_epochs}")
    k = schedule.n_samples
    if t <= schedule.warmup_epochs:
        return k
    for milestone in schedule.milestones[1:]:
        if milestone <= t:
            k = max(1, math.floor(k * schedule.alpha_k))
    return k


def _ranked_ids(scores: np.ndarray, k: int, largest: bool) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= k <= len(scores):
        raise ValueError(f"k={k} outside 0..{len(scores)}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ValueError(f"non-finite score {scores[bad[0]]} at index {bad[0]}")
    # Stable sort on negated scores keeps ties ordered by smaller index.
    key = -scores if largest else scores
    order = np.argsort(key, kind="stable")
    return np.sort(order[:k])


def select_hard_pool(dfh_scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by smaller index; sorted ascending."""
    return _ranked_ids(dfh_scores, k, largest=True)


def select_easy_pool(dfh_scores: np.ndarray, e: int) -> np.ndarray:
    """Indices of the e smallest scores, ties broken by smaller index; sorted ascending."""
    return _ranked_ids(dfh_scores, e, largest=False)


@dataclass(frozen=True, eq=False)
class EpochPool:
    """One epoch's training entries, in training order.

    ``entries[j]`` is the sample id of entry ``j`` and ``seeds[j]`` its
    augmentation seed, or -1 for an unaugmented original. Seeds come from
    ``generate_state(1)`` as uint32 values, so -1 is never a seed. The
    originals are the hard pool and the augmented copies the easy pool.
    """

    entries: np.ndarray
    seeds: np.ndarray

    @property
    def hard_ids(self) -> np.ndarray:
        """Sorted ids of the originals."""
        return np.unique(self.entries[self.seeds < 0])

    @property
    def easy_ids(self) -> np.ndarray:
        """Sorted ids of the augmented copies."""
        return np.unique(self.entries[self.seeds >= 0])

    @property
    def overlap(self) -> int:
        """Samples that appear both raw and augmented."""
        return len(np.intersect1d(self.hard_ids, self.easy_ids, assume_unique=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpochPool):
            return NotImplemented
        return np.array_equal(self.entries, other.entries) and np.array_equal(
            self.seeds, other.seeds
        )


def derive_augmentation_seed(
    rng_seed: int, t: int, ids: int | np.ndarray, salt: int = 0
) -> int | np.ndarray:
    """Each entry's augmentation seed, ``SeedSequence((rng_seed, t, id, salt))
    .generate_state(1)[0]``, computed for every id at once by
    :func:`streams.derived_seeds`.

    ``ids`` is an array of sample ids, giving an int64 array, or one id,
    giving an int (the n = 1 case). ``rng_seed`` must be below 2**64 and
    every id below 2**32; anything else raises a ``ValueError``.
    """
    if np.ndim(ids) == 0:
        return int(derive_augmentation_seed(rng_seed, t, np.array([ids]), salt)[0])
    return streams.derived_seeds((rng_seed, t, ids, salt))


def _shuffled(ids: np.ndarray, seeds: np.ndarray, rng_seed: int, t: int) -> EpochPool:
    perm = np.random.default_rng((rng_seed, t)).permutation(len(ids))
    return EpochPool(entries=ids[perm], seeds=seeds[perm])


def full_pool(n_samples: int, t: int, rng_seed: int) -> EpochPool:
    """Every sample once, unaugmented, in seeded shuffle order.

    Used for warm-up epochs and for plain uncurated training, so both
    produce the same batch stream under the same seed.
    """
    return pool_from_ids(np.arange(n_samples), t, rng_seed)


def pool_from_ids(ids: np.ndarray, t: int, rng_seed: int) -> EpochPool:
    """Pool of unaugmented originals over an explicit id set (static curricula)."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    return _shuffled(ids, np.full(len(ids), -1, dtype=np.int64), rng_seed, t)


def build_epoch_pool(
    schedule: PacingSchedule, dfh_scores: np.ndarray, t: int, rng_seed: int
) -> EpochPool:
    """The epoch-t training pool.

    Warm-up epochs train on the whole dataset. Afterwards the pool mixes
    the top-k hard samples (originals) with the bottom-E easy samples
    (augmented copies, each with its own derived seed). The easy pool is
    drawn from the full dataset, so in degenerate configurations a sample
    can appear twice: once raw and once augmented.
    """
    dfh_scores = np.asarray(dfh_scores, dtype=np.float64)
    if len(dfh_scores) != schedule.n_samples:
        raise ValueError(
            f"expected {schedule.n_samples} scores, got {len(dfh_scores)}"
        )
    if t <= schedule.warmup_epochs:
        return full_pool(schedule.n_samples, t, rng_seed)
    hard = select_hard_pool(dfh_scores, pool_size_at_epoch(schedule, t))
    easy = select_easy_pool(dfh_scores, min(schedule.easy_pool_size, schedule.n_samples))
    seeds = np.full(len(hard) + len(easy), -1, dtype=np.int64)
    seeds[len(hard) :] = derive_augmentation_seed(rng_seed, t, easy)
    return _shuffled(np.concatenate([hard, easy]), seeds, rng_seed, t)


def check_babystep(start_fraction: float, growth_factor: float, step_length: int) -> None:
    """Reject BabyStep parameters that cannot describe a growing prefix."""
    if not 0.0 < start_fraction <= 1.0:
        raise ValueError(f"start_fraction must be in (0, 1], got {start_fraction}")
    if growth_factor < 1.0:
        raise ValueError(f"growth_factor must be >= 1, got {growth_factor}")
    if step_length < 1:
        raise ValueError(f"step_length must be >= 1, got {step_length}")


def babystep_pool(
    static_hardness: np.ndarray,
    t: int,
    start_fraction: float,
    growth_factor: float,
    step_length: int,
) -> np.ndarray:
    """Easiest-m(t) prefix by static hardness, growing geometrically every
    ``step_length`` epochs until it saturates at the full dataset."""
    check_babystep(start_fraction, growth_factor, step_length)
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    static_hardness = np.asarray(static_hardness, dtype=np.float64)
    n = len(static_hardness)
    m = min(n, math.ceil(n * start_fraction * growth_factor ** ((t - 1) // step_length)))
    return select_easy_pool(static_hardness, m)
