"""Epoch-indexed pacing: which samples train at epoch t.

The curriculum pool has two parts. The hard pool holds the top-k samples
by hardness score; k starts at the full dataset size during warm-up and
shrinks by ``alpha_k`` at each milestone epoch. The easy pool holds the
bottom-E samples, which enter the pool as augmented copies to keep the
data diverse. A static "easiest-first, growing prefix" baseline
(BabyStep) is also provided.

A pool is two arrays in training order: each entry's sample id, and a
boolean mask that marks the augmented copies; the other entries are the
originals. The pool carries no seed. The runner derives one seed per
augmented part of an epoch with :func:`derive_augmentation_seed` (salt 0
for the easy copies, salt 1 for the originals under ``augment_all``), and
an entry's draws are its sample id's row of that seed's table
(``augment.table_rows``). A pool's composition (its distinct hard and
easy ids and their overlap) is counted over boolean masks of the samples,
in linear time. Everything here is a pure function of its inputs; given
the same seed the resulting pool is bit-identical. The schedule's values
are plain arguments: :func:`check_pacing` and :func:`check_babystep` each
reject a bad section with a ``ConfigError``, and ``RunConfig`` calls them
once for a run, after it coerces the milestones to ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dffc.errors import ConfigError


def check_pacing(
    milestones: tuple[int, ...], alpha_k: float, easy_pool_size: int, total_epochs: int
) -> None:
    """Reject milestones that are not positive, strictly increasing epochs
    within the run, a shrink factor outside (0, 1], or a negative easy pool."""
    if not milestones:
        raise ConfigError("milestones must be non-empty")
    if any(m <= 0 for m in milestones):
        raise ConfigError("milestones must be positive epoch indices")
    if any(b <= a for a, b in zip(milestones, milestones[1:])):
        raise ConfigError(f"milestones must be strictly increasing: {milestones}")
    if milestones[-1] > total_epochs:
        raise ConfigError(
            f"milestones: last milestone {milestones[-1]} exceeds total_epochs {total_epochs}"
        )
    if not 0.0 < alpha_k <= 1.0:
        raise ConfigError(f"alpha_k must be in (0, 1], got {alpha_k}")
    if easy_pool_size < 0:
        raise ConfigError("easy_pool_size must be non-negative")


def pool_size_at_epoch(n_samples: int, t: int, milestones: tuple[int, ...], alpha_k: float) -> int:
    """Hard-pool size k at epoch ``t`` (1-based).

    Full dataset through warm-up (up to the first milestone), then one
    multiplicative shrink (floored, bounded below by 1) at each later
    milestone up to ``t``.
    """
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    k = n_samples
    for milestone in milestones[1:]:
        if milestone <= t:
            k = max(1, math.floor(k * alpha_k))
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


#: The first spawn-key word of the augmentation seeds' key. Each keyed
#: stream of the lab has its own (README, "Random streams").
AUGMENT_STREAM = 2


@dataclass(frozen=True, eq=False)
class EpochPool:
    """One epoch's training entries, in training order.

    ``entries[j]`` is the sample id of entry ``j``, and ``augmented[j]``
    is true if the entry is an augmented copy, false if it is an
    original. The originals are the hard pool and the augmented copies the
    easy pool.
    """

    entries: np.ndarray
    augmented: np.ndarray

    def composition(self, n_samples: int) -> tuple[int, int, int]:
        """``(hard_size, easy_size, overlap)``: the distinct ids among the
        originals, among the augmented copies, and among both, for ids in
        ``0..n_samples - 1``. Each id set is a boolean mask over the
        samples, so repeated ids count once and nothing is sorted."""
        hard = np.zeros(n_samples, dtype=bool)
        hard[self.entries[~self.augmented]] = True
        easy = np.zeros(n_samples, dtype=bool)
        easy[self.entries[self.augmented]] = True
        return tuple(int(np.count_nonzero(mask)) for mask in (hard, easy, hard & easy))


def derive_augmentation_seed(rng_seed: int, t: int, salt: int = 0) -> int:
    """The augmentation seed of epoch ``t``'s entries of one salt (0 for
    the easy copies, 1 for the originals under ``augment_all``),
    ``SeedSequence(rng_seed, spawn_key=(AUGMENT_STREAM, t, salt))
    .generate_state(1)[0]``: a uint32."""
    key = np.random.SeedSequence(rng_seed, spawn_key=(AUGMENT_STREAM, t, salt))
    return int(key.generate_state(1)[0])


def _shuffled(ids: np.ndarray, augmented: np.ndarray, rng_seed: int, t: int) -> EpochPool:
    perm = np.random.default_rng((rng_seed, t)).permutation(len(ids))
    return EpochPool(entries=ids[perm], augmented=augmented[perm])


def full_pool(n_samples: int, t: int, rng_seed: int) -> EpochPool:
    """Every sample once, unaugmented, in seeded shuffle order.

    Used for warm-up epochs and for plain uncurated training, so both
    produce the same batch stream under the same seed.
    """
    return pool_from_ids(np.arange(n_samples), t, rng_seed)


def pool_from_ids(ids: np.ndarray, t: int, rng_seed: int) -> EpochPool:
    """Pool of unaugmented originals over an explicit id set (static curricula)."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    return _shuffled(ids, np.zeros(len(ids), dtype=bool), rng_seed, t)


def build_epoch_pool(
    dfh_scores: np.ndarray,
    t: int,
    rng_seed: int,
    milestones: tuple[int, ...],
    alpha_k: float,
    easy_pool_size: int,
) -> EpochPool:
    """The epoch-t training pool over ``len(dfh_scores)`` samples.

    Warm-up epochs train on the whole dataset. Afterwards the pool mixes
    the top-k hard samples (originals) with the bottom-E easy samples
    (augmented copies). The easy pool is drawn from the full dataset, so
    in degenerate configurations a sample can appear twice: once raw and
    once augmented.
    """
    n = len(dfh_scores)
    if t <= milestones[0]:
        return full_pool(n, t, rng_seed)
    hard = select_hard_pool(dfh_scores, pool_size_at_epoch(n, t, milestones, alpha_k))
    easy = select_easy_pool(dfh_scores, min(easy_pool_size, n))
    augmented = np.arange(len(hard) + len(easy)) >= len(hard)
    return _shuffled(np.concatenate([hard, easy]), augmented, rng_seed, t)


def check_babystep(start_fraction: float, growth_factor: float, step_length: int) -> None:
    """Reject BabyStep parameters that cannot describe a growing prefix."""
    if not 0.0 < start_fraction <= 1.0:
        raise ConfigError(f"start_fraction must be in (0, 1], got {start_fraction}")
    if growth_factor < 1.0:
        raise ConfigError(f"growth_factor must be >= 1, got {growth_factor}")
    if step_length < 1:
        raise ConfigError(f"step_length must be >= 1, got {step_length}")


def babystep_pool(
    static_hardness: np.ndarray,
    t: int,
    start_fraction: float,
    growth_factor: float,
    step_length: int,
) -> np.ndarray:
    """Easiest-m(t) prefix by static hardness, growing geometrically every
    ``step_length`` epochs until it saturates at the full dataset. The
    parameters are those :func:`check_babystep` accepts."""
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    n = len(static_hardness)
    try:
        m = min(n, math.ceil(n * start_fraction * growth_factor ** ((t - 1) // step_length)))
    except OverflowError:  # a size beyond float range saturates like any other
        m = n
    return select_easy_pool(static_hardness, m)
