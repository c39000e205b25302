"""Pacing tests: shrink arithmetic, ranked selection against a brute-force
oracle, and pool assembly."""

import numpy as np
import pytest

from dffc.errors import InvalidScheduleError
from dffc.pacing import (
    EpochPool,
    PacingSchedule,
    babystep_pool,
    build_epoch_pool,
    derive_augmentation_seed,
    full_pool,
    pool_from_ids,
    pool_size_at_epoch,
    select_easy_pool,
    select_hard_pool,
)


def default_schedule(n=1000, total=20, easy=1000):
    return PacingSchedule(
        milestones=(2, 5, 8, 12, 15),
        alpha_k=0.9,
        easy_pool_size=easy,
        n_samples=n,
        total_epochs=total,
    )


def brute_force_topk(scores, k, largest):
    """Oracle: sort (score, index) pairs explicitly, ties to smaller index."""
    keyed = sorted(
        range(len(scores)),
        key=(lambda i: (-scores[i], i)) if largest else (lambda i: (scores[i], i)),
    )
    return sorted(keyed[:k])


class TestPoolSize:
    def test_reference_trajectory(self):
        schedule = default_schedule()
        sizes = [pool_size_at_epoch(schedule, t) for t in range(1, 21)]
        assert sizes == [1000] * 4 + [900] * 3 + [810] * 4 + [729] * 3 + [656] * 6

    def test_matches_iterated_shrink_oracle(self):
        schedule = default_schedule(n=777, total=20)
        expected = []
        for t in range(1, 21):
            # Oracle: redo the shrink chain from scratch for each epoch.
            k_t = 777
            for m in schedule.milestones[1:]:
                if m <= t:
                    k_t = max(1, int(np.floor(k_t * schedule.alpha_k)))
            expected.append(k_t)
        sizes = [pool_size_at_epoch(schedule, t) for t in range(1, 21)]
        assert sizes == expected

    def test_floor_never_below_one(self):
        schedule = PacingSchedule(
            milestones=(1, 2, 3, 4, 5, 6, 7, 8),
            alpha_k=0.1,
            easy_pool_size=0,
            n_samples=5,
            total_epochs=8,
        )
        assert pool_size_at_epoch(schedule, 8) == 1

    def test_epoch_out_of_range(self):
        schedule = default_schedule()
        with pytest.raises(ValueError):
            pool_size_at_epoch(schedule, 0)
        with pytest.raises(ValueError):
            pool_size_at_epoch(schedule, 21)


class TestScheduleValidation:
    def test_milestones_must_increase(self):
        with pytest.raises(InvalidScheduleError):
            PacingSchedule((5, 5), 0.9, 10, 100, 20)

    def test_last_milestone_within_run(self):
        with pytest.raises(InvalidScheduleError):
            PacingSchedule((2, 25), 0.9, 10, 100, 20)

    def test_alpha_k_range(self):
        with pytest.raises(InvalidScheduleError):
            PacingSchedule((2, 5), 0.0, 10, 100, 20)

    def test_warmup_is_first_milestone(self):
        assert default_schedule().warmup_epochs == 2


class TestSelection:
    def test_hand_case_with_ties(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0])
        np.testing.assert_array_equal(select_hard_pool(scores, 2), [1, 2])
        np.testing.assert_array_equal(select_easy_pool(scores, 2), [0, 3])

    def test_tie_breaks_to_smaller_index(self):
        scores = np.zeros(6)
        np.testing.assert_array_equal(select_hard_pool(scores, 3), [0, 1, 2])
        np.testing.assert_array_equal(select_easy_pool(scores, 3), [0, 1, 2])

    def test_small_exhaustive_against_oracle(self):
        rng = np.random.default_rng(0)
        for n in range(1, 13):
            for _ in range(20):
                # Draw from a tiny value set so ties are common.
                scores = rng.choice([0.0, 0.5, 1.0], size=n)
                for k in range(n + 1):
                    np.testing.assert_array_equal(
                        select_hard_pool(scores, k),
                        brute_force_topk(scores, k, largest=True),
                    )
                    np.testing.assert_array_equal(
                        select_easy_pool(scores, k),
                        brute_force_topk(scores, k, largest=False),
                    )

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            select_hard_pool(np.zeros(3), 4)
        with pytest.raises(ValueError):
            select_easy_pool(np.zeros(3), -1)

    def test_k_zero_and_full(self):
        scores = np.array([2.0, 1.0])
        assert len(select_hard_pool(scores, 0)) == 0
        np.testing.assert_array_equal(select_hard_pool(scores, 2), [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = np.array([0.1, 0.2, bad, 0.3, np.nan])
        for select in (
            lambda: select_hard_pool(scores, 1),
            lambda: select_easy_pool(scores, 1),
            lambda: babystep_pool(scores, 1, 0.25, 1.5, 3),
        ):
            with pytest.raises(ValueError, match="at index 2"):
                select()


class TestPools:
    def test_full_pool_covers_everything_once(self):
        pool = full_pool(10, t=1, rng_seed=0)
        np.testing.assert_array_equal(pool.hard_ids, np.arange(10))
        assert len(pool.easy_ids) == 0
        np.testing.assert_array_equal(np.sort(pool.entries), np.arange(10))
        assert (pool.seeds == -1).all()

    def test_full_pool_shuffle_is_seeded(self):
        a = full_pool(50, t=3, rng_seed=9)
        b = full_pool(50, t=3, rng_seed=9)
        c = full_pool(50, t=4, rng_seed=9)
        assert a == b
        np.testing.assert_array_equal(a.entries, b.entries)
        assert a != c
        assert not np.array_equal(a.entries, c.entries)
        assert a != EpochPool(entries=a.entries, seeds=a.seeds + 1)

    def test_warmup_equals_full_pool(self):
        schedule = default_schedule(n=30, easy=5)
        scores = np.random.default_rng(1).uniform(0, 1, 30)
        assert build_epoch_pool(schedule, scores, 2, 7) == full_pool(30, 2, 7)

    def test_post_warmup_composition(self):
        schedule = default_schedule(n=30, easy=5)
        scores = np.random.default_rng(1).uniform(0, 1, 30)
        pool = build_epoch_pool(schedule, scores, 6, 7)
        k = pool_size_at_epoch(schedule, 6)
        assert len(pool.hard_ids) == k
        assert len(pool.easy_ids) == 5
        np.testing.assert_array_equal(pool.hard_ids, select_hard_pool(scores, k))
        np.testing.assert_array_equal(pool.easy_ids, select_easy_pool(scores, 5))
        augmented = pool.seeds >= 0
        for sample_id, seed in zip(pool.entries[augmented], pool.seeds[augmented]):
            assert seed == derive_augmentation_seed(7, 6, int(sample_id))
        assert augmented.sum() == 5
        assert len(pool.entries) == k + 5

    def test_score_length_checked(self):
        schedule = default_schedule(n=30)
        with pytest.raises(ValueError):
            build_epoch_pool(schedule, np.zeros(29), 6, 0)

    def test_pool_from_ids_sorted_membership(self):
        pool = pool_from_ids(np.array([5, 2, 9]), t=1, rng_seed=0)
        np.testing.assert_array_equal(pool.hard_ids, [2, 5, 9])
        np.testing.assert_array_equal(np.sort(pool.entries), [2, 5, 9])

    def test_overlap_counts_shared_ids(self):
        # Sample 3 is in the pool both raw and augmented.
        pool = EpochPool(
            entries=np.array([1, 3, 2, 4, 3]),
            seeds=np.array([-1, -1, -1, 17, 23]),
        )
        np.testing.assert_array_equal(pool.hard_ids, [1, 2, 3])
        np.testing.assert_array_equal(pool.easy_ids, [3, 4])
        assert pool.overlap == 1

    def test_augmentation_seed_is_stable_and_distinct(self):
        seen = {
            derive_augmentation_seed(0, t, sid)
            for t in range(1, 4)
            for sid in range(5)
        }
        assert len(seen) == 15
        assert derive_augmentation_seed(1, 2, 3) == derive_augmentation_seed(1, 2, 3)
        assert derive_augmentation_seed(1, 2, 3, salt=1) != derive_augmentation_seed(
            1, 2, 3
        )

    @pytest.mark.parametrize("rng_seed", [0, 7, 2**32 + 5])
    @pytest.mark.parametrize("salt", [0, 1])
    def test_augmentation_seed_array_equals_scalar_loop(self, rng_seed, salt):
        ids = np.random.default_rng(rng_seed % 100).permutation(300)[:120]
        seeds = derive_augmentation_seed(rng_seed, 6, ids, salt=salt)
        assert seeds.dtype == np.int64 and seeds.shape == ids.shape
        loop = [derive_augmentation_seed(rng_seed, 6, int(i), salt=salt) for i in ids]
        assert all(type(seed) is int for seed in loop)
        assert seeds.tolist() == loop
        assert loop == [
            int(np.random.SeedSequence((rng_seed, 6, int(i), salt)).generate_state(1)[0])
            for i in ids
        ]

    @pytest.mark.parametrize(
        "rng_seed, ids, value",
        [(-1, np.arange(3), "-1"), (2**64, np.arange(3), str(2**64)), (0, 2**32, str(2**32))],
    )
    def test_augmentation_seed_rejects_out_of_range_keys(self, rng_seed, ids, value):
        with pytest.raises(ValueError, match=value):
            derive_augmentation_seed(rng_seed, 6, ids)


class TestBabystep:
    def test_prefix_growth_hand_case(self):
        # n=8, start 0.25, growth 2, step 2: m = 2, 2, 4, 4, 8, 8, ...
        hardness = np.arange(8, dtype=float)
        sizes = [
            len(babystep_pool(hardness, t, 0.25, 2.0, 2)) for t in range(1, 7)
        ]
        assert sizes == [2, 2, 4, 4, 8, 8]

    def test_selects_easiest_prefix(self):
        hardness = np.array([0.9, 0.1, 0.5, 0.3])
        np.testing.assert_array_equal(babystep_pool(hardness, 1, 0.5, 1.5, 3), [1, 3])

    def test_saturates_at_full_dataset(self):
        hardness = np.zeros(10)
        assert len(babystep_pool(hardness, 50, 0.25, 1.5, 3)) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_fraction": 0.0},
            {"start_fraction": 1.5},
            {"growth_factor": 0.5},
            {"step_length": 0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        args = {"start_fraction": 0.25, "growth_factor": 1.5, "step_length": 3}
        args.update(kwargs)
        with pytest.raises(ValueError):
            babystep_pool(np.zeros(4), 1, **args)
