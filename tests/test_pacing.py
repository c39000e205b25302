"""Pacing tests: shrink arithmetic, ranked selection against a brute-force
oracle, and pool assembly."""

import numpy as np
import pytest
from oracles import assert_pools_equal, brute_force_topk, easy_ids, hard_ids, overlap
from test_golden import SMALL

from dffc import cli, runner
from dffc.errors import ConfigError
from dffc.pacing import (
    EpochPool,
    babystep_pool,
    build_epoch_pool,
    check_babystep,
    check_pacing,
    derive_augmentation_seed,
    full_pool,
    pool_from_ids,
    pool_size_at_epoch,
    select_easy_pool,
    select_hard_pool,
)


#: The default milestones and shrink factor of a run.
MILESTONES = (2, 5, 8, 12, 15)
ALPHA_K = 0.9


class TestPoolSize:
    def test_reference_trajectory(self):
        sizes = [pool_size_at_epoch(1000, t, MILESTONES, ALPHA_K) for t in range(1, 21)]
        assert sizes == [1000] * 4 + [900] * 3 + [810] * 4 + [729] * 3 + [656] * 6

    def test_matches_iterated_shrink_oracle(self):
        expected = []
        for t in range(1, 21):
            # Oracle: redo the shrink chain from scratch for each epoch.
            k_t = 777
            for m in MILESTONES[1:]:
                if m <= t:
                    k_t = max(1, int(np.floor(k_t * ALPHA_K)))
            expected.append(k_t)
        sizes = [pool_size_at_epoch(777, t, MILESTONES, ALPHA_K) for t in range(1, 21)]
        assert sizes == expected

    def test_floor_never_below_one(self):
        assert pool_size_at_epoch(5, 8, (1, 2, 3, 4, 5, 6, 7, 8), 0.1) == 1

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            pool_size_at_epoch(1000, 0, MILESTONES, ALPHA_K)


class TestScheduleValidation:
    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            check_pacing((5, 5), 0.9, 10, 20)

    def test_last_milestone_within_run(self):
        with pytest.raises(ConfigError):
            check_pacing((2, 25), 0.9, 10, 20)

    def test_alpha_k_range(self):
        with pytest.raises(ConfigError):
            check_pacing((2, 5), 0.0, 10, 20)

    def test_warmup_is_first_milestone(self):
        # Epoch 2 is the default's last warm-up epoch (test_warmup_equals_full_pool).
        pool = build_epoch_pool(np.linspace(0, 1, 30), 3, 7, MILESTONES, ALPHA_K, 5)
        assert np.count_nonzero(pool.seeds >= 0) == 5


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
        np.testing.assert_array_equal(hard_ids(pool), np.arange(10))
        assert len(easy_ids(pool)) == 0
        np.testing.assert_array_equal(np.sort(pool.entries), np.arange(10))
        assert (pool.seeds == -1).all()

    def test_full_pool_shuffle_is_seeded(self):
        a = full_pool(50, t=3, rng_seed=9)
        b = full_pool(50, t=3, rng_seed=9)
        c = full_pool(50, t=4, rng_seed=9)
        assert_pools_equal(a, b)
        assert not np.array_equal(a.entries, c.entries)
        with pytest.raises(AssertionError, match="seeds of pool 1"):
            assert_pools_equal(a, EpochPool(entries=a.entries, seeds=a.seeds + 1))

    def test_warmup_equals_full_pool(self):
        scores = np.random.default_rng(1).uniform(0, 1, 30)
        pool = build_epoch_pool(scores, 2, 7, MILESTONES, ALPHA_K, 5)
        assert_pools_equal(pool, full_pool(30, 2, 7))

    def test_post_warmup_composition(self):
        scores = np.random.default_rng(1).uniform(0, 1, 30)
        pool = build_epoch_pool(scores, 6, 7, MILESTONES, ALPHA_K, 5)
        k = pool_size_at_epoch(30, 6, MILESTONES, ALPHA_K)
        assert len(hard_ids(pool)) == k
        assert len(easy_ids(pool)) == 5
        np.testing.assert_array_equal(hard_ids(pool), select_hard_pool(scores, k))
        np.testing.assert_array_equal(easy_ids(pool), select_easy_pool(scores, 5))
        augmented = pool.seeds >= 0
        assert (pool.seeds[augmented] == derive_augmentation_seed(7, 6)).all()
        assert augmented.sum() == 5
        assert len(pool.entries) == k + 5

    def test_pool_from_ids_sorted_membership(self):
        pool = pool_from_ids(np.array([5, 2, 9]), t=1, rng_seed=0)
        np.testing.assert_array_equal(hard_ids(pool), [2, 5, 9])
        np.testing.assert_array_equal(np.sort(pool.entries), [2, 5, 9])

    def test_overlap_counts_shared_ids(self):
        # Sample 3 is in the pool both raw and augmented.
        pool = EpochPool(
            entries=np.array([1, 3, 2, 4, 3]),
            seeds=np.array([-1, -1, -1, 17, 23]),
        )
        np.testing.assert_array_equal(hard_ids(pool), [1, 2, 3])
        np.testing.assert_array_equal(easy_ids(pool), [3, 4])
        assert overlap(pool) == 1
        assert pool.composition(5) == (3, 2, 1)

    def test_augmentation_seed_is_stable_and_distinct(self):
        # One seed per epoch and salt, a uint32 (so never -1), and each from
        # its own key: the epochs and salts of one run seed, and run seeds
        # of one or two words.
        seen = {
            (rng_seed, t, salt): derive_augmentation_seed(rng_seed, t, salt=salt)
            for rng_seed in (0, 1, 2**32, 2**64 - 1)
            for t in range(1, 6)
            for salt in (0, 1)
        }
        assert len(set(seen.values())) == len(seen)
        assert all(isinstance(seed, int) and 0 <= seed < 2**32 for seed in seen.values())
        assert derive_augmentation_seed(1, 2) == derive_augmentation_seed(1, 2, salt=0)
        assert derive_augmentation_seed(1, 2) == seen[(1, 2, 0)]

    @pytest.mark.parametrize(
        "rng_seed", [0, 1, 7, 123456789, 2**32 - 1, 2**32 + 5, 2**63, 2**64 - 1]
    )
    @pytest.mark.parametrize("salt", [0, 1])
    def test_augmentation_seed_is_its_seed_sequence_word(self, rng_seed, salt):
        # The README's key: the run seed's words, padded, then the spawn key.
        key = np.random.SeedSequence(rng_seed, spawn_key=(2, 6, salt))
        assert derive_augmentation_seed(rng_seed, 6, salt=salt) == key.generate_state(1)[0]

    def test_augmentation_seed_at_random_keys(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rng_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            t, salt = (int(v) for v in rng.integers(0, 2**32, 2))
            key = np.random.SeedSequence(rng_seed, spawn_key=(2, t, salt))
            assert derive_augmentation_seed(rng_seed, t, salt=salt) == key.generate_state(1)[0]

    @pytest.mark.parametrize("rng_seed, t, salt", [(-1, 6, 0), (0, -1, 0), (0, 6, -1)])
    def test_augmentation_seed_rejects_negative_keys(self, rng_seed, t, salt):
        # A negative word would not wrap round onto another epoch's key.
        with pytest.raises(ValueError, match="non-negative"):
            derive_augmentation_seed(rng_seed, t, salt=salt)


def oracle_composition(pool):
    return len(hard_ids(pool)), len(easy_ids(pool)), overlap(pool)


class TestComposition:
    """``EpochPool.composition`` counts what the sort-based oracle counts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_built_pools_equal_oracle(self, seed):
        # Four distinct scores make ties; an easy pool of 30 or more overlaps
        # every hard pool (k + E > n).
        n = 40
        scores = np.random.default_rng(seed).integers(0, 4, n).astype(np.float64)
        overlaps = set()
        for easy in (0, 7, 30, 60):
            for t in (1, 2, 6, 12, 20):
                pool = build_epoch_pool(scores, t, seed, MILESTONES, ALPHA_K, easy)
                assert pool.composition(n) == oracle_composition(pool)
                overlaps.add(overlap(pool))
        assert max(overlaps) > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pools_with_repeated_ids_equal_oracle(self, seed):
        # Ids drawn with replacement repeat within each part and across the two.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 3 * n))
        entries = rng.integers(0, n, m)
        seeds = np.where(rng.random(m) < rng.random(), -1, rng.integers(0, 2**32, m))
        pool = EpochPool(entries=entries, seeds=seeds)
        assert pool.composition(n) == oracle_composition(pool)

    def test_pools_missing_a_part_equal_oracle(self):
        pool = build_epoch_pool(np.linspace(0, 1, 30), 6, 7, MILESTONES, ALPHA_K, 5)
        # As under augment_all: the originals get seeds of salt 1 too.
        seeds = pool.seeds.copy()
        originals = seeds < 0
        seeds[originals] = derive_augmentation_seed(7, 6, salt=1)
        augment_all = EpochPool(entries=pool.entries, seeds=seeds)
        empty = EpochPool(entries=np.zeros(0, np.int64), seeds=np.zeros(0, np.int64))
        cases = {
            "full": (full_pool(30, 1, 7), (30, 0, 0)),
            "repeated originals": (pool_from_ids(np.array([4, 2, 2, 9]), 1, 7), (3, 0, 0)),
            "augment_all": (augment_all, (0, 30, 0)),
            "empty": (empty, (0, 0, 0)),
            "built": (pool, (27, 5, 2)),
        }
        for name, (case, expected) in cases.items():
            assert case.composition(30) == oracle_composition(case) == expected, name

    @pytest.mark.parametrize("mode", runner.MODES)
    def test_run_records_equal_oracle(self, mode):
        # Under augment_all the record still holds the pool as selected.
        for augment_all in ("false", "true"):
            overrides = [*SMALL, f"mode={mode}", f"augment_all={augment_all}"]
            config = cli.build_run_config(cli.resolve_config(None, overrides))
            for record in runner.run_training(config).epochs:
                expected = oracle_composition(record["pool"])
                assert (record["hard_size"], record["easy_size"], record["overlap"]) == expected
                assert record["pool_size"] == expected[0]


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
        "t, growth_factor", [(3, 1e200), (2, 1e308)], ids=["power-overflows", "product-overflows"]
    )
    def test_size_beyond_float_range_saturates(self, t, growth_factor):
        # 1e200 ** 2 raises OverflowError; 10 * 1e308 is inf, which math.ceil rejects.
        assert len(babystep_pool(np.zeros(10), t, 1.0, growth_factor, 1)) == 10

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
            check_babystep(**args)
