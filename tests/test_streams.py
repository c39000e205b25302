"""Keyed random streams checked for exact equality against numpy's own
``SeedSequence`` and ``default_rng``, one key at a time."""

import numpy as np
import pytest

from dffc import streams

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
AUGMENT_BOUNDS = ((0.0, 1.5), (-0.15, 0.15), (-10.0, 10.0), (-2.0, 2.0), (-2.0, 2.0))


def oracle_seed(key) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def oracle_draws(key, bounds) -> list[float]:
    rng = np.random.default_rng(key)
    return [rng.uniform(lo, hi) for lo, hi in bounds]


def generation_bounds(rng) -> list[tuple[float, float]]:
    """24 bounds, as many as one dataset pair draws, some of them empty."""
    lows = rng.uniform(-5.0, 5.0, 24)
    widths = rng.uniform(0.0, 3.0, 24)
    widths[::7] = 0.0
    return [(float(lo), float(lo + w)) for lo, w in zip(lows, widths)]


class TestDerivedSeeds:
    @pytest.mark.parametrize("rng_seed", (*EDGE_SEEDS, 123456789, 2**40 + 7))
    @pytest.mark.parametrize("salt", (0, 1))
    def test_four_part_keys(self, rng_seed, salt):
        # rng_seed >= 2**32 makes the key five uint32 words long.
        ids = np.random.default_rng(rng_seed % 1000).integers(0, 2**32, 200)
        ids[:3] = (0, 1, 2**32 - 1)
        got = streams.derived_seeds((rng_seed, 6, ids, salt))
        assert got.dtype == np.int64 and got.shape == (200,)
        assert got.tolist() == [oracle_seed((rng_seed, 6, int(i), salt)) for i in ids]

    def test_random_keys(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seed, t, salt = (int(v) for v in rng.integers(0, 2**32, 3))
            ids = rng.integers(0, 2**32, 50)
            got = streams.derived_seeds((seed, t, ids, salt))
            assert got.tolist() == [oracle_seed((seed, t, int(i), salt)) for i in ids]

    def test_one_part_keys_up_to_two_words(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        got = streams.derived_seeds((seeds,))
        assert got.tolist() == [oracle_seed(int(s)) for s in seeds]

    def test_scalar_key_is_one_entry(self):
        assert streams.derived_seeds((5, 2**33, 1)).tolist() == [oracle_seed((5, 2**33, 1))]


class TestUniforms:
    def test_one_part_keys(self):
        rng = np.random.default_rng(1)
        seeds = np.concatenate([rng.integers(0, 2**63, 300), [0, 1, 2**32 - 1, 2**32]])
        got = streams.uniforms((seeds,), AUGMENT_BOUNDS)
        assert got.shape == (len(seeds), 5)
        for seed, row in zip(seeds, got):
            assert row.tolist() == oracle_draws(int(seed), AUGMENT_BOUNDS)

    def test_one_part_keys_beyond_int64(self):
        seeds = [2**63, 1, 2**64 - 1, 0]  # a list numpy would turn into float64
        got = streams.uniforms((seeds,), AUGMENT_BOUNDS)
        for seed, row in zip(seeds, got):
            assert row.tolist() == oracle_draws(seed, AUGMENT_BOUNDS)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("split", (0, 1))
    def test_generation_layout(self, seed, split):
        bounds = generation_bounds(np.random.default_rng(seed % 97))
        pairs = np.arange(60)
        got = streams.uniforms((seed, split, pairs), bounds)
        assert got.shape == (60, 24)
        for pair, row in zip(pairs, got):
            assert row.tolist() == oracle_draws((seed, split, int(pair)), bounds)

    @pytest.mark.parametrize("seed", (0, 2**32 + 3, 2**64 - 1))
    def test_five_word_keys(self, seed):
        ids = np.random.default_rng(2).integers(0, 2**32, 40)
        got = streams.uniforms((seed, 9, ids, 1), AUGMENT_BOUNDS)
        for i, row in zip(ids, got):
            assert row.tolist() == oracle_draws((seed, 9, int(i), 1), AUGMENT_BOUNDS)

    def test_empty_key_array(self):
        assert streams.uniforms((np.array([], dtype=np.int64),), AUGMENT_BOUNDS).shape == (0, 5)
        assert streams.derived_seeds((0, 1, np.array([], dtype=np.int64), 0)).shape == (0,)

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, np.inf), (-1e308, 1e308)])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="high - low"):
            streams.uniforms((np.arange(3),), [bounds])


class TestRejectedKeys:
    @pytest.mark.parametrize(
        "key, value",
        [
            ((-1, 1, np.arange(3), 0), "-1"),
            ((2**64, 1, np.arange(3), 0), str(2**64)),
            ((0, 1, np.array([5, 2**32, 7]), 0), str(2**32)),
            ((0, 1, np.array([5, -3, 7]), 0), "-3"),
            ((np.array([4, -2]),), "-2"),
            (([1, 2**64],), str(2**64)),
        ],
    )
    def test_value_named(self, key, value):
        with pytest.raises(ValueError, match=value):
            streams.derived_seeds(key)
        with pytest.raises(ValueError, match=value):
            streams.uniforms(key, AUGMENT_BOUNDS)

    def test_float_keys_rejected(self):
        with pytest.raises(TypeError):
            streams.derived_seeds((np.array([1.0, 2.0]),))
        with pytest.raises(TypeError):
            streams.derived_seeds((1.5, np.arange(2)))

    def test_key_arrays_must_agree_in_length(self):
        with pytest.raises(ValueError, match="2 and 3"):
            streams.derived_seeds((np.arange(2), np.arange(3)))
