"""Hardness-score unit tests: hand oracles plus the EMA closed form."""

import json

import numpy as np
import pytest

from dffc.hardness import (
    HardnessState,
    dfh_all,
    instantaneous_hardness,
    update_dih,
)


def closed_form_dih(sequence, gamma):
    """Independent oracle: d_k = sum_j gamma * (1-gamma)^(k-j) * s_j."""
    total = 0.0
    for j, s in enumerate(sequence):
        total += gamma * (1.0 - gamma) ** (len(sequence) - 1 - j) * s
    return total


class TestInstantaneousHardness:
    def test_peak_rate_is_identity(self):
        assert instantaneous_hardness(np.array([0.7]), 0.1, 0.1)[0] == pytest.approx(
            0.7, abs=1e-15
        )

    def test_half_rate_doubles(self):
        assert instantaneous_hardness(np.array([0.5]), 0.05, 0.1)[0] == pytest.approx(
            1.0, abs=1e-15
        )

    def test_zero_loss(self):
        assert instantaneous_hardness(np.array([0.0]), 0.01, 0.1)[0] == 0.0

    @pytest.mark.parametrize("eta", [0.0, -0.01, 0.2])
    def test_rate_outside_schedule_rejected(self, eta):
        with pytest.raises(ValueError, match="learning rate"):
            instantaneous_hardness(np.array([0.5]), eta, 0.1)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            instantaneous_hardness(np.array([-0.1]), 0.05, 0.1)

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loss_rejected(self, loss):
        with pytest.raises(ValueError, match=f"loss must be finite, got {loss} at index 0"):
            instantaneous_hardness(np.array([loss]), 0.05, 0.1)


class TestDihUpdate:
    def test_single_update_weighted_by_gamma(self):
        state = HardnessState.fresh(np.zeros(1), gamma=0.9, alpha_f=0.5)
        update_dih(state, np.array([0]), np.array([2.0]))
        assert state.dih[0] == pytest.approx(1.8, abs=1e-15)

    def test_update_count_tracks_pool_membership(self):
        # The runner calls update_dih for the hard pool only: one count per call.
        state = HardnessState.fresh(np.zeros(3), gamma=0.5, alpha_f=0.0)
        for ids in ([0], [0, 2], [2], [0]):
            update_dih(state, np.array(ids), np.ones(len(ids)))
        assert state.update_count.tolist() == [3, 0, 2]

    def test_closed_form_random_sequences(self):
        # gamma over [0.01, 0.99] and values over [0, 5], both ends of each
        # drawn explicitly, and lengths from 1 to 25.
        rng = np.random.default_rng(11)
        gammas = np.concatenate([[0.01, 0.99], rng.uniform(0.01, 0.99, 198)])
        lengths = np.concatenate([[1, 25], rng.integers(1, 26, 198)])
        for gamma, length in zip(gammas, lengths):
            seq = rng.uniform(0.0, 5.0, length)
            ends = rng.random(length) < 0.2
            seq[ends] = rng.choice([0.0, 5.0], ends.sum())
            state = HardnessState.fresh(np.zeros(1), gamma=gamma, alpha_f=0.0)
            for s in seq:
                update_dih(state, np.array([0]), np.array([s]))
            assert state.dih[0] == pytest.approx(
                closed_form_dih(seq, gamma), abs=1e-12
            )

    def test_bad_index_rejected(self):
        state = HardnessState.fresh(np.zeros(3), gamma=0.9, alpha_f=0.5)
        with pytest.raises(IndexError):
            update_dih(state, np.array([3]), np.array([1.0]))

    def test_negative_hardness_rejected(self):
        state = HardnessState.fresh(np.zeros(1), gamma=0.9, alpha_f=0.5)
        with pytest.raises(ValueError):
            update_dih(state, np.array([0]), np.array([-0.5]))


class TestArrayUpdates:
    """One call over an array of distinct ids equals a loop of one-element calls."""

    def test_update_dih_array_equals_scalar_loop(self):
        rng = np.random.default_rng(21)
        prior = rng.uniform(0.0, 1.0, 50)
        by_array = HardnessState.fresh(prior, gamma=0.7, alpha_f=0.5)
        by_scalar = HardnessState.fresh(prior, gamma=0.7, alpha_f=0.5)
        for _ in range(20):
            ids = rng.permutation(50)[: rng.integers(1, 51)]
            s_t = rng.uniform(0.0, 3.0, len(ids))
            update_dih(by_array, ids, s_t)
            for sample_id, s in zip(ids, s_t):
                update_dih(by_scalar, np.array([sample_id]), np.array([s]))
            assert by_array.dih.tolist() == by_scalar.dih.tolist()
            assert by_array.update_count.tolist() == by_scalar.update_count.tolist()

    def test_instantaneous_hardness_array_equals_scalar_calls(self):
        losses = np.random.default_rng(5).uniform(0.0, 4.0, 200)
        for eta in (0.1, 0.037, 1e-3):
            expected = [instantaneous_hardness(np.array([loss]), eta, 0.1)[0] for loss in losses]
            assert instantaneous_hardness(losses, eta, 0.1).tolist() == expected

    def test_duplicate_ids_rejected(self):
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(ValueError, match="3 repeats"):
            update_dih(state, np.array([1, 3, 3]), np.ones(3))
        assert state.update_count.tolist() == [0] * 5

    def test_smallest_repeated_id_named(self):
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(ValueError, match="; 1 repeats"):
            update_dih(state, np.array([4, 1, 4, 1]), np.ones(4))
        assert state.update_count.tolist() == [0] * 5

    def test_out_of_range_id_raised_before_repeats(self):
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(IndexError, match="sample_id 9 out of range"):
            update_dih(state, np.array([2, 2, 9, 9]), np.ones(4))
        with pytest.raises(IndexError, match="sample_id -1 out of range"):
            update_dih(state, np.array([3, -1, 3]), np.ones(3))

    def test_length_mismatch_rejected(self):
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(ValueError, match="3 sample ids but 2 hardness values"):
            update_dih(state, np.array([0, 1, 2]), np.ones(2))

    @pytest.mark.parametrize("bad_id", [7, -1])
    def test_out_of_range_id_named(self, bad_id):
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(IndexError, match=f"sample_id {bad_id} out of range"):
            update_dih(state, np.array([0, bad_id, 2]), np.ones(3))

    @pytest.mark.parametrize("bad", [float("nan"), -0.25])
    def test_bad_value_in_array_named(self, bad):
        with pytest.raises(ValueError, match=f"got {bad} at index 1"):
            instantaneous_hardness(np.array([0.1, bad, 0.3]), 0.05, 0.1)
        state = HardnessState.fresh(np.zeros(5), gamma=0.9, alpha_f=0.5)
        with pytest.raises(ValueError, match=f"got {bad} for sample 4"):
            update_dih(state, np.array([0, 4, 2]), np.array([0.1, bad, 0.3]))


class TestDfh:
    def test_combines_dih_and_weighted_prior(self):
        state = HardnessState(
            dih=np.array([0.2, 1.0]),
            prior=np.array([0.4, 1.0]),
            gamma=0.9,
            alpha_f=0.5,
            update_count=np.zeros(2),
        )
        np.testing.assert_allclose(dfh_all(state), [0.4, 1.5], atol=1e-15)


class TestStateValidation:
    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            HardnessState.fresh(np.zeros(1), gamma=1.5, alpha_f=0.5)

    def test_negative_alpha_f(self):
        with pytest.raises(ValueError):
            HardnessState.fresh(np.zeros(1), gamma=0.9, alpha_f=-0.1)

    def test_prior_outside_unit_interval(self):
        with pytest.raises(ValueError):
            HardnessState(
                dih=np.zeros(1), prior=np.array([1.2]), gamma=0.9, alpha_f=0.5,
                update_count=np.zeros(1),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(ValueError, match=f"prior values must be finite; sample 1 has {bad}"):
            HardnessState.fresh(np.array([0.2, bad]), gamma=0.9, alpha_f=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_dih_rejected(self, bad):
        with pytest.raises(ValueError, match=f"dih values must be finite; sample 0 has {bad}"):
            HardnessState(
                dih=np.array([bad, 0.0]), prior=np.zeros(2), gamma=0.9, alpha_f=0.5,
                update_count=np.zeros(2),
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HardnessState(
                dih=np.zeros(2), prior=np.zeros(3), gamma=0.9, alpha_f=0.5,
                update_count=np.zeros(2),
            )

    def test_json_round_trip(self):
        state = HardnessState(
            dih=np.array([0.25, 1.5]),
            prior=np.array([0.1, 0.9]),
            gamma=0.9,
            alpha_f=0.5,
            update_count=np.array([3, 7]),
        )
        loaded = HardnessState.from_json(state.to_json())
        np.testing.assert_array_equal(loaded.dih, state.dih)
        np.testing.assert_array_equal(loaded.prior, state.prior)
        np.testing.assert_array_equal(loaded.update_count, state.update_count)
        assert loaded.gamma == state.gamma
        assert loaded.alpha_f == state.alpha_f

    def test_json_is_plain_document(self):
        state = HardnessState.fresh(np.array([0.5]), gamma=0.9, alpha_f=0.5)
        doc = json.loads(state.to_json())
        assert set(doc) == {"gamma", "alpha_f", "dih", "prior", "update_count"}

    @pytest.mark.parametrize("key", ["gamma", "alpha_f", "dih", "prior", "update_count"])
    def test_from_json_names_a_missing_key(self, key):
        doc = json.loads(HardnessState.fresh(np.array([0.5]), gamma=0.9, alpha_f=0.5).to_json())
        del doc[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            HardnessState.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gamma", None), ("gamma", True), ("alpha_f", "0.5"), ("dih", "x"),
            ("prior", [[0.1]]), ("update_count", [None]), ("update_count", [1.5]),
        ],
    )
    def test_from_json_names_a_value_of_the_wrong_kind(self, key, value):
        doc = json.loads(HardnessState.fresh(np.array([0.5]), gamma=0.9, alpha_f=0.5).to_json())
        doc[key] = value
        with pytest.raises(ValueError, match=rf"^{key}(\[0\])?: expected a"):
            HardnessState.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int"), ("null", "NoneType")])
    def test_from_json_rejects_a_non_object(self, text, kind):
        with pytest.raises(ValueError, match=f"expected a JSON object, got {kind}"):
            HardnessState.from_json(text)
