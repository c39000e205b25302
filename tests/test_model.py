"""Tests for the from-scratch MLP: init, forward, loss, gradients, schedule.

Oracle notes:
  [DERIVED] BCE hand values -- -log(p) / -log(1-p) computed by hand for
      fixed probabilities.
  [DERIVED] finite-difference gradient check -- central differences with
      h=1e-5 against the analytic gradients.
  [DERIVED] cosine schedule endpoints/midpoint -- closed form
      eta(t) = eta_min + 0.5*(eta_max-eta_min)*(1+cos(pi*(t-1)/(T-1))).
  [ORACLE] sigmoid and gradients -- the masked sigmoid, np.clip and
      np.outer of tests/oracles.py, compared bit for bit in float64 and
      in float32.
  [DERIVED] float32 step -- the same float32 values stepped in float64,
      within bounds in float32 eps set from measured errors.
  [TRIVIAL] init bounds, dtype and W1's F order, determinism,
      validation, checkpoint round-trip of float32 weights through the
      float64 blob, and the same checkpoint bytes from C and F copies.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import (
    flatten_params,
    gradients_reference,
    load_checkpoint,
    masked_sigmoid,
    unflatten_params,
)

from dffc.model import (
    PROB_EPS,
    TRAIN_DTYPE,
    ModelParams,
    _sigmoid,
    bce_loss,
    check_lr,
    cosine_lr,
    forward_batch,
    gradients,
    init_params,
    save_checkpoint,
    sgd_step,
)


class TestInit:
    def test_shapes_and_bounds(self):
        params = init_params(n_inputs=12, n_hidden=5, seed=0)
        assert params.W1.shape == (5, 12)
        # Stored F-ordered: W1.T is the C-contiguous (inputs, hidden) operand
        # of the forward product X @ W1.T.
        assert params.W1.T.flags.c_contiguous
        assert params.b1.shape == (5,) and params.w2.shape == (5,)
        bound = 1.0 / math.sqrt(12)
        assert np.all(np.abs(params.W1) <= bound)
        assert np.all(np.abs(params.w2) <= bound)
        assert np.all(params.b1 == 0.0) and params.b2 == 0.0

    def test_float64_draws_cast_once(self):
        params = init_params(n_inputs=12, n_hidden=5, seed=4)
        rng = np.random.default_rng(4)
        bound = 1.0 / math.sqrt(12)
        W1, w2 = rng.uniform(-bound, bound, (5, 12)), rng.uniform(-bound, bound, 5)
        for got, drawn in ((params.W1, W1), (params.b1, np.zeros(5)), (params.w2, w2)):
            assert got.dtype == TRAIN_DTYPE
            assert got.tobytes() == drawn.astype(TRAIN_DTYPE).tobytes()

    def test_deterministic_by_seed(self):
        a = init_params(8, 4, seed=3)
        b = init_params(8, 4, seed=3)
        c = init_params(8, 4, seed=4)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.w2, b.w2)
        assert not np.array_equal(a.W1, c.W1)


class TestForward:
    def test_probabilities_clamped(self):
        params = init_params(4, 3, seed=0)
        # Huge weights force saturation; output must stay off 0/1 exactly.
        big = ModelParams(
            W1=params.W1 * 1e6, b1=params.b1, w2=params.w2 * 1e6, b2=0.0
        )
        probs = forward_batch(big, np.random.default_rng(0).normal(size=(16, 4)))
        assert probs.min() >= PROB_EPS and probs.max() <= 1.0 - PROB_EPS

    def test_input_dim_mismatch(self):
        params = init_params(4, 3, seed=0)
        with pytest.raises(ValueError):
            forward_batch(params, np.zeros((2, 5)))

    def test_zero_params_give_half(self):
        params = ModelParams(
            W1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0
        )
        probs = forward_batch(params, np.ones((5, 4)))
        np.testing.assert_allclose(probs, 0.5)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestSigmoid:
    SPECIAL = [
        0.0, -0.0, 745.2, -745.2, 1e300, -1e300, np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310, np.nan, -np.nan,
    ]

    @pytest.mark.parametrize(
        "z",
        [
            np.array(SPECIAL),
            np.random.default_rng(0).normal(scale=30.0, size=4096),
            np.linspace(-800.0, 800.0, 16001),
        ],
        ids=["special", "normal", "grid"],
    )
    def test_matches_the_masked_form_bit_for_bit(self, z):
        # Both branches are evaluated for every element, and neither warns.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _sigmoid(z)
        expected = masked_sigmoid(z)
        np.testing.assert_array_equal(_bits(got), _bits(expected))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestBce:
    def test_hand_values(self):
        probs = np.array([0.9, 0.1])
        targets = np.array([1.0, 0.0])
        expected = np.array([-math.log(0.9), -math.log(0.9)])
        np.testing.assert_allclose(bce_loss(probs, targets), expected, rtol=1e-12)

    def test_confident_wrong_is_large(self):
        loss = bce_loss(np.array([0.01]), np.array([1.0]))
        assert loss[0] == pytest.approx(-math.log(0.01), rel=1e-12)

    def test_half_probability_is_log_two(self):
        loss = bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-12)


class TestGradients:
    def test_finite_difference_check(self):
        # In float64 throughout: the model computes in its operands' dtype.
        rng = np.random.default_rng(11)
        params = init_params(n_inputs=6, n_hidden=4, seed=11)
        params = unflatten_params(flatten_params(params).astype(np.float64), params)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 2, size=8).astype(np.float64)

        grads, _ = gradients(params, x, y)
        assert grads.W1.dtype == np.float64
        analytic = flatten_params(
            ModelParams(W1=grads.W1, b1=grads.b1, w2=grads.w2, b2=grads.b2)
        )

        def mean_loss(vec: np.ndarray) -> float:
            p = unflatten_params(vec, params)
            probs = forward_batch(p, x)
            return float(bce_loss(probs, y).mean())

        theta = flatten_params(params)
        h = 1e-5
        numeric = np.zeros_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (mean_loss(up) - mean_loss(down)) / (2.0 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("scale", [1.0, 1e6], ids=["live", "clamped"])
    def test_probabilities_are_forward_batch(self, scale):
        # Huge weights saturate the output, as in test_probabilities_clamped.
        params = init_params(4, 3, seed=0)
        params = ModelParams(W1=params.W1 * scale, b1=params.b1, w2=params.w2 * scale, b2=0.0)
        x = np.random.default_rng(0).normal(size=(16, 4))
        probs = gradients(params, x, np.arange(16) % 2)[1]
        np.testing.assert_array_equal(probs, forward_batch(params, x))
        clamped = (probs == PROB_EPS) | (probs == 1.0 - PROB_EPS)
        assert clamped.any() == (scale > 1.0)

    @pytest.mark.parametrize(
        "dtype, order",
        [(np.float64, "F"), (np.float32, "F"), (np.float64, "C"), (np.float32, "C")],
        ids=["float64", "float32", "float64-C", "float32-C"],
    )
    @pytest.mark.parametrize("width", [16, 32])
    @pytest.mark.parametrize("scale", [1.0, 8.0], ids=["live", "saturated"])
    def test_match_the_reference_bit_for_bit(self, width, scale, dtype, order):
        # A default-sized batch of width x width px inputs on the input
        # transform's scale; weights 8x the init's clamp a fifth to three
        # fifths of the rows' probabilities, which then give no gradient.
        # Every operand is in dtype, and so is every result. The reference
        # takes the weight gradient as dZ1.T @ X, with W1 F-ordered as a run
        # stores it and C-ordered.
        rng = np.random.default_rng(width)
        params = init_params(width * width, 32, seed=width)
        params = ModelParams(
            W1=(params.W1 * scale).astype(dtype, order=order),
            b1=(rng.normal(size=32) * 0.1).astype(dtype),
            w2=(params.w2 * scale).astype(dtype),
            b2=0.3,
        )
        X = rng.normal(scale=5.0, size=(64, width * width)).astype(dtype)
        y = (np.arange(64) % 2).astype(dtype)
        grads, probs = gradients(params, X, y)
        ref_grads, ref_probs = gradients_reference(params, X, y)
        assert probs.dtype == ref_probs.dtype == dtype
        np.testing.assert_array_equal(_bits(probs), _bits(ref_probs))
        for name in ("W1", "b1", "w2", "b2"):
            got, want = getattr(grads, name), getattr(ref_grads, name)
            assert name == "b2" or got.dtype == want.dtype == dtype, name
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
        clamped = (probs == PROB_EPS) | (probs == 1.0 - PROB_EPS)
        assert clamped.any() == (scale > 1.0) and not clamped.all()

    @pytest.mark.parametrize("width", [16, 32])
    def test_float32_within_rounding_of_float64(self, width):
        # The same float32 values, stepped in float32 and in float64: the
        # probabilities within 4 float32 eps, each gradient within 16 eps of
        # its largest entry (measured: at most 0.71 and 3.72).
        rng = np.random.default_rng(width)
        init = init_params(width * width, 32, seed=width)
        b1 = (rng.normal(size=32) * 0.1).astype(TRAIN_DTYPE)
        params = ModelParams(W1=init.W1, b1=b1, w2=init.w2, b2=0.3)
        wide = ModelParams(
            W1=init.W1.astype(np.float64), b1=b1.astype(np.float64),
            w2=init.w2.astype(np.float64), b2=0.3,
        )
        X = rng.normal(scale=5.0, size=(64, width * width)).astype(TRAIN_DTYPE)
        y = np.arange(64) % 2
        grads, probs = gradients(params, X, y)
        ref_grads, ref_probs = gradients(wide, X.astype(np.float64), y)
        eps = np.finfo(TRAIN_DTYPE).eps
        assert probs.dtype == TRAIN_DTYPE and ref_probs.dtype == np.float64
        assert np.abs(probs - ref_probs).max() <= 4 * eps
        for name in ("W1", "b1", "w2"):
            got, want = getattr(grads, name), getattr(ref_grads, name)
            assert np.abs(got - want).max() <= 16 * eps * np.abs(want).max(), name

    def test_sgd_step_hand_case(self):
        params = ModelParams(
            W1=np.ones((2, 2)), b1=np.zeros(2), w2=np.ones(2), b2=1.0
        )
        grads = ModelParams(
            W1=np.full((2, 2), 2.0), b1=np.ones(2), w2=np.full(2, 4.0), b2=2.0
        )
        out = sgd_step(params, grads, eta=0.5)
        np.testing.assert_allclose(out.W1, 0.0)
        np.testing.assert_allclose(out.b1, -0.5)
        np.testing.assert_allclose(out.w2, -1.0)
        assert out.b2 == pytest.approx(0.0)

    def test_sgd_step_writes_into_the_given_arrays(self):
        rng = np.random.default_rng(2)
        params = init_params(6, 4, seed=2)
        params.b2 = 0.25
        grads = ModelParams(
            W1=rng.normal(size=(4, 6)).astype(TRAIN_DTYPE),
            b1=rng.normal(size=4).astype(TRAIN_DTYPE),
            w2=rng.normal(size=4).astype(TRAIN_DTYPE),
            b2=-0.5,
        )
        eta = 0.0731
        arrays = (params.W1, params.b1, params.w2)
        expected = [w - eta * g for w, g in zip(arrays, (grads.W1, grads.b1, grads.w2))]
        grads_before = flatten_params(grads).copy()
        out = sgd_step(params, grads, eta)
        assert out is params
        assert all(a is b for a, b in zip((out.W1, out.b1, out.w2), arrays))
        for got, want in zip(arrays, expected):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        assert out.b2 == 0.25 - eta * -0.5
        np.testing.assert_array_equal(flatten_params(grads), grads_before)

    def test_w1_stays_f_ordered_through_a_step(self):
        # The weight gradient comes out F-ordered like W1, so the in-place
        # update never mixes memory orders.
        rng = np.random.default_rng(6)
        params = init_params(64, 8, seed=6)
        W1 = params.W1
        X = rng.normal(size=(16, 64)).astype(TRAIN_DTYPE)
        for _ in range(3):
            grads, _ = gradients(params, X, np.arange(16) % 2)
            assert grads.W1.shape == (8, 64) and grads.W1.flags.f_contiguous
            params = sgd_step(params, grads, eta=0.1)
        assert params.W1 is W1 and W1.flags.f_contiguous

    def test_sgd_step_negative_eta(self):
        params = init_params(2, 2, seed=0)
        before = flatten_params(params).copy()
        with pytest.raises(ValueError):
            sgd_step(params, params, eta=-0.1)
        np.testing.assert_array_equal(_bits(flatten_params(params)), _bits(before))

    def test_sgd_step_beyond_float32_raises_before_writing(self):
        # eta * g rounds eta to the weights' float32, which overflows; under
        # the runner's errstate guard that raises before any weight is written.
        params = init_params(6, 4, seed=3)
        X = np.random.default_rng(3).normal(size=(8, 6)).astype(TRAIN_DTYPE)
        grads, _ = gradients(params, X, np.arange(8) % 2)
        before = flatten_params(params)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            sgd_step(params, grads, eta=1e39)
        assert flatten_params(params).tobytes() == before.tobytes()

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 6))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.float64)
        params = init_params(6, 8, seed=5)
        probs = forward_batch(params, x)
        before = bce_loss(probs, y).mean()
        for _ in range(200):
            grads, _ = gradients(params, x, y)
            params = sgd_step(params, grads, eta=0.5)
        probs = forward_batch(params, x)
        after = bce_loss(probs, y).mean()
        assert after < before * 0.5


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0.1, 0.001, 20, 1) == pytest.approx(0.1, rel=1e-12)
        assert cosine_lr(0.1, 0.001, 20, 20) == pytest.approx(0.001, rel=1e-12)

    def test_midpoint(self):
        # t=11 sits at cos(pi/2)=0: exactly the arithmetic mean.
        assert cosine_lr(0.1, 0.001, 21, 11) == pytest.approx(0.0505, rel=1e-12)

    def test_monotone_decreasing(self):
        etas = [cosine_lr(0.1, 0.001, 20, t) for t in range(1, 21)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_single_epoch_returns_max(self):
        assert cosine_lr(0.1, 0.001, 1, 1) == pytest.approx(0.1)

    def test_out_of_range_epoch(self):
        for t in (0, 6, -1):
            with pytest.raises(ValueError):
                cosine_lr(0.1, 0.001, 5, t)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            check_lr(eta_max=0.001, eta_min=0.1, total_epochs=5)
        with pytest.raises(ValueError):
            check_lr(eta_max=0.1, eta_min=-0.001, total_epochs=5)
        with pytest.raises(ValueError):
            check_lr(eta_max=0.1, eta_min=0.001, total_epochs=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(10, 6, seed=9)
        header, blob = tmp_path / "ckpt.json", tmp_path / "ckpt.bin"
        save_checkpoint(params, seed=9, epoch=17, header_path=header, blob_path=blob)
        loaded, meta = load_checkpoint(header, blob)
        np.testing.assert_array_equal(loaded.W1, params.W1)
        np.testing.assert_array_equal(loaded.b1, params.b1)
        np.testing.assert_array_equal(loaded.w2, params.w2)
        assert loaded.b2 == params.b2
        assert meta["seed"] == 9 and meta["epoch"] == 17

    def test_trained_float32_weights_read_back_exactly(self, tmp_path):
        # Weights after a few float32 SGD steps fill float32's mantissa; the
        # <f8 blob holds them widened, and they read back equal.
        rng = np.random.default_rng(12)
        params = init_params(10, 6, seed=12)
        X = rng.normal(size=(32, 10)).astype(TRAIN_DTYPE)
        y = (X[:, 0] > 0).astype(TRAIN_DTYPE)
        for _ in range(5):
            params = sgd_step(params, gradients(params, X, y)[0], eta=0.3)
        header, blob = tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin"
        save_checkpoint(params, seed=12, epoch=5, header_path=header, blob_path=blob)
        loaded, meta = load_checkpoint(header, blob)
        assert meta == {
            "shapes": {"W1": [6, 10], "b1": [6], "w2": [6], "b2": []}, "seed": 12, "epoch": 5
        }
        assert len(blob.read_bytes()) == 8 * (6 * 10 + 6 + 6 + 1)
        for name in ("W1", "b1", "w2"):
            got, want = getattr(loaded, name), getattr(params, name)
            assert want.dtype == TRAIN_DTYPE and got.dtype == np.float64, name
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.astype(TRAIN_DTYPE).tobytes() == want.tobytes(), name
        assert loaded.b2 == params.b2

    def test_c_and_f_copies_write_identical_bytes(self, tmp_path):
        # The header gives W1's (hidden, inputs) shape and the blob its
        # values in C order, whatever order the array is stored in.
        params = init_params(10, 6, seed=8)
        params.b2 = -0.125
        copies = {
            order: ModelParams(
                W1=params.W1.copy(order=order), b1=params.b1, w2=params.w2, b2=params.b2
            )
            for order in "CF"
        }
        written = {}
        for order, copy in copies.items():
            header, blob = tmp_path / f"{order}.json", tmp_path / f"{order}.bin"
            save_checkpoint(copy, seed=8, epoch=3, header_path=header, blob_path=blob)
            written[order] = (header.read_bytes(), blob.read_bytes())
        assert written["C"] == written["F"]
        loaded, meta = load_checkpoint(tmp_path / "F.json", tmp_path / "F.bin")
        assert meta["shapes"]["W1"] == [6, 10]
        np.testing.assert_array_equal(loaded.W1, params.W1)

    def test_truncated_blob_rejected(self, tmp_path):
        params = init_params(10, 6, seed=9)
        header, blob = tmp_path / "ckpt.json", tmp_path / "ckpt.bin"
        save_checkpoint(params, seed=9, epoch=1, header_path=header, blob_path=blob)
        blob.write_bytes(blob.read_bytes()[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(header, blob)
