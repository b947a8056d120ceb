"""Gradient, optimizer, and serialization checks for the MLP engine.

All derivative claims are verified against the central finite-difference
oracles in oracles.py, plus hand-derived closed forms where one exists.
"""

import hashlib

import numpy as np
import pytest

from cbfforge.nets import (
    _ACT_TABLE,
    AdamState,
    MlpGrads,
    MlpNet,
    PassBuffers,
    adam_step,
    input_gradient,
    load_model,
    mlp_forward,
    mlp_init,
    param_gradient,
    penalty_param_gradient,
    save_model,
)
from oracles import (
    decimal_load_model,
    decimal_save_model,
    fd_input_gradient,
    fd_param_gradient,
    flat_grads,
    penalty_values,
    reference_adam_step,
    reference_forward,
    reference_input_gradient,
    reference_param_gradient,
    reference_penalty_param_gradient,
    relative_error,
    traced_peak_bytes,
)


def random_net(rng, dims=None, hidden="silu", output="identity"):
    dims = dims or [3, 8, 8, 1]
    net = mlp_init(dims, hidden, output, seed=int(rng.integers(1 << 30)))
    return net


class TestForward:
    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, dims=[4, 6, 2])
        xs = rng.normal(size=(5, 4))
        batched = mlp_forward(net, xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], mlp_forward(net, xs[i]), rtol=1e-12)

    def test_tanh_output_is_bounded(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, dims=[3, 16, 1], output="tanh")
        ys = mlp_forward(net, rng.normal(scale=5.0, size=(200, 3)))
        assert np.all(np.abs(ys) < 1.0)

    def test_init_respects_fan_in_bound(self):
        net = mlp_init([9, 4, 1], seed=3)
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[1])
            assert np.all(np.abs(w) <= bound)
            assert np.all(np.abs(b) <= bound)

    def test_same_seed_same_net(self):
        a = mlp_init([3, 5, 1], seed=7)
        b = mlp_init([3, 5, 1], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError):
            mlp_init([2, 2, 1], hidden_activation="gelu", seed=0)
        with pytest.raises(ValueError):
            mlp_init([2, 2, 1], output_activation="relu", seed=0)

    def test_relu_subgradient_at_zero_is_zero(self):
        # A single relu unit with zero pre-activation: the input gradient
        # must use subgradient 0 at the kink.
        net = MlpNet(
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([0.0]), np.array([0.0])],
            "relu",
            "identity",
        )
        g = input_gradient(net, np.array([0.0]))[1]
        assert g[0, 0] == 0.0


class TestActivations:
    @pytest.mark.parametrize("name", sorted(_ACT_TABLE))
    def test_cached_derivatives_match_central_differences(self, name):
        act, act_d, act_dd = _ACT_TABLE[name]
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-4.0, 4.0, 200), rng.uniform(-30.0, 30.0, 50)])
        x = x[np.abs(x) > 1e-2]  # keep the ReLU kink out of the difference stencils
        s = x.copy()  # the array the forward pass keeps: ReLU and tanh write their value over it
        value, aux = act(s, cache=True)
        f = lambda y: act(y, cache=True)[0]
        h1, h2 = 1e-6, 1e-3
        np.testing.assert_allclose(act_d(s, aux), (f(x + h1) - f(x - h1)) / (2.0 * h1), rtol=1e-6, atol=1e-8)
        second = (f(x + h2) - 2.0 * value + f(x - h2)) / (h2 * h2)
        np.testing.assert_allclose(act_dd(s, aux), second, rtol=1e-4, atol=1e-6)

    def test_silu_forward_is_bit_identical_to_the_quotient_formula(self):
        rng = np.random.default_rng(6)
        net = mlp_init([3, 64, 64, 1], "silu", "identity", seed=7)
        xs = rng.uniform(-1.5, 1.5, size=(512, 3))
        assert np.array_equal(mlp_forward(net, xs), reference_forward(net, xs))


class TestInputGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            net = random_net(rng)
            x = rng.uniform(-1.5, 1.5, size=3)
            g = input_gradient(net, x)[1][0]
            g_fd = fd_input_gradient(lambda z: float(mlp_forward(net, z)[0]), x)
            assert relative_error(g, g_fd) < 1e-4

    def test_tanh_output_gradient(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, output="tanh")
        x = rng.normal(size=3)
        g = input_gradient(net, x)[1][0]
        g_fd = fd_input_gradient(lambda z: float(mlp_forward(net, z)[0]), x)
        assert relative_error(g, g_fd) < 1e-4

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        xs = rng.normal(size=(7, 3))
        gb = input_gradient(net, xs)[1]
        for i in range(7):
            # One input is a batch of one, not three scalar inputs with a (3, 3) "gradient".
            y, g = input_gradient(net, xs[i])
            assert y.shape == (1, 1) and g.shape == (1, 3)
            np.testing.assert_allclose(gb[i], g[0], rtol=1e-12)

    def test_rejects_vector_output(self):
        net = mlp_init([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            input_gradient(net, np.zeros(3))

    @pytest.mark.parametrize("hidden,output", [("silu", "identity"), ("relu", "identity"), ("relu", "tanh")])
    def test_equals_the_full_reverse_pass(self, hidden, output):
        rng = np.random.default_rng(13)
        net = random_net(rng, dims=[4, 32, 32, 1], hidden=hidden, output=output)
        xs = rng.normal(size=(16, 4))
        y, g = input_gradient(net, xs)
        assert np.array_equal(y, reference_forward(net, xs))
        assert np.array_equal(g, reference_input_gradient(net, xs))


def sum_output_loss(outputs):
    return float(outputs.sum()), np.ones_like(outputs)


class TestParamGradient:
    def test_zero_net_only_final_bias_moves(self):
        # With all parameters zero, d(output)/d(anything) vanishes except for
        # the final bias, which feeds the output directly.
        net = mlp_init([3, 4, 1], hidden_activation="relu", seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        _, grads = param_gradient(net, np.array([[0.3, -0.2, 1.0]]), sum_output_loss)
        assert np.all(grads.weights[0] == 0.0)
        assert np.all(grads.weights[1] == 0.0)
        assert np.all(grads.biases[0] == 0.0)
        np.testing.assert_array_equal(grads.biases[1], [1.0])

    def test_single_layer_square_loss_closed_form(self):
        # loss = (w^T z - y)^2 has gradient 2 (w^T z - y) z for the weights.
        rng = np.random.default_rng(20)
        net = mlp_init([4, 1], seed=1)
        z = rng.normal(size=4)
        y = 0.7
        resid = float((net.weights[0] @ z + net.biases[0])[0] - y)

        def loss(outputs):
            r = outputs[:, 0] - y
            return float(r @ r), (2.0 * r)[:, None]

        _, grads = param_gradient(net, z[None, :], loss)
        np.testing.assert_allclose(grads.weights[0][0], 2.0 * resid * z, rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0], [2.0 * resid], rtol=1e-12)

    @pytest.mark.parametrize("hidden,output", [("silu", "identity"), ("relu", "identity"), ("silu", "tanh")])
    def test_matches_finite_differences(self, hidden, output):
        rng = np.random.default_rng(21)
        net = random_net(rng, hidden=hidden, output=output)
        xs = rng.uniform(-1.0, 1.0, size=(4, 3))
        targets = rng.normal(size=4)

        def loss(outputs):
            r = outputs[:, 0] - targets
            return float(np.mean(r * r)), (2.0 * r / r.size)[:, None]

        _, grads = param_gradient(net, xs, loss)
        fd = fd_param_gradient(net, lambda n: loss(mlp_forward(n, xs))[0])
        assert relative_error(flat_grads(grads), flat_grads(fd)) < 1e-4


    @pytest.mark.parametrize("hidden,output", [("silu", "identity"), ("relu", "identity"), ("silu", "tanh")])
    def test_equals_accumulated_reverse_pass(self, hidden, output):
        rng = np.random.default_rng(22)
        net = random_net(rng, dims=[3, 32, 32, 1], hidden=hidden, output=output)
        xs = rng.normal(size=(16, 3))
        targets = rng.normal(size=16)

        def loss(outputs):
            r = outputs[:, 0] - targets
            return float(np.mean(r * r)), (2.0 * r / r.size)[:, None]

        value, grads = param_gradient(net, xs, loss)
        ref_value, ref_grads = reference_param_gradient(net, xs, loss)
        assert value == ref_value
        assert np.array_equal(flat_grads(grads), flat_grads(ref_grads))


class TestPenaltyGradient:
    def test_linear_layer_closed_form(self):
        # For y = w^T z + b the input gradient is w everywhere, so the penalty
        # gradient is 2 (||w|| - beta) w / ||w|| for the weights, zero bias.
        rng = np.random.default_rng(30)
        net = mlp_init([3, 1], seed=5)
        w = net.weights[0][0].copy()
        beta = 0.1
        z = rng.normal(size=(6, 3))
        value, grads = penalty_param_gradient(net, z, beta)
        norm = np.linalg.norm(w)
        assert value == pytest.approx((norm - beta) ** 2, rel=1e-12)
        np.testing.assert_allclose(grads.weights[0][0], 2.0 * (norm - beta) * w / norm, rtol=1e-10)
        np.testing.assert_allclose(grads.biases[0], [0.0], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = random_net(rng, dims=[3, 8, 1], hidden="silu")
            z = rng.uniform(-1.0, 1.0, size=(5, 3))
            beta = 0.1
            _, grads = penalty_param_gradient(net, z, beta)
            fd = fd_param_gradient(net, lambda n: float(np.mean(penalty_values(n, z, beta))), h=1e-5)
            assert relative_error(flat_grads(grads), flat_grads(fd)) < 1e-3

    def test_value_matches_direct_evaluation(self):
        rng = np.random.default_rng(32)
        net = random_net(rng, dims=[3, 6, 6, 1])
        z = rng.normal(size=(8, 3))
        value, _ = penalty_param_gradient(net, z, 0.25)
        assert value == pytest.approx(float(np.mean(penalty_values(net, z, 0.25))), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden,output", [("silu", "identity"), ("relu", "identity"), ("silu", "tanh")])
    def test_equals_the_pass_that_forms_every_factor(self, hidden, output, dtype):
        rng = np.random.default_rng(33)
        net = random_net(rng, dims=[3, 32, 32, 1], hidden=hidden, output=output).astype(dtype)
        z = rng.uniform(-1.5, 1.5, size=(64, 3))
        value, grads = penalty_param_gradient(net, z, 0.5)
        ref_value, ref_grads = reference_penalty_param_gradient(net, z, 0.5)
        assert value == ref_value
        assert np.array_equal(flat_grads(grads), flat_grads(ref_grads))

    def test_vanishing_gradient_gives_zero_penalty_gradient(self):
        net = mlp_init([3, 4, 1], seed=2)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        value, grads = penalty_param_gradient(net, np.zeros((3, 3)), 0.1)
        assert value == pytest.approx(0.01)
        assert np.all(flat_grads(grads) == 0.0)


CALLER_CASES = [("relu", "identity"), ("relu", "tanh"), ("silu", "identity"), ("silu", "tanh")]


class TestCallerArraysUnchanged:
    """The passes write only into arrays they allocated themselves."""

    @pytest.mark.parametrize("name", sorted(_ACT_TABLE))
    def test_derivatives_keep_the_forward_cache_and_return_fresh_arrays(self, name):
        act, act_d, act_dd = _ACT_TABLE[name]
        x = np.random.default_rng(54).normal(size=(8, 5))
        _, aux = act(x, cache=True)
        cache = [a for a in (x, aux) if a is not None]
        kept = [a.copy() for a in cache]
        for out in (act_d(x, aux), act_dd(x, aux)):
            assert not any(np.shares_memory(out, a) for a in cache)
        assert all(np.array_equal(a, b) for a, b in zip(cache, kept))

    @pytest.mark.parametrize("hidden,output", CALLER_CASES)
    def test_forward_keeps_input_and_returns_fresh_outputs(self, hidden, output):
        rng = np.random.default_rng(51)
        net = random_net(rng, dims=[3, 16, 16, 1], hidden=hidden, output=output)
        x = rng.normal(size=(10, 3))
        kept = x.copy()
        first, second = mlp_forward(net, x), mlp_forward(net, x)
        assert np.array_equal(x, kept)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)

    @pytest.mark.parametrize("hidden,output", CALLER_CASES)
    def test_gradients_keep_inputs_and_the_loss_seed(self, hidden, output):
        rng = np.random.default_rng(52)
        net = random_net(rng, dims=[3, 16, 16, 1], hidden=hidden, output=output)
        x = rng.normal(size=(10, 3))
        kept = x.copy()
        seeds = []

        def loss(outputs):
            seed = rng.normal(size=outputs.shape)
            seeds.append((seed, seed.copy()))
            return float(outputs.sum()), seed

        param_gradient(net, x, loss)
        input_gradient(net, x)
        penalty_param_gradient(net, x, 0.1)
        assert np.array_equal(x, kept)
        seed, seed_kept = seeds[0]
        assert np.array_equal(seed, seed_kept)


# A 256-wide, 3-hidden-layer ReLU critic at batch 256; budgets are in
# (256, 256) float64 blocks.  The passes peak at about 5.0 (parameter) and
# 5.3 (input) blocks; a pass that keeps a product, a biased copy and a float
# ReLU mask per layer peaks near 11.
BUDGET_BLOCK = 256 * 256 * 8


def _wide_critic_and_batch():
    rng = np.random.default_rng(53)
    return mlp_init([4, 256, 256, 256, 1], "relu", "identity", seed=9), rng.normal(size=(256, 4))


class TestMemoryBudget:
    def test_param_gradient_peak(self):
        net, x = _wide_critic_and_batch()
        peak = traced_peak_bytes(lambda: param_gradient(net, x, lambda out: (0.0, out - 1.0)))
        assert peak <= 6 * BUDGET_BLOCK

    def test_input_gradient_peak(self):
        net, x = _wide_critic_and_batch()
        assert traced_peak_bytes(lambda: input_gradient(net, x)) <= 6 * BUDGET_BLOCK


# A 128-wide, 3-hidden-layer critic queried at n = 10000, as acceptance
# check 9 does; budgets are in (10000, 128) float64 blocks.  Inference keeps
# the current layer's input and product, about 2 blocks; a pass that keeps
# every layer for a reverse pass holds 3 blocks and more.
QUERY_BLOCK = 10000 * 128 * 8


class TestInference:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden,output", CALLER_CASES)
    def test_forward_equals_the_training_pass(self, hidden, output, dtype):
        rng = np.random.default_rng(54)
        net = random_net(rng, dims=[4, 32, 32, 1], hidden=hidden, output=output).astype(dtype)
        xs = rng.uniform(-1.5, 1.5, size=(200, 4))
        seen = []

        def loss(outputs):
            seen.append(outputs.copy())
            return 0.0, np.zeros_like(outputs)

        param_gradient(net, xs, loss)
        param_gradient(net, xs[7], loss)
        assert np.array_equal(mlp_forward(net, xs), seen[0])
        assert np.array_equal(mlp_forward(net, xs[7]), seen[1][0])
        assert np.array_equal(input_gradient(net, xs)[0], seen[0])

    @pytest.mark.parametrize("name", sorted(_ACT_TABLE))
    def test_cache_free_activation_keeps_its_argument_and_value(self, name):
        # The argument is the product the pass owns: the cache-free call
        # keeps it as the value array, written with the cached call's value.
        x = np.random.default_rng(55).normal(size=(8, 5))
        cached, _ = _ACT_TABLE[name][0](x.copy(), cache=True)
        value, aux = _ACT_TABLE[name][0](x, cache=False)
        assert value is x
        assert name != "silu" or aux is None  # no sigmoid cache
        assert np.array_equal(value, cached)

    @pytest.mark.parametrize("hidden", ["relu", "silu"])
    def test_query_peak(self, hidden):
        net = mlp_init([4, 128, 128, 128, 1], hidden, "identity", seed=5)
        x = np.random.default_rng(56).normal(size=(10000, 4))
        peak = traced_peak_bytes(lambda: mlp_forward(net, x))
        limit = 2.2 if hidden == "relu" else 4.2  # SiLU adds exp(-s) and its argument
        assert peak <= limit * QUERY_BLOCK


class TestDtype:
    """A net computes in the dtype of its weights and never upcasts."""

    def test_mixed_or_non_float_dtypes_rejected(self):
        net = mlp_init([3, 4, 1], seed=0)
        with pytest.raises(ValueError, match="one float dtype"):
            MlpNet([w.astype(np.float32) for w in net.weights], net.biases, "relu", "identity")
        with pytest.raises(ValueError, match="one float dtype"):
            MlpNet([net.weights[0], net.weights[1].astype(np.float32)], net.biases, "relu", "identity")
        with pytest.raises(ValueError, match="one float dtype"):
            MlpNet([w.astype(np.int64) for w in net.weights], [b.astype(np.int64) for b in net.biases], "relu", "identity")

    def test_astype_copies_and_casts(self):
        net = mlp_init([3, 4, 1], seed=0)
        low = net.astype(np.float32)
        assert net.dtype == np.float64 and low.dtype == np.float32
        assert all(p.dtype == np.float32 for p in _params(low))
        assert all(np.array_equal(a, b.astype(np.float32)) for a, b in zip(_params(low), _params(net)))
        low.weights[0][:] = 0.0
        assert np.any(net.weights[0] != 0.0)

    @pytest.mark.parametrize("hidden,output", CALLER_CASES)
    def test_float32_passes_never_upcast(self, hidden, output):
        rng = np.random.default_rng(57)
        net = random_net(rng, dims=[3, 16, 16, 1], hidden=hidden, output=output).astype(np.float32)
        x = rng.normal(size=(10, 3))  # float64 inputs are cast to the net's dtype
        assert mlp_forward(net, x).dtype == np.float32
        assert mlp_forward(net, x[0]).dtype == np.float32
        y, g = input_gradient(net, x)
        assert y.dtype == g.dtype == np.float32
        _, grads = param_gradient(net, x, lambda out: (0.0, np.ones(out.shape)))  # a float64 seed
        assert all(p.dtype == np.float32 for p in grads.weights + grads.biases)
        _, pen_grads = penalty_param_gradient(net, x, 0.5)
        assert all(p.dtype == np.float32 for p in pen_grads.weights + pen_grads.biases)
        state = AdamState(learning_rate=1e-3)
        adam_step(net, grads, state)
        adam_step(net, pen_grads, state)
        moments = state.first_moment.weights + state.first_moment.biases
        moments += state.second_moment.weights + state.second_moment.biases
        assert all(p.dtype == np.float32 for p in _params(net) + moments)

    def test_float32_pass_equals_a_float32_reference(self):
        rng = np.random.default_rng(58)
        net = random_net(rng, dims=[3, 32, 32, 1], hidden="relu", output="tanh").astype(np.float32)
        xs = rng.uniform(-1.5, 1.5, size=(64, 3))
        loss = lambda out: (float(np.sum(out**2)), 2.0 * out)
        value, grads = param_gradient(net, xs, loss)
        ref_value, ref_grads = reference_param_gradient(net, xs, loss)
        assert value == ref_value
        assert np.array_equal(flat_grads(grads), flat_grads(ref_grads))
        assert np.array_equal(input_gradient(net, xs)[1], reference_input_gradient(net, xs))

    def test_finite_differences_stay_in_float64(self):
        net = mlp_init([3, 4, 1], seed=0)
        assert net.dtype == np.float64
        with pytest.raises(ValueError, match="float64"):
            fd_param_gradient(net.astype(np.float32), lambda n: float(mlp_forward(n, np.ones(3))[0]))

    def test_float32_net_saves_its_exact_float64_upcast(self, tmp_path):
        net = random_net(np.random.default_rng(59), dims=[3, 8, 1]).astype(np.float32)
        save_model(net, str(tmp_path / "low.txt"))
        save_model(net.astype(np.float64), str(tmp_path / "up.txt"))
        assert (tmp_path / "low.txt").read_bytes() == (tmp_path / "up.txt").read_bytes()
        loaded = load_model(str(tmp_path / "low.txt"))
        assert loaded.dtype == np.float64
        assert all(np.array_equal(a, b) for a, b in zip(_params(loaded), _params(net)))


class TestPassBuffers:
    """Passes given run-long buffers compute the fresh passes' bits in them."""

    @pytest.mark.parametrize("hidden,output", CALLER_CASES)
    def test_buffered_passes_equal_fresh_ones(self, hidden, output):
        rng = np.random.default_rng(57)
        net = random_net(rng, dims=[3, 16, 16, 1], hidden=hidden, output=output).as_flat(np.float32)
        x, seed = rng.normal(size=(40, 3)), rng.normal(size=(40, 1))

        def loss(outputs):
            return float(outputs.sum()), seed

        _, ref = param_gradient(net, x, loss)
        _, ref_pen = penalty_param_gradient(net, x[:25], 0.1)
        buffers = PassBuffers(net)
        for _ in range(3):  # the first calls outgrow the pool, the last reuses it
            _, got = param_gradient(net, x, loss, buffers)
            _, got_pen = penalty_param_gradient(net, x[:25], 0.1, buffers)
            assert np.array_equal(flat_grads(got), flat_grads(ref))  # outlives the penalty pass
            assert np.array_equal(flat_grads(got_pen), flat_grads(ref_pen))
        assert got.flat is buffers.grads.flat and got_pen.flat is buffers.penalty_grads.flat

    def test_a_warm_pass_forms_no_batch_sized_array(self):
        rng = np.random.default_rng(58)
        net = random_net(rng, dims=[3, 64, 64, 1]).as_flat(np.float32)
        x, seed = rng.normal(size=(1024, 3)), rng.normal(size=(1024, 1))
        buffers = PassBuffers(net)

        def passes():
            param_gradient(net, x, lambda outputs: (0.0, seed), buffers)
            penalty_param_gradient(net, x, 0.1, buffers)

        passes()
        passes()
        # A (1024, 64) float32 array is 256 KiB.  What a warm call still
        # forms is numpy's 32 KiB iterator buffer for the bias broadcasts
        # and the penalty's per-row norms and directions, about 40 KiB.
        assert traced_peak_bytes(passes) <= 64 * 1024

    def test_flat_net_and_adam_equal_the_per_array_ones(self):
        rng = np.random.default_rng(59)
        net = random_net(rng, dims=[3, 16, 16, 1]).astype(np.float32)
        flat = net.as_flat(np.float32)
        state, flat_state = AdamState(learning_rate=1e-3), AdamState(learning_rate=1e-3)
        for _ in range(5):
            grads = MlpGrads.zeros_like(net)
            on_flat = MlpGrads.flat_zeros(flat)
            for a, b in zip(grads.weights + grads.biases, on_flat.weights + on_flat.biases):
                a[...] = b[...] = rng.normal(size=a.shape)
            adam_step(net, grads, state)
            adam_step(flat, on_flat, flat_state)
        assert flat_state.first_moment.flat is not None
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, flat.weights + flat.biases))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # After one step the bias-corrected update is lr * g / (|g| + eps),
        # i.e. a move of almost exactly lr against the gradient sign.
        net = mlp_init([2, 2, 1], seed=0)
        before = [w.copy() for w in net.weights]
        grads = MlpGrads.zeros_like(net)
        for g in grads.weights + grads.biases:
            g[:] = np.random.default_rng(4).normal(size=g.shape)
        state = AdamState(learning_rate=1e-3)
        adam_step(net, grads, state)
        for w, w0, g in zip(net.weights, before, grads.weights):
            np.testing.assert_allclose(w, w0 - 1e-3 * np.sign(g), atol=1e-6)
        assert state.step_count == 1

    def test_steps_equal_the_one_temporary_per_operation_form(self):
        rng = np.random.default_rng(41)
        net = random_net(rng, dims=[3, 16, 16, 1])
        ref = net.copy()
        state, ref_state = AdamState(learning_rate=1e-3), AdamState(learning_rate=1e-3)
        for _ in range(5):
            grads = MlpGrads([rng.normal(size=w.shape) for w in net.weights], [rng.normal(size=b.shape) for b in net.biases])
            adam_step(net, grads, state)
            reference_adam_step(ref, grads, ref_state)
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)

    def test_descends_a_quadratic(self):
        # Minimize (w - 3)^2 elementwise on a 1x1 layer.
        net = mlp_init([1, 1], seed=0)
        state = AdamState(learning_rate=0.05)
        for _ in range(500):
            grads = MlpGrads([2.0 * (net.weights[0] - 3.0)], [np.zeros(1)])
            adam_step(net, grads, state)
        assert abs(net.weights[0][0, 0] - 3.0) < 1e-3


class TestModelIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        net = random_net(rng, dims=[3, 5, 4, 1], hidden="relu", output="tanh")
        path = tmp_path / "net.txt"
        save_model(net, str(path))
        loaded = load_model(str(path))
        assert loaded.hidden_activation == "relu"
        assert loaded.output_activation == "tanh"
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_mismatched_dims_rejected(self, tmp_path):
        net = mlp_init([3, 4, 1], seed=0)
        path = tmp_path / "net.txt"
        save_model(net, str(path))
        lines = path.read_text().splitlines()
        lines[1] = "0.0 0.0"  # row with too few values
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        net = mlp_init([3, 4, 1], seed=0)
        path = tmp_path / "net.txt"
        save_model(net, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("perceptron 1 2 1 relu identity\n0.0 0.0\n0.0\n")
        with pytest.raises(ValueError):
            load_model(str(path))


def _params(net):
    return net.weights + net.biases


class TestHexModelFiles:
    SHAPES = [
        ([3, 5, 4, 1], "relu", "tanh"),
        ([4, 16, 16, 1], "silu", "identity"),
        ([3, 8, 1], "silu", "tanh"),
        ([2, 3], "relu", "identity"),
    ]

    @pytest.mark.parametrize("dims, hidden, output", SHAPES)
    def test_round_trip_matches_original_and_decimal_oracle(self, tmp_path, dims, hidden, output):
        net = random_net(np.random.default_rng(len(dims)), dims=dims, hidden=hidden, output=output)
        save_model(net, str(tmp_path / "hex.txt"))
        decimal_save_model(net, str(tmp_path / "dec.txt"))
        loaded = load_model(str(tmp_path / "hex.txt"))
        oracle = decimal_load_model(str(tmp_path / "dec.txt"))
        assert (loaded.hidden_activation, loaded.output_activation) == (hidden, output)
        assert loaded.layer_dims == dims
        for a, b, c in zip(_params(net), _params(loaded), _params(oracle)):
            assert b.dtype == np.float64 and b.shape == a.shape
            assert b.tobytes() == a.tobytes() == c.tobytes()

    def test_special_values_round_trip_bit_for_bit(self, tmp_path):
        net = mlp_init([3, 4, 1], seed=1)
        special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        net.weights[0][0, :3] = special[:3]
        net.weights[1][0, :] = special
        net.biases[0][:] = special
        path = tmp_path / "net.txt"
        save_model(net, str(path))
        loaded = load_model(str(path))
        for a, b in zip(_params(net), _params(loaded)):
            assert b.tobytes() == a.tobytes()

    def test_two_saves_write_identical_bytes(self, tmp_path):
        net = random_net(np.random.default_rng(8), dims=[4, 16, 16, 1])
        save_model(net, str(tmp_path / "a.txt"))
        save_model(net, str(tmp_path / "b.txt"))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_rows_have_fixed_width(self, tmp_path):
        dims = [3, 5, 4, 1]
        net = random_net(np.random.default_rng(9), dims=dims)
        path = tmp_path / "net.txt"
        save_model(net, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "mlp-hex64 3 3 5 4 1 silu identity"
        widths = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            widths += [17 * fan_in - 1] * fan_out + [17 * fan_out - 1]
        assert [len(line) for line in lines[1:]] == widths

    def test_decimal_file_refused(self, tmp_path):
        path = tmp_path / "net.txt"
        decimal_save_model(mlp_init([3, 4, 1], seed=0), str(path))
        with pytest.raises(ValueError, match="net.txt: model file uses the old decimal format; regenerate it"):
            load_model(str(path))

    ONE = "3ff0000000000000"

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            ("mlp-hex64 1 0 1 relu identity", [ONE], "non-positive dimension"),
            ("mlp-hex64 1 2 -1 relu identity", [ONE], "non-positive dimension"),
            ("mlp-hex64 0 2 relu identity", [ONE], "non-positive dimension"),
            ("mlp-hex64 1 2 1 gelu identity", [f"{ONE} {ONE}", ONE], "unknown hidden activation 'gelu'"),
            ("mlp-hex64 1 2 1 relu softmax", [f"{ONE} {ONE}", ONE], "unknown output activation 'softmax'"),
        ],
    )
    def test_malformed_header_names_the_path(self, tmp_path, header, rows, message):
        path = tmp_path / "net.txt"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"net.txt: {message}"):
            load_model(str(path))

    def test_corrupt_hex_row_refused(self, tmp_path):
        path = tmp_path / "net.txt"
        save_model(mlp_init([3, 4, 1], seed=0), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2][5], "x")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="net.txt: layer 0 row 1: not hex-float64"):
            load_model(str(path))


class TestStreamedModelFiles:
    """Row-count edges, memory and the byte format of the streamed model I/O."""

    # sha256 of the file save_model writes for mlp_init([4, 64, 64, 1], seed=0);
    # another digest means the file format changed.
    PINNED_SHA256 = "47a56dfd73b3eb8f565b2c6eacc3bcd0b3177f3932e771dd4e5666635711dc61"

    @staticmethod
    def _saved_lines(tmp_path, dims):
        path = tmp_path / "net.txt"
        save_model(mlp_init(dims, seed=0), str(path))
        return path, path.read_text().splitlines()

    # [3, 4, 1] ends in a one-value bias row, [3, 4, 2] in a two-value one.
    @pytest.mark.parametrize("dims, n_lines", [([3, 4, 1], 8), ([3, 4, 2], 9)])
    def test_missing_last_row_names_the_path(self, tmp_path, dims, n_lines):
        path, lines = self._saved_lines(tmp_path, dims)
        assert len(lines) == n_lines
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=f"net.txt: expected {n_lines} lines, found {n_lines - 1}$"):
            load_model(str(path))

    @pytest.mark.parametrize("dims, n_lines", [([3, 4, 1], 8), ([3, 4, 2], 9)])
    def test_extra_row_names_the_path(self, tmp_path, dims, n_lines):
        path, lines = self._saved_lines(tmp_path, dims)
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(ValueError, match=f"net.txt: expected {n_lines} lines, found {n_lines + 1}$"):
            load_model(str(path))

    def test_header_larger_than_the_file_is_refused_by_count(self, tmp_path):
        # 10^12 weights would not fit in memory; the file is only counted.
        path = tmp_path / "net.txt"
        path.write_text("mlp-hex64 1 1000000 1000000 relu identity\n" + "3ff0000000000000\n" * 3)
        with pytest.raises(ValueError, match="net.txt: expected 1000002 lines, found 4$"):
            load_model(str(path))

    def test_save_holds_one_row_beyond_the_net(self, tmp_path):
        net = mlp_init([4, 256, 256, 256, 1], seed=2)
        path = str(tmp_path / "net.txt")
        assert traced_peak_bytes(lambda: save_model(net, path)) <= 64 * 1024

    def test_load_holds_about_the_net(self, tmp_path):
        net = mlp_init([4, 256, 256, 256, 1], seed=2)
        path = str(tmp_path / "net.txt")
        save_model(net, path)
        net_bytes = sum(p.nbytes for p in _params(net))
        assert traced_peak_bytes(lambda: load_model(path)) <= 1.1 * net_bytes + 64 * 1024

    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "net.txt"
        save_model(mlp_init([4, 64, 64, 1], seed=0), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256
