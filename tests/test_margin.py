"""Margin training: loss arithmetic, interpolation, trainer behavior,
and evaluation metrics."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import cbfforge
import cbfforge.margin as margin_module
from cbfforge.config import load_config
from cbfforge.dubins import NominalPolicyConfig, nominal_policy, rollout, signed_distance_margin
from cbfforge.experiments import field_margin, resolve_margin
from cbfforge.margin import (
    MarginDataset,
    MarginTrainConfig,
    build_margin_dataset,
    evaluate_margin,
    interpolate_pair,
    margin_loss,
    net_margin_fn,
    sign_loss,
    train_margin,
)
from cbfforge.nets import TRAIN_DTYPE, AdamState, MlpNet, adam_step, load_model, mlp_forward, mlp_init, save_model
from oracles import allocating_train_margin, flat_grads, relative_error, three_pass_margin_loss, traced_peak_bytes


def constant_net(c: float) -> MlpNet:
    """A 1-input net that outputs exactly c everywhere."""
    net = mlp_init([3, 1, 1], hidden_activation="relu", seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = 0.0
    net.weights[1][:] = 0.0
    net.biases[1][:] = c
    return net


def linear_net(w: np.ndarray, b: float = 0.0) -> MlpNet:
    net = mlp_init([3, 1], seed=0)
    net.weights[0][0] = w
    net.biases[0][0] = b
    return net


class TestSignLoss:
    def test_inactive_hinges(self):
        # l = +1 on safe and -1 on fail would give zero; a constant net can
        # only realize one side, so build the check from two linear nets is
        # overkill: use a net outputting +1 and feed it as both sides with
        # symmetric deltas instead.
        net = linear_net(np.array([1.0, 0.0, 0.0]))
        safe = np.array([[1.0, 0.0, 0.0]])  # l = +1
        fail = np.array([[-1.0, 0.0, 0.0]])  # l = -1
        assert sign_loss(net, safe, fail, 0.75) == pytest.approx(0.0)

    def test_zero_outputs(self):
        net = constant_net(0.0)
        pts = np.zeros((2, 3))
        assert sign_loss(net, pts, pts, 0.75) == pytest.approx(1.5)

    def test_mixed_batch_hand_value(self):
        net = linear_net(np.array([1.0, 0.0, 0.0]))
        safe = np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])  # l = 0.5, 1.0
        fail = np.array([[-0.2, 0.0, 0.0]])  # l = -0.2
        assert sign_loss(net, safe, fail, 0.75) == pytest.approx(0.675)

    def test_nonnegative_and_zero_iff_separated(self):
        rng = np.random.default_rng(0)
        net = mlp_init([3, 8, 1], seed=1)
        for _ in range(20):
            safe = rng.normal(size=(5, 3))
            fail = rng.normal(size=(4, 3))
            loss = sign_loss(net, safe, fail, 0.3)
            assert loss >= 0.0
            l_safe = mlp_forward(net, safe)[:, 0]
            l_fail = mlp_forward(net, fail)[:, 0]
            separated = np.all(l_safe >= 0.3) and np.all(l_fail <= -0.3)
            assert (loss == 0.0) == separated

    def test_empty_batch_rejected(self):
        net = constant_net(0.0)
        with pytest.raises(ValueError):
            sign_loss(net, np.zeros((0, 3)), np.zeros((1, 3)), 0.5)


class TestInterpolatePair:
    def test_endpoints(self):
        zp = np.array([[0.2, -0.3, 1.0]])
        zm = np.array([[-0.5, 0.8, -2.0]])
        np.testing.assert_allclose(interpolate_pair(zp, zm, 0.0, None), zp)
        np.testing.assert_allclose(interpolate_pair(zp, zm, 1.0, None), zm)

    def test_midpoint_with_shorter_arc(self):
        got = interpolate_pair(np.array([[0.0, 0.0, 0.1]]), np.array([[1.0, 1.0, -0.1]]), 0.5, None)
        np.testing.assert_allclose(got, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_arc_across_wrap(self):
        # From theta = pi - 0.1 to theta = -pi + 0.1 the shorter arc crosses
        # the wrap plane; the midpoint is at the wrap, not at 0.
        got = interpolate_pair(np.array([[0.0, 0.0, np.pi - 0.1]]), np.array([[0.0, 0.0, -np.pi + 0.1]]), 0.5, None)
        assert abs(got[0, 2]) == pytest.approx(np.pi)

    def test_writes_into_out(self):
        zp, zm, eta = np.zeros((4, 3)), np.ones((4, 3)), np.linspace(0.0, 1.0, 4)
        out = np.empty((4, 3))
        assert interpolate_pair(zp, zm, eta, out) is out
        assert np.array_equal(out, interpolate_pair(zp, zm, eta, None))

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            interpolate_pair(np.zeros((1, 3)), np.ones((1, 3)), 1.5, None)


class TestMarginLoss:
    def test_separation_only(self):
        # Linear net with unit gradient norm equal to beta=1 so the penalty
        # vanishes: loss = lambda_zs * (l(z-) - l(z+)).
        net = linear_net(np.array([1.0, 0.0, 0.0]))
        cfg = MarginTrainConfig(lambda_zs=0.1, lambda_gp=10.0, lambda_sign=0.0, beta=1.0, iterations=8000, use_gp=True, seed=0)
        safe = np.array([[1.0, 0.0, 0.0]])
        fail = np.array([[-1.0, 0.0, 0.0]])
        value, _ = margin_loss(net, safe, fail, cfg, np.random.default_rng(cfg.seed), None)
        assert value == pytest.approx(-0.2, abs=1e-12)

    def test_penalty_contributes(self):
        # Gradient norm 2 with beta=1 adds lambda_gp * (2 - 1)^2 = 10.
        net = linear_net(np.array([2.0, 0.0, 0.0]))
        cfg = MarginTrainConfig(lambda_zs=0.1, lambda_gp=10.0, lambda_sign=0.0, beta=1.0, iterations=8000, use_gp=True, seed=0)
        safe = np.array([[0.5, 0.0, 0.0]])
        fail = np.array([[-0.5, 0.0, 0.0]])
        value, _ = margin_loss(net, safe, fail, cfg, np.random.default_rng(cfg.seed), None)
        assert value == pytest.approx(0.1 * (-1.0 - 1.0) + 10.0, abs=1e-12)

    def test_linear_closed_form_gradient(self):
        # For l(z) = w^T z the full loss gradient has closed form:
        # d/dw = lambda_zs (mean z- - mean z+) + lambda_gp 2 (||w||-b) w/||w||.
        rng = np.random.default_rng(1)
        w = rng.normal(size=3)
        net = linear_net(w)
        cfg = MarginTrainConfig(lambda_zs=0.1, lambda_gp=10.0, lambda_sign=0.0, beta=0.1, iterations=8000, use_gp=True, seed=0)
        safe = rng.normal(size=(6, 3))
        fail = rng.normal(size=(6, 3))
        value, grads = margin_loss(net, safe, fail, cfg, np.random.default_rng(cfg.seed), None)
        norm = np.linalg.norm(w)
        expect_w = cfg.lambda_zs * (fail.mean(axis=0) - safe.mean(axis=0))
        expect_w = expect_w + cfg.lambda_gp * 2.0 * (norm - cfg.beta) * w / norm
        np.testing.assert_allclose(grads.weights[0][0], expect_w, rtol=1e-9)
        np.testing.assert_allclose(grads.biases[0], [0.0], atol=1e-12)
        expect_value = cfg.lambda_zs * float(fail.mean(axis=0) @ w - safe.mean(axis=0) @ w)
        expect_value += cfg.lambda_gp * (norm - cfg.beta) ** 2
        assert value == pytest.approx(expect_value, rel=1e-12)

    def test_penalty_zero_iff_norm_beta(self):
        net = linear_net(np.array([0.3, 0.0, 0.0]))
        cfg = MarginTrainConfig(lambda_zs=0.0, lambda_gp=5.0, lambda_sign=0.0, beta=0.3, iterations=8000, use_gp=True, seed=0)
        value, grads = margin_loss(net, np.ones((3, 3)), -np.ones((3, 3)), cfg, np.random.default_rng(cfg.seed), None)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(flat_grads(grads), 0.0, atol=1e-12)


    @pytest.mark.parametrize(
        "seed,n_safe,n_fail,dtype",
        [pytest.param(*sizes, dtype, id=prefix + "%d-%d-%d" % sizes)
         for dtype, prefix in ((np.float64, ""), (np.float32, "float32-"))
         for sizes in ((0, 256, 256), (1, 256, 200), (2, 120, 256))],
    )
    def test_gp_matches_three_pass_objective(self, seed, n_safe, n_fail, dtype):
        # Summing the hinge and separation seeds before one parameter pass
        # changes the gradient by rounding only: 1e-13 in float64, scaled by
        # the ratio of the machine epsilons for float32.
        safe, fail, net = _fixed_batches(seed, n_safe, n_fail, use_gp=True)
        net = net.astype(dtype)
        tol = 1e-13 * np.finfo(dtype).eps / np.finfo(np.float64).eps
        cfg = MarginTrainConfig(use_gp=True, seed=seed, iterations=8000)
        value, grads = margin_loss(net, safe, fail, cfg, np.random.default_rng(seed), None)
        ref_value, ref_grads = three_pass_margin_loss(net, safe, fail, cfg, np.random.default_rng(seed))
        assert flat_grads(grads).dtype == flat_grads(ref_grads).dtype == dtype
        assert relative_error(flat_grads(grads), flat_grads(ref_grads)) <= tol
        assert value == pytest.approx(ref_value, rel=tol)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nogp_equals_hinge_pass_exactly(self, seed):
        safe, fail, net = _fixed_batches(seed, 256, 256, use_gp=False)
        cfg = MarginTrainConfig(use_gp=False, seed=seed, iterations=8000)
        value, grads = margin_loss(net, safe, fail, cfg, np.random.default_rng(seed), None)
        ref_value, ref_grads = three_pass_margin_loss(net, safe, fail, cfg, None)
        assert np.array_equal(flat_grads(grads), flat_grads(ref_grads))
        assert value == ref_value

    def test_gp_makes_one_parameter_and_one_penalty_pass(self, monkeypatch):
        calls = []

        def counted(name):
            inner = getattr(margin_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            return wrapper

        for name in ("param_gradient", "penalty_param_gradient"):
            monkeypatch.setattr(margin_module, name, counted(name))
        safe, fail, net = _fixed_batches(0, 64, 64, use_gp=True)
        margin_loss(net, safe, fail, MarginTrainConfig(use_gp=True, iterations=8000, seed=0), np.random.default_rng(0), None)
        assert sorted(calls) == ["param_gradient", "penalty_param_gradient"]


def _fixed_batches(seed: int, n_safe: int, n_fail: int, use_gp: bool):
    dataset = build_margin_dataset(4000, seed=seed)
    rng = np.random.default_rng(seed)
    safe = dataset.safe_points[rng.integers(0, dataset.safe_points.shape[0], n_safe)]
    fail = dataset.fail_points[rng.integers(0, dataset.fail_points.shape[0], n_fail)]
    net = mlp_init([3, 64, 64, 1], "silu", "identity" if use_gp else "tanh", seed=seed + 10)
    return safe, fail, net


class TestTrainMargin:
    def test_separable_toy_data(self):
        rng = np.random.default_rng(2)
        safe = np.column_stack([rng.uniform(0.5, 1.5, 300), rng.normal(size=300), rng.normal(size=300)])
        fail = np.column_stack([rng.uniform(-1.5, -0.5, 300), rng.normal(size=300), rng.normal(size=300)])
        cfg = MarginTrainConfig(use_gp=False, iterations=400, seed=0, hidden_dims=(16,))
        net = train_margin(MarginDataset(safe, fail), cfg)
        pred_safe = mlp_forward(net, safe)[:, 0] >= 0
        pred_fail = mlp_forward(net, fail)[:, 0] < 0
        assert np.all(pred_safe)
        assert np.all(pred_fail)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_margin(MarginDataset(np.zeros((3, 3)), np.zeros((0, 3))), MarginTrainConfig(iterations=8000, use_gp=True, seed=0))

    def test_deterministic_given_seed(self):
        ds = build_margin_dataset(2000, seed=1)
        cfg = MarginTrainConfig(use_gp=True, iterations=50, seed=3, hidden_dims=(8,))
        a = train_margin(ds, cfg)
        b = train_margin(ds, cfg)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(wa, wb)

    def test_output_activations_by_mode(self):
        ds = build_margin_dataset(500, seed=2)
        gp = train_margin(ds, MarginTrainConfig(use_gp=True, iterations=5, hidden_dims=(8,), seed=0))
        nogp = train_margin(ds, MarginTrainConfig(use_gp=False, iterations=5, hidden_dims=(8,), seed=0))
        assert gp.output_activation == "identity"
        assert nogp.output_activation == "tanh"

    def test_dataset_labels_match_ground_truth(self):
        ds = build_margin_dataset(5000, seed=4)
        assert np.all(signed_distance_margin(ds.safe_points) >= 0)
        assert np.all(signed_distance_margin(ds.fail_points) < 0)
        assert ds.safe_points.shape[0] + ds.fail_points.shape[0] == 5000

    def test_dataset_bits_are_pinned(self):
        # A change to the box sampler's random stream changes these bits.
        ds = build_margin_dataset(2000, seed=3)
        assert (ds.safe_points.shape, ds.fail_points.shape) == ((1635, 3), (365, 3))
        digest = hashlib.sha256(ds.safe_points.tobytes() + ds.fail_points.tobytes()).hexdigest()
        assert digest == "57a3c5bc926a1f58c93586309156f09744d088bef07c79770628f92a3e969cbd"


class TestTrainingDtype:
    """train_margin trains in TRAIN_DTYPE and returns the float64 upcast."""

    @pytest.mark.parametrize("use_gp", [True, False])
    def test_loss_and_adam_see_only_train_dtype_nets(self, monkeypatch, use_gp):
        seen = []

        def spy(name):
            inner = getattr(margin_module, name)

            def wrapper(net, *args, **kwargs):
                seen.append((name, net.dtype))
                return inner(net, *args, **kwargs)

            return wrapper

        for name in ("margin_loss", "adam_step"):
            monkeypatch.setattr(margin_module, name, spy(name))
        cfg = MarginTrainConfig(use_gp=use_gp, iterations=3, hidden_dims=(8,), seed=0)
        net = train_margin(build_margin_dataset(500, seed=2), cfg)
        assert [name for name, _ in seen] == ["margin_loss", "adam_step"] * cfg.iterations
        assert {dtype for _, dtype in seen} == {np.dtype(TRAIN_DTYPE)}
        assert net.dtype == np.float64

    @pytest.mark.parametrize("use_gp", [True, False])
    def test_returns_an_exact_float64_upcast_that_saves_bit_exactly(self, tmp_path, use_gp):
        cfg = MarginTrainConfig(use_gp=use_gp, iterations=20, hidden_dims=(16, 16), seed=0)
        net = train_margin(build_margin_dataset(1000, seed=3), cfg)
        params = net.weights + net.biases
        assert all(p.dtype == np.float64 for p in params)
        assert all(np.array_equal(p.astype(np.float32).astype(np.float64), p) for p in params)
        save_model(net, str(tmp_path / "margin.txt"))
        loaded = load_model(str(tmp_path / "margin.txt"))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(params, loaded.weights + loaded.biases))

    @pytest.mark.parametrize("use_gp", [True, False])
    def test_equals_a_float32_loop_upcast_at_the_end(self, use_gp):
        dataset = build_margin_dataset(2000, seed=5)
        cfg = MarginTrainConfig(use_gp=use_gp, iterations=30, seed=4, hidden_dims=(16, 16))
        rng = np.random.default_rng(cfg.seed)
        output_act = "identity" if use_gp else "tanh"
        net = mlp_init([3, 16, 16, 1], "silu", output_act, seed=cfg.seed).astype(np.float32)
        adam = AdamState(learning_rate=cfg.learning_rate)
        safe, fail = dataset.safe_points, dataset.fail_points
        for _ in range(cfg.iterations):
            batch_safe = safe[rng.integers(0, safe.shape[0], cfg.batch_size)]
            batch_fail = fail[rng.integers(0, fail.shape[0], cfg.batch_size)]
            _, grads = margin_loss(net, batch_safe, batch_fail, cfg, rng, None)
            adam_step(net, grads, adam)
        expected = net.astype(np.float64)
        got = train_margin(dataset, cfg)
        pairs = zip(got.weights + got.biases, expected.weights + expected.biases)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


# One iteration of train_margin at the default 64² net and batch 256, in
# (256, 64) float64 blocks.  Training in float32 peaks at about 9.8 (GP) and
# 7.4 (NoGP) blocks; the same iteration on a float64 net peaks at 20.2 and
# 14.6.
MARGIN_BLOCK = 256 * 64 * 8


@pytest.mark.parametrize("use_gp,budget", [(True, 12), (False, 9)])
def test_one_training_iteration_peak(use_gp, budget):
    dataset = build_margin_dataset(4000, seed=0)
    cfg = MarginTrainConfig(use_gp=use_gp, iterations=1, seed=0)
    assert traced_peak_bytes(lambda: train_margin(dataset, cfg)) <= budget * MARGIN_BLOCK


@pytest.mark.parametrize("batch_size", [64, 256])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("use_gp", [True, False], ids=["gp", "nogp"])
def test_run_long_buffers_give_the_allocating_loops_bits(use_gp, seed, batch_size):
    dataset = build_margin_dataset(2000, seed=seed)
    cfg = MarginTrainConfig(use_gp=use_gp, iterations=30, seed=seed, batch_size=batch_size)
    got, expected = train_margin(dataset, cfg), allocating_train_margin(dataset, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(got.weights + got.biases, expected.weights + expected.biases))


# GP iterations at the defaults (batch 256) in a fresh interpreter, counted
# with getrusage.  glibc gives memory at the top of its heap back to the
# kernel once more than M_TRIM_THRESHOLD is free there, and serves requests
# of M_MMAP_THRESHOLD or more with mappings of their own, unmapped on free.
# Both thresholds start at 128 KiB and follow the largest mapped chunk freed
# so far, so the faults of arrays allocated and freed every iteration depend
# on what the process freed before: a float32 GP iteration that allocated
# its pass arrays took about 380 minor faults at 2,000 points and about 1 at
# 50,000, whose dataset arrays had raised the thresholds (a float64 one,
# about 600).  The trainer's run-long arrays are faulted in once, whatever
# the thresholds.
FAULT_SCRIPT = """
import resource
from cbfforge.margin import MarginTrainConfig, build_margin_dataset, train_margin
dataset = build_margin_dataset({points}, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_margin(dataset, MarginTrainConfig(use_gp=True, iterations={iterations}, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh_process_faults(points: int, iterations: int) -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbfforge.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = FAULT_SCRIPT.format(points=points, iterations=iterations)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_gp_training_in_a_fresh_process_takes_few_page_faults():
    assert _fresh_process_faults(50_000, 200) <= 20 * 200


def test_small_dataset_gp_training_in_a_fresh_process_takes_few_page_faults():
    assert _fresh_process_faults(2_000, 100) < 20 * 100


class TestEvaluateMargin:
    def make_rollouts(self, n=5, steps=30, seed=0):
        rng = np.random.default_rng(seed)
        cfg = NominalPolicyConfig(noise_std=0.4)
        recs = []
        for _ in range(n):
            x0 = np.array([rng.uniform(-1.5, -1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
            recs.append(rollout(lambda s: nominal_policy(s, cfg, rng), x0, steps, None, 0.1))
        return recs

    def test_ground_truth_margin_is_perfect(self):
        recs = self.make_rollouts()
        metrics = evaluate_margin(lambda states: signed_distance_margin(states), recs)
        assert metrics["f1"] == 1.0
        assert metrics["fp"] == 0.0
        assert metrics["fn"] == 0.0

    def test_constant_margin_has_zero_step_delta(self):
        recs = self.make_rollouts()
        metrics = evaluate_margin(net_margin_fn(constant_net(1.0)), recs)
        assert metrics["max_step_delta_mean"] == 0.0
        assert metrics["max_step_delta_std"] == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_margin(net_margin_fn(constant_net(1.0)), [])

    def test_clip_applies_only_when_requested(self, tmp_path):
        # Only the unbounded GP net is clipped, and only where it labels grid
        # cells: the raw margin and a NoGP net's field margin pass through.
        path = str(tmp_path / "margin.txt")
        save_model(constant_net(3.0), path)
        cfgs = {mode: load_config(None, {"margin_mode": mode, "margin_model": path}) for mode in ("gp", "nogp")}
        raw = resolve_margin(cfgs["gp"], str(tmp_path))(np.zeros((1, 3)))
        clipped = field_margin(cfgs["gp"], str(tmp_path))(np.zeros((1, 3)))
        unclipped = field_margin(cfgs["nogp"], str(tmp_path))(np.zeros((1, 3)))
        assert raw[0] == pytest.approx(3.0)
        assert clipped[0] == pytest.approx(1.0)
        assert unclipped[0] == pytest.approx(3.0)
