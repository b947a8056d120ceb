"""Tests for the safety actor-critic: buffer, collection, updates, training."""

import os

import numpy as np
import pytest

import cbfforge.rl as rl_module
from cbfforge.dubins import NominalPolicyConfig, dynamics_step, nominal_policy, signed_distance_margin
from cbfforge.filters import actor_action
from cbfforge.hj import GridSpec, margin_field, value_iteration, q_from_value
from cbfforge.dubins import equispaced_actions
from cbfforge.nets import AdamState, load_model, mlp_forward, mlp_init, param_gradient, save_model
from cbfforge.rl import (
    DIVERGENCE_LIMIT,
    ReplayBuffer,
    RlConfig,
    SOURCE_FALLBACK,
    SOURCE_NOMINAL,
    actor_update,
    collect_episode,
    critic_error_vs_oracle,
    critic_update,
    soft_update,
    train_safety_rl,
)

from oracles import (
    fd_param_gradient,
    flat_grads,
    reference_adam_step,
    reference_forward,
    reference_param_gradient,
    traced_peak_bytes,
    two_pass_actor_update,
)

NOM_CFG = NominalPolicyConfig(mode="obstacle_blind")


def _tiny_cfg(**overrides):
    base = dict(
        batch_size=32,
        buffer_capacity=2048,
        iterations=60,
        episode_len=4,
        actor_dims=(16, 16),
        critic_dims=(16, 16),
        seed=3,
    )
    base.update(overrides)
    return RlConfig(**base)


def _add_row(buf, i, source=SOURCE_FALLBACK):
    buf.add(np.array([0.1 * i, 0.0, 0.0]), float(i), 0.0, np.zeros(3), source)


def _constant_critic(value):
    net = mlp_init([4, 8, 1], seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = value
    return net


def _zero_actor():
    net = mlp_init([3, 8, 1], output_activation="tanh", seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        RlConfig(gamma=1.5)
    with pytest.raises(ValueError):
        RlConfig(critic_lr=0.0)
    with pytest.raises(ValueError):
        RlConfig(tau=-0.1)
    with pytest.raises(ValueError):
        RlConfig(batch_size=0)
    with pytest.raises(ValueError):
        RlConfig(exploration_std=-0.5)
    with pytest.raises(ValueError):
        RlConfig(actor_dims=())
    with pytest.raises(ValueError):
        RlConfig(dt=0.0)


def test_config_paper_scale_defaults():
    cfg = RlConfig()
    assert cfg.gamma == 0.995
    assert cfg.critic_lr == 3e-4
    assert cfg.actor_lr == 1e-4
    assert cfg.batch_size == 512
    assert cfg.buffer_capacity == 100000
    assert cfg.episode_len == 8
    assert cfg.actor_dims == (512, 512, 512)


# ------------------------------------------------------------------- buffer


def test_buffer_fifo_eviction_and_counters():
    buf = ReplayBuffer(3)
    for i in range(5):
        _add_row(buf, i, SOURCE_NOMINAL if i % 2 else SOURCE_FALLBACK)
    assert len(buf) == 3
    # transitions 0 and 1 were evicted; 2, 3, 4 remain
    assert sorted(buf.a.tolist()) == [2.0, 3.0, 4.0]
    assert np.count_nonzero(buf.source == SOURCE_NOMINAL) == 1  # only i=3
    assert np.count_nonzero(buf.source == SOURCE_FALLBACK) == 2  # i=2 and i=4
    assert buf.nominal_fraction() == pytest.approx(1.0 / 3.0)


def test_buffer_sampling_and_empty_rejected():
    buf = ReplayBuffer(8)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 4)
    for i in range(8):
        _add_row(buf, i)
    batch = buf.sample(np.random.default_rng(0), 16)
    assert batch["z"].shape == (16, 3)
    assert set(batch["a"].tolist()) <= set(float(i) for i in range(8))
    with pytest.raises(ValueError):
        ReplayBuffer(0)


# --------------------------------------------------------------- collection


def test_collect_all_fallback_without_mixing():
    cfg = _tiny_cfg(mix_nominal=False, episode_len=6)
    buf = ReplayBuffer(64)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=0)
    rng = np.random.default_rng(0)
    assert collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, rng, cfg.exploration_std) is None
    assert len(buf) == 6
    assert np.all(buf.source[:6] == SOURCE_FALLBACK)


def test_collect_single_step_stores_noise_free_actor_action():
    cfg = _tiny_cfg(mix_nominal=False, episode_len=1)
    buf = ReplayBuffer(8)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=1)
    collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, np.random.default_rng(5), 0.0)
    # noise-free fallback: the stored action is exactly the actor's output
    assert len(buf) == 1
    assert buf.a[0] == pytest.approx(actor_action(actor, buf.z[0]))


def test_collect_chains_states_and_actions():
    cfg = _tiny_cfg(episode_len=5)
    buf = ReplayBuffer(64)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=2)
    collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, np.random.default_rng(9), cfg.exploration_std)
    assert len(buf) == 5
    assert len(set(buf.source[:5].tolist())) == 1  # one coin flip per episode
    for k in range(4):
        assert np.array_equal(buf.z_next[k], buf.z[k + 1])


def test_collect_steps_at_configured_dt():
    cfg = _tiny_cfg(mix_nominal=False, episode_len=5, dt=0.05)
    buf = ReplayBuffer(64)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=2)
    collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, np.random.default_rng(9), cfg.exploration_std)
    for k in range(5):
        np.testing.assert_array_equal(buf.z_next[k], dynamics_step(buf.z[k], buf.a[k], 0.05))


def test_collect_labels_bounded_even_for_wild_margins():
    cfg = _tiny_cfg(episode_len=4)
    buf = ReplayBuffer(64)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=0)
    wild = lambda pts: 1e6 * np.ones(len(np.atleast_2d(pts)))
    collect_episode(actor, NOM_CFG, wild, buf, cfg, np.random.default_rng(1), cfg.exploration_std)
    assert np.all((-1.0 <= buf.l[:4]) & (buf.l[:4] <= 1.0))
    assert buf.l[0] == pytest.approx(1.0)


def test_collect_fair_coin_proportion():
    cfg = _tiny_cfg(mix_nominal=True, episode_len=1, buffer_capacity=10000)
    buf = ReplayBuffer(10000)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=0)
    rng = np.random.default_rng(123)
    for _ in range(10000):
        collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, rng, cfg.exploration_std)
    assert 0.45 <= buf.nominal_fraction() <= 0.55


def test_collect_exploration_noise_is_clipped():
    cfg = _tiny_cfg(mix_nominal=False, episode_len=32, buffer_capacity=4096)
    buf = ReplayBuffer(4096)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=0)
    collect_episode(actor, NOM_CFG, signed_distance_margin, buf, cfg, np.random.default_rng(2), 5.0)
    acts = buf.a[: len(buf)]
    assert np.all(np.abs(acts) <= 2.0)
    assert np.any(np.abs(np.abs(acts) - 2.0) < 1e-12)  # sigma=5 saturates some


# ------------------------------------------------------------------ updates


def test_critic_target_arithmetic_examples():
    # zeroed critics make the Bellman target exact and the loss closed-form
    cases = [
        (1.0, 1.0, 1.0),  # y = (1-g) + g*min(1, 1) = 1
        (-1.0, 1.0, -1.0),  # min pins to l
        (0.5, 0.2, 0.2015),  # 0.005*0.5 + 0.995*0.2
    ]
    for l, q_next, y in cases:
        critic = _constant_critic(0.0)
        target = _constant_critic(q_next)
        target_actor = _zero_actor()
        batch = {
            "z": np.zeros((4, 3)),
            "a": np.zeros(4),
            "l": np.full(4, l),
            "z_next": np.zeros((4, 3)),
        }
        cfg = _tiny_cfg(gamma=0.995)
        loss = critic_update(critic, target, target_actor, batch, cfg, AdamState(learning_rate=cfg.critic_lr))
        assert loss == pytest.approx(y**2)  # critic outputs 0 everywhere


def test_critic_bootstrap_uses_target_actor_not_stored_action():
    # Target critic Q(z, a) = a exposes which successor action is scored:
    # the zeroed target actor picks 0, so y = 0.005*1 + 0.995*min(1, 0),
    # while scoring the batch's own action 1.7 at z_next would give y = 1.
    critic = mlp_init([4, 1], seed=0)
    critic.weights[0][:] = 0.0
    critic.biases[0][:] = 0.0
    target = mlp_init([4, 1], seed=0)
    target.weights[0][:] = np.array([[0.0, 0.0, 0.0, 1.0]])
    target.biases[0][:] = 0.0
    batch = {
        "z": np.zeros((4, 3)),
        "a": np.full(4, 1.7),
        "l": np.ones(4),
        "z_next": np.zeros((4, 3)),
    }
    cfg = _tiny_cfg(gamma=0.995)
    loss = critic_update(critic, target, _zero_actor(), batch, cfg, AdamState(learning_rate=cfg.critic_lr))
    assert loss == pytest.approx(0.005**2)


def test_critic_update_moves_critic_and_target():
    rng = np.random.default_rng(0)
    critic = mlp_init([4, 8, 1], seed=3)
    target = critic.copy()
    before = [w.copy() for w in critic.weights]
    batch = {
        "z": rng.normal(size=(16, 3)),
        "a": rng.normal(size=16),
        "l": rng.uniform(-1, 1, size=16),
        "z_next": rng.normal(size=(16, 3)),
    }
    cfg = _tiny_cfg()
    opt = AdamState(learning_rate=cfg.critic_lr)
    critic_update(critic, target, _zero_actor(), batch, cfg, opt)
    assert any(not np.array_equal(b, w) for b, w in zip(before, critic.weights))
    # target moved tau of the way toward the updated critic
    expected = (1.0 - cfg.tau) * before[0] + cfg.tau * critic.weights[0]
    assert np.allclose(target.weights[0], expected)
    with pytest.raises(ValueError):
        critic_update(critic, target, _zero_actor(), {k: v[:0] for k, v in batch.items()}, cfg, opt)


def test_critic_regression_converges_on_fixed_batch():
    rng = np.random.default_rng(1)
    critic = mlp_init([4, 32, 32, 1], seed=0)
    target = critic.copy()
    batch = {
        "z": rng.uniform(-1, 1, size=(64, 3)),
        "a": rng.uniform(-2, 2, size=64),
        "l": rng.uniform(-1, 1, size=64),
        "z_next": rng.uniform(-1, 1, size=(64, 3)),
    }
    cfg = _tiny_cfg(critic_lr=3e-3)
    opt = AdamState(learning_rate=cfg.critic_lr)
    anchor = _zero_actor()
    losses = [critic_update(critic, target, anchor, batch, cfg, opt) for _ in range(300)]
    assert losses[-1] < 0.1 * losses[0]


def test_soft_update_blend_exact():
    target = mlp_init([3, 4, 1], seed=0)
    source = mlp_init([3, 4, 1], seed=1)
    expected = 0.9 * target.weights[0] + 0.1 * source.weights[0]
    soft_update(target, source, 0.1)
    assert np.allclose(target.weights[0], expected)


def test_actor_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    critic = mlp_init([4, 12, 1], seed=5)
    actor = mlp_init([3, 10, 1], output_activation="tanh", seed=6)
    states = rng.uniform(-1, 1, size=(8, 3))

    def neg_mean_q(outputs):
        acts = 2.0 * outputs[:, 0]
        feats = np.hstack([states, acts[:, None]])
        q = mlp_forward(critic, feats)[:, 0]
        from cbfforge.nets import input_gradient

        dq_da = input_gradient(critic, feats)[1][:, -1]
        return float(-np.mean(q)), (-(2.0 / len(states)) * dq_da)[:, None]

    _, grads = param_gradient(actor, states, neg_mean_q)

    def scalar(net):
        acts = 2.0 * mlp_forward(net, states)[:, 0]
        feats = np.hstack([states, acts[:, None]])
        return float(-np.mean(mlp_forward(critic, feats)[:, 0]))

    fd = fd_param_gradient(actor, scalar)
    a, b = flat_grads(grads), flat_grads(fd)
    assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(b)))


def test_actor_saturates_under_monotone_critic():
    # critic Q(z, a) = a exactly: single linear layer reading the action input
    critic = mlp_init([4, 1], seed=0)
    critic.weights[0][:] = np.array([[0.0, 0.0, 0.0, 1.0]])
    critic.biases[0][:] = 0.0
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=7)
    cfg = _tiny_cfg(actor_lr=2e-2)
    opt = AdamState(learning_rate=cfg.actor_lr)
    states = np.random.default_rng(0).uniform(-1, 1, size=(32, 3))
    for _ in range(400):
        actor_update(actor, critic, {"z": states}, opt)
    assert np.all(actor_action(actor, states) > 1.9)


def test_actor_unchanged_under_constant_critic():
    critic = _constant_critic(0.42)
    actor = mlp_init([3, 8, 1], output_activation="tanh", seed=8)
    before_w = [w.copy() for w in actor.weights]
    before_b = [b.copy() for b in actor.biases]
    states = np.random.default_rng(1).normal(size=(16, 3))
    loss = actor_update(actor, critic, {"z": states}, AdamState(learning_rate=_tiny_cfg().actor_lr))
    assert loss == pytest.approx(-0.42)
    assert all(np.array_equal(b, w) for b, w in zip(before_w, actor.weights))
    assert all(np.array_equal(b, a) for b, a in zip(before_b, actor.biases))


# ----------------------------------------------------------------- training


def test_train_smoke_and_determinism(tmp_path):
    cfg = _tiny_cfg(iterations=80, batch_size=16, episode_len=4)
    actor1, critic1, hist1 = train_safety_rl(signed_distance_margin, NOM_CFG, cfg)
    actor2, critic2, _ = train_safety_rl(signed_distance_margin, NOM_CFG, cfg)
    assert actor1.output_activation == "tanh"
    assert all(np.array_equal(a, b) for a, b in zip(actor1.weights, actor2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(critic1.weights, critic2.weights))
    assert len(hist1.iterations) >= 2
    assert hist1.iterations[-1] == cfg.iterations - 1

    other = train_safety_rl(signed_distance_margin, NOM_CFG, _tiny_cfg(iterations=80, batch_size=16, episode_len=4, seed=4))
    assert any(not np.array_equal(a, b) for a, b in zip(critic1.weights, other[1].weights))


def test_train_writes_checkpoints_and_curve(tmp_path, monkeypatch):
    import cbfforge.rl as rl_mod

    monkeypatch.setattr(rl_mod, "CHECKPOINT_EVERY", 30)
    monkeypatch.setattr(rl_mod, "LOG_EVERY", 7)
    cfg = _tiny_cfg(iterations=70, batch_size=16, episode_len=4)
    out = str(tmp_path / "run")
    train_safety_rl(signed_distance_margin, NOM_CFG, cfg, out_dir=out)
    names = sorted(os.listdir(out))
    assert "actor_30.txt" in names and "actor_60.txt" in names
    assert "critic_30.txt" in names and "actor.txt" in names and "critic.txt" in names
    with open(os.path.join(out, "training_curve.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.readlines()
    assert header == "iter,critic_loss,actor_loss,buffer_nominal_frac"
    assert len(rows) == len(range(0, 70, 7)) + 1  # every log point plus the final iter
    last = rows[-1].split(",")
    assert int(last[0]) == 69
    assert 0.0 <= float(last[3]) <= 1.0


def test_train_divergence_aborts():
    cfg = _tiny_cfg(iterations=400, batch_size=16, episode_len=4, critic_lr=150.0)
    with pytest.raises(RuntimeError, match="diverged"):
        train_safety_rl(signed_distance_margin, NOM_CFG, cfg)


# ------------------------------------------------------------ oracle error


@pytest.fixture(scope="session")
def tanh_scale_grid():
    spec = GridSpec(nx=25, ny=25, ntheta=13)
    margin = margin_field(spec, lambda pts: np.tanh(signed_distance_margin(pts)))
    sol = value_iteration(margin, equispaced_actions(25), gamma=0.995, dt=0.1, tol=1e-6)
    assert sol.converged
    return margin, sol.field


def _oracle_states(seed):
    """The states critic_error_vs_oracle draws at this seed, recomputed."""
    rng = np.random.default_rng(seed)
    n = rl_module.ORACLE_PAIRS
    return np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n), rng.uniform(-np.pi, np.pi, n)])


def _oracle_mae(critic, value, margin, states, acts):
    q_critic = mlp_forward(critic, np.column_stack([states, acts]))[:, 0]
    return float(np.mean(np.abs(q_critic - q_from_value(value, margin, states, acts, 0.995, 0.1))))


ORACLE_ACTOR = mlp_init([3, 8, 1], output_activation="tanh", seed=0)


def test_critic_error_scores_the_net_on_state_action_rows(tanh_scale_grid):
    margin, value = tanh_scale_grid
    critic = mlp_init([4, 16, 16, 1], seed=3)
    err = critic_error_vs_oracle(critic, value, margin, "nominal_policy", ORACLE_ACTOR, NOM_CFG, 0.995, 0.1, 0)
    states = _oracle_states(0)
    acts = np.array([float(nominal_policy(s, NOM_CFG)) for s in states])
    assert err == _oracle_mae(critic, value, margin, states, acts)


def test_critic_error_constant_critic_matches_manual(tanh_scale_grid):
    margin, value = tanh_scale_grid
    critic = mlp_init([4, 8, 1], seed=0)
    for p in critic.weights + critic.biases:
        p[:] = 0.0
    err = critic_error_vs_oracle(critic, value, margin, "nominal_policy", ORACLE_ACTOR, NOM_CFG, 0.995, 0.1, 11)
    # recompute by hand with the same draws
    states = _oracle_states(11)
    acts = np.array([float(nominal_policy(s, NOM_CFG)) for s in states])
    assert err == np.mean(np.abs(q_from_value(value, margin, states, acts, 0.995, 0.1)))


def test_critic_error_requires_matching_policy_args(tanh_scale_grid):
    margin, value = tanh_scale_grid
    critic = mlp_init([4, 8, 1], seed=0)
    with pytest.raises(ValueError, match="unknown eval_source"):
        critic_error_vs_oracle(critic, value, margin, "greedy", ORACLE_ACTOR, NOM_CFG, 0.995, 0.1, 0)


def test_critic_error_fallback_source_uses_actor(tanh_scale_grid):
    margin, value = tanh_scale_grid
    critic = mlp_init([4, 16, 16, 1], seed=4)
    err = critic_error_vs_oracle(critic, value, margin, "fallback_policy", ORACLE_ACTOR, NOM_CFG, 0.995, 0.1, 2)
    states = _oracle_states(2)
    assert err == _oracle_mae(critic, value, margin, states, actor_action(ORACLE_ACTOR, states))


# ------------------------------------------- equivalence with the two-pass nets


def _equal_nets(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))


def _use_reference_nets(monkeypatch):
    """Route rl through the multi-pass net math: two critic passes per actor update."""
    monkeypatch.setattr(rl_module, "mlp_forward", reference_forward)
    monkeypatch.setattr(rl_module, "param_gradient", reference_param_gradient)
    monkeypatch.setattr(rl_module, "adam_step", reference_adam_step)
    monkeypatch.setattr(rl_module, "actor_update", two_pass_actor_update)


def _small_batch(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "z": rng.uniform(-1.5, 1.5, size=(n, 3)),
        "a": rng.uniform(-2.0, 2.0, size=n),
        "l": rng.uniform(-1.0, 1.0, size=n),
        "z_next": rng.uniform(-1.5, 1.5, size=(n, 3)),
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_actor_update_equals_two_pass_oracle(dtype):
    cfg = _tiny_cfg()
    critic = mlp_init([4, 32, 32, 1], seed=12).astype(dtype)
    actor = mlp_init([3, 32, 32, 1], output_activation="tanh", seed=11).astype(dtype)
    ref = actor.copy()
    opt, ref_opt = AdamState(learning_rate=cfg.actor_lr), AdamState(learning_rate=cfg.actor_lr)
    for seed in range(3):
        batch = _small_batch(seed=seed)
        assert actor_update(actor, critic, batch, opt) == two_pass_actor_update(ref, critic, batch, ref_opt)
        assert _equal_nets(actor, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_critic_update_equals_reference_path(monkeypatch, dtype):
    cfg = _tiny_cfg()
    nets = [
        mlp_init([4, 32, 32, 1], seed=12).astype(dtype),
        mlp_init([4, 32, 32, 1], seed=13).astype(dtype),
        mlp_init([3, 32, 32, 1], output_activation="tanh", seed=11).astype(dtype),
    ]
    ref = [net.copy() for net in nets]
    batch = _small_batch()
    loss = critic_update(*nets, batch, cfg, AdamState(learning_rate=cfg.critic_lr))
    _use_reference_nets(monkeypatch)
    assert critic_update(*ref, batch, cfg, AdamState(learning_rate=cfg.critic_lr)) == loss
    assert all(_equal_nets(a, b) for a, b in zip(nets, ref))


def test_train_safety_rl_equals_reference_path(monkeypatch):
    # Both runs train float32 nets: the oracles follow the net's dtype.
    cfg = _tiny_cfg(actor_dims=(32, 32), critic_dims=(32, 32))
    actor, critic, hist = train_safety_rl(signed_distance_margin, NOM_CFG, cfg)
    _use_reference_nets(monkeypatch)
    ref_actor, ref_critic, ref_hist = train_safety_rl(signed_distance_margin, NOM_CFG, cfg)
    assert _equal_nets(actor, ref_actor) and _equal_nets(critic, ref_critic)
    assert np.array_equal(hist.critic_losses, ref_hist.critic_losses, equal_nan=True)
    assert np.array_equal(hist.actor_losses, ref_hist.actor_losses, equal_nan=True)


def test_actor_update_makes_one_critic_pass(monkeypatch):
    critic = mlp_init([4, 32, 32, 1], seed=12)
    actor = mlp_init([3, 32, 32, 1], output_activation="tanh", seed=11)
    critic_calls = []

    def counted(name):
        inner = getattr(rl_module, name)

        def wrapper(net, *args, **kwargs):
            if net is critic:
                critic_calls.append(name)
            return inner(net, *args, **kwargs)

        return wrapper

    for name in ("mlp_forward", "input_gradient"):
        monkeypatch.setattr(rl_module, name, counted(name))
    actor_update(actor, critic, _small_batch(), AdamState(learning_rate=_tiny_cfg().actor_lr))
    assert critic_calls == ["input_gradient"]


# ------------------------------------------------------------ training dtype


def test_train_safety_rl_updates_float32_nets(monkeypatch):
    seen = []

    def spy(name):
        inner = getattr(rl_module, name)

        def wrapper(*args, **kwargs):
            seen.append((name, [arg.dtype for arg in args if hasattr(arg, "weights")]))
            return inner(*args, **kwargs)

        return wrapper

    for name in ("critic_update", "actor_update", "soft_update"):
        monkeypatch.setattr(rl_module, name, spy(name))
    cfg = _tiny_cfg(iterations=20, batch_size=16)
    actor, critic, _ = train_safety_rl(signed_distance_margin, NOM_CFG, cfg)
    assert {name for name, _ in seen} == {"critic_update", "actor_update", "soft_update"}
    first_update = -(-cfg.batch_size // cfg.episode_len) - 1  # the buffer first fills a batch here
    assert [name for name, _ in seen].count("critic_update") == cfg.iterations - first_update
    assert all(dtypes and set(dtypes) == {np.dtype(np.float32)} for _, dtypes in seen)
    assert actor.dtype == critic.dtype == np.float64


def test_train_safety_rl_returns_exact_float64_upcasts(tmp_path, monkeypatch):
    monkeypatch.setattr(rl_module, "CHECKPOINT_EVERY", 30)
    cfg = _tiny_cfg(iterations=40, batch_size=16)
    out = tmp_path / "run"
    actor, critic, _ = train_safety_rl(signed_distance_margin, NOM_CFG, cfg, out_dir=str(out))
    for net, name in ((actor, "actor"), (critic, "critic")):
        params = net.weights + net.biases
        assert all(p.dtype == np.float64 for p in params)
        assert all(np.array_equal(p.astype(np.float32).astype(np.float64), p) for p in params)
        saved = load_model(str(out / f"{name}.txt"))
        assert all(np.array_equal(a, b) for a, b in zip(params, saved.weights + saved.biases))
        save_model(net, str(tmp_path / f"{name}_again.txt"))
        assert (tmp_path / f"{name}_again.txt").read_bytes() == (out / f"{name}.txt").read_bytes()
        checkpoint = load_model(str(out / f"{name}_30.txt"))
        assert all(np.array_equal(p.astype(np.float32).astype(np.float64), p) for p in checkpoint.weights)


def test_soft_update_keeps_float32():
    target = mlp_init([3, 4, 1], seed=0).astype(np.float32)
    source = mlp_init([3, 4, 1], seed=1).astype(np.float32)
    expected = (1.0 - 0.1) * target.weights[0] + 0.1 * source.weights[0]
    soft_update(target, source, 0.1)
    assert all(p.dtype == np.float32 for p in target.weights + target.biases)
    assert np.array_equal(target.weights[0], expected)


# ------------------------------------------------- caller arrays and memory


def test_updates_leave_the_batch_unchanged():
    cfg = _tiny_cfg()
    critic = mlp_init([4, 32, 32, 1], seed=12)
    actor = mlp_init([3, 32, 32, 1], output_activation="tanh", seed=11)
    batch = _small_batch()
    kept = {key: arr.copy() for key, arr in batch.items()}
    critic_update(critic, critic.copy(), actor.copy(), batch, cfg, AdamState(learning_rate=cfg.critic_lr))
    actor_update(actor, critic, batch, AdamState(learning_rate=cfg.actor_lr))
    assert all(np.array_equal(batch[key], kept[key]) for key in kept)


def _wide_rl_setup():
    """256-wide, 3-hidden-layer ReLU actor and critic at batch 256, with Adam
    moments already allocated by one update of each."""
    cfg = _tiny_cfg(batch_size=256, actor_dims=(256,) * 3, critic_dims=(256,) * 3)
    critic = mlp_init([4, 256, 256, 256, 1], seed=12)
    actor = mlp_init([3, 256, 256, 256, 1], output_activation="tanh", seed=11)
    targets = (critic.copy(), actor.copy())
    opts = AdamState(learning_rate=cfg.critic_lr), AdamState(learning_rate=cfg.actor_lr)
    batch = _small_batch(n=256)
    critic_update(critic, *targets, batch, cfg, opts[0])
    actor_update(actor, critic, batch, opts[1])
    return cfg, critic, actor, targets, opts, batch


# In (256, 256) float64 blocks the updates peak at about 5.1 (critic) and
# 8.3 (actor); passes that keep three arrays per forward layer peak near 11
# and 17.
RL_BLOCK = 256 * 256 * 8


def test_critic_update_memory_budget():
    cfg, critic, _, targets, opts, batch = _wide_rl_setup()
    assert traced_peak_bytes(lambda: critic_update(critic, *targets, batch, cfg, opts[0])) <= 6 * RL_BLOCK


def test_actor_update_memory_budget():
    cfg, critic, actor, _, opts, batch = _wide_rl_setup()
    assert traced_peak_bytes(lambda: actor_update(actor, critic, batch, opts[1])) <= 10 * RL_BLOCK
