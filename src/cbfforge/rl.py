"""Actor-critic training of the safety Q-function with a mixed replay buffer.

The critic regresses the discounted safety backup

    y = (1 - gamma) * l + gamma * min(l, Q_target(z', pi_target(z')))

over transitions (z, a, l, z') collected through the true dynamics,
where l = tanh(margin(z)) keeps labels bounded and the bootstrap action is
the target actor's choice at z', so the critic scores any action by the
safety of following the fallback policy afterwards.  Episodes come from
the learned fallback actor or, with a per-episode fair coin, from the
nominal task policy; the nominal episodes widen the visited action
distribution so the critic stays accurate on the task-relevant actions a
runtime filter will ask about.  The actor ascends the critic.

The actor, the critic and both targets train in float32 (nets.TRAIN_DTYPE):
the nets' passes and Adam follow the dtype of the weights, so the 512^3
products run at half width.  Nets are initialised in float64 and returned,
checkpointed and saved as their exact float64 upcast, so a trained net and
its loaded artifact are the same bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .codec import write_csv
from .config import check_fields, setting
from .dubins import (
    ACTION_BOUND,
    NominalPolicyConfig,
    dynamics_step,
    nominal_policy,
    sample_box_states,
)
from .filters import actor_action, critic_features
from .hj import GridField, q_from_value
from .nets import (
    TRAIN_DTYPE,
    AdamState,
    MlpNet,
    adam_step,
    input_gradient,
    mlp_forward,
    mlp_init,
    param_gradient,
    save_model,
)

SOURCE_FALLBACK = 0
SOURCE_NOMINAL = 1
DIVERGENCE_LIMIT = 1e3
CHECKPOINT_EVERY = 10000
LOG_EVERY = 50
ORACLE_PAIRS = 10000  # state-action pairs critic_error_vs_oracle scores


@dataclass(frozen=True)
class RlConfig:
    """Hyperparameters of the safety actor-critic, one config key per field.

    iterations defaults to a desk-scale 40000; the full-scale 120000 budget
    is available through the same field.  exploration_std anneals linearly
    to exploration_std_final over the run and perturbs fallback actions
    only.  mix_nominal toggles the per-episode coin between the nominal and
    fallback behavior policies.  dt is the integrator step of collection.
    """

    gamma: float = setting("gamma")
    critic_lr: float = setting("rl_critic_lr")
    actor_lr: float = setting("rl_actor_lr")
    batch_size: int = setting("rl_batch_size")
    buffer_capacity: int = setting("rl_buffer_capacity")
    iterations: int = setting("rl_iterations")
    episode_len: int = setting("rl_episode_len")
    actor_dims: tuple = setting("rl_actor_dims")
    critic_dims: tuple = setting("rl_critic_dims")
    tau: float = setting("rl_tau")
    exploration_std: float = setting("rl_exploration_std")
    exploration_std_final: float = setting("rl_exploration_std_final")
    mix_nominal: bool = setting("rl_mix_nominal")
    seed: int = setting("seed")
    dt: float = setting("dt")

    def __post_init__(self):
        check_fields(self)


class ReplayBuffer:
    """Fixed-capacity FIFO store of transition rows (z, a, l, z_next, source)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.z = np.zeros((capacity, 3))
        self.a = np.zeros(capacity)
        self.l = np.zeros(capacity)
        self.z_next = np.zeros((capacity, 3))
        self.source = np.zeros(capacity, dtype=np.int8)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, z: np.ndarray, a: float, l: float, z_next: np.ndarray, source: int) -> None:
        i = self._next
        self.z[i] = z
        self.a[i] = a
        self.l[i] = l
        self.z_next[i] = z_next
        self.source[i] = source
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def nominal_fraction(self) -> float:
        if self._size == 0:
            return 0.0
        return np.count_nonzero(self.source[: self._size] == SOURCE_NOMINAL) / self._size

    def sample(self, rng: np.random.Generator, batch_size: int) -> dict:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return {
            "z": self.z[idx],
            "a": self.a[idx],
            "l": self.l[idx],
            "z_next": self.z_next[idx],
            "source": self.source[idx],
        }


def collect_episode(
    actor: MlpNet,
    nominal_cfg: NominalPolicyConfig,
    margin_fn,
    buffer: ReplayBuffer,
    cfg: RlConfig,
    rng: np.random.Generator,
    sigma: float,
) -> None:
    """Roll one episode through the true dynamics and append its transitions.

    A fair coin picks the behavior policy for the whole episode (nominal
    task policy vs fallback actor) when cfg.mix_nominal is set; otherwise
    every episode is fallback-driven.  Fallback actions receive clipped
    Gaussian exploration noise; nominal actions are stored as produced.
    Labels are l = tanh(margin(z)).

    Args:
        actor: current fallback actor (tanh head).
        nominal_cfg: nominal task policy parameters.
        margin_fn: batched callable (n, 3) -> (n,) margins.
        buffer: destination buffer.
        cfg: supplies episode_len, mix_nominal, dt.
        rng: generator driving resets, the coin, and the noise.
        sigma: std of the fallback exploration noise (the trainer passes
            the annealed value).
    """
    use_nominal = bool(cfg.mix_nominal) and rng.random() < 0.5
    source = SOURCE_NOMINAL if use_nominal else SOURCE_FALLBACK

    def behavior(state: np.ndarray) -> float:
        if use_nominal:
            return float(nominal_policy(state, nominal_cfg))
        a = actor_action(actor, state)
        if sigma > 0.0:
            a += sigma * rng.standard_normal()
        return float(np.clip(a, -ACTION_BOUND, ACTION_BOUND))

    state = sample_box_states(rng, 1)[0]
    action = behavior(state)
    for _ in range(cfg.episode_len):
        succ = dynamics_step(state, action, cfg.dt)
        # Drawn on the last step too: unused then, but it advances the rng
        # that the next episode and the batch sampling share.
        action_next = behavior(succ)
        label = float(np.tanh(margin_fn(state[None, :])[0]))
        buffer.add(state, action, label, succ, source)
        state, action = succ, action_next


def soft_update(target: MlpNet, source: MlpNet, tau: float) -> None:
    """In-place Polyak blend target <- (1 - tau) * target + tau * source."""
    for t, s in zip(target.weights + target.biases, source.weights + source.biases):
        t *= 1.0 - tau
        t += tau * s


def critic_update(
    critic: MlpNet,
    target_critic: MlpNet,
    target_actor: MlpNet,
    batch: dict,
    cfg: RlConfig,
    opt: AdamState,
) -> float:
    """One supervised step of the critic toward the discounted safety backup.

    The target y = (1-gamma) l + gamma min(l, Q_target(z', a')) bootstraps
    the safe continuation: a' is the target actor's action at z_next, so the
    critic estimates the value of playing a once and then following the
    fallback policy.  Stored transitions supply (z, a, l, z_next) from both
    source policies, which is what keeps the estimate accurate at nominal
    actions.  Takes one Adam step on the critic and Polyak-updates the
    target critic by tau.

    Args:
        critic: live critic (state+action input, scalar output).
        target_critic: slow copy providing the bootstrap term.
        target_actor: slow actor copy choosing the bootstrap action at z_next.
        batch: arrays z, a, l, z_next.
        cfg: supplies gamma and tau.
        opt: the critic's persistent Adam state.

    Returns:
        The scalar mean-squared-error loss before the step.
    """
    if batch["z"].shape[0] == 0:
        raise ValueError("batch must be non-empty")
    a_boot = actor_action(target_actor, batch["z_next"])
    q_next = mlp_forward(target_critic, critic_features(batch["z_next"], a_boot))[:, 0]
    y = (1.0 - cfg.gamma) * batch["l"] + cfg.gamma * np.minimum(batch["l"], q_next)
    n = y.size

    def mse(outputs: np.ndarray):
        resid = outputs[:, 0] - y
        return float(np.mean(resid**2)), (2.0 / n) * resid[:, None]

    loss, grads = param_gradient(critic, critic_features(batch["z"], batch["a"]), mse)
    adam_step(critic, grads, opt)
    soft_update(target_critic, critic, cfg.tau)
    return loss


def actor_update(
    actor: MlpNet,
    critic: MlpNet,
    batch: dict,
    opt: AdamState,
) -> float:
    """One Adam step of the actor on the loss -mean Q(z, actor(z)).

    The actor's tanh output is rescaled to the action interval before the
    critic scores it; the chain rule runs through the critic's action input.
    One critic forward pass yields both Q and dQ/da.

    Args:
        actor: live fallback actor (tanh head).
        critic: frozen critic scoring the actor's actions.
        batch: must contain z.
        opt: the actor's persistent Adam state.

    Returns:
        The scalar loss -mean Q before the step.
    """
    states = batch["z"]
    if states.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = states.shape[0]

    def neg_mean_q(outputs: np.ndarray):
        acts = ACTION_BOUND * outputs[:, 0]
        q, dq_dfeats = input_gradient(critic, critic_features(states, acts))
        return float(-np.mean(q[:, 0])), (-(ACTION_BOUND / n) * dq_dfeats[:, -1])[:, None]

    loss, grads = param_gradient(actor, states, neg_mean_q)
    adam_step(actor, grads, opt)
    return loss


@dataclass
class TrainingHistory:
    """Per-log-point training curve."""

    iterations: list = field(default_factory=list)
    critic_losses: list = field(default_factory=list)
    actor_losses: list = field(default_factory=list)
    buffer_nominal_fracs: list = field(default_factory=list)

    def save_csv(self, path: str) -> None:
        rows = zip(self.iterations, self.critic_losses, self.actor_losses, self.buffer_nominal_fracs)
        write_csv(path, "iter,critic_loss,actor_loss,buffer_nominal_frac", rows)


def train_safety_rl(
    margin_fn,
    nominal_cfg: NominalPolicyConfig,
    cfg: RlConfig,
    out_dir: str | None = None,
) -> tuple[MlpNet, MlpNet, TrainingHistory]:
    """Train the fallback actor and safety critic.

    Each iteration collects one episode (with linearly annealed exploration
    noise) and, once the buffer can fill a batch, performs one critic and
    one actor update.  Deterministic given cfg.seed.  When out_dir is set,
    checkpoints are written every 10000 iterations and a training curve CSV
    at the end.  The nets train in TRAIN_DTYPE; checkpoints and the
    returned nets are their exact float64 upcasts.

    Args:
        margin_fn: batched callable (n, 3) -> (n,) labeling states.
        nominal_cfg: nominal task policy parameters.
        cfg: hyperparameters.
        out_dir: optional directory for checkpoints and the curve CSV.

    Returns:
        (actor, critic, history).

    Raises:
        RuntimeError: critic loss exceeded the divergence limit or was not finite.
    """
    rng = np.random.default_rng(cfg.seed)
    actor = mlp_init([3, *cfg.actor_dims, 1], output_activation="tanh", seed=cfg.seed).astype(TRAIN_DTYPE)
    critic = mlp_init([4, *cfg.critic_dims, 1], seed=cfg.seed + 1).astype(TRAIN_DTYPE)
    target_critic = critic.copy()
    target_actor = actor.copy()
    critic_opt = AdamState(learning_rate=cfg.critic_lr)
    actor_opt = AdamState(learning_rate=cfg.actor_lr)
    history = TrainingHistory()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    buffer = ReplayBuffer(cfg.buffer_capacity)

    span = max(cfg.iterations - 1, 1)
    critic_loss = actor_loss = float("nan")
    for it in range(cfg.iterations):
        frac = it / span
        sigma = cfg.exploration_std + frac * (cfg.exploration_std_final - cfg.exploration_std)
        collect_episode(actor, nominal_cfg, margin_fn, buffer, cfg, rng, sigma)
        if len(buffer) >= cfg.batch_size:
            batch = buffer.sample(rng, cfg.batch_size)
            critic_loss = critic_update(critic, target_critic, target_actor, batch, cfg, critic_opt)
            actor_loss = actor_update(actor, critic, batch, actor_opt)
            soft_update(target_actor, actor, cfg.tau)
            if not critic_loss <= DIVERGENCE_LIMIT:  # NaN too
                raise RuntimeError(
                    f"critic diverged at iteration {it}: loss {critic_loss:.3g} "
                    f"(buffer size {len(buffer)}, nominal fraction {buffer.nominal_fraction():.3f})"
                )
        if it % LOG_EVERY == 0 or it == cfg.iterations - 1:
            history.iterations.append(it)
            history.critic_losses.append(critic_loss)
            history.actor_losses.append(actor_loss)
            history.buffer_nominal_fracs.append(buffer.nominal_fraction())
        if out_dir is not None and it > 0 and it % CHECKPOINT_EVERY == 0:
            save_model(actor, os.path.join(out_dir, f"actor_{it}.txt"))
            save_model(critic, os.path.join(out_dir, f"critic_{it}.txt"))

    actor, critic = actor.astype(np.float64), critic.astype(np.float64)
    if out_dir is not None:
        save_model(actor, os.path.join(out_dir, "actor.txt"))
        save_model(critic, os.path.join(out_dir, "critic.txt"))
        history.save_csv(os.path.join(out_dir, "training_curve.csv"))
    return actor, critic, history


def critic_error_vs_oracle(
    critic: MlpNet,
    value_grid: GridField,
    margin_grid: GridField,
    eval_source: str,
    actor: MlpNet,
    nominal_cfg: NominalPolicyConfig,
    gamma: float,
    dt: float,
    seed: int,
) -> float:
    """Mean absolute error of the critic against the grid backup Q.

    Draws ORACLE_PAIRS states uniformly over the box, pairs each with an
    action from the chosen source policy, and compares the critic to the
    one-step backup on the solved grid.  The grid must be solved on the same label
    scale the critic was trained on.

    Args:
        critic: trained critic net.
        value_grid: solved value field.
        margin_grid: margin field of the same solve.
        eval_source: "nominal_policy" or "fallback_policy".
        actor: fallback actor, whose actions fallback_policy scores.
        nominal_cfg: nominal policy parameters, for nominal_policy.
        gamma: discount the grid was solved with.
        dt: integrator step.
        seed: draw seed.

    Returns:
        Mean |Q_critic - Q_grid| over the pairs.
    """
    rng = np.random.default_rng(seed)
    states = sample_box_states(rng, ORACLE_PAIRS)
    if eval_source == "nominal_policy":
        actions = np.array([float(nominal_policy(s, nominal_cfg)) for s in states])
    elif eval_source == "fallback_policy":
        actions = actor_action(actor, states)
    else:
        raise ValueError(f"unknown eval_source {eval_source!r}")
    q_critic = mlp_forward(critic, critic_features(states, actions))[:, 0]
    q_grid = q_from_value(value_grid, margin_grid, states, actions, gamma, dt)
    return float(np.mean(np.abs(q_critic - q_grid)))
