"""Margin-function training and evaluation.

Two learned margins share one trainer: the gradient-penalized smooth margin
(GP: identity output, WGAN-style separation term plus a gradient-norm penalty
toward beta, plus a zero-margin hinge sign loss) and the saturated classifier
baseline (NoGP: tanh output, hinge sign loss with a positive margin delta).
Labels come from the ground-truth signed distance; states are sampled
uniformly over the workspace box.

Both nets train in float32 (nets.TRAIN_DTYPE): the passes, the penalty's
double backprop and Adam follow the dtype of the weights.  train_margin
initialises in float64 and returns the exact float64 upcast, so grid
labelling, saved margin files and every other consumer see float64 nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dubins import sample_box_states, signed_distance_margin, wrap_angle
from .nets import (
    TRAIN_DTYPE,
    AdamState,
    MlpNet,
    adam_step,
    mlp_forward,
    mlp_init,
    param_gradient,
    penalty_param_gradient,
)


@dataclass
class MarginDataset:
    """Labeled states: safe_points have true margin >= 0, fail_points < 0."""

    safe_points: np.ndarray
    fail_points: np.ndarray

    def __post_init__(self) -> None:
        self.safe_points = np.atleast_2d(np.asarray(self.safe_points, dtype=float))
        self.fail_points = np.atleast_2d(np.asarray(self.fail_points, dtype=float))


def build_margin_dataset(n_total: int, seed: int) -> MarginDataset:
    """Sample n_total states uniformly over the box and label by true margin."""
    rng = np.random.default_rng(seed)
    states = sample_box_states(rng, n_total)
    safe = signed_distance_margin(states) >= 0.0
    return MarginDataset(states[safe], states[~safe])


@dataclass
class MarginTrainConfig:
    """Loss weights and optimization knobs for train_margin.

    delta is the sign-loss margin of the NoGP objective; the GP objective
    always uses the zero-margin hinge.  hidden_dims sizes the MLP.
    """

    iterations: int
    use_gp: bool
    seed: int
    lambda_zs: float = 0.1
    lambda_gp: float = 10.0
    lambda_sign: float = 1.0
    beta: float = 0.1
    delta: float = 0.75
    batch_size: int = 256
    learning_rate: float = 1e-3
    hidden_dims: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if min(self.lambda_zs, self.lambda_gp, self.lambda_sign) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch_size and iterations must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def sign_loss(margin_net: MlpNet, batch_safe: np.ndarray, batch_fail: np.ndarray, delta: float) -> float:
    """Hinge classification loss:
    mean max(0, delta - l(z+)) + mean max(0, delta + l(z-))."""
    batch_safe = np.atleast_2d(batch_safe)
    batch_fail = np.atleast_2d(batch_fail)
    if batch_safe.shape[0] == 0 or batch_fail.shape[0] == 0:
        raise ValueError("sign_loss needs non-empty batches")
    value, _ = _hinge(mlp_forward(margin_net, batch_safe)[:, 0], mlp_forward(margin_net, batch_fail)[:, 0], delta)
    return float(value)


def interpolate_pair(z_plus: np.ndarray, z_minus: np.ndarray, eta) -> np.ndarray:
    """Row-wise (1 - eta) z+ + eta z-, theta along the shorter arc.

    Takes batches z_plus, z_minus (n, 3) and eta scalar or (n,).
    """
    zp = np.asarray(z_plus, dtype=float)
    zm = np.asarray(z_minus, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr < 0.0) or np.any(eta_arr > 1.0):
        raise ValueError("eta must lie in [0, 1]")
    e = np.broadcast_to(eta_arr, zp.shape[:1]).astype(float)
    out = np.empty_like(zp)
    out[:, :2] = (1.0 - e)[:, None] * zp[:, :2] + e[:, None] * zm[:, :2]
    out[:, 2] = wrap_angle(zp[:, 2] + e * wrap_angle(zm[:, 2] - zp[:, 2]))
    return out


def _hinge(l_safe: np.ndarray, l_fail: np.ndarray, delta: float):
    """The hinge mean max(0, delta - l(z+)) + mean max(0, delta + l(z-)).

    Returns (value, seed): seed is d value / d l over the stacked
    (safe, fail) outputs, -1/n+ or +1/n- on active hinges and 0 elsewhere.
    """
    gap_safe = delta - l_safe
    gap_fail = delta + l_fail
    value = np.mean(np.maximum(0.0, gap_safe)) + np.mean(np.maximum(0.0, gap_fail))
    seed = np.concatenate(
        [np.where(gap_safe > 0.0, -1.0 / l_safe.size, 0.0), np.where(gap_fail > 0.0, 1.0 / l_fail.size, 0.0)]
    )
    return value, seed


def margin_loss(
    margin_net: MlpNet,
    batch_safe: np.ndarray,
    batch_fail: np.ndarray,
    cfg: MarginTrainConfig,
    rng: np.random.Generator,
):
    """The objective train_margin minimises, with its parameter gradient.

    GP (cfg.use_gp):
        loss = lambda_sign * hinge at delta 0
             + lambda_zs * (mean l(z-) - mean l(z+))
             + lambda_gp * mean (||grad l(zhat)|| - beta)^2,
    where each zhat interpolates one (z+, z-) pair at its own
    eta ~ U(0, 1); pairs are formed by index up to the shorter batch.
    NoGP: loss = lambda_sign * hinge at cfg.delta.  rng draws the etas.

    The hinge and separation seeds are summed before one parameter pass over
    the stacked (safe, fail) batch; GP adds one penalty pass.

    Returns:
        (loss value, MlpGrads).
    """
    batch_safe = np.atleast_2d(batch_safe)
    batch_fail = np.atleast_2d(batch_fail)
    if batch_safe.shape[0] == 0 or batch_fail.shape[0] == 0:
        raise ValueError("margin_loss needs non-empty batches")

    n_s, n_f = batch_safe.shape[0], batch_fail.shape[0]
    delta = 0.0 if cfg.use_gp else cfg.delta

    def stacked_terms(outputs):
        l_safe, l_fail = outputs[:n_s, 0], outputs[n_s:, 0]
        hinge, hinge_seed = _hinge(l_safe, l_fail, delta)
        value, seed = cfg.lambda_sign * hinge, cfg.lambda_sign * hinge_seed
        if cfg.use_gp:
            value += cfg.lambda_zs * (l_fail.mean() - l_safe.mean())
            seed += np.concatenate([np.full(n_s, -cfg.lambda_zs / n_s), np.full(n_f, cfg.lambda_zs / n_f)])
        return value, seed[:, None]

    value, grads = param_gradient(margin_net, np.vstack([batch_safe, batch_fail]), stacked_terms)
    if cfg.use_gp:
        n_pairs = min(n_s, n_f)
        eta = rng.uniform(0.0, 1.0, size=n_pairs)
        zhat = interpolate_pair(batch_safe[:n_pairs], batch_fail[:n_pairs], eta)
        pen_value, pen_grads = penalty_param_gradient(margin_net, zhat, cfg.beta)
        grads.add_scaled(pen_grads, cfg.lambda_gp)
        value += cfg.lambda_gp * pen_value
    return value, grads


def train_margin(dataset: MarginDataset, cfg: MarginTrainConfig) -> MlpNet:
    """Train a margin net on labeled states by Adam on margin_loss.

    GP mode (cfg.use_gp): identity output, the hinge at delta 0 plus the
    separation term and the gradient penalty.  NoGP mode: tanh output, the
    hinge at cfg.delta only.  Deterministic given (dataset, cfg).  The net
    trains in TRAIN_DTYPE and is returned as its exact float64 upcast.
    """
    if dataset.safe_points.shape[0] == 0 or dataset.fail_points.shape[0] == 0:
        raise ValueError("train_margin needs both classes in the dataset")
    rng = np.random.default_rng(cfg.seed)
    output_act = "identity" if cfg.use_gp else "tanh"
    net = mlp_init([3, *cfg.hidden_dims, 1], "silu", output_act, seed=cfg.seed).astype(TRAIN_DTYPE)
    adam = AdamState(learning_rate=cfg.learning_rate)

    n_s, n_f = dataset.safe_points.shape[0], dataset.fail_points.shape[0]
    for _ in range(cfg.iterations):
        batch_safe = dataset.safe_points[rng.integers(0, n_s, cfg.batch_size)]
        batch_fail = dataset.fail_points[rng.integers(0, n_f, cfg.batch_size)]
        _, grads = margin_loss(net, batch_safe, batch_fail, cfg, rng)
        adam_step(net, grads, adam)
    return net.astype(np.float64)


def net_margin_fn(net: MlpNet):
    """Batched callable (n, 3) -> (n,) raw margins from a net."""
    return lambda states: mlp_forward(net, np.atleast_2d(states))[:, 0]


def evaluate_margin(margin_fn, trajectories) -> dict[str, float]:
    """Classification and smoothness metrics along executed trajectories.

    Args:
        margin_fn: batched callable (n, 3) -> (n,).
        trajectories: TrajectoryRecords carrying ground-truth margin_values.

    Returns:
        dict with f1 (safe = positive class), confusion fractions tp/tn/fp/fn,
        and the per-trajectory max one-step |delta l| mean and std.
    """
    records = list(trajectories)
    if not records:
        raise ValueError("evaluate_margin needs at least one trajectory")

    true_safe, pred_safe, max_deltas = [], [], []
    for rec in records:
        values = np.asarray(margin_fn(rec.states))
        true_safe.append(np.asarray(rec.margin_values) >= 0.0)
        pred_safe.append(values >= 0.0)
        if values.shape[0] >= 2:
            max_deltas.append(float(np.max(np.abs(np.diff(values)))))
    t = np.concatenate(true_safe)
    p = np.concatenate(pred_safe)
    n = t.shape[0]
    tp = float(np.sum(p & t)) / n
    tn = float(np.sum(~p & ~t)) / n
    fp = float(np.sum(p & ~t)) / n
    fn = float(np.sum(~p & t)) / n
    denom = 2.0 * tp + fp + fn
    f1 = 2.0 * tp / denom if denom > 0 else 0.0
    deltas = np.asarray(max_deltas) if max_deltas else np.zeros(1)
    return {
        "f1": f1,
        "tp": tp,
        "tn": tn,
        "fp": fp,
        "fn": fn,
        "max_step_delta_mean": float(deltas.mean()),
        "max_step_delta_std": float(deltas.std()),
    }
