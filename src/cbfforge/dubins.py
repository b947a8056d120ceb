"""Dubins car testbed: dynamics, failure margins, nominal policy, rollouts.

States are numpy arrays ``[x, y, theta]`` (batches are ``(n, 3)``).  The car
moves at unit speed, the action is the turn rate in [-2, 2], integration is
RK4 with step dt.  Positions are clamped to the workspace box [-1.5, 1.5]^2
after every step and theta is wrapped to [-pi, pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import write_csv
from .config import check_fields, setting

XY_BOUND = 1.5
ACTION_BOUND = 2.0

# An executed action counts as an override of the nominal one when the two
# differ by at least this much.
OVERRIDE_THRESHOLD = 1e-9

# The failure set: a union of circles, each (center_x, center_y, radius).
FAILURE_CIRCLES = ((0.25, 0.65, 0.5), (0.25, -0.65, 0.5))


def wrap_angle(theta):
    """Wrap angles to [-pi, pi); array-aware."""
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


def equispaced_actions(n: int) -> np.ndarray:
    """n equally spaced turn rates spanning [-2, 2], endpoints included.

    This is the shared action discretization: the grid solver maximizes over
    it and the action filter samples it (plus the nominal and fallback
    anchors).
    """
    if n < 2:
        raise ValueError("need at least two actions to span the range")
    return np.linspace(-ACTION_BOUND, ACTION_BOUND, n)


def state_distance(a: np.ndarray, b: np.ndarray):
    """Distance between states with geodesic (wrapped) angular component.

    States (3,) give a scalar; batches (n, 3) give an (n,) array.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d_xy = a[..., :2] - b[..., :2]
    d_th = wrap_angle(a[..., 2] - b[..., 2])
    return np.sqrt(np.sum(d_xy * d_xy, axis=-1) + d_th * d_th)


def _validate_actions(actions: np.ndarray) -> None:
    if not np.isfinite(actions).all():
        raise ValueError("non-finite action")
    if (np.abs(actions) > ACTION_BOUND + 1e-12).any():
        raise ValueError(f"turn rate outside [-{ACTION_BOUND}, {ACTION_BOUND}]")


def dynamics_step_batch(states: np.ndarray, actions, dt: float) -> np.ndarray:
    """RK4 step of (cos theta, sin theta, a) for a batch of states.

    One np.cos and one np.sin call serve the three stage angles, and np.minimum
    and np.maximum clamp the checked positions: np.clip's bits, fewer calls.

    Args:
        states: (n, 3) array of [x, y, theta].
        actions: scalar or (n,) turn rates in [-2, 2].
        dt: positive step length.

    Returns:
        (n, 3) successor states, positions clamped and theta wrapped.
    """
    states = np.asarray(states, dtype=float)
    actions = np.broadcast_to(np.asarray(actions, dtype=float), states.shape[:-1])
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not np.isfinite(states).all():
        raise ValueError("non-finite state")
    _validate_actions(actions)

    rows, rates = states.reshape(actions.size, 3), actions.reshape(-1)
    theta = rows[:, 2]
    # theta evolves linearly (theta_dot = a), so the RK4 stage angles are exact.
    stages = np.empty((3, theta.size))
    stages[0] = theta
    np.add(theta, 0.5 * dt * rates, out=stages[1])
    np.add(theta, dt * rates, out=stages[2])
    trig = np.empty((2, *stages.shape))  # [cos/sin, stage, state]
    np.cos(stages, out=trig[0])
    np.sin(stages, out=trig[1])
    xy = rows[:, :2].T + dt * ((trig[:, 0] + 4.0 * trig[:, 1] + trig[:, 2]) / 6.0)
    np.minimum(xy, XY_BOUND, out=xy)
    np.maximum(xy, -XY_BOUND, out=xy)
    out = np.empty_like(rows)
    out[:, :2] = xy.T
    out[:, 2] = wrap_angle(stages[2])
    return out.reshape(states.shape)


def dynamics_step(state: np.ndarray, action: float, dt: float) -> np.ndarray:
    """RK4 step for a single state (3,); see dynamics_step_batch."""
    return dynamics_step_batch(np.asarray(state, dtype=float)[None, :], action, dt)[0]


def signed_distance_margin(states: np.ndarray):
    """Signed distance to the failure set: min over FAILURE_CIRCLES of (dist - r).

    Negative inside a circle.  Accepts a single state (3,) or a batch (n, 3);
    theta is ignored.
    """
    states = np.asarray(states, dtype=float)
    single = states.ndim == 1
    pts = states[None, :2] if single else states[..., :2]
    margins = np.full(pts.shape[0], np.inf)
    for cx, cy, r in FAILURE_CIRCLES:
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - r
        margins = np.minimum(margins, d)
    return float(margins[0]) if single else margins


@dataclass
class NominalPolicyConfig:
    """Scripted proportional goal-seeking controller, one config key per field.

    obstacle_blind steers straight at (goal_x, goal_y); obstacle_aware adds
    a repulsive heading away from nearby failure circles.  Gaussian heading
    noise (noise_std, in action units) makes the policy multimodal around
    the obstacles.
    """

    goal_x: float = setting("nominal_goal_x")
    goal_y: float = setting("nominal_goal_y")
    gain: float = setting("nominal_gain")
    mode: str = setting("nominal_mode")
    noise_std: float = setting("nominal_noise_std")

    def __post_init__(self) -> None:
        check_fields(self)


def nominal_policy(
    state: np.ndarray,
    cfg: NominalPolicyConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """Proportional heading controller toward (goal_x, goal_y), clamped to [-2, 2].

    With rng None the deterministic part of the policy is returned even if
    noise_std > 0; rollout harnesses pass a per-rollout generator.
    """
    x, y, theta = float(state[0]), float(state[1]), float(state[2])
    to_goal = np.array([cfg.goal_x - x, cfg.goal_y - y])
    heading = to_goal / max(np.linalg.norm(to_goal), 1e-9)

    if cfg.mode == "obstacle_aware":
        # Push the desired heading away from any circle we are about to graze.
        influence = 0.45
        for cx, cy, r in FAILURE_CIRCLES:
            away = np.array([x - cx, y - cy])
            dist = np.linalg.norm(away)
            margin = dist - r
            if margin < influence:
                weight = 2.0 * (influence - max(margin, 0.0)) / influence
                heading = heading + weight * away / max(dist, 1e-9)
        heading = heading / max(np.linalg.norm(heading), 1e-9)

    err = wrap_angle(np.arctan2(heading[1], heading[0]) - theta)
    a = cfg.gain * err
    if cfg.noise_std > 0 and rng is not None:
        a += cfg.noise_std * rng.standard_normal()
    return float(np.clip(a, -ACTION_BOUND, ACTION_BOUND))


def sample_initial_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw from the initial-condition box x in [-1.5, -1],
    y in [-1, 1], theta in [-pi/3, pi/3]."""
    out = np.empty((n, 3))
    out[:, 0] = rng.uniform(-1.5, -1.0, size=n)
    out[:, 1] = rng.uniform(-1.0, 1.0, size=n)
    out[:, 2] = rng.uniform(-np.pi / 3.0, np.pi / 3.0, size=n)
    return out


def sample_box_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw over the full state box [-1.5, 1.5]^2 x [-pi, pi), shape
    (n, 3); the x, y and theta columns are drawn in that order."""
    out = np.empty((n, 3))
    out[:, 0] = rng.uniform(-XY_BOUND, XY_BOUND, size=n)
    out[:, 1] = rng.uniform(-XY_BOUND, XY_BOUND, size=n)
    out[:, 2] = rng.uniform(-np.pi, np.pi, size=n)
    return out


@dataclass
class TrajectoryRecord:
    """One executed episode.

    states has one more entry than the action arrays; margin_values holds the
    true signed-distance margin at every visited state.  diagnostics holds
    the per-step filter columns (feasible_count, q_nominal, q_fallback) of a
    filtered rollout and is empty for an unfiltered one.
    """

    states: np.ndarray
    actions_nominal: np.ndarray
    actions_executed: np.ndarray
    margin_values: np.ndarray
    collided: bool
    override_magnitudes: np.ndarray
    diagnostics: dict[str, np.ndarray]

    @property
    def n_steps(self) -> int:
        return self.actions_executed.shape[0]


def rollout(
    policy,
    x0: np.ndarray,
    n_steps: int,
    action_filter,
    dt: float,
) -> TrajectoryRecord:
    """Execute a policy for n_steps or until the state enters the failure set.

    Args:
        policy: callable state -> nominal action.
        x0: initial state (3,).
        n_steps: cap on executed steps, >= 1.
        action_filter: callable (state, a_nominal) -> decision, a
            filters.FilterDecision, or None to execute the nominal action.
            A decision's action is executed and its feasible_count /
            q_nominal / q_fallback are recorded per step.
        dt: integrator step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    state = np.asarray(x0, dtype=float).copy()
    states = [state.copy()]
    margins = [signed_distance_margin(state)]
    a_nom_hist, a_exec_hist = [], []
    diag_hist: list[tuple[int, float, float]] = []
    collided = margins[0] < 0.0

    for _ in range(n_steps):
        if collided:
            break
        a_nom = float(policy(state))
        if action_filter is None:
            a_exec = a_nom
        else:
            decision = action_filter(state, a_nom)
            a_exec = float(decision.action)
            diag_hist.append(
                (int(decision.feasible_count), float(decision.q_nominal), float(decision.q_fallback))
            )
        state = dynamics_step(state, a_exec, dt)
        states.append(state.copy())
        margins.append(signed_distance_margin(state))
        a_nom_hist.append(a_nom)
        a_exec_hist.append(a_exec)
        if margins[-1] < 0.0:
            collided = True

    a_nom_arr = np.array(a_nom_hist)
    a_exec_arr = np.array(a_exec_hist)
    diagnostics: dict[str, np.ndarray] = {}
    if diag_hist:
        diag_arr = np.array(diag_hist)
        diagnostics = {
            "feasible_count": diag_arr[:, 0],
            "q_nominal": diag_arr[:, 1],
            "q_fallback": diag_arr[:, 2],
        }
    return TrajectoryRecord(
        states=np.array(states),
        actions_nominal=a_nom_arr,
        actions_executed=a_exec_arr,
        margin_values=np.array(margins),
        collided=bool(collided),
        override_magnitudes=np.abs(a_exec_arr - a_nom_arr),
        diagnostics=diagnostics,
    )


def save_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    """Write one row per executed step: t,x,y,theta,a_nom,a_exec,margin,
    overridden, plus filter diagnostic columns when present.

    The margin column is the margin at the pre-step state; the terminal
    state's margin lives only in the record.
    """
    extra = [k for k in ("feasible_count", "q_nominal", "q_fallback") if k in record.diagnostics]
    overridden = (record.override_magnitudes >= OVERRIDE_THRESHOLD).astype(int)
    columns = [*record.states.T, record.actions_nominal, record.actions_executed, record.margin_values, overridden]
    columns += [record.diagnostics[k] for k in extra]
    header = ",".join(["t", "x", "y", "theta", "a_nom", "a_exec", "margin", "overridden"] + extra)
    write_csv(path, header, zip(range(record.n_steps), *columns))  # stops before the terminal state


def estimate_dynamics_lipschitz(dt: float, n_samples: int, seed: int) -> float:
    """Empirical Lipschitz constant of the one-step dynamics in the state.

    Samples (state, action, unit direction) triples and returns the largest
    ratio ||f(s + h d, a) - f(s, a)|| / h at the finite-difference step
    h = 1e-4, with the angular component of both the perturbation and the
    distance taken geodesically.

    Args:
        dt: integrator step.
        n_samples: number of sampled triples, >= 1000 for the reported figure.
        seed: RNG seed; the reference figure is the seed-0 run.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    states = sample_box_states(rng, n_samples)
    actions = rng.uniform(-ACTION_BOUND, ACTION_BOUND, size=n_samples)
    dirs = rng.standard_normal(size=(n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    h = 1e-4
    perturbed = states + h * dirs
    perturbed[:, 2] = wrap_angle(perturbed[:, 2])
    dist = state_distance(dynamics_step_batch(perturbed, actions, dt), dynamics_step_batch(states, actions, dt))
    return float(np.max(dist / h))
