"""Runtime safety filters over a learned or grid-based safety Q-function.

Two filters are provided.  The least-restrictive filter executes the nominal
action whenever its safety value clears a threshold and otherwise hands
control to the fallback policy.  The sampling-based control-barrier filter
instead scores a batch of candidate actions, keeps the ones that do not decay
the safety value faster than a rate alpha allows, and executes the feasible
candidate closest to the nominal action, so overrides stay small.

Q-values come from pluggable backends: a solved value grid (with the greedy
policy as fallback) or a neural critic paired with a fallback actor.  Both
support a model-free query (score Q(z, a) directly) and a model-based query
(step the dynamics per candidate, then score the fallback policy's value at
the successor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dubins import ACTION_BOUND, DEFAULT_DT, dynamics_step, equispaced_actions
from .hj import GridField, q_from_value
from .nets import MlpNet, mlp_forward

_QUERY_MODES = ("model_free", "model_based")
_SAMPLER_KINDS = ("equispaced_1d",)


@dataclass(frozen=True)
class SamplerSpec:
    """Candidate-action sampling scheme for the control-barrier filter.

    kind "equispaced_1d", the only kind, draws n equally spaced scalar
    actions spanning the full action interval, endpoints included.  The
    nominal and fallback actions are always appended after the n sampled
    points; duplicates are retained.
    """

    kind: str = "equispaced_1d"
    n: int = 25

    def __post_init__(self):
        if self.kind not in _SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of the control-barrier filter.

    alpha in [0, 1) is the allowed per-step decay rate of the thresholded
    safety value; epsilon > 0 is the safety threshold absorbing learning
    error.  query_mode selects how candidate actions are scored; gamma and
    dt must match the artifact the backend was built from.
    """

    alpha: float = 0.85
    epsilon: float = 0.2
    query_mode: str = "model_free"
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    gamma: float = 0.995
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.query_mode not in _QUERY_MODES:
            raise ValueError(f"unknown query_mode {self.query_mode!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass
class FeasibleSet:
    """Candidate actions that satisfied the barrier constraint, with Q-values."""

    actions: np.ndarray
    q_values: np.ndarray


@dataclass
class FilterDecision:
    """Outcome of one filtering step.

    action is the executed action; delta_a its distance to the nominal
    action; overridden whether the two differ.  q_nominal and q_fallback are
    the scores of the appended anchor samples.  feasible is populated by the
    control-barrier filter only.
    """

    action: float
    overridden: bool
    delta_a: float
    feasible_count: int
    q_nominal: float
    q_fallback: float
    feasible: FeasibleSet | None = None


def actor_action(actor: MlpNet, states: np.ndarray):
    """Fallback action(s) from a tanh-headed actor, scaled to the action bound.

    Args:
        actor: network mapping a state to one pre-scaled action in [-1, 1];
            its output activation must be tanh.
        states: single state (3,) or batch (n, 3).

    Returns:
        Scalar action for a single state, (n,) array for a batch.
    """
    if actor.output_activation != "tanh":
        raise ValueError("fallback actor must have a tanh output activation")
    out = ACTION_BOUND * mlp_forward(actor, states)
    states = np.asarray(states)
    return float(out[0]) if states.ndim == 1 else out[:, 0]


class GridBackend:
    """Safety Q source backed by a solved value grid.

    The fallback policy is the greedy policy of the grid: the action set
    maximizer of the one-step backup.  gamma and dt must be the values the
    grid was solved with.
    """

    def __init__(
        self,
        value: GridField,
        margin: GridField,
        actions: np.ndarray | None = None,
        gamma: float = 0.995,
        dt: float = DEFAULT_DT,
        step_fn=None,
    ):
        if value.kind != "value" or margin.kind != "margin":
            raise ValueError("expected a value field and a margin field")
        self.value = value
        self.margin = margin
        self.actions = equispaced_actions() if actions is None else np.asarray(actions, dtype=float)
        if self.actions.size == 0:
            raise ValueError("action set must be non-empty")
        self.gamma = float(gamma)
        self.dt = float(dt)
        self._step_fn = dynamics_step if step_fn is None else step_fn

    def q_values(self, state: np.ndarray, actions) -> np.ndarray:
        """Backup Q(z, a) for one state and a batch of actions."""
        actions = np.atleast_1d(np.asarray(actions, dtype=float))
        states = np.tile(np.asarray(state, dtype=float), (actions.size, 1))
        return q_from_value(self.value, self.margin, states, actions, self.gamma, self.dt)

    def _q_table(self, states: np.ndarray) -> np.ndarray:
        """Q over the backend action set, shape (n_states, n_actions).

        Every (state, action) row goes through one q_from_value call.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        k = self.actions.size
        q = q_from_value(
            self.value,
            self.margin,
            np.repeat(states, k, axis=0),
            np.tile(self.actions, states.shape[0]),
            self.gamma,
            self.dt,
        )
        return q.reshape(states.shape[0], k)

    def fallback_q(self, states: np.ndarray) -> np.ndarray:
        """Q(z, greedy(z)) for a batch of states, shape (n,)."""
        return self._q_table(states).max(axis=1)

    def fallback_action(self, state: np.ndarray) -> float:
        """Greedy action at one state (first maximizer on ties)."""
        return float(self.actions[int(np.argmax(self._q_table(state)[0]))])

    def step(self, state: np.ndarray, action) -> np.ndarray:
        return self._step_fn(state, action, self.dt)


class CriticBackend:
    """Safety Q source backed by a neural critic and a fallback actor.

    The critic consumes the concatenated (state, action) vector; the actor
    maps a state to a tanh-bounded action rescaled to the action interval.
    """

    def __init__(self, critic: MlpNet, actor: MlpNet, dt: float = DEFAULT_DT, step_fn=None):
        if critic.output_dim != 1:
            raise ValueError("critic must have a single output")
        if actor.output_dim != 1 or actor.output_activation != "tanh":
            raise ValueError("actor must have a single tanh output")
        if critic.input_dim != actor.input_dim + 1:
            raise ValueError("critic input must be the state plus one action")
        self.critic = critic
        self.actor = actor
        self.dt = float(dt)
        self._step_fn = dynamics_step if step_fn is None else step_fn

    def q_values(self, state: np.ndarray, actions) -> np.ndarray:
        """Critic Q(z, a) for one state and a batch of actions, one forward pass."""
        actions = np.atleast_1d(np.asarray(actions, dtype=float))
        states = np.tile(np.asarray(state, dtype=float), (actions.size, 1))
        feats = np.hstack([states, actions[:, None]])
        return mlp_forward(self.critic, feats)[:, 0]

    def fallback_q(self, states: np.ndarray) -> np.ndarray:
        """Critic Q(z, actor(z)) for a batch of states, shape (n,)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        acts = actor_action(self.actor, states)
        feats = np.hstack([states, np.atleast_1d(acts)[:, None]])
        return mlp_forward(self.critic, feats)[:, 0]

    def fallback_action(self, state: np.ndarray) -> float:
        return float(actor_action(self.actor, np.asarray(state, dtype=float)))

    def step(self, state: np.ndarray, action) -> np.ndarray:
        return self._step_fn(state, action, self.dt)


def sample_actions(spec: SamplerSpec, a_nominal, a_fallback) -> np.ndarray:
    """Build the candidate-action batch for one filtering step.

    Returns the n equispaced sampler points with a_nominal and a_fallback
    appended, in that order, duplicates retained; shape (n + 2,).

    Args:
        spec: sampling scheme.
        a_nominal: nominal action, a scalar.
        a_fallback: fallback action, a scalar.
    """
    anchors = [np.asarray(a, dtype=float) for a in (a_nominal, a_fallback)]
    if any(a.size != 1 for a in anchors):
        raise ValueError("equispaced_1d requires a scalar action space")
    return np.concatenate([equispaced_actions(spec.n)] + [a.ravel() for a in anchors])


def cbf_constraint_check(q_of_a, q_of_fallback: float, cfg: FilterConfig):
    """Barrier feasibility: (Q(z,a) - eps) >= alpha * (Q(z, fallback) - eps).

    Args:
        q_of_a: candidate Q-value(s), scalar or array.
        q_of_fallback: fallback Q-value at the same state.
        cfg: supplies alpha and epsilon.

    Returns:
        Boolean (or boolean array) feasibility.
    """
    q_of_a = np.asarray(q_of_a, dtype=float)
    if not np.all(np.isfinite(q_of_a)) or not np.isfinite(q_of_fallback):
        raise ValueError("Q-values must be finite")
    ok = (q_of_a - cfg.epsilon) >= cfg.alpha * (q_of_fallback - cfg.epsilon)
    return bool(ok) if q_of_a.ndim == 0 else ok


def q_query(backend, state: np.ndarray, actions, cfg: FilterConfig):
    """Score candidate actions at a state under the configured query mode.

    model_free scores Q(z, a) in one batched backend call.  model_based
    steps the dynamics once per candidate (the world-model interface is a
    per-query one), then scores the fallback policy's Q at the successors in
    one batched call.

    Args:
        backend: GridBackend or CriticBackend (anything with q_values,
            fallback_q, step).
        state: state (3,).
        actions: scalar action or (n,) batch.
        cfg: supplies query_mode.

    Returns:
        Scalar for a scalar action, (n,) array for a batch.
    """
    arr = np.atleast_1d(np.asarray(actions, dtype=float))
    single = np.asarray(actions).ndim == 0
    if cfg.query_mode == "model_free":
        q = backend.q_values(state, arr)
    else:
        successors = np.stack([backend.step(state, a) for a in arr])
        q = backend.fallback_q(successors)
    return float(q[0]) if single else q


def cbf_filter(state: np.ndarray, a_nominal: float, backend, cfg: FilterConfig) -> FilterDecision:
    """Minimally-overriding action filter via barrier-constrained sampling.

    Scores a candidate batch (sampler points plus the nominal and fallback
    anchors), keeps candidates passing cbf_constraint_check against the
    fallback anchor's score, and returns the feasible candidate nearest the
    nominal action (lowest sample index on distance ties).  An empty
    feasible set falls back to the fallback action.

    Args:
        state: current state (3,).
        a_nominal: nominal action.
        backend: Q source, also supplying fallback_action.
        cfg: filter parameters.

    Returns:
        FilterDecision with the executed action and per-step diagnostics.
    """
    a_nom = float(a_nominal)
    a_fb = backend.fallback_action(state)
    samples = sample_actions(cfg.sampler, a_nom, a_fb)
    q = q_query(backend, state, samples, cfg)
    q_nominal = float(q[-2])
    q_fallback = float(q[-1])

    mask = cbf_constraint_check(q, q_fallback, cfg)
    feasible = FeasibleSet(actions=samples[mask], q_values=q[mask])
    count = int(mask.sum())

    if count == 0:
        chosen = float(a_fb)
    else:
        dists = np.abs(feasible.actions - a_nom)
        chosen = float(feasible.actions[int(np.argmin(dists))])
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta > 0.0,
        delta_a=delta,
        feasible_count=count,
        q_nominal=q_nominal,
        q_fallback=q_fallback,
        feasible=feasible,
    )


def lr_filter(state: np.ndarray, a_nominal: float, backend, epsilon: float = 0.2) -> FilterDecision:
    """Least-restrictive switching filter.

    Executes the nominal action when its direct Q-value clears epsilon
    (inclusive), otherwise the fallback action.  Both anchor Q-values are
    scored in one batched model-free call for the diagnostics.

    Args:
        state: current state (3,).
        a_nominal: nominal action.
        backend: Q source, also supplying fallback_action.
        epsilon: safety threshold, > 0.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    a_nom = float(a_nominal)
    a_fb = float(backend.fallback_action(state))
    q = backend.q_values(state, np.array([a_nom, a_fb]))
    q_nominal, q_fallback = float(q[0]), float(q[1])
    keep = q_nominal >= epsilon
    chosen = a_nom if keep else a_fb
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta > 0.0,
        delta_a=delta,
        feasible_count=int(keep),
        q_nominal=q_nominal,
        q_fallback=q_fallback,
    )
