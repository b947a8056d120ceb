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

Each backend scores through one batched primitive, anchored_q(states,
actions), which returns the fallback action at each state with the scores of
`actions` and of the fallback.  A model-free filter step is one anchored_q
call at one state; a model-based step scores its successors with one
anchored_q call.  On a grid each call is one q_from_value query over the
action set and `actions`; on the critic it is one actor pass and one critic
pass.  The sampler points are built once per SamplerSpec; a model-free step
copies them and its anchors into preallocated sample and Q arrays.  q_values
(one state, candidate scores only) and fallback_action (one state) remain for
callers that need just one of the two; step is the world-model seam a
model-based query steps through.  Backends refuse bad parameters when built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SCHEMA, check_fields, check_setting, setting
from .dubins import ACTION_BOUND, OVERRIDE_THRESHOLD, dynamics_step, equispaced_actions
from .hj import GridField, q_from_value
from .nets import MlpNet, mlp_forward

_SAMPLER_KINDS = ("equispaced_1d",)


@dataclass(frozen=True)
class SamplerSpec:
    """Candidate-action sampling scheme for the control-barrier filter.

    kind "equispaced_1d", the only kind, draws n (n_action_samples) equally
    spaced scalar actions spanning the action interval, endpoints included.
    The nominal and fallback actions are always appended after the n
    sampled points; duplicates are retained.  The points are built once,
    with the spec, as the read-only array `points`.
    """

    kind: str = "equispaced_1d"
    n: int = setting("n_action_samples")
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        points = equispaced_actions(self.n)  # names the n < 2 case itself
        check_fields(self)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of the control-barrier filter; each field but sampler
    serves one config key.

    alpha is the allowed per-step decay rate of the thresholded safety
    value; epsilon is the safety threshold absorbing learning error.
    query_mode selects how candidate actions are scored.  gamma and dt are
    checked but not read: the backend carries the values it was built with.
    They stay while the benchmark passes them.
    """

    alpha: float = setting("alpha")
    epsilon: float = setting("epsilon")
    query_mode: str = setting("query_mode")
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    gamma: float = setting("gamma")
    dt: float = setting("dt")

    def __post_init__(self):
        check_fields(self)


@dataclass
class FeasibleSet:
    """Candidate actions that satisfied the barrier constraint, with Q-values."""

    actions: np.ndarray
    q_values: np.ndarray


@dataclass
class FilterDecision:
    """Outcome of one filtering step.

    action is the executed action; delta_a its distance to the nominal
    action; overridden whether delta_a reaches dubins.OVERRIDE_THRESHOLD,
    the threshold every reported override count uses.  q_nominal and
    q_fallback are the scores of the appended anchor samples.  feasible is
    populated by the control-barrier filter only.
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

    def __init__(self, value: GridField, margin: GridField, actions: np.ndarray, gamma: float, dt: float):
        if value.kind != "value" or margin.kind != "margin":
            raise ValueError("expected a value field and a margin field")
        if value.spec != margin.spec:
            raise ValueError(f"value and margin fields must share a GridSpec, got {value.spec} and {margin.spec}")
        self.value = value
        self.margin = margin
        self.actions = np.asarray(actions, dtype=float)
        if self.actions.ndim != 1 or self.actions.size == 0:
            raise ValueError("actions must be a non-empty 1-D action set")
        if not (np.abs(self.actions) <= ACTION_BOUND).all():
            raise ValueError(f"actions must be finite turn rates in [-{ACTION_BOUND}, {ACTION_BOUND}]")
        check_setting("gamma", gamma, ValueError)
        check_setting("dt", dt, ValueError)
        self.gamma = float(gamma)
        self.dt = float(dt)

    def q_values(self, state: np.ndarray, actions) -> np.ndarray:
        """Backup Q(z, a) for one state and a batch of actions."""
        actions = np.atleast_1d(np.asarray(actions, dtype=float))
        states = np.tile(np.asarray(state, dtype=float), (actions.size, 1))
        return q_from_value(self.value, self.margin, states, actions, self.gamma, self.dt)

    def fallback_action(self, state: np.ndarray) -> float:
        """Greedy action at one state (first maximizer on ties)."""
        return float(self.anchored_q(state)[0][0])

    def anchored_q(self, states: np.ndarray, actions=()):
        """(greedy actions (n,), Q(z, actions) (n, k), Q(z, greedy) (n,)).

        states is one state (3,) or a batch (n, 3).  The action set and
        `actions` are scored for every state in one q_from_value call; the
        greedy action is the first maximizer over the action-set columns.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        n, k = states.shape[0], self.actions.size + np.size(actions)
        rows, acts = np.empty((n, k, 3)), np.empty((n, k))
        rows[:] = states[:, None]
        acts[:, : self.actions.size] = self.actions
        acts[:, self.actions.size :] = actions
        q = q_from_value(self.value, self.margin, rows.reshape(-1, 3), acts.ravel(), self.gamma, self.dt).reshape(n, k)
        table = q[:, : self.actions.size]
        return self.actions[table.argmax(axis=1)], q[:, self.actions.size :], np.maximum.reduce(table, axis=1)

    def step(self, state: np.ndarray, action) -> np.ndarray:
        return dynamics_step(state, action, self.dt)


def critic_features(states: np.ndarray, actions) -> np.ndarray:
    """Critic input rows [z, a]: states (n, d), or one state (d,) for every action."""
    actions = np.atleast_1d(np.asarray(actions, dtype=float))
    states = np.asarray(states, dtype=float)
    feats = np.empty((actions.size, states.shape[-1] + 1))
    feats[:, :-1] = states
    feats[:, -1] = actions
    return feats


class CriticBackend:
    """Safety Q source backed by a neural critic and a fallback actor.

    The critic consumes the concatenated (state, action) vector; the actor
    maps a state to a tanh-bounded action rescaled to the action interval.
    """

    def __init__(self, critic: MlpNet, actor: MlpNet, dt: float):
        if critic.output_dim != 1:
            raise ValueError("critic must have a single output")
        if actor.output_dim != 1 or actor.output_activation != "tanh":
            raise ValueError("actor must have a single tanh output")
        if critic.input_dim != actor.input_dim + 1:
            raise ValueError("critic input must be the state plus one action")
        check_setting("dt", dt, ValueError)
        self.critic = critic
        self.actor = actor
        self.dt = float(dt)

    def q_values(self, state: np.ndarray, actions) -> np.ndarray:
        """Critic Q(z, a) for one state and a batch of actions, one forward pass."""
        return mlp_forward(self.critic, critic_features(state, actions))[:, 0]

    def fallback_action(self, state: np.ndarray) -> float:
        return float(actor_action(self.actor, np.asarray(state, dtype=float)))

    def anchored_q(self, states: np.ndarray, actions=()):
        """(actor actions (n,), Q(z, actions) (n, k), Q(z, actor action) (n,)).

        states is one state (3,) or a batch (n, 3).  One actor pass gives the
        fallback actions; each state's fallback row follows its `actions`
        rows in one critic pass.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        a_fb = actor_action(self.actor, states)
        acts = np.empty((states.shape[0], np.size(actions) + 1))
        acts[:, :-1] = actions
        acts[:, -1] = a_fb
        feats = critic_features(np.repeat(states, acts.shape[1], axis=0), acts.ravel())
        q = mlp_forward(self.critic, feats)[:, 0].reshape(acts.shape)
        return a_fb, q[:, :-1], q[:, -1]

    def step(self, state: np.ndarray, action) -> np.ndarray:
        return dynamics_step(state, action, self.dt)


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
    return np.concatenate([spec.points] + [a.ravel() for a in anchors])


def cbf_constraint_check(q_of_a, q_of_fallback: float, cfg: FilterConfig) -> np.ndarray:
    """Barrier feasibility: (Q(z,a) - eps) >= alpha * (Q(z, fallback) - eps).

    Args:
        q_of_a: candidate Q-values, an array.
        q_of_fallback: fallback Q-value at the same state.
        cfg: supplies alpha and epsilon.

    Returns:
        Boolean array, one entry per candidate.
    """
    q_of_a = np.asarray(q_of_a, dtype=float)
    if not (np.isfinite(q_of_a).all() and np.isfinite(q_of_fallback)):
        raise ValueError("Q-values must be finite")
    return (q_of_a - cfg.epsilon) >= cfg.alpha * (q_of_fallback - cfg.epsilon)


def q_query(backend, state: np.ndarray, actions, cfg: FilterConfig) -> np.ndarray:
    """Score candidate actions at a state under the configured query mode.

    model_free scores Q(z, a) in one batched backend call.  model_based
    steps the dynamics once per candidate (the world-model interface is a
    per-query one), then scores the fallback policy's Q at the successors in
    one batched anchored_q call.

    Args:
        backend: GridBackend or CriticBackend (anything with q_values,
            anchored_q, step).
        state: state (3,).
        actions: (n,) batch of candidate actions.
        cfg: supplies query_mode.

    Returns:
        (n,) array of Q-values.
    """
    if cfg.query_mode == "model_free":
        return backend.q_values(state, actions)
    successors = np.stack([backend.step(state, a) for a in np.asarray(actions, dtype=float)])
    return backend.anchored_q(successors)[2]


def cbf_filter(state: np.ndarray, a_nominal: float, backend, cfg: FilterConfig) -> FilterDecision:
    """Minimally-overriding action filter via barrier-constrained sampling.

    Scores a candidate batch (sampler points plus the nominal and fallback
    anchors), keeps candidates passing cbf_constraint_check against the
    fallback anchor's score, and returns the feasible candidate nearest the
    nominal action (lowest sample index on distance ties).  An empty
    feasible set falls back to the fallback action.

    In model_free mode one backend.anchored_q call returns the fallback
    action with the scores of the sampler points, the nominal action and the
    fallback; model_based mode asks fallback_action, then q_query.

    Args:
        state: current state (3,).
        a_nominal: nominal action.
        backend: Q source, also supplying anchored_q and fallback_action.
        cfg: filter parameters.

    Returns:
        FilterDecision with the executed action and per-step diagnostics.
    """
    a_nom = float(a_nominal)
    if cfg.query_mode == "model_free":
        samples, q = np.empty(cfg.sampler.n + 2), np.empty(cfg.sampler.n + 2)
        samples[:-2], samples[-2] = cfg.sampler.points, a_nom
        samples[-1:], q[:-1], q[-1:] = backend.anchored_q(state, samples[:-1])
    else:
        samples = sample_actions(cfg.sampler, a_nom, backend.fallback_action(state))
        q = q_query(backend, state, samples, cfg)
    q_nominal, q_fallback = float(q[-2]), float(q[-1])

    mask = cbf_constraint_check(q, q_fallback, cfg)
    feasible = FeasibleSet(actions=samples[mask], q_values=q[mask])
    count = int(np.count_nonzero(mask))

    if count == 0:
        chosen = float(samples[-1])
    else:
        dists = np.abs(feasible.actions - a_nom)
        chosen = float(feasible.actions[int(np.argmin(dists))])
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta >= OVERRIDE_THRESHOLD,
        delta_a=delta,
        feasible_count=count,
        q_nominal=q_nominal,
        q_fallback=q_fallback,
        feasible=feasible,
    )


def lr_filter(state: np.ndarray, a_nominal: float, backend, epsilon: float = SCHEMA["epsilon"][1]) -> FilterDecision:
    """Least-restrictive switching filter.

    Executes the nominal action when its direct Q-value clears epsilon
    (inclusive), otherwise the fallback action.  The fallback action and
    both anchor Q-values come from one backend.anchored_q call.

    Args:
        state: current state (3,).
        a_nominal: nominal action.
        backend: Q source supplying anchored_q.
        epsilon: safety threshold, > 0.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    a_nom = float(a_nominal)
    a_fb, q_nom, q_fb = backend.anchored_q(state, [a_nom])
    q_nominal = float(q_nom[0, 0])
    keep = q_nominal >= epsilon
    chosen = a_nom if keep else float(a_fb[0])
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta >= OVERRIDE_THRESHOLD,
        delta_a=delta,
        feasible_count=int(keep),
        q_nominal=q_nominal,
        q_fallback=float(q_fb[0]),
    )
