"""Tests for the runtime safety filters, samplers, and query backends."""

import re

import numpy as np
import pytest

from cbfforge import filters
from cbfforge.dubins import (
    OVERRIDE_THRESHOLD,
    dynamics_step,
    equispaced_actions,
    nominal_policy,
    NominalPolicyConfig,
    rollout,
    sample_box_states,
    sample_initial_states,
    signed_distance_margin,
)
from cbfforge.filters import (
    CriticBackend,
    FilterConfig,
    GridBackend,
    SamplerSpec,
    actor_action,
    cbf_constraint_check,
    cbf_filter,
    lr_filter,
    q_query,
    sample_actions,
)
from cbfforge.hj import GridField, GridSpec, interpolate, margin_field, q_from_value, value_iteration
from cbfforge.nets import MlpNet, mlp_forward, mlp_init
from oracles import two_query_cbf_filter, two_query_lr_filter


class StubBackend:
    """Q source with an analytic Q(z, a), for exact filter checks."""

    def __init__(self, q_fn, fallback=0.0, step_fn=None, dt=0.1):
        self.q_fn = q_fn
        self.fallback = float(fallback)
        self._step_fn = dynamics_step if step_fn is None else step_fn
        self.dt = dt

    def q_values(self, state, actions):
        actions = np.atleast_1d(np.asarray(actions, dtype=float))
        return np.asarray(self.q_fn(np.asarray(state, dtype=float), actions), dtype=float)

    def fallback_action(self, state):
        return self.fallback

    def anchored_q(self, states, actions=()):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        q = np.stack([self.q_values(s, np.append(actions, self.fallback)) for s in states])
        return np.full(states.shape[0], self.fallback), q[:, :-1], q[:, -1]

    def step(self, state, action):
        return self._step_fn(state, action, self.dt)


@pytest.fixture(scope="session")
def solved_grid():
    spec = GridSpec(nx=31, ny=31, ntheta=15)
    margin = margin_field(spec, signed_distance_margin)
    sol = value_iteration(margin, equispaced_actions(25), gamma=0.995, dt=0.1, tol=1e-6)
    assert sol.converged
    return margin, sol.field


@pytest.fixture(scope="session")
def grid_backend(solved_grid):
    margin, value = solved_grid
    return GridBackend(value, margin, actions=equispaced_actions(25), gamma=0.995, dt=0.1)


def _small_nets(seed=0):
    critic = mlp_init([4, 16, 16, 1], hidden_activation="relu", seed=seed)
    actor = mlp_init([3, 16, 16, 1], hidden_activation="relu", output_activation="tanh", seed=seed + 1)
    return critic, actor


# ---------------------------------------------------------------- samplers


def test_equispaced_sampler_endpoints_and_spacing():
    spec = SamplerSpec(kind="equispaced_1d", n=25)
    samples = sample_actions(spec, 0.3, -1.1)
    assert samples.shape == (27,)
    assert samples[0] == -2.0
    assert samples[24] == 2.0
    assert np.allclose(np.diff(samples[:25]), 1.0 / 6.0)
    assert samples[25] == 0.3
    assert samples[26] == -1.1


def test_sampler_retains_duplicates():
    spec = SamplerSpec(kind="equispaced_1d", n=25)
    samples = sample_actions(spec, 0.0, 2.0)
    # both anchors coincide with grid points and are still appended
    assert samples.shape == (27,)
    assert np.count_nonzero(samples == 0.0) == 2
    assert np.count_nonzero(samples == 2.0) == 2


def test_sampler_validation():
    with pytest.raises(ValueError):
        SamplerSpec(kind="sobol")
    with pytest.raises(ValueError):
        SamplerSpec(kind="line_interpolation")
    with pytest.raises(ValueError):
        SamplerSpec(kind="equispaced_1d", n=0)
    with pytest.raises(ValueError):
        sample_actions(SamplerSpec(kind="equispaced_1d", n=5), np.array([1.0, 2.0]), np.array([0.0, 0.0]))


def test_sampler_refuses_fewer_than_two_points():
    # One point cannot span the action interval; the spec refuses it when
    # built, not at the first filter step.
    with pytest.raises(ValueError, match=re.escape("n_action_samples: 1 is not in [2, inf)")):
        SamplerSpec(kind="equispaced_1d", n=1)


def test_sampler_points_are_built_once(grid_backend, monkeypatch):
    spec = SamplerSpec(kind="equispaced_1d", n=25)
    assert np.array_equal(spec.points, equispaced_actions(25))
    assert not spec.points.flags.writeable
    assert spec == SamplerSpec(kind="equispaced_1d", n=25)

    def refuse(n):
        raise AssertionError("sampler points rebuilt during a filter step")

    monkeypatch.setattr(filters, "equispaced_actions", refuse)
    state = np.array([-0.7, -0.2, 0.4])
    for mode in ("model_free", "model_based"):
        cbf_filter(state, 0.3, grid_backend, FilterConfig(query_mode=mode, sampler=spec))
    assert sample_actions(spec, 0.3, -1.1).shape == (27,)


# ---------------------------------------------------------- constraint check


def test_constraint_arithmetic_examples():
    tight = FilterConfig(alpha=0.95, epsilon=0.2)
    loose = FilterConfig(alpha=0.7, epsilon=0.2)
    assert cbf_constraint_check(np.array([0.5]), 0.6, tight).tolist() == [False]  # 0.3 >= 0.38 fails
    assert cbf_constraint_check(np.array([0.5]), 0.6, loose).tolist() == [True]  # 0.3 >= 0.28 holds


def test_constraint_fallback_identity_case():
    for alpha in np.linspace(0.0, 0.999, 25):
        cfg = FilterConfig(alpha=float(alpha), epsilon=0.2)
        assert cbf_constraint_check(np.array([0.6]), 0.6, cfg).tolist() == [True]  # q_fb - eps = 0.4 >= 0


def test_constraint_rejects_non_finite():
    cfg = FilterConfig()
    with pytest.raises(ValueError):
        cbf_constraint_check(np.array([0.1, np.nan]), 0.5, cfg)
    with pytest.raises(ValueError):
        cbf_constraint_check(np.array([0.5]), np.inf, cfg)


def test_constraint_alpha_monotone_nesting():
    # For q_fb - eps >= 0, raising alpha can only shrink the feasible set.
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.uniform(-1.0, 1.5, size=27)
        q_fb = rng.uniform(0.2, 1.5)  # keeps q_fb - eps >= 0
        a1, a2 = sorted(rng.uniform(0.0, 1.0, size=2))
        lo = cbf_constraint_check(q, q_fb, FilterConfig(alpha=a1, epsilon=0.2))
        hi = cbf_constraint_check(q, q_fb, FilterConfig(alpha=a2, epsilon=0.2))
        assert not np.any(hi & ~lo)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(alpha=1.0)
    with pytest.raises(ValueError):
        FilterConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        FilterConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FilterConfig(query_mode="rollout")
    with pytest.raises(ValueError):
        FilterConfig(gamma=1.2)
    with pytest.raises(ValueError):
        FilterConfig(dt=0.0)


# ------------------------------------------------------------------ q_query


def test_q_query_frozen_dynamics_ignores_action():
    frozen = lambda state, action, dt: np.asarray(state, dtype=float)
    backend = StubBackend(lambda s, a: -np.abs(a) + s[0], fallback=0.5, step_fn=frozen)
    cfg = FilterConfig(query_mode="model_based")
    state = np.array([0.8, 0.0, 0.0])
    q = q_query(backend, state, np.array([-2.0, -0.3, 0.0, 1.7]), cfg)
    expected = backend.q_fn(state, np.array([0.5]))[0]
    assert np.allclose(q, expected)


def test_q_query_constant_critic_matches_both_modes():
    critic, actor = _small_nets()
    # zero all weights so the critic outputs its final bias everywhere
    for w in critic.weights:
        w[:] = 0.0
    for b in critic.biases:
        b[:] = 0.0
    critic.biases[-1][:] = 0.37
    backend = CriticBackend(critic, actor, dt=0.1)
    state = np.array([0.2, -0.4, 1.0])
    acts = np.linspace(-2.0, 2.0, 9)
    q_free = q_query(backend, state, acts, FilterConfig(query_mode="model_free"))
    q_based = q_query(backend, state, acts, FilterConfig(query_mode="model_based"))
    assert np.allclose(q_free, 0.37)
    assert np.allclose(q_based, 0.37)


@pytest.mark.parametrize("mode", ["model_free", "model_based"])
def test_q_query_returns_one_float_per_action(grid_backend, mode):
    cfg = FilterConfig(query_mode=mode, gamma=0.995)
    out = q_query(grid_backend, np.array([-1.0, 0.0, 0.0]), np.array([0.5]), cfg)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (1,)


def test_q_query_model_based_matches_manual_loop(grid_backend):
    cfg = FilterConfig(query_mode="model_based", gamma=0.995)
    state = np.array([-0.9, 0.3, 0.2])
    acts = np.linspace(-2.0, 2.0, 7)
    q = q_query(grid_backend, state, acts, cfg)
    manual = []
    for a in acts:
        succ = grid_backend.step(state, a)
        manual.append(grid_backend.anchored_q(succ)[2][0])
    assert np.allclose(q, manual)


def test_q_query_modes_agree_on_converged_grid(grid_backend, solved_grid):
    # Model-free Q(z,a) and the model-based greedy value at f(z,a) coincide
    # up to the discount gap and interpolation error wherever the running
    # margin is not the binding term of the backup.
    margin, value = solved_grid
    rng = np.random.default_rng(3)
    states = np.column_stack(
        [
            rng.uniform(-1.4, 1.4, size=400),
            rng.uniform(-1.4, 1.4, size=400),
            rng.uniform(-np.pi, np.pi, size=400),
        ]
    )
    cfg_free = FilterConfig(query_mode="model_free", gamma=0.995)
    cfg_based = FilterConfig(query_mode="model_based", gamma=0.995)
    diffs = []
    for state in states:
        a = float(rng.uniform(-2.0, 2.0))
        q_free = q_query(grid_backend, state, np.array([a]), cfg_free)[0]
        succ = grid_backend.step(state, a)
        ell_here = interpolate(margin, state)
        v_succ = interpolate(value, succ)
        if ell_here < v_succ + 0.05 or interpolate(margin, succ) < 0.1:
            continue  # margin-binding or near-failure: the modes answer different questions
        q_based = q_query(grid_backend, state, np.array([a]), cfg_based)[0]
        diffs.append(abs(q_free - q_based))
    diffs = np.array(diffs)
    # Worst case is set by the grid spacing (0.1) at kinks of the value
    # function; typical states agree an order of magnitude tighter.
    assert diffs.size >= 100
    assert diffs.mean() < 0.02
    assert diffs.max() < 0.12


# ----------------------------------------------------------------- backends


def test_critic_backend_forward_matches_manual():
    critic, actor = _small_nets(seed=4)
    backend = CriticBackend(critic, actor, dt=0.1)
    state = np.array([0.1, 0.2, -0.3])
    acts = np.array([-1.0, 0.0, 0.25])
    feats = np.hstack([np.tile(state, (3, 1)), acts[:, None]])
    assert np.allclose(backend.q_values(state, acts), mlp_forward(critic, feats)[:, 0])
    a_fb = backend.fallback_action(state)
    assert a_fb == pytest.approx(2.0 * mlp_forward(actor, state)[0])
    assert abs(a_fb) <= 2.0


def test_critic_backend_validation():
    critic, actor = _small_nets()
    bad_actor = mlp_init([3, 8, 1], seed=0)  # identity output head
    with pytest.raises(ValueError):
        CriticBackend(critic, bad_actor, dt=0.1)
    with pytest.raises(ValueError):
        CriticBackend(mlp_init([3, 8, 1], seed=0), actor, dt=0.1)  # critic missing the action input
    with pytest.raises(ValueError):
        actor_action(bad_actor, np.zeros(3))


def test_grid_backend_fallback_is_greedy(grid_backend):
    # Reference: one q_from_value call per action, first maximizer on ties.
    b = grid_backend
    anywhere = np.random.default_rng(6).uniform([-1.5, -1.5, -np.pi], [1.5, 1.5, np.pi], (100, 3))
    states = np.vstack([sample_initial_states(np.random.default_rng(5), 100), anywhere])
    table = np.stack([q_from_value(b.value, b.margin, states, a, b.gamma, b.dt) for a in b.actions], axis=1)
    greedy = b.actions[np.argmax(table, axis=1)]
    assert np.array_equal([b.fallback_action(s) for s in states], greedy)
    a_fb, _, q_fb = b.anchored_q(states)
    assert np.array_equal(a_fb, greedy)
    assert np.max(np.abs(q_fb - table.max(axis=1))) <= 1e-15


def test_grid_backend_fallback_makes_one_q_call(grid_backend, monkeypatch):
    calls = []
    inner = filters.q_from_value
    monkeypatch.setattr(filters, "q_from_value", lambda *args: calls.append(len(args[2])) or inner(*args))
    grid_backend.fallback_action(np.array([-0.7, -0.2, 0.4]))
    grid_backend.anchored_q(np.zeros((4, 3)))
    assert calls == [25, 100]


@pytest.mark.parametrize(
    "step, rows",
    [
        (lambda s, b: cbf_filter(s, 0.3, b, FilterConfig(query_mode="model_free")), 25 + 26),
        (lambda s, b: lr_filter(s, 0.3, b), 25 + 1),
    ],
    ids=["cbf_model_free", "lr"],
)
def test_grid_filter_step_makes_one_q_call(grid_backend, monkeypatch, step, rows):
    # The greedy fallback, the nominal action and every candidate share one
    # table query.
    calls = []
    inner = filters.q_from_value
    monkeypatch.setattr(filters, "q_from_value", lambda *args: calls.append(len(args[2])) or inner(*args))
    step(np.array([-0.7, -0.2, 0.4]), grid_backend)
    assert calls == [rows]


def test_grid_anchored_q_matches_its_parts(grid_backend):
    state = np.array([0.4, -0.9, 2.5])
    acts = np.array([-1.9, 0.05, 1.3])
    a_fb, q, q_fb = grid_backend.anchored_q(state, acts)
    assert a_fb.tolist() == [grid_backend.fallback_action(state)]
    assert q_fb.tolist() == grid_backend.anchored_q(state)[2].tolist()
    assert np.array_equal(q, grid_backend.q_values(state, acts)[None, :])


def test_grid_anchored_q_batch_matches_single_states(grid_backend):
    states = sample_box_states(np.random.default_rng(12), 300)
    acts = np.array([-1.9, 0.05, 1.3])
    a_fb, q, q_fb = grid_backend.anchored_q(states, acts)
    assert a_fb.shape == q_fb.shape == (300,) and q.shape == (300, 3)
    single = [grid_backend.anchored_q(s, acts) for s in states]
    assert np.array_equal(a_fb, np.concatenate([a for a, _, _ in single]))
    assert np.array_equal(q, np.vstack([row for _, row, _ in single]))
    assert np.array_equal(q_fb, np.concatenate([f for _, _, f in single]))


def test_grid_anchored_q_ties_pick_first_maximizer():
    # Constant fields give every action the same backup, so the greedy
    # action is the first of the (unsorted) action set at every state.
    spec = GridSpec(nx=5, ny=5, ntheta=4)
    margin = GridField(spec, np.full((5, 5, 4), 0.3), "margin")
    value = GridField(spec, np.full((5, 5, 4), 0.8), "value")
    backend = GridBackend(value, margin, actions=np.array([0.5, -1.0, 2.0, -2.0]), gamma=0.995, dt=0.1)
    states = sample_box_states(np.random.default_rng(2), 50)
    a_fb, q, q_fb = backend.anchored_q(states, [1.5])
    assert a_fb.tolist() == [0.5] * 50
    assert np.array_equal(q[:, 0], q_fb)
    assert [backend.fallback_action(s) for s in states] == [0.5] * 50
    assert [backend.anchored_q(s)[0].tolist() for s in states] == [[0.5]] * 50


def test_critic_anchored_q_batch_matches_single_states():
    backend = CriticBackend(*_small_nets(seed=13), dt=0.1)
    states = sample_box_states(np.random.default_rng(14), 300)
    acts = np.array([-1.9, 0.05, 1.3])
    a_fb, q, q_fb = backend.anchored_q(states, acts)
    assert a_fb.shape == q_fb.shape == (300,) and q.shape == (300, 3)
    # One actor pass over the states and one critic pass over the same
    # (state, action) rows, built by hand, give the same bits.
    want_fb = 2.0 * mlp_forward(backend.actor, states)[:, 0]
    rows_a = np.column_stack([np.tile(acts, (300, 1)), want_fb]).reshape(-1, 1)
    want = mlp_forward(backend.critic, np.hstack([np.repeat(states, 4, axis=0), rows_a]))[:, 0].reshape(300, 4)
    assert np.array_equal(a_fb, want_fb)
    assert np.array_equal(q, want[:, :3]) and np.array_equal(q_fb, want[:, 3])
    # Single-state calls run the BLAS products at other row counts, whose
    # kernels round the last bit differently.
    single = [backend.anchored_q(s, acts) for s in states]
    tol = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(a_fb, np.concatenate([a for a, _, _ in single]), **tol)
    np.testing.assert_allclose(q, np.vstack([row for _, row, _ in single]), **tol)
    np.testing.assert_allclose(q_fb, np.concatenate([f for _, _, f in single]), **tol)


def test_grid_backend_rejects_swapped_fields(solved_grid):
    margin, value = solved_grid
    with pytest.raises(ValueError):
        GridBackend(margin, value, actions=equispaced_actions(25), gamma=0.995, dt=0.1)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"gamma": 1.7}, "gamma"),
        ({"gamma": -0.1}, "gamma"),
        ({"gamma": float("nan")}, "gamma"),
        ({"dt": 0.0}, "dt"),
        ({"dt": -0.1}, "dt"),
        ({"dt": float("nan")}, "dt"),
        ({"actions": np.array([0.0, 2.5])}, "actions"),
        ({"actions": np.array([0.0, np.nan])}, "actions"),
        ({"actions": np.zeros((2, 2))}, "actions"),
        ({"actions": np.array([])}, "actions"),
    ],
)
def test_grid_backend_refuses_bad_parameters(solved_grid, changes, message):
    margin, value = solved_grid
    kwargs = {"actions": equispaced_actions(25), "gamma": 0.995, "dt": 0.1, **changes}
    with pytest.raises(ValueError, match=message):
        GridBackend(value, margin, **kwargs)


def test_grid_backend_refuses_mismatched_fields(solved_grid):
    margin, value = solved_grid
    coarse = GridField(GridSpec(11, 11, 6), np.zeros((11, 11, 6)), kind="value")
    with pytest.raises(ValueError, match="GridSpec"):
        GridBackend(coarse, margin, actions=equispaced_actions(25), gamma=0.995, dt=0.1)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_critic_backend_refuses_bad_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        CriticBackend(*_small_nets(), dt=dt)


# ------------------------------------------------------------------ filters


def test_cbf_filter_keeps_feasible_nominal():
    backend = StubBackend(lambda s, a: np.full_like(a, 0.9), fallback=-1.3)
    cfg = FilterConfig(alpha=0.9, epsilon=0.2)
    decision = cbf_filter(np.zeros(3), 0.41, backend, cfg)
    assert decision.action == 0.41
    assert decision.delta_a == 0.0
    assert not decision.overridden
    assert decision.feasible_count == 27


def test_cbf_filter_empty_set_falls_back():
    backend = StubBackend(lambda s, a: np.full_like(a, -1.0), fallback=-1.3)
    cfg = FilterConfig(alpha=0.5, epsilon=0.2)
    decision = cbf_filter(np.zeros(3), 0.8, backend, cfg)
    assert decision.feasible_count == 0
    assert decision.action == -1.3
    assert decision.overridden
    assert decision.delta_a == pytest.approx(2.1)


def test_cbf_filter_handcrafted_q_exhaustive():
    # Q(z, a) = -|a| + 0.5, eps = 0.2, alpha = 0.5, fallback 0:
    # feasibility needs -|a| + 0.3 >= 0.5 * 0.3, i.e. |a| <= 0.15.
    backend = StubBackend(lambda s, a: -np.abs(a) + 0.5, fallback=0.0)
    cfg = FilterConfig(alpha=0.5, epsilon=0.2)
    decision = cbf_filter(np.zeros(3), 0.9, backend, cfg)

    samples = sample_actions(cfg.sampler, 0.9, 0.0)
    q = backend.q_values(np.zeros(3), samples)
    brute_mask = (q - cfg.epsilon) >= cfg.alpha * (q[-1] - cfg.epsilon)
    assert np.array_equal(np.sort(decision.feasible.actions), np.sort(samples[brute_mask]))
    assert decision.feasible_count == int(brute_mask.sum()) == 2  # grid zero + fallback zero
    brute_best = samples[brute_mask][np.argmin(np.abs(samples[brute_mask] - 0.9))]
    assert decision.action == brute_best == 0.0
    assert decision.q_nominal == pytest.approx(-0.4)
    assert decision.q_fallback == pytest.approx(0.5)
    assert decision.overridden and decision.delta_a == pytest.approx(0.9)


def test_cbf_filter_tie_break_lowest_index():
    # Only the interval endpoints are feasible (exactly representable, so
    # nominal 0 is equidistant in exact floats); the earliest sample wins:
    # -2.0 at index 0 beats +2.0 at index 24 and the fallback copy at 26.
    def q_fn(state, actions):
        return np.where(np.abs(actions) == 2.0, 1.0, -1.0)

    backend = StubBackend(q_fn, fallback=-2.0)
    cfg = FilterConfig(alpha=0.0, epsilon=0.2)
    decision = cbf_filter(np.zeros(3), 0.0, backend, cfg)
    assert decision.feasible_count == 3
    assert decision.action == -2.0


def test_cbf_filter_fallback_always_feasible_when_safe():
    rng = np.random.default_rng(11)
    for _ in range(50):
        table = rng.uniform(-1.0, 1.0, size=27)
        table[-1] = rng.uniform(0.2, 1.0)  # fallback anchor comfortably safe

        def q_fn(state, actions, table=table):
            return table[: actions.size]

        backend = StubBackend(q_fn, fallback=-1.5)
        cfg = FilterConfig(alpha=float(rng.uniform(0.0, 0.99)), epsilon=0.2)
        decision = cbf_filter(np.zeros(3), float(rng.uniform(-2.0, 2.0)), backend, cfg)
        assert decision.feasible_count >= 1


def test_cbf_filter_feasible_set_members_satisfy_constraint(grid_backend):
    cfg = FilterConfig(alpha=0.85, epsilon=0.2, gamma=0.995)
    rng = np.random.default_rng(5)
    for _ in range(10):
        state = np.array([rng.uniform(-1.2, 0.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        decision = cbf_filter(state, float(rng.uniform(-2.0, 2.0)), grid_backend, cfg)
        if decision.feasible_count:
            assert np.all(cbf_constraint_check(decision.feasible.q_values, decision.q_fallback, cfg))


def test_sub_threshold_move_is_not_an_override():
    # The nominal 5e-10 is infeasible and the sampler point 0.0 next to it
    # is feasible: the executed action moves by less than the threshold every
    # reported override count uses, so the step is not an override.
    a_nom = 5e-10

    def q_fn(state, actions):
        return np.where(actions == a_nom, -1.0, 0.9)

    decision = cbf_filter(np.zeros(3), a_nom, StubBackend(q_fn, fallback=1.5), FilterConfig(alpha=0.5, epsilon=0.2))
    assert decision.action == 0.0 and decision.delta_a == a_nom
    assert decision.delta_a < OVERRIDE_THRESHOLD
    assert not decision.overridden

    switch = lr_filter(np.zeros(3), a_nom, StubBackend(q_fn, fallback=0.0))
    assert switch.action == 0.0 and switch.feasible_count == 0
    assert not switch.overridden


def test_lr_filter_threshold_cases():
    def q_fn_for(value):
        return lambda s, a: np.where(a == 0.77, value, 0.6)

    cfg_eps = 0.2
    keep = lr_filter(np.zeros(3), 0.77, StubBackend(q_fn_for(0.3), fallback=-1.0), cfg_eps)
    assert keep.action == 0.77 and not keep.overridden and keep.feasible_count == 1

    drop = lr_filter(np.zeros(3), 0.77, StubBackend(q_fn_for(0.1), fallback=-1.0), cfg_eps)
    assert drop.action == -1.0 and drop.overridden and drop.feasible_count == 0
    assert drop.delta_a == pytest.approx(1.77)

    boundary = lr_filter(np.zeros(3), 0.77, StubBackend(q_fn_for(0.2), fallback=-1.0), cfg_eps)
    assert boundary.action == 0.77  # >= is inclusive

    with pytest.raises(ValueError):
        lr_filter(np.zeros(3), 0.0, StubBackend(q_fn_for(0.3)), 0.0)


def test_filtered_rollouts_stay_safe_on_grid(grid_backend):
    # From confidently safe starts, the grid-backed filter must keep every
    # rollout out of the failure circles.
    cfg = FilterConfig(alpha=0.85, epsilon=0.2, gamma=0.995)
    pol_cfg = NominalPolicyConfig(mode="obstacle_blind")
    policy = lambda s: nominal_policy(s, pol_cfg)
    action_filter = lambda s, a: cbf_filter(s, a, grid_backend, cfg)

    rng = np.random.default_rng(0)
    starts = sample_initial_states(rng, 300)
    safe_starts = [s for s in starts if interpolate(grid_backend.value, s) > 0.25][:100]
    assert len(safe_starts) == 100
    collisions = 0
    overrides = 0
    for s in safe_starts:
        rec = rollout(policy, s, 60, action_filter=action_filter, dt=0.1)
        collisions += int(rec.collided)
        overrides += int(np.any(rec.override_magnitudes > 1e-9))
    assert collisions == 0
    assert overrides > 0  # the nominal policy alone does hit the circles


def test_cbf_filter_records_diagnostics_in_rollout(grid_backend):
    cfg = FilterConfig(alpha=0.85, epsilon=0.2, gamma=0.995)
    pol_cfg = NominalPolicyConfig(mode="obstacle_blind")
    rec = rollout(
        lambda s: nominal_policy(s, pol_cfg),
        np.array([-1.2, 0.1, 0.0]),
        20,
        action_filter=lambda s, a: cbf_filter(s, a, grid_backend, cfg),
        dt=0.1,
    )
    for key in ("feasible_count", "q_nominal", "q_fallback"):
        assert key in rec.diagnostics
        assert rec.diagnostics[key].shape == (rec.n_steps,)


def test_cbf_filter_rejects_vector_nominal():
    backend = StubBackend(lambda s, a: np.zeros_like(a), fallback=0.0)
    with pytest.raises((TypeError, ValueError)):
        cbf_filter(np.zeros(3), np.array([0.1, 0.2]), backend, FilterConfig())


# ------------------------------------------- equivalence with two queries


@pytest.fixture(scope="module")
def visited(grid_backend):
    """(state, nominal action) pairs visited by grid cbf rollouts."""
    cfg = FilterConfig(alpha=0.85, epsilon=0.2, gamma=0.995)
    pol_cfg = NominalPolicyConfig(mode="obstacle_blind")
    starts = sample_initial_states(np.random.default_rng(21), 6)
    pairs = []
    for s in starts:
        rec = rollout(
            lambda z: nominal_policy(z, pol_cfg),
            s,
            40,
            action_filter=lambda z, a: cbf_filter(z, a, grid_backend, cfg),
            dt=0.1,
        )
        pairs += [(rec.states[t], float(rec.actions_nominal[t])) for t in range(rec.n_steps)]
    return pairs


def _assert_same_decision(got, want):
    for name in ("action", "overridden", "delta_a", "feasible_count", "q_nominal", "q_fallback"):
        assert getattr(got, name) == getattr(want, name), name
    if want.feasible is None:
        assert got.feasible is None
    else:
        assert np.array_equal(got.feasible.actions, want.feasible.actions)
        assert np.array_equal(got.feasible.q_values, want.feasible.q_values)


@pytest.mark.parametrize("backend_name", ["grid", "critic"])
def test_filters_match_two_query_oracle(grid_backend, visited, backend_name):
    backend = grid_backend if backend_name == "grid" else CriticBackend(*_small_nets(seed=9), dt=0.1)
    assert len(visited) >= 100
    # Then 500 states drawn over the whole box, with uniform nominal actions.
    rng = np.random.default_rng(31)
    box = list(zip(sample_box_states(rng, 500), rng.uniform(-2.0, 2.0, 500).tolist()))
    cfgs = [FilterConfig(query_mode=mode, gamma=0.995) for mode in ("model_free", "model_based")]
    for pairs in (visited, box):
        kept = 0
        for state, a_nom in pairs:
            for cfg in cfgs:
                want = two_query_cbf_filter(state, a_nom, backend, cfg)
                _assert_same_decision(cbf_filter(state, a_nom, backend, cfg), want)
            # Two thresholds, so both backends take both lr branches.
            for eps in (0.05, 0.3):
                decision = lr_filter(state, a_nom, backend, eps)
                _assert_same_decision(decision, two_query_lr_filter(state, a_nom, backend, eps))
                kept += decision.feasible_count
        assert 0 < kept < 2 * len(pairs)
