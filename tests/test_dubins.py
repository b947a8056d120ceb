"""Dynamics, margin, policy, and rollout checks for the Dubins testbed."""

import numpy as np
import pytest

from cbfforge.dubins import (
    ACTION_BOUND,
    FAILURE_CIRCLES,
    NominalPolicyConfig,
    dynamics_step,
    dynamics_step_batch,
    estimate_dynamics_lipschitz,
    nominal_policy,
    rollout,
    sample_box_states,
    sample_initial_states,
    save_trajectory_csv,
    signed_distance_margin,
    state_distance,
    wrap_angle,
)
from cbfforge.filters import FilterDecision
from oracles import reference_dynamics_step_batch


def euler_reference(state, action, dt, n_sub=20000):
    """Densely sub-stepped Euler integration of the unclamped dynamics."""
    x, y, theta = map(float, state)
    h = dt / n_sub
    for _ in range(n_sub):
        x += h * np.cos(theta)
        y += h * np.sin(theta)
        theta += h * action
    return np.array([x, y, theta])


class TestDynamics:
    def test_straight_line_is_exact(self):
        np.testing.assert_allclose(dynamics_step(np.zeros(3), 0.0, 0.1), [0.1, 0.0, 0.0], atol=1e-15)

    def test_heading_pi_moves_backward(self):
        out = dynamics_step(np.array([0.0, 0.0, np.pi]), 0.0, 0.1)
        np.testing.assert_allclose(out[:2], [-0.1, 0.0], atol=1e-15)
        assert -np.pi <= out[2] < np.pi

    def test_turning_matches_circular_arc(self):
        # Closed form for constant turn rate a from the origin heading +x:
        # (sin(a dt)/a, (1 - cos(a dt))/a, a dt).
        out = dynamics_step(np.zeros(3), 2.0, 0.1)
        expected = [np.sin(0.2) / 2.0, (1.0 - np.cos(0.2)) / 2.0, 0.2]
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_matches_substepped_euler(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-np.pi, np.pi)])
            a = rng.uniform(-2, 2)
            got = dynamics_step(s, a, 0.1)
            ref = euler_reference(s, a, 0.1)
            np.testing.assert_allclose(got[:2], ref[:2], atol=2e-6)
            assert abs(wrap_angle(got[2] - ref[2])) < 1e-10

    def test_positions_clamped(self):
        out = dynamics_step(np.array([1.45, 0.0, 0.0]), 0.0, 0.1)
        assert out[0] == 1.5

    def test_theta_wrapped(self):
        out = dynamics_step(np.array([0.0, 0.0, np.pi - 0.05]), 2.0, 0.1)
        assert -np.pi <= out[2] < np.pi

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        states = rng.uniform(-1, 1, size=(6, 3))
        actions = rng.uniform(-2, 2, size=6)
        batched = dynamics_step_batch(states, actions, 0.1)
        for i in range(6):
            np.testing.assert_allclose(batched[i], dynamics_step(states[i], actions[i], 0.1), rtol=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dynamics_step(np.array([np.nan, 0.0, 0.0]), 0.0, 0.1)
        with pytest.raises(ValueError):
            dynamics_step(np.zeros(3), 2.5, 0.1)
        with pytest.raises(ValueError):
            dynamics_step(np.zeros(3), 0.0, dt=-0.1)

    def test_dynamics_step_matches_reference(self):
        # Inside and outside the box, |theta| beyond pi, actions on the bound
        # and at its slack, per-state and scalar actions, and n = 1.
        rng = np.random.default_rng(24)
        n = 100_000
        states = rng.uniform([-2.5, -2.5, -4.0 * np.pi], [2.5, 2.5, 4.0 * np.pi], (n, 3))
        actions = rng.uniform(-ACTION_BOUND, ACTION_BOUND, n)
        actions[:4] = [ACTION_BOUND, -ACTION_BOUND, ACTION_BOUND + 1e-12, -ACTION_BOUND - 1e-12]
        for dt in (0.1, 0.05):
            ref = reference_dynamics_step_batch(states, actions, dt)
            assert np.array_equal(dynamics_step_batch(states, actions, dt), ref)
        for a in (0.7, ACTION_BOUND, -ACTION_BOUND - 1e-12):
            assert np.array_equal(dynamics_step_batch(states, a, 0.1), reference_dynamics_step_batch(states, a, 0.1))
        for s, a in zip(states[:200], actions[:200]):
            ref = reference_dynamics_step_batch(s[None, :], a, 0.1)
            assert np.array_equal(dynamics_step_batch(s[None, :], [a], 0.1), ref)
            assert np.array_equal(dynamics_step(s, a, 0.1), ref[0])

    @pytest.mark.parametrize(
        "state, action, dt",
        [
            ([np.nan, 0.0, 0.0], 0.0, 0.1),
            ([0.0, np.inf, 0.0], 0.0, 0.1),
            ([0.0, 0.0, 0.0], np.nan, 0.1),
            ([0.0, 0.0, 0.0], -np.inf, 0.1),
            ([0.0, 0.0, 0.0], ACTION_BOUND + 2e-12, 0.1),
            ([0.0, 0.0, 0.0], -2.5, 0.1),
            ([0.0, 0.0, 0.0], 0.0, 0.0),
            ([0.0, 0.0, 0.0], 0.0, -0.1),
        ],
    )
    def test_errors_match_reference(self, state, action, dt):
        with pytest.raises(ValueError) as ref:
            reference_dynamics_step_batch(np.array([state]), action, dt)
        with pytest.raises(ValueError) as got:
            dynamics_step_batch(np.array([state]), action, dt)
        assert str(got.value) == str(ref.value)


class TestMargin:
    def test_circle_center(self):
        assert signed_distance_margin(np.array([0.25, 0.65, 1.0])) == pytest.approx(-0.5)

    def test_on_boundary(self):
        assert signed_distance_margin(np.array([0.25, 0.15, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_far_corner(self):
        expected = np.hypot(1.75, 0.65) - 0.5
        assert signed_distance_margin(np.array([-1.5, 0.0, 0.0])) == pytest.approx(expected)
        assert expected == pytest.approx(1.3668, abs=5e-4)

    def test_sign_iff_inside_on_grid(self):
        xs = np.linspace(-1.5, 1.5, 201)
        ys = np.linspace(-1.5, 1.5, 201)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
        margins = signed_distance_margin(pts)
        inside = np.zeros(pts.shape[0], dtype=bool)
        for cx, cy, r in FAILURE_CIRCLES:
            inside |= np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < r
        np.testing.assert_array_equal(margins < 0, inside)

    def test_margin_is_1_lipschitz_in_position(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1.5, 1.5, size=(500, 3))
        b = rng.uniform(-1.5, 1.5, size=(500, 3))
        gap = np.abs(signed_distance_margin(a) - signed_distance_margin(b))
        dist = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        assert np.all(gap <= dist + 1e-12)


class TestNominalPolicy:
    def test_heading_at_goal_gives_zero(self):
        cfg = NominalPolicyConfig(goal_x=1.3, goal_y=0.0, gain=2.0)
        assert nominal_policy(np.array([-1.0, 0.0, 0.0]), cfg) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_heading_saturates(self):
        cfg = NominalPolicyConfig(goal_x=1.3, goal_y=0.0, gain=2.0)
        assert nominal_policy(np.array([-1.0, 0.0, np.pi / 2]), cfg) == pytest.approx(-2.0)

    def test_noise_requires_rng(self):
        cfg = NominalPolicyConfig(noise_std=0.5)
        a1 = nominal_policy(np.array([-1.0, 0.5, 0.0]), cfg)
        a2 = nominal_policy(np.array([-1.0, 0.5, 0.0]), cfg)
        assert a1 == a2  # deterministic without a generator
        rng = np.random.default_rng(0)
        a3 = nominal_policy(np.array([-1.0, 0.5, 0.0]), cfg, rng=rng)
        assert a3 != a1

    def test_obstacle_aware_steers_away(self):
        # Grazing the lower-left of the upper circle while heading at the
        # goal: the aware mode must turn harder away (toward negative y).
        state = np.array([-0.3, 0.55, 0.0])
        blind = nominal_policy(state, NominalPolicyConfig(mode="obstacle_blind"))
        aware = nominal_policy(state, NominalPolicyConfig(mode="obstacle_aware"))
        assert aware < blind

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            NominalPolicyConfig(gain=0.0)
        with pytest.raises(ValueError):
            NominalPolicyConfig(mode="psychic")


class TestRollout:
    def test_single_step_record(self):
        rec = rollout(lambda s: 0.0, np.zeros(3), 1, None, 0.1)
        assert rec.states.shape == (2, 3)
        np.testing.assert_allclose(rec.states[1], [0.1, 0.0, 0.0], atol=1e-15)
        assert not rec.collided
        assert rec.n_steps == 1

    def test_start_inside_failure(self):
        rec = rollout(lambda s: 0.0, np.array([0.25, 0.65, 0.0]), 10, None, 0.1)
        assert rec.collided
        assert rec.n_steps == 0
        assert rec.states.shape == (1, 3)

    def test_stops_at_collision(self):
        # Drive straight into the upper circle from the left.
        x0 = np.array([-0.6, 0.65, 0.0])
        rec = rollout(lambda s: 0.0, x0, 60, None, 0.1)
        assert rec.collided
        assert rec.n_steps < 60
        assert rec.margin_values[-1] < 0
        assert np.all(rec.margin_values[:-1] >= 0)

    def test_pass_through_filter_matches_unfiltered(self):
        x0 = np.array([-1.2, 0.3, 0.1])
        cfg = NominalPolicyConfig()
        plain = rollout(lambda s: nominal_policy(s, cfg), x0, 30, None, 0.1)
        keep = lambda s, a: FilterDecision(
            action=a, overridden=False, delta_a=0.0, feasible_count=1, q_nominal=0.5, q_fallback=0.5
        )
        filtered = rollout(lambda s: nominal_policy(s, cfg), x0, 30, action_filter=keep, dt=0.1)
        np.testing.assert_array_equal(plain.states, filtered.states)
        assert np.all(filtered.override_magnitudes == 0.0)
        assert np.all(filtered.diagnostics["feasible_count"] == 1)

    def test_trajectory_csv(self, tmp_path):
        rec = rollout(lambda s: 0.5, np.array([-1.2, -0.8, 0.0]), 5, None, 0.1)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(rec, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,theta,a_nom,a_exec,margin,overridden"
        assert len(lines) == 1 + rec.n_steps
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-1.2)

    def test_box_sampler_matches_scalar_draws(self):
        # One row at a time, the sampler consumes the stream exactly as
        # three scalar draws of x, y and theta do.
        scalar, batched = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(1000):
            want = [scalar.uniform(-1.5, 1.5), scalar.uniform(-1.5, 1.5), scalar.uniform(-np.pi, np.pi)]
            assert sample_box_states(batched, 1)[0].tolist() == want
        assert scalar.bit_generator.state == batched.bit_generator.state
        states = sample_box_states(batched, 500)
        assert states.shape == (500, 3)
        assert np.all(np.abs(states[:, :2]) <= 1.5) and np.all(np.abs(states[:, 2]) <= np.pi)

    def test_initial_state_box(self):
        rng = np.random.default_rng(3)
        states = sample_initial_states(rng, 200)
        assert np.all((states[:, 0] >= -1.5) & (states[:, 0] <= -1.0))
        assert np.all(np.abs(states[:, 1]) <= 1.0)
        assert np.all(np.abs(states[:, 2]) <= np.pi / 3)


class TestLipschitz:
    def test_identity_dynamics(self, monkeypatch):
        monkeypatch.setattr("cbfforge.dubins.dynamics_step_batch", lambda s, a, dt: s)
        lf = estimate_dynamics_lipschitz(n_samples=200, dt=0.1, seed=0)
        assert lf == pytest.approx(1.0, rel=1e-6)

    def test_pure_rotation_is_isometry(self, monkeypatch):
        def rot(s, a, dt):
            out = s.copy()
            out[:, 2] = wrap_angle(out[:, 2] + a * dt)
            return out

        monkeypatch.setattr("cbfforge.dubins.dynamics_step_batch", rot)
        lf = estimate_dynamics_lipschitz(n_samples=200, dt=0.1, seed=0)
        assert lf == pytest.approx(1.0, rel=1e-6)

    def test_dubins_reference_value(self):
        # Frozen seed-0 estimate; the true operator norm at dt=0.1 is about
        # 1.05, and the sampler should land within [1.0, 1.1].
        lf = estimate_dynamics_lipschitz(n_samples=1000, seed=0, dt=0.1)
        assert 1.0 < lf < 1.1

    @pytest.mark.parametrize("seed, dt", [(0, 0.1), (1, 0.1), (2, 0.05)])
    def test_batch_matches_per_sample_loop(self, seed, dt):
        # The same draws, stepped one sample at a time.
        rng = np.random.default_rng(seed)
        states = sample_box_states(rng, 500)
        actions = rng.uniform(-ACTION_BOUND, ACTION_BOUND, size=500)
        dirs = rng.standard_normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        worst = 0.0
        for s, a, d in zip(states, actions, dirs):
            s_pert = s + 1e-4 * d
            s_pert[2] = wrap_angle(s_pert[2])
            worst = max(worst, float(state_distance(dynamics_step(s_pert, a, dt), dynamics_step(s, a, dt))) / 1e-4)
        assert estimate_dynamics_lipschitz(dt=dt, n_samples=500, seed=seed) == worst

    def test_wrap_angle_range(self):
        thetas = np.linspace(-10, 10, 2001)
        wrapped = wrap_angle(thetas)
        assert np.all((wrapped >= -np.pi) & (wrapped < np.pi))
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)

    def test_state_distance_geodesic(self):
        a = np.array([0.0, 0.0, np.pi - 0.05])
        b = np.array([0.0, 0.0, -np.pi + 0.05])
        assert state_distance(a, b) == pytest.approx(0.1, abs=1e-12)
