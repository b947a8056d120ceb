"""Acceptance gate: ten end-to-end checks at reference scales.

Each test pins one headline property of the package: derivative
correctness, solver-vs-enumeration agreement, fixed-point structure, the
margin-to-value smoothness bound, gradient-penalty margin quality, filter
safety and override economy, the mixed-buffer critic advantage, exact
filter unit behavior, batched-query throughput, and CLI determinism.
Stated runtime budgets are asserted alongside the numeric tolerances.
"""

import os
import time

import numpy as np
import pytest

from cbfforge.cli import main as cli_main
from cbfforge.config import load_config
from cbfforge.dubins import dynamics_step, equispaced_actions, signed_distance_margin
from cbfforge.experiments import run_experiment, throughput_benchmark
from cbfforge.filters import (
    CriticBackend,
    FilterConfig,
    cbf_constraint_check,
    cbf_filter,
)
from cbfforge.hj import (
    GridSpec,
    interpolate,
    margin_field,
    q_from_value,
    value_iteration,
)
from cbfforge.nets import (
    input_gradient,
    mlp_forward,
    mlp_init,
    param_gradient,
    penalty_param_gradient,
)
from oracles import (
    brute_force_avoid_oracle,
    fd_input_gradient,
    fd_param_gradient,
    flat_grads,
    penalty_values,
    relative_error,
)

# Shared evaluation setting: the goal sits on the far boundary so the
# nominal controller parks there instead of orbiting back through the
# obstacles, and the narrow sign hinge keeps both margin nets accurate.
EVAL = {"nominal_goal_x": 1.5, "sign_delta": 0.25}


def _run(tmp_path_factory, name, **overrides):
    out = tmp_path_factory.mktemp(name)
    cfg = load_config(None, {"output_dir": str(out), **EVAL, **overrides})
    table = run_experiment(cfg)
    return cfg, table, str(out)


@pytest.fixture(scope="session")
def reference_grid():
    spec = GridSpec(nx=31, ny=31, ntheta=15)
    margin = margin_field(spec, signed_distance_margin)
    sol = value_iteration(margin, equispaced_actions(25), gamma=0.995, dt=0.1, tol=1e-6)
    assert sol.converged
    return margin, sol.field


# 1 ------------------------------------------------------------- gradients


def test_gradients_match_finite_differences_on_random_nets():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    def loss(outputs):
        n = outputs.shape[0]
        return float(np.mean(outputs**2)), (2.0 / n) * outputs

    for trial in range(100):
        width = int(rng.integers(3, 8))
        depth = int(rng.integers(1, 3))
        dims = [3, *([width] * depth), 1]
        hidden = ["relu", "silu"][int(rng.integers(2))]
        output = ["identity", "tanh"][int(rng.integers(2))]
        net = mlp_init(dims, hidden, output, seed=int(rng.integers(1 << 30)))
        xs = rng.uniform(-1.0, 1.0, size=(3, 3))

        _, grads = param_gradient(net, xs, loss)
        fd = fd_param_gradient(net, lambda n: loss(mlp_forward(n, xs))[0])
        assert relative_error(flat_grads(grads), flat_grads(fd)) < 1e-4

        if hidden == "silu":  # smooth net: the input derivative is exact too
            g = input_gradient(net, xs)[1]
            for row, x in zip(g, xs):
                g_fd = fd_input_gradient(lambda z: float(mlp_forward(net, z)[0]), x)
                assert relative_error(row, g_fd) < 1e-4

        if trial % 4 == 0 and hidden == "silu" and output == "identity":
            beta = float(rng.uniform(0.05, 1.0))
            _, pgrads = penalty_param_gradient(net, xs, beta)
            pfd = fd_param_gradient(
                net, lambda n: float(np.mean(penalty_values(n, xs, beta))), h=1e-5
            )
            assert relative_error(flat_grads(pgrads), flat_grads(pfd)) < 1e-3

    assert time.perf_counter() - start < 60.0


# 2 ------------------------------------------------- solver vs enumeration


def test_finite_horizon_grid_sign_matches_exhaustive_enumeration():
    start = time.perf_counter()
    spec = GridSpec(nx=31, ny=31, ntheta=15)
    margin = margin_field(spec, signed_distance_margin)
    actions3 = np.array([-2.0, 0.0, 2.0])
    sol = value_iteration(margin, actions3, gamma=1.0, dt=0.1, tol=1e-12, max_iters=6)
    assert sol.sweeps == 6

    rng = np.random.default_rng(11)
    checked = agree = 0
    while checked < 200:
        s = np.array([
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-np.pi, np.pi),
        ])
        oracle = brute_force_avoid_oracle(s, signed_distance_margin, actions3, horizon=6)
        if abs(oracle) <= 0.15:  # grid-resolution band around the zero level
            continue
        checked += 1
        agree += int(np.sign(oracle) == np.sign(interpolate(sol.field, s)))
    assert agree == 200  # 729 sequences per state, exact sign agreement
    assert time.perf_counter() - start < 300.0


# 3 --------------------------------------------------- fixed-point structure


def test_converged_field_fixed_point_properties(reference_grid):
    margin, value = reference_grid
    assert np.all(value.values <= margin.values + 1e-12)

    nodes = value.spec.nodes()
    best = np.full(nodes.shape[0], -np.inf)
    for a in equispaced_actions(25):
        best = np.maximum(best, q_from_value(value, margin, nodes, a, 0.995, 0.1))
    residual = np.max(np.abs(best - value.values.ravel()))

    rng = np.random.default_rng(3)
    probes = np.column_stack([
        rng.uniform(-1.5, 1.5, 2000), rng.uniform(-1.5, 1.5, 2000), rng.uniform(-np.pi, np.pi, 2000),
    ])
    interp_err = np.max(np.abs(interpolate(margin, probes) - signed_distance_margin(probes)))
    assert residual <= 2.0 * interp_err


# 4 ------------------------------------------------ value smoothness bound


def test_value_lipschitz_bound_holds_for_all_margin_shapes(tmp_path_factory):
    start = time.perf_counter()
    _, _, out = _run(tmp_path_factory, "bound", experiment="lipschitz_bound")
    lines = open(os.path.join(out, "bound_report.csv")).read().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"exact", "gp", "sat"}
    for cells in rows.values():
        assert cells[5] == "true"
        assert float(cells[3]) <= float(cells[4]) * 1.05  # L_V within the bound
    # a saturating margin inflates the value function's constant well past
    # the gradient-penalty margin's
    assert float(rows["sat"][3]) > float(rows["gp"][3])
    assert time.perf_counter() - start < 3 * 600.0


# 5 ----------------------------------------------------- margin smoothness


def test_gradient_penalty_halves_margin_roughness_at_matched_f1(tmp_path_factory):
    start = time.perf_counter()
    _, table, _ = _run(tmp_path_factory, "marginq", experiment="margin_quality")
    gp, nogp = table.rows
    assert gp.margin_mode == "gp" and nogp.margin_mode == "nogp"
    assert gp.f1 >= 0.95
    assert nogp.f1 >= 0.95
    assert gp.max_step_delta_mean <= 0.5 * nogp.max_step_delta_mean
    assert time.perf_counter() - start < 1200.0


# 6 ------------------------------------------------------ filter comparison


def test_filters_restore_safety_with_smaller_cbf_overrides(tmp_path_factory):
    start = time.perf_counter()
    _, table, _ = _run(
        tmp_path_factory, "filtercmp",
        experiment="filter_comparison", margin_mode="gp", gp_beta=1.0,
        grid_nx=41, grid_ny=41, grid_ntheta=21, vi_tol=1e-5,
    )
    none, lr, cbf = table.rows
    assert 0.30 <= none.safety_rate <= 0.60
    assert lr.safety_rate >= 0.95
    assert cbf.safety_rate >= 0.95
    assert cbf.avg_override <= 0.75 * lr.avg_override
    assert time.perf_counter() - start < 900.0


# 7 --------------------------------------------------- mixed replay buffer


def test_mixed_buffer_improves_critic_on_nominal_actions(tmp_path_factory):
    start = time.perf_counter()
    _, _, out = _run(
        tmp_path_factory, "mix",
        experiment="mix_ablation",
        grid_nx=41, grid_ny=41, grid_ntheta=21, vi_tol=1e-5,
        rl_iterations=6000, rl_batch_size=256, rl_buffer_capacity=50000,
        rl_actor_dims=(64, 64), rl_critic_dims=(64, 64),
    )
    lines = open(os.path.join(out, "mix_report.csv")).read().splitlines()
    mae = {tuple(ln.split(",")[:2]): float(ln.split(",")[2]) for ln in lines[1:]}
    mixed = mae[("critic_mixed", "nominal_policy")]
    fallback_only = mae[("critic_fallback_only", "nominal_policy")]
    assert mixed <= 0.8 * fallback_only
    assert time.perf_counter() - start < 2700.0


# 8 ---------------------------------------------------- exact filter units


class _TableBackend:
    """Analytic Q(z, a) source for exact filter arithmetic."""

    def __init__(self, q_fn, fallback=0.0):
        self.q_fn = q_fn
        self.fallback = float(fallback)

    def q_values(self, state, actions):
        actions = np.atleast_1d(np.asarray(actions, dtype=float))
        return self.q_fn(np.asarray(state, dtype=float), actions)

    def fallback_action(self, state):
        return self.fallback

    def anchored_q(self, states, actions=()):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        q = np.stack([self.q_values(s, np.append(actions, self.fallback)) for s in states])
        return np.full(states.shape[0], self.fallback), q[:, :-1], q[:, -1]

    def step(self, state, action):
        return dynamics_step(state, action, 0.1)


def test_filter_unit_properties_are_exact():
    rng = np.random.default_rng(7)
    state = np.zeros(3)
    cfg = FilterConfig()
    n_candidates = cfg.sampler.n + 2
    idempotent = fallbacks = 0

    for _ in range(1000):
        table = rng.uniform(-1.0, 1.0, size=n_candidates)
        table[-1] = rng.uniform(0.0, 1.0)  # fallback anchor
        a_nom = float(rng.uniform(-2.0, 2.0))
        backend = _TableBackend(lambda s, acts, t=table: t[: acts.shape[0]].copy())
        decision = cbf_filter(state, a_nom, backend, cfg)

        q_fb = table[-1]
        feasible_mask = cbf_constraint_check(table, q_fb, cfg)
        if bool(feasible_mask[-2]):  # nominal anchor feasible: identity, exact
            assert decision.action == a_nom
            assert not decision.overridden
            assert decision.delta_a == 0.0
            idempotent += 1
        if not feasible_mask.any():  # empty set: fallback action, exact
            assert decision.action == backend.fallback_action(state)
            fallbacks += 1

        # alpha-monotone nesting: raising alpha tightens the constraint when
        # the fallback clears the threshold and relaxes it when it does not
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        mask_lo = cbf_constraint_check(table, q_fb, FilterConfig(alpha=float(lo)))
        mask_hi = cbf_constraint_check(table, q_fb, FilterConfig(alpha=float(hi)))
        if q_fb >= cfg.epsilon:
            assert not np.any(mask_hi & ~mask_lo)
        else:
            assert not np.any(mask_lo & ~mask_hi)

    assert idempotent > 100
    assert fallbacks == 0  # the positive fallback anchor is always feasible


def test_filter_empty_feasible_set_defaults_to_fallback():
    cfg = FilterConfig()
    backend = _TableBackend(lambda s, acts: np.full(acts.shape[0], -5.0), fallback=1.25)
    decision = cbf_filter(np.zeros(3), 0.4, backend, cfg)
    assert decision.feasible_count == 0
    assert decision.action == 1.25
    assert decision.overridden


# 9 ----------------------------------------------------------- throughput


def test_batched_query_throughput_and_per_sample_cost():
    critic = mlp_init([4, 128, 128, 128, 1], seed=5)
    actor = mlp_init([3, 128, 128, 128, 1], output_activation="tanh", seed=6)
    backend = CriticBackend(critic, actor, dt=0.1)

    big = throughput_benchmark(backend, sizes=(10000,), query_mode="model_free", reps=20)
    assert big[0]["mean_ms"] < 50.0

    free = throughput_benchmark(backend, sizes=(10,), query_mode="model_free", reps=30)
    based = throughput_benchmark(backend, sizes=(10,), query_mode="model_based", reps=30)
    assert based[0]["per_sample_us"] >= 5.0 * free[0]["per_sample_us"]


# 10 ---------------------------------------------------------- determinism


def test_cli_runs_are_byte_deterministic(tmp_path):
    grid = ["grid_nx = 17", "grid_ny = 17", "grid_ntheta = 9", "vi_tol = 1e-4"]
    rl = [
        "rl_iterations = 60", "rl_batch_size = 32", "rl_buffer_capacity = 512",
        "rl_episode_len = 4", "rl_actor_dims = 16, 16", "rl_critic_dims = 16, 16",
    ]
    margin = ["margin_iterations = 150", "margin_train_points = 2000", "margin_batch_size = 64"]
    # per subcommand: config lines and the output files that must match bytewise
    # (bench.csv is the one artifact holding wall-clock timings, so the bench
    # check covers its deterministic outputs instead)
    plans = {
        "train-margin": (margin + ["margin_mode = nogp"], ["margin_nogp.txt"]),
        "solve-grid": (grid, ["value_grid.txt", "margin_grid.txt", "vi_residuals.csv"]),
        "train-rl": (rl, ["rl/actor.txt", "rl/critic.txt", "rl/training_curve.csv"]),
        "filter-eval": (grid + ["n_rollouts = 3", "rollout_steps = 10"],
                        ["metrics.csv", "trajectories/cbf_000.csv"]),
        "verify-bound": (["lip_fd_samples = 500", "lip_margin_modes = exact"] + grid,
                         ["metrics.csv", "bound_report.csv"]),
        "bench": (rl + margin + ["bench_sizes = 1, 10", "bench_reps = 3"], ["metrics.csv"]),
        "demo": (grid + ["rollout_steps = 10"], ["demo_trajectory.csv"]),
    }
    for sub, (lines, artifacts) in plans.items():
        cfg_path = tmp_path / f"{sub}.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        dirs = [tmp_path / f"{sub}-a", tmp_path / f"{sub}-b"]
        for d in dirs:
            assert cli_main([sub, "--config", str(cfg_path), "--out", str(d)]) == 0, sub
        for name in artifacts:
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, f"{sub}: {name} differs between identical runs"
