"""Per-layer metrics of the traced run.

`install_wraps` puts span wrappers on the public functions each module
exposes and on the names consuming modules imported, so spans nest as the
calls do.  `run_probe` then calls each layer's public functions at fixed
sizes on fixed inputs (seed PROBE_SEED, independent of --seed), so every
per-layer metric is measured the same way on every workload and the exact
counts repeat exactly.  Each metric is read from span durations or span
counts; the `_computed` metrics are derived from array sizes instead.

Run `python3 perfbench/run.py --record-reference` to rewrite
reference_decisions.json, the executed actions of the reference rollouts
that `filters.decision_mismatches` compares against.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

from calibration import HostSpeed
from cbfforge import dubins, experiments, filters, hj, margin, nets, rl
from checks import Checks, action_digest, check_vi_solution, losses_finite
from workloads import (
    DT,
    GAMMA,
    GRID,
    MARGIN_POINTS,
    N_ACTIONS,
    RL_BATCH,
    RL_PREFILL,
    ROLLOUT_STEPS,
    VI_TOL,
    Sizes,
    cbf_config,
    check_filter_run,
    load_grid_backend,
    run_filter_block,
    write_filter_fixture,
)

PROBE_SEED = 0
# The reference rollouts: 4 per method and backend, no single-state calls.
PROBE_FILTER = Sizes(rollouts=4, single_calls=0, margin_iters=0, rl_updates=0)
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_decisions.json")
LAYERS = ("dubins", "hj", "nets", "margin", "rl", "filters", "experiments")
# Two executed actions count as a tie flip when the backend scores them
# equally or they are equally far from the nominal action, to this tolerance.
TIE_TOL = 1e-9
PROBE_CALLS = 60  # filter steps timed per backend and query mode
PROBE_MARGIN_ITERS = 30
PROBE_RL_UPDATES = 6
IO_SPANS = ("hj.load_field", "nets.load_model", "dubins.save_trajectory_csv", "experiments.MetricsTable.save_csv")
NET_CALL_PASSES = {"nets.mlp_forward": 1, "nets.param_gradient": 3, "nets.input_gradient": 3}


# --------------------------------------------------------------- wrapping


def net_shape(net) -> str:
    """"512x3" for three hidden layers of width 512."""
    return f"{net.layer_dims[1]}x{len(net.weights) - 1}"


def _net_info(args, kwargs):
    net, x = args[0], np.atleast_2d(args[1])
    dims = net.layer_dims
    forward_flops = 2 * x.shape[0] * sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    return {"net": net_shape(net), "in": net.input_dim, "batch": x.shape[0], "forward_flops": forward_flops}


def _q_rows_info(args, kwargs):
    states = np.atleast_2d(np.asarray(args[2], dtype=float))
    actions = np.broadcast_to(np.asarray(args[3], dtype=float), states.shape[:1])
    keys = {(s.tobytes(), float(a)) for s, a in zip(states, actions)}
    return {"rows": states.shape[0], "keys": keys}


def _filter_info(args, kwargs):
    backend = "grid" if isinstance(args[2], filters.GridBackend) else "critic"
    mode = args[3].query_mode if len(args) > 3 and hasattr(args[3], "query_mode") else "model_free"
    return {"backend": backend, "mode": mode}


def _experiment_info(args, kwargs):
    return {"backend": args[0]["filter_backend"], "experiment": args[0]["experiment"]}


def install_wraps(tracer) -> None:
    """Wrap public functions in their modules and where other modules import them."""
    plain = [
        (dubins, "dynamics_step_batch"), (dubins, "dynamics_step"), (dubins, "rollout"),
        (hj, "margin_field"), (hj, "value_iteration"), (hj, "interpolate"), (hj, "dynamics_step_batch"),
        (hj, "save_field"), (hj, "load_field"),
        (nets, "adam_step"), (nets, "penalty_param_gradient"), (nets, "save_model"), (nets, "load_model"),
        (experiments, "rollout"), (experiments, "save_trajectory_csv"), (experiments, "load_field"),
        (experiments, "load_model"), (experiments.MetricsTable, "save_csv"),
        (filters, "dynamics_step"), (filters.GridBackend, "fallback_action"),
        (filters.CriticBackend, "fallback_action"),
        (margin, "build_margin_dataset"), (margin, "train_margin"), (margin, "penalty_param_gradient"),
        (margin, "adam_step"),
        (rl, "train_safety_rl"), (rl, "collect_episode"), (rl, "critic_update"), (rl, "actor_update"),
        (rl, "soft_update"), (rl, "dynamics_step"), (rl, "nominal_policy"), (rl, "adam_step"),
        (rl.ReplayBuffer, "sample"),
    ]
    for owner, attr in plain:
        tracer.wrap(owner, attr)
    for owner in (nets, margin, rl, filters):
        for attr in ("mlp_forward", "param_gradient", "input_gradient"):
            if hasattr(owner, attr):
                tracer.wrap(owner, attr, _net_info)
    for owner in (hj, filters):
        tracer.wrap(owner, "q_from_value", _q_rows_info)
    for owner in (filters, experiments):
        tracer.wrap(owner, "cbf_filter", _filter_info)
        tracer.wrap(owner, "lr_filter", _filter_info)
    tracer.wrap(rl, "actor_action")
    tracer.wrap(filters, "actor_action")
    tracer.wrap(experiments, "run_experiment", _experiment_info)


# ------------------------------------------------------------- reference


def reference_rollouts(run) -> dict:
    return {
        f"{backend}/{method}/{k}": {"digest": action_digest(rec.actions_executed), "actions": rec.actions_executed.tolist()}
        for (backend, method), recs in run.records.items()
        for k, rec in enumerate(recs)
    }


def compare_decisions(run, reference: dict, q_pair) -> tuple[int, int]:
    """(rollouts whose executed actions differ from the reference, how many
    of those first diverge at a tie).

    q_pair(backend, method, state, a_ref, a_new) scores both actions at the
    first divergent step, where the states still agree.
    """
    mismatches = ties = 0
    for (backend, method), recs in run.records.items():
        for k, rec in enumerate(recs):
            ref = reference[f"{backend}/{method}/{k}"]
            if action_digest(rec.actions_executed) == ref["digest"]:
                continue
            mismatches += 1
            ref_actions = np.asarray(ref["actions"], dtype=float)
            n = min(ref_actions.size, rec.n_steps)
            diverged = np.flatnonzero(ref_actions[:n] != rec.actions_executed[:n])
            if diverged.size == 0:
                continue  # same actions, different length: not a tie
            t = int(diverged[0])
            a_ref, a_new, a_nom = ref_actions[t], rec.actions_executed[t], rec.actions_nominal[t]
            q_ref, q_new = q_pair(backend, method, rec.states[t], a_ref, a_new)
            if abs(q_ref - q_new) <= TIE_TOL or abs(abs(a_ref - a_nom) - abs(a_new - a_nom)) <= TIE_TOL:
                ties += 1
    return mismatches, ties


# ------------------------------------------------------------------ probe


def _calls(tracer, thunks) -> list:
    """Run each thunk under one probe span; return the direct child spans."""
    with tracer.span("probe", "probe") as root:
        for thunk in thunks:
            thunk()
    return tracer.children(root)


def _median_ms(spans) -> float:
    return statistics.median(s.duration for s in spans) * 1e3


def _probe_hj_dubins(tracer, m: dict, checks: Checks):
    m["hj.margin_field_s"] = _median_ms(
        _calls(tracer, [lambda: hj.margin_field(GRID, dubins.signed_distance_margin)] * 5)
    ) / 1e3
    margin_f = hj.margin_field(GRID, dubins.signed_distance_margin)
    actions = dubins.equispaced_actions(N_ACTIONS)
    solution = []
    (vi_span,) = _calls(tracer, [lambda: solution.append(hj.value_iteration(margin_f, actions, GAMMA, DT, tol=VI_TOL))])
    sol = solution[0]
    check_vi_solution(checks, sol, margin_f, actions, GAMMA, DT, VI_TOL)
    n_nodes = GRID.nx * GRID.ny * GRID.ntheta
    steps = [s for s in tracer.descendants(vi_span) if s.name == "dubins.dynamics_step_batch"]
    m["dubins.step_batch_us_per_state"] = _median_ms(steps) * 1e3 / n_nodes
    m["hj.vi_sweeps"] = sol.sweeps
    m["hj.vi_sweep_ms"] = vi_span.duration * 1e3 / sol.sweeps
    # Per sweep the solver gathers 8 corners per action and node: an int64
    # index, a float64 weight and the float64 value read through the index.
    m["hj.vi_bytes_per_sweep_computed"] = actions.size * 8 * n_nodes * (8 + 8 + 8)

    rng = np.random.default_rng(PROBE_SEED)
    states = np.column_stack(
        [rng.uniform(-1.5, 1.5, 10000), rng.uniform(-1.5, 1.5, 10000), rng.uniform(-np.pi, np.pi, 10000)]
    )
    value = sol.field
    m["hj.interp_us.n1"] = _median_ms(_calls(tracer, [lambda s=s: hj.interpolate(value, s) for s in states[:1000]])) * 1e3
    m["hj.interp_us.n10000"] = _median_ms(_calls(tracer, [lambda: hj.interpolate(value, states)] * 30)) * 1e3
    m["hj.q_from_value_us.n25"] = _median_ms(
        _calls(tracer, [lambda s=s: hj.q_from_value(value, margin_f, np.tile(s, (25, 1)), actions, GAMMA, DT)
                        for s in states[:500]])
    ) * 1e3
    m["dubins.step_single_us"] = _median_ms(
        _calls(tracer, [lambda s=s: dubins.dynamics_step(s, 0.5, DT) for s in states[:2000]])
    ) * 1e3
    return sol.field, margin_f


def _probe_filters(tracer, m: dict, checks: Checks, fx, work_dir: str, speed: HostSpeed):
    with tracer.span("probe", "probe") as run_span:
        run = run_filter_block(fx, PROBE_SEED, PROBE_FILTER, work_dir, speed)
    grid = load_grid_backend(fx)
    check_filter_run(checks, run, grid, None)
    exp_spans = [s for s in tracer.children(run_span) if s.name == "experiments.run_experiment"]
    below = [s for e in exp_spans for s in tracer.descendants(e)]
    # Calibration readings taken around each rollout are not experiment time.
    run_s = {
        e.info["backend"]: e.duration - sum(s.duration for s in tracer.descendants(e) if s.layer == "calibration")
        for e in exp_spans
    }
    for backend, seconds in run_s.items():
        m[f"experiments.run_s.{backend}"] = seconds
    rollouts = sorted((s for s in below if s.name == "dubins.rollout"), key=lambda s: s.start)
    m["experiments.rollout_share"] = sum(s.duration for s in rollouts) / sum(run_s.values())
    m["experiments.artifact_io_s"] = sum(s.duration for s in below if s.name in IO_SPANS)
    none_steps = sum(rec.n_steps for rec in run.records[("grid", "none")])
    m["dubins.rollout_step_us"] = sum(s.duration for s in rollouts[:PROBE_FILTER.rollouts]) * 1e6 / none_steps

    cbf_steps = [s for s in below if s.name == "filters.cbf_filter" and s.info["backend"] == "grid"]
    rows = [sum(q.info["rows"] for q in tracer.descendants(s) if q.name == "hj.q_from_value") for s in cbf_steps]
    distinct = [
        len(set().union(*(q.info["keys"] for q in tracer.descendants(s) if q.name == "hj.q_from_value")))
        for s in cbf_steps
    ]
    m["filters.q_rows_per_step.grid"] = statistics.fmean(rows)
    m["filters.q_useful_frac"] = sum(distinct) / sum(rows)
    grid_cbf = run.records[("grid", "cbf")]
    overrides = np.concatenate([rec.override_magnitudes for rec in grid_cbf])
    feasible = np.concatenate([rec.diagnostics["feasible_count"] for rec in grid_cbf])
    m["filters.override_rate"] = float(np.mean(overrides >= dubins.OVERRIDE_THRESHOLD))
    m["filters.empty_feasible_frac"] = float(np.mean(feasible == 0))

    critic = filters.CriticBackend(nets.load_model(fx.critic_path), nets.load_model(fx.actor_path), dt=DT)
    backends = {"grid": grid, "critic": critic}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            reference = json.load(fh)["rollouts"]
        cfgs = {b: cbf_config(cfg) for b, cfg in run.configs.items()}

        def q_pair(backend, method, state, a_ref, a_new):
            pair = np.array([a_ref, a_new])
            if method == "cbf":
                return filters.q_query(backends[backend], state, pair, cfgs[backend])
            return backends[backend].q_values(state, pair)

        m["filters.decision_mismatches"], m["filters.tie_flips"] = compare_decisions(run, reference, q_pair)

    visited = [(rec.states[t], float(rec.actions_nominal[t])) for rec in grid_cbf for t in range(rec.n_steps)]
    visited = visited[:PROBE_CALLS]
    for name, backend in backends.items():
        for mode in ("model_free", "model_based"):
            fcfg = filters.FilterConfig(query_mode=mode, gamma=GAMMA, dt=DT)
            m[f"filters.cbf_step_ms.{name}.{mode}"] = _median_ms(
                _calls(tracer, [lambda s=s, a=a: filters.cbf_filter(s, a, backend, fcfg) for s, a in visited])
            )
        m[f"filters.lr_step_ms.{name}"] = _median_ms(
            _calls(tracer, [lambda s=s, a=a: filters.lr_filter(s, a, backend) for s, a in visited])
        )
        m[f"filters.fallback_action_ms.{name}"] = _median_ms(
            _calls(tracer, [lambda s=s: backend.fallback_action(s) for s, _ in visited])
        )
    return run, critic.critic


def _probe_nets(tracer, m: dict, critic_net):
    rng = np.random.default_rng(PROBE_SEED)
    small = nets.mlp_init([3, 64, 64, 1], "silu", "identity", seed=PROBE_SEED)
    x4 = rng.standard_normal((512, 4))
    x3 = rng.standard_normal((512, 3))

    def mse(out):
        return float(np.mean(out**2)), 2.0 * out / out.shape[0]

    m["nets.forward_ms.512x3.b27"] = _median_ms(_calls(tracer, [lambda: nets.mlp_forward(critic_net, x4[:27])] * 200))
    m["nets.forward_ms.512x3.b512"] = _median_ms(_calls(tracer, [lambda: nets.mlp_forward(critic_net, x4)] * 20))
    m["nets.forward_ms.64x2.b512"] = _median_ms(_calls(tracer, [lambda: nets.mlp_forward(small, x3)] * 200))
    m["nets.param_gradient_ms.512x3.b512"] = _median_ms(
        _calls(tracer, [lambda: nets.param_gradient(critic_net, x4, mse)] * 10)
    )
    m["nets.param_gradient_ms.64x2.b512"] = _median_ms(_calls(tracer, [lambda: nets.param_gradient(small, x3, mse)] * 100))
    m["nets.penalty_param_gradient_ms.64x2.b256"] = _median_ms(
        _calls(tracer, [lambda: nets.penalty_param_gradient(small, x3[:256], 0.1)] * 100)
    )
    m["nets.input_gradient_ms.512x3.b512"] = _median_ms(_calls(tracer, [lambda: nets.input_gradient(critic_net, x4)] * 10))
    net = critic_net.copy()
    _, grads = nets.param_gradient(net, x4, mse)
    state = nets.AdamState(learning_rate=1e-4)
    m["nets.adam_step_ms.512x3"] = _median_ms(_calls(tracer, [lambda: nets.adam_step(net, grads, state)] * 20))


def _probe_margin(tracer, m: dict, checks: Checks):
    dataset = margin.build_margin_dataset(MARGIN_POINTS, seed=PROBE_SEED)
    for mode, use_gp in (("gp", True), ("nogp", False)):
        cfg = margin.MarginTrainConfig(iterations=PROBE_MARGIN_ITERS, use_gp=use_gp, seed=PROBE_SEED)
        trained = []
        (span,) = _calls(tracer, [lambda: trained.append(margin.train_margin(dataset, cfg))])
        m[f"margin.iter_ms.{mode}"] = span.duration * 1e3 / PROBE_MARGIN_ITERS
        loss = margin.sign_loss(trained[0], dataset.safe_points[:256], dataset.fail_points[:256], 0.0)
        checks.record("probe.margin_loss_finite", losses_finite([loss]), f"{mode} loss {loss}")
        if use_gp:
            passes = [s for s in tracer.descendants(span) if s.name in ("nets.param_gradient", "nets.penalty_param_gradient")]
            m["margin.param_passes_per_iter.gp"] = len(passes) / PROBE_MARGIN_ITERS


def _probe_rl(tracer, m: dict, checks: Checks):
    cfg = rl.RlConfig(iterations=RL_PREFILL + PROBE_RL_UPDATES, batch_size=RL_BATCH, seed=PROBE_SEED)
    out = []
    (span,) = _calls(
        tracer, [lambda: out.append(rl.train_safety_rl(dubins.signed_distance_margin, dubins.NominalPolicyConfig(), cfg))]
    )
    history = out[0][2]
    checks.record(
        "probe.rl_losses_finite",
        losses_finite([history.critic_losses[-1], history.actor_losses[-1]]),
        f"{history.critic_losses[-1]}, {history.actor_losses[-1]}",
    )
    below = list(tracer.descendants(span))
    critic_ups = sorted((s for s in below if s.name == "rl.critic_update"), key=lambda s: s.start)
    actor_ups = sorted((s for s in below if s.name == "rl.actor_update"), key=lambda s: s.start)
    m["rl.critic_update_ms"] = _median_ms(critic_ups)
    m["rl.actor_update_ms"] = _median_ms(actor_ups)
    m["rl.update_ms"] = statistics.median(c.duration + a.duration for c, a in zip(critic_ups, actor_ups)) * 1e3
    m["rl.collect_episode_ms"] = _median_ms([s for s in below if s.name == "rl.collect_episode"])
    m["rl.buffer_sample_ms"] = _median_ms([s for s in below if s.name == "rl.ReplayBuffer.sample"])

    critic_forwards, flops = [], []
    for c, a in zip(critic_ups, actor_ups):
        calls = [s for up in (c, a) for s in tracer.descendants(up) if s.name in NET_CALL_PASSES]
        critic_forwards.append(sum(1 for s in calls if s.info["in"] == 4))
        flops.append(sum(NET_CALL_PASSES[s.name] * s.info["forward_flops"] for s in calls))
    m["rl.critic_forwards_per_update"] = statistics.median(critic_forwards)
    # Matrix-product flops: a forward pass costs 2 * batch * sum(fan_in *
    # fan_out); a backward pass adds the weight and the input gradient.
    m["nets.flops_per_rl_update_computed"] = statistics.median(flops)


def run_probe(tracer, work_dir: str, checks: Checks, speed: HostSpeed) -> dict:
    """All per-layer metrics except the self-time shares; tracer must be active."""
    m: dict = {}
    value, margin_f = _probe_hj_dubins(tracer, m, checks)
    fx = write_filter_fixture(os.path.join(work_dir, "probe_fixture"), value, margin_f)
    _, critic_net = _probe_filters(tracer, m, checks, fx, os.path.join(work_dir, "probe_filter"), speed)
    _probe_nets(tracer, m, critic_net)
    _probe_margin(tracer, m, checks)
    _probe_rl(tracer, m, checks)
    return m


def record_reference(work_dir: str) -> None:
    """Write the executed actions of the reference rollouts."""
    fx = write_filter_fixture(os.path.join(work_dir, "fixture"))
    run = run_filter_block(fx, PROBE_SEED, PROBE_FILTER, os.path.join(work_dir, "filter"), HostSpeed())
    payload = {
        "seed": PROBE_SEED,
        "n_rollouts": PROBE_FILTER.rollouts,
        "rollout_steps": ROLLOUT_STEPS,
        "rollouts": reference_rollouts(run),
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
