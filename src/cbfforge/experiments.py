"""Experiment orchestration: artifact resolution, rollout evaluation, metrics.

Each experiment consumes a flat config dict (see config.SCHEMA), writes every
artifact under output_dir, and returns a MetricsTable.  Runs are reproducible
bit-for-bit given (config, seed): initial states come from one master stream
and each rollout owns a derived stream for its nominal-policy noise.  Grids
are solved to convergence or not at all: a value solve that stops at
vi_max_sweeps raises.

The pipeline stages are public and the CLI calls them directly:
train_margin_net, resolve_margin and field_margin (margin), grid_fields,
solve_grid, actor_critic and train_actor_critic (value source),
build_backend and action_filter (filter), and run_rollouts (evaluation).
Each stage loads a saved artifact or trains and saves one only when it is
about to use it; solve_grid always solves and train_actor_critic always
trains.
"""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass

import numpy as np

from .codec import write_csv
from .config import ConfigError, format_config, from_config
from .dubins import (
    OVERRIDE_THRESHOLD,
    NominalPolicyConfig,
    estimate_dynamics_lipschitz,
    equispaced_actions,
    nominal_policy,
    rollout,
    sample_initial_states,
    save_trajectory_csv,
    signed_distance_margin,
)
from .filters import CriticBackend, FilterConfig, GridBackend, cbf_filter, lr_filter, q_query
from .hj import GridSpec, load_field, margin_field, require_converged, save_field, value_iteration, verify_margin_value_bound
from .margin import (
    MarginTrainConfig,
    build_margin_dataset,
    evaluate_margin,
    net_margin_fn,
    train_margin,
)
from .nets import load_model, save_model
from .rl import RlConfig, critic_error_vs_oracle, train_safety_rl

METRICS_HEADER = (
    "method,margin_mode,alpha,safety_rate,avg_override,override_std,"
    "f1,max_step_delta_mean,max_step_delta_std"
)
NA = "n/a"


@dataclass
class MetricsRow:
    """One aggregate result row; inapplicable cells hold the string "n/a"."""

    method: str
    margin_mode: object = NA
    alpha: object = NA
    safety_rate: object = NA
    avg_override: object = NA
    override_std: object = NA
    f1: object = NA
    max_step_delta_mean: object = NA
    max_step_delta_std: object = NA


@dataclass
class MetricsTable:
    """Ordered result rows with a validated CSV writer."""

    rows: list

    def save_csv(self, path: str) -> None:
        rows = [astuple(row) for row in self.rows]
        for cell in (cell for cells in rows for cell in cells):
            if isinstance(cell, str) and not cell:
                raise ValueError("blank cell in metrics table")
            if not isinstance(cell, str) and not np.isfinite(cell):
                raise ValueError("non-finite cell in metrics table")
        write_csv(path, METRICS_HEADER, rows)


def nominal_config(cfg: dict) -> NominalPolicyConfig:
    return from_config(NominalPolicyConfig, cfg)


def train_margin_net(cfg: dict, use_gp: bool, out_dir: str):
    """Train a margin net on a fresh dataset and save it as margin_<mode>.txt."""
    dataset = build_margin_dataset(cfg["margin_train_points"], seed=cfg["seed"])
    net = train_margin(dataset, from_config(MarginTrainConfig, cfg, use_gp=use_gp))
    save_model(net, os.path.join(out_dir, f"margin_{'gp' if use_gp else 'nogp'}.txt"))
    return net


def resolve_margin(cfg: dict, out_dir: str):
    """The raw margin callable (n, 3) -> (n,) for cfg["margin_mode"]."""
    mode = cfg["margin_mode"]
    if mode == "exact":
        return signed_distance_margin
    if cfg["margin_model"]:
        if not os.path.exists(cfg["margin_model"]):
            raise ConfigError(f"margin_model file not found: {cfg['margin_model']}")
        net = load_model(cfg["margin_model"])
    elif cfg["train_missing"]:
        net = train_margin_net(cfg, use_gp=(mode == "gp"), out_dir=out_dir)
    else:
        raise ConfigError(
            f"margin net ({mode}) missing: set margin_model or train_missing = true"
        )
    return net_margin_fn(net)


def field_margin(cfg: dict, out_dir: str):
    """Margin used to label grid cells: unbounded (GP) nets are clipped to [-1, 1]."""
    margin_fn = resolve_margin(cfg, out_dir)
    if cfg["margin_mode"] == "gp":
        return lambda states: np.clip(margin_fn(states), -1.0, 1.0)
    return margin_fn


def _saved_pair(cfg: dict, first: str, second: str) -> bool:
    """Whether the config names a saved artifact pair; both must be set and exist."""
    if not (cfg[first] or cfg[second]):
        return False
    if not (cfg[first] and cfg[second]):
        raise ConfigError(f"{first} and {second} must be set together")
    for key in (first, second):
        if not os.path.exists(cfg[key]):
            raise ConfigError(f"{key} file not found: {cfg[key]}")
    return True


def _save_vi_residuals(sol, gamma: float, path: str) -> None:
    """Write the solve's history: ``sweep,residual,jump`` per sweep, where jump
    is ``kept`` or ``rejected`` for a sweep of an extrapolated iterate and
    ``no`` otherwise, then ``bound,<b>,<converged|not_converged>``.

    b = gamma / (1 - gamma) * r bounds the sup-norm distance of the returned
    field from the fixed point, where r is the residual of the sweep that
    produced it (the last one that was not a rejected jump); inf at gamma 1.
    """
    rows = [
        (k, r, "no" if k not in sol.jumps else "kept" if sol.jumps[k] else "rejected")
        for k, r in enumerate(sol.residuals, 1)
    ]
    final = [r for k, r in enumerate(sol.residuals, 1) if sol.jumps.get(k, True)][-1]
    bound = gamma / (1.0 - gamma) * final if gamma < 1.0 else float("inf")
    rows.append(("bound", bound, "converged" if sol.converged else "not_converged"))
    write_csv(path, "sweep,residual,jump", rows)


def grid_fields(cfg: dict, out_dir: str):
    """Load the saved (margin, value) field pair, or solve and save it.

    Only a solve resolves a margin: the cells are labelled by
    field_margin(cfg, out_dir).
    """
    if _saved_pair(cfg, "value_grid", "margin_grid"):
        value = load_field(cfg["value_grid"], kind="value")
        margin = load_field(cfg["margin_grid"], kind="margin")
        if value.spec != margin.spec:
            raise ConfigError("value_grid and margin_grid disagree on the grid shape")
        return margin, value
    return solve_grid(cfg, out_dir, field_margin(cfg, out_dir))


def solve_grid(cfg: dict, out_dir: str, margin_fn):
    """Solve the value field on the cells labelled by margin_fn and save the pair.

    Saved grids are not consulted.  The solve writes vi_residuals.csv first,
    then raises RuntimeError when it stopped at vi_max_sweeps unconverged;
    only a converged pair is saved, as value_grid.txt and margin_grid.txt.
    """
    spec = GridSpec(nx=cfg["grid_nx"], ny=cfg["grid_ny"], ntheta=cfg["grid_ntheta"])
    margin = margin_field(spec, margin_fn)
    sol = value_iteration(
        margin,
        equispaced_actions(cfg["n_action_samples"]),
        gamma=cfg["gamma"],
        dt=cfg["dt"],
        tol=cfg["vi_tol"],
        max_iters=cfg["vi_max_sweeps"],
    )
    _save_vi_residuals(sol, cfg["gamma"], os.path.join(out_dir, "vi_residuals.csv"))
    require_converged(sol, cfg["vi_tol"], cfg["vi_max_sweeps"])
    save_field(sol.field, os.path.join(out_dir, "value_grid.txt"))
    save_field(margin, os.path.join(out_dir, "margin_grid.txt"))
    return margin, sol.field


def actor_critic(cfg: dict, out_dir: str):
    """Load the saved fallback actor and safety critic, or train them.

    Only training resolves a margin: the raw margin of
    resolve_margin(cfg, out_dir) labels the replay buffer.
    """
    if _saved_pair(cfg, "critic_model", "actor_model"):
        return load_model(cfg["actor_model"]), load_model(cfg["critic_model"])
    if not cfg["train_missing"]:
        raise ConfigError("critic/actor missing: set critic_model and actor_model or train_missing = true")
    return train_actor_critic(cfg, out_dir, resolve_margin(cfg, out_dir))


def train_actor_critic(cfg: dict, out_dir: str, margin_fn, tag: str = "rl"):
    """Train the fallback actor and safety critic and save them under out_dir/tag.

    margin_fn labels the replay buffer.  Saved models and train_missing are
    not consulted: callers that always train call this directly.
    """
    rl_cfg = from_config(RlConfig, cfg)
    actor, critic, _ = train_safety_rl(margin_fn, nominal_config(cfg), rl_cfg, out_dir=os.path.join(out_dir, tag))
    return actor, critic


def build_backend(cfg: dict, out_dir: str):
    """Backend for the runtime filters, per filter_backend."""
    if cfg["filter_backend"] == "grid":
        margin_f, value_f = grid_fields(cfg, out_dir)
        return GridBackend(
            value_f,
            margin_f,
            actions=equispaced_actions(cfg["n_action_samples"]),
            gamma=cfg["gamma"],
            dt=cfg["dt"],
        )
    actor, critic = actor_critic(cfg, out_dir)
    return CriticBackend(critic, actor, dt=cfg["dt"])


def action_filter(method: str, backend, cfg: dict, alpha: float | None = None):
    """Per-step filter (state, a_nom) -> FilterDecision, or None for "none"."""
    if method == "none":
        return None
    if method == "lr":
        return lambda state, a_nom: lr_filter(state, a_nom, backend, cfg["epsilon"])
    if method == "cbf":
        fcfg = from_config(FilterConfig, cfg if alpha is None else dict(cfg, alpha=alpha))
        return lambda state, a_nom: cbf_filter(state, a_nom, backend, fcfg)
    raise ConfigError(f"unknown filter method {method!r}")


def run_rollouts(cfg: dict, filter_fn) -> list:
    """n_rollouts evaluation trajectories under filter_fn (None: unfiltered).

    Start states come from the master stream [seed, 777]; rollout k draws its
    nominal-policy noise from its own stream [seed, 1000 + k].
    """
    nom = nominal_config(cfg)
    starts = sample_initial_states(np.random.default_rng([cfg["seed"], 777]), cfg["n_rollouts"])
    records = []
    for k in range(cfg["n_rollouts"]):
        rng = np.random.default_rng([cfg["seed"], 1000 + k])
        policy = lambda s: nominal_policy(s, nom, rng=rng)
        records.append(rollout(policy, starts[k], cfg["rollout_steps"], action_filter=filter_fn, dt=cfg["dt"]))
    return records


def _saved_rollouts(cfg: dict, filter_fn, label: str, out_dir: str) -> list:
    """run_rollouts, each record written to trajectories/<label>_<k>.csv."""
    records = run_rollouts(cfg, filter_fn)
    traj_dir = os.path.join(out_dir, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    for k, rec in enumerate(records):
        save_trajectory_csv(rec, os.path.join(traj_dir, f"{label}_{k:03d}.csv"))
    return records


def override_statistics(records) -> tuple[float, float]:
    """Mean and std of override magnitudes over steps where the filter acted.

    Steps with |a_exec - a_nom| below dubins.OVERRIDE_THRESHOLD do not count
    as interventions; with no interventions at all both statistics are 0.
    """
    deltas = np.concatenate([rec.override_magnitudes for rec in records])
    acted = deltas[deltas >= OVERRIDE_THRESHOLD]
    if acted.size == 0:
        return 0.0, 0.0
    return float(acted.mean()), float(acted.std())


def safety_rate(records) -> float:
    """Fraction of rollouts that never entered a failure circle."""
    return float(np.mean([not rec.collided for rec in records]))


# ------------------------------------------------------------- experiments


def _experiment_margin_quality(cfg: dict, out_dir: str) -> MetricsTable:
    """Train both margin variants and score them along nominal rollouts."""
    records = _saved_rollouts(cfg, None, "nominal", out_dir)
    rows = []
    for mode, use_gp in (("gp", True), ("nogp", False)):
        net = train_margin_net(cfg, use_gp, out_dir)
        metrics = evaluate_margin(net_margin_fn(net), records)
        write_csv(os.path.join(out_dir, f"margin_metrics_{mode}.csv"), "metric,value", metrics.items())
        rows.append(
            MetricsRow(
                method="margin",
                margin_mode=mode,
                f1=metrics["f1"],
                max_step_delta_mean=metrics["max_step_delta_mean"],
                max_step_delta_std=metrics["max_step_delta_std"],
            )
        )
    return MetricsTable(rows)


def _filter_table(cfg: dict, out_dir: str, runs) -> MetricsTable:
    """One row per (method, label, alpha) run on one backend; alpha None is n/a."""
    backend = build_backend(cfg, out_dir)
    rows = []
    for method, label, alpha in runs:
        records = _saved_rollouts(cfg, action_filter(method, backend, cfg, alpha), label, out_dir)
        avg, std = override_statistics(records)
        rows.append(
            MetricsRow(
                method=method,
                margin_mode=cfg["margin_mode"],
                alpha=NA if alpha is None else alpha,
                safety_rate=safety_rate(records),
                avg_override=avg,
                override_std=std,
            )
        )
    return MetricsTable(rows)


def _experiment_filter_comparison(cfg: dict, out_dir: str) -> MetricsTable:
    return _filter_table(cfg, out_dir, [(m, m, cfg["alpha"] if m == "cbf" else None) for m in cfg["methods"]])


def _experiment_alpha_ablation(cfg: dict, out_dir: str) -> MetricsTable:
    return _filter_table(cfg, out_dir, [("cbf", f"cbf_alpha_{a:g}", float(a)) for a in cfg["alpha_list"]])


def _saturated_margin(cfg: dict):
    scale = cfg["sat_scale"]
    return lambda pts: np.tanh(scale * signed_distance_margin(np.atleast_2d(pts)))


def _experiment_lipschitz_bound(cfg: dict, out_dir: str) -> MetricsTable:
    """Check the margin-to-value Lipschitz bound for each margin variant."""
    L_f = estimate_dynamics_lipschitz(dt=cfg["dt"], n_samples=cfg["lip_fd_samples"], seed=cfg["seed"])
    gamma = cfg["lip_gamma"]
    if gamma * L_f >= 1.0:
        raise ConfigError(
            f"bound hypothesis violated: lip_gamma * L_f = {gamma * L_f:.4f} >= 1; "
            "lower lip_gamma or shorten dt"
        )
    spec = GridSpec(nx=cfg["grid_nx"], ny=cfg["grid_ny"], ntheta=cfg["grid_ntheta"])
    actions = equispaced_actions(cfg["n_action_samples"])
    rows, report = [], []
    for mode in cfg["lip_margin_modes"]:
        if mode == "exact":
            fn = signed_distance_margin
        elif mode == "sat":
            fn = _saturated_margin(cfg)
        else:
            fn = field_margin(dict(cfg, margin_mode="gp"), out_dir)
        res = verify_margin_value_bound(
            margin_field(spec, fn),
            gamma=gamma,
            dt=cfg["dt"],
            action_set=actions,
            L_f=L_f,
            vi_tol=cfg["vi_tol"],
            max_iters=cfg["vi_max_sweeps"],
        )
        report.append((mode, res.L_ell, res.L_f, res.L_V, res.bound, str(res.holds).lower()))
        rows.append(MetricsRow(method="lipschitz_bound", margin_mode=mode))
    write_csv(os.path.join(out_dir, "bound_report.csv"), "margin_mode,L_ell,L_f,L_V,bound,holds", report)
    return MetricsTable(rows)


def _experiment_mix_ablation(cfg: dict, out_dir: str) -> MetricsTable:
    """Mixed vs fallback-only replay buffers, scored against the grid backup.

    The critic learns tanh-squashed labels, so the oracle grid is solved on
    the tanh of the same margin before the mean absolute errors compare.
    Saved grids and saved actor/critic models are ignored: the oracle must
    match the margin, and each variant trains its own pair.
    """
    margin_fn = resolve_margin(cfg, out_dir)
    tanh_fn = lambda pts: np.tanh(margin_fn(np.atleast_2d(pts)))
    margin_f, value_f = solve_grid(cfg, out_dir, tanh_fn)
    nom = nominal_config(cfg)
    rows, report = [], []
    for variant, mixed in (("critic_mixed", True), ("critic_fallback_only", False)):
        actor, critic = train_actor_critic(dict(cfg, rl_mix_nominal=mixed), out_dir, margin_fn, tag=variant)
        for source in ("nominal_policy", "fallback_policy"):
            mae = critic_error_vs_oracle(
                critic,
                value_f,
                margin_f,
                source,
                actor=actor,
                nominal_cfg=nom,
                gamma=cfg["gamma"],
                dt=cfg["dt"],
                seed=cfg["seed"],
            )
            report.append((variant, source, mae))
        rows.append(MetricsRow(method=variant, margin_mode=cfg["margin_mode"]))
    write_csv(os.path.join(out_dir, "mix_report.csv"), "variant,eval_source,mae", report)
    return MetricsTable(rows)


def throughput_benchmark(backend, sizes, query_mode: str, reps: int) -> list:
    """Latency of batched candidate scoring for each batch size.

    Each size is timed over reps repetitions after 3 warmup calls.  The
    model-based mode inherently pays one dynamics step per candidate.

    Returns:
        List of dicts: query_mode, n_samples, reps, mean_ms, std_ms,
        per_sample_us.
    """
    if reps < 1 or min(sizes, default=1) < 1:
        raise ValueError("reps and every size must be positive")
    state = np.array([-1.0, 0.4, 0.3])
    fcfg = FilterConfig(query_mode=query_mode)
    out = []
    for n in sizes:
        actions = np.linspace(-2.0, 2.0, n)
        for _ in range(3):
            q_query(backend, state, actions, fcfg)
        times = np.empty(reps)
        for r in range(reps):
            start = time.perf_counter()
            q_query(backend, state, actions, fcfg)
            times[r] = time.perf_counter() - start
        mean_ms = float(times.mean() * 1e3)
        out.append(
            {
                "query_mode": query_mode,
                "n_samples": int(n),
                "reps": int(reps),
                "mean_ms": mean_ms,
                "std_ms": float(times.std() * 1e3),
                "per_sample_us": mean_ms * 1e3 / n,
            }
        )
    return out


def _experiment_throughput(cfg: dict, out_dir: str) -> MetricsTable:
    actor, critic = actor_critic(cfg, out_dir)
    backend = CriticBackend(critic, actor, dt=cfg["dt"])
    rows, report = [], []
    for mode in cfg["bench_modes"]:
        for res in throughput_benchmark(backend, cfg["bench_sizes"], mode, cfg["bench_reps"]):
            timings = ["%.6f" % res[key] for key in ("mean_ms", "std_ms", "per_sample_us")]
            report.append((res["query_mode"], res["n_samples"], res["reps"], *timings))
        rows.append(MetricsRow(method=f"throughput_{mode}"))
    write_csv(os.path.join(out_dir, "bench.csv"), "query_mode,n_samples,reps,mean_ms,std_ms,per_sample_us", report)
    return MetricsTable(rows)


_EXPERIMENTS = {
    "margin_quality": _experiment_margin_quality,
    "filter_comparison": _experiment_filter_comparison,
    "alpha_ablation": _experiment_alpha_ablation,
    "lipschitz_bound": _experiment_lipschitz_bound,
    "mix_ablation": _experiment_mix_ablation,
    "throughput": _experiment_throughput,
}


def run_experiment(cfg: dict) -> MetricsTable:
    """Execute cfg["experiment"], write its artifacts, return the table.

    Every file lands under cfg["output_dir"]: the resolved config, the
    metrics table, per-trajectory dumps, and experiment-specific reports.
    """
    experiment = _EXPERIMENTS[cfg["experiment"]]  # load_config checked the name
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w") as fh:
        fh.write(format_config(cfg))
    table = experiment(cfg, out_dir)
    table.save_csv(os.path.join(out_dir, "metrics.csv"))
    return table
