"""Experiment orchestration: artifact resolution, rollout evaluation, metrics.

Each experiment consumes a flat config dict (see config.SCHEMA), writes every
artifact under output_dir, and returns a MetricsTable.  Runs are reproducible
bit-for-bit given (config, seed): initial states come from one master stream
and each rollout owns a derived stream for its nominal-policy noise.  Grids
are solved to convergence or not at all: a value solve that stops at
vi_max_sweeps raises.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, format_config
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
from .filters import CriticBackend, FilterConfig, GridBackend, SamplerSpec, cbf_filter, lr_filter, q_query
from .hj import GridSpec, load_field, margin_field, save_field, value_iteration, verify_margin_value_bound
from .margin import (
    MarginTrainConfig,
    build_margin_dataset,
    evaluate_margin,
    net_margin_fn,
    save_metrics_csv,
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

    def cells(self):
        return (
            self.method,
            self.margin_mode,
            self.alpha,
            self.safety_rate,
            self.avg_override,
            self.override_std,
            self.f1,
            self.max_step_delta_mean,
            self.max_step_delta_std,
        )


@dataclass
class MetricsTable:
    """Ordered result rows with a validated CSV writer."""

    rows: list

    def save_csv(self, path: str) -> None:
        lines = [METRICS_HEADER]
        for row in self.rows:
            rendered = []
            for cell in row.cells():
                if isinstance(cell, str):
                    if not cell:
                        raise ValueError("blank cell in metrics table")
                    rendered.append(cell)
                else:
                    value = float(cell)
                    if not np.isfinite(value):
                        raise ValueError("non-finite cell in metrics table")
                    rendered.append("%.17g" % value)
            lines.append(",".join(rendered))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _nominal_cfg(cfg: dict) -> NominalPolicyConfig:
    return NominalPolicyConfig(
        goal=(cfg["nominal_goal_x"], cfg["nominal_goal_y"]),
        gain=cfg["nominal_gain"],
        mode=cfg["nominal_mode"],
        noise_std=cfg["nominal_noise_std"],
    )


def _margin_train_config(cfg: dict, use_gp: bool) -> MarginTrainConfig:
    return MarginTrainConfig(
        lambda_zs=cfg["lambda_zs"],
        lambda_gp=cfg["lambda_gp"],
        lambda_sign=cfg["lambda_sign"],
        beta=cfg["gp_beta"],
        delta=cfg["sign_delta"],
        batch_size=cfg["margin_batch_size"],
        iterations=cfg["margin_iterations"],
        learning_rate=cfg["margin_learning_rate"],
        use_gp=use_gp,
        hidden_dims=tuple(cfg["margin_hidden_dims"]),
        seed=cfg["seed"],
    )


def _train_margin_net(cfg: dict, use_gp: bool, out_dir: str):
    dataset = build_margin_dataset(cfg["margin_train_points"], seed=cfg["seed"])
    net = train_margin(dataset, _margin_train_config(cfg, use_gp))
    save_model(net, os.path.join(out_dir, f"margin_{'gp' if use_gp else 'nogp'}.txt"))
    return net


def _resolve_margin(cfg: dict, out_dir: str):
    """Return (raw margin callable, net or None) for cfg["margin_mode"]."""
    mode = cfg["margin_mode"]
    if mode == "exact":
        return signed_distance_margin, None
    if cfg["margin_model"]:
        if not os.path.exists(cfg["margin_model"]):
            raise ConfigError(f"margin_model file not found: {cfg['margin_model']}")
        net = load_model(cfg["margin_model"])
    elif cfg["train_missing"]:
        net = _train_margin_net(cfg, use_gp=(mode == "gp"), out_dir=out_dir)
    else:
        raise ConfigError(
            f"margin net ({mode}) missing: set margin_model or train_missing = true"
        )
    return net_margin_fn(net), net


def _margin_for_field(cfg: dict, margin_fn, net):
    """Margin used to label grid cells: unbounded nets are clipped."""
    if net is not None and cfg["margin_mode"] == "gp":
        return net_margin_fn(net, clip=(-1.0, 1.0))
    return margin_fn


def _resolve_grid(cfg: dict, out_dir: str, field_margin_fn):
    """Load or solve the (margin, value) field pair for the config.

    Raises RuntimeError when the solve stops at vi_max_sweeps unconverged.
    """
    if cfg["value_grid"] or cfg["margin_grid"]:
        if not (cfg["value_grid"] and cfg["margin_grid"]):
            raise ConfigError("value_grid and margin_grid must be set together")
        for key in ("value_grid", "margin_grid"):
            if not os.path.exists(cfg[key]):
                raise ConfigError(f"{key} file not found: {cfg[key]}")
        value = load_field(cfg["value_grid"], kind="value")
        margin = load_field(cfg["margin_grid"], kind="margin")
        if value.spec != margin.spec:
            raise ConfigError("value_grid and margin_grid disagree on the grid shape")
        return margin, value
    spec = GridSpec(nx=cfg["grid_nx"], ny=cfg["grid_ny"], ntheta=cfg["grid_ntheta"])
    margin = margin_field(spec, field_margin_fn)
    sol = value_iteration(
        margin,
        equispaced_actions(cfg["n_action_samples"]),
        gamma=cfg["gamma"],
        dt=cfg["dt"],
        tol=cfg["vi_tol"],
        max_iters=cfg["vi_max_sweeps"],
    )
    if not sol.converged:
        raise RuntimeError(
            f"value iteration did not converge: residual {sol.residuals[-1]:.3g} after {sol.sweeps} sweeps "
            f"is not below vi_tol = {cfg['vi_tol']:g}; raise vi_max_sweeps (now {cfg['vi_max_sweeps']}) "
            "or loosen vi_tol"
        )
    save_field(sol.field, os.path.join(out_dir, "value_grid.txt"))
    save_field(margin, os.path.join(out_dir, "margin_grid.txt"))
    return margin, sol.field


def _resolve_actor_critic(cfg: dict, out_dir: str, margin_fn, mix_nominal: bool | None = None, tag: str = "rl"):
    """Load or train the fallback actor and safety critic."""
    if cfg["critic_model"] or cfg["actor_model"]:
        if not (cfg["critic_model"] and cfg["actor_model"]):
            raise ConfigError("critic_model and actor_model must be set together")
        for key in ("critic_model", "actor_model"):
            if not os.path.exists(cfg[key]):
                raise ConfigError(f"{key} file not found: {cfg[key]}")
        return load_model(cfg["actor_model"]), load_model(cfg["critic_model"])
    if not cfg["train_missing"]:
        raise ConfigError("critic/actor missing: set critic_model and actor_model or train_missing = true")
    rl_cfg = RlConfig(
        gamma=cfg["gamma"],
        critic_lr=cfg["rl_critic_lr"],
        actor_lr=cfg["rl_actor_lr"],
        batch_size=cfg["rl_batch_size"],
        buffer_capacity=cfg["rl_buffer_capacity"],
        iterations=cfg["rl_iterations"],
        episode_len=cfg["rl_episode_len"],
        actor_dims=tuple(cfg["rl_actor_dims"]),
        critic_dims=tuple(cfg["rl_critic_dims"]),
        tau=cfg["rl_tau"],
        exploration_std=cfg["rl_exploration_std"],
        exploration_std_final=cfg["rl_exploration_std_final"],
        mix_nominal=cfg["rl_mix_nominal"] if mix_nominal is None else mix_nominal,
        seed=cfg["seed"],
    )
    actor, critic, _ = train_safety_rl(margin_fn, _nominal_cfg(cfg), rl_cfg, out_dir=os.path.join(out_dir, tag))
    return actor, critic


def _build_backend(cfg: dict, out_dir: str):
    """Backend for the runtime filters, per filter_backend."""
    margin_fn, net = _resolve_margin(cfg, out_dir)
    if cfg["filter_backend"] == "grid":
        margin_f, value_f = _resolve_grid(cfg, out_dir, _margin_for_field(cfg, margin_fn, net))
        return GridBackend(
            value_f,
            margin_f,
            actions=equispaced_actions(cfg["n_action_samples"]),
            gamma=cfg["gamma"],
            dt=cfg["dt"],
        )
    actor, critic = _resolve_actor_critic(cfg, out_dir, margin_fn)
    return CriticBackend(critic, actor, dt=cfg["dt"])


def _filter_config(cfg: dict, alpha: float | None = None) -> FilterConfig:
    return FilterConfig(
        alpha=cfg["alpha"] if alpha is None else alpha,
        epsilon=cfg["epsilon"],
        query_mode=cfg["query_mode"],
        sampler=SamplerSpec(kind="equispaced_1d", n=cfg["n_action_samples"]),
        gamma=cfg["gamma"],
        dt=cfg["dt"],
    )


def _make_action_filter(method: str, backend, cfg: dict, alpha: float | None = None):
    if method == "none":
        return None
    if method == "lr":
        return lambda state, a_nom: lr_filter(state, a_nom, backend, cfg["epsilon"])
    if method == "cbf":
        fcfg = _filter_config(cfg, alpha)
        return lambda state, a_nom: cbf_filter(state, a_nom, backend, fcfg)
    raise ConfigError(f"unknown filter method {method!r}")


def _evaluation_starts(cfg: dict) -> np.ndarray:
    return sample_initial_states(np.random.default_rng([cfg["seed"], 777]), cfg["n_rollouts"])


def _run_rollouts(cfg: dict, action_filter, label: str, out_dir: str) -> list:
    """n_rollouts trajectories with per-rollout policy-noise streams."""
    nom = _nominal_cfg(cfg)
    starts = _evaluation_starts(cfg)
    traj_dir = os.path.join(out_dir, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    records = []
    for k in range(cfg["n_rollouts"]):
        rng = np.random.default_rng([cfg["seed"], 1000 + k])
        policy = lambda s: nominal_policy(s, nom, rng=rng)
        rec = rollout(policy, starts[k], cfg["rollout_steps"], action_filter=action_filter, dt=cfg["dt"])
        save_trajectory_csv(rec, os.path.join(traj_dir, f"{label}_{k:03d}.csv"))
        records.append(rec)
    return records


def override_statistics(records) -> tuple[float, float]:
    """Mean and std of override magnitudes over steps where the filter acted.

    Steps with |a_exec - a_nom| below dubins.OVERRIDE_THRESHOLD do not count
    as interventions; with no interventions at all both statistics are 0.
    """
    deltas = np.concatenate([rec.override_magnitudes for rec in records]) if records else np.array([])
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
    records = _run_rollouts(cfg, None, "nominal", out_dir)
    rows = []
    for mode, use_gp in (("gp", True), ("nogp", False)):
        net = _train_margin_net(cfg, use_gp, out_dir)
        metrics = evaluate_margin(net, records)
        save_metrics_csv(metrics, os.path.join(out_dir, f"margin_metrics_{mode}.csv"))
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


def _experiment_filter_comparison(cfg: dict, out_dir: str) -> MetricsTable:
    backend = _build_backend(cfg, out_dir)
    rows = []
    for method in cfg["methods"]:
        records = _run_rollouts(cfg, _make_action_filter(method, backend, cfg), method, out_dir)
        avg, std = override_statistics(records)
        rows.append(
            MetricsRow(
                method=method,
                margin_mode=cfg["margin_mode"],
                alpha=cfg["alpha"] if method == "cbf" else NA,
                safety_rate=safety_rate(records),
                avg_override=avg,
                override_std=std,
            )
        )
    return MetricsTable(rows)


def _experiment_alpha_ablation(cfg: dict, out_dir: str) -> MetricsTable:
    backend = _build_backend(cfg, out_dir)
    rows = []
    for alpha in cfg["alpha_list"]:
        label = f"cbf_alpha_{alpha:g}"
        records = _run_rollouts(cfg, _make_action_filter("cbf", backend, cfg, alpha), label, out_dir)
        avg, std = override_statistics(records)
        rows.append(
            MetricsRow(
                method="cbf",
                margin_mode=cfg["margin_mode"],
                alpha=float(alpha),
                safety_rate=safety_rate(records),
                avg_override=avg,
                override_std=std,
            )
        )
    return MetricsTable(rows)


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
    rows, report_lines = [], ["margin_mode,L_ell,L_f,L_V,bound,holds"]
    for mode in cfg["lip_margin_modes"]:
        if mode == "exact":
            fn = signed_distance_margin
        elif mode == "sat":
            fn = _saturated_margin(cfg)
        else:
            sub = dict(cfg)
            sub["margin_mode"] = "gp"
            margin_fn, net = _resolve_margin(sub, out_dir)
            fn = _margin_for_field(sub, margin_fn, net)
        report = verify_margin_value_bound(
            margin_field(spec, fn),
            gamma=gamma,
            dt=cfg["dt"],
            action_set=actions,
            L_f=L_f,
            vi_tol=cfg["vi_tol"],
            max_iters=cfg["vi_max_sweeps"],
        )
        report_lines.append(
            f"{mode},{report.L_ell:.17g},{report.L_f:.17g},{report.L_V:.17g},"
            f"{report.bound:.17g},{str(report.holds).lower()}"
        )
        rows.append(MetricsRow(method="lipschitz_bound", margin_mode=mode))
    with open(os.path.join(out_dir, "bound_report.csv"), "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    return MetricsTable(rows)


def _experiment_mix_ablation(cfg: dict, out_dir: str) -> MetricsTable:
    """Mixed vs fallback-only replay buffers, scored against the grid backup.

    The critic learns tanh-squashed labels, so the oracle grid is solved on
    the tanh of the same margin before the mean absolute errors compare.
    """
    margin_fn, _ = _resolve_margin(cfg, out_dir)
    tanh_fn = lambda pts: np.tanh(margin_fn(np.atleast_2d(pts)))
    grid_cfg = dict(cfg)
    grid_cfg["value_grid"] = grid_cfg["margin_grid"] = ""
    margin_f, value_f = _resolve_grid(grid_cfg, out_dir, tanh_fn)
    nom = _nominal_cfg(cfg)
    rows, lines = [], ["variant,eval_source,mae"]
    for variant, mixed in (("critic_mixed", True), ("critic_fallback_only", False)):
        actor, critic = _resolve_actor_critic(cfg, out_dir, margin_fn, mix_nominal=mixed, tag=variant)
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
            lines.append(f"{variant},{source},{mae:.17g}")
        rows.append(MetricsRow(method=variant, margin_mode=cfg["margin_mode"]))
    with open(os.path.join(out_dir, "mix_report.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return MetricsTable(rows)


def throughput_benchmark(backend, sizes, query_mode: str, reps: int, gamma: float, dt: float) -> list:
    """Latency of batched candidate scoring for each batch size.

    Each size is timed over reps repetitions after 3 warmup calls.  The
    model-based mode inherently pays one dynamics step per candidate.

    Returns:
        List of dicts: query_mode, n_samples, reps, mean_ms, std_ms,
        per_sample_us.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    state = np.array([-1.0, 0.4, 0.3])
    fcfg = FilterConfig(query_mode=query_mode, gamma=gamma, dt=dt)
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
    margin_fn, _ = _resolve_margin(cfg, out_dir)
    actor, critic = _resolve_actor_critic(cfg, out_dir, margin_fn)
    backend = CriticBackend(critic, actor, dt=cfg["dt"])
    rows, lines = [], ["query_mode,n_samples,reps,mean_ms,std_ms,per_sample_us"]
    for mode in cfg["bench_modes"]:
        results = throughput_benchmark(
            backend, cfg["bench_sizes"], mode, cfg["bench_reps"], cfg["gamma"], cfg["dt"]
        )
        for res in results:
            lines.append(
                f"{res['query_mode']},{res['n_samples']},{res['reps']},"
                f"{res['mean_ms']:.6f},{res['std_ms']:.6f},{res['per_sample_us']:.6f}"
            )
        rows.append(MetricsRow(method=f"throughput_{mode}"))
    with open(os.path.join(out_dir, "bench.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    name = cfg["experiment"]
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w") as fh:
        fh.write(format_config(cfg))
    table = _EXPERIMENTS[name](cfg, out_dir)
    table.save_csv(os.path.join(out_dir, "metrics.csv"))
    return table
