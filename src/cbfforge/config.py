"""Flat key=value experiment configuration with a typed schema.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment, blank lines are ignored.  Every key must appear in the schema;
unknown keys are rejected so typos fail loudly.  List-valued settings use
commas (``alpha_list = 0.7, 0.95``).
"""

from __future__ import annotations


class ConfigError(Exception):
    """Raised for unknown keys, malformed values, or invalid settings."""


EXPERIMENTS = (
    "margin_quality",
    "filter_comparison",
    "alpha_ablation",
    "lipschitz_bound",
    "mix_ablation",
    "throughput",
)

_QUERY_MODES = ("model_free", "model_based")

# name -> (type, default, choices or None, help); a "strs" key checks its
# choices per element.
SCHEMA = {
    # run plumbing
    "experiment": ("str", "filter_comparison", EXPERIMENTS, "which experiment run_experiment executes"),
    "seed": ("int", 0, None, "master seed; per-rollout streams derive from it"),
    "output_dir": ("str", "out", None, "directory receiving every artifact of the run"),
    "n_rollouts": ("int", 100, None, "evaluation rollouts per method"),
    "rollout_steps": ("int", 60, None, "max steps per evaluation rollout"),
    "dt": ("float", 0.1, None, "integrator step of the vehicle dynamics"),
    "train_missing": ("bool", True, None, "train prerequisite models on demand instead of erroring"),
    # nominal task policy
    "nominal_mode": ("str", "obstacle_blind", ("obstacle_blind", "obstacle_aware"), "nominal policy variant"),
    "nominal_goal_x": ("float", 1.3, None, "goal x of the nominal policy"),
    "nominal_goal_y": ("float", 0.0, None, "goal y of the nominal policy"),
    "nominal_gain": ("float", 2.0, None, "heading gain of the nominal policy"),
    "nominal_noise_std": ("float", 0.0, None, "Gaussian action noise of the nominal policy"),
    # margin network
    "margin_mode": ("str", "exact", ("exact", "gp", "nogp"), "margin source: exact signed distance or a trained net"),
    "margin_model": ("str", "", None, "path to a saved margin net; empty trains on demand"),
    "margin_iterations": ("int", 8000, None, "margin training iterations"),
    "margin_batch_size": ("int", 256, None, "margin minibatch size per class"),
    "margin_learning_rate": ("float", 1e-3, None, "margin Adam learning rate"),
    "margin_hidden_dims": ("ints", (64, 64), None, "margin net hidden layer widths"),
    "margin_train_points": ("int", 50000, None, "size of the labeled margin training set"),
    "lambda_zs": ("float", 0.1, None, "weight of the separation term of the margin loss"),
    "lambda_gp": ("float", 10.0, None, "weight of the gradient penalty"),
    "lambda_sign": ("float", 1.0, None, "weight of the hinge sign loss"),
    "gp_beta": ("float", 0.1, None, "target gradient norm of the penalty"),
    "sign_delta": ("float", 0.75, None, "hinge offset used without the gradient penalty"),
    # value grid
    "grid_nx": ("int", 61, None, "grid nodes along x"),
    "grid_ny": ("int", 61, None, "grid nodes along y"),
    "grid_ntheta": ("int", 31, None, "grid nodes along theta"),
    "gamma": ("float", 0.995, None, "discount of the safety backup"),
    "vi_tol": ("float", 1e-6, None, "sup-norm convergence tolerance of the grid solve"),
    "vi_max_sweeps": ("int", 2000, None, "sweep cap of the grid solve"),
    "n_action_samples": ("int", 25, None, "equispaced action count for solver and sampler"),
    "value_grid": ("str", "", None, "path to a saved value field; empty solves on demand"),
    "margin_grid": ("str", "", None, "path to the matching saved margin field"),
    # safety actor-critic
    "rl_iterations": ("int", 40000, None, "actor-critic training iterations"),
    "rl_batch_size": ("int", 512, None, "actor-critic minibatch size"),
    "rl_buffer_capacity": ("int", 100000, None, "replay buffer capacity"),
    "rl_episode_len": ("int", 8, None, "steps per collected episode"),
    "rl_actor_dims": ("ints", (512, 512, 512), None, "actor hidden layer widths"),
    "rl_critic_dims": ("ints", (512, 512, 512), None, "critic hidden layer widths"),
    "rl_critic_lr": ("float", 3e-4, None, "critic learning rate"),
    "rl_actor_lr": ("float", 1e-4, None, "actor learning rate"),
    "rl_tau": ("float", 0.005, None, "soft-update rate of the target critic"),
    "rl_exploration_std": ("float", 0.3, None, "initial fallback exploration noise"),
    "rl_exploration_std_final": ("float", 0.05, None, "final fallback exploration noise"),
    "rl_mix_nominal": ("bool", True, None, "mix nominal-policy episodes into the buffer"),
    "critic_model": ("str", "", None, "path to a saved critic; empty trains on demand"),
    "actor_model": ("str", "", None, "path to the matching saved actor"),
    # runtime filter
    "alpha": ("float", 0.85, None, "decay rate of the barrier constraint"),
    "alpha_list": ("floats", (0.7, 0.95), None, "alphas swept by the alpha ablation"),
    "epsilon": ("float", 0.2, None, "safety threshold of the filters"),
    "query_mode": ("str", "model_free", _QUERY_MODES, "how candidate actions are scored"),
    "filter_backend": ("str", "grid", ("grid", "critic"), "Q source for the filters"),
    "methods": ("strs", ("none", "lr", "cbf"), ("none", "lr", "cbf"), "filters compared by filter_comparison"),
    # margin-to-value bound
    "lip_gamma": ("float", 0.9, None, "discount used by the bound verification"),
    "lip_margin_modes": ("strs", ("exact", "gp", "sat"), ("exact", "gp", "sat"), "margins checked against the bound"),
    "lip_fd_samples": ("int", 2000, None, "samples for the dynamics Lipschitz estimate"),
    "sat_scale": ("float", 4.0, None, "slope of the saturated-tanh margin variant"),
    # throughput benchmark
    "bench_sizes": ("ints", (1, 10, 100, 1000, 10000), None, "candidate batch sizes benchmarked"),
    "bench_reps": ("int", 50, None, "timed repetitions per size (after warmup)"),
    "bench_modes": ("strs", ("model_free", "model_based"), _QUERY_MODES, "query modes benchmarked"),
}

_POSITIVE_KEYS = (
    "n_rollouts",
    "rollout_steps",
    "margin_iterations",
    "margin_batch_size",
    "margin_train_points",
    "grid_nx",
    "grid_ny",
    "grid_ntheta",
    "n_action_samples",
    "rl_iterations",
    "rl_batch_size",
    "rl_buffer_capacity",
    "rl_episode_len",
    "bench_reps",
    "lip_fd_samples",
)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    kind = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
        elif kind == "bool":
            value = _parse_bool(raw, key)
        elif kind == "str":
            value = raw
        elif kind == "ints":
            value = tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        elif kind == "floats":
            value = tuple(float(part.strip()) for part in raw.split(",") if part.strip())
        elif kind == "strs":
            value = tuple(part.strip() for part in raw.split(",") if part.strip())
        else:  # pragma: no cover - schema is static
            raise ConfigError(f"{key}: unhandled type {kind}")
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc
    return value


def default_config() -> dict:
    return {key: spec[1] for key, spec in SCHEMA.items()}


def parse_config_text(text: str) -> dict:
    """Parse config-file text into a {key: value} dict of overrides."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file settings, then programmatic overrides.

    Args:
        path: optional config file.
        overrides: optional already-typed settings (e.g. CLI flags).

    Returns:
        Complete validated config dict covering every schema key.
    """
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg.update(parse_config_text(text))
    if overrides:
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    for key in _POSITIVE_KEYS:
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be a positive integer")
    if cfg["dt"] <= 0.0:
        raise ConfigError("dt must be positive")
    if not 0.0 <= cfg["gamma"] <= 1.0:
        raise ConfigError("gamma must lie in [0, 1]")
    if not 0.0 <= cfg["alpha"] < 1.0:
        raise ConfigError("alpha must lie in [0, 1)")
    if any(not 0.0 <= a < 1.0 for a in cfg["alpha_list"]):
        raise ConfigError("alpha_list entries must lie in [0, 1)")
    if cfg["epsilon"] <= 0.0:
        raise ConfigError("epsilon must be positive")
    for key, (kind, _, choices, _) in SCHEMA.items():
        if choices is None:
            continue
        for value in cfg[key] if kind == "strs" else (cfg[key],):
            if value not in choices:
                raise ConfigError(f"{key}: {value!r} is not one of {choices}")


def format_config(cfg: dict) -> str:
    """Render a config as sorted ``key = value`` lines (round-trippable)."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            rendered = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def describe_keys() -> str:
    """Human-readable schema listing for --help output."""
    lines = []
    for key, (kind, default, choices, help_text) in SCHEMA.items():
        extra = f" (one of {', '.join(map(str, choices))})" if choices else ""
        lines.append(f"  {key} ({kind}, default {default!r}): {help_text}{extra}")
    return "\n".join(lines)
