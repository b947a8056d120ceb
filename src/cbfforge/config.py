"""Flat key=value experiment configuration with a typed schema.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment, blank lines are ignored.  Every key must appear in the schema;
unknown keys are rejected so typos fail loudly.  List-valued settings use
commas (``alpha_list = 0.7, 0.95``).

SCHEMA is the one table of each key's type, default, allowed values and
help text.  load_config checks file settings and overrides against it.  The
setting dataclasses (the stage configs, hj.GridSpec) take their defaults and
checks from it: a field declared setting(key) serves one key, and from_config
fills it from a config.  Library entry points check a setting argument with
check_setting(key, value, ValueError); only per-step checks stay hand-written.
"""

from __future__ import annotations

import numbers
from dataclasses import field, fields, is_dataclass


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

# name -> (type, default, allowed values, help).  Allowed values are None
# (anything of the type), a tuple of choices, or an interval string such as
# "[1, inf)" or "(0, 1]"; an infinite end is open, so nan and inf are never
# in range.  A list key ("ints", "floats", "strs") is non-empty; each element is checked.
SCHEMA = {
    # run plumbing
    "experiment": ("str", "filter_comparison", EXPERIMENTS, "which experiment run_experiment executes"),
    "seed": ("int", 0, "[0, inf)", "master seed; per-rollout streams derive from it"),
    "output_dir": ("str", "out", None, "directory receiving every artifact of the run"),
    "n_rollouts": ("int", 100, "[1, inf)", "evaluation rollouts per method"),
    "rollout_steps": ("int", 60, "[1, inf)", "max steps per evaluation rollout"),
    "dt": ("float", 0.1, "(0, inf)", "integrator step of the vehicle dynamics"),
    "train_missing": ("bool", True, None, "train prerequisite models on demand instead of erroring"),
    # nominal task policy
    "nominal_mode": ("str", "obstacle_blind", ("obstacle_blind", "obstacle_aware"), "nominal policy variant"),
    "nominal_goal_x": ("float", 1.3, "(-inf, inf)", "goal x of the nominal policy"),
    "nominal_goal_y": ("float", 0.0, "(-inf, inf)", "goal y of the nominal policy"),
    "nominal_gain": ("float", 2.0, "(0, inf)", "heading gain of the nominal policy"),
    "nominal_noise_std": ("float", 0.0, "[0, inf)", "Gaussian action noise of the nominal policy"),
    # margin network
    "margin_mode": ("str", "exact", ("exact", "gp", "nogp"), "margin source: exact signed distance or a trained net"),
    "margin_model": ("str", "", None, "path to a saved margin net; empty trains on demand"),
    "margin_iterations": ("int", 8000, "[1, inf)", "margin training iterations"),
    "margin_batch_size": ("int", 256, "[1, inf)", "margin minibatch size per class"),
    "margin_learning_rate": ("float", 1e-3, "(0, inf)", "margin Adam learning rate"),
    "margin_hidden_dims": ("ints", (64, 64), "[1, inf)", "margin net hidden layer widths"),
    "margin_train_points": ("int", 50000, "[1, inf)", "size of the labeled margin training set"),
    "lambda_zs": ("float", 0.1, "[0, inf)", "weight of the separation term of the margin loss"),
    "lambda_gp": ("float", 10.0, "[0, inf)", "weight of the gradient penalty"),
    "lambda_sign": ("float", 1.0, "[0, inf)", "weight of the hinge sign loss"),
    "gp_beta": ("float", 0.1, "(0, inf)", "target gradient norm of the penalty"),
    "sign_delta": ("float", 0.75, "[0, inf)", "hinge offset used without the gradient penalty"),
    # value grid
    "grid_nx": ("int", 61, "[3, inf)", "grid nodes along x"),
    "grid_ny": ("int", 61, "[3, inf)", "grid nodes along y"),
    "grid_ntheta": ("int", 31, "[4, inf)", "grid nodes along theta"),
    "gamma": ("float", 0.995, "[0, 1]", "discount of the safety backup"),
    "vi_tol": ("float", 1e-6, "(0, inf)", "sup-norm convergence tolerance of the grid solve"),
    "vi_max_sweeps": ("int", 2000, "[1, inf)", "sweep cap of the grid solve"),
    "n_action_samples": ("int", 25, "[2, inf)", "equispaced action count for solver and sampler"),
    "value_grid": ("str", "", None, "path to a saved value field; empty solves on demand"),
    "margin_grid": ("str", "", None, "path to the matching saved margin field"),
    # safety actor-critic
    "rl_iterations": ("int", 40000, "[1, inf)", "actor-critic training iterations"),
    "rl_batch_size": ("int", 512, "[1, inf)", "actor-critic minibatch size"),
    "rl_buffer_capacity": ("int", 100000, "[1, inf)", "replay buffer capacity"),
    "rl_episode_len": ("int", 8, "[1, inf)", "steps per collected episode"),
    "rl_actor_dims": ("ints", (512, 512, 512), "[1, inf)", "actor hidden layer widths"),
    "rl_critic_dims": ("ints", (512, 512, 512), "[1, inf)", "critic hidden layer widths"),
    "rl_critic_lr": ("float", 3e-4, "(0, inf)", "critic learning rate"),
    "rl_actor_lr": ("float", 1e-4, "(0, inf)", "actor learning rate"),
    "rl_tau": ("float", 0.005, "(0, inf)", "soft-update rate of the target critic"),
    "rl_exploration_std": ("float", 0.3, "[0, inf)", "initial fallback exploration noise"),
    "rl_exploration_std_final": ("float", 0.05, "[0, inf)", "final fallback exploration noise"),
    "rl_mix_nominal": ("bool", True, None, "mix nominal-policy episodes into the buffer"),
    "critic_model": ("str", "", None, "path to a saved critic; empty trains on demand"),
    "actor_model": ("str", "", None, "path to the matching saved actor"),
    # runtime filter
    "alpha": ("float", 0.85, "[0, 1)", "decay rate of the barrier constraint"),
    "alpha_list": ("floats", (0.7, 0.95), "[0, 1)", "alphas swept by the alpha ablation"),
    "epsilon": ("float", 0.2, "(0, inf)", "safety threshold of the filters"),
    "query_mode": ("str", "model_free", _QUERY_MODES, "how candidate actions are scored"),
    "filter_backend": ("str", "grid", ("grid", "critic"), "Q source for the filters"),
    "methods": ("strs", ("none", "lr", "cbf"), ("none", "lr", "cbf"), "filters compared by filter_comparison"),
    # margin-to-value bound
    "lip_gamma": ("float", 0.9, "[0, 1)", "discount used by the bound verification"),
    "lip_margin_modes": ("strs", ("exact", "gp", "sat"), ("exact", "gp", "sat"), "margins checked against the bound"),
    "lip_fd_samples": ("int", 2000, "[1, inf)", "samples for the dynamics Lipschitz estimate"),
    "sat_scale": ("float", 4.0, "(-inf, inf)", "slope of the saturated-tanh margin variant"),
    # throughput benchmark
    "bench_sizes": ("ints", (1, 10, 100, 1000, 10000), "[1, inf)", "candidate batch sizes benchmarked"),
    "bench_reps": ("int", 50, "[1, inf)", "timed repetitions per size (after warmup)"),
    "bench_modes": ("strs", ("model_free", "model_based"), _QUERY_MODES, "query modes benchmarked"),
}

# Per scalar kind: the parser of one file token, and the type a value must have.
_PARSERS = {"int": int, "float": float, "str": str}
_TYPES = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}


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
    if kind == "bool":
        return _parse_bool(raw, key)
    parse = _PARSERS[kind.removesuffix("s")]
    try:
        if kind in _PARSERS:
            return parse(raw)
        return tuple(parse(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc


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


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then file settings, then programmatic overrides.

    Args:
        path: config file, or None for the defaults alone.
        overrides: already-typed settings (e.g. CLI flags).

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
    for key, value in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    validate_config(cfg)
    return cfg


def _allowed(value, allowed) -> bool:
    """Whether value is one of a choices tuple or lies in an interval string."""
    if isinstance(allowed, tuple):
        return value in allowed
    low, high = (float(end) for end in allowed[1:-1].split(","))
    above = value >= low if allowed[0] == "[" else value > low
    below = value <= high if allowed[-1] == "]" else value < high
    return above and below


def validate_config(cfg: dict) -> None:
    """Check every value, and every element of a list value, against SCHEMA."""
    for key in SCHEMA:
        check_setting(key, cfg[key], ConfigError)


def check_setting(key: str, value, error: type[Exception]) -> None:
    """Raise error, its message led by the key, unless value has key's type and
    allowed values; a list value is a non-empty tuple checked per element."""
    kind, _, allowed, _ = SCHEMA[key]
    scalar = kind.removesuffix("s")
    if scalar != kind and not isinstance(value, tuple):
        raise error(f"{key}: expected a tuple of {kind}, got {value!r}")
    if scalar != kind and not value:
        raise error(f"{key}: expected at least one {scalar}, got none")
    for item in value if scalar != kind else (value,):
        # bool subclasses int, so True would pass as 1 without the second test.
        if not isinstance(item, _TYPES[scalar]) or (isinstance(item, bool) and scalar != "bool"):
            raise error(f"{key}: expected {kind}, got {item!r}")
        if allowed is not None and not _allowed(item, allowed):
            where = "one of" if isinstance(allowed, tuple) else "in"
            raise error(f"{key}: {item!r} is not {where} {allowed}")


def setting(key: str):
    """A dataclass field with key's SCHEMA default and the key in its metadata;
    a required setting is field(metadata={"key": key}), with no default."""
    return field(default=SCHEMA[key][1], metadata={"key": key})


def check_fields(obj) -> None:
    """Check each setting field of a dataclass as load_config checks its key."""
    for f in fields(obj):
        if "key" in f.metadata:
            check_setting(f.metadata["key"], getattr(obj, f.name), ValueError)


def from_config(cls, cfg: dict, **extra):
    """cls with each setting field at cfg[key], each dataclass-made field built
    from cfg the same way, and the remaining fields from extra."""
    kwargs = {}
    for f in fields(cls):
        if "key" in f.metadata:
            kwargs[f.name] = cfg[f.metadata["key"]]
        elif is_dataclass(f.default_factory):
            kwargs[f.name] = from_config(f.default_factory, cfg)
    return cls(**kwargs, **extra)


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
    for key, (kind, default, allowed, help_text) in SCHEMA.items():
        if allowed:
            help_text += f" (one of {', '.join(allowed)})" if isinstance(allowed, tuple) else f" (in {allowed})"
        lines.append(f"  {key} ({kind}, default {default!r}): {help_text}")
    return "\n".join(lines)
