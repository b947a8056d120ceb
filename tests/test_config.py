"""Tests for the flat key=value config parser and schema."""

import inspect
import math
import operator
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from cbfforge.config import (
    ConfigError,
    SCHEMA,
    default_config,
    describe_keys,
    format_config,
    from_config,
    load_config,
    parse_config_text,
)
from cbfforge.dubins import NominalPolicyConfig, equispaced_actions, estimate_dynamics_lipschitz, rollout
from cbfforge.experiments import throughput_benchmark
from cbfforge.filters import FilterConfig, GridBackend
from cbfforge.hj import GridField, GridSpec, value_iteration, verify_margin_value_bound
from cbfforge.margin import MarginTrainConfig
from cbfforge.nets import mlp_init
from cbfforge.rl import ReplayBuffer, RlConfig


def test_defaults_cover_every_key():
    cfg = load_config(None, {})
    assert set(cfg) == set(SCHEMA)
    assert cfg["experiment"] == "filter_comparison"
    assert cfg["n_rollouts"] == 100
    assert cfg["alpha_list"] == (0.7, 0.95)


def test_parse_text_types_and_comments():
    text = """
    # a comment line
    seed = 7
    gamma = 0.9   # trailing comment
    rl_mix_nominal = false
    methods = lr, cbf
    alpha_list = 0.5, 0.85
    margin_hidden_dims = 32, 32
    output_dir = runs/demo
    """
    out = parse_config_text(text)
    assert out == {
        "seed": 7,
        "gamma": 0.9,
        "rl_mix_nominal": False,
        "methods": ("lr", "cbf"),
        "alpha_list": (0.5, 0.85),
        "margin_hidden_dims": (32, 32),
        "output_dir": "runs/demo",
    }


def test_parse_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("not_a_key = 3")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("seed = many")
    # Choices are checked once, by validation, for files and overrides alike.
    path = tmp_path / "run.cfg"
    path.write_text("experiment = tea_break\n")
    with pytest.raises(ConfigError, match="not one of"):
        load_config(str(path), {})
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("train_missing = maybe")


@pytest.mark.parametrize("key", [key for key, spec in SCHEMA.items() if isinstance(spec[2], tuple)])
def test_every_choice_key_rejects_a_bad_override(key):
    kind, _, choices, _ = SCHEMA[key]
    bad, good = ((choices[0], "bogus"), choices) if kind == "strs" else ("bogus", choices[-1])
    with pytest.raises(ConfigError, match=f"{key}: 'bogus' is not one of"):
        load_config(None, {key: bad})
    assert load_config(None, {key: good})[key] == good


def test_validation_rules():
    with pytest.raises(ConfigError, match=re.escape("alpha: 1.0 is not in [0, 1)")):
        load_config(None, {"alpha": 1.0})
    with pytest.raises(ConfigError, match=re.escape("epsilon: -0.1 is not in (0, inf)")):
        load_config(None, {"epsilon": -0.1})
    with pytest.raises(ConfigError, match=re.escape("dt: 0.0 is not in (0, inf)")):
        load_config(None, {"dt": 0.0})
    with pytest.raises(ConfigError, match=re.escape("n_rollouts: 0 is not in [1, inf)")):
        load_config(None, {"n_rollouts": 0})
    with pytest.raises(ConfigError, match="methods"):
        load_config(None, {"methods": ("none", "pid")})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"mystery": 1})


def test_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nalpha = 0.5\n")
    cfg = load_config(str(path), overrides={"seed": 9})
    assert cfg["seed"] == 9  # override beats file
    assert cfg["alpha"] == 0.5  # file beats default
    assert cfg["epsilon"] == 0.2  # default survives
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"), {})


def test_format_config_round_trips():
    cfg = default_config()
    cfg["seed"] = 42
    cfg["alpha_list"] = (0.6, 0.9)
    cfg["nominal_noise_std"] = 0.125
    parsed = parse_config_text(format_config(cfg))
    assert parsed == cfg


def test_describe_keys_documents_everything():
    text = describe_keys()
    for key in SCHEMA:
        assert key in text


def test_describe_keys_prints_each_range():
    text = describe_keys()
    assert "vi_max_sweeps (int, default 2000): sweep cap of the grid solve (in [1, inf))" in text
    assert "margin_mode (str, default 'exact')" in text and "(one of exact, gp, nogp)" in text


# ------------------------------------------------------------------ ranges


def _scalar(key, value):
    """value as the scalar type of key (or of its elements)."""
    return int(value) if SCHEMA[key][0].startswith("int") else float(value)


def _typed(key, value):
    """value as key holds it: a scalar, or a 1-tuple for a list key."""
    return (_scalar(key, value),) if SCHEMA[key][0].endswith("s") else _scalar(key, value)


def _finite_ends(key):
    """(side, value just outside, closed end or None) per finite interval end."""
    allowed = SCHEMA[key][2]
    low, high = (float(end) for end in allowed[1:-1].split(","))
    ends = []
    for side, end, closed, away in (("low", low, allowed[0] == "[", -1.0), ("high", high, allowed[-1] == "]", 1.0)):
        if math.isinf(end):
            continue
        outside = end
        if closed:
            outside = end + away if SCHEMA[key][0].startswith("int") else math.nextafter(end, away * math.inf)
        ends.append((side, outside, end if closed else None))
    return ends


RANGED = [key for key, spec in SCHEMA.items() if isinstance(spec[2], str)]
ENDS = [
    pytest.param(key, outside, closed, id=f"{key}-{side}")
    for key in RANGED
    for side, outside, closed in _finite_ends(key)
]


@pytest.mark.parametrize("key", [key for key in RANGED if SCHEMA[key][0].startswith("float")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_refused(key, bad):
    with pytest.raises(ConfigError, match=f"^{key}: .* is not in "):
        load_config(None, {key: _typed(key, bad)})
    for library in LIBRARY.get(key, []):
        with pytest.raises(ValueError):
            library(_scalar(key, bad))


@pytest.mark.parametrize("key", [key for key, spec in SCHEMA.items() if spec[0].endswith("s")])
def test_every_list_key_refuses_an_empty_list(key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(None, {key: ()})
    assert parse_config_text(f"{key} =") == {key: ()}  # a file spells the empty list so


@pytest.mark.parametrize("key", list(SCHEMA))
def test_wrongly_typed_override_names_the_key(key):
    kind = SCHEMA[key][0]
    bad = 3 if kind.startswith("str") else "3"
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        load_config(None, {key: (bad,) if kind.endswith("s") else bad})
    if kind.endswith("s"):
        with pytest.raises(ConfigError, match=f"^{key}: expected a tuple"):
            load_config(None, {key: list(SCHEMA[key][1])})
    # bool subclasses int: True must not pass as 1, nor False as 0.
    if kind != "bool":
        for flag in (True, False):
            with pytest.raises(ConfigError, match=f"^{key}: expected "):
                load_config(None, {key: (flag, *SCHEMA[key][1][:1]) if kind.endswith("s") else flag})


# Drift guard: for every ranged key that a library object also checks, the
# table and the library agree at each finite end.  The value just outside is
# refused by both and a closed end is accepted by both, so load_config never
# refuses a run the library would accept, nor passes a value the library
# refuses.  Both refuse nan and infinite floats too.


def _margin():
    return GridField(GridSpec(nx=5, ny=5, ntheta=6), np.full((5, 5, 6), 0.1), kind="margin")


def _solve(**kwargs):
    args = dict(margin=_margin(), action_set=equispaced_actions(3), gamma=0.9, dt=0.1, tol=1e-6, max_iters=5)
    return value_iteration(**{**args, **kwargs})


def _bench(sizes, reps):
    margin = _margin()
    value = GridField(margin.spec, margin.values, kind="value")
    backend = GridBackend(value, margin, actions=equispaced_actions(3), gamma=0.995, dt=0.1)
    return throughput_benchmark(backend, sizes, "model_free", reps)


def _margin_cfg(**kwargs):
    return MarginTrainConfig(**{"iterations": 8000, "use_gp": True, "seed": 0, **kwargs})


def _grid(**kwargs):
    return GridSpec(**{"nx": 61, "ny": 61, "ntheta": 31, **kwargs})


LIBRARY = {
    "nominal_goal_x": [lambda v: NominalPolicyConfig(goal_x=v)],
    "nominal_goal_y": [lambda v: NominalPolicyConfig(goal_y=v)],
    "nominal_noise_std": [lambda v: NominalPolicyConfig(noise_std=v)],
    "nominal_gain": [lambda v: NominalPolicyConfig(gain=v)],
    "lambda_zs": [lambda v: _margin_cfg(lambda_zs=v)],
    "lambda_gp": [lambda v: _margin_cfg(lambda_gp=v)],
    "lambda_sign": [lambda v: _margin_cfg(lambda_sign=v)],
    "sign_delta": [lambda v: _margin_cfg(delta=v)],
    "gp_beta": [lambda v: _margin_cfg(beta=v)],
    "margin_iterations": [lambda v: _margin_cfg(iterations=v)],
    "margin_batch_size": [lambda v: _margin_cfg(batch_size=v)],
    "margin_learning_rate": [lambda v: _margin_cfg(learning_rate=v)],
    "margin_hidden_dims": [lambda v: mlp_init([3, v, 1], seed=0)],
    "grid_nx": [lambda v: _grid(nx=v)],
    "grid_ny": [lambda v: _grid(ny=v)],
    "grid_ntheta": [lambda v: _grid(ntheta=v)],
    "n_action_samples": [equispaced_actions],
    "gamma": [lambda v: RlConfig(gamma=v), lambda v: FilterConfig(gamma=v), lambda v: _solve(gamma=v)],
    "dt": [
        lambda v: RlConfig(dt=v),
        lambda v: FilterConfig(dt=v),
        lambda v: _solve(dt=v),
        lambda v: estimate_dynamics_lipschitz(v, 10, 0),
        lambda v: rollout(lambda s: 0.0, np.array([-1.0, 0.4, 0.0]), 5, None, v),
    ],
    "vi_tol": [lambda v: _solve(tol=v)],
    "vi_max_sweeps": [lambda v: _solve(max_iters=v)],
    "rl_iterations": [lambda v: RlConfig(iterations=v)],
    "rl_batch_size": [lambda v: RlConfig(batch_size=v)],
    "rl_buffer_capacity": [lambda v: RlConfig(buffer_capacity=v), ReplayBuffer],
    "rl_episode_len": [lambda v: RlConfig(episode_len=v)],
    "rl_actor_dims": [lambda v: mlp_init([3, v, 1], seed=0)],
    "rl_critic_dims": [lambda v: mlp_init([4, v, 1], seed=0)],
    "rl_critic_lr": [lambda v: RlConfig(critic_lr=v)],
    "rl_actor_lr": [lambda v: RlConfig(actor_lr=v)],
    "rl_tau": [lambda v: RlConfig(tau=v)],
    "rl_exploration_std": [lambda v: RlConfig(exploration_std=v)],
    "rl_exploration_std_final": [lambda v: RlConfig(exploration_std_final=v)],
    "alpha": [lambda v: FilterConfig(alpha=v)],
    "alpha_list": [lambda v: FilterConfig(alpha=v)],
    "epsilon": [lambda v: FilterConfig(epsilon=v)],
    "rollout_steps": [lambda v: rollout(lambda s: 0.0, np.array([-1.0, 0.4, 0.0]), v, None, 0.1)],
    "lip_gamma": [lambda v: verify_margin_value_bound(_margin(), v, 0.1, equispaced_actions(3), 1.05, 1e-6, 2000)],
    "lip_fd_samples": [lambda v: estimate_dynamics_lipschitz(0.1, v, 0)],
    "bench_sizes": [lambda v: _bench((v,), 1)],
    "bench_reps": [lambda v: _bench((1,), v)],
}
# Ranged keys no library object checks: the table is their only owner.
TABLE_ONLY = {"seed", "n_rollouts", "margin_train_points", "sat_scale"}


def test_every_ranged_key_is_guarded_or_table_only():
    assert set(LIBRARY) | TABLE_ONLY == set(RANGED)
    assert not set(LIBRARY) & TABLE_ONLY


@pytest.mark.parametrize("key,outside,closed", ENDS)
def test_every_interval_end_is_enforced(key, outside, closed):
    with pytest.raises(ConfigError, match=f"^{key}: .* is not in "):
        load_config(None, {key: _typed(key, outside)})
    for library in LIBRARY.get(key, []):
        with pytest.raises(ValueError):
            library(_scalar(key, outside))
    if closed is not None:
        assert load_config(None, {key: _typed(key, closed)})[key] == _typed(key, closed)
        for library in LIBRARY.get(key, []):
            library(_scalar(key, closed))


# Each entry point that checks a setting argument with check_setting names
# the key in its refusal, as load_config does.
KEY_LED = [
    pytest.param("grid_nx", lambda: _grid(nx=2), id="GridSpec-grid_nx"),
    pytest.param("grid_ny", lambda: _grid(ny=2), id="GridSpec-grid_ny"),
    pytest.param("grid_ntheta", lambda: _grid(ntheta=3), id="GridSpec-grid_ntheta"),
    pytest.param("gamma", lambda: _solve(gamma=1.5), id="value_iteration-gamma"),
    pytest.param("dt", lambda: _solve(dt=math.nan), id="value_iteration-dt"),
    pytest.param("vi_tol", lambda: _solve(tol=math.nan), id="value_iteration-vi_tol"),
    pytest.param("vi_max_sweeps", lambda: _solve(max_iters=0), id="value_iteration-vi_max_sweeps"),
    pytest.param("lip_gamma", lambda: LIBRARY["lip_gamma"][0](1.0), id="verify_margin_value_bound-lip_gamma"),
    pytest.param("n_action_samples", lambda: equispaced_actions(1), id="equispaced_actions-n_action_samples"),
    pytest.param("rollout_steps", lambda: LIBRARY["rollout_steps"][0](0), id="rollout-rollout_steps"),
    pytest.param("dt", lambda: LIBRARY["dt"][-1](0.0), id="rollout-dt"),
    pytest.param("dt", lambda: estimate_dynamics_lipschitz(math.inf, 10, 0), id="estimate_dynamics_lipschitz-dt"),
    pytest.param(
        "lip_fd_samples", lambda: estimate_dynamics_lipschitz(0.1, 0, 0), id="estimate_dynamics_lipschitz-lip_fd_samples"
    ),
    pytest.param("bench_reps", lambda: _bench((1,), 0), id="throughput_benchmark-bench_reps"),
    pytest.param("bench_sizes", lambda: _bench((0,), 1), id="throughput_benchmark-bench_sizes"),
    pytest.param("rl_buffer_capacity", lambda: ReplayBuffer(0), id="ReplayBuffer-rl_buffer_capacity"),
]


@pytest.mark.parametrize("key,call", KEY_LED)
def test_entry_point_refusal_names_its_key(key, call):
    with pytest.raises(ValueError, match=f"^{key}: "):
        call()


# Defaults drift guard: the benchmark builds these library objects without
# the settings below, so each library default must be the SCHEMA default a
# CLI run passes.
_RL = RlConfig()
_MARGIN = MarginTrainConfig(iterations=1, use_gp=True, seed=0)
_FILTER = FilterConfig()
_NOMINAL = NominalPolicyConfig()
DEFAULT_PAIRS = {
    "RlConfig": [
        ("gamma", _RL.gamma),
        ("rl_critic_lr", _RL.critic_lr),
        ("rl_actor_lr", _RL.actor_lr),
        ("rl_buffer_capacity", _RL.buffer_capacity),
        ("rl_episode_len", _RL.episode_len),
        ("rl_actor_dims", _RL.actor_dims),
        ("rl_critic_dims", _RL.critic_dims),
        ("rl_tau", _RL.tau),
        ("rl_exploration_std", _RL.exploration_std),
        ("rl_exploration_std_final", _RL.exploration_std_final),
        ("rl_mix_nominal", _RL.mix_nominal),
        ("dt", _RL.dt),
    ],
    "MarginTrainConfig": [
        ("lambda_zs", _MARGIN.lambda_zs),
        ("lambda_gp", _MARGIN.lambda_gp),
        ("lambda_sign", _MARGIN.lambda_sign),
        ("gp_beta", _MARGIN.beta),
        ("sign_delta", _MARGIN.delta),
        ("margin_batch_size", _MARGIN.batch_size),
        ("margin_learning_rate", _MARGIN.learning_rate),
        ("margin_hidden_dims", _MARGIN.hidden_dims),
    ],
    "FilterConfig": [
        ("alpha", _FILTER.alpha),
        ("epsilon", _FILTER.epsilon),
        ("query_mode", _FILTER.query_mode),
        ("gamma", _FILTER.gamma),
        ("dt", _FILTER.dt),
        ("n_action_samples", _FILTER.sampler.n),
    ],
    "NominalPolicyConfig": [
        ("nominal_goal_x", _NOMINAL.goal_x),
        ("nominal_goal_y", _NOMINAL.goal_y),
        ("nominal_gain", _NOMINAL.gain),
        ("nominal_mode", _NOMINAL.mode),
        ("nominal_noise_std", _NOMINAL.noise_std),
    ],
    "value_iteration": [("vi_max_sweeps", inspect.signature(value_iteration).parameters["max_iters"].default)],
}


@pytest.mark.parametrize(
    "key,library",
    [pytest.param(key, value, id=f"{owner}-{key}") for owner, pairs in DEFAULT_PAIRS.items() for key, value in pairs],
)
def test_schema_default_is_the_library_default(key, library):
    assert SCHEMA[key][1] == library


# Mapping guard: from_config fills each stage field from the key it names.
# Each (class, field, key) triple is checked with an in-range value other
# than the default, so a field wired to the wrong key, or left at its
# default, fails.
STAGES = {RlConfig: {}, MarginTrainConfig: {"use_gp": True}, FilterConfig: {}, NominalPolicyConfig: {}, GridSpec: {}}


def _settings(cls, prefix=""):
    """(field path, key) of every setting field, through nested dataclasses."""
    for f in fields(cls):
        if "key" in f.metadata:
            yield prefix + f.name, f.metadata["key"]
        elif is_dataclass(f.default_factory):
            yield from _settings(f.default_factory, f"{prefix}{f.name}.")


def _other_value(key):
    """A value of key other than its default (the test checks it is in range)."""
    kind, default, allowed, _ = SCHEMA[key]
    if kind == "bool":
        return not default
    if kind == "str":
        return next(choice for choice in allowed if choice != default)
    if kind == "ints":
        return tuple(v + 1 for v in default)
    if kind == "int":
        return default + 1
    return default / 2 if default else 0.5


MAPPING = [(cls, path, key) for cls in STAGES for path, key in _settings(cls)]


def test_every_setting_key_is_a_schema_key():
    assert {key for _, _, key in MAPPING} <= set(SCHEMA)
    triples = {(cls.__name__, path, key) for cls, path, key in MAPPING}
    assert {
        ("MarginTrainConfig", "beta", "gp_beta"),
        ("MarginTrainConfig", "delta", "sign_delta"),
        ("FilterConfig", "sampler.n", "n_action_samples"),
    } <= triples


@pytest.mark.parametrize(
    "cls,path,key", [pytest.param(*triple, id=f"{triple[0].__name__}.{triple[1]}-{triple[2]}") for triple in MAPPING]
)
def test_from_config_fills_each_field_from_its_key(cls, path, key):
    value = _other_value(key)
    assert value != SCHEMA[key][1]
    cfg = load_config(None, {key: value})
    assert operator.attrgetter(path)(from_config(cls, cfg, **STAGES[cls])) == value
