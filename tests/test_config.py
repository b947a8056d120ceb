"""Tests for the flat key=value config parser and schema."""

import pytest

from cbfforge.config import (
    ConfigError,
    SCHEMA,
    default_config,
    describe_keys,
    format_config,
    load_config,
    parse_config_text,
)


def test_defaults_cover_every_key():
    cfg = load_config()
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
        load_config(str(path))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("train_missing = maybe")


@pytest.mark.parametrize("key", [key for key, spec in SCHEMA.items() if spec[2] is not None])
def test_every_choice_key_rejects_a_bad_override(key):
    kind, _, choices, _ = SCHEMA[key]
    bad, good = ((choices[0], "bogus"), choices) if kind == "strs" else ("bogus", choices[-1])
    with pytest.raises(ConfigError, match=f"{key}: 'bogus' is not one of"):
        load_config(None, {key: bad})
    assert load_config(None, {key: good})[key] == good


def test_validation_rules():
    with pytest.raises(ConfigError, match="alpha"):
        load_config(overrides={"alpha": 1.0})
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(overrides={"epsilon": -0.1})
    with pytest.raises(ConfigError, match="dt"):
        load_config(overrides={"dt": 0.0})
    with pytest.raises(ConfigError, match="positive"):
        load_config(overrides={"n_rollouts": 0})
    with pytest.raises(ConfigError, match="methods"):
        load_config(overrides={"methods": ("none", "pid")})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides={"mystery": 1})


def test_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nalpha = 0.5\n")
    cfg = load_config(str(path), overrides={"seed": 9})
    assert cfg["seed"] == 9  # override beats file
    assert cfg["alpha"] == 0.5  # file beats default
    assert cfg["epsilon"] == 0.2  # default survives
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))


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
