"""Tests for the command line interface: exit codes, artifacts, flags."""

import os
import subprocess
import sys

import numpy as np
import pytest

from cbfforge.cli import main
from cbfforge.hj import load_field
from cbfforge.nets import mlp_init, save_model
from oracles import decimal_save_model

TINY_GRID = [
    "grid_nx = 17",
    "grid_ny = 17",
    "grid_ntheta = 9",
    "vi_tol = 1e-4",
]


def _write_cfg(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_help_lists_subcommands_and_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("train-margin", "solve-grid", "train-rl", "filter-eval",
                "verify-bound", "bench", "demo"):
        assert sub in out
    assert "config keys:" in out
    assert "alpha_list" in out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "warp_factor = 9")
    assert main(["filter-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub,lines",
    [
        ("solve-grid", ["vi_max_sweeps = 0"]),
        ("solve-grid", ["vi_tol = 0"]),
        ("filter-eval", ["grid_nx = 2", "margin_mode = gp"]),
        ("filter-eval", ["n_action_samples = 1"]),
        ("train-margin", ["margin_learning_rate = 0", "margin_mode = gp"]),
        ("bench", ["bench_sizes = 0"]),
        ("demo", ["seed = -1"]),
        ("train-rl", ["rl_actor_dims ="]),
        ("filter-eval", ["methods ="]),
        ("filter-eval", ["nominal_goal_x = nan"]),
    ],
    ids=[
        "vi_max_sweeps", "vi_tol", "grid_nx", "n_action_samples", "margin_learning_rate", "bench_sizes", "seed",
        "rl_actor_dims-empty", "methods-empty", "nominal_goal_x-nan",
    ],
)
def test_out_of_range_value_exits_2_before_any_artifact(tmp_path, capsys, sub, lines):
    # The library would refuse each value only at run time, some after a net
    # has trained; the schema's ranges refuse it at load.
    out = tmp_path / "o"
    out.mkdir()
    cfg = _write_cfg(tmp_path, *lines)
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    key = lines[0].split("=")[0].strip()  # the out-of-range line comes first
    assert f"config error: {key}: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_bound_hypothesis_violation_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "lip_gamma = 0.96", "lip_fd_samples = 500")
    assert main(["verify-bound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "hypothesis" in capsys.readouterr().err


def test_train_margin_rejects_exact_mode(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "margin_mode = exact")
    assert main(["train-margin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "margin_mode" in capsys.readouterr().err


def test_train_margin_is_byte_deterministic(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "margin_mode = nogp",
        "margin_iterations = 150",
        "margin_train_points = 2000",
        "margin_batch_size = 64",
    )
    assert main(["train-margin", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["train-margin", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "margin_nogp.txt").read_bytes()
    second = (tmp_path / "b" / "margin_nogp.txt").read_bytes()
    assert first == second


def test_solve_grid_writes_loadable_fields(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_GRID)
    out = tmp_path / "grid"
    assert main(["solve-grid", "--config", cfg, "--out", str(out)]) == 0
    assert "17x17x9" in capsys.readouterr().out
    value = load_field(str(out / "value_grid.txt"), kind="value")
    margin = load_field(str(out / "margin_grid.txt"), kind="margin")
    assert value.spec.nx == 17 and margin.spec.ntheta == 9
    # the discounted value never exceeds the raw margin
    assert np.all(value.values <= margin.values + 1e-12)


def test_unconverged_grid_solve_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "vi_max_sweeps = 2")
    out = tmp_path / "grid"
    assert main(["solve-grid", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "after 2 sweeps" in err
    assert "vi_tol = 0.0001" in err and "vi_max_sweeps (now 2)" in err
    assert not (out / "value_grid.txt").exists()


@pytest.mark.parametrize("cap, status", [(2000, "converged"), (2, "not_converged")])
def test_solve_grid_writes_its_residual_history(tmp_path, cap, status):
    cfg = _write_cfg(tmp_path, *TINY_GRID, f"vi_max_sweeps = {cap}")
    out = tmp_path / "grid"
    assert main(["solve-grid", "--config", cfg, "--out", str(out)]) == (0 if status == "converged" else 1)
    lines = (out / "vi_residuals.csv").read_text().splitlines()
    assert lines[0] == "sweep,residual,jump"
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert len(rows) <= cap and {r[2] for r in rows} <= {"no", "kept", "rejected"}
    label, bound, final = lines[-1].split(",")
    assert (label, final) == ("bound", status)
    # gamma / (1 - gamma) * the residual of the returned field's sweep
    last = [float(r[1]) for r in rows if r[2] != "rejected"][-1]
    assert float(bound) == pytest.approx(0.995 / 0.005 * last, rel=1e-12)
    if status == "converged":
        assert last < 1e-4


def test_unconverged_bound_solve_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "vi_max_sweeps = 2", "lip_margin_modes = exact", "lip_fd_samples = 500")
    out = tmp_path / "bound"
    assert main(["verify-bound", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "after 2 sweeps" in err
    assert "vi_tol = 0.0001" in err and "vi_max_sweeps (now 2)" in err
    report = out / "bound_report.csv"
    assert not report.exists() or "true" not in report.read_text()


def test_demo_writes_trajectory_with_diagnostics(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "rollout_steps = 15")
    out = tmp_path / "demo"
    assert main(["demo", "--config", cfg, "--out", str(out)]) == 0
    assert "demo rollout" in capsys.readouterr().out
    lines = (out / "demo_trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,x,y,theta,a_nom,a_exec,margin,overridden,"
                       "feasible_count,q_nominal,q_fallback")
    assert len(lines) == 1 + 15


def test_demo_matches_first_filter_eval_trajectory(tmp_path):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "rollout_steps = 15", "n_rollouts = 1", "methods = cbf")
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "demo")]) == 0
    assert main(["filter-eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 0
    demo = (tmp_path / "demo" / "demo_trajectory.csv").read_bytes()
    assert demo == (tmp_path / "eval" / "trajectories" / "cbf_000.csv").read_bytes()


def test_seed_flag_changes_the_demo_start(tmp_path):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "rollout_steps = 5")
    main(["demo", "--config", cfg, "--out", str(tmp_path / "s0")])
    main(["demo", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "s5")])
    first = (tmp_path / "s0" / "demo_trajectory.csv").read_text()
    second = (tmp_path / "s5" / "demo_trajectory.csv").read_text()
    assert first != second


def test_filter_eval_runs_and_reports(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "n_rollouts = 3", "rollout_steps = 15")
    out = tmp_path / "eval"
    assert main(["filter-eval", "--config", cfg, "--out", str(out)]) == 0
    assert "3 rows" in capsys.readouterr().out
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["method", "none", "lr", "cbf"]


def test_filter_eval_on_saved_grid_needs_no_margin_net(tmp_path):
    grid = tmp_path / "grid"
    assert main(["solve-grid", "--config", _write_cfg(tmp_path, *TINY_GRID), "--out", str(grid)]) == 0
    cfg = _write_cfg(
        tmp_path,
        f"value_grid = {grid / 'value_grid.txt'}",
        f"margin_grid = {grid / 'margin_grid.txt'}",
        "margin_mode = nogp",
        "train_missing = false",
        "n_rollouts = 2",
        "rollout_steps = 5",
    )
    out = tmp_path / "eval"
    assert main(["filter-eval", "--config", cfg, "--out", str(out)]) == 0
    assert not list(out.glob("margin_*.txt"))


def test_filter_eval_on_saved_models_needs_no_margin_net(tmp_path):
    critic, actor = tmp_path / "critic.txt", tmp_path / "actor.txt"
    save_model(mlp_init([4, 16, 16, 1], seed=5), str(critic))
    save_model(mlp_init([3, 16, 16, 1], output_activation="tanh", seed=6), str(actor))
    cfg = _write_cfg(
        tmp_path,
        "filter_backend = critic",
        f"critic_model = {critic}",
        f"actor_model = {actor}",
        "margin_mode = nogp",
        "train_missing = false",
        "n_rollouts = 2",
        "rollout_steps = 5",
    )
    out = tmp_path / "eval"
    assert main(["filter-eval", "--config", cfg, "--out", str(out)]) == 0
    assert not list(out.glob("margin_*.txt"))



def test_filter_eval_with_swapped_grid_paths_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid"
    assert main(["solve-grid", "--config", _write_cfg(tmp_path, *TINY_GRID), "--out", str(grid)]) == 0
    cfg = _write_cfg(
        tmp_path,
        f"value_grid = {grid / 'margin_grid.txt'}",
        f"margin_grid = {grid / 'value_grid.txt'}",
        "n_rollouts = 2",
        "rollout_steps = 5",
    )
    capsys.readouterr()
    assert main(["filter-eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert f"{grid / 'margin_grid.txt'}: holds a margin grid, expected a value grid" in err


def test_filter_eval_with_decimal_critic_exits_1(tmp_path, capsys):
    critic, actor = tmp_path / "critic.txt", tmp_path / "actor.txt"
    decimal_save_model(mlp_init([4, 16, 16, 1], seed=5), str(critic))
    save_model(mlp_init([3, 16, 16, 1], output_activation="tanh", seed=6), str(actor))
    cfg = _write_cfg(
        tmp_path,
        "filter_backend = critic",
        f"critic_model = {critic}",
        f"actor_model = {actor}",
        "n_rollouts = 2",
        "rollout_steps = 5",
    )
    assert main(["filter-eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert f"error: {critic}: model file uses the old decimal format; regenerate it" in err
    assert "Traceback" not in err


TINY_RL = [
    "rl_iterations = 10",
    "rl_batch_size = 8",
    "rl_buffer_capacity = 64",
    "rl_episode_len = 4",
    "rl_actor_dims = 8",
    "rl_critic_dims = 8",
]


def test_train_rl_always_trains_under_train_missing_false(tmp_path):
    # train-rl ignores saved actor/critic models, so train_missing cannot gate them.
    cfg = _write_cfg(tmp_path, *TINY_RL, "train_missing = false")
    out = tmp_path / "rl_out"
    assert main(["train-rl", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "rl" / "critic.txt").exists()


def test_train_rl_still_needs_a_margin_net_under_train_missing_false(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, *TINY_RL, "margin_mode = gp", "train_missing = false")
    assert main(["train-rl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "margin net (gp) missing" in capsys.readouterr().err


def test_bench_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "bench_sizes = 1, 10",
        "bench_reps = 3",
        "rl_iterations = 60",
        "rl_batch_size = 32",
        "rl_buffer_capacity = 512",
        "rl_episode_len = 4",
        "rl_actor_dims = 16, 16",
        "rl_critic_dims = 16, 16",
    )
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_corrupt_model_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "margin_gp.txt"
    bad.write_text("this is not a model file\n")
    cfg = _write_cfg(
        tmp_path,
        *TINY_GRID,
        "margin_mode = gp",
        f"margin_model = {bad}",
        "n_rollouts = 2",
        "rollout_steps = 5",
    )
    assert main(["filter-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = _write_cfg(tmp_path, *TINY_GRID, "rollout_steps = 5")
    proc = subprocess.run(
        [sys.executable, "-m", "cbfforge.cli", "demo", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert os.path.exists(tmp_path / "o" / "demo_trajectory.csv")
