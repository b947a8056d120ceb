"""Tests for experiment drivers, metrics tables, and the throughput bench."""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from cbfforge.config import ConfigError, load_config
from cbfforge.dubins import nominal_policy, rollout, sample_initial_states, signed_distance_margin
from cbfforge.experiments import (
    METRICS_HEADER,
    MetricsRow,
    MetricsTable,
    NA,
    nominal_config,
    override_statistics,
    run_experiment,
    safety_rate,
    throughput_benchmark,
    train_actor_critic,
)
from cbfforge.filters import CriticBackend
from cbfforge.nets import mlp_init, save_model

TINY = {
    "n_rollouts": 4,
    "rollout_steps": 20,
    "grid_nx": 17,
    "grid_ny": 17,
    "grid_ntheta": 9,
    "vi_tol": 1e-4,
    "margin_iterations": 200,
    "margin_train_points": 2000,
    "margin_batch_size": 64,
    "rl_iterations": 80,
    "rl_batch_size": 32,
    "rl_buffer_capacity": 1024,
    "rl_episode_len": 4,
    "rl_actor_dims": (16, 16),
    "rl_critic_dims": (16, 16),
}


def _tiny_cfg(experiment, out_dir, **extra):
    overrides = dict(TINY)
    overrides["experiment"] = experiment
    overrides["output_dir"] = str(out_dir)
    overrides.update(extra)
    return load_config(None, overrides)


@pytest.fixture(scope="session")
def filter_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("filter_run")
    cfg = _tiny_cfg("filter_comparison", out)
    table = run_experiment(cfg)
    return cfg, table, str(out)


# ------------------------------------------------------------ metrics table


def test_metrics_row_defaults_to_na():
    row = MetricsRow(method="none")
    assert row.cells() == ("none", NA, NA, NA, NA, NA, NA, NA, NA)


def test_metrics_table_csv_format(tmp_path):
    rows = [
        MetricsRow(method="cbf", margin_mode="exact", alpha=0.85, safety_rate=1.0,
                   avg_override=0.25, override_std=0.1),
        MetricsRow(method="margin", margin_mode="gp", f1=0.9,
                   max_step_delta_mean=0.02, max_step_delta_std=0.01),
    ]
    path = tmp_path / "metrics.csv"
    MetricsTable(rows).save_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    first = lines[1].split(",")
    assert first[:2] == ["cbf", "exact"]
    assert float(first[2]) == 0.85  # %.17g survives a float round trip
    cells = lines[2].split(",")
    assert cells[:3] == ["margin", "gp", "n/a"]
    assert float(cells[6]) == 0.9
    # every row has exactly one cell per header column
    for line in lines[1:]:
        assert len(line.split(",")) == len(METRICS_HEADER.split(","))


def test_metrics_table_rejects_blank_and_non_finite(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="blank"):
        MetricsTable([MetricsRow(method="")]).save_csv(path)
    with pytest.raises(ValueError, match="non-finite"):
        MetricsTable([MetricsRow(method="x", safety_rate=float("nan"))]).save_csv(path)
    with pytest.raises(ValueError, match="non-finite"):
        MetricsTable([MetricsRow(method="x", avg_override=math.inf)]).save_csv(path)


# ------------------------------------------------------- rollout aggregates


def _fake(deltas, collided=False):
    return SimpleNamespace(override_magnitudes=np.asarray(deltas, dtype=float), collided=collided)


def test_override_statistics_ignores_sub_floor_steps():
    # A delta of exactly the override threshold counts as an intervention.
    recs = [_fake([0.0, 1e-12, 0.5]), _fake([1.5, 0.0, 1e-9])]
    mean, std = override_statistics(recs)
    assert mean == pytest.approx((2.0 + 1e-9) / 3.0)
    assert std == pytest.approx(np.std([0.5, 1.5, 1e-9]))


def test_override_statistics_no_interventions():
    assert override_statistics([_fake([0.0, 1e-10])]) == (0.0, 0.0)


def test_safety_rate_counts_collision_free_fraction():
    recs = [_fake([0], collided=False), _fake([0], collided=True),
            _fake([0], collided=False), _fake([0], collided=False)]
    assert safety_rate(recs) == pytest.approx(0.75)


# --------------------------------------------------------- experiment runs


def test_filter_comparison_outputs(filter_run):
    cfg, table, out = filter_run
    assert [row.method for row in table.rows] == ["none", "lr", "cbf"]
    none_row, lr_row, cbf_row = table.rows

    # the pass-through method never overrides
    assert none_row.avg_override == 0.0
    assert none_row.alpha == NA
    assert lr_row.alpha == NA
    assert cbf_row.alpha == cfg["alpha"]
    for row in table.rows:
        assert 0.0 <= row.safety_rate <= 1.0
    assert lr_row.avg_override > 0.0
    assert cbf_row.avg_override > 0.0

    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "resolved_config.txt"))
    traj = sorted(os.listdir(os.path.join(out, "trajectories")))
    assert len(traj) == 3 * cfg["n_rollouts"]
    assert "cbf_000.csv" in traj and "none_003.csv" in traj


def test_filter_comparison_none_matches_unfiltered(filter_run):
    cfg, table, _ = filter_run
    nom = nominal_config(cfg)
    starts = sample_initial_states(np.random.default_rng([cfg["seed"], 777]), cfg["n_rollouts"])
    recs = []
    for k in range(cfg["n_rollouts"]):
        rng = np.random.default_rng([cfg["seed"], 1000 + k])
        rec = rollout(lambda s: nominal_policy(s, nom, rng=rng), starts[k], cfg["rollout_steps"], None, cfg["dt"])
        recs.append(rec)
    assert table.rows[0].safety_rate == pytest.approx(safety_rate(recs))


def test_filter_comparison_is_deterministic_on_rerun(filter_run, tmp_path):
    _, _, out = filter_run
    reference = open(os.path.join(out, "metrics.csv"), "rb").read()

    rerun = _tiny_cfg("filter_comparison", tmp_path / "again")
    run_experiment(rerun)
    assert open(os.path.join(rerun["output_dir"], "metrics.csv"), "rb").read() == reference
    ref_traj = open(os.path.join(out, "trajectories", "cbf_002.csv"), "rb").read()
    new_traj = open(os.path.join(rerun["output_dir"], "trajectories", "cbf_002.csv"), "rb").read()
    assert new_traj == ref_traj


def test_alpha_ablation_row_per_alpha(tmp_path):
    cfg = _tiny_cfg("alpha_ablation", tmp_path, alpha_list=(0.5, 0.9), n_rollouts=3, rollout_steps=15)
    table = run_experiment(cfg)
    assert [row.alpha for row in table.rows] == [0.5, 0.9]
    assert all(row.method == "cbf" for row in table.rows)
    traj = os.listdir(os.path.join(str(tmp_path), "trajectories"))
    assert any(name.startswith("cbf_alpha_0.5_") for name in traj)
    assert any(name.startswith("cbf_alpha_0.9_") for name in traj)


def test_margin_quality_rows_and_reports(tmp_path):
    cfg = _tiny_cfg("margin_quality", tmp_path)
    table = run_experiment(cfg)
    assert [row.margin_mode for row in table.rows] == ["gp", "nogp"]
    gp_row, nogp_row = table.rows
    for row in table.rows:
        assert 0.0 <= row.f1 <= 1.0
        assert row.max_step_delta_mean >= 0.0
        assert row.safety_rate == NA
    # the gradient-penalty variant is the smooth one
    assert gp_row.max_step_delta_mean < nogp_row.max_step_delta_mean
    for name in ("margin_gp.txt", "margin_nogp.txt",
                 "margin_metrics_gp.csv", "margin_metrics_nogp.csv"):
        assert os.path.exists(os.path.join(str(tmp_path), name))


def test_lipschitz_bound_report(tmp_path):
    cfg = _tiny_cfg("lipschitz_bound", tmp_path, lip_fd_samples=500,
                    lip_margin_modes=("exact",))
    table = run_experiment(cfg)
    assert len(table.rows) == 1
    assert table.rows[0].safety_rate == NA
    lines = (tmp_path / "bound_report.csv").read_text().splitlines()
    assert lines[0] == "margin_mode,L_ell,L_f,L_V,bound,holds"
    cells = lines[1].split(",")
    assert cells[0] == "exact"
    l_ell, l_f, l_v, bound = map(float, cells[1:5])
    assert cells[5] == "true"
    assert l_v <= bound
    gamma = cfg["lip_gamma"]
    expected = l_ell * max(1.0, (1.0 - gamma) / (1.0 - gamma * l_f))
    assert bound == pytest.approx(expected, rel=1e-12)


def test_lipschitz_hypothesis_violation_is_config_error(tmp_path):
    cfg = _tiny_cfg("lipschitz_bound", tmp_path, lip_gamma=0.96, lip_fd_samples=500)
    with pytest.raises(ConfigError, match="hypothesis"):
        run_experiment(cfg)


def test_mix_ablation_report(tmp_path):
    cfg = _tiny_cfg("mix_ablation", tmp_path)
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    lines = (tmp_path / "mix_report.csv").read_text().splitlines()
    assert lines[0] == "variant,eval_source,mae"
    assert len(lines) == 5
    labels = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert labels == [
        ("critic_mixed", "nominal_policy"),
        ("critic_mixed", "fallback_policy"),
        ("critic_fallback_only", "nominal_policy"),
        ("critic_fallback_only", "fallback_policy"),
    ]
    maes = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(np.isfinite(m) and m >= 0.0 for m in maes)


def test_mix_ablation_trains_both_variants_despite_saved_models(tmp_path):
    critic, actor = tmp_path / "critic.txt", tmp_path / "actor.txt"
    save_model(mlp_init([4, 16, 16, 1], seed=5), str(critic))
    save_model(mlp_init([3, 16, 16, 1], output_activation="tanh", seed=6), str(actor))
    out = tmp_path / "out"
    # mix_ablation always trains, so train_missing = false must not stop it.
    run_experiment(
        _tiny_cfg("mix_ablation", out, critic_model=str(critic), actor_model=str(actor), train_missing=False)
    )
    maes = [float(line.split(",")[2]) for line in (out / "mix_report.csv").read_text().splitlines()[1:]]
    assert maes[0] != maes[2] and maes[1] != maes[3]  # mixed vs fallback-only, per eval source
    for variant in ("critic_mixed", "critic_fallback_only"):
        assert (out / variant / "critic.txt").exists()


def test_actor_critic_trains_at_configured_dt(tmp_path):
    (actor_a, critic_a), (actor_b, critic_b) = [
        train_actor_critic(_tiny_cfg("filter_comparison", tmp_path, dt=dt), str(tmp_path), signed_distance_margin)
        for dt in (0.05, 0.1)
    ]
    assert any(not np.array_equal(a, b) for a, b in zip(critic_a.weights, critic_b.weights))
    assert any(not np.array_equal(a, b) for a, b in zip(actor_a.weights, actor_b.weights))


def test_missing_margin_artifact_is_config_error(tmp_path):
    cfg = _tiny_cfg("filter_comparison", tmp_path, margin_mode="gp", train_missing=False)
    with pytest.raises(ConfigError, match="margin"):
        run_experiment(cfg)


def test_missing_critic_artifact_is_config_error(tmp_path):
    cfg = _tiny_cfg("throughput", tmp_path, train_missing=False)
    with pytest.raises(ConfigError, match="critic|actor"):
        run_experiment(cfg)


# ---------------------------------------------------------------- throughput


@pytest.fixture(scope="session")
def tiny_backend():
    critic = mlp_init([4, 16, 16, 1], seed=5)
    actor = mlp_init([3, 16, 16, 1], output_activation="tanh", seed=6)
    return CriticBackend(critic, actor, dt=0.1)


def test_throughput_single_query_has_positive_latency(tiny_backend):
    rows = throughput_benchmark(tiny_backend, sizes=(1,), query_mode="model_free", reps=10)
    assert len(rows) == 1
    row = rows[0]
    assert row["n_samples"] == 1 and row["reps"] == 10
    assert row["mean_ms"] > 0.0 and np.isfinite(row["mean_ms"])
    assert row["per_sample_us"] == pytest.approx(row["mean_ms"] * 1000.0)


def test_throughput_batching_beats_linear_scaling(tiny_backend):
    rows = throughput_benchmark(tiny_backend, sizes=(1, 100), query_mode="model_free", reps=20)
    by_n = {row["n_samples"]: row for row in rows}
    assert by_n[100]["mean_ms"] <= 100.0 * by_n[1]["mean_ms"]


def test_throughput_model_based_steps_per_sample(tiny_backend):
    rows = throughput_benchmark(tiny_backend, sizes=(10,), query_mode="model_based", reps=10)
    free = throughput_benchmark(tiny_backend, sizes=(10,), query_mode="model_free", reps=10)
    assert rows[0]["mean_ms"] > free[0]["mean_ms"]


def test_throughput_rejects_bad_reps(tiny_backend):
    with pytest.raises(ValueError, match="reps"):
        throughput_benchmark(tiny_backend, sizes=(1,), query_mode="model_free", reps=0)


def test_throughput_experiment_writes_bench_csv(tmp_path):
    cfg = _tiny_cfg("throughput", tmp_path, bench_sizes=(1, 10), bench_reps=5)
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "query_mode,n_samples,reps,mean_ms,std_ms,per_sample_us"
    assert len(lines) == 1 + 2 * 2  # two modes x two sizes
    modes = [line.split(",")[0] for line in lines[1:]]
    assert modes == ["model_free", "model_free", "model_based", "model_based"]
    for line in lines[1:]:
        assert float(line.split(",")[3]) > 0.0
