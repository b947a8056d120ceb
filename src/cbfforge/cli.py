"""Command-line entry point for training, solving, filtering, and benchmarks.

Every subcommand reads the same flat key=value config (all keys documented
in --help), overridable by --seed and --out.  Exit codes: 0 success, 1
runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, describe_keys, load_config
from .dubins import OVERRIDE_THRESHOLD, save_trajectory_csv
from .experiments import (
    action_filter,
    build_backend,
    grid_fields,
    resolve_margin,
    run_experiment,
    run_rollouts,
    train_actor_critic,
    train_margin_net,
)


def _run_table(cfg: dict) -> int:
    table = run_experiment(cfg)
    print(f"{cfg['experiment']}: {len(table.rows)} rows -> {cfg['output_dir']}/metrics.csv")
    return 0


def _cmd_train_margin(cfg: dict) -> int:
    if cfg["experiment"] == "margin_quality":
        return _run_table(cfg)
    mode = cfg["margin_mode"]
    if mode == "exact":
        raise ConfigError("train-margin needs margin_mode = gp or nogp (exact has nothing to train)")
    os.makedirs(cfg["output_dir"], exist_ok=True)
    train_margin_net(cfg, use_gp=(mode == "gp"), out_dir=cfg["output_dir"])
    path = os.path.join(cfg["output_dir"], f"margin_{mode}.txt")
    print(f"trained margin ({mode}) -> {path}")
    return 0


def _cmd_solve_grid(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    grid_fields(dict(cfg, value_grid="", margin_grid=""), out_dir)  # always solve fresh
    print(f"solved {cfg['grid_nx']}x{cfg['grid_ny']}x{cfg['grid_ntheta']} grid -> {out_dir}/value_grid.txt")
    return 0


def _cmd_train_rl(cfg: dict) -> int:
    if cfg["experiment"] == "mix_ablation":
        run_experiment(cfg)
        print(f"mix_ablation report -> {cfg['output_dir']}/mix_report.csv")
        return 0
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    train_actor_critic(cfg, out_dir, resolve_margin(cfg, out_dir))
    print(f"trained safety actor-critic -> {out_dir}/rl/")
    return 0


def _cmd_demo(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    backend = build_backend(cfg, out_dir)
    rec = run_rollouts(dict(cfg, n_rollouts=1), action_filter("cbf", backend, cfg))[0]
    path = os.path.join(out_dir, "demo_trajectory.csv")
    save_trajectory_csv(rec, path)
    n_over = int(np.count_nonzero(rec.override_magnitudes >= OVERRIDE_THRESHOLD))
    print(
        f"demo rollout: {rec.n_steps} steps, collided={rec.collided}, "
        f"{n_over} overridden steps -> {path}"
    )
    return 0


def _experiment_cmd(*allowed: str):
    """Run cfg["experiment"] if it is one of allowed, else allowed[0]."""

    def _run(cfg: dict) -> int:
        if cfg["experiment"] not in allowed:
            cfg = dict(cfg, experiment=allowed[0])
        return _run_table(cfg)

    return _run


_COMMANDS = {
    "train-margin": ("train a margin net (or run the margin_quality experiment)", _cmd_train_margin),
    "solve-grid": ("solve the avoid value function on the grid and save both fields", _cmd_solve_grid),
    "train-rl": ("train the safety actor-critic (or run the mix_ablation experiment)", _cmd_train_rl),
    "filter-eval": (
        "compare runtime filters over evaluation rollouts",
        _experiment_cmd("filter_comparison", "alpha_ablation"),
    ),
    "verify-bound": ("check the margin-to-value Lipschitz bound", _experiment_cmd("lipschitz_bound")),
    "bench": ("benchmark candidate-scoring throughput", _experiment_cmd("throughput")),
    "demo": ("dump one filtered rollout as CSV", _cmd_demo),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfforge",
        description="Safety filtering testbed: margins, value grids, actor-critic, filters.",
        epilog="config keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command][1](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
