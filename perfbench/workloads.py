"""The three benchmark workloads.

Each workload is a closed loop with one caller: set-up builds its inputs from
the seed, then one unit of work runs after another, each unit starting when
the previous one has returned.  Every unit's outputs are checked.

* vi_solve: value_iteration on the exact margin at the acceptance grid.
* filter_rollouts: run_experiment(filter_comparison) on a grid backend and a
  model-based critic backend loaded from files that set-up writes, then
  single-state cbf_filter calls on states of the recorded cbf rollouts.
* train_nets: train_margin (GP and NoGP) and train_safety_rl for fixed
  iteration and update counts.

A run must report every end-to-end metric, so after its timed units a
workload runs fixed-size companion blocks of the other workloads' user-facing
operations (`COMPANION`) for the metrics its own units do not produce.

Metrics are medians over a run's units or blocks.  Every time is taken
with HostSpeed.timed, which scales it to the reference host speed
(calibration.py); `kind` names the calibration kernels for each workload's
units.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from cbfforge import config, dubins, experiments, filters, hj, margin, nets, rl
from checks import (
    Checks,
    action_digest,
    cbf_action_is_valid,
    check_grid_table,
    check_vi_solution,
    losses_finite,
    weights_digest,
)

GAMMA = 0.995
DT = 0.1
VI_TOL = 1e-5
N_ACTIONS = 25
GRID = hj.GridSpec(41, 41, 21)  # the acceptance grid
RL_DIMS = (512, 512, 512)
ACTOR_SEED, CRITIC_SEED = 0, 1  # the filter fixture's nets do not vary with --seed
ROLLOUT_STEPS = 60
MARGIN_POINTS = 50_000
RL_BATCH = 512
# train_safety_rl updates once the buffer holds a batch; episodes add
# episode_len transitions, so the first update comes at this iteration.
RL_PREFILL = -(-RL_BATCH // rl.RlConfig().episode_len) - 1


# Latency percentiles pool at least this many filtered states, so the p99
# has ten samples beyond it.
MIN_SINGLE_CALLS = 1000


@dataclass(frozen=True)
class Sizes:
    rollouts: int  # per method and backend
    single_calls: int  # states given to single-state calls
    margin_iters: int  # per margin variant
    rl_updates: int


# Four rollouts per method and backend: the cbf-to-lr override check is a
# property of averages and can fail on a single rollout.
PRIMARY = Sizes(rollouts=4, single_calls=500, margin_iters=100, rl_updates=8)
COMPANION = Sizes(rollouts=4, single_calls=1000, margin_iters=25, rl_updates=3)
COMPANION_FILTER_BLOCKS = 1
COMPANION_TRAIN_BLOCKS = 2
SINGLE_BATCH = 25  # states filtered between two calibration readings
# The visited states are filtered in this many passes and a state's latency
# is its fastest call; the calls on one state lie a whole pass apart, so a
# slow spell of the shared host rarely hits all of them and the percentiles
# follow per-state cost.
SINGLE_PASSES = 2
FILTER_KIND = "numpy_calls"


# ----------------------------------------------------------------- filters


@dataclass(frozen=True)
class FilterFixture:
    value_path: str
    margin_path: str
    actor_path: str
    critic_path: str


def solve_exact_grid(actions=None):
    """(margin field, converged solution) for the exact margin on GRID."""
    margin_f = hj.margin_field(GRID, dubins.signed_distance_margin)
    actions = dubins.equispaced_actions(N_ACTIONS) if actions is None else actions
    return margin_f, hj.value_iteration(margin_f, actions, GAMMA, DT, tol=VI_TOL)


def write_filter_fixture(directory: str, value=None, margin_f=None) -> FilterFixture:
    """Write the grid fields and the fixed-seed 512^3 actor and critic.

    The grid is solved here unless an already solved (value, margin) pair is
    given.
    """
    os.makedirs(directory, exist_ok=True)
    if value is None:
        margin_f, solution = solve_exact_grid()
        if not solution.converged:
            raise RuntimeError("fixture grid solve did not converge")
        value = solution.field
    fx = FilterFixture(
        *(os.path.join(directory, n) for n in ("value_grid.txt", "margin_grid.txt", "actor.txt", "critic.txt"))
    )
    hj.save_field(value, fx.value_path)
    hj.save_field(margin_f, fx.margin_path)
    nets.save_model(nets.mlp_init([3, *RL_DIMS, 1], output_activation="tanh", seed=ACTOR_SEED), fx.actor_path)
    nets.save_model(nets.mlp_init([4, *RL_DIMS, 1], seed=CRITIC_SEED), fx.critic_path)
    return fx


def filter_configs(fx: FilterFixture, seed: int, n_rollouts: int, out_dir: str) -> dict[str, dict]:
    """filter_comparison configs: grid backend (model-free queries) and
    critic backend (model-based queries), both loaded from the fixture."""
    base = config.load_config(
        None,
        {
            "experiment": "filter_comparison",
            "seed": seed,
            "n_rollouts": n_rollouts,
            "rollout_steps": ROLLOUT_STEPS,
            "gamma": GAMMA,
            "dt": DT,
            "n_action_samples": N_ACTIONS,
            "grid_nx": GRID.nx,
            "grid_ny": GRID.ny,
            "grid_ntheta": GRID.ntheta,
            "value_grid": fx.value_path,
            "margin_grid": fx.margin_path,
            "train_missing": False,
        },
    )
    return {
        "grid": dict(base, output_dir=os.path.join(out_dir, "grid")),
        "critic": dict(
            base,
            output_dir=os.path.join(out_dir, "critic"),
            filter_backend="critic",
            query_mode="model_based",
            critic_model=fx.critic_path,
            actor_model=fx.actor_path,
        ),
    }


def cbf_config(cfg: dict) -> filters.FilterConfig:
    """The FilterConfig run_experiment builds for the cbf method."""
    return filters.FilterConfig(
        alpha=cfg["alpha"],
        epsilon=cfg["epsilon"],
        query_mode=cfg["query_mode"],
        sampler=filters.SamplerSpec(kind="equispaced_1d", n=cfg["n_action_samples"]),
        gamma=cfg["gamma"],
        dt=cfg["dt"],
    )


def load_grid_backend(fx: FilterFixture) -> filters.GridBackend:
    return filters.GridBackend(
        hj.load_field(fx.value_path, kind="value"),
        hj.load_field(fx.margin_path, kind="margin"),
        actions=dubins.equispaced_actions(N_ACTIONS),
        gamma=GAMMA,
        dt=DT,
    )


@contextmanager
def recorded_rollouts(speed):
    """Time and keep every rollout run_experiment executes.

    Wraps the name experiments imported; rollouts run in order, n_rollouts
    per method, on one thread.  This is the only hook in untraced runs: a
    calibration reading on each side of a whole rollout.
    """
    inner = experiments.rollout
    log: list[tuple[float, object]] = []

    def timed_rollout(*args, **kwargs):
        rec, seconds, _ = speed.timed(FILTER_KIND, lambda: inner(*args, **kwargs))
        log.append((seconds, rec))
        return rec

    experiments.rollout = timed_rollout
    try:
        yield log
    finally:
        experiments.rollout = inner


@dataclass
class FilterRun:
    """Outputs and timings of one filter block."""

    configs: dict
    tables: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)  # (backend, method) -> records
    rollout_s: dict = field(default_factory=dict)  # (backend, method) -> seconds
    singles: list = field(default_factory=list)  # (executed action, single-call decision)
    single_s: list = field(default_factory=list)

    def steps_per_s(self) -> float:
        """Filtered rollout steps per second at an equal mix of the four
        (backend, method) pairs, so collisions that end rollouts early do not
        shift the mix."""
        per_step = [
            self.rollout_s[key] / sum(rec.n_steps for rec in recs)
            for key, recs in self.records.items()
            if key[1] != "none"
        ]
        return 1.0 / statistics.fmean(per_step)

    def digests(self) -> dict[str, str]:
        return {
            f"{backend}/{method}/{k}": action_digest(rec.actions_executed)
            for (backend, method), recs in self.records.items()
            for k, rec in enumerate(recs)
        }


def run_filter_block(fx: FilterFixture, seed: int, sizes: Sizes, out_dir: str, speed) -> FilterRun:
    run = FilterRun(filter_configs(fx, seed, sizes.rollouts, out_dir))
    for backend, cfg in run.configs.items():
        with recorded_rollouts(speed) as log:
            run.tables[backend], _, _ = speed.timed(FILTER_KIND, lambda: experiments.run_experiment(cfg))
        n = cfg["n_rollouts"]
        for i, method in enumerate(cfg["methods"]):
            chunk = log[i * n : (i + 1) * n]
            run.records[(backend, method)] = [rec for _, rec in chunk]
            run.rollout_s[(backend, method)] = sum(t for t, _ in chunk)

    # Single-state deploy calls on states the grid cbf rollouts visited.
    backend = load_grid_backend(fx)
    fcfg = cbf_config(run.configs["grid"])
    visited = [
        (rec.states[t], float(rec.actions_nominal[t]), float(rec.actions_executed[t]))
        for rec in run.records[("grid", "cbf")]
        for t in range(rec.n_steps)
    ]

    def batch(first: int) -> list[float]:
        times = []
        for i in range(first, min(first + SINGLE_BATCH, sizes.single_calls)):
            state, a_nom, a_exec = visited[i % len(visited)]
            start = time.perf_counter()
            decision = filters.cbf_filter(state, a_nom, backend, fcfg)
            times.append(time.perf_counter() - start)
            run.singles.append((a_exec, decision.action))
        return times

    best = np.full(sizes.single_calls, np.inf)
    for _ in range(SINGLE_PASSES):
        for first in range(0, sizes.single_calls, SINGLE_BATCH):
            times, _, factor = speed.timed(FILTER_KIND, lambda: batch(first))
            np.minimum(best[first : first + len(times)], np.array(times) * factor, out=best[first : first + len(times)])
    run.single_s = best.tolist()
    return run


def check_filter_run(checks: Checks, run: FilterRun, backend, reference: dict | None) -> None:
    """Grid safety and override economy, every grid cbf action re-verified
    on the grid backend, single-state decisions equal to the executed ones,
    and executed actions identical to the reference digests when given."""
    check_grid_table(checks, run.tables["grid"])
    fcfg = cbf_config(run.configs["grid"])
    for rec in run.records[("grid", "cbf")]:
        for t in range(rec.n_steps):
            a_nom, a_exec = float(rec.actions_nominal[t]), float(rec.actions_executed[t])
            checks.record(
                "grid.cbf_action_feasible",
                cbf_action_is_valid(backend, fcfg, rec.states[t], a_nom, a_exec),
                f"state {rec.states[t]}, action {a_exec}",
            )
    for a_exec, a_single in run.singles:
        checks.record("grid.single_call_decision", a_single == a_exec, f"{a_single} != {a_exec}")
    if reference is not None:
        for key, digest in run.digests().items():
            checks.record("filter.repeat_digest", digest == reference.get(key), key)


def filter_metrics(runs: list[FilterRun]) -> dict[str, tuple[float, int]]:
    """Median block step rate; latency percentiles over every single call."""
    single_ms = np.array([t for run in runs for t in run.single_s]) * 1e3
    if single_ms.size < MIN_SINGLE_CALLS:
        raise RuntimeError(f"{single_ms.size} filtered states, need {MIN_SINGLE_CALLS}")
    return {
        "filter_steps_per_s": (statistics.median(r.steps_per_s() for r in runs), len(runs)),
        "filter_step_p50_ms": (float(np.percentile(single_ms, 50)), single_ms.size),
        "filter_step_p99_ms": (float(np.percentile(single_ms, 99)), single_ms.size),
    }


# -------------------------------------------------------------------- nets


@dataclass
class TrainRun:
    margin_iters: int
    margin_s: float
    rl_updates: int
    rl_s: float
    digest: str
    losses: list


def run_train_block(dataset, seed: int, sizes: Sizes, speed) -> TrainRun:
    trained, margin_s, _ = speed.timed(
        "all",
        lambda: [
            margin.train_margin(dataset, margin.MarginTrainConfig(iterations=sizes.margin_iters, use_gp=gp, seed=seed))
            for gp in (True, False)
        ],
    )
    rl_cfg = rl.RlConfig(iterations=RL_PREFILL + sizes.rl_updates, batch_size=RL_BATCH, seed=seed)
    (actor, critic, history), rl_s, _ = speed.timed(
        "all", lambda: rl.train_safety_rl(dubins.signed_distance_margin, dubins.NominalPolicyConfig(), rl_cfg)
    )

    safe, fail = dataset.safe_points[:256], dataset.fail_points[:256]
    losses = [margin.sign_loss(net, safe, fail, delta) for net, delta in zip(trained, (0.0, 0.75))]
    losses += [history.critic_losses[-1], history.actor_losses[-1]]
    return TrainRun(
        margin_iters=2 * sizes.margin_iters,
        margin_s=margin_s,
        rl_updates=sizes.rl_updates,
        rl_s=rl_s,
        digest=weights_digest([*trained, actor, critic]),
        losses=losses,
    )


def check_train_run(checks: Checks, run: TrainRun, reference_digest: str | None) -> None:
    checks.record("train.losses_finite", losses_finite(run.losses), f"losses {run.losses}")
    if reference_digest is not None:
        checks.record("train.repeat_checksum", run.digest == reference_digest, "weights differ at one seed")


def train_metrics(runs: list[TrainRun]) -> dict[str, tuple[float, int]]:
    return {
        "margin_iters_per_s": (statistics.median(r.margin_iters / r.margin_s for r in runs), len(runs)),
        "rl_updates_per_s": (statistics.median(r.rl_updates / r.rl_s for r in runs), len(runs)),
    }


# --------------------------------------------------------------- workloads


class Workload:
    """set_up -> fixture; unit(fixture, speed) -> output; check(...) per unit.

    kind names the calibration kernels for unit times.
    """

    name = ""
    kind = "all"
    min_units = 2

    def set_up(self, seed: int, work_dir: str):
        raise NotImplementedError

    def unit(self, fixture, speed):
        raise NotImplementedError

    def check(self, checks: Checks, fixture, output, first_output) -> None:
        raise NotImplementedError

    def metrics(self, outputs) -> dict:
        return {}

    def companion(self, seed: int, fixture, outputs, work_dir: str, checks: Checks, speed) -> dict:
        return {}


def filter_companion(seed, work_dir, checks, speed, value=None, margin_f=None) -> dict:
    fx = write_filter_fixture(os.path.join(work_dir, "companion_fixture"), value, margin_f)
    backend = load_grid_backend(fx)
    runs: list[FilterRun] = []
    for _ in range(COMPANION_FILTER_BLOCKS):
        run = run_filter_block(fx, seed, COMPANION, os.path.join(work_dir, "companion_filter"), speed)
        check_filter_run(checks, run, backend, runs[0].digests() if runs else None)
        runs.append(run)
    return filter_metrics(runs)


def train_companion(seed, checks, speed) -> dict:
    dataset = margin.build_margin_dataset(MARGIN_POINTS, seed=seed)
    runs: list[TrainRun] = []
    for _ in range(COMPANION_TRAIN_BLOCKS):
        run = run_train_block(dataset, seed, COMPANION, speed)
        check_train_run(checks, run, runs[0].digest if runs else None)
        runs.append(run)
    return train_metrics(runs)


@dataclass
class ViFixture:
    margin: object
    actions: np.ndarray


class ViSolve(Workload):
    """Seed-shuffled action order: the max over actions makes the solution
    independent of it, so every seed does the same work."""

    name = "vi_solve"

    def set_up(self, seed, work_dir):
        actions = np.random.default_rng(seed).permutation(dubins.equispaced_actions(N_ACTIONS))
        return ViFixture(hj.margin_field(GRID, dubins.signed_distance_margin), actions)

    def unit(self, fx, speed):
        return hj.value_iteration(fx.margin, fx.actions, GAMMA, DT, tol=VI_TOL)

    def check(self, checks, fx, solution, first):
        check_vi_solution(checks, solution, fx.margin, fx.actions, GAMMA, DT, VI_TOL)

    def companion(self, seed, fx, outputs, work_dir, checks, speed):
        out = filter_companion(seed, work_dir, checks, speed, outputs[-1].field, fx.margin)
        out.update(train_companion(seed, checks, speed))
        return out


@dataclass
class FilterRolloutsFixture:
    files: FilterFixture
    seed: int
    work_dir: str


class FilterRollouts(Workload):
    name = "filter_rollouts"
    kind = FILTER_KIND
    min_units = -(-MIN_SINGLE_CALLS // PRIMARY.single_calls)

    def set_up(self, seed, work_dir):
        return FilterRolloutsFixture(write_filter_fixture(os.path.join(work_dir, "fixture")), seed, work_dir)

    def unit(self, fx, speed):
        return run_filter_block(fx.files, fx.seed, PRIMARY, os.path.join(fx.work_dir, "filter"), speed)

    def check(self, checks, fx, run, first):
        check_filter_run(checks, run, load_grid_backend(fx.files), None if first is None else first.digests())

    def metrics(self, runs):
        return filter_metrics(runs)

    def companion(self, seed, fx, outputs, work_dir, checks, speed):
        return train_companion(seed, checks, speed)


@dataclass
class TrainFixture:
    dataset: object
    seed: int


class TrainNets(Workload):
    name = "train_nets"

    def set_up(self, seed, work_dir):
        return TrainFixture(margin.build_margin_dataset(MARGIN_POINTS, seed=seed), seed)

    def unit(self, fx, speed):
        return run_train_block(fx.dataset, fx.seed, PRIMARY, speed)

    def check(self, checks, fx, run, first):
        check_train_run(checks, run, None if first is None else first.digest)

    def metrics(self, runs):
        return train_metrics(runs)

    def companion(self, seed, fx, outputs, work_dir, checks, speed):
        return filter_companion(seed, work_dir, checks, speed)


WORKLOADS = {w.name: w for w in (ViSolve(), FilterRollouts(), TrainNets())}
