"""Each output check accepts a correct output and rejects a corrupted one.

Run with: python3 -m pytest perfbench/tests
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cbfforge import dubins, experiments, filters, hj, nets
from checks import (
    Checks,
    action_digest,
    cbf_action_is_valid,
    check_grid_table,
    check_vi_solution,
    losses_finite,
    weights_digest,
)
from probe import compare_decisions
from workloads import FilterRun, TrainRun, cbf_config, check_filter_run, check_train_run

GAMMA, DT, TOL = 0.995, 0.1, 1e-4


@pytest.fixture(scope="module")
def small_grid():
    spec = hj.GridSpec(17, 17, 9)
    margin_f = hj.margin_field(spec, dubins.signed_distance_margin)
    actions = dubins.equispaced_actions(9)
    solution = hj.value_iteration(margin_f, actions, GAMMA, DT, tol=TOL)
    return margin_f, actions, solution


def test_vi_check_accepts_the_solver_output(small_grid):
    margin_f, actions, solution = small_grid
    checks = Checks()
    check_vi_solution(checks, solution, margin_f, actions, GAMMA, DT, TOL)
    assert (checks.attempted, checks.failed) == (2, 0)


def test_vi_check_rejects_a_perturbed_value_field(small_grid):
    margin_f, actions, solution = small_grid
    values = solution.field.values.copy()
    values[8, 8, 4] += 1e-3
    corrupted = hj.ValueSolution(hj.GridField(solution.field.spec, values), True, solution.sweeps, [])
    checks = Checks()
    check_vi_solution(checks, corrupted, margin_f, actions, GAMMA, DT, TOL)
    assert checks.failed == 1 and "bellman_residual" in checks.failures[0]


def test_vi_check_rejects_a_non_converged_solve(small_grid):
    margin_f, actions, solution = small_grid
    stopped = hj.ValueSolution(solution.field, False, solution.sweeps, [])
    checks = Checks()
    check_vi_solution(checks, stopped, margin_f, actions, GAMMA, DT, TOL)
    assert checks.failed == 1 and "converged" in checks.failures[0]


def _table(lr_safety=1.0, cbf_safety=1.0, lr_override=1.0, cbf_override=0.5):
    return experiments.MetricsTable(
        [
            experiments.MetricsRow("none", safety_rate=0.4, avg_override=0.0),
            experiments.MetricsRow("lr", safety_rate=lr_safety, avg_override=lr_override),
            experiments.MetricsRow("cbf", safety_rate=cbf_safety, avg_override=cbf_override),
        ]
    )


@pytest.mark.parametrize(
    "table, failures",
    [
        (_table(), 0),
        (_table(lr_safety=0.9), 1),
        (_table(cbf_safety=0.75), 1),
        (_table(cbf_override=0.8), 1),
    ],
)
def test_grid_table_check(table, failures):
    checks = Checks()
    check_grid_table(checks, table)
    assert (checks.attempted, checks.failed) == (3, failures)


def test_cbf_check_rejects_a_flipped_action(small_grid):
    margin_f, actions, solution = small_grid
    backend = filters.GridBackend(solution.field, margin_f, actions=actions, gamma=GAMMA, dt=DT)
    fcfg = filters.FilterConfig(sampler=filters.SamplerSpec(n=9), gamma=GAMMA, dt=DT)
    rng = np.random.default_rng(3)
    flipped_rejected = 0
    states = np.column_stack([rng.uniform(-1.5, 1.5, 200), rng.uniform(-1.5, 1.5, 200), rng.uniform(-np.pi, np.pi, 200)])
    for state in states:
        a_nom = 1.5
        decision = filters.cbf_filter(state, a_nom, backend, fcfg)
        assert cbf_action_is_valid(backend, fcfg, state, a_nom, decision.action)
        infeasible = decision.feasible_count and [
            a for a in filters.sample_actions(fcfg.sampler, a_nom, backend.fallback_action(state))
            if a not in decision.feasible.actions
        ]
        if infeasible:
            assert not cbf_action_is_valid(backend, fcfg, state, a_nom, infeasible[0])
            flipped_rejected += 1
    assert flipped_rejected > 0


def _net(seed):
    return nets.mlp_init([3, 8, 1], seed=seed)


def test_train_check_rejects_a_flipped_weight_and_a_nan_loss():
    good = [_net(0), _net(1)]
    digest = weights_digest(good)
    run = TrainRun(10, 1.0, 2, 1.0, digest, [0.1, 0.2])
    checks = Checks()
    check_train_run(checks, run, digest)
    assert checks.failed == 0

    flipped = [net.copy() for net in good]
    flipped[1].weights[0][0, 0] = -flipped[1].weights[0][0, 0]
    check_train_run(checks, TrainRun(10, 1.0, 2, 1.0, weights_digest(flipped), [0.1, 0.2]), digest)
    check_train_run(checks, TrainRun(10, 1.0, 2, 1.0, digest, [0.1, math.nan]), digest)
    assert checks.failed == 2
    assert not losses_finite([1.0, math.inf])


def _run_with(actions_by_key):
    records = {}
    for (backend, method), rows in actions_by_key.items():
        records[(backend, method)] = [
            SimpleNamespace(
                actions_executed=np.asarray(a, dtype=float),
                actions_nominal=np.zeros(len(a)),
                states=np.zeros((len(a) + 1, 3)),
                n_steps=len(a),
            )
            for a in rows
        ]
    return SimpleNamespace(records=records)


def test_decision_comparison_counts_mismatches_and_tie_flips():
    reference_run = _run_with({("grid", "cbf"): [[0.5, 1.0], [0.5, -1.0]]})
    reference = {
        f"grid/cbf/{k}": {"digest": action_digest(rec.actions_executed), "actions": rec.actions_executed.tolist()}
        for k, rec in enumerate(reference_run.records[("grid", "cbf")])
    }
    same = _run_with({("grid", "cbf"): [[0.5, 1.0], [0.5, -1.0]]})
    assert compare_decisions(same, reference, lambda *a: (0.0, 1.0)) == (0, 0)
    # Rollout 0 flips 1.0 -> -1.0: equally far from the nominal 0, a tie.
    # Rollout 1 flips -1.0 -> 0.25 with different Q: a real mismatch.
    changed = _run_with({("grid", "cbf"): [[0.5, -1.0], [0.5, 0.25]]})
    assert compare_decisions(changed, reference, lambda *a: (0.0, 1.0)) == (2, 1)


def _small_filter_run(margin_f, actions, solution):
    """A FilterRun of two short real cbf rollouts on the small grid."""
    backend = filters.GridBackend(solution.field, margin_f, actions=actions, gamma=GAMMA, dt=DT)
    cfg = {"alpha": 0.85, "epsilon": 0.2, "query_mode": "model_free", "n_action_samples": actions.size,
           "gamma": GAMMA, "dt": DT}
    fcfg = cbf_config(cfg)
    nominal = dubins.NominalPolicyConfig()
    starts = dubins.sample_initial_states(np.random.default_rng(5), 2)
    records = [
        dubins.rollout(lambda s: dubins.nominal_policy(s, nominal), x0, 20,
                       action_filter=lambda s, a: filters.cbf_filter(s, a, backend, fcfg), dt=DT)
        for x0 in starts
    ]
    singles = [(float(a), float(a)) for a in records[0].actions_executed[:5]]
    run = FilterRun({"grid": cfg}, tables={"grid": _table()}, records={("grid", "cbf"): records}, singles=singles)
    return run, backend, fcfg


def test_filter_run_check_rejects_flipped_decisions(small_grid):
    run, backend, fcfg = _small_filter_run(*small_grid)
    reference = run.digests()
    checks = Checks()
    check_filter_run(checks, run, backend, reference)
    assert checks.failed == 0 and checks.attempted == 3 + 40 + 5 + 2

    # A single-state call that decided differently from the rollout.
    a_exec, _ = run.singles[0]
    run.singles[0] = (a_exec, -a_exec if a_exec else 1.0)
    # An executed action replaced by an infeasible candidate.
    rec = run.records[("grid", "cbf")][1]
    for t in range(rec.n_steps):
        state, a_nom = rec.states[t], float(rec.actions_nominal[t])
        decision = filters.cbf_filter(state, a_nom, backend, fcfg)
        candidates = filters.sample_actions(fcfg.sampler, a_nom, backend.fallback_action(state))
        infeasible = [a for a in candidates if decision.feasible_count and a not in decision.feasible.actions]
        if infeasible:
            rec.actions_executed[t] = infeasible[0]
            break
    else:
        pytest.fail("no step with an infeasible candidate")
    checks = Checks()
    check_filter_run(checks, run, backend, reference)
    names = sorted(f.split(":")[0] for f in checks.failures)
    assert names == ["filter.repeat_digest", "grid.cbf_action_feasible", "grid.single_call_decision"]
