"""Output checks of the benchmark workloads.

Every check returns True when the output is correct.  `Checks` counts them;
the run reports attempted and failed checks, and the tests under
`perfbench/tests` show that each check rejects a corrupted output.
"""

from __future__ import annotations

import hashlib

import numpy as np

from cbfforge import filters, hj

# Acceptance properties of the grid filter comparison.
MIN_FILTERED_SAFETY = 0.95
MAX_CBF_TO_LR_OVERRIDE = 0.75


class Checks:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def bellman_residual(value, margin, actions, gamma: float, dt: float) -> float:
    """max over nodes of |V - max_a Q(z, a)|, Q from the public q_from_value.

    At a node the interpolated margin is the node value, so max_a Q is one
    application of the solver's backup to V.
    """
    nodes = value.spec.nodes()
    best = np.full(nodes.shape[0], -np.inf)
    for a in actions:
        np.maximum(best, hj.q_from_value(value, margin, nodes, a, gamma, dt), out=best)
    return float(np.max(np.abs(best - value.values.ravel())))


def check_vi_solution(checks: Checks, solution, margin, actions, gamma, dt, tol) -> None:
    """The solve converged and its fixed-point residual is at most tol.

    A converged solve stopped on a sweep change below tol, so the residual of
    the returned field is below gamma * tol; tol is the stated bound.
    """
    checks.record("vi.converged", bool(solution.converged), f"{solution.sweeps} sweeps")
    residual = bellman_residual(solution.field, margin, actions, gamma, dt)
    checks.record("vi.bellman_residual", residual <= tol, f"residual {residual:.3g} > {tol:g}")


def check_grid_table(checks: Checks, table) -> None:
    """Safety and override economy of the grid filter comparison."""
    rows = {row.method: row for row in table.rows}
    lr, cbf = rows["lr"], rows["cbf"]
    checks.record("grid.lr_safety", lr.safety_rate >= MIN_FILTERED_SAFETY, f"lr safety {lr.safety_rate}")
    checks.record("grid.cbf_safety", cbf.safety_rate >= MIN_FILTERED_SAFETY, f"cbf safety {cbf.safety_rate}")
    checks.record(
        "grid.cbf_override",
        cbf.avg_override <= MAX_CBF_TO_LR_OVERRIDE * lr.avg_override,
        f"cbf {cbf.avg_override:.4g} vs lr {lr.avg_override:.4g}",
    )


def cbf_action_is_valid(backend, fcfg, state, a_nominal: float, a_executed: float) -> bool:
    """The executed action passes cbf_constraint_check on backend.q_values,
    or equals the fallback action when no candidate is feasible.

    The candidates are rebuilt exactly as the filter builds them, so their
    Q-values come from the same batched call.
    """
    a_fb = backend.fallback_action(state)
    samples = filters.sample_actions(fcfg.sampler, a_nominal, a_fb)
    q = backend.q_values(state, samples)
    mask = filters.cbf_constraint_check(q, float(q[-1]), fcfg)
    if not mask.any():
        return a_executed == a_fb
    return bool(np.any(samples[mask] == a_executed))


def losses_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def weights_digest(nets) -> str:
    """sha256 over every weight and bias of the given nets, in order."""
    h = hashlib.sha256()
    for net in nets:
        for p in net.weights + net.biases:
            h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def action_digest(actions) -> str:
    """sha256 of an executed-action sequence as float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(actions, dtype=np.float64).tobytes()).hexdigest()
