"""Independent oracles used by the test suite.

Everything here is written as a second route to the same quantity: central
finite differences for derivatives, per-point gradient-norm penalties from
the input gradient, exhaustive and plain recursive enumerations for the
finite-horizon avoid value, and value iteration by gathering through the
public query path.  None of it shares code with the package implementations
it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from cbfforge.dubins import DEFAULT_DT, dynamics_step_batch
from cbfforge.hj import GridField, ValueSolution, q_from_value
from cbfforge.nets import MlpGrads, MlpNet, input_gradient


def fd_input_gradient(net_eval, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of the input.

    Args:
        net_eval: callable (d,) -> float.
        x: point of shape (d,).
        h: step size.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (net_eval(xp) - net_eval(xm)) / (2.0 * h)
    return g


def fd_param_gradient(net: MlpNet, scalar_fn, h: float = 1e-6) -> MlpGrads:
    """Central finite differences of scalar_fn(net) over every parameter.

    scalar_fn must not mutate the network it is handed.
    """
    grads = MlpGrads.zeros_like(net)
    for arrays, out in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for p, g in zip(arrays, out):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = scalar_fn(net)
                p[idx] = orig - h
                fm = scalar_fn(net)
                p[idx] = orig
                g[idx] = (fp - fm) / (2.0 * h)
    return grads


def relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-10) -> float:
    """Norm of the difference over the norm of the reference, floored."""
    num = np.linalg.norm(np.asarray(approx).ravel() - np.asarray(exact).ravel())
    den = max(np.linalg.norm(np.asarray(exact).ravel()), floor)
    return float(num / den)


def flat_grads(grads: MlpGrads) -> np.ndarray:
    """Concatenate an MlpGrads into one flat vector."""
    return np.concatenate([a.ravel() for a in grads.weights + grads.biases])


def penalty_values(net: MlpNet, points: np.ndarray, beta: float) -> np.ndarray:
    """Per-point values of the gradient-norm penalty (||d y/d z|| - beta)^2."""
    g = input_gradient(net, np.atleast_2d(points))
    norms = np.linalg.norm(g, axis=1)
    return (norms - beta) ** 2


def brute_force_avoid_oracle(
    state: np.ndarray,
    margin_fn,
    action_subset: np.ndarray,
    horizon: int,
    dt: float = DEFAULT_DT,
) -> float:
    """Finite-horizon avoid value by exhaustive sequence enumeration.

    Returns max over all |A|^horizon action sequences of the min margin along
    the induced trajectory (including the start state).  No grid is involved;
    this is the independent check on the solver.

    Args:
        state: start state (3,).
        margin_fn: batched margin, (n, 3) -> (n,).
        action_subset: 1-D array of allowed turn rates.
        horizon: number of steps, >= 0.
        dt: dynamics step.
    """
    action_subset = np.atleast_1d(np.asarray(action_subset, dtype=float))
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n_seq = action_subset.size**horizon
    if n_seq > 10**6:
        raise ValueError(f"{action_subset.size}^{horizon} sequences exceed the 1e6 budget")
    start = float(margin_fn(np.asarray(state, dtype=float)[None, :])[0])
    if horizon == 0:
        return start
    seqs = np.array(list(itertools.product(action_subset, repeat=horizon)))
    cur = np.broadcast_to(np.asarray(state, dtype=float), (n_seq, 3)).copy()
    worst = np.full(n_seq, start)
    for t in range(horizon):
        cur = dynamics_step_batch(cur, seqs[:, t], dt)
        worst = np.minimum(worst, margin_fn(cur))
    return float(worst.max())


def recursive_avoid_value(state, margin_fn, step_fn, actions, horizon: int) -> float:
    """Finite-horizon avoid value by direct recursion.

    value(s, 0) = margin(s); value(s, h) = min(margin(s),
    max over actions of value(step(s, a), h - 1)).
    """
    m = margin_fn(state)
    if horizon == 0:
        return m
    best = max(recursive_avoid_value(step_fn(state, a), margin_fn, step_fn, actions, horizon - 1) for a in actions)
    return min(m, best)


def gather_value_iteration(margin: GridField, actions, gamma: float, dt: float, tol: float, max_iters: int) -> ValueSolution:
    """Jacobi value iteration with each sweep V <- max_a q_from_value(V, margin, nodes, a).

    At a node the interpolated margin is the node value, so this is the
    solver's backup evaluated by trilinear gathers at every successor state,
    with the same stopping rule as `hj.value_iteration`.
    """
    spec = margin.spec
    nodes = spec.nodes()
    v = margin.values.ravel()
    residuals: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        field = GridField(spec, v, kind="value")
        v_new = np.max([q_from_value(field, margin, nodes, a, gamma, dt) for a in actions], axis=0)
        residual = float(np.max(np.abs(v_new - v)))
        residuals.append(residual)
        v = v_new
        if residual < tol:
            converged = True
            break
    return ValueSolution(GridField(spec, v, kind="value"), converged, sweeps, residuals)
