"""Independent oracles used by the test suite.

Everything here is written as a second route to the same quantity: central
finite differences for derivatives, a plain recursive enumeration for the
finite-horizon avoid value, and value iteration by gathering through the
public query path.  None of it shares code with the package implementations
it checks.
"""

from __future__ import annotations

import numpy as np

from cbfforge.hj import GridField, ValueSolution, q_from_value
from cbfforge.nets import MlpGrads, MlpNet


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
