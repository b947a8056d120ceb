"""Independent oracles used by the test suite.

Everything here is written as a second route to the same quantity: central
finite differences for derivatives, per-point gradient-norm penalties from
the input gradient, exhaustive and plain recursive enumerations for the
finite-horizon avoid value, value iteration by gathering through the
public query path, the earlier multi-pass forms of the net math (every
derivative from the pre-activation, a separate critic forward for Q, three
parameter passes per GP margin step) that the fused passes must reproduce,
the per-corner loop for trilinear coefficients, the RK4 step with a cos
and a sin call per stage and np.clip that the one-call step replaced, the
two-pass grid Q query (one whole-batch interpolation of the margin at the
states, then one of the value at the successors, with those coefficients
and that step) that the blocked single-pass query replaced, the
two-query filters (fallback_action, then the candidates' scores) that
anchored_q replaced, the margin trainer that allocated every array per
iteration, and the 17-significant-digit decimal model and grid
files that the hex-float64 codec replaced.
None of it shares code with the package implementations it checks, with
one exception.  The gather value iteration runs its sweeps through the
solver's own `hj.accelerated_fixed_point`, which `test_hj` tests on its own,
so the oracle checks the sweep operator at the solver's sweep count.
``traced_peak_bytes`` is the one measuring helper: the memory budgets of
the net passes are read from tracemalloc through it.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np

from cbfforge.config import SCHEMA
from cbfforge.dubins import ACTION_BOUND, OVERRIDE_THRESHOLD, XY_BOUND, wrap_angle
from cbfforge.filters import FeasibleSet, FilterDecision, cbf_constraint_check, q_query, sample_actions
from cbfforge.hj import GridField, GridSpec, ValueSolution, accelerated_fixed_point
from cbfforge.nets import (
    GRAD_NORM_FLOOR,
    TRAIN_DTYPE,
    AdamState,
    MlpGrads,
    MlpNet,
    input_gradient,
    mlp_init,
)


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

    scalar_fn must not mutate the network it is handed.  The net must be
    float64: a step of 1e-6 is below float32 resolution at most weights.
    """
    if net.weights[0].dtype != np.float64:
        raise ValueError(f"finite differences need a float64 net, got {net.weights[0].dtype}")
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
    g = input_gradient(net, np.atleast_2d(points))[1]
    norms = np.linalg.norm(g, axis=1)
    return (norms - beta) ** 2


def brute_force_avoid_oracle(
    state: np.ndarray,
    margin_fn,
    action_subset: np.ndarray,
    horizon: int,
    dt: float = SCHEMA["dt"][1],
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
        cur = reference_dynamics_step_batch(cur, seqs[:, t], dt)
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


def reference_dynamics_step_batch(states: np.ndarray, actions, dt: float) -> np.ndarray:
    """RK4 step of (cos theta, sin theta, a) with a cos and a sin call per
    stage and np.clip on the positions: `dubins.dynamics_step_batch` as it
    was before its one-call form, with its action checks and angle wrap
    inlined.  Same contract, checks and messages."""
    states = np.asarray(states, dtype=float)
    actions = np.broadcast_to(np.asarray(actions, dtype=float), states.shape[:-1])
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(states)):
        raise ValueError("non-finite state")
    if not np.all(np.isfinite(actions)):
        raise ValueError("non-finite action")
    if np.any(np.abs(actions) > ACTION_BOUND + 1e-12):
        raise ValueError(f"turn rate outside [-{ACTION_BOUND}, {ACTION_BOUND}]")

    theta = states[..., 2]
    t1 = theta
    t2 = theta + 0.5 * dt * actions
    t4 = theta + dt * actions
    dx = (np.cos(t1) + 4.0 * np.cos(t2) + np.cos(t4)) / 6.0
    dy = (np.sin(t1) + 4.0 * np.sin(t2) + np.sin(t4)) / 6.0

    out = np.empty_like(states)
    out[..., 0] = np.clip(states[..., 0] + dt * dx, -XY_BOUND, XY_BOUND)
    out[..., 1] = np.clip(states[..., 1] + dt * dy, -XY_BOUND, XY_BOUND)
    out[..., 2] = np.mod(theta + dt * actions + np.pi, 2.0 * np.pi) - np.pi
    return out


def loop_interpolate(field: GridField, states: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a batch (n, 3) through `loop_interp_coeffs`."""
    idx, w = loop_interp_coeffs(field.spec, states)
    return np.einsum("cn,cn->n", w, field.values.ravel()[idx])


def two_pass_q_from_value(value: GridField, margin: GridField, states, actions, gamma: float, dt: float):
    """Q(z, a) = (1-g) l(z) + g min(l(z), V(f(z, a))) by two whole-batch
    interpolations: the margin at the states, then the value at the
    successors of `reference_dynamics_step_batch`."""
    if value.spec != margin.spec:
        raise ValueError("value and margin fields must share a GridSpec")
    ell = loop_interpolate(margin, states)
    nxt = loop_interpolate(value, reference_dynamics_step_batch(states, actions, dt))
    return (1.0 - gamma) * ell + gamma * np.minimum(ell, nxt)


def gather_value_iteration(margin: GridField, actions, gamma: float, dt: float, tol: float, max_iters: int) -> ValueSolution:
    """Value iteration with each sweep V <- max_a Q(V, margin, nodes, a), Q
    from `two_pass_q_from_value`.

    At a node the interpolated margin is the node value, so this is the
    solver's backup evaluated by trilinear gathers at every successor state.
    The sweeps run through `hj.accelerated_fixed_point`, the driver
    `hj.value_iteration` uses, so both take the same jumps and stop at the
    same sweep; only the sweep operator is independent.
    """
    spec = margin.spec
    nodes = spec.nodes()

    def sweep(v, out):
        field = GridField(spec, v, kind="value")
        out[:] = np.max([two_pass_q_from_value(field, margin, nodes, a, gamma, dt) for a in actions], axis=0)

    v, converged, residuals, jumps = accelerated_fixed_point(sweep, margin.values.ravel(), tol, max_iters)
    return ValueSolution(GridField(spec, v, kind="value"), converged, len(residuals), residuals, jumps)


def loop_interp_coeffs(spec: GridSpec, states: np.ndarray):
    """Trilinear corner indices and weights, one corner per loop iteration.

    Same contract as `hj._interp_coeffs`: (8, n) flat x-major indices and
    weights, corner c = 4 bx + 2 by + bt, weight (wx * wy) * wt.
    """
    states = np.asarray(states, dtype=float)
    fx = (np.clip(states[:, 0], -XY_BOUND, XY_BOUND) + XY_BOUND) / spec.dx
    fy = (np.clip(states[:, 1], -XY_BOUND, XY_BOUND) + XY_BOUND) / spec.dy
    wrapped = np.mod(states[:, 2] + np.pi, 2.0 * np.pi) - np.pi
    ft = (wrapped + np.pi) / spec.dtheta
    it0 = np.minimum(ft.astype(np.int64), spec.ntheta - 1)
    it1 = (it0 + 1) % spec.ntheta
    wt = ft - it0

    ix0 = np.minimum(fx.astype(np.int64), spec.nx - 2)
    iy0 = np.minimum(fy.astype(np.int64), spec.ny - 2)
    wx = fx - ix0
    wy = fy - iy0
    ix1 = ix0 + 1
    iy1 = iy0 + 1

    n = states.shape[0]
    idx = np.empty((8, n), dtype=np.int64)
    w = np.empty((8, n))
    stride_x = spec.ny * spec.ntheta
    stride_y = spec.ntheta
    corner = 0
    for cx, wxc in ((ix0, 1.0 - wx), (ix1, wx)):
        for cy, wyc in ((iy0, 1.0 - wy), (iy1, wy)):
            for ct, wtc in ((it0, 1.0 - wt), (it1, wt)):
                idx[corner] = cx * stride_x + cy * stride_y + ct
                w[corner] = wxc * wyc * wtc
                corner += 1
    return idx, w


def two_query_cbf_filter(state, a_nominal, backend, cfg) -> FilterDecision:
    """cbf_filter with the fallback action asked first, then every candidate
    of sample_actions scored by q_query in a second backend query."""
    a_nom = float(a_nominal)
    a_fb = backend.fallback_action(state)
    samples = sample_actions(cfg.sampler, a_nom, a_fb)
    q = q_query(backend, state, samples, cfg)
    mask = cbf_constraint_check(q, float(q[-1]), cfg)
    feasible = FeasibleSet(actions=samples[mask], q_values=q[mask])
    if mask.any():
        chosen = float(feasible.actions[int(np.argmin(np.abs(feasible.actions - a_nom)))])
    else:
        chosen = float(a_fb)
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta >= OVERRIDE_THRESHOLD,
        delta_a=delta,
        feasible_count=int(mask.sum()),
        q_nominal=float(q[-2]),
        q_fallback=float(q[-1]),
        feasible=feasible,
    )


def two_query_lr_filter(state, a_nominal, backend, epsilon: float = 0.2) -> FilterDecision:
    """lr_filter with the fallback action asked first, then the nominal and
    fallback actions scored by q_values in a second backend query."""
    a_nom = float(a_nominal)
    a_fb = float(backend.fallback_action(state))
    q = backend.q_values(state, np.array([a_nom, a_fb]))
    keep = float(q[0]) >= epsilon
    chosen = a_nom if keep else a_fb
    delta = abs(chosen - a_nom)
    return FilterDecision(
        action=chosen,
        overridden=delta >= OVERRIDE_THRESHOLD,
        delta_a=delta,
        feasible_count=int(keep),
        q_nominal=float(q[0]),
        q_fallback=float(q[1]),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _silu_dd(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return (1.0 - s) * s * (2.0 + x * (1.0 - 2.0 * s))


def _tanh_dd(x: np.ndarray) -> np.ndarray:
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


# name -> (value, first derivative, second derivative), all from the
# pre-activation alone.
_REFERENCE_ACTS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(x.dtype), np.zeros_like),
    "silu": (lambda x: x / (1.0 + np.exp(-x)), lambda x: _sigmoid(x) * (1.0 + x * (1.0 - _sigmoid(x))), _silu_dd),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) * np.tanh(x), _tanh_dd),
    "identity": (lambda x: x, np.ones_like, np.zeros_like),
}


def _reference_act(net: MlpNet, k: int):
    last = k + 1 == len(net.weights)
    return _REFERENCE_ACTS[net.output_activation if last else net.hidden_activation]


def _reference_forward_layers(net: MlpNet, x: np.ndarray):
    h, pre_acts, acts = x, [], []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        acts.append(h)
        s = h @ w.T + b
        pre_acts.append(s)
        h = _reference_act(net, k)[0](s)
    return h, pre_acts, acts


def _reference_backward(net: MlpNet, pre_acts, acts, out_seed):
    grads = MlpGrads.zeros_like(net)
    u = out_seed
    for k in reversed(range(len(net.weights))):
        s_bar = u * _reference_act(net, k)[1](pre_acts[k])
        grads.weights[k] += s_bar.T @ acts[k]
        grads.biases[k] += s_bar.sum(axis=0)
        u = s_bar @ net.weights[k]
    return grads, u


# Like the package, the reference passes compute in the dtype of the net's
# weights: inputs and loss seeds are cast to it.


def reference_forward(net: MlpNet, x: np.ndarray) -> np.ndarray:
    """Batched forward pass with SiLU as x / (1 + exp(-x))."""
    return _reference_forward_layers(net, np.atleast_2d(np.asarray(x, dtype=net.weights[0].dtype)))[0]


def reference_param_gradient(net: MlpNet, inputs: np.ndarray, loss_fn):
    """Parameter gradient accumulated into zeros, derivatives from pre-activations."""
    dtype = net.weights[0].dtype
    inputs = np.atleast_2d(np.asarray(inputs, dtype=dtype))
    out, pre_acts, acts = _reference_forward_layers(net, inputs)
    loss, out_seed = loss_fn(out)
    grads, _ = _reference_backward(net, pre_acts, acts, np.asarray(out_seed, dtype=dtype))
    return float(loss), grads


def reference_input_gradient(net: MlpNet, x: np.ndarray) -> np.ndarray:
    """d y / d x of a scalar-output net by the full reverse pass, (n, d)."""
    dtype = net.weights[0].dtype
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    _, pre_acts, acts = _reference_forward_layers(net, x)
    _, g = _reference_backward(net, pre_acts, acts, np.ones((x.shape[0], 1), dtype=dtype))
    return g


def reference_penalty_param_gradient(net: MlpNet, points: np.ndarray, beta: float):
    """penalty_param_gradient by a tangent pass and a reverse pass that form
    every factor, an identity output's 1 and 0 included, with every
    derivative from the pre-activation and a fresh array per product."""
    dtype = net.weights[0].dtype
    z = np.atleast_2d(np.asarray(points, dtype=dtype))
    n, n_layers = z.shape[0], len(net.weights)
    _, pre_acts, acts = _reference_forward_layers(net, z)
    d1 = [_reference_act(net, k)[1](pre_acts[k]) for k in range(n_layers)]
    _, g = _reference_backward(net, pre_acts, acts, np.ones((n, 1), dtype=dtype))
    norms = np.linalg.norm(g, axis=1)
    value = float(np.mean((norms - beta) ** 2))
    live = norms >= GRAD_NORM_FLOOR
    grads = MlpGrads.zeros_like(net)
    if not np.any(live):
        return value, grads
    w_dir = (2.0 * (norms - beta) / np.where(live, norms, 1.0))[:, None] * g
    w_dir[~live] = 0.0

    tangents_pre, tangents_post, r = [], [w_dir], w_dir
    for k, w in enumerate(net.weights):
        tangents_pre.append(r @ w.T)
        r = d1[k] * tangents_pre[k]
        tangents_post.append(r)

    r_bar = np.full((n, 1), 1.0 / n, dtype=dtype)
    h_bar = np.zeros((n, 1), dtype=dtype)
    for k in reversed(range(n_layers)):
        t_bar = r_bar * d1[k]
        s_bar = _reference_act(net, k)[2](pre_acts[k]) * r_bar * tangents_pre[k] + h_bar * d1[k]
        grads.weights[k] += s_bar.T @ acts[k] + t_bar.T @ tangents_post[k]
        grads.biases[k] += s_bar.sum(axis=0)
        h_bar = s_bar @ net.weights[k]
        r_bar = t_bar @ net.weights[k]
    return value, grads


def reference_adam_step(net: MlpNet, grads: MlpGrads, state) -> None:
    """Adam with one temporary per operation, in the dtype of the parameters."""
    if state.first_moment is None:
        state.first_moment = MlpGrads.zeros_like(net)
        state.second_moment = MlpGrads.zeros_like(net)
    state.step_count += 1
    c1 = 1.0 - state.beta1**state.step_count
    c2 = 1.0 - state.beta2**state.step_count
    for p, g, m, v in zip(
        net.weights + net.biases,
        grads.weights + grads.biases,
        state.first_moment.weights + state.first_moment.biases,
        state.second_moment.weights + state.second_moment.biases,
    ):
        g = g.astype(p.dtype, copy=False)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.epsilon)


def two_pass_actor_update(actor: MlpNet, critic: MlpNet, batch: dict, opt) -> float:
    """rl.actor_update with Q and dQ/da from two separate critic passes."""
    states = batch["z"]
    n = states.shape[0]

    def neg_mean_q(outputs):
        feats = np.hstack([states, (ACTION_BOUND * outputs[:, 0])[:, None]])
        q = reference_forward(critic, feats)[:, 0]
        dq_da = reference_input_gradient(critic, feats)[:, -1]
        return float(-np.mean(q)), (-(ACTION_BOUND / n) * dq_da)[:, None]

    loss, grads = reference_param_gradient(actor, states, neg_mean_q)
    reference_adam_step(actor, grads, opt)
    return loss


def reference_interpolate_pair(z_plus: np.ndarray, z_minus: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Row-wise (1 - eta) z+ + eta z- with theta along the shorter arc, eta (n,)."""
    out = np.empty_like(z_plus)
    out[:, :2] = (1.0 - eta)[:, None] * z_plus[:, :2] + eta[:, None] * z_minus[:, :2]
    out[:, 2] = wrap_angle(z_plus[:, 2] + eta * wrap_angle(z_minus[:, 2] - z_plus[:, 2]))
    return out


def wgan_loss(net: MlpNet, batch_safe, batch_fail, cfg, rng):
    """Separation term plus gradient penalty, each from its own pass.

    lambda_zs * (mean l(z-) - mean l(z+)) + lambda_gp * mean penalty, with
    zhat pairs by index up to the shorter batch at eta ~ U(0, 1) from rng.
    """
    n_s, n_f = batch_safe.shape[0], batch_fail.shape[0]

    def zs_term(outputs):
        value = cfg.lambda_zs * (outputs[n_s:, 0].mean() - outputs[:n_s, 0].mean())
        seed = np.concatenate([np.full(n_s, -cfg.lambda_zs / n_s), np.full(n_f, cfg.lambda_zs / n_f)])
        return value, seed[:, None]

    value, grads = reference_param_gradient(net, np.vstack([batch_safe, batch_fail]), zs_term)
    n_pairs = min(n_s, n_f)
    eta = rng.uniform(0.0, 1.0, size=n_pairs)
    zhat = reference_interpolate_pair(batch_safe[:n_pairs], batch_fail[:n_pairs], eta)
    pen_value, pen_grads = reference_penalty_param_gradient(net, zhat, cfg.beta)
    grads.add_scaled(pen_grads, cfg.lambda_gp)
    return value + cfg.lambda_gp * pen_value, grads


def three_pass_margin_loss(net: MlpNet, batch_safe, batch_fail, cfg, rng):
    """The train_margin objective as a hinge pass plus wgan_loss, summed after.

    The hinge is mean max(0, delta - l(z+)) + mean max(0, delta + l(z-)),
    delta 0 for GP and cfg.delta for NoGP, weighted by lambda_sign.
    """
    n_s, n_f = batch_safe.shape[0], batch_fail.shape[0]
    delta = 0.0 if cfg.use_gp else cfg.delta

    def sign_term(outputs):
        gap_safe, gap_fail = delta - outputs[:n_s, 0], delta + outputs[n_s:, 0]
        value = np.mean(np.maximum(0.0, gap_safe)) + np.mean(np.maximum(0.0, gap_fail))
        seed = np.concatenate([np.where(gap_safe > 0.0, -1.0 / n_s, 0.0), np.where(gap_fail > 0.0, 1.0 / n_f, 0.0)])
        return cfg.lambda_sign * value, cfg.lambda_sign * seed[:, None]

    value, grads = reference_param_gradient(net, np.vstack([batch_safe, batch_fail]), sign_term)
    if cfg.use_gp:
        wgan_value, wgan_grads = wgan_loss(net, batch_safe, batch_fail, cfg, rng)
        grads.add_scaled(wgan_grads, 1.0)
        value += wgan_value
    return value, grads


def one_pass_margin_loss(net: MlpNet, batch_safe, batch_fail, cfg, rng):
    """margin_loss without buffers, on the reference passes: the hinge and
    separation seeds summed before one parameter pass, plus one penalty pass
    blended array by array."""
    n_s, n_f = batch_safe.shape[0], batch_fail.shape[0]
    delta = 0.0 if cfg.use_gp else cfg.delta

    def stacked_terms(outputs):
        l_safe, l_fail = outputs[:n_s, 0], outputs[n_s:, 0]
        gap_safe, gap_fail = delta - l_safe, delta + l_fail
        value = cfg.lambda_sign * (np.mean(np.maximum(0.0, gap_safe)) + np.mean(np.maximum(0.0, gap_fail)))
        seed = cfg.lambda_sign * np.concatenate(
            [np.where(gap_safe > 0.0, -1.0 / n_s, 0.0), np.where(gap_fail > 0.0, 1.0 / n_f, 0.0)]
        )
        if cfg.use_gp:
            value += cfg.lambda_zs * (l_fail.mean() - l_safe.mean())
            seed += np.concatenate([np.full(n_s, -cfg.lambda_zs / n_s), np.full(n_f, cfg.lambda_zs / n_f)])
        return value, seed[:, None]

    value, grads = reference_param_gradient(net, np.vstack([batch_safe, batch_fail]), stacked_terms)
    if cfg.use_gp:
        n_pairs = min(n_s, n_f)
        eta = rng.uniform(0.0, 1.0, size=n_pairs)
        zhat = reference_interpolate_pair(batch_safe[:n_pairs], batch_fail[:n_pairs], eta)
        pen_value, pen_grads = reference_penalty_param_gradient(net, zhat, cfg.beta)
        for a, b in zip(grads.weights + grads.biases, pen_grads.weights + pen_grads.biases):
            a += cfg.lambda_gp * b
        value += cfg.lambda_gp * pen_value
    return value, grads


def allocating_train_margin(dataset, cfg) -> MlpNet:
    """train_margin as it ran before its run-long buffers.

    The batch rows are drawn by fancy indexing, one_pass_margin_loss
    computes in fresh arrays on the reference passes, and Adam updates one
    parameter array at a time on a net of separate arrays.  Same seed
    stream, same dtype.
    """
    rng = np.random.default_rng(cfg.seed)
    output_act = "identity" if cfg.use_gp else "tanh"
    net = mlp_init([3, *cfg.hidden_dims, 1], "silu", output_act, seed=cfg.seed).astype(TRAIN_DTYPE)
    adam = AdamState(learning_rate=cfg.learning_rate)
    safe, fail = dataset.safe_points, dataset.fail_points
    for _ in range(cfg.iterations):
        batch_safe = safe[rng.integers(0, safe.shape[0], cfg.batch_size)]
        batch_fail = fail[rng.integers(0, fail.shape[0], cfg.batch_size)]
        _, grads = one_pass_margin_loss(net, batch_safe, batch_fail, cfg, rng)
        reference_adam_step(net, grads, adam)
    return net.astype(np.float64)


def decimal_save_model(net: MlpNet, path: str) -> None:
    """The decimal model file: header ``mlp <L> <dims...> <hidden> <output>``, %.17g rows."""
    dims = net.layer_dims
    lines = [
        "mlp %d %s %s %s"
        % (len(net.weights), " ".join(str(d) for d in dims), net.hidden_activation, net.output_activation)
    ]
    for w, b in zip(net.weights, net.biases):
        for row in w:
            lines.append(" ".join("%.17g" % v for v in row))
        lines.append(" ".join("%.17g" % v for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def decimal_load_model(path: str) -> MlpNet:
    """Read a decimal_save_model file, one float() per token."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    n_layers = int(lines[0][1])
    dims = [int(tok) for tok in lines[0][2 : 3 + n_layers]]
    weights, biases, cursor = [], [], 1
    for k in range(n_layers):
        rows = lines[cursor : cursor + dims[k + 1]]
        weights.append(np.array([[float(tok) for tok in row] for row in rows]).reshape(dims[k + 1], dims[k]))
        biases.append(np.array([float(tok) for tok in lines[cursor + dims[k + 1]]]))
        cursor += dims[k + 1] + 1
    return MlpNet(weights, biases, lines[0][-2], lines[0][-1])


def decimal_save_field(field: GridField, path: str) -> None:
    """The decimal grid file: header ``grid <nx> <ny> <ntheta>``, one %.17g value per line."""
    spec = field.spec
    lines = [f"grid {spec.nx} {spec.ny} {spec.ntheta}"]
    lines.extend("%.17g" % v for v in field.values.ravel())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def decimal_load_field(path: str, kind: str = "value") -> GridField:
    """Read a decimal_save_field file; the decimal format does not record the kind."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    nx, ny, ntheta = (int(p) for p in lines[0].split()[1:])
    values = np.array([float(ln) for ln in lines[1:]]).reshape(nx, ny, ntheta)
    return GridField(GridSpec(nx, ny, ntheta), values, kind=kind)


def traced_peak_bytes(fn) -> int:
    """Peak bytes that fn() holds at once beyond what was live before it.

    numpy reports its array buffers to tracemalloc, so this is the peak of
    the arrays fn allocates, whatever the allocator does with them.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
