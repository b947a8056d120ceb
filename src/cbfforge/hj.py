"""Grid-based reachability values for the Dubins car.

The solver iterates the discounted backup

    V <- (1 - gamma) * margin + gamma * min(margin, max_a V(f(s, a)))

to its fixed point on a regular (x, y, theta) grid with trilinear
interpolation, periodic in theta.  gamma = 1 gives the undiscounted avoid
value, which is a fixed point but not a contraction, so it may legitimately
stop non-converged.

On this grid the successor offset f(s, a) - s depends only on the heading
and the action, and clamping a successor into the box is the same as
edge-padding the field.  Each sweep is therefore a semi-Lagrangian stencil
(Falcone & Ferretti, SIAM 2013): per action, one theta lerp and a bilinear
shift of edge-padded xy planes, with per-heading weights.  It needs a few
copies of the field and no per-node tables.  `interpolate` and
`q_from_value` are the query path for arbitrary states; their trilinear
coefficients come from one loop-free broadcast over the 8 cell corners,
written straight into the (8, n) index and weight arrays.  Empirical
Lipschitz scans check the solved fields against the margin-to-value bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import decode_floats, encode_floats
from .dubins import XY_BOUND, dynamics_step_batch, wrap_angle

FIELD_KINDS = ("margin", "value")
FIELD_FORMAT = "grid-hex64"  # first header token of a saved field
BOUND_TOL = 0.05  # relative slack of the Lipschitz bound check


@dataclass(frozen=True)
class GridSpec:
    """Regular grid over the workspace box with a periodic theta axis.

    x and y nodes span [-1.5, 1.5] inclusive; theta nodes start at -pi with
    spacing 2 pi / ntheta (no duplicate node at +pi).
    """

    nx: int
    ny: int
    ntheta: int

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ValueError("nx, ny must be >= 3")
        if self.ntheta < 4:
            raise ValueError("ntheta must be >= 4")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-XY_BOUND, XY_BOUND, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(-XY_BOUND, XY_BOUND, self.ny)

    @property
    def thetas(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.ntheta) / self.ntheta

    @property
    def dx(self) -> float:
        return 2.0 * XY_BOUND / (self.nx - 1)

    @property
    def dy(self) -> float:
        return 2.0 * XY_BOUND / (self.ny - 1)

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.ntheta

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (nx * ny * ntheta, 3) array in x-major order."""
        gx, gy, gt = np.meshgrid(self.xs, self.ys, self.thetas, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gt.ravel()], axis=1)


@dataclass
class GridField:
    """Values on a GridSpec; kind is "margin" or "value"."""

    spec: GridSpec
    values: np.ndarray
    kind: str = "value"

    def __post_init__(self) -> None:
        expected = (self.spec.nx, self.spec.ny, self.spec.ntheta)
        # C order keeps values.ravel() in interpolate a view, not a copy.
        self.values = np.ascontiguousarray(self.values, dtype=float).reshape(expected)
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def margin_field(spec: GridSpec, margin_fn) -> GridField:
    """Evaluate a batched margin function at every node."""
    values = np.asarray(margin_fn(spec.nodes()), dtype=float)
    return GridField(spec, values.reshape(spec.nx, spec.ny, spec.ntheta), kind="margin")


def _theta_corners(spec: GridSpec, theta: np.ndarray):
    """Lower and upper theta node indices of each heading, and the upper weight."""
    ft = (wrap_angle(theta) + np.pi) / spec.dtheta
    it0 = np.minimum(ft.astype(np.int64), spec.ntheta - 1)
    return it0, (it0 + 1) % spec.ntheta, ft - it0


def _interp_coeffs(spec: GridSpec, states: np.ndarray):
    """Trilinear corner indices and weights for a batch of query states.

    Positions are clamped into the box and theta is wrapped.  Returns
    (idx, w): two (8, n) arrays with flat x-major corner indices and weights
    summing to one per column.  Corner c = 4 bx + 2 by + bt takes the lower
    (b = 0) or upper (b = 1) node on each axis, and its weight is
    (wx * wy) * wt.

    The pass is loop-free: it fills (2, 3, n) tables of the lower and upper
    node offsets and weights of each axis, then broadcasts the three axes
    over (2, 2, 2, n) straight into the outputs, so only those two tables
    live beside them.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    # [lower/upper, axis x/y/theta, state]: flat-index offsets and weights.
    off = np.empty((2, 3, n), dtype=np.int64)
    wts = np.empty((2, 3, n))
    off[0, 2], off[1, 2], wts[1, 2] = _theta_corners(spec, states[:, 2])
    # x and y positions in cells; less their lower node, the upper weights.
    pos = wts[1, :2]
    np.clip(states[:, :2].T, -XY_BOUND, XY_BOUND, out=pos)
    pos += XY_BOUND
    pos /= ((spec.dx,), (spec.dy,))
    np.minimum(pos.astype(np.int64), ((spec.nx - 2,), (spec.ny - 2,)), out=off[0, :2])
    np.add(off[0, :2], 1, out=off[1, :2])
    pos -= off[0, :2]
    np.subtract(1.0, wts[1], out=wts[0])
    off *= ((spec.ny * spec.ntheta,), (spec.ntheta,), (1,))

    idx = np.empty((8, n), dtype=np.int64)
    w = np.empty((8, n))
    idx4 = idx.reshape(2, 2, 2, n)
    np.add(off[:, None, None, 0], off[None, :, None, 1], out=idx4)
    idx4 += off[None, None, :, 2]
    w4 = w.reshape(2, 2, 2, n)
    np.multiply(wts[:, None, None, 0], wts[None, :, None, 1], out=w4)
    w4 *= wts[None, None, :, 2]
    return idx, w


def interpolate(field: GridField, states: np.ndarray):
    """Trilinear interpolation of the field, periodic in theta.

    Accepts one state (3,) or a batch (n, 3).
    """
    states = np.asarray(states, dtype=float)
    single = states.ndim == 1
    batch = states[None, :] if single else states
    idx, w = _interp_coeffs(field.spec, batch)
    out = np.einsum("cn,cn->n", w, field.values.ravel()[idx])
    return float(out[0]) if single else out


@dataclass
class ValueSolution:
    """Solved field plus convergence bookkeeping."""

    field: GridField
    converged: bool
    sweeps: int
    residuals: list[float]


def value_iteration(
    margin: GridField,
    action_set: np.ndarray,
    gamma: float,
    dt: float,
    tol: float,
    max_iters: int = 2000,
) -> ValueSolution:
    """Solve the discounted avoid fixed point by Jacobi sweeps.

    Every sweep writes into a fresh buffer (deterministic under parallel cell
    updates) and applies, at each node s,

        V(s) = (1 - gamma) * margin(s)
               + gamma * min(margin(s), max_a Interp(V, f(s, a))).

    Interp(V, f(s, a)) is the trilinear value `interpolate` would return at
    the successor, computed as a shift stencil: f(s, a) - s depends only on
    the heading and the action, so for each action the sweep lerps the two
    successor theta planes of every heading into an edge-padded buffer and
    blends four shifted xy windows of it with per-heading weights.  Edge
    padding reproduces the clamping of successors into the box.  Memory is a
    few copies of the field; nothing is stored per node and action.

    For gamma < 1 this is a gamma-contraction and must converge; gamma = 1 is
    the undiscounted fixed point and may hit max_iters, in which case the
    solution is returned flagged non-converged.

    Args:
        margin: gridded margin (kind "margin").
        action_set: non-empty 1-D array of turn rates.
        gamma: discount in [0, 1].
        dt: dynamics step.
        tol: sup-norm residual threshold, > 0.
        max_iters: sweep cap, >= 1.
    """
    action_set = np.atleast_1d(np.asarray(action_set, dtype=float))
    if action_set.size == 0:
        raise ValueError("action_set must be non-empty")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    spec = margin.spec
    nt, nx, ny = spec.ntheta, spec.nx, spec.ny
    # One column of headings, stepped from two opposite corners of the box.
    # Each copy clamps only the displacements that leave the box through its
    # far side, so their sum is the displacement capped at the box width,
    # beyond which every clamped successor sits on the edge anyway.
    column = np.zeros((2 * nt, 3))
    column[:nt, :2] = -XY_BOUND
    column[nt:, :2] = XY_BOUND
    column[:, 2] = np.tile(spec.thetas, 2)
    succs = [dynamics_step_batch(column, a, dt) for a in action_set]
    shifts = [((s[:nt, :2] + XY_BOUND) + (s[nt:, :2] - XY_BOUND)) / (spec.dx, spec.dy) for s in succs]
    pad = int(np.ceil(np.abs(shifts).max())) + 1

    # Theta-major planes, edge-padded by `pad` cells in x and y.  Window
    # (u, w) of a padded plane is the plane shifted by (u - pad, w - pad)
    # cells, with shifted-out positions clamped to the edge.
    padded = np.empty((nt, nx + 2 * pad, ny + 2 * pad))
    lo = np.empty_like(padded)
    lerp = np.empty_like(padded)
    windows = np.lib.stride_tricks.sliding_window_view(lerp, (nx, ny), axis=(1, 2))
    ks = np.arange(nt)
    taps = []
    for succ, shift in zip(succs, shifts):
        it0, it1, wt = _theta_corners(spec, succ[:nt, 2])
        base = np.floor(shift)
        fx, fy = (shift - base).T[:, :, None, None]
        ux, uy = (pad + base.astype(np.int64)).T
        corners = (
            (ux, uy, (1.0 - fx) * (1.0 - fy)),
            (ux + 1, uy, fx * (1.0 - fy)),
            (ux, uy + 1, (1.0 - fx) * fy),
            (ux + 1, uy + 1, fx * fy),
        )
        taps.append((it0, it1, wt[:, None, None], corners))

    ell = np.ascontiguousarray(np.moveaxis(margin.values, 2, 0))
    v = ell
    residuals: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        # Lerping padded planes keeps their pads exact, so pad V once per sweep.
        padded[:, pad : pad + nx, pad : pad + ny] = v
        padded[:, pad : pad + nx, :pad] = v[:, :, :1]
        padded[:, pad : pad + nx, pad + ny :] = v[:, :, -1:]
        padded[:, :pad] = padded[:, pad : pad + 1]
        padded[:, pad + nx :] = padded[:, pad + nx - 1 : pad + nx]
        best = np.full(v.shape, -np.inf)
        for it0, it1, wt, corners in taps:
            # The indices are in range; "clip" only skips buffering `out`.
            np.take(padded, it0, axis=0, out=lo, mode="clip")
            np.take(padded, it1, axis=0, out=lerp, mode="clip")
            lerp -= lo
            lerp *= wt
            lerp += lo
            ux, uy, w = corners[0]
            acc = windows[ks, ux, uy] * w
            for ux, uy, w in corners[1:]:
                pick = windows[ks, ux, uy]
                pick *= w
                acc += pick
            np.maximum(best, acc, out=best)
        v_new = (1.0 - gamma) * ell + gamma * np.minimum(ell, best)
        residual = float(np.max(np.abs(v_new - v)))
        residuals.append(residual)
        v = v_new
        if residual < tol:
            converged = True
            break
    field = GridField(spec, np.moveaxis(v, 0, 2), kind="value")
    return ValueSolution(field, converged, sweeps, residuals)


def require_converged(solution: ValueSolution, vi_tol: float, max_sweeps: int) -> None:
    """Raise RuntimeError unless the solve stopped on its residual test."""
    if not solution.converged:
        raise RuntimeError(
            f"value iteration did not converge: residual {solution.residuals[-1]:.3g} after {solution.sweeps} "
            f"sweeps is not below vi_tol = {vi_tol:g}; raise vi_max_sweeps (now {max_sweeps}) or loosen vi_tol"
        )


def q_from_value(
    value: GridField,
    margin: GridField,
    states: np.ndarray,
    actions,
    gamma: float,
    dt: float,
):
    """One-step backup Q(z, a) = (1-g) l(z) + g min(l(z), V(f(z, a))).

    Accepts a single state (3,) with scalar action, or batches: states (n, 3)
    with actions scalar or (n,).  The margin l(z) is interpolated from the
    margin field, so the two fields must share a GridSpec.
    """
    if value.spec != margin.spec:
        raise ValueError("value and margin fields must share a GridSpec")
    ell = interpolate(margin, states)
    nxt = interpolate(value, dynamics_step_batch(states, actions, dt))
    return (1.0 - gamma) * ell + gamma * np.minimum(ell, nxt)


def empirical_lipschitz(field: GridField) -> float:
    """Largest |value difference| / distance over axis-adjacent node pairs.

    The theta axis uses geodesic spacing and includes the wrap-around pair.
    """
    v = field.values
    spec = field.spec
    return max(
        float(np.max(np.abs(np.diff(v, axis=0)))) / spec.dx,
        float(np.max(np.abs(np.diff(v, axis=1)))) / spec.dy,
        float(np.max(np.abs(v - np.roll(v, -1, axis=2)))) / spec.dtheta,
    )


@dataclass
class LipschitzReport:
    """Empirical margin/value Lipschitz constants against the analytic bound.

    bound = L_ell * max(1, (1 - gamma) / (1 - gamma * L_f)), valid only under
    the hypothesis gamma * L_f < 1; holds means L_V <= bound * (1 + BOUND_TOL).
    """

    L_ell: float
    L_V: float
    L_f: float
    gamma: float
    bound: float
    holds: bool


def verify_margin_value_bound(
    margin: GridField,
    gamma: float,
    dt: float,
    action_set: np.ndarray,
    L_f: float,
    vi_tol: float,
    max_iters: int,
) -> LipschitzReport:
    """Solve the discounted field and check the margin-to-value
    Lipschitz bound L_V <= L_ell * max(1, (1-gamma)/(1-gamma L_f)).

    Rejects gamma * L_f >= 1, where the bound's hypothesis fails, and raises
    RuntimeError when the solve stops at max_iters unconverged: L_V of such
    a field says nothing about the value function.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("the bound needs gamma in [0, 1)")
    if gamma * L_f >= 1.0:
        raise ValueError(f"hypothesis violated: gamma * L_f = {gamma * L_f:.4f} >= 1")
    solution = value_iteration(margin, action_set, gamma, dt, tol=vi_tol, max_iters=max_iters)
    require_converged(solution, vi_tol, max_iters)
    l_ell = empirical_lipschitz(margin)
    l_v = empirical_lipschitz(solution.field)
    bound = l_ell * max(1.0, (1.0 - gamma) / (1.0 - gamma * L_f))
    return LipschitzReport(
        L_ell=l_ell,
        L_V=l_v,
        L_f=L_f,
        gamma=gamma,
        bound=bound,
        holds=bool(l_v <= bound * (1.0 + BOUND_TOL)),
    )


def save_field(field: GridField, path: str) -> None:
    """Write the field to a text file of exact hex-float64 values.

    Line 1 is ``grid-hex64 <kind> <nx> <ny> <ntheta>``; then one value per
    line, x-major, as the 16 hex digits of its float64 bit pattern (see
    cbfforge.codec), so load(save(field)) is bit-exact.
    """
    spec = field.spec
    with open(path, "w") as fh:
        fh.write(f"{FIELD_FORMAT} {field.kind} {spec.nx} {spec.ny} {spec.ntheta}\n")
        fh.write(encode_floats(field.values, sep="\n") + "\n")


def load_field(path: str, kind: str) -> GridField:
    """Read a field written by save_field.

    Raises ValueError naming the path when the file records a kind other than
    kind, on a bad header or value count, and on a file in the old decimal
    format (header ``grid``), which must be regenerated.
    """
    with open(path) as fh:
        head = fh.readline().split()
        tokens = fh.read().split()
    if head[:1] == ["grid"]:
        raise ValueError(f"{path}: grid file uses the old decimal format; regenerate it")
    if len(head) != 5 or head[0] != FIELD_FORMAT or not all(p.isdigit() for p in head[2:]):
        raise ValueError(f"{path}: bad grid header {' '.join(head)!r}")
    if head[1] != kind:
        raise ValueError(f"{path}: holds a {head[1]} grid, expected a {kind} grid")
    nx, ny, ntheta = (int(p) for p in head[2:])
    expected = nx * ny * ntheta
    if len(tokens) != expected:
        raise ValueError(f"{path}: expected {expected} values, found {len(tokens)}")
    try:
        values = decode_floats("\n".join(tokens), expected)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return GridField(GridSpec(nx, ny, ntheta), values.reshape(nx, ny, ntheta), kind=kind)
