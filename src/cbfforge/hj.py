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
copies of the field and no per-node tables.

After a short transient the residual of plain Jacobi sweeps shrinks by one
fixed ratio per sweep, which is the tail Aitken's delta-squared process
removes (Aitken 1926; Walker & Ni, SIAM J. Numer. Anal. 2011, for the
safeguarded form).  `accelerated_fixed_point` drives the sweeps: once two
successive residual ratios agree to RATIO_AGREEMENT it jumps along the last
change, keeps the jump only if the next sweep's residual is smaller than
the one before the jump, and otherwise returns to the iterate before it and
waits BACKOFF times longer before the next try.  The stopping test reads
only a plain sweep's change, so the gamma / (1 - gamma) * tol error bound
of plain iteration still holds.  With the exact margin, 25 actions and one
BLAS thread (2-core x86 host, numpy on OpenBLAS), against plain sweeps:

    41x41x21, gamma 0.995, tol 1e-5:  75 -> 22 sweeps; distance from a
                                      tol 1e-11 solve 1.30e-4 -> 2.8e-6
    61x61x31, gamma 0.995, tol 1e-6:  533 -> 17 sweeps (28-44 s -> 0.9 s);
                                      distance 1.29e-4 -> 2.0e-9
    41x41x21, gamma 0.9, tol 1e-5:    32 -> 19 sweeps
    41x41x21, gamma 1, tol 1e-5:      1,059 -> 1,067 sweeps: every jump is
                                      rejected, and the back-off keeps the
                                      waste to 8 sweeps

`interpolate` and `q_from_value` are the query path for arbitrary states.
Their trilinear coefficients come from one loop-free pass over the three axes
as rows of one table, broadcast over the 8 cell corners into the (8, n) index
and weight arrays.  `q_from_value` makes one such pass per QUERY_BLOCK rows of
states stacked on their successors, for the margin at the states and the value
at the successors, so a whole-grid query holds arrays of the block's size, not
the grid's.  A filter step's few dozen rows cost numpy calls, not arithmetic,
so the path makes few, with the per-axis form's arithmetic, order and bits.
Empirical Lipschitz scans check the solved fields against the
margin-to-value bound.

`save_field` and `load_field` stream through cbfforge.codec: one block of
lines of text at a time goes to or comes from the file, and the loader
decodes into a field allocated from the header, so either holds about the
field itself and nothing the size of its text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import read_rows, write_rows
from .config import SCHEMA, check_fields, check_setting
from .dubins import XY_BOUND, dynamics_step_batch, wrap_angle

FIELD_KINDS = ("margin", "value")
FIELD_FORMAT = "grid-hex64"  # first header token of a saved field
BOUND_TOL = 0.05  # relative slack of the Lipschitz bound check
# A jump is tried only when the last two residual ratios agree to this
# relative tolerance, i.e. when the tail is one geometric mode.
RATIO_AGREEMENT = 1e-3
# Plain sweeps a chain needs before the first jump: two ratios take three.
MIN_CHAIN = 3
# Factor on the plain sweeps required before the next jump after a rejected one.
BACKOFF = 2
# Rows per block of a q_from_value query.  25 queries over the 35,301 nodes
# of the 41x41x21 grid, one BLAS thread, 2-vCPU x86 host, numpy 2.4 (time of
# the 25 in two processes, tracemalloc peak of one): 1,024 rows 318-529 ms,
# 1.36 MB; 2,048 287-429 ms, 2.24 MB; 4,096 301-469 ms, 4.06 MB.  Earlier
# code: 512 rows 919 ms, 0.88 MB; 8,192 605 ms, 7.63 MB; unblocked 678 ms,
# 18.4 MB.  Past 2,048 rows the time stops falling and the peak keeps growing.
QUERY_BLOCK = 2048


@dataclass(frozen=True)
class GridSpec:
    """Regular grid over the workspace box with a periodic theta axis.

    x and y nodes span [-1.5, 1.5] inclusive; theta nodes start at -pi with
    spacing 2 pi / ntheta (no duplicate node at +pi).
    """

    nx: int = field(metadata={"key": "grid_nx"})
    ny: int = field(metadata={"key": "grid_ny"})
    ntheta: int = field(metadata={"key": "grid_ntheta"})

    def __post_init__(self) -> None:
        check_fields(self)

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

    @cached_property
    def _axis_columns(self):
        """Read-only (3, 1) x/y/theta columns for _interp_coeffs: (shift, cell size), (top lower node, stride)."""
        floats = np.array([[XY_BOUND, XY_BOUND, np.pi], [self.dx, self.dy, self.dtheta]])[..., None]
        ints = np.array([[self.nx - 2, self.ny - 2, self.ntheta - 1], [self.ny * self.ntheta, self.ntheta, 1]])[..., None]
        floats.flags.writeable = ints.flags.writeable = False
        return floats, ints

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
        # C order keeps values.ravel() in the queries a view, not a copy.
        self.values = np.ascontiguousarray(self.values, dtype=float).reshape(expected)
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def margin_field(spec: GridSpec, margin_fn) -> GridField:
    """Evaluate a batched margin function at every node."""
    values = np.asarray(margin_fn(spec.nodes()), dtype=float)
    return GridField(spec, values.reshape(spec.nx, spec.ny, spec.ntheta), kind="margin")


def _interp_coeffs(spec: GridSpec, states: np.ndarray):
    """Trilinear corner indices and weights for a batch of query states.

    Positions are clamped into the box and theta is wrapped.  Returns
    (idx, w): two (8, n) arrays with flat x-major corner indices and weights
    summing to one per column.  Corner c = 4 bx + 2 by + bt takes the lower
    (b = 0) or upper (b = 1) node on each axis, and its weight is
    (wx * wy) * wt.

    The pass is loop-free.  The axes are rows of (2, 3, n) tables of lower
    and upper node offsets and weights: x and y are clamped by np.minimum and
    np.maximum, theta is wrapped, all rows are shifted, scaled and floored at
    once, and the tables are broadcast over (2, 2, 2, n) straight into the
    outputs, so only those two tables live beside them.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    # [lower/upper, axis x/y/theta, state]: flat-index offsets and weights.
    off = np.empty((2, 3, n), dtype=np.int64)
    wts = np.empty((2, 3, n))
    # Positions in cells; less their lower node, the upper weights.
    pos = wts[1]
    np.minimum(states[:, :2].T, XY_BOUND, out=pos[:2])
    np.maximum(pos[:2], -XY_BOUND, out=pos[:2])
    pos[2] = wrap_angle(states[:, 2])
    (shift, cell), (top, stride) = spec._axis_columns
    pos += shift
    pos /= cell
    np.minimum(pos.astype(np.int64), top, out=off[0])
    np.add(off[0], 1, out=off[1])
    off[1, 2] %= spec.ntheta
    pos -= off[0]
    np.subtract(1.0, pos, out=wts[0])
    off *= stride

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
    """Solved field plus convergence bookkeeping.

    residuals holds the change of every sweep, so len(residuals) == sweeps;
    jumps maps each sweep that started from an extrapolated iterate to
    whether the jump was kept.
    """

    field: GridField
    converged: bool
    sweeps: int
    residuals: list[float]
    jumps: dict[int, bool] = field(default_factory=dict)


def accelerated_fixed_point(sweep, start: np.ndarray, tol: float, max_iters: int):
    """Iterate sweep from start until its change is below tol, with the
    safeguarded Aitken jumps of the module docstring.

    sweep(v, out) writes the plain sweep of v into out and keeps neither
    array.  When the last two residual ratios r agree, the iterate v with
    last change d is replaced by the jump w = v + r / (1 - r) * d; the sweep
    of w counts in residuals and against max_iters like any other.  Every
    stopping test reads a sweep's own change |T(w) - w|, which bounds the
    distance of T(w) from the fixed point of a gamma-contraction T by
    gamma / (1 - gamma) times that change, whatever w was.

    Returns (v, converged, residuals, jumps): the last kept iterate (a new
    array), whether its residual fell below tol, the change of every sweep,
    and each jump's sweep number mapped to whether it was kept.
    """
    v = np.array(start, dtype=float)
    out, delta = np.empty_like(v), np.empty_like(v)
    residuals: list[float] = []
    jumps: dict[int, bool] = {}
    chain: list[float] = []  # residuals of the plain sweeps that led to v since the last try
    wait = MIN_CHAIN
    converged = False
    while len(residuals) < max_iters:
        src = v
        if len(chain) >= wait:
            ratio_before, ratio = chain[-2] / chain[-3], chain[-1] / chain[-2]
            if 0.0 < ratio < 1.0 and abs(ratio - ratio_before) <= RATIO_AGREEMENT * ratio:
                # The jump overwrites delta: the sweep of it rewrites delta anyway.
                delta *= ratio / (1.0 - ratio)
                delta += v
                src = delta
        sweep(src, out)
        np.subtract(out, src, out=delta)
        residual = float(max(delta.max(), -delta.min()))
        residuals.append(residual)
        if src is delta:
            kept = residual < chain[-1]
            jumps[len(residuals)] = kept
            if not kept:
                # v is unchanged, and the next sweep of it rewrites delta.
                wait *= BACKOFF
                chain = chain[-1:]
                continue
            chain = []
        chain.append(residual)
        v, out = out, v
        if residual < tol:
            converged = True
            break
    return v, converged, residuals, jumps


def value_iteration(
    margin: GridField,
    action_set: np.ndarray,
    gamma: float,
    dt: float,
    tol: float,
    max_iters: int = SCHEMA["vi_max_sweeps"][1],
) -> ValueSolution:
    """Solve the discounted avoid fixed point by Jacobi sweeps with
    safeguarded Aitken jumps (see accelerated_fixed_point).

    Every sweep writes into a buffer other than its input (deterministic
    under parallel cell updates) and applies, at each node s,

        V(s) = (1 - gamma) * margin(s)
               + gamma * min(margin(s), max_a Interp(V, f(s, a))).

    Interp(V, f(s, a)) is the trilinear value `interpolate` would return at
    the successor, computed as a shift stencil: f(s, a) - s depends only on
    the heading and the action, so for each action the sweep lerps the two
    successor theta planes of every heading into an edge-padded buffer and
    blends four shifted xy windows of it with per-heading weights.  Edge
    padding reproduces the clamping of successors into the box.  Memory is a
    few copies of the field; nothing is stored per node and action.

    A sweep is one application of that backup, to the last iterate or to a
    jump from it; sweeps, residuals and max_iters count both kinds, so
    len(residuals) == sweeps <= max_iters.  The solve stops when a sweep
    changes its input by less than tol in the sup norm, and returns that
    sweep's output V.  For gamma < 1 the backup is a gamma-contraction, so
    V lies within gamma / (1 - gamma) * tol of the fixed point and its own
    residual is below gamma * tol.  gamma = 1 is the undiscounted fixed
    point and may hit max_iters, in which case the solution is returned
    flagged non-converged.

    Args:
        margin: gridded margin (kind "margin").
        action_set: non-empty 1-D array of turn rates.
        gamma: discount (key gamma).
        dt: dynamics step (key dt).
        tol: sup-norm residual threshold (key vi_tol).
        max_iters: sweep cap (key vi_max_sweeps).
    """
    action_set = np.atleast_1d(np.asarray(action_set, dtype=float))
    if action_set.size == 0:
        raise ValueError("action_set must be non-empty")
    check_setting("gamma", gamma, ValueError)
    check_setting("dt", dt, ValueError)
    check_setting("vi_tol", tol, ValueError)
    check_setting("vi_max_sweeps", max_iters, ValueError)

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
        ft = (wrap_angle(succ[:nt, 2]) + np.pi) / spec.dtheta  # successor headings, in theta cells
        it0 = np.minimum(ft.astype(np.int64), nt - 1)
        it1, wt = (it0 + 1) % nt, ft - it0
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

    def sweep(v: np.ndarray, out: np.ndarray) -> None:
        # Lerping padded planes keeps their pads exact, so pad V once per sweep.
        padded[:, pad : pad + nx, pad : pad + ny] = v
        padded[:, pad : pad + nx, :pad] = v[:, :, :1]
        padded[:, pad : pad + nx, pad + ny :] = v[:, :, -1:]
        padded[:, :pad] = padded[:, pad : pad + 1]
        padded[:, pad + nx :] = padded[:, pad + nx - 1 : pad + nx]
        out.fill(-np.inf)
        for it0, it1, wt, corners in taps:
            # The indices are in range; "clip" only skips buffering `out`.
            np.take(padded, it0, axis=0, out=lo, mode="clip")
            np.take(padded, it1, axis=0, out=lerp, mode="clip")
            np.subtract(lerp, lo, out=lerp)
            np.multiply(lerp, wt, out=lerp)
            np.add(lerp, lo, out=lerp)
            ux, uy, w = corners[0]
            acc = windows[ks, ux, uy] * w
            for ux, uy, w in corners[1:]:
                pick = windows[ks, ux, uy]
                pick *= w
                acc += pick
            np.maximum(out, acc, out=out)
        np.minimum(ell, out, out=out)
        out *= gamma
        # lo is free until the next sweep: hold (1 - gamma) * margin in it.
        share = lo[:, :nx, :ny]
        np.multiply(ell, 1.0 - gamma, out=share)
        out += share

    v, converged, residuals, jumps = accelerated_fixed_point(sweep, ell, tol, max_iters)
    field = GridField(spec, np.moveaxis(v, 0, 2), kind="value")
    return ValueSolution(field, converged, len(residuals), residuals, jumps)


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

    The rows go in blocks of QUERY_BLOCK.  A block of b states and their b
    successors is one (2b, 3) stack and one `_interp_coeffs` pass: the
    margin is gathered through the first b index columns, the value through
    the last b, and one einsum reduces all 2b columns.  A query therefore
    holds a few arrays of 2 * QUERY_BLOCK columns whatever n is; over the
    35,301 nodes of a 41x41x21 grid it peaks at 2.2 MB in tracemalloc,
    against 9.0 MB for two whole-batch `interpolate` calls.  A single state
    is a block of 2 columns, so its Q equals its row in any batch, bit for
    bit (einsum over one column rounds differently from the n >= 2 columns).
    """
    if value.spec != margin.spec:
        raise ValueError("value and margin fields must share a GridSpec")
    states = np.asarray(states, dtype=float)
    single = states.ndim == 1
    batch = states[None, :] if single else states
    n = batch.shape[0]
    actions = np.ravel(actions)  # one action goes to every block whole
    margin_flat, value_flat = margin.values.ravel(), value.values.ravel()
    q = np.empty(n)
    for lo in range(0, n, QUERY_BLOCK):
        hi = min(lo + QUERY_BLOCK, n)
        b = hi - lo
        succ = dynamics_step_batch(batch[lo:hi], actions if actions.size == 1 else actions[lo:hi], dt)
        idx, w = _interp_coeffs(value.spec, np.concatenate([batch[lo:hi], succ]))
        corners = np.empty((8, 2 * b))
        np.take(margin_flat, idx[:, :b], out=corners[:, :b])
        np.take(value_flat, idx[:, b:], out=corners[:, b:])
        interp = np.einsum("cn,cn->n", w, corners)
        ell, nxt = interp[:b], interp[b:]
        np.add((1.0 - gamma) * ell, gamma * np.minimum(ell, nxt, out=nxt), out=q[lo:hi])
    return q[0] if single else q


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

    Rejects gamma outside lip_gamma's range and gamma * L_f not below 1
    (nan included), where the bound's hypothesis fails, and raises
    RuntimeError when the solve stops at max_iters unconverged: L_V of such
    a field says nothing about the value function.
    """
    check_setting("lip_gamma", gamma, ValueError)
    if not gamma * L_f < 1.0:  # a nan L_f fails the hypothesis too
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
    cbfforge.codec), so load(save(field)) is bit-exact.  The values go to
    the file one block of lines at a time, so saving holds one block's text
    beyond the field.
    """
    spec = field.spec
    with open(path, "w") as fh:
        fh.write(f"{FIELD_FORMAT} {field.kind} {spec.nx} {spec.ny} {spec.ntheta}\n")
        write_rows(fh, [field.values.reshape(-1, 1)])


def load_field(path: str, kind: str) -> GridField:
    """Read a field written by save_field.

    The float64 values are allocated from the header and filled one block of
    lines at a time, so loading holds about the field itself.  Every error is
    a ValueError naming the path: a recorded kind other than kind, a bad
    header or grid shape, a bad value count, and the old decimal format
    (header ``grid``), which must be regenerated.
    """
    try:
        with open(path) as fh:
            head = fh.readline().split()
            if head[:1] == ["grid"]:
                raise ValueError("grid file uses the old decimal format; regenerate it")
            if len(head) != 5 or head[0] != FIELD_FORMAT or not all(p.isdigit() for p in head[2:]):
                raise ValueError(f"bad grid header {' '.join(head)!r}")
            if head[1] != kind:
                raise ValueError(f"holds a {head[1]} grid, expected a {kind} grid")
            nx, ny, ntheta = (int(p) for p in head[2:])
            spec, expected = GridSpec(nx, ny, ntheta), nx * ny * ntheta
            arrays, found = read_rows(fh, [(expected, 1)], [""])
        if found != expected:
            raise ValueError(f"expected {expected} values, found {found}")
        return GridField(spec, arrays[0].reshape(nx, ny, ntheta), kind=kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
