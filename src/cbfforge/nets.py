"""Dense multilayer perceptrons with hand-rolled differentiation.

Everything downstream (margin training, the safety critic and actor) runs on
the small MLP type defined here.  Three derivative routes are provided:

* parameter gradients of scalar losses (reverse mode, ``param_gradient``);
  the seed is never carried past the first layer to the input,
* the output and input gradient of a scalar-valued network from one forward
  pass (``input_gradient`` returns ``(y, dy/dx)``); its reverse pass forms
  only the input chain, no weight-gradient products,
* parameter gradients of the gradient-norm penalty ``(||d y / d z|| - beta)^2``
  (``penalty_param_gradient``), which needs mixed second derivatives.  These
  are computed with a tangent (forward-mode) pass in the input direction
  followed by reverse mode over the augmented computation, never by finite
  differences.  The input-only pass supplies the first activation
  derivatives that the tangent and reverse passes reuse.

The training forward pass caches each activation's auxiliary value (the
sigmoid for SiLU, the output for tanh), and every derivative reads it
instead of re-evaluating ``exp`` or ``tanh``.  Inference (``mlp_forward``)
runs the same loop cache-free: it keeps only the current layer, forms no
aux, and gives the same bits.

Precision follows the weights: every entry point casts its inputs and loss
seeds to the dtype of the net's parameters, so a float64 net computes in
float64 and a float32 net in float32 throughout, Adam moments included.
A net's weights and biases share one float dtype.  Both trainers (the
margin nets and the safety actor-critic) train in TRAIN_DTYPE, float32,
and return the exact float64 upcast, so every consumer sees float64 nets.
Saved models are exact hex-float64 whatever the net's dtype, since float32
upcasts exactly.

Memory: a pass writes only into arrays it allocated itself.  The forward
pass adds the bias to the fresh product in place, and a ReLU or tanh layer
writes its value over that pre-activation, whose derivatives can be read
from the value.  The reverse passes scale their own seeds by the activation
derivative in place (every seed except the one a caller's ``loss_fn``
returned), and the parameter pass drops each layer's cached arrays once
its gradient is formed.  The SiLU derivatives are formed in one or two
arrays of their own, and the penalty's reverse pass builds its seed in the
array the second derivative returns.  Caller arrays (inputs, seeds, batches) are never
written, and every call returns fresh outputs.

Weights are stored row-major: ``weights[k]`` has shape ``(fan_out, fan_in)``
and layer k maps ``h -> act(weights[k] @ h + biases[k])``.  Batched calls take
``(n, d)`` arrays and return ``(n, out)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import decode_floats, encode_floats

HIDDEN_ACTIVATIONS = ("relu", "silu")
OUTPUT_ACTIVATIONS = ("identity", "tanh")
MODEL_FORMAT = "mlp-hex64"  # first header token of a saved model

# Below this input-gradient norm the penalty direction w = g / ||g|| is
# undefined; the penalty gradient for that sample is taken to be zero.
GRAD_NORM_FLOOR = 1e-12

# The precision every trainer (margin.train_margin, rl.train_safety_rl) runs
# its nets in.  Nets are initialised in float64, cast to this dtype for
# training and returned as their exact float64 upcast.
TRAIN_DTYPE = np.float32


# Each activation takes the pre-activation the forward pass owns and returns
# (value, aux).  ReLU and tanh write their value over it, and so does SiLU
# without a cache.  The derivatives read the array the pass kept (the
# pre-activation, or the value written over it) and the cached aux, so no
# derivative re-evaluates exp or tanh.  ReLU and identity carry no aux, and
# cache=False asks for none.


def _relu(x: np.ndarray, cache: bool):
    return np.maximum(x, 0.0, out=x), None


def _relu_d(x: np.ndarray, aux) -> np.ndarray:
    # A bool mask; multiplying by it gives the values of a 1.0/0.0 float
    # mask.  Subgradient 0 at exactly 0.
    return x > 0.0


def _relu_dd(x: np.ndarray, aux) -> np.ndarray:
    return np.zeros_like(x)


def _silu(x: np.ndarray, cache: bool):
    # Overwrites x only without a cache, as the derivatives read x.  The
    # value is x / e, not x * s, which would round differently.
    e = np.exp(-x)
    e += 1.0
    if not cache:
        return np.divide(x, e, out=x), None
    value = x / e
    return value, np.reciprocal(e, out=e)


# The SiLU derivatives write into the one or two arrays they allocate, never
# into x or s (the forward cache).  Each in-place step keeps the operands of
# s * (1 + x (1 - s)) and s (1 - s) (2 + x (1 - 2 s)), so the bits are those
# of the expressions.


def _silu_d(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    d = np.subtract(1.0, s)
    d *= x
    d += 1.0
    d *= s
    return d


def _silu_dd(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    dd = np.subtract(1.0, s)
    dd *= s
    inner = np.multiply(s, 2.0)
    np.subtract(1.0, inner, out=inner)
    inner *= x
    inner += 2.0
    dd *= inner
    return dd


def _tanh(x: np.ndarray, cache: bool):
    t = np.tanh(x, out=x)
    return t, t


def _tanh_d(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 1.0 - t * t


def _tanh_dd(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return -2.0 * t * (1.0 - t * t)


def _identity(x: np.ndarray, cache: bool):
    return x, None


def _identity_d(x: np.ndarray, aux) -> np.ndarray:
    return np.ones_like(x)


def _identity_dd(x: np.ndarray, aux) -> np.ndarray:
    return np.zeros_like(x)


# name -> (value and aux, first derivative, second derivative), all elementwise
_ACT_TABLE = {
    "relu": (_relu, _relu_d, _relu_dd),
    "silu": (_silu, _silu_d, _silu_dd),
    "tanh": (_tanh, _tanh_d, _tanh_dd),
    "identity": (_identity, _identity_d, _identity_dd),
}


@dataclass
class MlpNet:
    """A dense MLP: per-layer weight matrices, biases, and two activations.

    ``hidden_activation`` applies after every layer except the last,
    ``output_activation`` after the last.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str
    output_activation: str

    def __post_init__(self) -> None:
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be parallel, non-empty lists")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k + 1 < len(self.weights) and self.weights[k + 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {k}->{k + 1}: inner dimensions do not chain")
        # Mixed dtypes would silently upcast every product.
        dtypes = {str(p.dtype) for p in self.weights + self.biases}
        if len(dtypes) != 1 or not np.issubdtype(self.dtype, np.floating):
            raise ValueError(f"weights and biases must share one float dtype, got {sorted(dtypes)}")

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and so of every pass over the net."""
        return self.weights[0].dtype

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def _activation_at(self, k: int):
        name = self.hidden_activation if k + 1 < len(self.weights) else self.output_activation
        return _ACT_TABLE[name]

    def copy(self) -> "MlpNet":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "MlpNet":
        """A copy whose parameters are cast to dtype."""
        return MlpNet(
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
            self.hidden_activation,
            self.output_activation,
        )


@dataclass
class MlpGrads:
    """Per-parameter gradients, shaped exactly like an MlpNet's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def zeros_like(net: MlpNet) -> "MlpGrads":
        return MlpGrads(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )

    def add_scaled(self, other: "MlpGrads", scale: float) -> "MlpGrads":
        for w, ow in zip(self.weights, other.weights):
            w += scale * ow
        for b, ob in zip(self.biases, other.biases):
            b += scale * ob
        return self


def mlp_init(
    layer_dims: list[int],
    hidden_activation: str = "relu",
    output_activation: str = "identity",
    *,
    seed: int,
) -> MlpNet:
    """Build an MLP with uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] init.

    Args:
        layer_dims: [input_dim, hidden..., output_dim], at least two entries.
        hidden_activation: "relu" or "silu".
        output_activation: "identity" or "tanh".
        seed: seed for the init draw; equal seeds give equal nets.
    """
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs at least input and output dims")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"layer_dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpNet(weights, biases, hidden_activation, output_activation)


def _forward(net: MlpNet, x: np.ndarray, cache: bool):
    """Batched forward pass; bias and activation are written into the
    product the pass owns.

    Returns (output (n, out), layers).  With cache, layers[k] is the triple
    (input h_k (n, d_k), s_k (n, d_k+1), activation aux) the reverse passes
    read; s_k is the pre-activation, or for ReLU and tanh the value written
    over it.  Without, layers is empty: only the current layer is kept and
    no aux is formed.  The products and their order are the same either
    way, so the outputs are the same bits.
    """
    h, layers = x, []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        s = h @ w.T
        s += b
        act, _, _ = net._activation_at(k)
        h_next, aux = act(s, cache)
        if cache:
            layers.append((h, s, aux))
        h = h_next
    return h, layers


def mlp_forward(net: MlpNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one input (d,) or a batch (n, d), cache-free."""
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == 1
    h, _ = _forward(net, x[None, :] if single else x, cache=False)
    return h[0] if single else h


def _param_backward(net: MlpNet, layers, out_seed: np.ndarray) -> MlpGrads:
    """Reverse pass from d(loss)/d(output) seeds to parameter gradients.

    Gradients are summed over the batch.  The product that would carry the
    seed past layer 0 to the input is never formed.  Consumes ``layers``:
    each layer's cached arrays are dropped once its gradient is formed.
    """
    n_layers = len(layers)
    grad_w, grad_b = [None] * n_layers, [None] * n_layers
    u = out_seed
    for k in reversed(range(n_layers)):
        h, s, aux = layers.pop()
        _, act_d, _ = net._activation_at(k)
        if k + 1 == n_layers:
            u = u * act_d(s, aux)  # the caller's seed is not written
        else:
            u *= act_d(s, aux)
        del s, aux  # free this layer before the next product allocates
        grad_w[k] = u.T @ h
        grad_b[k] = u.sum(axis=0)
        if k > 0:
            u = u @ net.weights[k]
    return MlpGrads(grad_w, grad_b)


def _input_backward(net: MlpNet, layers):
    """Input gradient of a scalar-output network from a cached forward pass.

    Forms only the chain d y / d h_k, no parameter-gradient products.
    Returns (d y / d x of shape (n, d), each layer's first activation
    derivative) so that later passes need not recompute the derivatives.
    """
    d1 = [None] * len(layers)
    u = np.ones((layers[0][0].shape[0], 1), dtype=net.dtype)
    for k in reversed(range(len(layers))):
        _, s, aux = layers[k]
        _, act_d, _ = net._activation_at(k)
        d1[k] = act_d(s, aux)
        u *= d1[k]
        u = u @ net.weights[k]
    return u, d1


def param_gradient(net: MlpNet, inputs: np.ndarray, loss_fn):
    """Value and parameter gradient of a scalar loss of the network outputs.

    Args:
        net: network to differentiate.
        inputs: (n, d) batch fed through the network.
        loss_fn: maps outputs (n, out) to (scalar loss, d loss / d outputs
            of shape (n, out)).  Affine combinations, squares and hinges of
            outputs all fit this shape.

    Returns:
        (loss value, MlpGrads).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=net.dtype))
    out, layers = _forward(net, inputs, cache=True)
    loss, out_seed = loss_fn(out)
    return float(loss), _param_backward(net, layers, np.asarray(out_seed, dtype=net.dtype))


def input_gradient(net: MlpNet, x: np.ndarray):
    """Output and input gradient of a scalar-output network, one forward pass.

    Takes a batch (n, d); one input (d,) is a batch of one.  Returns
    (y (n, 1), g = d y / d x (n, d)).
    """
    if net.output_dim != 1:
        raise ValueError("input_gradient requires a scalar-output network")
    y, layers = _forward(net, np.atleast_2d(np.asarray(x, dtype=net.dtype)), cache=True)
    g, _ = _input_backward(net, layers)
    return y, g


def penalty_param_gradient(net: MlpNet, points: np.ndarray, beta: float):
    """Mean gradient-norm penalty over points and its parameter gradient.

    The penalty per point z is ``(||g(z)|| - beta)^2`` with ``g = d y / d z``.
    Its parameter gradient equals the gradient of ``w^T g`` with the direction
    ``w = 2 (||g|| - beta) g / ||g||`` held constant, which is a mixed second
    derivative: a tangent pass propagates the directional derivative of the
    forward computation along w, and a reverse pass over that augmented
    computation yields the parameter gradient.  Points whose gradient norm is
    below GRAD_NORM_FLOOR contribute zero gradient.

    Args:
        net: scalar-output network.
        points: (n, d) batch of evaluation points.
        beta: target gradient norm, >= 0.

    Returns:
        (mean penalty value, MlpGrads of the mean penalty).
    """
    if net.output_dim != 1:
        raise ValueError("penalty_param_gradient requires a scalar-output network")
    z = np.atleast_2d(np.asarray(points, dtype=net.dtype))
    n = z.shape[0]

    _, layers = _forward(net, z, cache=True)
    g, d1 = _input_backward(net, layers)
    norms = np.linalg.norm(g, axis=1)
    value = float(np.mean((norms - beta) ** 2))

    live = norms >= GRAD_NORM_FLOOR
    if not np.any(live):
        return value, MlpGrads.zeros_like(net)
    safe_norms = np.where(live, norms, 1.0)
    w_dir = (2.0 * (norms - beta) / safe_norms)[:, None] * g
    w_dir[~live] = 0.0

    # Tangent pass: directional derivative of every intermediate along w_dir.
    tangents_pre, tangents_post = [], []
    r = w_dir
    for k, w in enumerate(net.weights):
        t = r @ w.T
        tangents_pre.append(t)
        r = d1[k] * t
        tangents_post.append(r)

    # Reverse pass over the augmented (forward + tangent) computation.  The
    # scalar being differentiated is mean_i of the tangent output r_L[i].
    n_layers = len(layers)
    grad_w, grad_b = [None] * n_layers, [None] * n_layers
    r_bar = np.full((n, 1), 1.0 / n, dtype=net.dtype)
    h_bar = np.zeros((n, 1), dtype=net.dtype)
    for k in reversed(range(n_layers)):
        h, s, aux = layers[k]
        _, _, act_dd = net._activation_at(k)
        t_bar = r_bar * d1[k]
        # s_bar = r_bar * act_dd * tangents_pre[k] + h_bar * d1[k], built in
        # the fresh array act_dd returns.
        s_bar = act_dd(s, aux)
        s_bar *= r_bar
        s_bar *= tangents_pre[k]
        s_bar += h_bar * d1[k]
        r_prev = w_dir if k == 0 else tangents_post[k - 1]
        grad_w[k] = s_bar.T @ h + t_bar.T @ r_prev
        grad_b[k] = s_bar.sum(axis=0)
        if k > 0:
            h_bar = s_bar @ net.weights[k]
            r_bar = t_bar @ net.weights[k]
    return value, MlpGrads(grad_w, grad_b)


@dataclass
class AdamState:
    """Bias-corrected Adam optimizer state for one MlpNet."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: MlpGrads | None = field(default=None, repr=False)
    second_moment: MlpGrads | None = field(default=None, repr=False)


def adam_step(net: MlpNet, grads: MlpGrads, state: AdamState) -> None:
    """Apply one in-place Adam update to the network parameters."""
    if state.first_moment is None:
        state.first_moment = MlpGrads.zeros_like(net)
        state.second_moment = MlpGrads.zeros_like(net)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    params = net.weights + net.biases
    gs = grads.weights + grads.biases
    ms = state.first_moment.weights + state.first_moment.biases
    vs = state.second_moment.weights + state.second_moment.biases
    for p, g, m, v in zip(params, gs, ms, vs):
        # Two temporaries per parameter; the arithmetic and its order are
        # those of m += (1-b1) g, v += (1-b2) g g, p -= lr (m/c1) / (sqrt(v/c2) + eps).
        step = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += step
        np.multiply(g, 1.0 - state.beta2, out=step)
        step *= g
        v *= state.beta2
        v += step
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        np.divide(m, c1, out=step)
        step *= state.learning_rate
        step /= denom
        p -= step


def save_model(net: MlpNet, path: str) -> None:
    """Write the network to a text file of exact hex-float64 values.

    Line 1 is ``mlp-hex64 <L> <d0> ... <dL> <hidden_act> <output_act>``; then
    for each layer, one line per weight-matrix row followed by one bias line.
    Each value is the 16 hex digits of its float64 bit pattern (see
    cbfforge.codec), so load(save(net)) is bit-exact and two saves of one
    network write identical bytes.
    """
    dims = net.layer_dims
    lines = [
        "%s %d %s %s %s"
        % (MODEL_FORMAT, len(net.weights), " ".join(str(d) for d in dims), net.hidden_activation, net.output_activation)
    ]
    for w, b in zip(net.weights, net.biases):
        lines.extend(encode_floats(row) for row in w)
        lines.append(encode_floats(b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> MlpNet:
    """Read a network written by save_model.

    Raises ValueError naming the path on a bad header, line count or row, and
    on a file in the old decimal format (header ``mlp``), which must be
    regenerated.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty model file")
    head = lines[0].split()
    if head[0] == "mlp":
        raise ValueError(f"{path}: model file uses the old decimal format; regenerate it")
    if len(head) < 5 or head[0] != MODEL_FORMAT:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    try:
        n_layers = int(head[1])
        dims = [int(tok) for tok in head[2 : 2 + n_layers + 1]]
    except ValueError as exc:
        raise ValueError(f"{path}: unparseable header {lines[0]!r}") from exc
    if len(head) != 2 + n_layers + 1 + 2:
        raise ValueError(f"{path}: header field count does not match layer count")
    hidden_act, output_act = head[-2], head[-1]
    expected_lines = 1 + sum(dims[k + 1] + 1 for k in range(n_layers))
    if len(lines) != expected_lines:
        raise ValueError(f"{path}: expected {expected_lines} lines, found {len(lines)}")
    weights, biases = [], []
    cursor = 1
    for k in range(n_layers):
        fan_in, fan_out = dims[k], dims[k + 1]
        w = np.empty((fan_out, fan_in))
        for r in range(fan_out):
            w[r] = _decode_line(path, lines[cursor], fan_in, f"layer {k} row {r}")
            cursor += 1
        biases.append(_decode_line(path, lines[cursor], fan_out, f"layer {k} bias"))
        cursor += 1
        weights.append(w)
    return MlpNet(weights, biases, hidden_act, output_act)


def _decode_line(path: str, line: str, count: int, what: str) -> np.ndarray:
    try:
        return decode_floats(line, count)
    except ValueError as exc:
        raise ValueError(f"{path}: {what}: {exc}") from None
