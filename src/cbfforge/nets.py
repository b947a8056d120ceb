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
upcasts exactly.  `save_model` and `load_model` stream through
cbfforge.codec a block of weight rows or a bias line at a time, and the
loader decodes into float64 arrays allocated from the header, so either
holds about the net itself and nothing the size of its text.

Memory: a pass writes only into arrays it formed itself.  The forward
pass adds the bias to its product in place, and a ReLU or tanh layer
writes its value over that pre-activation, whose derivatives can be read
from the value.  The reverse passes scale their own seeds by the activation
derivative in place (every seed except the one a caller's ``loss_fn``
returned); the parameter pass writes each layer's seed over the layer input
its weight gradient has just read and drops each layer's cached arrays
once its gradient is formed, and the penalty's reverse pass writes each
tangent seed over the tangent it read last.  An identity output's
derivative (1) and second derivative (0) are never formed.  The SiLU
derivatives are formed in one or two arrays of their own, and the
penalty's reverse pass builds its seed in the array the second derivative
returns.  Caller arrays (inputs, seeds, batches) are never written.  A call
without buffers returns fresh outputs.  A call given run-long buffers (a
``PassBuffers``, which a trainer makes once per run) forms every array in
them and returns views into them, the gradient and the outputs its loss
sees; those views are valid until the next call that uses the same
buffers (a parameter gradient, until the next parameter pass).

Weights are stored row-major: ``weights[k]`` has shape ``(fan_out, fan_in)``
and layer k maps ``h -> act(weights[k] @ h + biases[k])``.  Batched calls take
``(n, d)`` arrays and return ``(n, out)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import read_rows, write_rows

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
# cache=False asks for none.  Every array a function forms comes from
# take(shape, dtype): _fresh lets numpy allocate it, and a PassBuffers hands
# out a run-long one.  Only the source of the arrays differs.


def _fresh(shape, dtype):
    return None  # as out=, None makes numpy allocate the result


def _filled(take, shape, dtype, value):
    out = take(shape, dtype)
    if out is None:
        return np.full(shape, value, dtype)
    out.fill(value)
    return out


def _relu(x: np.ndarray, cache: bool, take=_fresh):
    return np.maximum(x, 0.0, out=x), None


def _relu_d(x: np.ndarray, aux, take=_fresh) -> np.ndarray:
    # A bool mask; multiplying by it gives the values of a 1.0/0.0 float
    # mask.  Subgradient 0 at exactly 0.
    return np.greater(x, 0.0, out=take(x.shape, bool))


def _relu_dd(x: np.ndarray, aux, take=_fresh) -> np.ndarray:
    return _filled(take, x.shape, x.dtype, 0.0)


def _silu(x: np.ndarray, cache: bool, take=_fresh):
    # Overwrites x only without a cache, as the derivatives read x.  The
    # value is x / e, not x * s, which would round differently.
    e = np.negative(x, out=take(x.shape, x.dtype))
    np.exp(e, out=e)
    e += 1.0
    if not cache:
        return np.divide(x, e, out=x), None
    value = np.divide(x, e, out=take(x.shape, x.dtype))
    return value, np.reciprocal(e, out=e)


# The SiLU derivatives write into the one or two arrays they take, never
# into x or s (the forward cache).  Each in-place step keeps the operands of
# s * (1 + x (1 - s)) and s (1 - s) (2 + x (1 - 2 s)), so the bits are those
# of the expressions.


def _silu_d(x: np.ndarray, s: np.ndarray, take=_fresh) -> np.ndarray:
    d = np.subtract(1.0, s, out=take(s.shape, s.dtype))
    d *= x
    d += 1.0
    d *= s
    return d


def _silu_dd(x: np.ndarray, s: np.ndarray, take=_fresh) -> np.ndarray:
    dd = np.subtract(1.0, s, out=take(s.shape, s.dtype))
    dd *= s
    inner = np.multiply(s, 2.0, out=take(s.shape, s.dtype))
    np.subtract(1.0, inner, out=inner)
    inner *= x
    inner += 2.0
    dd *= inner
    return dd


def _tanh(x: np.ndarray, cache: bool, take=_fresh):
    t = np.tanh(x, out=x)
    return t, t


def _tanh_d(x: np.ndarray, t: np.ndarray, take=_fresh) -> np.ndarray:
    d = np.multiply(t, t, out=take(t.shape, t.dtype))
    return np.subtract(1.0, d, out=d)  # 1 - t t


def _tanh_dd(x: np.ndarray, t: np.ndarray, take=_fresh) -> np.ndarray:
    dd = np.multiply(t, -2.0, out=take(t.shape, t.dtype))
    inner = np.multiply(t, t, out=take(t.shape, t.dtype))
    np.subtract(1.0, inner, out=inner)
    dd *= inner  # -2 t (1 - t t)
    return dd


def _identity(x: np.ndarray, cache: bool, take=_fresh):
    return x, None


def _identity_d(x: np.ndarray, aux, take=_fresh) -> np.ndarray:
    return _filled(take, x.shape, x.dtype, 1.0)


def _identity_dd(x: np.ndarray, aux, take=_fresh) -> np.ndarray:
    return _filled(take, x.shape, x.dtype, 0.0)


# name -> (value and aux, first derivative, second derivative), all elementwise
_ACT_TABLE = {
    "relu": (_relu, _relu_d, _relu_dd),
    "silu": (_silu, _silu_d, _silu_dd),
    "tanh": (_tanh, _tanh_d, _tanh_dd),
    "identity": (_identity, _identity_d, _identity_dd),
}


def _on_flat(flat: np.ndarray, like) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of flat shaped like the weights and biases of like (a net or
    its gradients), layer by layer, each weight before its bias."""
    weights, biases, at = [], [], 0
    for w, b in zip(like.weights, like.biases):
        weights.append(flat[at : at + w.size].reshape(w.shape))
        at += w.size
        biases.append(flat[at : at + b.size])
        at += b.size
    return weights, biases


@dataclass
class MlpNet:
    """A dense MLP: per-layer weight matrices, biases, and two activations.

    ``hidden_activation`` applies after every layer except the last,
    ``output_activation`` after the last.  A net from ``as_flat`` keeps
    every parameter in one vector, ``flat``, which Adam updates in one pass.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str
    output_activation: str
    flat: np.ndarray | None = field(default=None, repr=False)

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

    def as_flat(self, dtype) -> "MlpNet":
        """astype, with every parameter a view into one vector, ``flat``."""
        flat = np.empty(sum(p.size for p in self.weights + self.biases), dtype)
        weights, biases = _on_flat(flat, self)
        for view, p in zip(weights + biases, self.weights + self.biases):
            view[...] = p  # the cast of astype
        return MlpNet(weights, biases, self.hidden_activation, self.output_activation, flat)


@dataclass
class MlpGrads:
    """Per-parameter gradients, shaped exactly like an MlpNet's parameters,
    and laid out like as_flat's when every array views one vector, ``flat``."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def zeros_like(net: MlpNet) -> "MlpGrads":
        if net.flat is not None:
            return MlpGrads.flat_zeros(net)
        return MlpGrads(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )

    @staticmethod
    def flat_zeros(net: MlpNet) -> "MlpGrads":
        flat = np.zeros(sum(p.size for p in net.weights + net.biases), net.dtype)
        return MlpGrads(*_on_flat(flat, net), flat)

    def add_scaled(self, other: "MlpGrads", scale: float) -> "MlpGrads":
        if self.flat is not None and other.flat is not None:
            pairs = [(self.flat, other.flat)]
        else:
            pairs = zip(self.weights + self.biases, other.weights + other.biases)
        for a, b in pairs:
            a += scale * b
        return self


# Pool offsets are multiples of _ALIGN bytes from the pool's start, which
# keeps every float32, float64 and bool view the pool hands out aligned.
_ALIGN = 64


class PassBuffers:
    """Run-long arrays for the training passes over one net.

    A trainer makes one per run and hands it to every ``param_gradient``
    and ``penalty_param_gradient`` call.  Each of the two writes its
    gradient into a flat vector of its own (``grads``, ``penalty_grads``,
    laid out like ``as_flat``'s parameters), so a parameter pass's gradient
    outlives the penalty pass that follows it.  Every other array of a pass
    is cut from one pool, which each call reuses from its start.  At the
    start of a call the pool grows to the largest pass seen so far; a call
    that outgrows it takes fresh arrays for the rest of the pass, so only
    a run's first calls allocate.
    """

    def __init__(self, net: MlpNet):
        self.grads = MlpGrads.flat_zeros(net)
        self.penalty_grads = MlpGrads.flat_zeros(net)
        self._pool = np.empty(0, np.uint8)
        self._views: dict = {}  # (offset, shape, dtype) -> (view, next offset)
        self._used = self._need = 0

    def _start(self):
        if self._need > self._pool.size:
            self._pool = self._views = None  # freed before its successor is allocated
            self._pool, self._views = np.empty(self._need, np.uint8), {}
        self._used = 0
        return self._take

    def _take(self, shape: tuple, dtype):
        hit = self._views.get((self._used, shape, dtype))
        if hit is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            end = self._used + -(-nbytes // _ALIGN) * _ALIGN
            if end > self._pool.size:
                self._used = self._need = max(self._need, end)
                return None
            view = self._pool[self._used : self._used + nbytes].view(dtype).reshape(shape)
            hit = self._views[(self._used, shape, dtype)] = (view, end)
        self._used = hit[1]
        return hit[0]


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


def _cast(a, dtype, take) -> np.ndarray:
    """a as an array of dtype: a itself if it is one, else a cast copy."""
    a = np.asarray(a)
    if a.dtype == dtype:
        return a
    out = take(a.shape, dtype)
    if out is None:
        return a.astype(dtype)
    out[...] = a
    return out


def _forward(net: MlpNet, x: np.ndarray, cache: bool, take=_fresh):
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
        s = np.matmul(h, w.T, out=take((h.shape[0], w.shape[0]), net.dtype))
        s += b
        act, _, _ = net._activation_at(k)
        h_next, aux = act(s, cache, take)
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


def _derivative(net: MlpNet, k: int, layer, take):
    """Layer k's first activation derivative from its cached (h, s, aux);
    None for an identity output, whose derivative is 1 and never formed."""
    if k + 1 == len(net.weights) and net.output_activation == "identity":
        return None
    _, s, aux = layer
    return net._activation_at(k)[1](s, aux, take)


def _param_backward(net: MlpNet, layers, out_seed: np.ndarray, take, grads: MlpGrads | None) -> MlpGrads:
    """Reverse pass from d(loss)/d(output) seeds to parameter gradients.

    Gradients are summed over the batch, into grads' arrays when given.
    The product that would carry the seed past layer 0 to the input is
    never formed.  Each layer's seed is written over that layer's input,
    which its weight gradient has just read; the derivative it is scaled by
    is formed first, as for ReLU that input is also the pre-activation the
    derivative reads.  Consumes ``layers``.
    """
    n_layers = len(layers)
    grad_w, grad_b = (grads.weights, grads.biases) if grads is not None else ([None] * n_layers, [None] * n_layers)
    u = out_seed
    d = _derivative(net, n_layers - 1, layers[-1], take)
    if d is not None:
        u = np.multiply(d, u, out=d)  # the caller's seed is not written
    for k in reversed(range(n_layers)):
        h, s, aux = layers.pop()
        del s, aux  # free this layer before the next array is formed
        grad_w[k] = np.matmul(u.T, h, out=grad_w[k])
        grad_b[k] = np.add.reduce(u, axis=0, out=grad_b[k])
        if k > 0:
            d = _derivative(net, k - 1, layers[-1], take)
            u = np.matmul(u, net.weights[k], out=h)
            u *= d
    return grads if grads is not None else MlpGrads(grad_w, grad_b)


def _input_backward(net: MlpNet, layers, take=_fresh):
    """Input gradient of a scalar-output network from a cached forward pass.

    Forms only the chain d y / d h_k, no parameter-gradient products.
    Returns (d y / d x of shape (n, d), each layer's first activation
    derivative, None for an identity output) so that later passes need not
    recompute the derivatives.
    """
    d1 = [None] * len(layers)
    u = _filled(take, (layers[0][0].shape[0], 1), net.dtype, 1.0)
    for k in reversed(range(len(layers))):
        d1[k] = _derivative(net, k, layers[k], take)
        if d1[k] is not None:
            u *= d1[k]
        w = net.weights[k]
        u = np.matmul(u, w, out=take((u.shape[0], w.shape[1]), net.dtype))
    return u, d1


def param_gradient(net: MlpNet, inputs: np.ndarray, loss_fn, buffers: PassBuffers | None = None):
    """Value and parameter gradient of a scalar loss of the network outputs.

    Args:
        net: network to differentiate.
        inputs: (n, d) batch fed through the network.
        loss_fn: maps outputs (n, out) to (scalar loss, d loss / d outputs
            of shape (n, out)).  Affine combinations, squares and hinges of
            outputs all fit this shape.
        buffers: run-long arrays to compute in (None: fresh ones).  The
            outputs loss_fn sees and the gradient returned are then views
            into buffers.

    Returns:
        (loss value, MlpGrads).
    """
    take = _fresh if buffers is None else buffers._start()
    grads = None if buffers is None else buffers.grads
    inputs = np.atleast_2d(_cast(inputs, net.dtype, take))
    out, layers = _forward(net, inputs, cache=True, take=take)
    loss, out_seed = loss_fn(out)
    return float(loss), _param_backward(net, layers, _cast(out_seed, net.dtype, take), take, grads)


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


def penalty_param_gradient(net: MlpNet, points: np.ndarray, beta: float, buffers: PassBuffers | None = None):
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
        buffers: run-long arrays to compute in (None: fresh ones).  The
            gradient returned is then a view into buffers.

    Returns:
        (mean penalty value, MlpGrads of the mean penalty).
    """
    if net.output_dim != 1:
        raise ValueError("penalty_param_gradient requires a scalar-output network")
    take = _fresh if buffers is None else buffers._start()
    grads = None if buffers is None else buffers.penalty_grads
    z = np.atleast_2d(_cast(points, net.dtype, take))
    n = z.shape[0]

    _, layers = _forward(net, z, cache=True, take=take)
    g, d1 = _input_backward(net, layers, take)
    norms = np.sqrt(np.add.reduce(g * g, axis=1))  # np.linalg.norm's arithmetic
    gap = norms - beta
    value = float(np.mean(gap**2))

    live = norms >= GRAD_NORM_FLOOR
    n_live = np.count_nonzero(live)
    if n_live == 0:
        if grads is None:
            return value, MlpGrads.zeros_like(net)
        grads.flat.fill(0.0)
        return value, grads
    # w_dir = 2 (||g|| - beta) / ||g|| * g, written over g; 0 on dead rows.
    scale = np.multiply(gap, 2.0)
    scale /= norms if n_live == n else np.where(live, norms, 1.0)
    w_dir = np.multiply(g, scale[:, None], out=g)
    if n_live < n:
        w_dir[~live] = 0.0

    # Tangent pass: directional derivative of every intermediate along
    # w_dir.  An identity output's tangent feeds nothing (its second
    # derivative is 0), and nothing reads the output tangent's image under
    # the output derivative.
    n_layers = len(layers)
    tangents_pre, tangents_post = [], []
    r = w_dir
    for k in range(n_layers if d1[-1] is not None else n_layers - 1):
        w = net.weights[k]
        t = np.matmul(r, w.T, out=take((n, w.shape[0]), net.dtype))
        tangents_pre.append(t)
        if k + 1 < n_layers:
            r = np.multiply(d1[k], t, out=take(t.shape, net.dtype))
            tangents_post.append(r)

    # Reverse pass over the augmented (forward + tangent) computation.  The
    # scalar being differentiated is mean_i of the tangent output r_L[i].
    grad_w, grad_b = (grads.weights, grads.biases) if grads is not None else ([None] * n_layers, [None] * n_layers)
    r_bar = _filled(take, (n, 1), net.dtype, 1.0 / n)
    h_bar = None  # zero above the output
    for k in reversed(range(n_layers)):
        h, s, aux = layers[k]
        r_prev = w_dir if k == 0 else tangents_post[k - 1]
        if d1[k] is None:
            t_bar, s_bar = r_bar, None  # identity output: t_bar = r_bar * 1, s_bar = 0
            grad_w[k] = np.matmul(t_bar.T, r_prev, out=grad_w[k])
            if grad_b[k] is None:
                grad_b[k] = np.zeros_like(net.biases[k])
            else:
                grad_b[k].fill(0.0)
        else:
            # s_bar = r_bar * act_dd * tangents_pre[k] + h_bar * d1[k], built
            # in the array act_dd returns; then t_bar = r_bar * d1[k] is
            # written over r_bar, and h_bar * d1[k] over h_bar.
            s_bar = net._activation_at(k)[2](s, aux, take)
            s_bar *= r_bar
            s_bar *= tangents_pre[k]
            t_bar = np.multiply(r_bar, d1[k], out=r_bar)
            if h_bar is not None:
                h_bar *= d1[k]
                s_bar += h_bar
            grad_w[k] = np.matmul(s_bar.T, h, out=grad_w[k])
            grad_w[k] += np.matmul(t_bar.T, r_prev, out=take(grad_w[k].shape, net.dtype))
            grad_b[k] = np.add.reduce(s_bar, axis=0, out=grad_b[k])
        if k > 0:
            if s_bar is not None:
                h_bar = np.matmul(s_bar, net.weights[k], out=take(h.shape, net.dtype))
            # r_prev has been read for the last time: the next r_bar goes there.
            r_bar = np.matmul(t_bar, net.weights[k], out=r_prev)
    return value, grads if grads is not None else MlpGrads(grad_w, grad_b)


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
    """Apply one in-place Adam update to the network parameters.

    When the net, the gradients and the moments each lie on one flat vector
    (a net from as_flat), the update runs once over those vectors; the
    arithmetic is elementwise, so the bits are those of the per-array loop.
    """
    if state.first_moment is None:
        state.first_moment = MlpGrads.zeros_like(net)
        state.second_moment = MlpGrads.zeros_like(net)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m_all, v_all = state.first_moment, state.second_moment
    flats = (net.flat, grads.flat, m_all.flat, v_all.flat)
    if all(a is not None for a in flats):
        arrays = [flats]
    else:
        arrays = zip(net.weights + net.biases, grads.weights + grads.biases,
                     m_all.weights + m_all.biases, v_all.weights + v_all.biases)
    for p, g, m, v in arrays:
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
    network write identical bytes.  Rows go to the file a block at a time,
    so saving holds one block's text beyond the net.
    """
    dims = net.layer_dims
    with open(path, "w") as fh:
        fh.write(
            "%s %d %s %s %s\n"
            % (MODEL_FORMAT, len(net.weights), " ".join(str(d) for d in dims), net.hidden_activation, net.output_activation)
        )
        write_rows(fh, [a for w, b in zip(net.weights, net.biases) for a in (w, b.reshape(1, -1))])


def load_model(path: str) -> MlpNet:
    """Read a network written by save_model.

    The float64 weights and biases are allocated from the header and filled
    a block of lines at a time, so loading holds about the net itself.  Every
    error is a ValueError naming the path: a bad header (a non-positive
    dimension or an unknown activation included), line count or row, and
    the old decimal format (header ``mlp``), which must be regenerated.
    """
    try:
        with open(path) as fh:
            header = next((ln for ln in fh if not ln.isspace()), "").strip()
            if not header:
                raise ValueError("empty model file")
            head = header.split()
            if head[0] == "mlp":
                raise ValueError("model file uses the old decimal format; regenerate it")
            if len(head) < 5 or head[0] != MODEL_FORMAT:
                raise ValueError(f"bad header {header!r}")
            try:
                n_layers = int(head[1])
                dims = [int(tok) for tok in head[2 : 2 + n_layers + 1]]
            except ValueError:
                raise ValueError(f"unparseable header {header!r}") from None
            if len(head) != 2 + n_layers + 1 + 2:
                raise ValueError("header field count does not match layer count")
            if n_layers < 1 or min(dims) < 1:
                raise ValueError(f"non-positive dimension in header {header!r}")
            shapes = [shape for n_in, n_out in zip(dims[:-1], dims[1:]) for shape in ((n_out, n_in), (1, n_out))]
            labels = [lab for k in range(n_layers) for lab in (f"layer {k} row {{}}", f"layer {k} bias")]
            arrays, found = read_rows(fh, shapes, labels)
        expected_lines = 1 + sum(n_rows for n_rows, _ in shapes)
        if 1 + found != expected_lines:
            raise ValueError(f"expected {expected_lines} lines, found {1 + found}")
        return MlpNet(arrays[0::2], [b[0] for b in arrays[1::2]], head[-2], head[-1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

