"""Dense feed-forward classifier with hand-written gradients.

The network maps a batch of input rows through SELU hidden layers to a
softmax head and is trained with Adam. `backward` reads the layer
outputs of one forward pass (`layer_outputs`) and returns the exact
parameter gradient of the scalar sum_n <g_n, forward(x)_n> for
caller-supplied rows g, which is the only primitive needed to assemble
every loss gradient used in training. The central-difference oracle
that guards these gradients lives in `diagnostics`.

A net's parameters are one flat vector, `theta`, and only this module
knows its layout: the per-layer weights and biases are views into it,
and `backward` and `adam_step` work on vectors laid out like it.

A net computes in the dtype of its `theta`, float32 or float64: inputs
and output gradients are cast to it, and every intermediate keeps it
(training steps a float32 net; the gradient oracles run float64 ones).
Everything here except `adam_step` is a pure function of its inputs:
a layer applies SELU or softmax in place to the array it just allocated,
public `selu` and `softmax` to a copy, and `backward` fills a fresh
vector. `adam_step` overwrites the net's parameters and the moments of
its `AdamState`, so copy a net to keep it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError

SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
# selu_slope's c = scale * alpha and c - scale, in each dtype a net computes in
_SLOPE_CONSTANTS = {np.dtype(t): (t(SELU_SCALE * SELU_ALPHA),
                                  t(SELU_SCALE * SELU_ALPHA) - t(SELU_SCALE))
                    for t in (np.float32, np.float64)}

# softmax outputs are floored at this value before any logarithm. It is
# a normal number in float32 as in float64 (float32's smallest is about
# 1.2e-38), so the floor is exact in both; -log of it (27.6) and the
# 1e12 of 1/floor in the cross-entropy gradient are far inside float32's
# range, and that gradient only reaches backward multiplied by p <= 1
PROB_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _floats(x):
    """x as an array of its own float32 or float64, anything else as
    float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _selu_(x):
    """selu in place over x, a float array the caller allocated."""
    neg = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(neg, out=neg)
    neg *= SELU_SCALE * SELU_ALPHA
    np.maximum(x, 0.0, out=x)
    x *= SELU_SCALE
    x += neg
    return x


def selu(x):
    """Scaled exponential linear unit, elementwise:
    scale * max(x, 0) + scale * alpha * expm1(min(x, 0)), in x's dtype,
    on a copy of x. expm1 never sees a positive value, and x is never
    written."""
    return _selu_(_floats(x).copy())


def selu_slope(a):
    """SELU's derivative at z, read off the activation a = selu(z): the
    scale where z > 0, else scale * alpha * e^z = a + scale * alpha (the
    z <= 0 branch is used at the kink). Needs no exponential.

    Branch-free: min(a, 0) + c is c where a > 0, and subtracting the exact
    c - scale (Sterbenz) there leaves exactly scale, so the result equals
    the np.where form bit for bit, without its unpredictable mask. The
    constants are scalars of a's dtype (float32 or float64): a Python
    float times the boolean mask would be float64 and promote a float32
    result."""
    c, c_minus_scale = _SLOPE_CONSTANTS[a.dtype]
    out = np.minimum(a, 0.0)
    out += c
    out -= (a > 0) * c_minus_scale
    return out


def reduce_classes(ufunc, a):
    """ufunc.reduce(a, axis=-1) for np.add or np.maximum, bit for bit.

    numpy reduces a short last axis with a fixed cost per row; for the
    two classes training uses, one op over the two columns gives the same
    values. numpy's add starts each row's tail from 0. (so -0. + -0. sums
    to +0.), which the 0. + below repeats."""
    if a.shape[-1] != 2:
        return ufunc.reduce(a, axis=-1)
    first, second = a[..., 0], a[..., 1]
    return ufunc(first, 0.0 + second if ufunc is np.add else second)


def _softmax_(z):
    """softmax in place over z, a float array the caller allocated."""
    z -= reduce_classes(np.maximum, z)[..., None]
    np.exp(z, out=z)
    z /= reduce_classes(np.add, z)[..., None]
    return z


def softmax(z):
    """Row-wise softmax with max-subtraction for numerical stability, in
    z's dtype, on a copy of z; z is never written."""
    return _softmax_(_floats(z).copy())


@functools.lru_cache(maxsize=64)
def _layout(sizes):
    """(name, start, stop, shape) of each parameter block of theta, in the
    order W0, b0, W1, b1, ... (weights row-major, shape (out, in)), for a
    tuple of layer sizes. Cached: every net views its theta through it,
    and every backward writes its gradient through it."""
    blocks, stop = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        for kind, shape in (("weight", (fan_out, fan_in)), ("bias", (fan_out,))):
            start, stop = stop, stop + math.prod(shape)
            blocks.append((f"layer{i}.{kind}", start, stop, shape))
    return tuple(blocks)


def require_finite(net, vector, what):
    """Name the block of the first non-finite coordinate of a vector laid
    out like net.theta in a NumericalError."""
    finite = np.isfinite(vector)
    if not finite.all():
        j = int(finite.argmin())
        block = next(name for name, lo, hi, _ in _layout(net.sizes) if lo <= j < hi)
        raise NumericalError(f"non-finite {what} in parameter block {block}")


class DenseNet:
    """Fully-connected classifier: SELU hidden layers, softmax output.

    sizes is (input_dim, *hidden, num_classes) and theta the one flat
    parameter vector, laid out by `_layout`: float32 stays float32, any
    other values are held as float64. weights[i] (out_i, in_i) and
    biases[i] (out_i,) are views into theta; layer i consumes the output
    of layer i-1.
    """

    def __init__(self, sizes, theta):
        self.sizes = tuple(int(s) for s in sizes)
        if len(self.sizes) < 2 or min(self.sizes) < 1:
            raise ValueError(f"need at least two positive layer sizes, got {self.sizes}")
        blocks = _layout(self.sizes)
        self.theta = _floats(theta)
        if self.theta.shape != (blocks[-1][2],):
            raise DimensionError(f"parameter vector of sizes {self.sizes}",
                                 (blocks[-1][2],), self.theta.shape)
        views = [self.theta[lo:hi].reshape(shape) for _, lo, hi, shape in blocks]
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def input_dim(self):
        return self.sizes[0]

    @property
    def num_classes(self):
        return self.sizes[-1]

    @property
    def num_layers(self):
        return len(self.sizes) - 1

    @classmethod
    def initialize(cls, input_dim, hidden_sizes, num_classes, rng):
        """LeCun-normal weights (var 1/fan_in, the standard companion to
        SELU), zero biases."""
        sizes = (input_dim, *hidden_sizes, num_classes)
        net = cls(sizes, np.zeros(_layout(sizes)[-1][2]))
        for w in net.weights:
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
        return net

    @classmethod
    def from_layers(cls, weights, biases):
        """Net holding copies of hand-built layers: weights[i] (out_i, in_i)
        and biases[i] (out_i,), each layer consuming the last one's output,
        all finite."""
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and parallel")
        for i, (w, b) in enumerate(zip(weights, biases)):
            fan_in = weights[i - 1].shape[0] if i else "in"
            if w.ndim != 2 or b.shape != w.shape[:1] or (i and w.shape[1] != fan_in):
                raise DimensionError(f"layer {i}", f"(out, {fan_in}) with bias (out,)",
                                     f"{w.shape} with bias {b.shape}")
        net = cls([weights[0].shape[1], *(w.shape[0] for w in weights)],
                  np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb]))
        require_finite(net, net.theta, "value")
        return net


def _check_input(net, X):
    X = np.asarray(X, dtype=net.theta.dtype)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError("input", f"(n, {net.input_dim})", X.shape)
    return X


def _layers(net, X):
    """Each layer's output in turn: the SELU activations of the hidden
    layers, then the class probabilities, each computed in place in the
    pre-activation array allocated here."""
    acts = _check_input(net, X)
    last = net.num_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts @ w.T
        z += b
        acts = _softmax_(z) if i == last else _selu_(z)
        yield acts


def forward(net, X):
    """Class-probability rows (n, c) for a batch of input rows (n, d)."""
    for probs in _layers(net, X):
        pass
    return probs


def layer_outputs(net, X):
    """Every layer's output for a batch of input rows X (n, d): the hidden
    SELU activations, then the probability rows (n, c). `backward` reads
    the activations off this list instead of recomputing them."""
    return list(_layers(net, X))


def backward(net, X, outputs, output_grad):
    """Exact gradient of sum_n <output_grad_n, forward(X)_n> for a batch
    of input rows X (n, d), their `layer_outputs` and output-gradient
    rows (n, c).

    Returns one flat vector laid out like `net.theta`, summed over rows.
    Linear in output_grad.
    """
    X = _check_input(net, X)
    G = np.asarray(output_grad, dtype=net.theta.dtype)
    if G.shape != (X.shape[0], net.num_classes):
        raise DimensionError("output_grad", (X.shape[0], net.num_classes), G.shape)
    if len(outputs) != net.num_layers or outputs[-1].shape != G.shape:
        raise DimensionError("layer outputs", f"{net.num_layers} ending in {G.shape}",
                             [np.shape(o) for o in outputs])

    acts = [X, *outputs[:-1]]
    probs = outputs[-1]
    # softmax Jacobian-vector product: dz = p * (g - <g, p>)
    delta = probs * (G - reduce_classes(np.add, G * probs)[:, None])

    grad = np.empty_like(net.theta)  # fresh: a caller may keep the last one
    blocks = _layout(net.sizes)
    for i in range(net.num_layers - 1, -1, -1):
        (_, lo, hi, shape), (_, b_lo, b_hi, _) = blocks[2 * i], blocks[2 * i + 1]
        np.matmul(delta.T, acts[i], out=grad[lo:hi].reshape(shape))
        np.add.reduce(delta, axis=0, out=grad[b_lo:b_hi])
        if i > 0:
            delta = delta @ net.weights[i]
            delta *= selu_slope(acts[i])
    return grad


@dataclass
class AdamState:
    """Adam's first and second moments, each laid out like net.theta, and
    the steps taken. `adam_step` overwrites the moments and writes its
    intermediates to `scratch`, two vectors of their layout."""

    first: np.ndarray
    second: np.ndarray
    step_count: int = 0
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first), np.empty_like(self.first))

    @classmethod
    def for_net(cls, net):
        return cls(np.zeros_like(net.theta), np.zeros_like(net.theta))


def adam_step(net, grad, state, lr):
    """One Adam update with bias correction, given the gradient laid out
    like net.theta, in place: net.theta and the moments of state are
    overwritten, and grad is only read. Returns (net, state).

    A non-finite gradient raises NumericalError before anything is
    written, so the net and state are left as they were.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not net.theta.shape == np.shape(grad) == state.first.shape == state.second.shape:
        raise DimensionError("gradient and moments", net.theta.shape, np.shape(grad))
    require_finite(net, grad, "gradient")

    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, (tmp, step) = state.first, state.second, state.scratch
    # b1*m + (1-b1)*g, b2*v + (1-b2)*g*g and p - lr*m_hat/(sqrt(v_hat) + eps),
    # one operation at a time in the textbook order, so the bits are the
    # formula's
    np.multiply(grad, 1 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(grad, 1 - b2, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    np.divide(v, 1 - b2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, 1 - b1 ** t, out=step)
    step *= lr
    step /= tmp
    net.theta -= step
    state.step_count = t
    return net, state
