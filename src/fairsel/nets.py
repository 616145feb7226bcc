"""Dense feed-forward classifier with hand-written gradients.

The network maps a batch of input rows through SELU hidden layers to a
softmax head and is trained with Adam. `backward` returns the exact
parameter gradient of the scalar sum_n <g_n, forward(x)_n> for
caller-supplied rows g, which is the only primitive needed to assemble
every loss gradient used in training. The central-difference oracle
that guards these gradients lives in `diagnostics`.

All math is float64. Everything here is a pure function of its inputs;
parameter updates return fresh arrays instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

# softmax outputs are floored at this value before any logarithm
PROB_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def selu(x):
    """Scaled exponential linear unit, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * np.expm1(x))


def selu_deriv(x):
    """Derivative of `selu`; the x <= 0 branch is used at the kink."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * np.exp(x))


def softmax(z):
    """Row-wise softmax with max-subtraction for numerical stability."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class DenseNet:
    """Fully-connected classifier: SELU hidden layers, softmax output.

    weights[i] has shape (out_i, in_i) and biases[i] shape (out_i,);
    layer i consumes the output of layer i-1.
    """

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty and parallel")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise DimensionError(f"layer {i}", f"(out, in) with bias (out,)",
                                     f"{w.shape} with bias {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise DimensionError(f"layer {i} input",
                                     self.weights[i - 1].shape[0], w.shape[1])
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericalError(f"non-finite parameter in layer {i}")

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def num_classes(self):
        return self.weights[-1].shape[0]

    @property
    def num_layers(self):
        return len(self.weights)

    @classmethod
    def initialize(cls, input_dim, hidden_sizes, num_classes, rng):
        """LeCun-normal weights (var 1/fan_in, the standard companion to
        SELU), zero biases."""
        sizes = [input_dim, *hidden_sizes, num_classes]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                                      size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...] (references, not copies)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_params(self, params):
        """New net built from a flat parameter list (see `params`)."""
        ws = [np.asarray(params[2 * i], dtype=np.float64) for i in range(self.num_layers)]
        bs = [np.asarray(params[2 * i + 1], dtype=np.float64) for i in range(self.num_layers)]
        return DenseNet(ws, bs)


def param_block_name(index):
    kind = "weight" if index % 2 == 0 else "bias"
    return f"layer{index // 2}.{kind}"


def _check_input(net, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError("input", f"(n, {net.input_dim})", X.shape)
    return X


def forward(net, X):
    """Class-probability rows (n, c) for a batch of input rows (n, d)."""
    acts = _check_input(net, X)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        acts = selu(acts @ w.T + b)
    return softmax(acts @ net.weights[-1].T + net.biases[-1])


def _forward_cache(net, X):
    """Pre-activations and activations needed by backprop."""
    pre, acts = [], [X]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        pre.append(z)
        acts.append(softmax(z) if i == net.num_layers - 1 else selu(z))
    return pre, acts


def backward(net, X, output_grad):
    """Exact gradients of sum_n <output_grad_n, forward(X)_n> for a batch
    of input rows X (n, d) and output-gradient rows (n, c).

    Returns the parameter gradients as a flat list aligned with
    `net.params()`, summed over rows. Linear in output_grad.
    """
    X = _check_input(net, X)
    G = np.asarray(output_grad, dtype=np.float64)
    if G.shape != (X.shape[0], net.num_classes):
        raise DimensionError("output_grad", (X.shape[0], net.num_classes), G.shape)

    pre, acts = _forward_cache(net, X)
    probs = acts[-1]
    # softmax Jacobian-vector product: dz = p * (g - <g, p>)
    delta = probs * (G - (G * probs).sum(axis=1, keepdims=True))

    w_grads = [None] * net.num_layers
    b_grads = [None] * net.num_layers
    for i in range(net.num_layers - 1, -1, -1):
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * selu_deriv(pre[i - 1])

    param_grads = []
    for gw, gb in zip(w_grads, b_grads):
        param_grads.extend((gw, gb))
    return param_grads


@dataclass
class AdamState:
    """First/second moment accumulators for Adam, one pair per block."""

    first: list
    second: list
    step_count: int = 0

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params])


def adam_step(params, grads, state, lr):
    """One Adam update with bias correction. Returns (new_params, new_state).

    Pure: inputs are not mutated, so identical calls from identical
    states give identical results.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads) or len(params) != len(state.first):
        raise DimensionError("parameter/gradient lists", len(params), len(grads))
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise DimensionError(f"gradient for {param_block_name(i)}", p.shape, g.shape)
        if not np.isfinite(g).all():
            raise NumericalError(
                f"non-finite gradient in parameter block {param_block_name(i)}")

    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params, new_first, new_second = [], [], []
    for p, g, m, v in zip(params, grads, state.first, state.second):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_first.append(m)
        new_second.append(v)
    return new_params, AdamState(new_first, new_second, t)
