"""Stochastic feature-selection policy.

A single global logit vector defines independent per-feature Bernoulli
selection probabilities through a sigmoid. Sampled selection rows are
boolean (the enumeration's are 0/1 int8; both work everywhere). The
sensitive feature is always masked out of sampling, so no sampled
selection ever carries it. The score-function gradient of the log
selection probability drives the selector's training updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FairselError, NumericalError

# logits are clamped before the sigmoid so selection probabilities stay
# strictly inside (0, 1) and log-probabilities stay finite (float64 keeps
# sigmoid strictly below 1 up to ~36.7)
LOGIT_LIMIT = 20.0
INIT_LOGIT_SCALE = 0.01  # standard deviation of the initial logits


def sigmoid(x):
    """Logistic function, elementwise, with no overflowing exponential:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, both read
    off the one exponential e^min(x, -x). Branch-free: no boolean-mask
    scatter, and the same bits as computing the two branches apart."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class SelectorPolicy:
    """Per-feature selection logits plus the masked sensitive index."""

    logits: np.ndarray
    sensitive_index: int

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 1:
            raise DimensionError("selector logits", "(d,)", self.logits.shape)
        if not np.isfinite(self.logits).all():
            raise NumericalError("non-finite selector logits")
        if not 0 <= self.sensitive_index < self.logits.shape[0]:
            raise ValueError(
                f"sensitive index {self.sensitive_index} outside [0, {self.logits.shape[0]})")

    @classmethod
    def initialize(cls, dim, sensitive_index, rng):
        """Small random logits, so initial selection probabilities sit
        near 1/2 without being exactly symmetric."""
        return cls(rng.normal(0.0, INIT_LOGIT_SCALE, size=dim), sensitive_index)


def probabilities(policy):
    """Selection probability per feature; exactly 0 at the masked index."""
    # np.clip's bits, without its wrapper
    p = sigmoid(np.minimum(np.maximum(policy.logits, -LOGIT_LIMIT), LOGIT_LIMIT))
    p[policy.sensitive_index] = 0.0
    return p


def sample_selection_batch(p, n_rows, rng):
    """n_rows independent selection vectors, one boolean row per draw:
    X * S, S - p and S == 1 read them as 0/1 rows."""
    p = np.asarray(p, dtype=np.float64)
    return rng.random((n_rows, p.shape[0])) < p


def _validate_rows(p, S):
    """p as float64 and S, checked to be (m, d) selection rows that pick no
    masked (p <= 0) feature: per batch, so only masked columns are read."""
    p = np.asarray(p, dtype=np.float64)
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[1:] != p.shape:
        raise DimensionError("selection rows", f"(m, {p.size})", S.shape)
    if S[:, p <= 0.0].any():
        raise FairselError("selection includes a masked (zero-probability) feature")
    return p, S


def pi_prob(p, S):
    """Probability (m,) of each selection row of S (m, d) under
    independent Bernoulli gates: prod_j p_j^{s_j} (1-p_j)^{1-s_j}."""
    p, S = _validate_rows(p, S)
    return np.prod(np.where(S == 1, p, 1.0 - p), axis=1)


def log_pi_grad(p, S):
    """Gradient of log pi w.r.t. the logits at each row of S: s_j - p_j.

    Zero at the masked index (there s_j = p_j = 0), so masked logits
    never receive an update.
    """
    p, S = _validate_rows(p, S)
    return S - p


def enumerate_selections(d, masked_index=None):
    """All selection vectors over d features, as an (m, d) int8 matrix.

    With masked_index set, only vectors with a 0 there are produced
    (2^(d-1) rows). Intended for small d; used by enumeration oracles.
    """
    if d > 20:
        raise ValueError(f"enumeration over 2^{d} selections is not sensible")
    codes = np.arange(2 ** d, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(d)[None, :]) & 1
    out = bits.astype(np.int8)
    if masked_index is not None:
        out = out[out[:, masked_index] == 0]
    return out
