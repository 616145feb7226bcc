"""Versioned JSON checkpoints shared by both model kinds.

A checkpoint stores each fact needed to reproduce predictions on new
data once: network parameters or logistic coefficients, selector logits,
the fitted encoder (layout and label vocabulary) and the training
config. A net is its flat parameter vector `theta` (laid out by `nets`)
as one base64 blob, at the sizes (encoder width, *config.hidden_sizes,
label count). Version 5 is written, its blob little-endian float32, the
dtype `train` steps (a float64 net is rounded to it), and only the
written version is read. Every parameter survives the round trip
bit-exactly: the blob holds the raw bits, and the JSON numbers are
shortest reprs.
"""

from __future__ import annotations

import binascii
import dataclasses
import json
import reprlib

import numpy as np

from .baseline import LogisticModel
from .data import Encoder
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet, require_finite
from .selector import SelectorPolicy
from .training import TrainConfig, TrainedModel

CHECKPOINT_VERSION = 5
BLOB_DTYPE = "<f4"   # net.theta's blob

KIND_ADVERSARIAL = "adversarial-selection"
KIND_LOGISTIC = "logistic"


def save_model(path, model, encoder):
    """Write a TrainedModel or LogisticModel checkpoint."""
    if isinstance(model, TrainedModel):
        body = {
            "version": CHECKPOINT_VERSION,
            "kind": KIND_ADVERSARIAL,
            "config": dataclasses.asdict(model.config),
            "net": {"theta": _encode_theta(model.net.theta)},
            "selector": {"logits": model.policy.logits.tolist()},
            "encoder": encoder.to_payload(),
        }
    elif isinstance(model, LogisticModel):
        body = {
            "version": CHECKPOINT_VERSION,
            "kind": KIND_LOGISTIC,
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "encoder": encoder.to_payload(),
        }
    else:
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    # encoded before the file is opened, so a body json cannot encode
    # leaves no file; dumps runs the C encoder, dump does not
    text = json.dumps(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _encode_theta(theta):
    blob = theta.astype(BLOB_DTYPE).tobytes()
    return binascii.b2a_base64(blob, newline=False).decode("ascii")


def _decode_net(text, config, encoder):
    """The DenseNet of a checkpoint's net.theta at the sizes its encoder
    and config give; raises on any defect."""
    sizes = (encoder.dim, *config.hidden_sizes, len(encoder.labels))
    blob = binascii.a2b_base64(text)
    # a2b_base64 skips stray characters: only the canonical text is accepted
    if binascii.b2a_base64(blob, newline=False).decode("ascii") != text:
        raise ValueError("net.theta is not canonical base64")
    theta = np.frombuffer(blob, dtype=BLOB_DTYPE)
    out = DenseNet(sizes, theta.astype(np.float32))
    require_finite(out, out.theta, "value")
    return out


def _numbers(value, field, ndim):
    """A JSON number (ndim 0) or list of numbers (ndim 1) as float64; np.array
    would also read the string "1.5" as 1.5 and true as 1.0."""
    items = value if ndim else [value]
    if not (isinstance(items, list) and all(type(v) in (int, float) for v in items)):
        kind = "a list of JSON numbers" if ndim else "a JSON number"
        raise ValueError(f"{field} must be {kind}, got {reprlib.repr(value)}")
    return np.array(value, dtype=np.float64)


def load_model(path):
    """Read a checkpoint. Returns (kind, model, encoder)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            body = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(body, dict):
        raise DataError(f"malformed checkpoint {path}: not a JSON object")

    version = body.get("version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r} (this build "
                        f"reads version {CHECKPOINT_VERSION})")
    kind = body.get("kind")
    if kind not in (KIND_ADVERSARIAL, KIND_LOGISTIC):
        raise DataError(f"unknown checkpoint kind {kind!r}")
    try:
        encoder = Encoder.from_payload(body["encoder"])
        if kind == KIND_ADVERSARIAL:
            config = TrainConfig(**body["config"])
            model = TrainedModel(
                net=_decode_net(body["net"]["theta"], config, encoder),
                policy=SelectorPolicy(_numbers(body["selector"]["logits"],
                                               "selector.logits", 1),
                                      encoder.sensitive_index),
                config=config,
            )
            what, shape = "selector logits shape", model.policy.logits.shape
        else:
            model = LogisticModel(_numbers(body["weights"], "weights", 1),
                                  float(_numbers(body["bias"], "bias", 0)))
            what, shape = "logistic weights shape", model.weights.shape
        # each width must be the encoder's, or scoring fails far from here
        if shape != (encoder.dim,):
            raise DimensionError(what, (encoder.dim,), shape)
    except (KeyError, TypeError, ValueError, OverflowError, DataError,
            DimensionError, NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    return kind, model, encoder
