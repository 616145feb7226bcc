"""Versioned JSON checkpoints of deployed models.

A checkpoint stores each fact needed to reproduce predictions on new
data once: the net, the fitted encoder (layout and label vocabulary)
and, for a model with a selector, its training config and selector
logits. A net is its flat parameter vector `theta` (laid out by `nets`)
as one base64 blob, at the sizes (encoder width, *config.hidden_sizes,
label count), with no hidden layer when there is no config (the
logistic baseline). Version 6 is written, its blob little-endian
float32, the dtype every deployed net has (a float64 net is rounded to
it), and only the written version is read. Every parameter survives the
round trip bit-exactly: the blob holds the raw bits, and the JSON
numbers are shortest reprs.
"""

from __future__ import annotations

import binascii
import dataclasses
import json
import reprlib

import numpy as np

from .data import Encoder
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet, require_finite
from .selector import SelectorPolicy
from .training import TrainConfig, TrainedModel

CHECKPOINT_VERSION = 6
BLOB_DTYPE = "<f4"   # net.theta's blob
FIELDS = ("version", "net", "encoder", "config", "selector")   # a body's keys

# the kind load_model reports, read off whether the config/selector pair
# is present
KIND_ADVERSARIAL = "adversarial-selection"
KIND_LOGISTIC = "logistic"


def save_model(path, model, encoder):
    """Write a TrainedModel checkpoint; a model with a selector also
    stores its config and logits."""
    if not isinstance(model, TrainedModel):
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    body = {
        "version": CHECKPOINT_VERSION,
        "net": {"theta": _encode_theta(model.net.theta)},
        "encoder": encoder.to_payload(),
    }
    if model.policy is not None:
        body["config"] = dataclasses.asdict(model.config)
        body["selector"] = {"logits": model.policy.logits.tolist()}
    # encoded before the file is opened, so a body json cannot encode
    # leaves no file; dumps runs the C encoder, dump does not
    text = json.dumps(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _encode_theta(theta):
    blob = theta.astype(BLOB_DTYPE).tobytes()
    return binascii.b2a_base64(blob, newline=False).decode("ascii")


def _decode_net(text, hidden_sizes, encoder):
    """The DenseNet of a checkpoint's net.theta at the sizes its encoder
    and hidden widths give; raises on any defect."""
    sizes = (encoder.dim, *hidden_sizes, len(encoder.labels))
    blob = binascii.a2b_base64(text)
    # a2b_base64 skips stray characters: only the canonical text is accepted
    if binascii.b2a_base64(blob, newline=False).decode("ascii") != text:
        raise ValueError("net.theta is not canonical base64")
    theta = np.frombuffer(blob, dtype=BLOB_DTYPE)
    out = DenseNet(sizes, theta.astype(np.float32))
    require_finite(out, out.theta, "value")
    return out


def _numbers(value, field):
    """A list of JSON numbers as float64; np.array would also read the
    string "1.5" as 1.5 and true as 1.0."""
    if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"{field} must be a list of JSON numbers, got {reprlib.repr(value)}")
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
    unknown = [name for name in body if name not in FIELDS]
    if unknown:
        raise DataError(f"malformed checkpoint {path}: unknown field {unknown[0]!r}")
    # config and selector come together: a missing half is a KeyError
    has_pair = "config" in body or "selector" in body
    try:
        encoder = Encoder.from_payload(body["encoder"])
        config = policy = None
        if has_pair:
            config = TrainConfig(**body["config"])
            logits = _numbers(body["selector"]["logits"], "selector.logits")
            # the width must be the encoder's, or scoring fails far from here
            if logits.shape != (encoder.dim,):
                raise DimensionError("selector logits shape", (encoder.dim,), logits.shape)
            policy = SelectorPolicy(logits, encoder.sensitive_index)
        net = _decode_net(body["net"]["theta"], config.hidden_sizes if has_pair else (),
                          encoder)
    except (KeyError, TypeError, ValueError, OverflowError, DataError,
            DimensionError, NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    kind = KIND_ADVERSARIAL if has_pair else KIND_LOGISTIC
    return kind, TrainedModel(net, policy, config), encoder
