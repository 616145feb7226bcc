"""Versioned JSON checkpoints of deployed models.

A checkpoint holds the deployed model and nothing from the training run
that made it: the net, the fitted encoder (layout and label vocabulary)
and, for a model with a selector, its logits. A net is its hidden widths
and its flat parameter vector `theta` (laid out by `nets`) as one base64
blob, at the sizes (encoder width, *hidden, label count); the baseline
has no hidden width. Version 7 is written, its blob little-endian
float32, the dtype every deployed net has (a float64 net is rounded to
it), and only the written version is read. Every parameter survives the
round trip bit-exactly: the blob holds the raw bits, and the JSON
numbers are shortest reprs.
"""

from __future__ import annotations

import binascii
import json
import reprlib

import numpy as np

from .data import Encoder
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet, require_finite
from .selector import SelectorPolicy
from .training import TrainedModel

CHECKPOINT_VERSION = 7
BLOB_DTYPE = "<f4"   # net.theta's blob
FIELDS = ("version", "net", "encoder", "selector")   # a body's keys

# the kind load_model reports, read off whether a selector is present
KIND_ADVERSARIAL = "adversarial-selection"
KIND_LOGISTIC = "logistic"


def save_model(path, model, encoder):
    """Write a TrainedModel checkpoint; a model with a selector also
    stores its logits."""
    if not isinstance(model, TrainedModel):
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    body = {
        "version": CHECKPOINT_VERSION,
        "net": {"hidden": list(model.net.sizes[1:-1]),
                "theta": _encode_theta(model.net.theta)},
        "encoder": encoder.to_payload(),
    }
    if model.policy is not None:
        body["selector"] = {"logits": model.policy.logits.tolist()}
    # encoded before the file is opened, so a body json cannot encode
    # leaves no file; dumps runs the C encoder, dump does not
    text = json.dumps(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _encode_theta(theta):
    blob = theta.astype(BLOB_DTYPE).tobytes()
    return binascii.b2a_base64(blob, newline=False).decode("ascii")


def _decode_net(net, encoder):
    """The DenseNet of a checkpoint's net at the sizes its encoder and
    hidden widths give; raises on any defect."""
    hidden, text = _listed(net["hidden"], "net.hidden", (int,)), net["theta"]
    blob = binascii.a2b_base64(text)
    # a2b_base64 skips stray characters: only the canonical text is accepted
    if binascii.b2a_base64(blob, newline=False).decode("ascii") != text:
        raise ValueError("net.theta is not canonical base64")
    theta = np.frombuffer(blob, dtype=BLOB_DTYPE)
    out = DenseNet((encoder.dim, *hidden, len(encoder.labels)), theta.astype(np.float32))
    require_finite(out, out.theta, "value")
    return out


def _listed(value, field, types):
    """value, a list of JSON values of types: np.array and int() would
    also read the string "6" as 6 and true as 1."""
    if not (isinstance(value, list) and all(type(v) in types for v in value)):
        noun = "integers" if types == (int,) else "numbers"
        raise ValueError(f"{field} must be a list of JSON {noun}, got {reprlib.repr(value)}")
    return value


def _fields(obj, names, prefix):
    """obj, a JSON object that holds no key but names; a DataError naming
    the first other key, after prefix, otherwise."""
    if not isinstance(obj, dict):
        raise DataError(f"{prefix[:-1]} must be an object, got {reprlib.repr(obj)}")
    unknown = [key for key in obj if key not in names]
    if unknown:
        raise DataError(f"unknown field {prefix + unknown[0]!r}")
    return obj


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
    try:
        _fields(body, FIELDS, "")
        payload = _fields(body["encoder"], ("spec", "layout", "labels"), "encoder.")
        encoder = Encoder.from_payload(payload)
        policy = None
        if "selector" in body:
            selector = _fields(body["selector"], ("logits",), "selector.")
            logits = np.array(_listed(selector["logits"], "selector.logits", (int, float)),
                              dtype=np.float64)
            # the width must be the encoder's, or scoring fails far from here
            if logits.shape != (encoder.dim,):
                raise DimensionError("selector logits shape", (encoder.dim,), logits.shape)
            policy = SelectorPolicy(logits, encoder.sensitive_index)
        net = _decode_net(_fields(body["net"], ("hidden", "theta"), "net."), encoder)
    except (KeyError, TypeError, ValueError, OverflowError, DataError,
            DimensionError, NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    kind = KIND_LOGISTIC if policy is None else KIND_ADVERSARIAL
    return kind, TrainedModel(net, policy), encoder
