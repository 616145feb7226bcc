"""Versioned JSON checkpoints shared by both model kinds.

A checkpoint stores each fact needed to reproduce predictions on new
data once: network parameters or logistic coefficients, selector logits,
the fitted encoder (layout and label vocabulary) and the training
config. A net is its layer sizes and its flat parameter vector `theta`
(laid out by `nets`) as one base64 blob of little-endian float64.
Version 3 is written; version 2 is read the same way, its copies of
derived facts ignored. Every float64 survives the round trip bit-exactly:
the blob holds the raw bits, and the JSON numbers are shortest reprs.
"""

from __future__ import annotations

import binascii
import dataclasses
import json

import numpy as np

from .baseline import LogisticModel
from .data import Encoder
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet, require_finite
from .selector import SelectorPolicy
from .training import TrainConfig, TrainedModel

CHECKPOINT_VERSION = 3
READABLE_VERSIONS = (2, 3)

KIND_ADVERSARIAL = "adversarial-selection"
KIND_LOGISTIC = "logistic"


def save_model(path, model, encoder):
    """Write a TrainedModel or LogisticModel checkpoint."""
    if isinstance(model, TrainedModel):
        body = {
            "version": CHECKPOINT_VERSION,
            "kind": KIND_ADVERSARIAL,
            "config": dataclasses.asdict(model.config),
            "net": {"sizes": list(model.net.sizes),
                    "theta": _encode_theta(model.net.theta)},
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(body))   # dumps runs the C encoder, dump does not


def _encode_theta(theta):
    return binascii.b2a_base64(theta.astype("<f8").tobytes(), newline=False).decode("ascii")


def _decode_net(net):
    """The DenseNet of a checkpoint's "net" entry; raises on any defect."""
    text = net["theta"]
    blob = binascii.a2b_base64(text)
    # a2b_base64 skips stray characters: only the canonical text is accepted
    if binascii.b2a_base64(blob, newline=False).decode("ascii") != text:
        raise ValueError("net.theta is not canonical base64")
    sizes = net["sizes"]
    if not (isinstance(sizes, list) and all(type(s) is int for s in sizes)):
        raise ValueError(f"net.sizes must be a list of integers, got {sizes!r}")
    out = DenseNet(sizes, np.frombuffer(blob, dtype="<f8").astype(np.float64))
    require_finite(out, out.theta, "value")
    return out


def load_model(path):
    """Read a checkpoint. Returns (kind, model, encoder)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            body = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(body, dict):
        raise DataError(f"malformed checkpoint {path}: not a JSON object")

    version = body.get("version")
    if version not in READABLE_VERSIONS:
        raise DataError(f"unsupported checkpoint version {version!r} (this build "
                        f"reads versions {' and '.join(map(str, READABLE_VERSIONS))})")
    kind = body.get("kind")
    if kind not in (KIND_ADVERSARIAL, KIND_LOGISTIC):
        raise DataError(f"unknown checkpoint kind {kind!r}")
    try:
        encoder = Encoder.from_payload(body["encoder"])
        if kind == KIND_ADVERSARIAL:
            config = TrainConfig(**body["config"])
            model = TrainedModel(
                net=_decode_net(body["net"]),
                policy=SelectorPolicy(np.array(body["selector"]["logits"],
                                               dtype=np.float64),
                                      encoder.sensitive_index, config.mask_sensitive),
                config=config,
            )
            what = "net input and selector logit widths"
            widths = (model.net.input_dim, model.policy.logits.shape[0])
            expected = (encoder.dim, encoder.dim)
        else:
            model = LogisticModel(np.array(body["weights"], dtype=np.float64),
                                  float(body["bias"]))
            what = "logistic weights shape"
            widths, expected = model.weights.shape, (encoder.dim,)
        # each width must be the encoder's, or scoring fails far from here
        if widths != expected:
            raise DimensionError(what, expected, widths)
    except (KeyError, TypeError, ValueError, DataError, DimensionError,
            NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    return kind, model, encoder
