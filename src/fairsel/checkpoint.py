"""Versioned JSON checkpoints of deployed models.

A checkpoint holds the deployed model and nothing from the training run
that made it: the net, the fitted encoder (layout and label vocabulary)
and, for a model with a selector, its logits. A net is its hidden widths
and its flat parameter vector `theta` (laid out by `nets`) as one base64
blob, at the sizes (encoder width, *hidden, label count); the baseline
has no hidden width. Version 7 is written, its blob little-endian
float32, the dtype every deployed net has (a float64 net is rounded to
it), and only the written version is read: `version` must be the JSON
integer 7. Each object of a body, the encoder's spec included, holds
exactly its own keys, and a key missing, unknown or of another JSON type
is a DataError that names it by its dotted path (`data.json_fields`).
Every parameter survives the round trip bit-exactly: the blob holds the
raw bits, and the JSON numbers are shortest reprs.
"""

from __future__ import annotations

import binascii
import json

import numpy as np

from .data import Encoder, json_fields, read_json
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet, require_finite
from .selector import SelectorPolicy
from .training import TrainedModel

CHECKPOINT_VERSION = 7
BLOB_DTYPE = "<f4"   # net.theta's blob

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
    hidden, text = json_fields(net, "net", {"hidden": [int], "theta": str})
    blob = binascii.a2b_base64(text)
    # a2b_base64 skips stray characters: only the canonical text is accepted
    if binascii.b2a_base64(blob, newline=False).decode("ascii") != text:
        raise ValueError("net.theta is not canonical base64")
    theta = np.frombuffer(blob, dtype=BLOB_DTYPE)
    out = DenseNet((encoder.dim, *hidden, len(encoder.labels)), theta.astype(np.float32))
    require_finite(out, out.theta, "value")
    return out


def load_model(path):
    """Read a checkpoint. Returns (kind, model, encoder)."""
    body = read_json(path)
    version = body.get("version", CHECKPOINT_VERSION)   # if missing, named below
    if version != CHECKPOINT_VERSION or type(version) is not int:
        raise DataError(f"unsupported checkpoint version {version!r} (this build "
                        f"reads version {CHECKPOINT_VERSION})")
    try:
        _, net, payload, selector = json_fields(
            body, "", {"version": int, "net": dict, "encoder": dict, "selector": dict},
            optional=("selector",))
        encoder = Encoder.from_payload(payload)
        policy = None
        if selector is not None:
            (logits,) = json_fields(selector, "selector", {"logits": [(int, float)]})
            logits = np.array(logits, dtype=np.float64)
            # the width must be the encoder's, or scoring fails far from here
            if logits.shape != (encoder.dim,):
                raise DimensionError("selector logits shape", (encoder.dim,), logits.shape)
            policy = SelectorPolicy(logits, encoder.sensitive_index)
        net = _decode_net(net, encoder)
    except (TypeError, ValueError, OverflowError, DataError, DimensionError,
            NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    kind = KIND_LOGISTIC if policy is None else KIND_ADVERSARIAL
    return kind, TrainedModel(net, policy), encoder
