"""Versioned JSON checkpoints shared by both model kinds.

A checkpoint stores everything needed to reproduce predictions on new
data: network weights or logistic coefficients, selector logits, the
fitted encoder, the training config and seed. float64 values survive
the JSON round trip bit-exactly (shortest-repr serialization).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .baseline import LogisticModel
from .data import Encoder
from .errors import DataError, DimensionError, NumericalError
from .nets import DenseNet
from .selector import SelectorPolicy
from .training import TrainConfig, TrainedModel

CHECKPOINT_VERSION = 1

KIND_ADVERSARIAL = "adversarial-selection"
KIND_LOGISTIC = "logistic"


def save_model(path, model, encoder):
    """Write a TrainedModel or LogisticModel checkpoint."""
    if isinstance(model, TrainedModel):
        body = {
            "version": CHECKPOINT_VERSION,
            "kind": KIND_ADVERSARIAL,
            "config": dataclasses.asdict(model.config),
            "seed": model.config.seed,
            "net": {"weights": [w.tolist() for w in model.net.weights],
                    "biases": [b.tolist() for b in model.net.biases]},
            "selector": {
                "logits": model.policy.logits.tolist(),
                "sensitive_index": model.policy.sensitive_index,
                "mask_sensitive": model.policy.mask_sensitive,
            },
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
        json.dump(body, fh)


def load_model(path):
    """Read a checkpoint. Returns (kind, model, encoder)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            body = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None

    version = body.get("version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r} "
                        f"(this build reads version {CHECKPOINT_VERSION})")
    kind = body.get("kind")
    if kind not in (KIND_ADVERSARIAL, KIND_LOGISTIC):
        raise DataError(f"unknown checkpoint kind {kind!r}")
    try:
        encoder = Encoder.from_payload(body["encoder"])
        if kind == KIND_ADVERSARIAL:
            sel, net = body["selector"], body["net"]
            model = TrainedModel(
                net=DenseNet.from_layers(net["weights"], net["biases"]),
                policy=SelectorPolicy(np.array(sel["logits"], dtype=np.float64),
                                      sel["sensitive_index"],
                                      sel["mask_sensitive"]),
                config=TrainConfig(**body["config"]),
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
    except (KeyError, TypeError, ValueError, DimensionError, NumericalError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    return kind, model, encoder
