"""Fairness-aware tabular classification via adversarial feature selection.

A stochastic selector learns per-feature sampling probabilities while a
dense classifier learns to predict from the sampled features; trained
as adversaries over the marginal contribution of the sensitive feature,
the pair produces inputs stripped of sensitive information and a
predictor insensitive to it. Includes the group-fairness metric suite,
a tabular data pipeline, a logistic baseline and a CLI.
"""

from .baseline import train_logistic
from .data import (Dataset, DatasetSpec, Encoder, load_csv, prepare_splits,
                   split, synth_proxy)
from .errors import (DataError, DegenerateGroupError, DimensionError,
                     FairselError, NumericalError)
from .metrics import (GroupedOutcomes, accuracy, average_odds_diff,
                      balanced_accuracy, equal_opportunity_diff, theil_index)
from .nets import (AdamState, DenseNet, adam_step, backward, forward,
                   layer_outputs, selu)
from .selector import SelectorPolicy, log_pi_grad, pi_prob, probabilities
from .training import (TrainConfig, TrainedModel, mean_sensitivity, predict,
                       predictor_step, selector_step, sensitivity_pair, train)

__version__ = "0.1.0"
