import base64
import copy
import csv
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from fairsel.baseline import logistic_net
from fairsel.nets import DenseNet, forward
from fairsel.training import TrainedModel

# every run of the suite replays the same examples, so a commit's verdict
# does not depend on the run; no example database is read or written
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# any JSON value; json.load reads NaN and Infinity, so floats include them
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

# values a checkpoint body holds (versions, layout roles, hidden widths,
# base64 blobs), near misses of them, integers past float range and any
# JSON value
BODY_VALUES = (st.sampled_from([7, "7", 6, 8, "numeric", "categorical", "sensitive",
                                "1", 0.0, True, 0.5, 32, [8, 6], [], [6.0], 0, -1,
                                2**64, 10**400])
               | st.binary(max_size=48).map(lambda b: base64.b64encode(b).decode())
               | ANY_JSON)
# the keys of a checkpoint body's objects, and keys no version defines or
# a retired one held, for edits that insert a key
BODY_KEYS = ["hidden", "theta", "logits", "spec", "layout", "labels", "name", "role",
             "min", "max", "categories", "sizes", "sensitive_index", "config", "seed",
             "junk"]


@st.composite
def json_edits(draw, body, values, keys=()):
    """A copy of the parsed JSON body after one or two edits: replace the
    value at a path with one of values, delete it, append one of values
    to the list there or, given keys, set one of keys to one of values
    in the object there. A path walks down from the root, stopping at
    each level below the first with even odds, so a shallow field such
    as a version or a bias is edited often; a drawn value is copied, as
    a sampled list must not be edited in place."""
    body = copy.deepcopy(body)
    actions = ["replace", "delete", "append", *(["insert"] if keys else [])]
    for _ in range(draw(st.integers(1, 2))):
        holder, key = None, None
        node = body
        while isinstance(node, (dict, list)) and node and (
                holder is None or draw(st.booleans())):
            holder = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        action = draw(st.sampled_from(actions))
        if action == "delete":
            del holder[key]
        elif action == "append" and isinstance(node, list):
            node.append(copy.deepcopy(draw(values)))
        elif action == "insert" and isinstance(node, dict):
            node[draw(st.sampled_from(keys))] = copy.deepcopy(draw(values))
        else:
            holder[key] = copy.deepcopy(draw(values))
    return body


def brute_force_metrics(records):
    """Independent metrics oracle: pure-Python counting loops, no numpy,
    no code shared with the implementation."""
    def rates(rows):
        tp = sum(1 for t, p in rows if t == 1 and p == 1)
        fn = sum(1 for t, p in rows if t == 1 and p == 0)
        tn = sum(1 for t, p in rows if t == 0 and p == 0)
        fp = sum(1 for t, p in rows if t == 0 and p == 1)
        tpr = tp / (tp + fn)
        tnr = tn / (tn + fp)
        return tpr, tnr

    everyone = [(t, p) for t, p, _ in records]
    priv = [(t, p) for t, p, g in records if g]
    unpriv = [(t, p) for t, p, g in records if not g]

    acc = sum(1 for t, p in everyone if t == p) / len(everyone)
    tpr, tnr = rates(everyone)
    bal = (tpr + tnr) / 2
    tpr_p, tnr_p = rates(priv)
    tpr_u, tnr_u = rates(unpriv)
    eod = abs(tpr_p - tpr_u)
    fpr_p, fpr_u = 1 - tnr_p, 1 - tnr_u
    aod = abs((tpr_p - tpr_u) + (fpr_p - fpr_u)) / 2

    benefits = [p - t + 1 for t, p, _ in records]
    mu = sum(benefits) / len(benefits)
    theil = sum((b / mu) * math.log(b / mu) for b in benefits if b > 0)
    theil /= len(benefits)
    return acc, bal, eod, aod, theil


def random_nondegenerate(rng, n_max=200):
    """Random outcome records where both groups carry both classes."""
    while True:
        n = int(rng.integers(8, n_max + 1))
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        g = rng.random(n) < 0.5
        ok = all(((t == lab) & (g == grp)).any()
                 for lab in (0, 1) for grp in (True, False))
        if ok:
            return list(zip(t.tolist(), p.tolist(), g.tolist()))


def naive_forward(net, x):
    """Duplicate-implementation oracle for the network forward pass:
    plain Python loops and math.exp, no shared code with the library."""
    lam, alpha = 1.0507009873554805, 1.6732632423543772
    acts = list(x)
    for li in range(net.num_layers):
        w, b = net.weights[li], net.biases[li]
        out = []
        for i in range(w.shape[0]):
            z = b[i]
            for j in range(w.shape[1]):
                z += w[i, j] * acts[j]
            out.append(z)
        if li < net.num_layers - 1:
            acts = [lam * z if z > 0 else lam * alpha * (math.exp(z) - 1.0)
                    for z in out]
        else:
            m = max(out)
            exps = [math.exp(z - m) for z in out]
            total = sum(exps)
            acts = [e / total for e in exps]
    return np.array(acts)


def selu_where(x):
    """np.where oracle for SELU: scale * x where x > 0, else
    scale * alpha * expm1(x), with expm1 run on every element."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, 1.0507009873554805 * x,
                    1.0507009873554805 * 1.6732632423543772 * np.expm1(x))


def selu_slope_where(a):
    """np.where oracle for SELU's derivative read off the activation a:
    scale where a > 0, else a + scale * alpha."""
    return np.where(a > 0, 1.0507009873554805,
                    a + 1.0507009873554805 * 1.6732632423543772)


def selu_deriv(z):
    """exp-based oracle for SELU's derivative at the pre-activation z;
    the z <= 0 branch is used at the kink."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z > 0, 1.0507009873554805,
                    1.0507009873554805 * 1.6732632423543772 * np.exp(z))


def outcomes_from_records(records):
    """GroupedOutcomes from an iterable of (true, pred, privileged) triples."""
    from fairsel.metrics import GroupedOutcomes
    rows = list(records)
    t, p, g = zip(*rows) if rows else ((), (), ())
    return GroupedOutcomes(np.array(t, dtype=np.int64), np.array(p, dtype=np.int64),
                           np.array(g, dtype=bool))


def forward_row(net, x):
    """forward on the one-row batch of a single input vector."""
    return forward(net, x[None, :])[0]


def recorded_selections(monkeypatch):
    """A list that receives every selection matrix `fairsel.training`
    samples, as it is drawn (the masking audits read it)."""
    from fairsel import training
    seen = []
    real = training.sample_selection_batch

    def recording(*args, **kw):
        S = real(*args, **kw)
        seen.append(S)
        return S

    monkeypatch.setattr(training, "sample_selection_batch", recording)
    return seen


def make_net(seed, d=4, hidden=(6, 5), c=3, random_bias=True):
    """Small seeded net; random biases keep SELU pre-activations off the
    kink, where finite differences are meaningless."""
    rng = np.random.default_rng(seed)
    net = DenseNet.initialize(d, hidden, c, rng)
    if random_bias:
        net = DenseNet.from_layers(
            net.weights, [rng.normal(0, 0.3, size=b.shape) for b in net.biases])
    return net


def logistic_model(weights, bias):
    """A deployed logistic baseline of hand-picked (weights, bias): the
    float32 `(d, 2)` net that `train_logistic` returns for that fit."""
    net = logistic_net(np.asarray(weights, dtype=np.float64), bias)
    return TrainedModel(DenseNet(net.sizes, net.theta.astype(np.float32)))


GERMAN_CATEGORIES = {
    "checking_status": ["A11", "A12", "A13", "A14"],
    "credit_history": ["A30", "A31", "A32", "A33", "A34"],
    "purpose": ["A40", "A41", "A42", "A43", "A44", "A45", "A46"],
    "savings_status": ["A61", "A62", "A63", "A64", "A65"],
    "employment_since": ["A71", "A72", "A73", "A74", "A75"],
    "personal_status_sex": ["A91", "A92", "A93", "A94", "A95"],
    "other_debtors": ["A101", "A102", "A103"],
    "property": ["A121", "A122", "A123", "A124"],
    "other_installment_plans": ["A141", "A142", "A143"],
    "housing": ["A151", "A152", "A153"],
    "job": ["A171", "A172", "A173", "A174"],
    "telephone": ["A191", "A192"],
    "foreign_worker": ["A201", "A202"],
}

GERMAN_NUMERIC = {
    "duration_months": (4, 72),
    "credit_amount": (250, 18424),
    "installment_rate": (1, 4),
    "residence_since": (1, 4),
    "age": (19, 75),
    "existing_credits": (1, 4),
    "num_dependents": (1, 2),
}

GERMAN_HEADER = [
    "checking_status", "duration_months", "credit_history", "purpose",
    "credit_amount", "savings_status", "employment_since", "installment_rate",
    "personal_status_sex", "other_debtors", "residence_since", "property",
    "age", "other_installment_plans", "housing", "existing_credits", "job",
    "num_dependents", "telephone", "foreign_worker", "credit_risk",
]


def write_german_csv(path, n=1000, seed=20):
    """Credit-scoring-shaped CSV: 20 feature columns with the usual coded
    categories plus a 1/2 risk label that depends on a few features and
    leans toward the male-coded group, so group metrics are nontrivial."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = {}
        for name, cats in GERMAN_CATEGORIES.items():
            row[name] = cats[rng.integers(0, len(cats))]
        for name, (lo, hi) in GERMAN_NUMERIC.items():
            row[name] = str(int(rng.integers(lo, hi + 1)))
        male = row["personal_status_sex"] in ("A91", "A93", "A94")
        good_checking = row["checking_status"] in ("A13", "A14")
        short = int(row["duration_months"]) <= 24
        logit = (0.9 * good_checking + 0.7 * short + 0.6 * male
                 + 0.4 * (row["savings_status"] in ("A64", "A65")) - 0.8)
        p_good = 1.0 / (1.0 + math.exp(-logit))
        row["credit_risk"] = "1" if rng.random() < p_good else "2"
        rows.append(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=GERMAN_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.fixture(scope="session")
def german_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "german.csv"
    return write_german_csv(path)


@pytest.fixture(scope="session")
def german_spec_path():
    from importlib.resources import files
    return str(files("fairsel") / "specs" / "german.json")
