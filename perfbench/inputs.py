"""Seeded generators for the benchmark's input files.

The real German credit and bank-marketing CSVs are not distributed with
the repository, so every workload runs on generated files of the same
shape: the same column names, category vocabularies and value ranges,
and a label that depends on a few features and leans on the sensitive
group, so that the group-fairness metrics are nonzero. The program under
test only ever sees the written CSV files.
"""

from __future__ import annotations

import csv

import numpy as np

# Vocabularies of the Statlog German credit data (d = 55 once encoded).
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

# Vocabularies of the UCI bank-marketing data (d = 51 once encoded).
BANK_CATEGORIES = {
    "job": ["admin.", "unknown", "unemployed", "management", "housemaid",
            "entrepreneur", "student", "blue-collar", "self-employed",
            "retired", "technician", "services"],
    "marital": ["married", "divorced", "single"],
    "education": ["unknown", "secondary", "primary", "tertiary"],
    "default": ["yes", "no"],
    "housing": ["yes", "no"],
    "loan": ["yes", "no"],
    "contact": ["unknown", "telephone", "cellular"],
    "month": ["jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep",
              "oct", "nov", "dec"],
    "poutcome": ["unknown", "other", "failure", "success"],
}

BANK_HEADER = [
    "age", "job", "marital", "education", "default", "balance", "housing",
    "loan", "contact", "day", "month", "duration", "campaign", "pdays",
    "previous", "poutcome", "y",
]


def _write(path, header, columns):
    n = len(columns[header[0]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([columns[h][i] for h in header] for i in range(n))
    return path


def _pick(rng, cats, n):
    return [cats[j] for j in rng.integers(0, len(cats), size=n)]


def write_german_csv(path, n, seed):
    """German-credit-shaped CSV of n rows; label 1 (good risk) leans on
    checking status, loan duration, savings and the male-coded group."""
    rng = np.random.default_rng(seed)
    cols = {name: _pick(rng, cats, n) for name, cats in GERMAN_CATEGORIES.items()}
    nums = {name: rng.integers(lo, hi + 1, size=n)
            for name, (lo, hi) in GERMAN_NUMERIC.items()}
    male = np.isin(cols["personal_status_sex"], ["A91", "A93", "A94"])
    good_checking = np.isin(cols["checking_status"], ["A13", "A14"])
    savings = np.isin(cols["savings_status"], ["A64", "A65"])
    logit = (0.9 * good_checking + 0.7 * (nums["duration_months"] <= 24)
             + 0.6 * male + 0.4 * savings - 0.8)
    good = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    cols.update({name: [str(v) for v in vals] for name, vals in nums.items()})
    cols["credit_risk"] = ["1" if g else "2" for g in good]
    return _write(path, GERMAN_HEADER, cols)


def write_bank_csv(path, n, seed):
    """Bank-marketing-shaped CSV of n rows; label "yes" (subscribed)
    rises with call duration, a previous success and age >= 25 (the
    privileged group of the bank spec)."""
    rng = np.random.default_rng(seed)
    cols = {name: _pick(rng, cats, n) for name, cats in BANK_CATEGORIES.items()}
    young = rng.random(n) < 0.15
    age = np.where(young, rng.integers(18, 25, size=n), rng.integers(25, 96, size=n))
    duration = np.minimum(rng.exponential(260.0, size=n).astype(int), 4918)
    campaign = 1 + np.minimum(rng.geometric(0.4, size=n) - 1, 62)
    contacted = rng.random(n) < 0.2
    pdays = np.where(contacted, rng.integers(1, 872, size=n), -1)
    previous = np.where(contacted, rng.integers(1, 30, size=n), 0)
    balance = np.clip(rng.normal(1360, 3000, size=n).astype(int), -8019, 102127)
    success = np.asarray(cols["poutcome"]) == "success"
    logit = (duration / 180.0 + 1.5 * success - 0.15 * campaign
             + 1.0 * ~young - 0.4 * (np.asarray(cols["housing"]) == "yes") - 2.3)
    yes = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    cols.update({
        "age": age, "balance": balance, "day": rng.integers(1, 32, size=n),
        "duration": duration, "campaign": campaign, "pdays": pdays,
        "previous": previous,
    })
    cols = {k: [str(v) for v in vals] for k, vals in cols.items()}
    cols["y"] = ["yes" if v else "no" for v in yes]
    return _write(path, BANK_HEADER, cols)
