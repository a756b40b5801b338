"""Seeded benchmark inputs shaped like the bundled example.

Every dataset has the example's layout (20 studies, 195 trials), its
twelve features and their levels and grouping rules.  Values are drawn
from ``random.Random(seed)``, so one seed gives the same bytes on every
machine, and metaprop's own PRNG never produces the data files it is
measured on.
"""

from __future__ import annotations

import csv
import io
import math
import random

import yaml

TRIALS = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 2, 3, 4, 12, 39]

# Search restriction for select_exhaustive: the first 8 of the 12 feature
# groups in schema order give 2**8 = 256 candidates, 1/16 of the full
# search, while keeping both numerics, the multi-level categoricals and
# full designs of f = 20 columns.
SEARCH_GROUPS = 8

ML_GROUPING = {
    "Logistic Regression": "Classical machine learning",
    "Naive Bayes": "Classical machine learning",
    "Multinomial Naive Bayes": "Classical machine learning",
    "Genetic Algorithm": "Classical machine learning",
    "SVM/Clustering": "SVM/Clustering",
    "Tree-based": "Tree-based",
    "Neural networks/Deep learning": "Neural networks/Deep learning",
    "Not specified": "Not specified",
}
ML_RAW = [raw for raw in ML_GROUPING if raw != "Not specified"]
ML_EFFECT = {
    "Classical machine learning": 0.0,
    "SVM/Clustering": 0.05,
    "Tree-based": 0.03,
    "Neural networks/Deep learning": 0.10,
    "Not specified": 0.02,
}
EXTRACTION_GROUPING = {
    "TF-IDF": "TF-IDF", "FastText": "FastText", "FastText + TF-IDF": "FastText + TF-IDF",
    "Bag of Words": "Bag of Words", "Word2Vec": "Word2Vec",
    "Keras Embedding Layer": "Keras Embedding Layer",
    "Count Vector": "Other", "N-Grams": "Other", "GloVe": "Other",
    "Bert Tokenizer": "Other", "Bag of Words + TF-IDF": "Other",
}
LANGUAGE_GROUPING = {"Nepali": "Other", "Italian": "Other", "Tamil": "Other"}
LABELING_GROUPING = {
    "Lexicon Approach": "Lexicon Approach", "Not specified": "Not specified",
    "Pre-labeled dataset": "Other", "Manual + ML": "Other",
}
TOPIC_GROUPING = {
    "COVID-19": "COVID-19", "Not specified": "Not specified",
    "LGBTQ": "Other", "Railway infrastructure": "Other",
}
MAJORITY = ["0.0-0.4", "0.41-0.5", "0.51-0.6", "0.61-0.9", "0.91-1.0", "Not specified"]
N_EXTRACTION = ["1 method", "2 methods", "Not specified"]
CLASSES = ["2 classes", "3 or 10 classes"]

SCHEMA = {
    "train_test_ratio": {"kind": "numeric"},
    "training_size": {"kind": "numeric", "scale": 1000},
    "sentiment_classes": {"kind": "categorical", "reference_level": "2 classes"},
    "ml_model": {"kind": "categorical", "reference_level": "Classical machine learning",
                 "grouping": ML_GROUPING},
    "n_extraction_methods": {"kind": "categorical", "reference_level": "1 method"},
    "extraction_method": {"kind": "categorical", "reference_level": "TF-IDF",
                          "grouping": EXTRACTION_GROUPING},
    "language": {"kind": "categorical", "reference_level": "English",
                 "grouping": LANGUAGE_GROUPING},
    "labeling_method": {"kind": "categorical", "reference_level": "Human annotation",
                        "grouping": LABELING_GROUPING},
    "majority_class": {"kind": "categorical", "reference_level": "0.0-0.4"},
    "topic": {"kind": "categorical", "reference_level": "Brands", "grouping": TOPIC_GROUPING},
    "dataset_type": {"kind": "categorical", "reference_level": "Existing"},
    "confusion_matrix": {"kind": "categorical", "reference_level": "No"},
}
FEATURES = list(SCHEMA)
HEADER = ["study_id", "trial_id", "k", "n"] + FEATURES


def schema_yaml(groups: int = len(FEATURES)) -> str:
    """Schema text declaring the first ``groups`` features in order."""
    feats = {name: SCHEMA[name] for name in FEATURES[:groups]}
    return yaml.safe_dump({"features": feats}, sort_keys=False, allow_unicode=True)


def trials_csv(seed: int) -> str:
    """Example-shaped trials CSV with all twelve feature columns."""
    rnd = random.Random(seed)
    base_mu = math.asin(math.sqrt(0.78))
    sd_xi, sd_zeta = math.sqrt(0.012), math.sqrt(0.006)
    non_english = rnd.sample(range(1, 20), 3)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for j, n_trials in enumerate(TRIALS, start=1):
        sid = f"S{j:02d}"
        xi = rnd.gauss(0.0, sd_xi)
        last = j == len(TRIALS)
        language = rnd.choice(sorted(LANGUAGE_GROUPING)) if j in non_english else "English"
        topic = "Not specified" if last else rnd.choice(
            ["Brands", "COVID-19", "LGBTQ", "Railway infrastructure"])
        labeling = rnd.choice(["Human annotation", "Lexicon Approach", "Pre-labeled dataset",
                               "Not specified", "Manual + ML"])
        # the first studies cover every level, as in the example
        majority = MAJORITY[j - 1] if j <= len(MAJORITY) else rnd.choice(MAJORITY)
        dataset_type = rnd.choice(["Existing", "Self-scraped"])
        confusion = ("No", "Yes")[j - 1] if j <= 2 else rnd.choice(["No", "Yes"])
        for i in range(n_trials):
            ml_raw = "Not specified" if last else rnd.choice(ML_RAW)
            n = rnd.randint(500, 5000)
            theta = (base_mu + ML_EFFECT[ML_GROUPING[ml_raw]] + xi
                     + rnd.gauss(0.0, sd_zeta) + rnd.gauss(0.0, math.sqrt(1.0 / (4 * n + 2))))
            k = round(n * math.sin(min(max(theta, 0.0), math.pi / 2)) ** 2)
            writer.writerow([
                sid, f"{sid}-t{i + 1}", k, n,
                round(1.0 + 8.0 * rnd.random(), 2), rnd.randint(1000, 100000),
                rnd.choice(CLASSES), ml_raw, rnd.choice(N_EXTRACTION),
                rnd.choice(list(EXTRACTION_GROUPING)), language, labeling,
                majority, topic, dataset_type, confusion])
    return out.getvalue()


def simconfig_yaml(template: str, seed: int, mode: str) -> str:
    """The simulation config text with its seed and mode replaced."""
    tree = yaml.safe_load(template)
    tree["simulation"]["seed"] = seed
    tree["simulation"]["mode"] = mode
    return yaml.safe_dump(tree, sort_keys=False)
