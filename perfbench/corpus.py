"""a9a-shaped LIBSVM corpus generated from a seed.

The UCI "adult" set as binarized for LIBSVM (a9a) has 32561 rows and 123
binary features, one-hot encoding 14 categorical attributes, so every row has
exactly 14 nonzeros, and about a quarter of the labels are positive. This
module draws a corpus with that shape: one category per attribute from a
skewed distribution, and a label from a hidden linear model with logistic
noise. The model's weights are large enough that the logistic gradient at the
origin is far from zero on every seed, so the cost is learnable but not
separable. gtsim only ever sees the written file.
"""

from __future__ import annotations

import numpy as np

ROWS = 32561
# one-hot group widths of the 14 attributes; they sum to the 123 features
GROUPS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)
FEATURES = sum(GROUPS)
NONZEROS_PER_ROW = len(GROUPS)


def generate(seed: int, rows: int = ROWS) -> str:
    """LIBSVM text of an a9a-shaped corpus; the same seed gives the same text."""
    rng = np.random.default_rng((seed, 9))
    cols = np.empty((rows, len(GROUPS)), dtype=np.int64)
    offset = 0
    for g, width in enumerate(GROUPS):
        # Zipf-like category frequencies keep every feature present in a full corpus
        p = 1.0 / np.arange(1, width + 1)
        cols[:, g] = offset + rng.choice(width, size=rows, p=p / p.sum())
        offset += width
    weights = 2.0 * rng.standard_normal(FEATURES)
    score = weights[cols].sum(axis=1)
    # about a quarter positive, as in a9a
    margin = score - np.quantile(score, 0.76)
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-margin)), "+1", "-1")
    lines = [
        label + " " + " ".join(f"{c + 1}:1" for c in row)
        for label, row in zip(labels, cols.tolist())
    ]
    return "\n".join(lines) + "\n"


def write(seed: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(generate(seed))
