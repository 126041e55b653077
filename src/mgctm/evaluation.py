"""Clustering evaluation: best-map accuracy and normalized mutual information.

Accuracy is the fraction of documents whose predicted cluster maps to
their true class under the best one-to-one cluster-to-class assignment,
found exactly on the contingency matrix. NMI is I(pred; truth) divided
by sqrt(H(pred) * H(truth)), with natural-log entropies computed from
the empirical joint distribution.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DimensionError


@dataclass
class ClusterLabels:
    """Per-document integer labels plus the number of clusters."""

    labels: np.ndarray
    num_clusters: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise DimensionError("labels must be a 1-d array")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_clusters
        ):
            raise ValueError("labels must lie in [0, num_clusters)")

    @classmethod
    def from_array(cls, labels):
        labels = np.asarray(labels, dtype=np.int64)
        k = int(labels.max()) + 1 if labels.size else 0
        return cls(labels, k)

    def __len__(self):
        return int(self.labels.size)


def _as_labels(x):
    if isinstance(x, ClusterLabels):
        return x
    return ClusterLabels.from_array(x)


def contingency(pred, truth):
    """Square contingency matrix, zero-padded when cluster counts differ."""
    pred, truth = _as_labels(pred), _as_labels(truth)
    if len(pred) != len(truth):
        raise DimensionError(
            f"label vectors differ in length: {len(pred)} vs {len(truth)}"
        )
    if len(pred) == 0:
        raise DimensionError("label vectors are empty")
    k = max(pred.num_clusters, truth.num_clusters)
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred.labels, truth.labels), 1)
    return table


def align_labels(pred, truth):
    """Optimal one-to-one mapping from predicted clusters to true classes.

    Among all assignments maximizing the matched count, returns the one
    that gives cluster 0 the lowest possible class, then cluster 1, and
    so on. Returned as an int array indexed by predicted cluster.
    """
    # imported here: scipy.optimize adds ~0.25 s to every process start
    from scipy.optimize import linear_sum_assignment

    table = contingency(pred, truth)
    k = table.shape[0]

    def best_total(t):
        rows, cols = linear_sum_assignment(t, maximize=True)
        return int(t[rows, cols].sum())

    target = best_total(table)
    mapping = np.full(k, -1, dtype=np.int64)
    taken = np.zeros(k, dtype=bool)
    # Fix clusters one at a time, lowest class first, keeping optimality.
    fixed_gain = 0
    for p in range(k):
        remaining_rows = np.arange(p + 1, k)
        for t in range(k):
            if taken[t]:
                continue
            rest_cols = np.array(
                [c for c in range(k) if not taken[c] and c != t], dtype=np.int64
            )
            rest = table[np.ix_(remaining_rows, rest_cols)] if remaining_rows.size else None
            rest_total = best_total(rest) if rest is not None and rest.size else 0
            if fixed_gain + table[p, t] + rest_total == target:
                mapping[p] = t
                taken[t] = True
                fixed_gain += int(table[p, t])
                break
    return mapping


def clustering_accuracy(pred, truth):
    """Best-map clustering accuracy in [0, 1]."""
    from scipy.optimize import linear_sum_assignment

    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / float(table.sum())


def nmi(pred, truth):
    """Normalized mutual information in [0, 1].

    If either marginal entropy is zero the ratio is 0/0. An entropy is
    zero only for a constant labeling, so by convention two constant
    labelings (the same partition) score 1.0 and anything else 0.0.
    """
    table = contingency(pred, truth).astype(float)
    n = table.sum()
    joint = table / n
    # marginals from exact counts; summing joint rows can round 1.0 to
    # 0.999... and miss the zero-entropy branch below
    p_pred = table.sum(axis=1) / n
    p_truth = table.sum(axis=0) / n
    h_pred = -xlogy(p_pred, p_pred).sum()
    h_truth = -xlogy(p_truth, p_truth).sum()
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if h_pred == 0.0 and h_truth == 0.0 else 0.0
    outer = p_pred[:, None] * p_truth[None, :]
    mask = joint > 0
    mi = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    return mi / float(np.sqrt(h_pred * h_truth))

