"""Ranking metrics: AUC with exact tie handling, and long-tail slices.

AUC is the fraction of (positive, negative) pairs ranked correctly,
with ties worth half credit. The rank-statistics implementation sums
the same half-integer credits as the O(n^2) pairwise definition, and
exactly so, since half-integers well below 2^53 add without rounding;
it divides once, so it matches a brute-force evaluation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError

Array = np.ndarray


@dataclass
class ScoredSet:
    """Parallel per-instance arrays: model score, binary label, and the
    item's untruncated training-set interaction count."""

    scores: Array
    labels: Array
    degrees: Array

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        if not (self.scores.shape == self.labels.shape == self.degrees.shape):
            raise DataError(
                f"scores {self.scores.shape}, labels {self.labels.shape}, "
                f"degrees {self.degrees.shape} must align"
            )
        if self.scores.ndim != 1:
            raise DataError("scored sets are one-dimensional")
        if not np.all(np.isfinite(self.scores)):
            raise DataError("scores must be finite")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise DataError("labels must be 0 or 1")
        if np.any(self.degrees < 0):
            raise DataError("degrees must be non-negative")

    def __len__(self) -> int:
        return self.scores.shape[0]


def _tie_averaged_ranks(scores: Array) -> Array:
    """1-based ranks by ascending score; tied scores share the mean rank."""
    ordered = np.sort(scores)
    # A score's tie group fills sorted positions start..stop-1; the mean
    # of the 1-based ranks start+1 .. stop is (start + stop + 1) / 2.
    start = np.searchsorted(ordered, scores, side="left")
    stop = np.searchsorted(ordered, scores, side="right")
    return (start + stop + 1) / 2.0


def auc(scored: ScoredSet) -> float:
    """Pairwise ranking score: correct pairs count 1, ties 1/2."""
    labels = scored.labels
    m_pos = int(labels.sum())
    m_neg = len(scored) - m_pos
    if m_pos == 0 or m_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {m_pos} positives and {m_neg} negatives"
        )
    ranks = _tie_averaged_ranks(scored.scores)
    # Sum of positive ranks minus the minimum possible (all positives
    # ranked lowest) counts exactly the beaten-plus-half-tied negatives.
    credit = float(ranks[labels == 1.0].sum()) - m_pos * (m_pos + 1) / 2.0
    return credit / (m_pos * m_neg)


def longtail_auc(scored: ScoredSet, k: float) -> float | None:
    """AUC restricted to items with at most k training interactions.

    Returns None when the filtered subset lacks a class; a one-sided
    slice is a fact about the data, not an error.
    """
    if k < 0:
        raise DataError(f"long-tail threshold must be non-negative, got {k}")
    keep = scored.degrees <= k
    subset = ScoredSet(scored.scores[keep], scored.labels[keep], scored.degrees[keep])
    if len(subset) == 0:
        return None
    pos = subset.labels.sum()
    if pos == 0 or pos == len(subset):
        return None
    return auc(subset)
