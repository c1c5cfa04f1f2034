"""Selection from signed importance statistics, and combination of two
statistic families through e-values.

A signed statistic W_j compares a feature against its synthetic negative
control; under the null the sign of W_j is symmetric.  The selection
threshold is the smallest magnitude at which the sign-imbalance ratio drops
below the target level,

    T = min{ t in {|W_j|} \\ {0} : (1 + #{W_j <= -t}) / max(1, #{W_j >= t}) <= alpha },

selecting {j : W_j >= T}.  Converting a selection into e-values

    e_j = p * 1{W_j >= T} / (1 + #{W_j <= -T})

makes the e-value step-up selector reproduce it exactly, and two e-value
vectors from different statistic families combine by a fixed convex mix
before a single selection pass.

The candidates and the ratio at each depend on the statistics alone; the
level only picks the first feasible candidate.  So the ratio is counted
once per statistic vector (a level-free stage of ``procedures._Memo``) and
selections at several levels read it: the public functions take the memo
of a family's statistics in place of the statistics themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InputError
from .procedures import ThresholdResult, _as_vector, _check_alpha, _ebh_select, _Memo, _to_evalues

__all__ = ["knockoff_threshold", "knockoff_evalues", "combine_and_select"]


def as_stats(values) -> np.ndarray:
    """Validate and return a 1-d float64 array of signed statistics."""
    return _as_vector(values, "statistics")


def _sign_counts(memo: _Memo):
    """Level-free stage: the candidate magnitudes ``t`` (the distinct
    nonzero ``|W_j|``, ascending), ``#{W_j <= -t}`` and the sign-imbalance
    ratio ``(1 + #{W_j <= -t}) / max(1, #{W_j >= t})``."""
    w = memo.data
    cands = np.unique(np.abs(w))
    cands = cands[cands > 0.0]
    ws = np.sort(w)
    neg = np.searchsorted(ws, -cands, side="right")
    pos = w.size - np.searchsorted(ws, cands, side="left")
    return cands, neg, (1.0 + neg) / np.maximum(pos, 1)


def knockoff_threshold(stats, alpha: float) -> ThresholdResult:
    """Smallest feasible magnitude threshold; infeasible when none qualifies.

    ``m_at_T`` holds ``1 + #{W_j <= -T}`` and ``rejected`` the indices with
    ``W_j >= T``.
    """
    memo = _Memo.of(stats, check=as_stats)
    _check_alpha(alpha)
    cands, neg, ratio = memo(_sign_counts)
    feas = ratio <= alpha
    if not feas.any():
        return ThresholdResult(None, 0.0, np.empty(0, dtype=np.intp), False)
    k = int(np.nonzero(feas)[0][0])
    t = float(cands[k])
    rejected = np.nonzero(memo.data >= t)[0]
    return ThresholdResult(t, 1.0 + float(neg[k]), rejected, True)


def knockoff_evalues(stats, alpha: float) -> np.ndarray:
    """E-values reproducing the selection: p / (1 + #{W <= -T}) on it, 0 off."""
    memo = _Memo.of(stats, check=as_stats)
    return _to_evalues(memo.size, knockoff_threshold(memo, alpha))


def combine_and_select(
    stats_a,
    stats_b,
    alpha_ebh: float,
    w1: float = 0.5,
    w2: float = 0.5,
    alpha_ko: float = None,
) -> np.ndarray:
    """Convex combination of two statistic families' e-values, then selection.

    Each family is thresholded at ``alpha_ko`` (default ``alpha_ebh / 2``),
    converted to e-values, mixed as ``w1 * e_a + w2 * e_b`` with
    ``w1 + w2 <= 1``, and passed to the e-value step-up rule at
    ``alpha_ebh``.  Returns sorted 0-based indices of selected features.
    """
    memo_a, memo_b = _Memo.of(stats_a, check=as_stats), _Memo.of(stats_b, check=as_stats)
    _check_alpha(alpha_ebh, "alpha_ebh")
    if not (w1 >= 0.0 and w2 >= 0.0 and w1 + w2 <= 1.0 + 1e-12):  # NaN fails too
        raise ConfigurationError("combination weights must be nonnegative with sum <= 1")
    if alpha_ko is None:
        alpha_ko = alpha_ebh / 2.0
    e = _combined_evalues(memo_a, memo_b, alpha_ko, w1, w2)
    return _ebh_select(e, alpha_ebh)


def _combined_evalues(stats_a, stats_b, alpha_ko: float, w1, w2) -> np.ndarray:
    """``w1 * e_a + w2 * e_b``, each family's e-values at level ``alpha_ko``;
    each family is an array of statistics or a memo of validated ones, and
    the two must have the same length."""
    memo_a, memo_b = _Memo.of(stats_a, check=as_stats), _Memo.of(stats_b, check=as_stats)
    if memo_a.size != memo_b.size:
        raise InputError(
            f"the two statistic vectors must have equal length, got {memo_a.size} and {memo_b.size}"
        )
    return w1 * knockoff_evalues(memo_a, alpha_ko) + w2 * knockoff_evalues(memo_b, alpha_ko)
