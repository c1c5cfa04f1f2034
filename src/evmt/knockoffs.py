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
selections at several levels read it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InputError
from .procedures import ThresholdResult, _ebh_select, _Memo

__all__ = ["knockoff_threshold", "knockoff_evalues", "combine_and_select"]


def as_stats(values) -> np.ndarray:
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InputError("statistics must form a non-empty 1-d array")
    if not np.all(np.isfinite(w)):
        raise InputError("statistics must be finite")
    return w


def knockoff_threshold(stats, alpha: float) -> ThresholdResult:
    """Smallest feasible magnitude threshold; infeasible when none qualifies.

    ``m_at_T`` holds ``1 + #{W_j <= -T}`` and ``rejected`` the indices with
    ``W_j >= T``.
    """
    return _knockoff_threshold(_Memo(as_stats(stats)), alpha)


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


def _knockoff_threshold(memo: _Memo, alpha: float) -> ThresholdResult:
    """:func:`knockoff_threshold` on the memo of validated statistics: the
    level criterion read off the level-free sign counts."""
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
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
    return _knockoff_evalues(_Memo(as_stats(stats)), alpha)


def _knockoff_evalues(memo: _Memo, alpha: float) -> np.ndarray:
    """:func:`knockoff_evalues` on the memo of validated statistics."""
    res = _knockoff_threshold(memo, alpha)
    e = np.zeros(memo.data.size)
    if res.feasible:
        e[res.rejected] = memo.data.size / res.m_at_T
    return e


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
    return _combine_and_select(_Memo(as_stats(stats_a)), _Memo(as_stats(stats_b)),
                               alpha_ebh, w1, w2, alpha_ko)


def _combine_and_select(memo_a: _Memo, memo_b: _Memo, alpha_ebh: float, w1, w2, alpha_ko):
    """:func:`combine_and_select` on the memos of validated statistics."""
    if memo_a.data.size != memo_b.data.size:
        raise InputError("the two statistic vectors must have equal length")
    if not (0.0 < alpha_ebh < 1.0):
        raise ConfigurationError(f"alpha_ebh must lie in (0, 1), got {alpha_ebh}")
    if w1 < 0.0 or w2 < 0.0 or w1 + w2 > 1.0 + 1e-12:
        raise ConfigurationError("combination weights must be nonnegative with sum <= 1")
    if alpha_ko is None:
        alpha_ko = alpha_ebh / 2.0
    e = _combined_evalues(memo_a, memo_b, alpha_ko, w1, w2)
    return _ebh_select(e, alpha_ebh)


def _combined_evalues(memo_a: _Memo, memo_b: _Memo, alpha_ko: float, w1, w2) -> np.ndarray:
    """``w1 * e_a + w2 * e_b``, each family's e-values at level ``alpha_ko``,
    on the memos of validated statistics."""
    return w1 * _knockoff_evalues(memo_a, alpha_ko) + w2 * _knockoff_evalues(memo_b, alpha_ko)
