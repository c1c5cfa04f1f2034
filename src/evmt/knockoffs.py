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

Selection is a mirror-count scan (``procedures._run_scan``), the one that
BC runs on p-values: rejection scores ``-W_j``, mirror scores ``W_j`` and
the grid capped below 0, so the candidates are the ``-|W_j|`` of the nonzero
``W_j``.  At a candidate ``s`` the scan counts ``#{W_j >= -s}`` rejections
and ``#{W_j <= s}`` mirrors; its last feasible candidate ``s*`` gives
``T = -s*``.  The grid depends on the statistics alone and is built once
per statistic vector from one sort (a level-free stage of
``procedures._Memo``); selections at several levels read their criterion
off it, so the public functions take the memo of a family's statistics in
place of the statistics themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InputError
from .procedures import (
    ThresholdResult,
    _as_vector,
    _check_alpha,
    _ebh_select,
    _Memo,
    _run_scan,
    _sorted,
    _sorted_grid,
    _to_evalues,
)

__all__ = ["knockoff_threshold", "knockoff_evalues", "combine_and_select"]


def as_stats(values) -> np.ndarray:
    """Validate and return a 1-d float64 array of signed statistics."""
    return _as_vector(values, "statistics")


def _knockoff_grid(memo: _Memo):
    """Level-free stage: the mirror grid of rejection scores ``-W`` and
    mirror scores ``W`` below 0.  Negation is exact, so the ascending
    statistics, negated and read backwards, are the ascending rejection
    scores."""
    s = memo(_sorted)
    return _sorted_grid((-s)[::-1], s, 0.0, False)


def knockoff_threshold(stats, alpha: float) -> ThresholdResult:
    """Smallest feasible magnitude threshold; infeasible when none qualifies.

    ``m_at_T`` holds ``1 + #{W_j <= -T}`` and ``rejected`` the indices with
    ``W_j >= T``.
    """
    memo = _Memo.of(stats, check=as_stats)
    _check_alpha(alpha)
    scan = _run_scan(-memo.data, memo(_knockoff_grid), alpha)
    threshold = None if scan.threshold is None else -scan.threshold
    return ThresholdResult(threshold, scan.m_at_T, np.nonzero(scan.rejected_mask)[0], scan.feasible)


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
