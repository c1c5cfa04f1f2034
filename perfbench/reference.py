"""Vectorised reference computations for the benchmark's output checks.

Each function is written from the defining formula of its procedure and
imports nothing from ``evmt``, so a fault in the package cannot hide in its
own check.  Everything runs in O(n log n) numpy, which the 10^6-row CLI
workload needs; ``test_reference.py`` compares each one with the
brute-force loops in ``tests/oracles.py`` on small inputs.

Comparisons use the same floating-point expressions as the definitions
(``k alpha / n``, ``(1 + A) / max(1, R)``, ``n / (k alpha)``), so results are
meant to agree exactly, not within a tolerance.
"""

from __future__ import annotations

import numpy as np


def stepup(p, alpha):
    """Step-up (BH) procedure.

    Returns ``(k, rejected_mask, evalues)``: the number of rejections, the
    mask ``p_i <= k alpha / n`` and the e-values ``n / (k alpha)`` on the
    rejected set, 0 elsewhere.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    ranks = np.arange(1, n + 1)
    below = np.sort(p) <= ranks * alpha / n
    k = int(ranks[below][-1]) if below.any() else 0
    e = np.zeros(n)
    if k == 0:
        return 0, np.zeros(n, dtype=bool), e
    rejected = p <= k * alpha / n
    e[rejected] = n / float(k * alpha)
    return k, rejected, e


def mirror_thresholds(p, groups, n_groups, alpha):
    """Mirror-count (BC) threshold of every group at once.

    Within group l the threshold is the largest t < 1/2 among the group's
    p-values and mirror scores ``1 - p`` with
    ``(1 + #{1 - p_j <= t}) / max(1, #{p_j <= t}) <= alpha``.

    Returns ``(thresholds, mirrors)``: per group the threshold (nan when no
    t qualifies) and the mirror count ``#{1 - p_j <= T_l}`` at it.
    """
    p = np.asarray(p, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    mirror = 1.0 - p
    low_p = p < 0.5
    low_m = mirror < 0.5
    value = np.concatenate([p[low_p], mirror[low_m]])
    grp = np.concatenate([groups[low_p], groups[low_m]])
    is_rej = np.concatenate([np.ones(int(low_p.sum())), np.zeros(int(low_m.sum()))])
    thresholds = np.full(n_groups, np.nan)
    mirrors = np.zeros(n_groups)
    if value.size == 0:
        return thresholds, mirrors

    order = np.lexsort((value, grp))
    value, grp, is_rej = value[order], grp[order], is_rej[order]
    cum_rej = np.cumsum(is_rej)
    cum_mir = np.cumsum(1.0 - is_rej)
    # counts restart at each group: subtract the running totals before it
    first = np.ones(grp.size, dtype=bool)
    first[1:] = grp[1:] != grp[:-1]
    start = np.maximum.accumulate(np.where(first, np.arange(grp.size), 0))
    before_rej = np.where(start > 0, cum_rej[start - 1], 0.0)
    before_mir = np.where(start > 0, cum_mir[start - 1], 0.0)
    n_rej = cum_rej - before_rej
    n_mir = cum_mir - before_mir
    # evaluate each distinct (group, value) once, after all its ties
    last = np.ones(grp.size, dtype=bool)
    last[:-1] = (grp[1:] != grp[:-1]) | (value[1:] != value[:-1])
    ok = last & ((1.0 + n_mir) / np.maximum(n_rej, 1.0) <= alpha)
    pos = np.nonzero(ok)[0]
    if pos.size == 0:
        return thresholds, mirrors
    top = np.ones(pos.size, dtype=bool)
    top[:-1] = grp[pos[1:]] != grp[pos[:-1]]
    pos = pos[top]
    thresholds[grp[pos]] = value[pos]
    mirrors[grp[pos]] = n_mir[pos]
    return thresholds, mirrors


def mirror_count(p, alpha):
    """Mirror-count procedure on one vector.

    Returns ``(threshold or None, rejected_mask, evalues)`` with e-values
    ``n / (1 + #{1 - p_j <= T})`` on the rejected set.
    """
    p = np.asarray(p, dtype=np.float64)
    thr, mirrors = mirror_thresholds(p, np.zeros(p.size, dtype=np.int64), 1, alpha)
    e = np.zeros(p.size)
    if np.isnan(thr[0]):
        return None, np.zeros(p.size, dtype=bool), e
    rejected = p <= thr[0]
    e[rejected] = p.size / (1.0 + mirrors[0])
    return float(thr[0]), rejected, e


def group_rejections(p, groups, thresholds):
    """Mask of hypotheses at or below their own group's threshold."""
    t = np.asarray(thresholds)[np.asarray(groups, dtype=np.int64)]
    return np.asarray(p) <= np.where(np.isnan(t), -np.inf, t)


def ebh(e, alpha):
    """E-value step-up: reject the k largest, k the largest with e_(k) >= n / (k alpha)."""
    e = np.asarray(e, dtype=np.float64)
    n = e.size
    ranks = np.arange(1, n + 1)
    desc = np.sort(e)[::-1]
    above = desc >= n / (ranks * alpha)
    if not above.any():
        return np.zeros(n, dtype=bool)
    k = int(ranks[above][-1])
    return e >= desc[k - 1]


def knockoff(w, alpha):
    """Knockoff selection from signed statistics.

    T is the smallest nonzero |W| with
    ``(1 + #{W_j <= -T}) / max(1, #{W_j >= T}) <= alpha``.  Returns
    ``(T or None, selected_mask)``.
    """
    w = np.asarray(w, dtype=np.float64)
    mag = np.abs(w)
    order = np.argsort(mag, kind="stable")
    mag_sorted = mag[order]
    sign = np.sign(w[order])
    # counts over the tail {j : |W_j| >= magnitude at this position}
    pos_tail = np.cumsum((sign > 0)[::-1])[::-1]
    neg_tail = np.cumsum((sign < 0)[::-1])[::-1]
    # a threshold is a distinct magnitude; its tail starts at the first tie
    first = np.ones(mag_sorted.size, dtype=bool)
    first[1:] = mag_sorted[1:] != mag_sorted[:-1]
    cand = first & (mag_sorted > 0.0)
    ok = cand & ((1.0 + neg_tail) / np.maximum(pos_tail, 1) <= alpha)
    if not ok.any():
        return None, np.zeros(w.size, dtype=bool)
    t = float(mag_sorted[np.nonzero(ok)[0][0]])
    return t, w >= t


def fdp_power(rejected, truth):
    """False discovery proportion and power of a rejection mask."""
    rejected = np.asarray(rejected, dtype=bool)
    truth = np.asarray(truth).astype(bool)
    n_rej = int(rejected.sum())
    n_true = int((rejected & truth).sum())
    return (n_rej - n_true) / max(1, n_rej), n_true / max(1, int(truth.sum()))


def mixture_loglik_at_start(p):
    """Two-group mixture log-likelihood at pi = 0.9, kappa = 1/2, no covariate effect.

    ``sum_i log(pi + (1 - pi)(1 - kappa) p_i^(-kappa))`` with p floored at
    1e-15, the density the EM fit starts from.
    """
    p = np.maximum(np.asarray(p, dtype=np.float64), 1e-15)
    return float(np.sum(np.log(0.9 + 0.1 * 0.5 * p ** -0.5)))
