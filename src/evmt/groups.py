"""Assembly of per-group BC results into one e-value vector.

The symmetry-based procedure is run inside each group of hypotheses at the
target level; the per-group outcomes are turned into e-values

    e_i = n_l * w_i * 1{p_i <= T_l} / (1 + #{j in group l : p_j >= 1 - T_l})

and the pooled vector is fed to the e-value step-up selector at the same
level.  This controls the FDR inside every group (only hypotheses rejected
by their own group's threshold carry nonzero e-values) and, with any of the
weight schemes below, the overall FDR as well.

Weight schemes
--------------
``unit``
    w_i = 1.
``size_adjusted``
    w_i = n / (L n_l), balancing groups of unequal size.
``adaptive``
    Data-dependent weights built from leave-one-out thresholds: with
    B_i = 1 + #{j != i in group l : p_j >= 1 - T_l} and T_{l',j} the group
    threshold recomputed after censoring p_j to min(p_j, 1 - p_j),

        w_i = (n / n_l) * B_i / (B_i + sum_{l' != l} #{j in l' : p_j >= 1 - T_{l',j}}).

The leave-one-out exceedance count of a group is computed in a single scan:
censoring one large p-value to its mirror relaxes the group's count
criterion from (1 + A) / max(R, 1) to A / (R + 1) at thresholds past the
mirror point, so #{j : p_j >= 1 - T_{l,j}} equals the number of p-values at
or above 1 minus the largest candidate satisfying the relaxed criterion.

Shared per-group path
---------------------
The cross-fitted folds of :mod:`evmt.adaptive` are groups of the same
construction, with the flexible mirror-count scan of fitted curves in place
of BC, or BC itself when there are no covariates.  ``_group_scans``, a
stage of a ``procedures._Memo`` of p and the partition keyed by the curves
(None for BC) and the level, runs each group's scan and returns the
thresholds with the leave-one-out counts; ``_loo_weights`` computes
``(n / n_l) * B_i / (B_i + cross_l)`` from the mirror scores and those
counts, ``cross_l`` being the sum of the other groups' counts, in one pass
over all hypotheses indexed by their group codes.  The public
functions take the memo in place of the p-values, so the grouped methods of
a campaign replicate, and the stages of a cross-fitted run, share the scans.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InputError
from .procedures import (
    ThresholdResult,
    _bc_scan,
    _check_alpha,
    _ebh_select,
    _fbc_scan,
    _lookup,
    _Memo,
    _relaxed_plateau,
    _Truth,
    as_pvalues,
)

__all__ = [
    "GroupPartition",
    "GroupReport",
    "groupwise_bc_thresholds",
    "assemble_weights",
    "group_evalues",
    "run_grouped_ebh",
]

# each accepted spelling of a weight scheme, lower case, and its canonical name
_SCHEMES = {
    "unit": "unit",
    "size": "size_adjusted",
    "size_adjusted": "size_adjusted",
    "adaptive": "adaptive",
}


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of hypothesis indices by integer group codes 0..L-1."""

    labels: np.ndarray
    n_groups: int
    names: Optional[tuple] = None

    def __post_init__(self):
        # a read-only view: a partition may be shared, as by the replicates
        # of a campaign, and its other fields are derived from the codes
        labels = np.asarray(self.labels, dtype=np.intp).view()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ConfigurationError("partition labels must form a non-empty 1-d array")
        if not isinstance(self.n_groups, numbers.Integral) or self.n_groups < 1:
            raise ConfigurationError(
                f"partition needs a whole number of at least one group, got {self.n_groups!r}"
            )
        if labels.min() < 0 or labels.max() >= self.n_groups:
            raise ConfigurationError("group codes out of range")
        counts = np.bincount(labels, minlength=self.n_groups)
        if np.any(counts == 0):
            raise ConfigurationError("every group must contain at least one hypothesis")
        counts.flags.writeable = False
        object.__setattr__(self, "_sizes", counts)
        # the members of group l, ascending, are order[starts[l]:starts[l + 1]];
        # numpy's stable sort of codes that fit in 16 bits is a radix sort
        order = np.argsort(labels.astype(np.min_scalar_type(self.n_groups - 1)), kind="stable")
        order.flags.writeable = False
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_starts", [0, *np.cumsum(counts).tolist()])

    @classmethod
    def from_labels(cls, labels: Sequence) -> "GroupPartition":
        """Build a partition from arbitrary hashable labels.

        Groups are numbered in the sorted order of their names, as
        ``np.unique(labels, return_inverse=True)`` numbers them.  The labels
        are factorised with a dict, so only the distinct names are sorted.
        """
        values = np.asarray(labels).tolist()
        names = sorted(dict.fromkeys(values))
        code = {name: l for l, name in enumerate(names)}
        codes = np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))
        return cls(labels=codes, n_groups=len(names), names=tuple(names))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "GroupPartition":
        """Consecutive blocks of the given sizes."""
        sizes = [int(s) for s in sizes]
        codes = np.repeat(np.arange(len(sizes)), sizes)
        return cls(labels=codes, n_groups=len(sizes))

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    def indices(self, group: int) -> np.ndarray:
        """Ascending indices of the group's members, as a read-only view."""
        return self._order[self._starts[group]:self._starts[group + 1]]


def _check_thresholds(thresholds, part: GroupPartition) -> None:
    if len(thresholds) != part.n_groups:
        raise InputError(
            f"got {len(thresholds)} thresholds for a partition of {part.n_groups} groups"
        )


def _group_scans(memo: _Memo, curves, alpha: float):
    """Stage: each group's BC scan at level ``alpha`` (the fbc scan on the
    group's curves, when given), as a list of :class:`ThresholdResult` with
    global indices, and an array of the groups' leave-one-out counts, each
    the ``loo_count`` of :func:`procedures._relaxed_plateau` on the group's
    grid."""
    p, part = memo.data, memo.part
    results = []
    counts = np.zeros(part.n_groups)
    for l in range(part.n_groups):
        idx = part.indices(l)
        if curves is None:
            scan = _bc_scan(_Memo(p[idx]), alpha)
        else:
            scan = _fbc_scan(p[idx], curves[idx], alpha)
        results.append(
            ThresholdResult(scan.threshold, scan.m_at_T, idx[scan.rejected_mask], scan.feasible)
        )
        counts[l] = _relaxed_plateau(scan.grid, alpha)[2]
    return results, counts


def _loo_weights(memo: _Memo, curves, thresholds, alpha: float) -> np.ndarray:
    """Leave-one-out weights ``(n / n_l) * b_i / (b_i + cross_l)``, in one
    pass over all hypotheses.

    ``b_i = 1 + #{j != i in group l : mirror_j <= T_l}`` (1 when group l is
    infeasible, whose threshold is taken as -inf) counts on the mirror
    scores, ``1 - p`` or ``curves.at(1 - p)``, as the scans did; the
    groups' counts are one ``bincount`` of the labels of the exceeding
    hypotheses.  ``cross_l`` is the other groups' total leave-one-out count
    from :func:`_group_scans` at ``alpha``.
    """
    labels, n_groups = memo.part.labels, memo.part.n_groups
    counts = memo(_group_scans, curves, alpha)[1]
    mirror = 1.0 - memo.data if curves is None else curves.at(1.0 - memo.data)
    t = np.array([res.threshold if res.feasible else -np.inf for res in thresholds])
    exceed = mirror <= t[labels]
    # b_i = 1 + m_l - 1{mirror_i <= T_l}, m_l being group l's count, takes
    # two values per group: row 0 of b for a member that does not exceed T_l,
    # row 1 for one that does.  Each hypothesis reads its weight off that
    # (2, L) table.
    b = 1.0 + np.bincount(labels[exceed], minlength=n_groups) - np.arange(2)[:, None]
    with np.errstate(invalid="ignore"):  # 0 / 0 only in row 1 of a group with m_l = 0, never read
        w = (mirror.size / memo.part.sizes) * b / (b + (counts.sum() - counts))
    return w.ravel()[labels + n_groups * exceed]


def groupwise_bc_thresholds(pvals, part: GroupPartition, alpha: float):
    """BC threshold of each group at level ``alpha``.

    Returns a list of :class:`ThresholdResult`, one per group, whose
    ``rejected`` fields hold global hypothesis indices.
    """
    memo = _Memo.of(pvals, check=as_pvalues, part=part)
    return memo(_group_scans, None, _check_alpha(alpha))[0]


def assemble_weights(
    pvals, part: GroupPartition, thresholds, scheme: str, alpha: Optional[float] = None
) -> np.ndarray:
    """E-value weights for the pooled group e-values.

    ``thresholds`` must come from :func:`groupwise_bc_thresholds` on the same
    inputs.  ``scheme`` is one of ``unit``, ``size_adjusted`` (alias
    ``size``) or ``adaptive``; the adaptive scheme additionally needs the
    level ``alpha`` the thresholds were computed at.
    """
    memo = _Memo.of(pvals, check=as_pvalues, part=part)
    _check_thresholds(thresholds, part)
    scheme = _lookup(_SCHEMES, scheme, "weight scheme")
    n = memo.size
    if scheme == "unit":
        return np.ones(n)
    if scheme == "size_adjusted":
        return (n / (part.n_groups * part.sizes))[part.labels]
    # the censored thresholds T_{l,j} can be feasible even when the
    # group's base threshold is not, so the count is taken unconditionally
    return _loo_weights(memo, None, thresholds, _check_alpha(alpha))


@dataclass(frozen=True)
class GroupReport:
    """Outcome of the grouped e-value procedure.  Group l's own BC
    rejections are ``thresholds[l].rejected``."""

    alpha: float
    scheme: str
    thresholds: list
    weights: np.ndarray
    evalues: np.ndarray
    rejected: np.ndarray
    fdp: Optional[float] = None
    power: Optional[float] = None
    group_fdp: Optional[np.ndarray] = None
    group_power: Optional[np.ndarray] = None


def group_evalues(pvals, part: GroupPartition, thresholds, weights) -> np.ndarray:
    """Weighted per-group e-values, zero outside each group's rejections."""
    n = _Memo.of(pvals, check=as_pvalues, part=part).size
    _check_thresholds(thresholds, part)
    weights = np.asarray(weights)
    if weights.shape != (n,):
        raise InputError(f"got {weights.size} weights for {n} p-values")
    e = np.zeros(n)
    for l in range(part.n_groups):
        res = thresholds[l]
        if res.feasible:
            e[res.rejected] = part.sizes[l] * weights[res.rejected] / res.m_at_T
    return e


def run_grouped_ebh(
    pvals,
    part: GroupPartition,
    alpha: float,
    scheme: str = "adaptive",
    truth=None,
) -> GroupReport:
    """Group-wise BC, weight assembly and pooled e-value selection.

    Parameters
    ----------
    pvals : array_like or _Memo
        P-values for all hypotheses, or a ``procedures._Memo`` of validated
        p-values built with ``part``.
    part : GroupPartition
        Disjoint grouping of the hypotheses.
    alpha : float
        Target FDR level, used both for the per-group thresholds and for the
        final e-value selection.
    scheme : str
        Weight scheme (``unit``, ``size_adjusted``/``size``, ``adaptive``).
    truth : array_like of {0, 1}, optional
        Non-null indicators; when given, overall and per-group FDP/power are
        included in the report.
    """
    memo = _Memo.of(pvals, check=as_pvalues, part=part)
    scheme = _lookup(_SCHEMES, scheme, "weight scheme")
    thresholds = groupwise_bc_thresholds(memo, part, alpha)
    weights = assemble_weights(memo, part, thresholds, scheme, alpha)
    evalues = group_evalues(memo, part, thresholds, weights)
    rejected = _ebh_select(evalues, alpha)

    fdp = power = group_fdp = group_power = None
    if truth is not None:
        fdp, power, group_fdp, group_power = _Truth(truth, part).score(rejected)
    return GroupReport(
        alpha=alpha,
        scheme=scheme,
        thresholds=thresholds,
        weights=weights,
        evalues=evalues,
        rejected=rejected,
        fdp=fdp,
        power=power,
        group_fdp=group_fdp,
        group_power=group_power,
    )
