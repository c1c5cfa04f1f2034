"""Weighted aggregation of BH and BC e-values.

Neither the step-up (``bh``) nor the mirror-counting (``bc``) procedure
dominates the other across signal regimes.  This module blends their
e-values,

    e_i = w_bh_i * e_bh_i + w_bc_i * e_bc_i,

and selects with the e-value step-up rule at level alpha.  That rule
controls the FDR at alpha whenever the null e-values meet the budget
``sum_{i null} E[e_i] <= n``: a rejection among K needs
``e_i >= n / (K alpha)``, so the FDP is at most ``(alpha / n) sum_null e_i``.
Constant weights 0.5/0.5 (``averaged`` mode) meet the budget because each
base e-value does.  The ``adaptive`` mode picks weights in {0, 1} from
leave-one-out quantities so that, hypothesis by hypothesis, the base
procedure that reaches further into the p-values carries its e-value
whole.

Notation (p~ denotes min(p, 1 - p); mirror scores ``m_j = 1 - p_j`` are
compared as stored):

``t_bh_loo[i]``
    Step-up threshold of the fully censored vector (p~_1, ..., p~_n) with
    position i set to 0.  ``M = max_j t_bh_loo[j]``.
``t_bc_loo[j]``
    Mirror-count threshold with p_j replaced by p~_j.
``t_bc_loo2(j, i)``
    As ``t_bc_loo[j]`` but computed with p_i additionally set to 0
    (j != i); zeroing an entry can only enlarge the threshold.
``D*``
    Leave-one-out mirror count ``#{j : p_j >= 1 - t_bc_loo[j]}``.
    Censoring a large p_j relaxes the count criterion from
    (1 + A) / max(R, 1) to A / (R + 1) past its mirror point, so
    ``D* = #{j : m_j <= m*}`` with m* the last grid point where
    ``A / (R + 1) <= alpha_bc``.

Adaptive weights, with ``phi_s(x) = 1{x - 1 > s}``:

    w_bc_i = phi_{n M}(1 + d_i),          d_i = #{j != i : p_j >= 1 - T_bc}
    w_bh_i = 1 - phi_{n t_bh_loo[i]}(c_i),  c_i = max(s_i, b_i)

    s_i = #{j != i : p_j >= 1 - t_bc_loo2(j, i)}
    b_i = 1 + #{j != i : p_j >= 1 - T0_i}, T0_i the mirror-count threshold
          with p_i set to 0 (b_i = 0 when that search is infeasible)

Null budget.  Assume independent p-values and uniform null p-values (the
BH term needs only super-uniformity; the BC term uses the symmetry of a
null p_i about 1/2).  ``phi_s(x)`` is nondecreasing in x, nonincreasing in
s, and ``phi_s(0) = 0``.

* BH term.  ``t_bh_loo[i]`` and ``c_i`` depend on p_{-i} only, and
  ``E[e_bh_i | p_{-i}] <= 1`` (on ``p_i <= T_bh`` the threshold equals the
  one with p_i zeroed), so ``E[w_bh_i e_bh_i] <= E[w_bh_i]``.
* BC term.  Swap a null p_i with 1 - p_i; this leaves M unchanged, since M
  is a function of the censored vector.  When ``p_i <= T_bc``, the swapped
  vector has i in D* and ``D* = 1 + d_i`` there, while the unswapped one
  has i outside D*.  Hence ``E[w_bc_i e_bc_i] = E[n phi_{nM}(D*) 1{i in D*}
  / D*]``, and the sum over nulls is at most ``n E[phi_{nM}(D*)]``.
* ``c_i`` is the supremum of D* over p_i with p_{-i} fixed.  D* is largest
  at p_i = 0, where it equals s_i, unless i itself is counted, which needs
  p_i > 1/2 and then gives ``D* = b_i``.  With ``t_bh_loo[i] <= M`` this
  yields ``phi_{n t_bh_loo[i]}(c_i) >= phi_{nM}(D*)``.

Summing, ``sum_null E[e_i] <= E[n0 (1 - phi_{nM}(D*)) + n phi_{nM}(D*)]
<= n`` with n0 the number of nulls.  Any nondecreasing phi into [0, 1]
with phi(0) = 0 and any ``c_i >= sup D*`` would do; the weights here take
the hard phi, so each weight is 0 or 1, and the smallest valid c_i, which
spends as much of the budget as the argument allows.

The argument of phi, ``x - 1``, is the mirror count of the other
hypotheses: BC's uncorrected estimate A(T) of its false rejections, set
against BH's ``n T``.  The remaining 1 in x is i's own mirror under the
swap, that is, the finite-sample correction of BC.  Comparing x itself
would take the BH weight away whenever ``n t_bh_loo[i] < 1`` (fewer than
1 / alpha_bh step-up rejections) and ``c_i >= 1``, for instance as soon as
BC becomes feasible with p_i zeroed, even when BC itself rejects nothing.
For a hypothesis that both procedures reject, ``1 + d_i <= c_i`` and
``t_bh_loo[i] <= M`` make the two weights mutually exclusive: the blend
carries one base e-value whole and never a diluted mix of the two.

Level split.  The budget argument holds for any base levels.  A base
rejection among k at ``alpha_b = alpha / (1 + alpha)`` has e-value at least
``(1 + alpha) n / (k alpha)``, so the members of that set that keep weight
1 stay rejected at level alpha whenever they number at least
``k / (1 + alpha)``; the rest may lose their weight to the leave-one-out
bounds.

The pairwise counts are never materialised.  Zeroing p_i adds one
rejection below p~_i and, when p_i > 1/2, removes i's own mirror from p~_i
on; everywhere else the counting functions are those of the base mirror
scan.  Each zeroed criterion is therefore a splice of two fixed arrays over
the base grid, and its last passing grid point (T0_i for ``b_i``, the
zeroed relaxed plateau for ``s_i``) is read from i's grid position: from
p~_i on it is the last passing point of the whole array, one index for all
i, and below p~_i a running maximum over a prefix of the grid.

Cost.  The mirror-count grid and its counts come from the base scan of p,
which sorts p once; the sorted p and the grid are level-free stages of a
``procedures._Memo``, which the BH e-values read too.  The public functions
take the memo in place of the p-values, so in a campaign replicate the
other methods on p read the same stages.  The leave-one-out thresholds add
one sort of the censored vector (p~_1, ..., p~_n), by value only, and one
pass of its step-up criterion, which gives ``M`` and the last unshifted
feasible rank.  Everything per hypothesis is computed only where a weight
is read: a hypothesis's rank in the sorted censored vector and its grid
position are two binary searches, and the running maxima cover only the
prefix up to the largest rank or position asked for.  The blend asks for
``w_bh`` only where the BH e-value is nonzero, so past the two sorts its
cost is O(n) vector passes plus O(R log n) for the R BH rejections;
:func:`adaptive_weights` asks for every hypothesis, in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InvariantError
from .procedures import (
    ProcedureSpec,
    _bc_scan,
    _check_alpha,
    _ebh_select,
    _last_at_or_before,
    _last_true,
    _lookup,
    _Memo,
    _MirrorScan,
    _relaxed_plateau,
    _to_evalues,
    as_pvalues,
    solve_threshold,
)

__all__ = [
    "HybridConfig",
    "LooThresholds",
    "bh_evalues",
    "bc_evalues",
    "compute_loo_thresholds",
    "adaptive_weights",
    "fast_adaptive_weights",
    "run_hybrid",
]

# ``fast`` and ``fast_adaptive`` are older names of the adaptive weights
_MODES = {
    "averaged": "averaged",
    "adaptive": "adaptive",
    "fast": "adaptive",
    "fast_adaptive": "adaptive",
}


@dataclass(frozen=True)
class HybridConfig:
    """Levels and weight mode for the blended procedure.

    ``weight_mode`` is ``averaged`` (constant 0.5/0.5) or ``adaptive``
    (leave-one-out weights in {0, 1} that keep the null e-value budget, see
    the module docstring; O(n log n)).  ``fast`` and ``fast_adaptive`` are
    accepted as aliases of ``adaptive``.

    When not given explicitly, the base-procedure levels default to
    ``alpha_ebh / 2`` in ``averaged`` mode, where a weight of 0.5 then
    carries a base rejection exactly, and to ``alpha_ebh / (1 + alpha_ebh)``
    in ``adaptive`` mode, where the members of a base rejection set that
    keep weight 1 stay rejected if they make up at least a fraction
    ``1 / (1 + alpha_ebh)`` of it.  FDR control does not depend on these
    levels.
    """

    alpha_ebh: float
    weight_mode: str = "adaptive"
    alpha_bh: Optional[float] = None
    alpha_bc: Optional[float] = None

    def __post_init__(self):
        _check_alpha(self.alpha_ebh, "alpha_ebh")
        mode = _lookup(_MODES, self.weight_mode, "weight mode")
        object.__setattr__(self, "weight_mode", mode)
        default = (
            self.alpha_ebh / 2.0
            if mode == "averaged"
            else self.alpha_ebh / (1.0 + self.alpha_ebh)
        )
        if self.alpha_bh is None:
            object.__setattr__(self, "alpha_bh", default)
        if self.alpha_bc is None:
            object.__setattr__(self, "alpha_bc", default)
        for name in ("alpha_bh", "alpha_bc"):
            _check_alpha(getattr(self, name), name)


def bh_evalues(pvals, alpha_bh: float) -> np.ndarray:
    """Step-up e-values, ``1{p_i <= T_bh} / T_bh`` (zeros when infeasible)."""
    return _base_evalues(_Memo.of(pvals, check=as_pvalues), "bh", alpha_bh)


def bc_evalues(pvals, alpha_bc: float) -> np.ndarray:
    """Mirror-count e-values, ``n 1{p_i <= T_bc} / (1 + #{p_j >= 1 - T_bc})``."""
    return _base_evalues(_Memo.of(pvals, check=as_pvalues), "bc", alpha_bc)


def _base_evalues(memo: _Memo, kind: str, alpha: float) -> np.ndarray:
    """E-values of the base procedure ``kind`` at ``alpha``, on the memo of
    validated p-values."""
    return _to_evalues(memo.size, solve_threshold(memo, ProcedureSpec(kind=kind, alpha=alpha)))


def _bh_loo(loo: "LooThresholds", censored: np.ndarray) -> np.ndarray:
    """Step-up threshold of the censored vector with one entry zeroed, for
    the entries of values ``censored``.

    Zeroing an entry of rank r in the ascending censored vector s shifts
    the sorted order: the modified order statistics are 0, s_0, ...,
    s_{r - 1}, s_{r + 1}, ..., s_{n - 1}, so feasibility at rank k reads
    ``s_{k - 1}`` (the shifted prefix, with position 0 always feasible)
    below r and ``s_k`` (unshifted) above it.  The last unshifted feasible
    rank is one index for all entries, so only the shifted prefix up to the
    largest rank asked for is built.  An entry's rank is the first position
    of its value in s: equal entries may take any of their ranks, as
    zeroing any one of them leaves the same values.
    """
    s, alpha = loo._sorted, loo.alpha_bh
    n = s.size
    ranks = s.searchsorted(censored, "left")
    last = int(ranks.max(initial=0))
    shifted = np.empty(last + 1, dtype=bool)
    shifted[0] = True  # position 0 holds the zeroed entry
    shifted[1:] = s[:last] <= np.arange(2, last + 2) * alpha / n
    khat = 1 + np.where(loo._ok_last > ranks, loo._ok_last, _last_at_or_before(shifted, ranks))
    return khat * alpha / n


@dataclass(frozen=True, eq=False)
class LooThresholds:
    """Leave-one-out thresholds backing the adaptive weights.

    All mirror comparisons run on the stored mirror scores
    ``mirror = 1 - p`` (exact for p >= 0.5), so counts agree bit-for-bit
    with the threshold scans that produced them.  Besides the base mirror
    scan of p and its relaxed plateau (:func:`procedures._relaxed_plateau`,
    computed here because the weights read it), the weights read one
    ordered view, the censored vector ``min(p, 1 - p)`` sorted once, with
    two results of its step-up scan: the last unshifted feasible rank and
    ``M``.  Per-hypothesis quantities are computed only for the hypotheses
    whose weight is asked for: the step-up threshold ``t_bh_loo[i]`` from
    i's rank in the sorted view (:func:`_bh_loo`), and i's position in the
    mirror-count grid, whose scores are the censored ones below 1/2, by a
    binary search of the grid.  Neither is stored for every hypothesis.
    The censored mirror-count thresholds ``t_bc_loo`` of the module
    docstring are not stored either: the weights read their zeroed
    counterparts off ``_scan`` at the grid position.
    """

    pvals: np.ndarray
    mirror: np.ndarray
    alpha_bh: float
    alpha_bc: float
    # M = max_j t_bh_loo[j]
    t_bh_max: float
    # base mirror scan: T_bc with its mirror count, the candidate grid and
    # counts, and the last index of the count criterion
    _scan: _MirrorScan
    # the relaxed plateau of that scan, its grid index (-1 when none) and
    # candidate (None when none), which every leave-one-out lookup reads
    _k_relaxed: int
    _mstar: Optional[float]
    # the censored vector min(p, 1 - p) in ascending order, and the last
    # rank k with s_k <= (k + 1) alpha_bh / n (-1 when none)
    _sorted: np.ndarray
    _ok_last: int


def compute_loo_thresholds(pvals, alpha_bh: float, alpha_bc: float) -> LooThresholds:
    """All leave-one-out quantities needed by the adaptive weights."""
    memo = _Memo.of(pvals, check=as_pvalues)
    _check_alpha(alpha_bh, "alpha_bh")
    _check_alpha(alpha_bc, "alpha_bc")
    p = memo.data
    n = p.size
    # the mirror scan first, so that the transient arrays of a first build
    # of its grid do not add to the n-length arrays below
    scan = _bc_scan(memo, alpha_bc)
    k_relaxed, mstar, _ = _relaxed_plateau(scan.grid, alpha_bc)
    mirror = 1.0 - p
    s = np.sort(np.minimum(p, mirror))
    thresh = np.arange(1, n + 1) * alpha_bh / n
    ok_last = _last_true(s <= thresh)
    # t_bh_loo[j] is largest for the entry of rank 0, which keeps every
    # unshifted rank, or of rank n - 1, which keeps every shifted one
    shifted_last = 1 + _last_true(s[:-1] <= thresh[1:])
    return LooThresholds(
        pvals=p,
        mirror=mirror,
        alpha_bh=alpha_bh,
        alpha_bc=alpha_bc,
        t_bh_max=(1 + max(ok_last, shifted_last)) * alpha_bh / n,
        _scan=scan,
        _k_relaxed=k_relaxed,
        _mstar=mstar,
        _sorted=s,
        _ok_last=ok_last,
    )


def _phi(x, scale):
    """BC share of the budget, ``1{x - 1 > scale}``.

    Nondecreasing in x, nonincreasing in scale and 0 at x = 0: the
    properties the null-budget argument needs.
    """
    return (np.asarray(x, dtype=float) - 1.0 > scale).astype(float)


def _bc_weight(loo: LooThresholds) -> np.ndarray:
    """w_bc_i = phi_{n M}(1 + d_i), for all i."""
    n = loo.pvals.size
    scan = loo._scan
    # 1 + d_i: the base mirror count m(T_bc) less i's own mirror (1 when infeasible)
    x = scan.m_at_T - (loo.mirror <= scan.threshold) if scan.feasible else np.ones(n)
    return _phi(x, n * loo.t_bh_max)


def _bh_weight(loo: LooThresholds, at: np.ndarray) -> np.ndarray:
    """w_bh_i = 1 - phi_{n t_bh_loo[i]}(c_i) with c_i = max(s_i, b_i), for i in ``at``.

    Zeroing p_i adds one rejection below p~_i and, when p_i > 1/2, removes
    i's mirror from p~_i on; elsewhere the counts are those of the base
    grid.  Each zeroed criterion is therefore a splice of two fixed arrays
    over that grid, and its last passing index k_i is one lookup from i's
    grid position:

    * T0_i (for b_i): (1 + A) / (R + 1) below p~_i; from p~_i on, the base
      criterion when p_i < 1/2 and the relaxed A / (R + 1) when p_i > 1/2.
    * the zeroed relaxed plateau (for s_i): A / (R + 2) below p~_i; from
      p~_i on, A / (R + 1) when p_i < 1/2 and (A - 1) / (R + 2) when
      p_i > 1/2.

    From p~_i on, the last passing index is that of the whole array, one
    index for all i; below p~_i it is a running maximum read at the grid
    position, so only the prefix up to the largest position in ``at`` is
    built.  Either count is ``n_mir[k_i]`` less i's own mirror when it lies
    at or below ``cands[k_i]``.
    """
    scan = loo._scan
    cands, n_rej, n_mir = scan.grid.cands, scan.grid.n_rej, scan.grid.n_mir
    a = loo.alpha_bc
    top = loo._k_relaxed
    if loo._mstar is not None:
        # Zeroing p_i must not shrink the relaxed plateau.  When all three
        # masks of the zeroed plateau hold at the base plateau's index k*,
        # k_i >= k* for every i, wherever p~_i falls.
        if not (
            top >= 0
            and cands[top] == loo._mstar
            and n_mir[top] / (n_rej[top] + 2.0) <= a
            and n_mir[top] / (n_rej[top] + 1.0) <= a
            and (n_mir[top] - 1.0) / (n_rej[top] + 2.0) <= a
        ):
            raise InvariantError("zeroing must not shrink the relaxed plateau")
    if cands.size == 0:
        return np.ones(at.size)
    p, mirror = loo.pvals[at], loo.mirror[at]
    big = p > 0.5
    censored = np.minimum(p, mirror)
    pos = cands.searchsorted(censored, "left")
    # the below masks are read at pos - 1 only
    stop = int(pos.max(initial=0))
    r, m = n_rej[:stop], n_mir[:stop]
    k_big = _last_true((n_mir - 1.0) / (n_rej + 2.0) <= a) if big.any() else -1

    def zeroed(below, last_small, last_big):
        last = np.where(big, last_big, last_small)
        return np.where(last >= pos, last, _last_at_or_before(below, pos - 1))

    def count(k):
        return np.where(k >= 0, n_mir[k] - (mirror <= cands[k]), 0)

    k0 = zeroed((1.0 + m) / (r + 1.0) <= a, scan.k_feas, top)
    b = np.where(k0 >= 0, 1.0 + count(k0), 0.0)
    k = zeroed(m / (r + 2.0) <= a, top, k_big)
    c = np.maximum(count(k), b)
    return 1.0 - _phi(c, loo.pvals.size * _bh_loo(loo, censored))


def adaptive_weights(pvals, loo: LooThresholds):
    """Data-dependent weight pair (w_bh, w_bc), each in [0, 1]."""
    p = as_pvalues(pvals)
    if p.size != loo.pvals.size:
        raise ConfigurationError("loo thresholds were computed for a different input")
    return _bh_weight(loo, np.arange(p.size)), _bc_weight(loo)


# older name of the adaptive weights
fast_adaptive_weights = adaptive_weights


def _hybrid_evalues(pvals, config: HybridConfig):
    """Blended e-values plus the weight pair actually used."""
    memo = _Memo.of(pvals, check=as_pvalues)
    n = memo.size
    e_bh = _base_evalues(memo, "bh", config.alpha_bh)
    if config.weight_mode == "averaged":
        e_bc = _base_evalues(memo, "bc", config.alpha_bc)
        w_bh = np.full(n, 0.5)
        w_bc = np.full(n, 0.5)
    else:
        loo = compute_loo_thresholds(memo, config.alpha_bh, config.alpha_bc)
        # bc_evalues from the mirror scan the leave-one-out thresholds hold
        scan = loo._scan
        e_bc = np.zeros(n)
        if scan.feasible:
            e_bc[scan.rejected_mask] = n / scan.m_at_T
        # a weight multiplying a zero e-value never matters; report it as 0.
        # The BH rejections go in ascending p order, so that the binary
        # searches of _bh_weight run over ascending keys; w_bh scatters by index.
        at = np.flatnonzero(e_bh > 0)
        at = at[memo.data[at].argsort(kind="stable")]
        w_bh = np.zeros(n)
        w_bh[at] = _bh_weight(loo, at)
        w_bc = _bc_weight(loo)
    return w_bh * e_bh + w_bc * e_bc, w_bh, w_bc


def run_hybrid(pvals, config: HybridConfig) -> np.ndarray:
    """Blend BH and BC e-values per ``config`` and select at ``alpha_ebh``.

    Returns the sorted 0-based indices of rejected hypotheses.
    """
    return _ebh_select(_hybrid_evalues(pvals, config)[0], config.alpha_ebh)
