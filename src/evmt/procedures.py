"""Threshold-style FDR procedures and their e-value counterparts.

The procedures share one template: pick the largest threshold ``t`` for which
an over-estimate of the number of false rejections, divided by the number of
rejections at ``t``, stays below the target level.  Four instances are
provided:

``bh``
    Step-up procedure with ``m(t) = n t`` and rejection rule ``p_i <= t``.
``storey``
    Same rejection rule with ``m(t) = n pi0 t``, where ``pi0`` is estimated
    from the p-values above a tuning point ``lambda``.
``bc``
    Symmetry-based procedure counting mirrored large p-values,
    ``m(t) = 1 + #{p_i >= 1 - t}``, with threshold domain (0, 0.5).
``fbc``
    Generalisation of ``bc`` with hypothesis-specific curves ``phi_i``, one
    :class:`RejectionCurves` (nondecreasing by its checked ranges); rejects
    when ``phi_i(p_i) <= t`` and counts mirrors via ``phi_i(1 - p_i) <= t``.

Every procedure can be converted into a vector of e-values such that the
e-value step-up selector (:func:`ebh_select`) reproduces its rejection set
exactly.

All thresholds are evaluated on the finite grid where the counting functions
jump, so results match the continuum supremum; comparisons are exact on the
stored floating-point values (no epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError, InvariantError

__all__ = [
    "RejectionCurves",
    "ProcedureSpec",
    "ThresholdResult",
    "as_pvalues",
    "as_evalues",
    "solve_threshold",
    "storey_pi0",
    "procedure_to_evalues",
    "ebh_select",
    "fdp_power",
]

_KINDS = ("bh", "storey", "bc", "fbc")

P_FLOOR = 1e-15  # rejection curves and the mixture fit read p as at least this


def _as_vector(values, what: str) -> np.ndarray:
    """Validate and return ``values`` as a non-empty, finite 1-d float64
    array; ``what`` names the data in messages."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InputError(f"{what} must form a non-empty 1-d array")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{what} must be finite")
    return x


def as_pvalues(values) -> np.ndarray:
    """Validate and return a 1-d float64 array of p-values in [0, 1]."""
    p = _as_vector(values, "p-values")
    if p.min() < 0.0 or p.max() > 1.0:
        raise InputError("p-values must lie in [0, 1]")
    return p


def as_evalues(values) -> np.ndarray:
    """Validate and return a 1-d float64 array of nonnegative e-values."""
    e = _as_vector(values, "e-values")
    if e.min() < 0.0:
        raise InputError("e-values must be nonnegative")
    return e


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    """The one check of a level: ``alpha`` must lie in (0, 1), which NaN
    and None do not; ``name`` names it in the message."""
    if alpha is None or not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"{name} must lie in (0, 1), got {alpha}")
    return float(alpha)


def _check_storey_lambda(storey_lambda: float) -> None:
    if not (0.0 <= storey_lambda < 1.0):
        raise ConfigurationError(f"storey_lambda must lie in [0, 1), got {storey_lambda}")


def _lookup(table: dict, key: str, what: str) -> str:
    """The canonical name of ``key``, a string of any case, in a procedure's
    table of spellings; ``what`` names the setting in the message."""
    name = table.get(key.lower()) if isinstance(key, str) else None
    if name is None:
        raise ConfigurationError(f"unknown {what} {key!r}")
    return name


@dataclass(frozen=True, eq=False)
class RejectionCurves:
    """Per-hypothesis rejection curves of fbc, the posterior null probability
    ``phi_i(p) = pi_i / (pi_i + (1 - pi_i) (1 - kappa_i) p^(-kappa_i))`` at
    p floored to ``P_FLOOR``.  Construction refuses (:class:`ConfigurationError`)
    any pi and kappa but 1-d arrays of real numbers (bool, integer or float;
    not complex, strings or objects) of one length with every pi_i in
    (0, 1] and every kappa_i in [0, 1], which NaN and +-inf are not.  Those
    ranges make each curve nondecreasing, so the check is exact: (1 - pi_i)
    (1 - kappa_i) >= 0, p^(-kappa_i) does not increase, and pi_i > 0 keeps
    the denominator positive.  Both arrays are kept as read-only float64
    views, also in a selection ``curves[idx]``, which is not checked again.
    Curves are equal only to themselves, so they can key a memo stage.
    """

    pi: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        pi, kappa = np.asarray(self.pi), np.asarray(self.kappa)
        if pi.dtype.kind not in "biuf" or kappa.dtype.kind not in "biuf":
            raise ConfigurationError(f"curves need real numbers, got pi of {pi.dtype} and kappa of {kappa.dtype}")
        pi, kappa = pi.astype(np.float64, copy=False), kappa.astype(np.float64, copy=False)
        if pi.ndim != 1 or pi.shape != kappa.shape:
            raise ConfigurationError(f"curves need 1-d pi and kappa of one length, got {pi.shape}, {kappa.shape}")
        if not (np.all((pi > 0.0) & (pi <= 1.0)) and np.all((kappa >= 0.0) & (kappa <= 1.0))):
            raise ConfigurationError("curves need every pi in (0, 1] and every kappa in [0, 1]")
        self._store(pi, kappa)

    def _store(self, pi, kappa):
        for name, x in (("pi", pi.view()), ("kappa", kappa.view())):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    def at(self, p):
        """Evaluate phi_i at p (scalar, or elementwise for a length-n array)."""
        p = np.maximum(np.asarray(p, dtype=np.float64), P_FLOOR)
        alt = (1.0 - self.pi) * (1.0 - self.kappa) * np.exp(-self.kappa * np.log(p))
        return self.pi / (self.pi + alt)

    def __len__(self):
        return self.pi.size

    def __getitem__(self, idx):
        """The curves of the hypotheses ``idx`` selects.  They are in range,
        as these are, so only their shape is checked."""
        pi, kappa = self.pi[idx], self.kappa[idx]
        if np.ndim(pi) != 1:
            raise ConfigurationError(f"a selection of curves must be 1-d, got shape {np.shape(pi)}")
        part = object.__new__(RejectionCurves)
        part._store(pi, kappa)
        return part


def _check_curves(curves, n: Optional[int] = None) -> None:
    """The one check of fbc curves: :class:`RejectionCurves` (else a
    ConfigurationError) covering ``n`` hypotheses, if given (else an InputError)."""
    if not isinstance(curves, RejectionCurves):
        raise ConfigurationError(f"rejection_functions must be RejectionCurves, got {type(curves).__name__}")
    if n is not None and len(curves) != n:
        raise InputError(f"curves cover {len(curves)} hypotheses, got {n} p-values")


@dataclass(frozen=True)
class ProcedureSpec:
    """Configuration of one threshold procedure.

    Parameters
    ----------
    kind : {"bh", "storey", "bc", "fbc"}
        Which procedure to run.
    alpha : float
        Target FDR level in (0, 1).
    storey_lambda : float, optional
        Tuning point in [0, 1) for the null-proportion estimate
        (``storey`` only, default 0.5).
    rejection_functions : RejectionCurves, optional
        Per-hypothesis rejection curves (``fbc`` only, where they are
        required).  Nothing else is accepted: their construction checks
        pi in (0, 1] and kappa in [0, 1], which makes every curve
        nondecreasing.  The threshold domain ends just below
        ``min_i phi_i(0.5)``.  The FDR guarantee needs curves that do not
        depend on whether p_i or 1 - p_i was observed: the mirror count
        rests on swapping the two for a null p_i, so curves fitted on p
        itself void it (fit them on ``min(p, 1 - p)``, or on other data).
    """

    kind: str
    alpha: float
    storey_lambda: float = 0.5
    rejection_functions: Optional[RejectionCurves] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown procedure kind {self.kind!r}")
        _check_alpha(self.alpha)
        if self.kind == "storey":
            _check_storey_lambda(self.storey_lambda)
        if self.kind == "fbc" or self.rejection_functions is not None:
            _check_curves(self.rejection_functions)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search.

    Attributes
    ----------
    threshold : float or None
        Selected threshold; ``None`` when no grid point is feasible.
    m_at_T : float
        Value of the false-rejection over-estimate at the threshold
        (0.0 when infeasible).
    rejected : ndarray of int
        Sorted 0-based indices of rejected hypotheses (empty when
        infeasible).
    feasible : bool
        Whether any threshold satisfied the level constraint.
    """

    threshold: Optional[float]
    m_at_T: float
    rejected: np.ndarray
    feasible: bool


class _Memo:
    """Stages of one validated data set, each built once, on first use.

    ``memo(stage, *key)`` returns ``stage(memo, *key)`` and keeps it under
    ``(stage, *key)``.  Most stages are level-free, a function of the data
    alone: the sorted data, a mirror scan's candidate grid with its counts
    (of p-values for BC, of signed statistics for knockoffs).  A procedure
    reads its level criterion off them, so methods that run on the same
    data at different levels share one build.  The rest are small results
    keyed by stage and level (per-group thresholds and counts, per-fold ones
    also by curves, rejection index sets); no level-dependent n-array is
    kept.

    ``data`` is the validated vector (p-values or signed statistics) and
    ``part`` its partition into groups or folds, if any.  The public
    function takes the memo: in place of its documented array it accepts a
    memo of data that has already been validated, and uses it as is; an
    array it validates and wraps in a fresh memo, both through :meth:`of`.
    So each method has one code path, and a campaign replicate keeps its
    memos until the replicate ends (see :mod:`evmt.simulate`).
    """

    __slots__ = ("data", "part", "_built")

    def __init__(self, data, part=None):
        self.data = data
        self.part = part
        self._built = {}

    @classmethod
    def of(cls, x, check, part=None) -> "_Memo":
        """The memo that a public function works on.

        A memo ``x`` is returned as is, unless ``part`` is given and the memo
        was built for another partition.  An array ``x`` is validated by
        ``check`` (:func:`as_pvalues`, say) and wrapped in a fresh memo with
        ``part``, whose size it must match.
        """
        if isinstance(x, cls):
            if part is not None and x.part is not part:
                raise InputError("the p-value memo was built for another partition")
            return x
        data = check(x)
        if part is not None and part.n != data.size:
            raise InputError(f"partition covers {part.n} hypotheses, got {data.size} p-values")
        return cls(data, part)

    @property
    def size(self) -> int:
        return self.data.size

    def __call__(self, stage, *key):
        k = (stage, *key)
        if k not in self._built:
            self._built[k] = stage(self, *key)
        return self._built[k]


def _sorted(memo: _Memo) -> np.ndarray:
    """Level-free stage: the data in ascending order."""
    return np.sort(memo.data)


@dataclass(frozen=True)
class _MirrorGrid:
    """Level-free stage of a mirror-count scan: the candidate grid with its
    counting functions ``n_rej[k] = #{u <= cands[k]}`` and ``n_mir[k] =
    #{v <= cands[k]}``."""

    cands: np.ndarray
    n_rej: np.ndarray
    n_mir: np.ndarray


@dataclass(frozen=True)
class _MirrorScan:
    """Internal result of one mirror-count threshold scan.

    Keeps the level-free ``grid`` and where the count criterion ``(1 + A)
    / max(R, 1) <= alpha`` last holds on it at the scan's level: the
    threshold, its grid index ``k_feas`` (-1 when none) and the rejections.
    The relaxed plateau over the same grid is :func:`_relaxed_plateau`,
    which only its readers compute.
    """

    threshold: Optional[float]
    m_at_T: float
    rejected_mask: np.ndarray
    feasible: bool
    grid: _MirrorGrid
    k_feas: int


def _last_at_or_before(mask: np.ndarray, pos) -> np.ndarray:
    """Last index j <= pos with mask[j], elementwise over pos (-1 where none).

    ``pos`` may hold -1, which always yields -1.
    """
    run = np.maximum.accumulate(np.where(mask, np.arange(mask.size), -1))
    return np.concatenate(([-1], run))[np.asarray(pos) + 1]


def _last_true(mask: np.ndarray) -> int:
    """Last index j with mask[j] (-1 when none)."""
    hits = np.flatnonzero(mask)
    return int(hits[-1]) if hits.size else -1


def _mirror_scan(u, v, alpha, t_max=None, inclusive=False) -> _MirrorScan:
    """Threshold scan for procedures of the bc/fbc family.

    ``u`` holds rejection scores (reject when ``u_i <= t``) and ``v`` mirror
    scores (count when ``v_i <= t``); the criterion is
    ``(1 + #{v <= t}) / max(1, #{u <= t}) <= alpha`` over the candidate grid
    built from both score arrays, capped at ``t_max``.

    Each score array is sorted once; the two ascending runs are capped and
    merged into one ordered view, and the grid, ``n_rej`` and ``n_mir`` are
    running totals over it (:func:`_sorted_grid`).  Nothing is searched per
    candidate.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return _run_scan(u, _sorted_grid(np.sort(u), np.sort(v), t_max, inclusive), alpha)


def _bc_grid(memo: _Memo) -> _MirrorGrid:
    """Level-free stage of the BC scan: the mirror grid of raw p-values on
    the domain (0, 0.5).

    One sort serves both score runs: ``x -> 1 - x`` is decreasing and
    rounding is monotone, so the mirror scores of the ascending p-values,
    read backwards, are the ascending mirror scores bit for bit.
    """
    s = memo(_sorted)
    return _sorted_grid(s, (1.0 - s)[::-1], 0.5, False)


def _bc_scan(p, alpha: float) -> _MirrorScan:
    """BC scan at level ``alpha``, read off the memo's level-free grid.

    ``p`` is a :class:`_Memo` of the p-values, or the p-values themselves.
    """
    memo = _Memo.of(p, check=as_pvalues)
    return _run_scan(memo.data, memo(_bc_grid), alpha)


def _fbc_scan(p: np.ndarray, curves: RejectionCurves, alpha: float) -> _MirrorScan:
    """Mirror scan of the fbc procedure: rejection scores ``phi_i(p_i)``,
    mirror scores ``phi_i(1 - p_i)``, and the domain capped just below
    ``min_i phi_i(0.5)``."""
    t_up = (1.0 - 1e-9) * float(curves.at(0.5).min())
    return _mirror_scan(curves.at(p), curves.at(1.0 - p), alpha, t_max=t_up, inclusive=True)


def _sorted_grid(su, sv, t_max, inclusive) -> _MirrorGrid:
    """Mirror grid from the ascending rejection scores ``su`` and mirror
    scores ``sv``: both are capped at ``t_max`` and merged into one run.

    The candidate grid is the run's distinct values, and the counts at a
    candidate are the running totals at its last copy in the run.  A zero
    candidate is stored as +0.0, whichever sign its copies carry.
    """
    if t_max is not None:
        side = "right" if inclusive else "left"
        su = su[: su.searchsorted(t_max, side=side)]
        sv = sv[: sv.searchsorted(t_max, side=side)]
    run = np.concatenate((su, sv))
    # a stable argsort finds the two ascending runs and merges them (timsort)
    order = run.argsort(kind="stable")
    run = run[order]
    step = run[1:] != run[:-1]
    last = np.concatenate((step, (run.size > 0,))).nonzero()[0]
    cands = run[last] + 0.0  # -0.0 + 0.0 is +0.0
    n_rej = (order < su.size).cumsum()[last]
    return _MirrorGrid(cands, n_rej, last + 1 - n_rej)


def _run_scan(u, grid: _MirrorGrid, alpha) -> _MirrorScan:
    """Level criterion of a mirror scan: the count criterion over ``grid``
    at ``alpha``, which gives the threshold.  ``u`` holds the rejection
    scores of every hypothesis."""
    cands, n_rej, n_mir = grid.cands, grid.n_rej, grid.n_mir
    k_feas = _last_true((1.0 + n_mir) / np.maximum(n_rej, 1) <= alpha)
    if k_feas >= 0:
        threshold, m_at, feasible = float(cands[k_feas]), 1.0 + float(n_mir[k_feas]), True
        rejected_mask = u <= threshold
    else:
        threshold, m_at, feasible = None, 0.0, False
        rejected_mask = np.zeros(u.size, dtype=bool)
    return _MirrorScan(threshold, m_at, rejected_mask, feasible, grid, k_feas)


def _relaxed_plateau(grid: _MirrorGrid, alpha):
    """The relaxed plateau of a mirror scan at ``alpha``: the last grid index
    ``k_relaxed`` where the relaxed criterion ``A / (R + 1) <= alpha``
    holds, which is the criterion after one mirror move, its candidate
    ``mstar``, the common leave-one-out threshold of every score that clears
    it, and ``loo_count = #{v <= mstar}``, the number of hypotheses whose
    mirror score their own leave-one-out threshold reaches.  Returns
    ``(k_relaxed, mstar, loo_count)``, which is ``(-1, None, 0)`` when the
    criterion holds nowhere."""
    k = _last_true(grid.n_mir / (grid.n_rej + 1.0) <= alpha)
    if k < 0:
        return -1, None, 0
    return k, float(grid.cands[k]), int(grid.n_mir[k])


def _stepup_scan(memo: _Memo, alpha: float, scale: float) -> ThresholdResult:
    """Step-up scan for m(t) = scale * t with rejection rule p_i <= t,
    read off the memo's sorted p-values.

    The reported threshold is the supremum of the feasible plateau,
    ``k_hat * alpha / scale``, so that ``m(T) = k_hat * alpha`` exactly and
    the e-value conversion reproduces the rejection set.
    """
    s = memo(_sorted)
    ks = np.arange(1, s.size + 1)
    ok = s <= ks * alpha / scale
    if not ok.any():
        return ThresholdResult(None, 0.0, np.empty(0, dtype=np.intp), False)
    khat = int(np.nonzero(ok)[0][-1]) + 1
    threshold = khat * alpha / scale
    rejected = np.nonzero(memo.data <= threshold)[0]
    return ThresholdResult(float(threshold), float(khat * alpha), rejected, True)


def storey_pi0(pvals, storey_lambda: float) -> float:
    """Estimate of the null proportion, ``(1 + n - #{p <= lambda}) / ((1 - lambda) n)``."""
    memo = _Memo.of(pvals, check=as_pvalues)
    _check_storey_lambda(storey_lambda)
    n = memo.size
    r_lam = int(np.count_nonzero(memo.data <= storey_lambda))
    return (1.0 + n - r_lam) / ((1.0 - storey_lambda) * n)


def solve_threshold(pvals, spec: ProcedureSpec) -> ThresholdResult:
    """Run one threshold procedure on a p-value set.

    Parameters
    ----------
    pvals : array_like or _Memo
        P-values in [0, 1], or a :class:`_Memo` of validated p-values whose
        level-free stages the scan reads and keeps.
    spec : ProcedureSpec
        Procedure kind, level and kind-specific settings.

    Returns
    -------
    ThresholdResult
        Feasibility flag, threshold, false-rejection estimate at the
        threshold and the rejected index set.
    """
    memo = _Memo.of(pvals, check=as_pvalues)
    p = memo.data
    n = p.size
    if spec.kind == "bh":
        return _stepup_scan(memo, spec.alpha, float(n))
    if spec.kind == "storey":
        return _stepup_scan(memo, spec.alpha, n * storey_pi0(memo, spec.storey_lambda))
    if spec.kind == "bc":
        scan = _bc_scan(memo, spec.alpha)
    else:  # fbc
        _check_curves(spec.rejection_functions, n)
        scan = _fbc_scan(p, spec.rejection_functions, spec.alpha)
    rejected = np.nonzero(scan.rejected_mask)[0]
    return ThresholdResult(scan.threshold, scan.m_at_T, rejected, scan.feasible)


def procedure_to_evalues(pvals, spec: ProcedureSpec, result: ThresholdResult) -> np.ndarray:
    """Convert a procedure's outcome into e-values, ``e_i = n R_i(T) / m(T)``.

    Rejected hypotheses receive ``n / m(T)``; everything else (and every
    hypothesis when the threshold search was infeasible) receives 0.
    """
    n = as_pvalues(pvals).size
    rejected = np.asarray(result.rejected)
    outside = rejected[(rejected < 0) | (rejected >= n)]
    if outside.size:
        raise InputError(f"the result rejects index {outside[0]}, but there are {n} p-values")
    return _to_evalues(n, result)


def _to_evalues(n: int, result: ThresholdResult) -> np.ndarray:
    """:func:`procedure_to_evalues` for ``n`` hypotheses."""
    e = np.zeros(n)
    if not result.feasible:
        return e
    if not result.m_at_T > 0.0:
        raise InvariantError("feasible threshold with zero false-rejection estimate")
    e[result.rejected] = n / result.m_at_T
    return e


def ebh_select(evalues, alpha: float) -> np.ndarray:
    """E-value step-up selector.

    Sorts e-values decreasingly, finds the largest ``k`` with
    ``e_(k) >= n / (k alpha)`` and rejects the hypotheses attaining the ``k``
    largest values (equal values at the boundary are absorbed into ``k``).

    Returns
    -------
    ndarray of int
        Sorted 0-based indices of rejected hypotheses.
    """
    return _ebh_select(as_evalues(evalues), alpha)


def _ebh_select(e: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`ebh_select` on e-values built by the package, which need no
    validation."""
    _check_alpha(alpha)
    n = e.size
    # a zero e-value never meets n / (k alpha) > 0, so only the positive ones are sorted
    es = np.sort(e[e > 0])[::-1]
    ks = np.arange(1, es.size + 1)
    ok = es >= n / (ks * alpha)
    if not ok.any():
        return np.empty(0, dtype=np.intp)
    khat = int(np.nonzero(ok)[0][-1]) + 1
    cutoff = es[khat - 1]
    rejected = np.nonzero(e >= cutoff)[0]
    if rejected.size != khat:
        raise InvariantError("ties at the cutoff must already be inside k_hat")
    return rejected


def fdp_power(rejected, truth) -> tuple[float, float]:
    """False discovery proportion and power of a rejection set.

    Parameters
    ----------
    rejected : array_like of int
        0-based indices of rejected hypotheses.
    truth : array_like of {0, 1}
        Ground-truth indicators, 1 marking a non-null hypothesis.

    Returns
    -------
    (fdp, power) : pair of float
        ``#false rejections / max(1, #rejections)`` and
        ``#true rejections / max(1, #non-nulls)``.
    """
    prepared = _Truth(truth)
    rej = np.asarray(rejected)
    if rej.ndim != 1 or (rej.size and rej.dtype.kind not in "iu"):
        raise InputError("rejected indices must form a 1-d array of integers")
    rej = rej.astype(np.intp, copy=False)
    if rej.size and (rej.min() < 0 or rej.max() >= prepared.mask.size):
        raise InputError("rejected indices out of range for truth vector")
    return prepared.score(rej)[:2]


class _Truth:
    """Ground truth prepared once for scoring any number of rejection sets:
    the non-null mask and count and, with a partition, each group's
    non-null count.  :meth:`score` is the one FDP/power kernel, for
    :func:`fdp_power`, the grouped report, the CLI metrics and each
    campaign replicate."""

    __slots__ = ("mask", "n_alt", "labels", "n_groups", "group_alt")

    def __init__(self, truth, part=None):
        theta = np.asarray(truth)
        if theta.ndim != 1:
            raise InputError("truth must be a 1-d indicator vector")
        self.mask = theta != 0
        self.n_alt = int(np.count_nonzero(self.mask))
        # every value that is not 0 is 1 (NaN and text are neither)
        if np.count_nonzero(theta == 1) != self.n_alt:
            raise InputError("truth values must be 0 or 1")
        self.labels = self.n_groups = self.group_alt = None
        if part is not None:
            if part.n != theta.size:
                raise InputError(f"partition covers {part.n} hypotheses, got {theta.size} truth values")
            self.labels, self.n_groups = part.labels, part.n_groups
            self.group_alt = np.bincount(self.labels[self.mask], minlength=self.n_groups)

    def score(self, rejected: np.ndarray):
        """``(fdp, power, group_fdp, group_power)`` of the 0-based indices
        ``rejected``, each FDP ``#false / max(1, #rejections)`` and each power
        ``#true / max(1, #non-nulls)``; the per-group arrays are None without
        a partition."""
        hits = self.mask[rejected]
        n_rej = hits.size
        n_true = int(np.count_nonzero(hits))
        fdp, power = (n_rej - n_true) / max(1, n_rej), n_true / max(1, self.n_alt)
        if self.labels is None:
            return fdp, power, None, None
        at = self.labels[rejected]
        g_rej = np.bincount(at, minlength=self.n_groups)
        g_true = np.bincount(at[hits], minlength=self.n_groups)
        return fdp, power, (g_rej - g_true) / np.maximum(g_rej, 1), g_true / np.maximum(self.group_alt, 1)
