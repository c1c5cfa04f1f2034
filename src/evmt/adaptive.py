"""Covariate-adaptive testing with cross-fitted rejection curves.

Each hypothesis carries a covariate vector that may shift its prior null
probability and its signal strength.  A two-group mixture with logistic
links,

    density(p | x) = pi(x) + (1 - pi(x)) * (1 - kappa(x)) * p^(-kappa(x)),

is fitted by maximising its likelihood, and the posterior null probability

    phi(p) = pi / (pi + (1 - pi) * (1 - kappa) * p^(-kappa))

serves as a monotone per-hypothesis rejection curve for the flexible
mirror-count procedure.  To keep each curve independent of its own p-value,
hypotheses are split into folds and every fold's curves are fitted on the
complementary folds.  Per-fold thresholds are converted to e-values,
weighted, and passed to the e-value step-up selector.

The folds go through the per-group path of :mod:`evmt.groups`:
:func:`structure_pipeline` calls :func:`cross_fit`, :func:`fbc_group_threshold`,
:func:`structure_weights`, ``group_evalues`` and ``ebh_select`` in turn on
one ``procedures._Memo`` of p and the folds.  The stage
``groups._group_scans``, kept per curves and level, runs
``procedures._fbc_scan`` (domain capped just below min_i phi_i(0.5)) once
per fold and gives the thresholds and the leave-one-out counts together;
``groups._loo_weights`` turns the counts into weights, as for groups.
Without covariates a fitted curve would be strictly increasing and decide
nothing, so nothing is fitted and each fold runs its BC scan.

The fit maximises the log-likelihood by L-BFGS-B over the box
[-36, 36] of every coefficient, from two fixed starts.  ``_minimize`` is
scipy's L-BFGS-B loop with ``minimize``'s defaults, written out over
scipy's compiled ``setulb`` step, which ``_compiled`` loads without the
``scipy.optimize`` package (as it loads ``expit`` and ``logit`` without
``scipy.special``): it gives the same fits, bit for bit, as the public
``scipy.optimize.minimize`` call without that call's per-evaluation
wrappers, so most of a fit's time is its objective.  The objective is
one numpy kernel (``_negloglik``) over (2, n) buffers allocated once per
ascent.  One (2, d+1) @ (d+1, n) product gives both linear predictors u;
the logistic is 1 / (1 + exp(-u)) in place (exactly 0 for u below about
-709.8, where exp(-u) overflows);
1 - pi, 1 - kappa, p^-kappa, (1 - kappa) p^-kappa and the density are
formed once and shared by the value and both gradient rows, and one
(2, n) @ (n, d+1) product gives the gradient.  A density that underflows
to 0 counts as the smallest normal float, so far outside the data's range
the objective stays finite.

Weight modes: ``unit`` (all ones) and ``cheap`` (the cross-fold
leave-one-out counts at the realised data, the default).  The e-BH
guarantee asks each weight's cross-fold count to bound its supremum over
replacements of p_i.  Without covariates ``cheap`` is scenario (i)'s
grouped ``adaptive`` scheme, valid by construction.  With covariates the
other folds' curves are fitted on p_i, and ``cheap`` evaluates the count
at the realised p_i only, so the bound is checked empirically (by the null
e-value budget), not by construction.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError
from .groups import (
    GroupPartition,
    _check_thresholds,
    _group_scans,
    _loo_weights,
    group_evalues,
)
from .procedures import P_FLOOR, RejectionCurves, as_pvalues, ebh_select
from .procedures import _check_alpha, _check_curves, _lookup, _Memo

__all__ = [
    "RejectionCurves",
    "LfdrModel",
    "fit_lfdr_em",
    "cross_fit",
    "fbc_group_threshold",
    "structure_weights",
    "run_structure_adaptive",
]

# fitted pi predictions are winsorized into [EPS1, 1 - EPS2]
EPS1 = 0.1
EPS2 = 1e-5
_BOX = 36.0  # the L-BFGS-B box on every coefficient
# L-BFGS-B as scipy.optimize.minimize runs it by default: stored corrections,
# factr = ftol / eps, the projected-gradient tolerance, line-search steps,
# and one limit on iterations and on evaluations
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(np.float64).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 15000
_DENS_FLOOR = np.finfo(np.float64).tiny  # an underflowed density counts as this
_COMPILED = {}  # scipy's compiled modules by name, as _compiled has loaded them
_COMPILED_LOCK = threading.Lock()

# each accepted spelling of a weight mode, lower case, and its canonical name
_MODES = {"unit": "unit", "cheap": "cheap"}


@dataclass(frozen=True)
class LfdrModel:
    """Fitted mixture parameters with logistic links.

    ``pi`` predictions are winsorized into [EPS1, 1 - EPS2]; ``kappa``
    predictions are left untouched.  ``start`` names the start of
    :func:`fit_lfdr_em` whose fit won, ``"default"`` or ``"edge"``.
    """

    beta_pi: np.ndarray
    beta_kappa: np.ndarray
    loglik: float = math.nan
    converged: bool = True
    n_iter: int = 0
    start: str = "default"

    def pi(self, covars) -> np.ndarray:
        expit = _compiled("special", "_special_ufuncs").expit
        z = _design(covars, d=self.beta_pi.size - 1)
        return np.clip(expit(z @ self.beta_pi), EPS1, 1.0 - EPS2)

    def kappa(self, covars) -> np.ndarray:
        expit = _compiled("special", "_special_ufuncs").expit
        z = _design(covars, d=self.beta_kappa.size - 1)
        return expit(z @ self.beta_kappa)

    def curves(self, covars) -> RejectionCurves:
        return RejectionCurves(self.pi(covars), self.kappa(covars))


def _design(covars, n: Optional[int] = None, d: Optional[int] = None) -> np.ndarray:
    """The checked (n, d + 1) design matrix: an intercept column, then the
    finite covariates (a 1-d array is one column; None is no column, which
    needs ``n``).  ``n`` and ``d``, when given, fix the number of rows and
    of covariate columns."""
    if covars is None and n is None:
        raise InputError("no covariates: the number of rows is needed, so pass an (n, 0) array")
    x = np.empty((n, 0)) if covars is None else np.asarray(covars, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or (n is not None and x.shape[0] != n):
        raise InputError(f"covariates must form an (n, d) array with n={n}")
    if d is not None and x.shape[1] != d:
        raise InputError(f"model expects {d} covariate columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise InputError("covariates must be finite")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _compiled(package: str, name: str):
    """scipy's compiled extension module ``scipy.<package>.<name>``, loaded
    on its own, once per process.

    A fit takes ``setulb`` from ``scipy.optimize._lbfgsb``; the mixture's
    ``expit`` and ``logit`` and the generators' ``ndtr`` come from
    ``scipy.special._special_ufuncs``.  Importing either module by name
    would first import its whole package, which neither a fit nor a
    campaign uses: ``scipy.optimize`` is about 260 more modules than a fit
    loads otherwise, ``scipy.sparse`` and ``scipy.linalg`` among them, and
    ``scipy.special`` about 290 more.  So, unless the package is already
    imported, the file is found in scipy's ``<package>`` directory and
    executed alone.  Its entry in ``sys.modules`` is removed again: a later
    package import would reuse it and never set it as the package's
    attribute.  The package then loads its own module object, whose
    functions are the same objects.  (``scipy.special._ufuncs`` re-exports
    the three ufuncs, but running it imports the package.)
    """
    qualname = f"scipy.{package}.{name}"
    with _COMPILED_LOCK:
        module = _COMPILED.get(qualname)
        if module is None:
            if f"scipy.{package}" in sys.modules:
                module = importlib.import_module(qualname)
            else:
                import scipy

                where = os.path.join(scipy.__path__[0], package)
                spec = importlib.machinery.PathFinder.find_spec(qualname, [where])
                if spec is None:
                    raise ImportError(f"scipy's compiled module {name} is not in {where}")
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(spec.name, None)
            _COMPILED[qualname] = module
    return module


def _minimize(negobj, theta0, box, start=None):
    """L-BFGS-B minimisation of ``negobj`` (value and gradient) from
    ``theta0``, clipped into the box ``[-box, box]`` of every coordinate.
    Returns ``(x, f, nit, success)``.  ``start``, when given, is
    ``negobj(theta0)``; it stands for the first evaluation when ``theta0``
    lies in the box.

    This is the loop of scipy's ``_minimize_lbfgsb`` with the defaults of
    ``scipy.optimize.minimize``, without its wrappers: it drives scipy's
    private compiled step ``setulb`` by reverse communication.  ``negobj``
    runs once at the clipped start and then only when ``setulb`` asks for
    the value and gradient (task 3) at another point than the last one, as
    the cache of scipy's ``ScalarFunction`` does; task 1 is a new iteration
    and task 4 is convergence.  So the fits are bit-identical to
    ``minimize(negobj, theta0, jac=True, method="L-BFGS-B",
    bounds=Bounds(-box, box))``.  ``setulb`` is not public:
    ``tests/test_adaptive.py::test_prop_minimize_matches_scipy_bitwise``
    compares the two, and fails if scipy changes it.

    scipy is imported where it is used, in the body of the function that
    needs it.  A fit loads two compiled modules, ``scipy.optimize._lbfgsb``
    for ``setulb`` and ``scipy.special._special_ufuncs`` for ``expit`` and
    ``logit`` (:func:`_compiled`), and neither package, whose imports would
    take most of a fresh process's time and memory.  On 2 vCPUs, a fresh
    interpreter that imports evmt and fits once at n = 1500
    (``tools/layer_timings.py``, ``cold_start``) takes about 0.18 s and
    peaks at about 35 MB; importing ``scipy.special`` as well made it about
    0.36 s and 55 MB.  The objective that L-BFGS-B evaluates many times is
    :func:`_ascend`'s numpy kernel and imports nothing.  In fresh
    interpreters, ``tests/test_cli.py::test_fit_loads_one_module_of_scipy_optimize``
    checks what a fit and a campaign import, and
    ``test_fit_and_scipy_optimize_agree_in_either_import_order`` that the
    fits, the campaign reports, both packages and the public call are
    unchanged whichever of the fit and the packages comes first.
    """
    setulb = _compiled("optimize", "_lbfgsb").setulb
    n, m = theta0.size, _LBFGSB_M
    lower, upper = np.full(n, -box), np.full(n, box)
    nbd = np.full(n, 2, dtype=np.int32)  # both bounds on every coordinate
    x = np.clip(theta0, lower, upper)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    f, g = 0.0, np.zeros(n)
    seen = x.tolist()
    f_seen, g_seen = start if start is not None and seen == theta0.tolist() else negobj(x)
    nfev, nit = 1, 0
    while True:
        setulb(m, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
               wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:
            at = x.tolist()
            if at != seen:
                seen, (f_seen, g_seen) = at, negobj(x)
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:
            nit += 1
            if nit >= _LBFGSB_MAXITER:
                task[:] = 5, 504
            elif nfev > _LBFGSB_MAXITER:
                task[:] = 5, 502
        else:
            return x, f, nit, bool(task[0] == 4)


def _negloglik(z, ell):
    """The mixture fit's objective: ``negobj(theta)`` gives the negative
    log-likelihood and its gradient at ``theta = (beta_pi, beta_kappa)``.

    ``z`` is the (n, d + 1) design with its intercept column and ``ell`` is
    -log p.  Each call is one pass over (2, n) buffers allocated here, once
    per ascent; see the module docstring.
    """
    n, d1 = z.shape
    zt = np.ascontiguousarray(z.T)  # zt.T is z in column order, which BLAS reads faster here
    lin = np.empty((2, n))  # the linear predictors, then (pi, kappa)
    co = np.empty((2, n))  # (1 - pi, 1 - kappa)
    grow, f1, dens, tmp = np.empty((4, n))  # p^-kappa, (1 - kappa) p^-kappa, the density
    rows = np.empty((2, n))  # the gradient before the product with the design
    pi, kap = lin
    q, omk = co

    def negobj(theta):
        np.matmul(-theta.reshape(2, d1), zt, out=lin)  # -u
        with np.errstate(over="ignore"):  # u below about -709.8: exp(-u) = inf, the logistic is 0
            np.exp(lin, out=lin)
        np.add(lin, 1.0, out=lin)
        np.reciprocal(lin, out=lin)
        np.subtract(1.0, lin, out=co)
        np.exp(np.multiply(kap, ell, out=grow), out=grow)
        np.multiply(omk, grow, out=f1)
        np.add(pi, np.multiply(q, f1, out=dens), out=dens)
        np.maximum(dens, _DENS_FLOOR, out=dens)
        val = -np.log(dens, out=tmp).sum()
        # the rows multiply out in the order of the plain formulas
        # pi (1 - pi) (1 - f1) / dens and
        # (1 - pi) kappa (1 - kappa) p^-kappa ((1 - kappa) ell - 1) / dens
        np.multiply(pi, q, out=rows[0])
        np.multiply(rows[0], np.subtract(1.0, f1, out=tmp), out=rows[0])
        np.multiply(q, kap, out=rows[1])
        np.multiply(rows[1], omk, out=rows[1])
        np.multiply(rows[1], grow, out=rows[1])
        np.subtract(np.multiply(omk, ell, out=tmp), 1.0, out=tmp)
        np.multiply(rows[1], tmp, out=rows[1])
        np.divide(rows, dens, out=rows)
        return float(val), -(rows @ zt.T).ravel()

    return negobj


def _ascend(z, ell, beta_pi, beta_kappa):
    """Bounded L-BFGS-B ascent on the observed-data log-likelihood.

    Returns ``(beta_pi, beta_kappa, loglik, success, nit)``; when the
    optimiser ends below its start, the start is returned instead.
    """
    negobj = _negloglik(z, ell)
    theta0 = np.concatenate([beta_pi, beta_kappa])
    start = negobj(theta0)  # at the start itself, which may lie outside the box
    x, fx, nit, success = _minimize(negobj, theta0, _BOX, start)
    f0 = start[0]
    theta, f = (x, fx) if np.isfinite(fx) and fx <= f0 else (theta0, f0)
    d1 = beta_pi.size
    return theta[:d1], theta[d1:], float(-f), success, nit


def fit_lfdr_em(pvals, covars=None) -> LfdrModel:
    """Fit the two-group mixture by maximising its likelihood directly.

    A bounded L-BFGS-B ascent on the observed-data log-likelihood runs from
    two fixed starts, and the fit with the higher log-likelihood wins:

    * the default start, pi = 0.9 and kappa = 1/2 with no covariate effect;
    * an edge start, pi = 0.99 and kappa = 0.01 with no covariate effect.

    On (nearly) null data the mixture is not identifiable: pi -> 1 and
    kappa -> 0 both describe the uniform density, the likelihood is flat
    along that edge, and an ascent from the default start can stall far
    from it.  The edge start reaches the maximiser there.

    Parameters
    ----------
    pvals, covars : array_like
        P-values in [0, 1] (zeros are clamped to 1e-15) and an optional
        (n, d) covariate matrix.

    Returns
    -------
    LfdrModel
        Best-likelihood parameters; ``converged``, ``n_iter`` and ``start``
        are the winning start's L-BFGS-B success flag, its iteration count
        and its name.  On equal log-likelihoods the default start wins.
    """
    p = np.maximum(as_pvalues(pvals), P_FLOOR)
    ell = -np.log(p)
    if not np.all(np.isfinite(ell)):
        raise InputError("p-values produced a non-finite likelihood")
    z = _design(covars, p.size)
    d = z.shape[1] - 1
    if p.size < 2 * (d + 1):
        raise ConfigurationError(
            f"the mixture fit needs at least {2 * (d + 1)} observations for d={d}, got {p.size}"
        )

    logit = _compiled("special", "_special_ufuncs").logit
    fits = []
    for start, pi0, kappa0 in (("default", 0.9, 0.5), ("edge", 0.99, 0.01)):
        a0, b0 = np.zeros(d + 1), np.zeros(d + 1)
        a0[0], b0[0] = logit(pi0), logit(kappa0)
        fits.append((*_ascend(z, ell, a0, b0), start))
    # max keeps the first of equal fits, the default start's
    beta_pi, beta_kappa, ll, success, nit, start = max(fits, key=lambda fit: fit[2])
    return LfdrModel(
        beta_pi=beta_pi,
        beta_kappa=beta_kappa,
        loglik=ll,
        converged=success,
        n_iter=nit,
        start=start,
    )


def cross_fit(pvals, covars, part: GroupPartition):
    """Fit each fold's rejection curves on the complementary folds.

    Returns the assembled :class:`RejectionCurves` for all n hypotheses and
    the per-fold models, or ``(None, [])`` without a covariate column
    (``covars`` None or an (n, 0) array), where nothing is fitted.
    """
    memo = _Memo.of(pvals, check=as_pvalues, part=part)
    _check_folds(part.n_groups)
    p = memo.data
    x = _design(covars, p.size)[:, 1:]  # the checked covariates
    if x.shape[1] == 0:
        return None, []
    pi, kappa = np.empty((2, p.size))
    models = []
    for g in range(part.n_groups):
        idx = part.indices(g)
        try:
            model = fit_lfdr_em(np.delete(p, idx), np.delete(x, idx, axis=0))
        except ConfigurationError as exc:
            raise ConfigurationError(f"fold {g}: {exc}") from exc
        models.append(model)
        pi[idx] = model.pi(x[idx])
        kappa[idx] = model.kappa(x[idx])
    return RejectionCurves(pi, kappa), models


def _check_folds(n_groups) -> None:
    if not isinstance(n_groups, numbers.Integral) or n_groups < 2:
        raise ConfigurationError(
            f"cross-fitting needs a whole number of at least two folds, got {n_groups!r}"
        )


def _fold_memo(pvals, part: GroupPartition, curves: Optional[RejectionCurves], alpha) -> _Memo:
    """The memo of the p-values and folds, with the curves (if any) checked
    to cover them and ``alpha`` in (0, 1) or None."""
    memo = _Memo.of(pvals, check=as_pvalues, part=part)
    if curves is not None:
        _check_curves(curves, memo.size)
    if alpha is not None:
        _check_alpha(alpha, "the fold level")
    return memo


def fbc_group_threshold(pvals, part: GroupPartition, curves, alpha_fbc: float):
    """Flexible mirror-count threshold of each fold at level ``alpha_fbc``.

    The per-fold domain cap sits just below min_i phi_i(0.5); ``curves``
    None (else :class:`RejectionCurves`) means each fold's BC scan.
    Returns one :class:`ThresholdResult` per fold with global indices.
    """
    return _fold_memo(pvals, part, curves, alpha_fbc)(_group_scans, curves, alpha_fbc)[0]


def structure_weights(
    pvals,
    part: GroupPartition,
    curves: Optional[RejectionCurves],
    thresholds,
    mode: str = "cheap",
    alpha: Optional[float] = None,
) -> np.ndarray:
    """E-value weights for the cross-fitted procedure: all ones (``unit``),
    or (``cheap``) ``w_i = (n / n_g) b_i / (b_i + sum_{h != g} count_h)`` for
    member i of fold g, where ``b_i = 1 + #{j != i in g : phi_j(1 - p_j) <= T_g}``
    (1 when fold g is infeasible) and ``count_h`` is fold h's leave-one-out
    count at level ``alpha``, at the realised p-values.  ``thresholds`` come
    from :func:`fbc_group_threshold` on the same inputs at level ``alpha``;
    ``curves`` is :class:`RejectionCurves`, or None for phi_j(p) = p.
    """
    mode = _lookup(_MODES, mode, "weight mode")
    if mode == "cheap" and alpha is None:
        raise ConfigurationError("cheap weights need the threshold level alpha")
    memo = _fold_memo(pvals, part, curves, alpha)
    _check_thresholds(thresholds, part)
    if mode == "unit":
        return np.ones(memo.size)
    return _loo_weights(memo, curves, thresholds, alpha)


def structure_pipeline(
    pvals,
    covars,
    alpha_ebh: float,
    mode: str = "cheap",
    n_groups: int = 2,
    rng=None,
):
    """Full cross-fitted run; returns a dict with every intermediate piece.
    ``pvals`` may be a ``procedures._Memo`` of validated p-values."""
    p = _Memo.of(pvals, check=as_pvalues).data
    _check_alpha(alpha_ebh, "alpha_ebh")
    mode = _lookup(_MODES, mode, "weight mode")
    _check_folds(n_groups)
    if rng is None:
        rng = np.random.default_rng(0)
    labels = np.empty(p.size, dtype=np.intp)
    labels[rng.permutation(p.size)] = np.arange(p.size) % n_groups
    part = GroupPartition(labels=labels, n_groups=n_groups)
    memo = _Memo(p, part)
    curves, models = cross_fit(memo, covars, part)
    alpha_fbc = alpha_ebh / (1.0 + alpha_ebh)
    thresholds = fbc_group_threshold(memo, part, curves, alpha_fbc)
    weights = structure_weights(memo, part, curves, thresholds, mode, alpha_fbc)
    evalues = group_evalues(memo, part, thresholds, weights)
    rejected = ebh_select(evalues, alpha_ebh)
    return {
        "partition": part,
        "curves": curves,
        "models": models,
        "alpha_fbc": alpha_fbc,
        "thresholds": thresholds,
        "weights": weights,
        "evalues": evalues,
        "rejected": rejected,
    }


def run_structure_adaptive(
    pvals,
    covars,
    alpha_ebh: float,
    mode: str = "cheap",
    n_groups: int = 2,
    rng=None,
) -> np.ndarray:
    """Cross-fitted covariate-adaptive testing; returns rejected indices.

    Hypotheses are split into ``n_groups`` random equal folds (driven by
    ``rng``), each fold's rejection curves are fitted on its complement, the
    per-fold mirror-count thresholds run at ``alpha_ebh / (1 + alpha_ebh)``,
    and the weighted e-values are selected at ``alpha_ebh``.  Without
    covariates nothing is fitted, and each fold runs its BC scan.
    """
    return structure_pipeline(
        pvals, covars, alpha_ebh, mode=mode, n_groups=n_groups, rng=rng
    )["rejected"]
