"""Covariate-adaptive testing with cross-fitted rejection curves.

Each hypothesis carries a covariate vector that may shift its prior null
probability and its signal strength.  A two-group mixture with logistic
links,

    density(p | x) = pi(x) + (1 - pi(x)) * (1 - kappa(x)) * p^(-kappa(x)),

is fitted by EM, and the posterior null probability

    phi(p) = pi / (pi + (1 - pi) * (1 - kappa) * p^(-kappa))

serves as a monotone per-hypothesis rejection curve for the flexible
mirror-count procedure.  To keep each curve independent of its own p-value,
hypotheses are split into folds and every fold's curves are fitted on the
complementary folds.  Per-fold thresholds are converted to e-values,
weighted, and passed to the e-value step-up selector.

Weight modes: ``unit`` (all ones), ``cheap`` (leave-one-out counts at the
realised data, the recommended default) and ``full`` (additionally takes a
supremum over replacements of p_i on a fixed 23-point grid, refitting the
complement curves at every grid point; exact but far more expensive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit, logit

from .errors import ConfigurationError, InputError
from .groups import GroupPartition
from .procedures import ThresholdResult, _mirror_scan, as_pvalues, ebh_select

__all__ = [
    "RejectionCurves",
    "LfdrModel",
    "pseudo_loglik",
    "fit_lfdr_em",
    "cross_fit",
    "fbc_group_threshold",
    "structure_weights",
    "run_structure_adaptive",
]

P_FLOOR = 1e-15
FULL_WEIGHT_GRID = np.linspace(0.0, 1.0, 23)


@dataclass(frozen=True)
class RejectionCurves:
    """Per-hypothesis curves phi_i(p), increasing and continuous on (0, 1]."""

    pi: np.ndarray
    kappa: np.ndarray

    def at(self, p):
        """Evaluate phi_i at p (scalar, or elementwise for a length-n array)."""
        p = np.maximum(np.asarray(p, dtype=np.float64), P_FLOOR)
        alt = (1.0 - self.pi) * (1.0 - self.kappa) * np.exp(-self.kappa * np.log(p))
        return self.pi / (self.pi + alt)

    def __len__(self):
        return self.pi.size

    def __getitem__(self, idx):
        return RejectionCurves(self.pi[idx], self.kappa[idx])


@dataclass(frozen=True)
class LfdrModel:
    """Fitted mixture parameters with logistic links.

    ``pi`` predictions are winsorized into [eps1, 1 - eps2]; ``kappa``
    predictions are left untouched.
    """

    beta_pi: np.ndarray
    beta_kappa: np.ndarray
    eps1: float = 0.1
    eps2: float = 1e-5
    loglik: float = math.nan
    converged: bool = True
    n_iter: int = 0

    def pi(self, covars) -> np.ndarray:
        z = _design(covars, self.beta_pi.size - 1)
        return np.clip(expit(z @ self.beta_pi), self.eps1, 1.0 - self.eps2)

    def kappa(self, covars) -> np.ndarray:
        z = _design(covars, self.beta_kappa.size - 1)
        return expit(z @ self.beta_kappa)

    def curves(self, covars) -> RejectionCurves:
        return RejectionCurves(self.pi(covars), self.kappa(covars))


def _as_covars(covars, n: int) -> np.ndarray:
    if covars is None:
        return np.empty((n, 0))
    x = np.asarray(covars, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise InputError(f"covariates must form an (n, d) array with n={n}")
    if not np.all(np.isfinite(x)):
        raise InputError("covariates must be finite")
    return x


def _design(covars, d: int) -> np.ndarray:
    x = np.asarray(covars, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != d:
        raise InputError(f"model expects {d} covariate columns, got {x.shape[1]}")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def pseudo_loglik(beta_pi, beta_kappa, pvals, covars=None) -> float:
    """Mixture log-likelihood sum_i log(pi_i + (1 - pi_i)(1 - kappa_i) p_i^(-kappa_i))."""
    p = np.maximum(as_pvalues(pvals), P_FLOOR)
    x = _as_covars(covars, p.size)
    z = np.hstack([np.ones((p.size, 1)), x])
    pi = expit(z @ np.asarray(beta_pi, dtype=np.float64))
    kap = expit(z @ np.asarray(beta_kappa, dtype=np.float64))
    alt = (1.0 - kap) * np.exp(kap * (-np.log(p)))
    return float(np.sum(np.log(pi + (1.0 - pi) * alt)))


def _minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    The import takes about a second, which commands that fit no model
    should not pay.
    """
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _mstep_pi(z, gamma, beta0):
    if z.shape[1] == 1:
        mean = float(np.clip(gamma.mean(), 1e-12, 1.0 - 1e-12))
        return np.array([logit(mean)])

    def negobj(beta):
        eta = z @ beta
        # -sum gamma*log(pi) + (1-gamma)*log(1-pi), stable via logaddexp
        val = np.sum(gamma * np.logaddexp(0.0, -eta) + (1.0 - gamma) * np.logaddexp(0.0, eta))
        grad = z.T @ (expit(eta) - gamma)
        return val, grad

    # partial M-step: any improvement keeps the EM ascent property
    res = _minimize(negobj, beta0, jac=True, method="L-BFGS-B", options={"maxiter": 25})
    return res.x if res.fun <= negobj(beta0)[0] else beta0


def _mstep_kappa(z, weights, ell, beta0):
    wsum = weights.sum()
    if wsum <= 1e-12:
        return beta0
    if z.shape[1] == 1:
        mbar = float(weights @ ell) / wsum
        kap = 1.0 - 1.0 / mbar if mbar > 1.0 else 1e-9
        return np.array([logit(np.clip(kap, 1e-9, 1.0 - 1e-9))])

    def negobj(beta):
        eta = z @ beta
        kap = expit(eta)
        # -sum w * (log(1 - kappa) + kappa * ell)
        val = np.sum(weights * (np.logaddexp(0.0, eta) - kap * ell))
        grad = z.T @ (weights * kap * (1.0 - (1.0 - kap) * ell))
        return val, grad

    res = _minimize(negobj, beta0, jac=True, method="L-BFGS-B", options={"maxiter": 25})
    return res.x if res.fun <= negobj(beta0)[0] else beta0


def _polish(z, ell, beta_pi, beta_kappa):
    """Quasi-Newton ascent on the observed-data likelihood from the EM iterate.

    The EM loop stalls on near-unidentifiable inputs (e.g. all-uniform
    p-values, where pi -> 1 and kappa -> 0 describe the same density); a few
    gradient steps close the remaining gap to the maximiser.
    """
    d1 = beta_pi.size

    def negobj(theta):
        a, b = theta[:d1], theta[d1:]
        pi = expit(z @ a)
        kap = expit(z @ b)
        grow = np.exp(kap * ell)
        f1 = (1.0 - kap) * grow
        dens = pi + (1.0 - pi) * f1
        val = -np.sum(np.log(dens))
        ga = z.T @ (pi * (1.0 - pi) * (1.0 - f1) / dens)
        gb = z.T @ ((1.0 - pi) * kap * (1.0 - kap) * grow * ((1.0 - kap) * ell - 1.0) / dens)
        return val, -np.concatenate([ga, gb])

    theta0 = np.concatenate([beta_pi, beta_kappa])
    bounds = [(-36.0, 36.0)] * theta0.size
    res = _minimize(negobj, theta0, jac=True, method="L-BFGS-B", bounds=bounds)
    if np.isfinite(res.fun) and -res.fun >= -negobj(theta0)[0]:
        return res.x[:d1], res.x[d1:], float(-res.fun)
    return beta_pi, beta_kappa, float(-negobj(theta0)[0])


def _em_once(p, z, ell, beta_pi, beta_kappa, tol, max_iter, polish=True):
    ll_prev = None
    ll = -np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pi = expit(z @ beta_pi)
        kap = expit(z @ beta_kappa)
        alt = (1.0 - kap) * np.exp(kap * ell)
        dens = pi + (1.0 - pi) * alt
        ll = float(np.sum(np.log(dens)))
        gamma = pi / dens
        if ll_prev is not None and abs(ll - ll_prev) <= tol * max(abs(ll_prev), 1.0):
            converged = True
            break
        ll_prev = ll
        beta_pi = _mstep_pi(z, gamma, beta_pi)
        beta_kappa = _mstep_kappa(z, 1.0 - gamma, ell, beta_kappa)
    if polish:
        beta_pi, beta_kappa, ll = _polish(z, ell, beta_pi, beta_kappa)
    return beta_pi, beta_kappa, ll, converged, it


def fit_lfdr_em(
    pvals,
    covars=None,
    eps1: float = 0.1,
    eps2: float = 1e-5,
    tol: float = 1e-6,
    max_iter: int = 200,
    n_restarts: int = 5,
    rng=None,
    init: Optional[tuple] = None,
) -> LfdrModel:
    """Fit the two-group mixture by EM.

    Parameters
    ----------
    pvals, covars : array_like
        P-values in [0, 1] (zeros are clamped to 1e-15) and an optional
        (n, d) covariate matrix.
    n_restarts : int
        Number of random restarts beyond the deterministic initialisation;
        the fit with the best final log-likelihood wins.
    rng : numpy Generator, optional
        Source of restart initialisations (seeded default when omitted).
    init : (beta_pi, beta_kappa), optional
        Warm-start coefficients replacing the deterministic initialisation.

    Returns
    -------
    LfdrModel
        Best-likelihood parameters; ``converged`` is False when the EM hit
        the iteration cap for the winning start.
    """
    p = np.maximum(as_pvalues(pvals), P_FLOOR)
    if not np.all(np.isfinite(-np.log(p))):
        raise InputError("p-values produced a non-finite likelihood")
    x = _as_covars(covars, p.size)
    d = x.shape[1]
    if p.size < 2 * (d + 1):
        raise ConfigurationError(
            f"EM needs at least {2 * (d + 1)} observations for d={d}, got {p.size}"
        )
    z = np.hstack([np.ones((p.size, 1)), x])
    ell = -np.log(p)
    if rng is None:
        rng = np.random.default_rng(0)

    starts = []
    if init is not None:
        starts.append((np.asarray(init[0], dtype=float), np.asarray(init[1], dtype=float)))
    else:
        a0 = np.zeros(d + 1)
        a0[0] = logit(0.9)
        b0 = np.zeros(d + 1)
        starts.append((a0, b0))
    for _ in range(n_restarts):
        a = np.concatenate([[logit(rng.uniform(0.3, 0.97))], rng.normal(0.0, 0.5, size=d)])
        b = np.concatenate([[logit(rng.uniform(0.1, 0.9))], rng.normal(0.0, 0.5, size=d)])
        starts.append((a, b))

    if len(starts) == 1:
        best = _em_once(p, z, ell, starts[0][0].copy(), starts[0][1].copy(), tol, max_iter)
    else:
        # short exploration runs pick the basin; the winner runs to convergence
        probe_iters = min(25, max_iter)
        probes = [
            _em_once(p, z, ell, a.copy(), b.copy(), tol, probe_iters, polish=False)
            for a, b in starts
        ]
        a, b = max(probes, key=lambda fit: fit[2])[:2]
        best = _em_once(p, z, ell, a, b, tol, max_iter)
    beta_pi, beta_kappa, ll, converged, it = best
    return LfdrModel(
        beta_pi=beta_pi,
        beta_kappa=beta_kappa,
        eps1=eps1,
        eps2=eps2,
        loglik=ll,
        converged=converged,
        n_iter=it,
    )


def cross_fit(
    pvals,
    covars,
    part: GroupPartition,
    return_models: bool = False,
    **fit_options,
):
    """Fit each fold's rejection curves on the complementary folds.

    Returns the assembled :class:`RejectionCurves` for all n hypotheses (and
    the per-fold models when ``return_models`` is set).
    """
    p = as_pvalues(pvals)
    if part.n != p.size:
        raise InputError("partition does not match the number of hypotheses")
    if part.n_groups < 2:
        raise ConfigurationError("cross-fitting needs at least two folds")
    x = _as_covars(covars, p.size)
    pi = np.empty(p.size)
    kappa = np.empty(p.size)
    models = []
    for g in range(part.n_groups):
        mask = part.labels == g
        comp = ~mask
        try:
            model = fit_lfdr_em(p[comp], x[comp], **fit_options)
        except ConfigurationError as exc:
            raise ConfigurationError(f"fold {g}: {exc}") from exc
        models.append(model)
        pi[mask] = model.pi(x[mask])
        kappa[mask] = model.kappa(x[mask])
    curves = RejectionCurves(pi, kappa)
    if return_models:
        return curves, models
    return curves


def _group_scan(p, idx, curves, alpha):
    sub = curves[idx]
    u = sub.at(p[idx])
    v = sub.at(1.0 - p[idx])
    t_up = (1.0 - 1e-9) * float(sub.at(0.5).min())
    return _mirror_scan(u, v, alpha, t_max=t_up, inclusive=True), u, v


def fbc_group_threshold(pvals, part: GroupPartition, curves: RejectionCurves, alpha_fbc: float):
    """Flexible mirror-count threshold of each fold at level ``alpha_fbc``.

    The per-fold domain cap sits just below min_i phi_i(0.5).  Returns one
    :class:`ThresholdResult` per fold with global indices.
    """
    p = as_pvalues(pvals)
    results = []
    for g in range(part.n_groups):
        idx = part.indices(g)
        scan, _, _ = _group_scan(p, idx, curves, alpha_fbc)
        results.append(
            ThresholdResult(scan.threshold, scan.m_at_T, idx[scan.rejected_mask], scan.feasible)
        )
    return results


def structure_weights(
    pvals,
    part: GroupPartition,
    curves: RejectionCurves,
    thresholds,
    mode: str = "cheap",
    alpha: Optional[float] = None,
    covars=None,
    models=None,
    fit_options=None,
) -> np.ndarray:
    """E-value weights for the cross-fitted procedure.

    ``cheap`` evaluates the cross-fold leave-one-out exceedance counts at
    the realised data; ``full`` maximises each count over replacements of
    p_i on a 23-point grid, refitting the other folds' curves (warm-started
    from ``models``) at every grid value.
    """
    p = as_pvalues(pvals)
    mode = mode.lower()
    if mode == "unit":
        return np.ones(p.size)
    if mode not in ("cheap", "full"):
        raise ConfigurationError(f"unknown weight mode {mode!r}")
    if alpha is None:
        raise ConfigurationError("cheap/full weights need the threshold level alpha")

    n = p.size
    G = part.n_groups
    w = np.ones(n)
    counts = np.zeros(G)
    exceed = np.zeros(n, dtype=bool)
    for g in range(G):
        idx = part.indices(g)
        scan, u, v = _group_scan(p, idx, curves, alpha)
        counts[g] = scan.loo_count
        res = thresholds[g]
        if res.feasible:
            exceed[idx] = v <= res.threshold

    if mode == "full" and G > 1:
        if models is None:
            raise ConfigurationError("full weights need the per-fold models")
        x = _as_covars(covars, n)
        opts = dict(fit_options or {})
        opts.update(n_restarts=0, rng=np.random.default_rng(0))

    for g in range(G):
        idx = part.indices(g)
        n_exc = int(np.count_nonzero(exceed[idx]))
        b = 1.0 + n_exc - exceed[idx]
        if mode == "cheap":
            cross = counts.sum() - counts[g]
            w[idx] = (n / part.sizes[g]) * b / (b + cross)
        else:
            others = [h for h in range(G) if h != g]
            for local, i in enumerate(idx):
                sup_count = 0.0
                for rho in FULL_WEIGHT_GRID:
                    pm = p.copy()
                    pm[i] = rho
                    total = 0
                    for h in others:
                        hmask = part.labels == h
                        comp = ~hmask
                        model = fit_lfdr_em(
                            pm[comp], x[comp], init=(models[h].beta_pi, models[h].beta_kappa), **opts
                        )
                        hcurves = model.curves(x[hmask])
                        hidx = np.nonzero(hmask)[0]
                        scan_h = _mirror_scan(
                            hcurves.at(pm[hidx]),
                            hcurves.at(1.0 - pm[hidx]),
                            alpha,
                            t_max=(1.0 - 1e-9) * float(hcurves.at(0.5).min()),
                            inclusive=True,
                        )
                        total += scan_h.loo_count
                    sup_count = max(sup_count, total)
                w[i] = (n / part.sizes[g]) * b[local] / (b[local] + sup_count)
    return w


def _structure_evalues(p, part, curves, thresholds, weights):
    e = np.zeros(p.size)
    for g in range(part.n_groups):
        res = thresholds[g]
        if res.feasible:
            e[res.rejected] = part.sizes[g] * weights[res.rejected] / res.m_at_T
    return e


def structure_pipeline(
    pvals,
    covars,
    alpha_ebh: float,
    mode: str = "cheap",
    n_groups: int = 2,
    rng=None,
    fit_options=None,
):
    """Full cross-fitted run; returns a dict with every intermediate piece."""
    p = as_pvalues(pvals)
    if not (0.0 < alpha_ebh < 1.0):
        raise ConfigurationError(f"alpha_ebh must lie in (0, 1), got {alpha_ebh}")
    if rng is None:
        rng = np.random.default_rng(0)
    labels = np.empty(p.size, dtype=np.intp)
    labels[rng.permutation(p.size)] = np.arange(p.size) % n_groups
    part = GroupPartition(labels=labels, n_groups=n_groups)
    opts = dict(fit_options or {})
    opts.setdefault("rng", rng)
    curves, models = cross_fit(p, covars, part, return_models=True, **opts)
    alpha_fbc = alpha_ebh / (1.0 + alpha_ebh)
    thresholds = fbc_group_threshold(p, part, curves, alpha_fbc)
    weights = structure_weights(
        p, part, curves, thresholds, mode, alpha=alpha_fbc,
        covars=covars, models=models, fit_options=fit_options,
    )
    evalues = _structure_evalues(p, part, curves, thresholds, weights)
    rejected = ebh_select(evalues, alpha_ebh) if evalues.any() else np.empty(0, dtype=np.intp)
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
    fit_options=None,
) -> np.ndarray:
    """Cross-fitted covariate-adaptive testing; returns rejected indices.

    Hypotheses are split into ``n_groups`` random equal folds (driven by
    ``rng``), each fold's rejection curves are fitted on its complement, the
    per-fold mirror-count thresholds run at ``alpha_ebh / (1 + alpha_ebh)``,
    and the weighted e-values are selected at ``alpha_ebh``.
    """
    return structure_pipeline(
        pvals, covars, alpha_ebh, mode=mode, n_groups=n_groups, rng=rng,
        fit_options=fit_options,
    )["rejected"]
