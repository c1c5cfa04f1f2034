"""Plain-Python reference implementations used as independent test oracles.

Everything here is written as a direct transcription of the defining
formulas (explicit loops over candidate grids), deliberately sharing no code
with the package internals.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import Bounds, minimize
from scipy.special import expit

# Scores that tie, sit on the domain's edges or next to 1/2, where 1 - p
# rounds to 1/2; drawn often, with -0.0 among them.
EDGE = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.01, 0.3, 0.7, 0.99]
)


def brute_bh(p, alpha):
    """BH by the classic sorted scan; returns (k_hat, rejected index set)."""
    n = len(p)
    order = sorted(range(n), key=lambda i: p[i])
    khat = 0
    for rank, i in enumerate(order, start=1):
        if p[i] <= rank * alpha / n:
            khat = rank
    return khat, set(order[:khat])


def brute_storey(p, alpha, lam):
    n = len(p)
    pi0 = (1.0 + n - sum(1 for x in p if x <= lam)) / ((1.0 - lam) * n)
    order = sorted(range(n), key=lambda i: p[i])
    khat = 0
    for rank, i in enumerate(order, start=1):
        if p[i] <= rank * alpha / (n * pi0):
            khat = rank
    return khat, set(order[:khat])


def brute_bc_threshold(p, alpha):
    """BC threshold by exhaustive candidate scan; None when infeasible.

    Mirror counts compare the stored mirror values 1 - x against t (exact
    for x >= 0.5), matching the real-arithmetic rule #{x >= 1 - t}.
    """
    cands = sorted(
        {x for x in p if x < 0.5} | {1.0 - x for x in p if x > 0.5 and 1.0 - x < 0.5}
    )
    best = None
    for t in cands:
        m = 1 + sum(1 for x in p if 1.0 - x <= t)
        r = sum(1 for x in p if x <= t)
        if m / max(1, r) <= alpha:
            best = t
    return best


def brute_bc_rejections(p, alpha):
    t = brute_bc_threshold(p, alpha)
    if t is None:
        return set()
    return {i for i, x in enumerate(p) if x <= t}


def brute_fbc_threshold(u, v, alpha, t_up):
    """FBC threshold from precomputed scores u_i = phi_i(p_i), v_i = phi_i(1 - p_i)."""
    cands = sorted({x for x in list(u) + list(v) if x <= t_up})
    best = None
    for t in cands:
        m = 1 + sum(1 for x in v if x <= t)
        r = sum(1 for x in u if x <= t)
        if m / max(1, r) <= alpha:
            best = t
    return best


def brute_fbc_loo_count(u, v, alpha, t_up):
    """#{j : v_j <= T_j}, where T_j is the FBC threshold with j's scores
    censored to (min(u_j, v_j), max(u_j, v_j)); an infeasible T_j counts nothing."""
    count = 0
    for j in range(len(u)):
        cu, cv = list(u), list(v)
        cu[j], cv[j] = min(u[j], v[j]), max(u[j], v[j])
        t = brute_fbc_threshold(cu, cv, alpha, t_up)
        if t is not None and v[j] <= t:
            count += 1
    return count


def brute_ebh(e, alpha):
    """E-value step-up by explicit rank scan; returns a rejected index set."""
    n = len(e)
    order = sorted(range(n), key=lambda i: -e[i])
    khat = 0
    for rank, i in enumerate(order, start=1):
        if e[i] >= n / (rank * alpha):
            khat = rank
    return set(order[:khat])


def brute_bc_loo_threshold(p, alpha, j):
    """BC threshold after replacing p_j with min(p_j, 1 - p_j)."""
    q = list(p)
    q[j] = min(q[j], 1.0 - q[j])
    return brute_bc_threshold(q, alpha)


def brute_loo_mirror_count(p, alpha):
    """D* = #{j : p_j >= 1 - t_bc_loo[j]}: the hypotheses whose mirror their
    own BC threshold with p_j censored to min(p_j, 1 - p_j) reaches."""
    count = 0
    for j, x in enumerate(p):
        t = brute_bc_loo_threshold(list(p), alpha, j)
        if t is not None and 1.0 - x <= t:
            count += 1
    return count


def brute_loo_weights(p, part, curves, thresholds, counts):
    """Grouped leave-one-out weights ``(n / n_l) * b_i / (b_i + cross_l)`` by a
    loop over the groups.

    ``b_i = 1 + #{j != i in group l : mirror_j <= T_l}``, 1 when group l is
    infeasible, on the mirror scores ``1 - p`` (``curves.at(1 - p)`` with
    curves); ``cross_l`` is the sum of the other groups' leave-one-out
    ``counts``.  Each group's weights are one expression in the operation
    order of the package, so the two agree bit for bit.
    """
    mirror = 1.0 - p if curves is None else curves.at(1.0 - p)
    n = mirror.size
    total = counts.sum()
    w = np.empty(n)
    for l in range(part.n_groups):
        idx = np.flatnonzero(part.labels == l)
        res = thresholds[l]
        b = np.ones(idx.size)
        if res.feasible:
            exceed = mirror[idx] <= res.threshold
            b += np.count_nonzero(exceed) - exceed
        w[idx] = (n / idx.size) * b / (b + (total - counts[l]))
    return w


def brute_bc_zeroed_loo_threshold(p, alpha, j, i):
    """BC threshold with p_i set to 0 and p_j mirrored (j != i)."""
    q = list(p)
    q[i] = 0.0
    q[j] = min(q[j], 1.0 - q[j])
    return brute_bc_threshold(q, alpha)


def brute_knockoff_threshold(w, alpha):
    """Knockoff selection threshold: smallest feasible |W| candidate."""
    cands = sorted({abs(x) for x in w if x != 0.0})
    for t in cands:
        neg = sum(1 for x in w if x <= -t)
        pos = sum(1 for x in w if x >= t)
        if (1 + neg) / max(1, pos) <= alpha:
            return t
    return None


def grid_search_loglik(p, rounds=6, size=51):
    """Zoomed grid search over (pi, kappa) maximising the mixture likelihood
    sum_i log(pi + (1 - pi)(1 - kappa) p_i^(-kappa)).

    The first round adds geometrically spaced points near 0 on both axes so
    the zoom cannot skip the narrow small-kappa basin.
    """
    p = np.maximum(np.asarray(p, dtype=float), 1e-15)
    ell = -np.log(p)
    lo_pi, hi_pi, lo_k, hi_k = 1e-4, 1.0 - 1e-4, 1e-4, 1.0 - 1e-4
    best = (-np.inf, 0.5, 0.5)
    for r in range(rounds):
        pis = np.linspace(lo_pi, hi_pi, size)
        kaps = np.linspace(lo_k, hi_k, size)
        if r == 0:
            tails = np.geomspace(1e-5, 0.1, 40)
            pis = np.unique(np.concatenate([pis, tails, 1.0 - tails]))
            kaps = np.unique(np.concatenate([kaps, tails, 1.0 - tails]))
        for kap in kaps:
            alt = (1.0 - kap) * np.exp(kap * ell)
            dens = pis[:, None] + np.outer(1.0 - pis, alt)
            lls = np.sum(np.log(dens), axis=1)
            k = int(np.argmax(lls))
            if lls[k] > best[0]:
                best = (float(lls[k]), float(pis[k]), float(kap))
        dp = (hi_pi - lo_pi) / (size - 1)
        dk = (hi_k - lo_k) / (size - 1)
        lo_pi = max(1e-6, best[1] - 2 * dp)
        hi_pi = min(1.0 - 1e-9, best[1] + 2 * dp)
        lo_k = max(1e-6, best[2] - 2 * dk)
        hi_k = min(1.0 - 1e-9, best[2] + 2 * dk)
    return best[0]


def mixture_negloglik(theta, z, ell):
    """Negative mixture log-likelihood and its gradient in theta = (a, b), by
    the plain formulas: pi = expit(z a), kappa = expit(z b) and
    -sum_i log(pi_i + (1 - pi_i)(1 - kappa_i) exp(kappa_i ell_i)), ell = -log p.
    """
    d1 = z.shape[1]
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


def random_pvalues(rng, n=None):
    """Mixed null/alternative p-values for equivalence sweeps."""
    if n is None:
        n = int(rng.integers(5, 201))
    n_alt = int(rng.integers(0, max(1, n // 3) + 1))
    p = rng.uniform(0.0, 1.0, size=n)
    if n_alt:
        p[:n_alt] = rng.beta(0.35, 8.0, size=n_alt)
    return p


def sample_working_model(rng, n, beta_pi, beta_kappa, d=1):
    """Draw (p, x) from the two-group mixture with logistic links."""
    x = rng.normal(size=(n, d))
    z = np.hstack([np.ones((n, 1)), x])
    pi = 1.0 / (1.0 + np.exp(-(z @ np.asarray(beta_pi))))
    kap = 1.0 / (1.0 + np.exp(-(z @ np.asarray(beta_kappa))))
    null = rng.uniform(size=n) < pi
    p = np.empty(n)
    p[null] = rng.uniform(size=int(null.sum()))
    # alternative density (1 - kappa) p^(-kappa): p = U^(1 / (1 - kappa))
    m = ~null
    p[m] = rng.uniform(size=int(m.sum())) ** (1.0 / (1.0 - kap[m]))
    return p, x


def rejection_table_lines(evalues, weights, rejected):
    """The CLI rejection table, one f-string per row."""
    mask = np.zeros(len(evalues), dtype=bool)
    mask[np.asarray(rejected, dtype=np.intp)] = True
    text = "index,rejected,evalue,weight\n"
    for i in range(len(evalues)):
        text += f"{i + 1},{int(mask[i])},{evalues[i]:.10g},{weights[i]:.10g}\n"
    return text


def scipy_lbfgsb(negobj, theta0, box):
    """The public L-BFGS-B call that ``adaptive._minimize`` reproduces:
    scipy's defaults, ``negobj`` returning value and gradient, the box
    ``[-box, box]`` on every coordinate."""
    return minimize(negobj, theta0, jac=True, method="L-BFGS-B", bounds=Bounds(-box, box))
