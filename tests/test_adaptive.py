import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import norm

from evmt import (
    ConfigurationError,
    InputError,
    ProcedureSpec,
    ebh_select,
    fdp_power,
    solve_threshold,
)
from evmt.adaptive import (
    LfdrModel,
    RejectionCurves,
    cross_fit,
    fbc_group_threshold,
    fit_lfdr_em,
    run_structure_adaptive,
    structure_pipeline,
    structure_weights,
)
from evmt import adaptive, groups, procedures
from evmt.groups import GroupPartition, assemble_weights, group_evalues, groupwise_bc_thresholds
from evmt.simulate import SimulationConfig, generate

from oracles import (
    brute_fbc_loo_count,
    brute_fbc_threshold,
    grid_search_loglik,
    mixture_negloglik,
    sample_working_model,
    scipy_lbfgsb,
)


# ---------------------------------------------------------------------------
# curves


_TINY = float(np.nextafter(0.0, 1.0))
# the p every curve is read at: 0, the floor and its neighbours, both
# neighbours of 0.5, 1, and values down to the smallest subnormal
_EDGE_P = [0.0, _TINY, 1e-300, np.nextafter(procedures.P_FLOOR, 0.0), procedures.P_FLOOR,
           np.nextafter(procedures.P_FLOOR, 1.0), 1e-6, np.nextafter(0.5, 0.0), 0.5,
           np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0]
_PI = st.one_of(st.sampled_from([1.0, _TINY, 1e-300, 1e-5, 0.1, 1.0 - 1e-5, np.nextafter(1.0, 0.0)]),
                st.floats(0.0, 1.0, exclude_min=True))
_KAPPA = st.one_of(st.sampled_from([0.0, 1.0, _TINY, np.nextafter(1.0, 0.0), 0.5]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pk=st.lists(st.tuples(_PI, _KAPPA), min_size=1, max_size=30),
    extra=st.lists(st.floats(0.0, 1.0), max_size=40),
)
@example(pk=[(1.0, 0.0), (1.0, 1.0), (_TINY, 0.0), (_TINY, 1.0), (1e-300, 0.5)], extra=[])
def test_curves_monotone_and_bounded(pk, extra):
    # any in-range pi and kappa give curves that are finite, in [0, 1] and
    # nondecreasing in p, which is what the range check at construction relies on
    pi, kappa = np.array(pk).T
    curves = RejectionCurves(pi=pi, kappa=kappa)
    p = np.unique(np.concatenate([_EDGE_P, extra]))
    values = curves.at(p[:, None])  # one row per p, one column per curve
    assert values.shape == (p.size, pi.size)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values, axis=0) >= 0.0)


# ---------------------------------------------------------------------------
# EM fit


def test_em_matches_grid_search_on_uniform_data():
    # on all-null data the mixture is non-identifiable along pi -> 1 vs
    # kappa -> 0, so the check targets the likelihood and the fitted density
    # rather than the raw parameter values
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=2000)
        model = fit_lfdr_em(p, None)
        oracle = grid_search_loglik(p)
        assert abs(model.loglik - oracle) <= 1e-3
        # likelihood gain over the exact uniform density stays at the
        # two-parameter overfitting scale: no spurious signal detected
        assert -1e-6 <= model.loglik <= 3.0


def _loglik(beta_pi, beta_kappa, p, x=None):
    """The mixture log-likelihood at (beta_pi, beta_kappa), by the plain formulas."""
    z = np.hstack([np.ones((p.size, 1)), np.empty((p.size, 0)) if x is None else x])
    ell = -np.log(np.maximum(p, adaptive.P_FLOOR))
    return -mixture_negloglik(np.concatenate([beta_pi, beta_kappa]), z, ell)[0]


def test_em_recovers_parameters_at_moderate_scale():
    rng = np.random.default_rng(7)
    beta_pi = np.array([1.2, 0.8])
    beta_kappa = np.array([0.4, -0.6])
    p, x = sample_working_model(rng, 12000, beta_pi, beta_kappa)
    model = fit_lfdr_em(p, x)
    assert np.all(np.abs(model.beta_pi - beta_pi) < 0.25)
    assert np.all(np.abs(model.beta_kappa - beta_kappa) < 0.25)
    assert model.loglik >= _loglik(beta_pi, beta_kappa, p, x) - 1e-6


def test_em_constant_covariate_still_finite():
    rng = np.random.default_rng(3)
    p = rng.uniform(size=300)
    x = np.ones((300, 1))
    model = fit_lfdr_em(p, x)
    pi = model.pi(x)
    assert np.all(np.isfinite(pi))
    assert np.all((pi >= adaptive.EPS1) & (pi <= 1.0 - adaptive.EPS2))


@pytest.mark.parametrize("seed, winner, loser", [(12, "default", "edge"), (13, "edge", "default")])
def test_fit_records_the_start_that_won(monkeypatch, seed, winner, loser):
    # 60 uniform p-values and one noise covariate: the two starts end more
    # than 1 apart in log-likelihood, once each way
    rng = np.random.default_rng(seed)
    p, x = rng.uniform(size=60), rng.normal(size=(60, 1))
    ends = []
    ascend = adaptive._ascend
    monkeypatch.setattr(adaptive, "_ascend", lambda *a: ends.append(ascend(*a)) or ends[-1])
    model = fit_lfdr_em(p, x)
    by_start = dict(zip(("default", "edge"), (fit[2] for fit in ends)))
    assert model.start == winner
    assert model.loglik == by_start[winner] > by_start[loser] + 1.0


def test_fit_gives_a_tie_to_the_default_start(monkeypatch):
    # two equally good ends: max keeps the first, the default start's
    monkeypatch.setattr(adaptive, "_ascend", lambda z, ell, a0, b0: (a0, b0, 0.0, True, 1))
    model = fit_lfdr_em(np.linspace(0.01, 0.99, 20))
    assert model.start == "default"
    assert model.beta_pi[0] == pytest.approx(np.log(0.9 / 0.1))


def test_em_is_deterministic():
    rng = np.random.default_rng(61)
    p, x = sample_working_model(rng, 2000, np.array([1.0, 0.5]), np.array([0.3, -0.4]))
    a, b = fit_lfdr_em(p, x), fit_lfdr_em(p, x)
    assert a.beta_pi.tobytes() == b.beta_pi.tobytes()
    assert a.beta_kappa.tobytes() == b.beta_kappa.tobytes()
    assert (a.loglik, a.converged, a.n_iter) == (b.loglik, b.converged, b.n_iter)


def test_warm_started_fit_never_ends_below_its_start():
    # _ascend returns its start when L-BFGS-B ends below it
    def ascend(p, x, start):
        z = np.hstack([np.ones((p.size, 1)), x])
        ell = -np.log(np.maximum(p, adaptive.P_FLOOR))
        return adaptive._ascend(z, ell, *start)[2]

    rng = np.random.default_rng(67)
    p, x = sample_working_model(rng, 1500, np.array([1.0, 0.5]), np.array([0.3, -0.4]))
    fitted = fit_lfdr_em(p, x)
    for start in [
        (fitted.beta_pi, fitted.beta_kappa),
        (np.array([2.0, 0.0]), np.array([-1.0, 0.0])),
        (np.array([30.0, -5.0]), np.array([-30.0, 5.0])),
    ]:
        assert ascend(p, x, start) >= _loglik(*start, p, x)
    # a start outside the optimiser's box (pi = 1 exactly), on data whose
    # likelihood no point inside the box reaches
    q = np.linspace(0.8, 0.99, 50)
    outside = (np.array([40.0]), np.array([0.0]))
    assert ascend(q, np.empty((50, 0)), outside) >= _loglik(*outside, q)


_TINY = np.finfo(np.float64).tiny  # the smallest normal float
_COEF = st.one_of(st.floats(-36.0, 36.0), st.sampled_from([-36.0, 36.0]))  # the fit's box


@st.composite
def _objective_cases(draw):
    """(theta, z, ell): d in {0, 1, 2}, coefficients inside and on the box,
    covariates up to 50 in size (|z theta| past 709), p with 0 and 1."""
    d = draw(st.integers(0, 2))
    n = draw(st.integers(1, 12))
    cells = st.floats(-50.0, 50.0) | st.sampled_from([0.0, 1.0, -1.0, 25.0, -50.0, 50.0])
    x = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-300]),
                               min_size=n, max_size=n)))
    theta = np.array(draw(st.lists(_COEF, min_size=2 * (d + 1), max_size=2 * (d + 1))))
    z = np.hstack([np.ones((n, 1)), x.reshape(n, d)])
    return theta, z, -np.log(np.maximum(p, adaptive.P_FLOOR))


def _oracle(theta, z, ell):
    """The oracle's value and gradient at theta, with bounds on how far a
    correct evaluation in floating point may lie from them.

    Rounding in u = z theta and in the logistic moves pi and kappa by a few
    ulps of their own size, and 1 - pi and 1 - kappa by as much again; the
    bounds carry these moves through the density and the gradient's rows.
    Both bounds are None where a density falls below the smallest normal
    float, which the kernel counts as that float.
    """
    eps, d1 = np.finfo(np.float64).eps, z.shape[1]
    absz = np.abs(z)
    with np.errstate(all="ignore"):
        val, grad = mixture_negloglik(theta, z, ell)
        a, b = theta[:d1], theta[d1:]
        pi, q, kap, omk = expit(z @ a), expit(-(z @ a)), expit(z @ b), expit(-(z @ b))
        grow = np.exp(kap * ell)
        f1 = omk * grow
        dens = pi + q * f1
        if not (np.all(dens >= _TINY) and np.isfinite(val)):
            return val, grad, None, None
        d_pi = pi * (4 * eps + q * 2 * d1 * eps * (absz @ np.abs(a)))
        d_kap = kap * (4 * eps + omk * 2 * d1 * eps * (absz @ np.abs(b)))
        d_q, d_omk = d_pi + 2 * eps * q, d_kap + 2 * eps * omk
        d_f1 = d_omk * grow + f1 * ell * d_kap
        rel = (d_pi + d_q * f1 + q * d_f1) / dens + 8 * eps  # of the density
        val_tol = 1e-12 * max(abs(val), 1.0) + np.sum(-np.log1p(-np.minimum(rel, 1.0)))
        c = omk * ell - 1.0
        row0 = pi * q * (1.0 - f1) / dens
        row1 = q * kap * f1 * c / dens
        d_row0 = ((d_pi * q + pi * d_q) * np.abs(1.0 - f1) + pi * q * d_f1) / dens
        d_row1 = ((d_q * kap + q * d_kap) * f1 * np.abs(c)
                  + q * kap * (d_f1 * np.abs(c) + f1 * ell * d_omk)) / dens
        d_row0 += np.abs(row0) * (rel + 8 * eps)
        d_row1 += np.abs(row1) * (rel + 12 * eps)
        scale = 35.0 * absz.sum(axis=0)  # each row is at most 35 in size
        grad_tol = np.concatenate([absz.T @ d_row0, absz.T @ d_row1]) + 1e-12 * np.tile(scale, 2)
    return val, grad, val_tol, grad_tol


@settings(max_examples=300, deadline=None)
@given(_objective_cases())
# a density of e^-575 (about 1e-250): tiny, yet a normal float
@example((np.array([-25.0, -11.0, 36.0, 36.0]), np.array([[1.0, 50.0]]), np.array([2.0])))
def test_prop_likelihood_kernel_matches_plain_formulas(case):
    theta, z, ell = case
    negobj = adaptive._negloglik(z, ell)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, grad = negobj(theta)
    assert np.isfinite(val) and np.all(np.isfinite(grad))
    oval, ograd, val_tol, grad_tol = _oracle(theta, z, ell)
    if val_tol is None:
        # a density under the smallest normal float counts as that float
        assert val <= -z.shape[0] * np.log(_TINY)
        return
    assert abs(val - oval) <= val_tol
    assert np.all(np.abs(grad - ograd) <= grad_tol)
    # central differences, where the oracle holds on both sides of the step
    h = 1e-6
    for k in range(theta.size):
        step = np.zeros(theta.size)
        step[k] = h
        up, _, up_tol, _ = _oracle(theta + step, z, ell)
        down, _, down_tol, _ = _oracle(theta - step, z, ell)
        if up_tol is not None and down_tol is not None:
            fd = (negobj(theta + step)[0] - negobj(theta - step)[0]) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-4 * (1.0 + abs(grad[k])) + (up_tol + down_tol) / h


def _binding_case():
    """(z, ell, theta0) of a fit whose optimum lies beyond the box: a covariate
    of +-0.01 separates 20 signals from 20 nulls, which asks for slopes of
    hundreds in both links."""
    x = np.repeat([0.01, -0.01], 20)
    p = np.concatenate([np.linspace(1e-6, 1e-3, 20), np.linspace(0.05, 1.0, 20)])
    return np.column_stack([np.ones(40), x]), -np.log(p), np.zeros(4)


@st.composite
def _fit_cases(draw):
    """(z, ell, theta0) of a fit: d in {0, 1, 2, 3} covariates, n in 4 ... 3000
    null, signal or tied p-values (ties at one decimal) with or without 0
    and 1, and a start inside the box, on its faces or outside it."""
    d, n = draw(st.sampled_from([0, 1, 2, 3])), draw(st.integers(4, 3000))
    kind, start = draw(st.sampled_from(["null", "signal", "tied"])), draw(st.sampled_from(["in", "on", "out"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=draw(st.sampled_from([0.5, 3.0])), size=(n, d))
    p = rng.uniform(size=n)
    if kind == "signal":
        p[: n // 4] = rng.beta(0.1, 4.0, size=n // 4)
    elif kind == "tied":
        p = np.round(p, 1)
    if draw(st.booleans()):
        p[:2] = 0.0, 1.0
    theta0 = rng.uniform(-5.0, 5.0, size=2 * (d + 1))
    if start != "in":
        edge = rng.random(theta0.size) < 0.5
        width = 36.0 if start == "on" else rng.uniform(36.0, 80.0, size=theta0.size)
        theta0 = np.where(edge, np.sign(rng.uniform(-1.0, 1.0, size=theta0.size)) * width, theta0)
    z = np.hstack([np.ones((n, 1)), x])
    return z, -np.log(np.maximum(p, adaptive.P_FLOOR)), theta0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fit_cases())
@example(_binding_case())
def test_prop_minimize_matches_scipy_bitwise(case):
    # _minimize drives scipy's private setulb; the public minimize call is
    # the reference, and a change to setulb shows here
    z, ell, theta0 = case
    negobj = adaptive._negloglik(z, ell)
    x, f, nit, success = adaptive._minimize(negobj, theta0, adaptive._BOX)
    ref = scipy_lbfgsb(negobj, theta0, adaptive._BOX)
    assert (x.tobytes(), f, nit, success) == (ref.x.tobytes(), ref.fun, ref.nit, ref.success)


def test_minimize_stops_on_the_box_where_the_optimum_lies_beyond_it():
    z, ell, theta0 = _binding_case()
    negobj = adaptive._negloglik(z, ell)
    x, f, nit, success = adaptive._minimize(negobj, theta0, adaptive._BOX)
    assert success and nit > 1
    assert x[1] == -adaptive._BOX and x[3] == adaptive._BOX  # both slopes
    # the gradient still points out of the box there
    grad = negobj(x)[1]
    assert grad[1] > 0.0 > grad[3]


@pytest.mark.parametrize("package, name, attributes", [
    ("optimize", "_lbfgsb", ["setulb"]),
    ("special", "_special_ufuncs", ["ndtr", "expit", "logit"]),
], ids=["_lbfgsb", "_special_ufuncs"])
def test_compiled_loads_the_module_alone_or_names_where_it_looked(
        monkeypatch, tmp_path, package, name, attributes):
    # the package is imported here, so hide it: _compiled then loads the file
    import scipy
    import scipy.optimize
    import scipy.special

    loaded = getattr(getattr(scipy, package), name)
    qualname = f"scipy.{package}.{name}"
    for key in (f"scipy.{package}", qualname):
        monkeypatch.delitem(sys.modules, key)
    monkeypatch.setattr(adaptive, "_COMPILED", {})
    module = adaptive._compiled(package, name)
    assert module is not loaded
    for attribute in attributes:
        assert getattr(module, attribute) is getattr(loaded, attribute)
    assert qualname not in sys.modules
    assert adaptive._compiled(package, name) is module  # loaded once
    assert list(adaptive._COMPILED) == [qualname]
    monkeypatch.setattr(adaptive, "_COMPILED", {})
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / package))):
        adaptive._compiled(package, name)


def test_fit_with_large_covariates_warns_nothing():
    rng = np.random.default_rng(5)
    x = rng.uniform(-50.0, 50.0, size=(400, 2))
    p = rng.uniform(size=400)
    p[:80] = rng.beta(0.1, 5.0, size=80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_lfdr_em(p, x)
    assert np.isfinite(model.loglik)
    assert model.loglik >= _loglik([np.log(9.0), 0.0, 0.0], np.zeros(3), p, x)


def test_pipelines_match_the_plain_objective(monkeypatch):
    def run():
        pipes = []
        for seed in range(20):
            inst = generate(SimulationConfig(setting="STRUCT", seed=seed), 0)
            pipes.append(structure_pipeline(inst.pvals, inst.covars, 0.1,
                                            rng=np.random.default_rng(seed)))
        return pipes

    kernel = run()
    monkeypatch.setattr(adaptive, "_negloglik",
                        lambda z, ell: lambda theta: mixture_negloglik(theta, z, ell))
    for a, b in zip(kernel, run()):
        assert a["evalues"].tobytes() == b["evalues"].tobytes()
        assert np.array_equal(a["rejected"], b["rejected"])


def test_em_preconditions():
    with pytest.raises(ConfigurationError):
        fit_lfdr_em([0.5, 0.5, 0.5], np.ones((3, 1)))
    with pytest.raises(InputError):
        fit_lfdr_em([0.5, 2.0], None)


def test_model_without_covariates_needs_the_row_count():
    model = fit_lfdr_em(np.linspace(0.01, 0.99, 50))
    for predict in (model.pi, model.kappa, model.curves):
        with pytest.raises(InputError, match="number of rows"):
            predict(None)
    assert len(model.curves(np.empty((7, 0)))) == 7


# ---------------------------------------------------------------------------
# cross-fitting


def test_cross_fit_depends_only_on_complement():
    rng = np.random.default_rng(11)
    p = rng.uniform(size=60)
    x = rng.normal(size=(60, 1))
    labels = np.arange(60) % 2
    part = GroupPartition(labels=labels, n_groups=2)
    swapped = GroupPartition(labels=1 - labels, n_groups=2)
    c1, _ = cross_fit(p, x, part)
    c2, _ = cross_fit(p, x, swapped)
    assert np.allclose(c1.pi, c2.pi)
    assert np.allclose(c1.kappa, c2.kappa)


def test_cross_fit_ignores_own_group_pvalues():
    rng = np.random.default_rng(13)
    p = rng.uniform(size=40)
    x = rng.normal(size=(40, 1))
    part = GroupPartition(labels=np.arange(40) % 2, n_groups=2)
    base, _ = cross_fit(p, x, part)
    q = p.copy()
    q[0] = 0.987  # index 0 lives in fold 0
    moved, _ = cross_fit(q, x, part)
    fold0 = part.indices(0)
    assert np.allclose(base.pi[fold0], moved.pi[fold0])
    assert np.allclose(base.kappa[fold0], moved.kappa[fold0])


def test_cross_fit_folds_agree_on_uniform_data():
    # cross_fit fits nothing without covariates, so each fold's fit is made here
    rng = np.random.default_rng(17)
    p = rng.uniform(size=10000)
    part = GroupPartition(labels=rng.permutation(np.arange(10000) % 2), n_groups=2)
    f0, f1 = (fit_lfdr_em(np.delete(p, part.indices(g))).curves(np.empty((1, 0))) for g in (0, 1))
    grid = np.linspace(0.001, 0.999, 50)
    gap = np.max(np.abs(f0.at(grid[:, None]).ravel() - f1.at(grid[:, None]).ravel()))
    assert gap < 0.05


def test_cross_fit_requires_two_folds_and_enough_data():
    p = np.linspace(0.01, 0.99, 8)
    with pytest.raises(ConfigurationError):
        cross_fit(p, None, GroupPartition(labels=np.zeros(8, dtype=int), n_groups=1))
    x = np.random.default_rng(0).normal(size=(8, 3))
    part = GroupPartition(labels=np.arange(8) % 2, n_groups=2)
    with pytest.raises(ConfigurationError):
        cross_fit(p, x, part)  # complement of size 4 < 2 (d + 1) = 8


def test_cross_fit_fits_nothing_without_covariates(monkeypatch):
    fits = _count_calls(monkeypatch, adaptive, "fit_lfdr_em")
    p = np.linspace(0.01, 0.99, 8)
    part = GroupPartition(labels=np.arange(8) % 2, n_groups=2)
    for covars in (None, np.empty((8, 0))):
        assert cross_fit(p, covars, part) == (None, [])
    with pytest.raises(InputError):
        cross_fit(p, np.empty((9, 0)), part)
    with pytest.raises(ConfigurationError, match="at least two folds"):
        cross_fit(p, None, GroupPartition(labels=np.zeros(8, dtype=int), n_groups=1))
    assert fits == []


@pytest.mark.parametrize("n_groups", [0, 1, 2.5])
def test_pipeline_checks_the_fold_count_first(n_groups):
    p = np.linspace(0.01, 0.99, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="at least two folds"):
            structure_pipeline(p, None, 0.1, n_groups=n_groups)


# ---------------------------------------------------------------------------
# thresholds


def test_fbc_with_identical_curves_matches_plain_bc_rejections():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(10, 60))
        p = rng.uniform(size=n)
        p[: n // 4] *= 0.02
        curves = RejectionCurves(np.full(n, 0.6), np.full(n, 0.5))
        part = GroupPartition(labels=np.zeros(n, dtype=int), n_groups=1)
        alpha = float(rng.uniform(0.1, 0.5))
        [res] = fbc_group_threshold(p, part, curves, alpha)
        bc = solve_threshold(p, ProcedureSpec(kind="bc", alpha=alpha))
        assert set(res.rejected.tolist()) == set(bc.rejected.tolist())


def test_fbc_group_threshold_on_one_group_equals_solve_threshold():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        p = rng.uniform(size=n)
        p[: n // 3] *= float(rng.choice([1e-3, 0.05, 1.0]))
        curves = RejectionCurves(rng.uniform(0.2, 0.9, n), rng.uniform(0.1, 0.9, n))
        part = GroupPartition(labels=np.zeros(n, dtype=int), n_groups=1)
        alpha = float(rng.uniform(0.05, 0.6))
        [res] = fbc_group_threshold(p, part, curves, alpha)
        want = solve_threshold(p, ProcedureSpec(kind="fbc", alpha=alpha, rejection_functions=curves))
        assert res.threshold == want.threshold
        assert res.m_at_T == want.m_at_T
        assert np.array_equal(res.rejected, want.rejected)


def test_fbc_all_ones_is_infeasible():
    n = 12
    curves = RejectionCurves(np.full(n, 0.5), np.full(n, 0.4))
    part = GroupPartition(labels=np.zeros(n, dtype=int), n_groups=1)
    [res] = fbc_group_threshold(np.ones(n), part, curves, 0.2)
    assert not res.feasible


def test_fbc_matches_handcrafted_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(4, 12))
        p = rng.uniform(size=n)
        curves = RejectionCurves(rng.uniform(0.2, 0.9, n), rng.uniform(0.1, 0.9, n))
        part = GroupPartition(labels=np.zeros(n, dtype=int), n_groups=1)
        alpha = float(rng.uniform(0.1, 0.6))
        [res] = fbc_group_threshold(p, part, curves, alpha)
        u = curves.at(p)
        v = curves.at(1.0 - p)
        t_up = (1.0 - 1e-9) * float(curves.at(0.5).min())
        want = brute_fbc_threshold(list(u), list(v), alpha, t_up)
        if want is None:
            assert not res.feasible
        else:
            assert res.threshold == pytest.approx(want)


# ---------------------------------------------------------------------------
# weights


def test_unit_weights_satisfy_group_budget():
    rng = np.random.default_rng(29)
    p = rng.uniform(size=30)
    part = GroupPartition(labels=np.arange(30) % 3, n_groups=3)
    curves = RejectionCurves(rng.uniform(0.3, 0.8, 30), rng.uniform(0.2, 0.8, 30))
    thr = fbc_group_threshold(p, part, curves, 0.3)
    w = structure_weights(p, part, curves, thr, "unit")
    assert np.all(w == 1.0)
    assert sum(part.sizes[g] * w[part.indices(g)].max() for g in range(3)) == 30


def test_single_fold_weights_reduce_to_unit():
    rng = np.random.default_rng(31)
    p = rng.uniform(size=20)
    part = GroupPartition(labels=np.zeros(20, dtype=int), n_groups=1)
    curves = RejectionCurves(rng.uniform(0.3, 0.8, 20), rng.uniform(0.2, 0.8, 20))
    thr = fbc_group_threshold(p, part, curves, 0.3)
    w = structure_weights(p, part, curves, thr, "cheap", alpha=0.3)
    assert np.allclose(w, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 30),
    G=st.integers(2, 3),
    shrink=st.sampled_from([1.0, 0.05, 1e-3]),
    halves=st.sampled_from([0, 0, 1, 2]),
    alpha=st.floats(0.05, 0.6),
    seed=st.integers(0, 2**31 - 1),
)
def test_prop_cheap_weights_match_their_definition(n, G, shrink, halves, alpha, seed):
    # w_i = (n / n_g) b_i / (b_i + sum_{h != g} count_h) for member i of fold g
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=n)
    p[: n // 3] *= shrink
    p[rng.permutation(n)[:halves]] = 0.5
    curves = RejectionCurves(rng.uniform(0.2, 0.9, n), rng.uniform(0.1, 0.9, n))
    part = GroupPartition(labels=rng.permutation(np.arange(n) % G), n_groups=G)
    thr = fbc_group_threshold(p, part, curves, alpha)
    w = structure_weights(p, part, curves, thr, "cheap", alpha=alpha)
    u, v = curves.at(p), curves.at(1.0 - p)
    folds, counts = [], []
    for h in range(G):
        idx = part.indices(h).tolist()
        t_up = (1.0 - 1e-9) * float(curves[idx].at(0.5).min())
        folds.append((idx, brute_fbc_threshold(u[idx], v[idx], alpha, t_up)))
        counts.append(brute_fbc_loo_count(u[idx], v[idx], alpha, t_up))
    for g, (idx, t) in enumerate(folds):
        cross = sum(counts) - counts[g]
        for i in idx:
            b = 1 + sum(1 for j in idx if j != i and t is not None and v[j] <= t)
            assert w[i] == (n / part.sizes[g]) * b / (b + cross)


def test_full_weights_are_gone():
    rng = np.random.default_rng(37)
    p = rng.uniform(size=20)
    part = GroupPartition(labels=np.arange(20) % 2, n_groups=2)
    curves = RejectionCurves(rng.uniform(0.3, 0.8, 20), rng.uniform(0.2, 0.8, 20))
    thr = fbc_group_threshold(p, part, curves, 0.1)
    with pytest.raises(ConfigurationError, match="unknown weight mode 'full'"):
        structure_weights(p, part, curves, thr, "full", alpha=0.1)
    with pytest.raises(ConfigurationError, match="unknown weight mode 'full'"):
        structure_pipeline(p, None, 0.1, mode="full")


def _fold_instance(n=30, G=3):
    rng = np.random.default_rng(73)
    part = GroupPartition(labels=np.arange(n) % G, n_groups=G)
    curves = RejectionCurves(rng.uniform(0.3, 0.8, n), rng.uniform(0.2, 0.8, n))
    return rng.uniform(size=n), part, curves


def test_fold_inputs_of_another_size_are_input_errors():
    p, part, curves = _fold_instance()
    thr = fbc_group_threshold(p, part, curves, 0.2)
    longer = np.concatenate([p, p[:10]])
    with pytest.raises(InputError, match="partition covers 30 hypotheses, got 40"):
        fbc_group_threshold(longer, part, curves, 0.2)
    with pytest.raises(InputError, match="partition covers 30 hypotheses, got 40"):
        structure_weights(longer, part, curves, thr, "cheap", alpha=0.2)
    with pytest.raises(InputError, match="curves cover 20 hypotheses, got 30"):
        fbc_group_threshold(p, part, curves[:20], 0.2)
    for mode in ("unit", "cheap"):
        with pytest.raises(InputError, match="curves cover 20 hypotheses, got 30"):
            structure_weights(p, part, curves[:20], thr, mode, alpha=0.2)
    # the fbc procedure on all hypotheses runs the same check
    spec = ProcedureSpec(kind="fbc", alpha=0.2, rejection_functions=curves[:20])
    with pytest.raises(InputError, match="curves cover 20 hypotheses, got 30"):
        solve_threshold(p, spec)


def test_fold_functions_refuse_curves_of_another_type():
    p, part, curves = _fold_instance()
    thr = fbc_group_threshold(p, part, curves, 0.2)
    scalar_curves = [lambda x, c=c: c * x for c in np.linspace(0.5, 1.5, 30)]
    for other in (scalar_curves, curves.pi, (curves.pi, curves.kappa)):
        with pytest.raises(ConfigurationError, match="must be RejectionCurves"):
            fbc_group_threshold(p, part, other, 0.2)
        for mode in ("unit", "cheap"):
            with pytest.raises(ConfigurationError, match="must be RejectionCurves"):
                structure_weights(p, part, other, thr, mode, alpha=0.2)


def test_fold_threshold_count_must_match_the_folds():
    p, part, curves = _fold_instance()
    thr = fbc_group_threshold(p, part, curves, 0.2)
    for wrong in (thr[:2], thr + thr[:1]):
        for mode in ("unit", "cheap"):
            message = f"got {len(wrong)} thresholds for a partition of 3 groups"
            with pytest.raises(InputError, match=message):
                structure_weights(p, part, curves, wrong, mode, alpha=0.2)


def test_fold_functions_refuse_a_memo_of_another_partition():
    p, part, curves = _fold_instance()
    thr = fbc_group_threshold(p, part, curves, 0.2)
    calls = {
        "cross_fit": lambda memo: cross_fit(memo, None, part),
        "fbc_group_threshold": lambda memo: fbc_group_threshold(memo, part, curves, 0.2),
        "structure_weights": lambda memo: structure_weights(memo, part, curves, thr, "cheap", alpha=0.2),
    }
    others = [
        procedures._Memo(p, GroupPartition(labels=np.arange(30) % 2, n_groups=2)),
        # an equal partition that is another object is another partition too
        procedures._Memo(p, GroupPartition(labels=np.arange(30) % 3, n_groups=3)),
        procedures._Memo.of(p, check=procedures.as_pvalues),
    ]
    for call in calls.values():
        call(procedures._Memo(p, part))  # the memo of part itself is used as is
        for memo in others:
            with pytest.raises(InputError, match="another partition"):
                call(memo)


@pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1])
def test_fold_level_outside_unit_interval_is_a_configuration_error(alpha):
    p, part, curves = _fold_instance()
    thr = fbc_group_threshold(p, part, curves, 0.2)
    with pytest.raises(ConfigurationError, match="fold level must lie in"):
        fbc_group_threshold(p, part, curves, alpha)
    with pytest.raises(ConfigurationError, match="fold level must lie in"):
        structure_weights(p, part, curves, thr, "cheap", alpha=alpha)


# ---------------------------------------------------------------------------
# full pipeline


def struct_instance(rng, n=600, a0=2.0, a1=1.5, a_f=1.0, mu=3.0):
    x = rng.normal(size=n)
    pi = 1.0 / (1.0 + np.exp(-(a0 + a1 * x)))
    theta = (rng.uniform(size=n) < 1.0 - pi).astype(int)
    x2 = rng.normal(size=n)
    eta = 2.0 * (1.0 / (1.0 + np.exp(-a_f * x2)))
    z = rng.normal(eta * mu * theta, 1.0)
    p = 1.0 - norm.cdf(z)
    return p, np.column_stack([x, x2]), theta


def test_pipeline_all_ones_rejects_nothing():
    n = 80
    p = np.ones(n)
    x = np.random.default_rng(0).normal(size=(n, 1))
    rej = run_structure_adaptive(p, x, 0.1, rng=np.random.default_rng(1))
    assert rej.size == 0


def test_pipeline_rejections_and_reproducibility():
    rng = np.random.default_rng(41)
    p, x, theta = struct_instance(rng)
    r1 = run_structure_adaptive(p, x, 0.1, rng=np.random.default_rng(5))
    r2 = run_structure_adaptive(p, x, 0.1, rng=np.random.default_rng(5))
    assert r1.tolist() == r2.tolist()
    # rejections only among per-fold candidates
    pipe = structure_pipeline(p, x, 0.1, rng=np.random.default_rng(5))
    eligible = set()
    for t in pipe["thresholds"]:
        eligible |= set(t.rejected.tolist())
    assert set(r1.tolist()) <= eligible


def test_pipeline_winsorization_bounds():
    rng = np.random.default_rng(43)
    p, x, _ = struct_instance(rng, n=400)
    pipe = structure_pipeline(p, x, 0.1, rng=np.random.default_rng(2))
    assert np.all(pipe["curves"].pi >= 0.1)
    assert np.all(pipe["curves"].pi <= 1.0 - 1e-5)


def test_fitted_model_curves_are_monotone():
    rng = np.random.default_rng(53)
    p, x = sample_working_model(rng, 3000, np.array([1.2, 0.8]), np.array([0.4, -0.6]))
    model = fit_lfdr_em(p, x)
    for _ in range(100):
        xi = rng.normal(size=(1, 1))
        p1, p2 = np.sort(rng.uniform(size=2))
        curves = model.curves(xi)
        assert curves.at(np.array([p1]))[0] <= curves.at(np.array([p2]))[0]


def test_fdr_control_without_covariate_information():
    # the covariates carry no signal information (flat pi, flat strength);
    # the cross-fitted pipeline must still keep the FDR at the target
    rng = np.random.default_rng(59)
    fdps = []
    for r in range(30):
        p, x, theta = struct_instance(
            rng, n=800, a0=2.5, a1=0.0, a_f=0.0, mu=3.0
        )
        rej = run_structure_adaptive(p, x, 0.1, rng=np.random.default_rng(r))
        fdps.append(fdp_power(rej, theta)[0])
    fdps = np.asarray(fdps)
    se = fdps.std(ddof=1) / np.sqrt(fdps.size)
    assert fdps.mean() <= 0.1 + 3 * max(se, 1e-12)


def _budget_instance(rng, covars):
    """(p, covariates, null mask) of one replicate of a null-budget check.

    ``None``: 60 uniform p-values.  ``"strong"``: a stress case for the
    fitted counts, n = 30 with one covariate that drives both the signal
    density and the signal strength, so the other folds' curves move with
    each fold's p-values."""
    if covars is None:
        n = 60
        return rng.uniform(size=n), None, np.ones(n, dtype=bool)
    n = 30
    x = rng.normal(size=n)
    theta = rng.uniform(size=n) < expit(-1.0 + 2.0 * x)
    p = norm.sf(rng.normal(theta * (1.5 + 1.5 * expit(2.0 * x)), 1.0))
    return p, x[:, None], ~theta


@pytest.mark.parametrize("covars", [None, "strong"])
def test_null_evalue_budget_for_unit_and_cheap(covars):
    # the null e-values of a valid weighting sum to at most n in expectation;
    # with covariates the cheap counts go through the fit and have no
    # guarantee by construction (see the adaptive docstring)
    rng = np.random.default_rng(47)
    reps = 400
    sums = {"unit": [], "cheap": []}
    for _ in range(reps):
        p, x, null = _budget_instance(rng, covars)
        n = p.size
        pipe = structure_pipeline(
            p, x, 0.2, rng=np.random.default_rng(int(rng.integers(1 << 31))),
        )
        part, curves, thr = pipe["partition"], pipe["curves"], pipe["thresholds"]
        for mode in sums:
            w = structure_weights(p, part, curves, thr, mode, alpha=pipe["alpha_fbc"])
            e = np.zeros(n)
            for g in range(part.n_groups):
                res = thr[g]
                if res.feasible:
                    e[res.rejected] = part.sizes[g] * w[res.rejected] / res.m_at_T
            sums[mode].append(e[null].sum())
    for mode, vals in sums.items():
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert vals.mean() <= n + 3 * se, mode


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("G", [2, 3])
def test_pipeline_scans_each_fold_once(monkeypatch, G):
    # every mirror scan ends in procedures._run_scan, and the fold scans
    # run only inside the two public fold functions
    calls = {
        "_run_scan": _count_calls(monkeypatch, procedures, "_run_scan"),
        "_fbc_scan": _count_calls(monkeypatch, groups, "_fbc_scan"),
    }
    for name in ("fbc_group_threshold", "structure_weights"):
        calls[name] = _count_calls(monkeypatch, adaptive, name)
    rng = np.random.default_rng(67)
    p, x, _ = struct_instance(rng, n=120)
    structure_pipeline(p, x, 0.1, mode="cheap", n_groups=G, rng=np.random.default_rng(3))
    counts = {name: len(got) for name, got in calls.items()}
    assert counts == {"_run_scan": G, "_fbc_scan": G, "fbc_group_threshold": 1, "structure_weights": 1}
    memo = calls["fbc_group_threshold"][0][0]
    assert isinstance(memo, procedures._Memo)
    assert calls["structure_weights"][0][0] is memo


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(12, 80),
    G=st.integers(2, 4),
    d=st.integers(0, 1),
    shrink=st.sampled_from([1.0, 0.05, 1e-3]),
    alpha=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_prop_pipeline_equals_its_public_stages(n, G, d, shrink, alpha, seed):
    # the pipeline is its public stages called in turn; here they run on arrays
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=n)
    p[: n // 4] *= shrink
    x = rng.normal(size=(n, d)) if d else None
    pipes = {
        mode: structure_pipeline(p, x, alpha, mode=mode, n_groups=G, rng=np.random.default_rng(seed))
        for mode in ("unit", "cheap")
    }
    part, alpha_fbc = pipes["unit"]["partition"], pipes["unit"]["alpha_fbc"]
    curves, models = cross_fit(p, x, part)
    thr = fbc_group_threshold(p, part, curves, alpha_fbc)
    for mode, pipe in pipes.items():
        assert np.array_equal(pipe["partition"].labels, part.labels)
        if d == 0:
            assert pipe["curves"] is None and curves is None
        else:
            assert pipe["curves"].pi.tobytes() == curves.pi.tobytes()
            assert pipe["curves"].kappa.tobytes() == curves.kappa.tobytes()
        assert len(pipe["models"]) == len(models)
        for a, b in zip(pipe["models"], models):
            assert a.beta_pi.tobytes() == b.beta_pi.tobytes()
            assert a.beta_kappa.tobytes() == b.beta_kappa.tobytes()
        assert len(pipe["thresholds"]) == len(thr) == G
        for a, b in zip(pipe["thresholds"], thr):
            assert (a.threshold, a.m_at_T, a.feasible) == (b.threshold, b.m_at_T, b.feasible)
            assert np.array_equal(a.rejected, b.rejected)
        w = structure_weights(p, part, curves, thr, mode, alpha=alpha_fbc)
        assert pipe["weights"].tobytes() == w.tobytes(), mode
        e = group_evalues(p, part, thr, w)
        assert pipe["evalues"].tobytes() == e.tobytes(), mode
        assert np.array_equal(pipe["rejected"], ebh_select(e, alpha)), mode


def _assert_grouped_path(p, alpha, G, seed):
    """Without covariates, the pipeline in both modes is the grouped path on
    its fold partition at the fold level, bit for bit."""
    for mode, scheme in (("unit", "unit"), ("cheap", "adaptive")):
        pipe = structure_pipeline(p, None, alpha, mode=mode, n_groups=G, rng=np.random.default_rng(seed))
        part, alpha_fbc = pipe["partition"], pipe["alpha_fbc"]
        thr = groupwise_bc_thresholds(p, part, alpha_fbc)
        w = assemble_weights(p, part, thr, scheme, alpha_fbc)
        e = group_evalues(p, part, thr, w)
        assert np.array_equal(pipe["rejected"], ebh_select(e, alpha)), mode
        for a, b in zip(pipe["thresholds"], thr, strict=True):
            assert (a.threshold, a.m_at_T, a.feasible) == (b.threshold, b.m_at_T, b.feasible)
            assert np.array_equal(a.rejected, b.rejected)
        assert pipe["weights"].tobytes() == w.tobytes(), mode
        assert pipe["evalues"].tobytes() == e.tobytes(), mode
        assert pipe["curves"] is None and pipe["models"] == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(12, 300),
    G=st.integers(2, 4),
    shrink=st.sampled_from([1.0, 0.05, 1e-3]),
    decimals=st.sampled_from([None, 2, 3]),
    alpha=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_prop_pipeline_without_covariates_is_the_grouped_path(n, G, shrink, decimals, alpha, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=n)
    p[: n // 4] *= shrink
    if decimals is not None:
        p = np.round(p, decimals)
    _assert_grouped_path(p, alpha, G, seed)


def test_pipeline_without_covariates_keeps_ties_of_the_stored_pvalues():
    # p rounded to 3 decimals: a fitted curve, evaluated in floating point,
    # could merge a rejection score with a mirror score that are distinct as
    # stored; the grouped path compares the stored values
    rng = np.random.default_rng(4)
    theta = rng.uniform(size=3000) < 0.2
    p = np.round(norm.sf(rng.normal(2.5 * theta, 1.0)), 3)
    _assert_grouped_path(p, 0.1, 2, 4)
