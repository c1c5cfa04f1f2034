"""End-to-end acceptance suite.

Each criterion prints one ``[acceptance NN] PASS/FAIL`` line (shown with
``pytest -s``, or in captured output on failure) and then asserts.
"""

import time

import numpy as np
import pytest

from evmt import (
    ProcedureSpec,
    ebh_select,
    fdp_power,
    procedure_to_evalues,
    solve_threshold,
)
from evmt.adaptive import (
    RejectionCurves,
    fit_lfdr_em,
    structure_pipeline,
    structure_weights,
)
from evmt.groups import (
    GroupPartition,
    assemble_weights,
    group_evalues,
    groupwise_bc_thresholds,
    run_grouped_ebh,
)
from evmt.hybrid import (
    HybridConfig,
    adaptive_weights,
    bc_evalues,
    bh_evalues,
    compute_loo_thresholds,
    fast_adaptive_weights,
    run_hybrid,
)
from evmt.knockoffs import knockoff_evalues
from evmt.procedures import _bc_scan, _mirror_scan
from evmt.simulate import SimulationConfig, generate, run_campaign, toy_two_group

from oracles import grid_search_loglik, random_pvalues, sample_working_model


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _se(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / np.sqrt(values.size))


# ---------------------------------------------------------------------------
# 1. procedure <-> e-value selection equivalence


def test_criterion_01_equivalence_suite():
    rng = np.random.default_rng(20240801)
    start = time.monotonic()
    mismatches = 0
    for kind in ("bh", "storey", "bc", "fbc"):
        for _ in range(1000):
            p = random_pvalues(rng)
            alpha = float(rng.uniform(0.02, 0.5))
            if kind == "fbc":
                curves = RejectionCurves(
                    rng.uniform(0.2, 0.9, p.size), rng.uniform(0.1, 0.9, p.size)
                )
                spec = ProcedureSpec(kind=kind, alpha=alpha, rejection_functions=curves)
            else:
                spec = ProcedureSpec(kind=kind, alpha=alpha)
            res = solve_threshold(p, spec)
            evalues = procedure_to_evalues(p, spec, res)
            selected = ebh_select(evalues, alpha) if evalues.any() else []
            if set(selected) != set(res.rejected.tolist()):
                mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "equivalence suite",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches}/4000 runtime={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. two-group toy exactness


def test_criterion_02_toy_exactness():
    pvals, part, _ = toy_two_group()
    unit = run_grouped_ebh(pvals, part, 0.05, scheme="unit")
    ada = run_grouped_ebh(pvals, part, 0.05, scheme="adaptive")
    ok = unit.rejected.size == 0 and ada.rejected.size == 40
    _report(
        2,
        "toy example exactness",
        ok,
        f"unit={unit.rejected.size} adaptive={ada.rejected.size}",
    )


# ---------------------------------------------------------------------------
# 3. / 4. two-group benchmark tables


@pytest.fixture(scope="module")
def e1_report():
    cfg = SimulationConfig(setting="E1", replications=1000, seed=101)
    return run_campaign(cfg, ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"])


@pytest.fixture(scope="module")
def e2_report():
    cfg = SimulationConfig(setting="E2", replications=1000, seed=102)
    return run_campaign(cfg, ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"])


def test_criterion_03_setting_e1(e1_report):
    ada = e1_report.methods["eBH_Ada"]
    bc_sep = e1_report.methods["BC_Sep"]
    ebh1 = e1_report.methods["eBH_1"]
    checks = {
        "ada_pow": abs(ada["power"] - 0.212) <= 0.05,
        "ada_fdr": abs(ada["fdr"] - 0.027) <= 0.02,
        "bcsep_fdr": abs(bc_sep["fdr"] - 0.060) <= 0.02,
        "ebh1_pow1": ebh1["group_power"][0] <= 0.01,
    }
    _report(
        3,
        "setting E1 benchmarks",
        all(checks.values()),
        f"eBH_Ada=({ada['power']:.3f},{ada['fdr']:.3f}) "
        f"BC_Sep_fdr={bc_sep['fdr']:.3f} eBH_1_pow1={ebh1['group_power'][0]:.3f} "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_04_setting_e2(e2_report):
    ada = e2_report.methods["eBH_Ada"]
    bc_com = e2_report.methods["BC_Com"]
    checks = {
        "bccom_fdr2": abs(bc_com["group_fdr"][1] - 0.062) <= 0.02,
        "ada_pow": abs(ada["power"] - 0.289) <= 0.05,
        "ada_fdr": abs(ada["fdr"] - 0.038) <= 0.02,
    }
    _report(
        4,
        "setting E2 benchmarks",
        all(checks.values()),
        f"BC_Com_fdr2={bc_com['group_fdr'][1]:.3f} "
        f"eBH_Ada=({ada['power']:.3f},{ada['fdr']:.3f}) "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


# ---------------------------------------------------------------------------
# 5. / 6. hybrid orderings and fast-mode fidelity


def _score_methods(instance, alpha):
    out = {}
    p = instance.pvals
    for name, kind in (("BH", "bh"), ("BC", "bc")):
        res = solve_threshold(p, ProcedureSpec(kind=kind, alpha=alpha))
        out[name] = res.rejected
    for name, mode in (("eBH_Ave", "averaged"), ("eBH_Ada", "adaptive"), ("fast", "fast")):
        out[name] = run_hybrid(p, HybridConfig(alpha_ebh=alpha, weight_mode=mode))
    return out


def _hybrid_campaign(setting, seed, reps=500):
    cfg = SimulationConfig(setting=setting, replications=reps, seed=seed)
    power = {m: [] for m in ("BH", "BC", "eBH_Ave", "eBH_Ada", "fast")}
    fdp = {m: [] for m in power}
    agree = 0
    gaps = []
    for r in range(reps):
        inst = generate(cfg, r)
        rejected = _score_methods(inst, cfg.target_alpha)
        for name, rej in rejected.items():
            f, w = fdp_power(rej, inst.truth)
            fdp[name].append(f)
            power[name].append(w)
        agree += set(rejected["eBH_Ada"].tolist()) == set(rejected["fast"].tolist())
        gaps.append(abs(power["eBH_Ada"][-1] - power["fast"][-1]))
    return {
        "power": {m: np.asarray(v) for m, v in power.items()},
        "fdp": {m: np.asarray(v) for m, v in fdp.items()},
        "agreement": agree / reps,
        "power_gap": float(np.mean(gaps)),
    }


@pytest.fixture(scope="module")
def s1_runs():
    return _hybrid_campaign("S1", seed=103)


@pytest.fixture(scope="module")
def s2_runs():
    return _hybrid_campaign("S2", seed=104)


def test_criterion_05_hybrid_orderings(s1_runs, s2_runs):
    p1 = {m: float(v.mean()) for m, v in s1_runs["power"].items()}
    p2 = {m: float(v.mean()) for m, v in s2_runs["power"].items()}
    fdr_ok = True
    for runs in (s1_runs, s2_runs):
        for m in ("BH", "BC", "eBH_Ave", "eBH_Ada", "fast"):
            vals = runs["fdp"][m]
            fdr_ok &= vals.mean() <= 0.05 + 3 * _se(vals)
    checks = {
        "s1_ada_vs_bh": p1["eBH_Ada"] >= p1["BH"] - 0.05,
        "s1_ada_vs_ave": p1["eBH_Ada"] >= p1["eBH_Ave"],
        "s2_bc_vs_ada": p2["BC"] >= p2["eBH_Ada"],
        "s2_ada_vs_bh": p2["eBH_Ada"] >= p2["BH"],
        "fdr_control": fdr_ok,
    }
    _report(
        5,
        "hybrid power orderings",
        all(checks.values()),
        f"S1 power BH={p1['BH']:.3f} Ada={p1['eBH_Ada']:.3f} Ave={p1['eBH_Ave']:.3f}; "
        f"S2 power BC={p2['BC']:.3f} Ada={p2['eBH_Ada']:.3f} BH={p2['BH']:.3f}; "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_06_fast_mode_fidelity(s1_runs):
    ok = s1_runs["agreement"] >= 0.95 and s1_runs["power_gap"] <= 0.01
    _report(
        6,
        "fast adaptive fidelity",
        ok,
        f"agreement={s1_runs['agreement']:.3f} mean|power gap|={s1_runs['power_gap']:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. covariate-adaptive power and FDR


def test_criterion_07_structure_adaptive():
    cfg = SimulationConfig(setting="STRUCT", replications=100, seed=105, target_alpha=0.1)
    report = run_campaign(cfg, ["BH", "eBH_FBC"])
    fbc = report.methods["eBH_FBC"]
    bh = report.methods["BH"]
    fdr_ok = fbc["fdr"] <= 0.1 + 3 * fbc["fdr_se"]
    power_ok = fbc["power"] > bh["power"]
    _report(
        7,
        "covariate-adaptive benchmark",
        fdr_ok and power_ok,
        f"eBH_FBC=({fbc['power']:.3f},{fbc['fdr']:.3f}) BH_power={bh['power']:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. null e-value budgets (10,000 replications each)


def test_criterion_08_null_evalue_budgets():
    reps = 10_000
    details = []
    ok = True

    # grouped assembly, three schemes
    rng = np.random.default_rng(106)
    n = 40
    part = GroupPartition.from_sizes([20, 20])
    sums = {"unit": np.empty(reps), "size": np.empty(reps), "adaptive": np.empty(reps)}
    for r in range(reps):
        p = rng.uniform(size=n)
        thr = groupwise_bc_thresholds(p, part, 0.1)
        for scheme in sums:
            w = assemble_weights(p, part, thr, scheme, alpha=0.1)
            sums[scheme][r] = group_evalues(p, part, thr, w).sum()
    for scheme, vals in sums.items():
        bound = n + 3 * _se(vals)
        ok &= vals.mean() <= bound
        details.append(f"group/{scheme}={vals.mean():.2f}<= {bound:.2f}")

    # hybrid, both adaptive modes
    rng = np.random.default_rng(107)
    n = 30
    cfg = HybridConfig(alpha_ebh=0.1, weight_mode="adaptive")
    sums = {"adaptive": np.empty(reps), "fast": np.empty(reps)}
    for r in range(reps):
        p = rng.uniform(size=n)
        e_bh = bh_evalues(p, cfg.alpha_bh)
        e_bc = bc_evalues(p, cfg.alpha_bc)
        loo = compute_loo_thresholds(p, cfg.alpha_bh, cfg.alpha_bc)
        w_bh, w_bc = adaptive_weights(p, loo)
        sums["adaptive"][r] = (w_bh * e_bh + w_bc * e_bc).sum()
        w_bh, w_bc = fast_adaptive_weights(p, loo)
        sums["fast"][r] = (w_bh * e_bh + w_bc * e_bc).sum()
    for mode, vals in sums.items():
        bound = n + 3 * _se(vals)
        ok &= vals.mean() <= bound
        details.append(f"hybrid/{mode}={vals.mean():.2f}<= {bound:.2f}")

    # cross-fitted structure weights, unit and cheap
    rng = np.random.default_rng(108)
    n = 60
    sums = {"unit": np.empty(reps), "cheap": np.empty(reps)}
    for r in range(reps):
        p = rng.uniform(size=n)
        pipe = structure_pipeline(
            p, None, 0.2, rng=np.random.default_rng(int(rng.integers(1 << 31))),
        )
        part2, curves, thr = pipe["partition"], pipe["curves"], pipe["thresholds"]
        for mode in sums:
            w = structure_weights(p, part2, curves, thr, mode, alpha=pipe["alpha_fbc"])
            e = np.zeros(n)
            for g in range(part2.n_groups):
                res = thr[g]
                if res.feasible:
                    e[res.rejected] = part2.sizes[g] * w[res.rejected] / res.m_at_T
            sums[mode][r] = e.sum()
    for mode, vals in sums.items():
        bound = n + 3 * _se(vals)
        ok &= vals.mean() <= bound
        details.append(f"structure/{mode}={vals.mean():.2f}<= {bound:.2f}")

    # knockoff e-values under sign-symmetric nulls
    rng = np.random.default_rng(109)
    n = 80
    vals = np.empty(reps)
    for r in range(reps):
        w = rng.choice([-1.0, 1.0], size=n) * np.abs(rng.normal(size=n))
        vals[r] = knockoff_evalues(w, 0.2).sum()
    bound = n + 3 * _se(vals)
    ok &= vals.mean() <= bound
    details.append(f"knockoff={vals.mean():.2f}<= {bound:.2f}")

    _report(8, "null e-value budgets", ok, " ".join(details))


# ---------------------------------------------------------------------------
# 9. leave-one-out threshold identities


def _probe_instance(rng):
    """Instances whose censored thresholds reach the near-1 block, so the
    identity's precondition triggers at a useful rate."""
    n_small = int(rng.integers(8, 16))
    n_big = int(rng.integers(2, 6))
    n_mid = int(rng.integers(0, 8))
    return np.concatenate(
        [
            rng.uniform(0.0, 0.04, size=n_small),
            rng.uniform(0.82, 0.995, size=n_big),
            rng.uniform(0.3, 0.7, size=n_mid),
        ]
    )


def test_criterion_09_loo_identities():
    rng = np.random.default_rng(110)
    violations = triggered = 0
    for _ in range(10_000):
        p = _probe_instance(rng)
        alpha = float(rng.uniform(0.4, 0.8))
        big = np.nonzero(p > 0.8)[0]
        i, j = rng.choice(big, size=2, replace=False)
        thr = {}
        for k in (int(i), int(j)):
            q = p.copy()
            q[k] = min(q[k], 1.0 - q[k])
            thr[k] = _bc_scan(q, alpha).threshold
        ti, tj = thr[int(i)], thr[int(j)]
        if ti is None or tj is None:
            continue
        if min(p[i], p[j]) >= 1.0 - max(ti, tj):
            triggered += 1
            violations += ti != tj
    detail_bc = f"plain: triggered={triggered} violations={violations}"
    ok = violations == 0 and triggered >= 500

    rng = np.random.default_rng(111)
    violations2 = triggered2 = 0
    for _ in range(10_000):
        p = _probe_instance(rng)
        n = p.size
        curves = RejectionCurves(rng.uniform(0.2, 0.9, n), rng.uniform(0.1, 0.9, n))
        alpha = float(rng.uniform(0.4, 0.8))
        u = curves.at(p)
        v = curves.at(1.0 - p)
        t_up = (1.0 - 1e-9) * float(curves.at(0.5).min())
        big = np.nonzero(p > 0.8)[0]
        i, j = (int(x) for x in rng.choice(big, size=2, replace=False))
        thr = {}
        for k in (i, j):
            pc = min(p[k], 1.0 - p[k])
            u2, v2 = u.copy(), v.copy()
            u2[k] = curves[k : k + 1].at(np.array([pc]))[0]
            v2[k] = curves[k : k + 1].at(np.array([1.0 - pc]))[0]
            thr[k] = _mirror_scan(u2, v2, alpha, t_max=t_up, inclusive=True).threshold
        ti, tj = thr[i], thr[j]
        if ti is None or tj is None:
            continue
        if max(v[i], v[j]) <= max(ti, tj):
            triggered2 += 1
            violations2 += ti != tj
    ok &= violations2 == 0 and triggered2 >= 500
    _report(
        9,
        "leave-one-out identities",
        ok,
        f"{detail_bc}; curves: triggered={triggered2} violations={violations2}",
    )


# ---------------------------------------------------------------------------
# 10. mixture-fit quality


def test_criterion_10_em_quality():
    rng = np.random.default_rng(112)
    beta_pi = np.array([1.0, 0.7])
    beta_kappa = np.array([0.5, -0.4])
    p, x = sample_working_model(rng, 50_000, beta_pi, beta_kappa)
    model = fit_lfdr_em(p, x)
    err_pi = np.abs(model.beta_pi - beta_pi).max()
    err_kappa = np.abs(model.beta_kappa - beta_kappa).max()

    rng = np.random.default_rng(0)
    p0 = rng.uniform(size=2000)
    model0 = fit_lfdr_em(p0, None)
    gap = abs(model0.loglik - grid_search_loglik(p0))

    ok = err_pi < 0.1 and err_kappa < 0.1 and gap <= 1e-3
    _report(
        10,
        "mixture fit quality",
        ok,
        f"max|d_beta_pi|={err_pi:.4f} max|d_beta_kappa|={err_kappa:.4f} "
        f"grid-oracle gap={gap:.2e}",
    )
