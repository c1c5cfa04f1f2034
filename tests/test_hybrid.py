import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import ConfigurationError, InvariantError, ebh_select, fdp_power
from evmt.hybrid import (
    HybridConfig,
    _bh_loo,
    _bh_weight,
    _hybrid_evalues,
    adaptive_weights,
    bc_evalues,
    bh_evalues,
    compute_loo_thresholds,
    fast_adaptive_weights,
    run_hybrid,
)
from evmt.procedures import _relaxed_plateau

from oracles import (
    EDGE,
    brute_bc_loo_threshold,
    brute_bc_threshold,
    brute_bc_zeroed_loo_threshold,
    brute_bh,
    brute_loo_mirror_count,
    random_pvalues,
)


def t_bh_loo(loo):
    """Step-up threshold of the censored vector with entry i zeroed, for all i."""
    return _bh_loo(loo, np.minimum(loo.pvals, 1.0 - loo.pvals))


def grid_positions(loo):
    """Grid position of each censored score, #{k : cands[k] < min(p_i, 1 - p_i)}."""
    return loo._scan.grid.cands.searchsorted(np.minimum(loo.pvals, 1.0 - loo.pvals), "left")


def brute_bh_plateau(values, alpha):
    """BH threshold as the plateau supremum k_hat * alpha / n."""
    khat, _ = brute_bh(list(values), alpha)
    return khat * alpha / len(values)


def brute_zeroed_mirror_count(p, alpha_bc, i):
    """s_i: mirrors j != i reached by their censored threshold with p_i zeroed."""
    s_i = 0
    for j in range(len(p)):
        if j == i:
            continue
        t_ji = brute_bc_zeroed_loo_threshold(list(p), alpha_bc, j, i)
        if t_ji is not None and 1.0 - p[j] <= t_ji:
            s_i += 1
    return s_i


def brute_own_mirror_bound(p, alpha_bc, i):
    """b_i: 1 + mirrors j != i of the BC run with p_i set to 0 (0 if infeasible)."""
    zeroed = list(p)
    zeroed[i] = 0.0
    t0 = brute_bc_threshold(zeroed, alpha_bc)
    if t0 is None:
        return 0
    return 1 + sum(1 for j, x in enumerate(p) if j != i and 1.0 - x <= t0)


def brute_adaptive_weights(p, alpha_bh, alpha_bc):
    """Adaptive weight pair by exhaustive leave-one-out recomputation.

    w_bc_i = 1{d_i > n M} and w_bh_i = 1{c_i - 1 <= n t_bh_loo[i]} with
    c_i = max(s_i, b_i), M = max_j t_bh_loo[j].
    """
    n = len(p)
    censored = [min(x, 1.0 - x) for x in p]
    t_bh_loo = []
    for i in range(n):
        mod = list(censored)
        mod[i] = 0.0
        t_bh_loo.append(brute_bh_plateau(mod, alpha_bh))
    t_bc = brute_bc_threshold(list(p), alpha_bc)
    d = sum(1 for x in p if t_bc is not None and 1.0 - x <= t_bc)
    w_bh, w_bc = [], []
    for i in range(n):
        c_i = max(brute_zeroed_mirror_count(p, alpha_bc, i), brute_own_mirror_bound(p, alpha_bc, i))
        w_bh.append(1.0 if c_i - 1 <= n * t_bh_loo[i] else 0.0)
        d_i = d - (1 if t_bc is not None and 1.0 - p[i] <= t_bc else 0)
        w_bc.append(1.0 if d_i > n * max(t_bh_loo) else 0.0)
    return np.array(w_bh), np.array(w_bc)


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    ave = HybridConfig(alpha_ebh=0.05, weight_mode="averaged")
    assert ave.alpha_bh == ave.alpha_bc == pytest.approx(0.025)
    ada = HybridConfig(alpha_ebh=0.05, weight_mode="adaptive")
    assert ada.alpha_bh == ada.alpha_bc == pytest.approx(0.05 / 1.05)
    for alias in ("fast", "fast_adaptive"):
        cfg = HybridConfig(alpha_ebh=0.05, weight_mode=alias)
        assert cfg.weight_mode == "adaptive"
        assert cfg.alpha_bh == pytest.approx(0.05 / 1.05)
    assert fast_adaptive_weights is adaptive_weights
    with pytest.raises(ConfigurationError):
        HybridConfig(alpha_ebh=1.2)
    with pytest.raises(ConfigurationError):
        HybridConfig(alpha_ebh=0.05, weight_mode="nope")
    with pytest.raises(ConfigurationError):
        HybridConfig(alpha_ebh=0.05, alpha_bh=0.0)


# ---------------------------------------------------------------------------
# base e-values


def test_bh_evalues_example():
    e = bh_evalues([0.01, 0.02, 0.04, 0.9], 0.05)
    assert e.tolist() == [40.0, 40.0, 0.0, 0.0]


def test_bh_evalues_all_ones():
    assert np.all(bh_evalues(np.ones(6), 0.05) == 0.0)


def test_bh_evalues_equivalence_with_single_signal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0.2, 1.0, size=40)
        p[0] = 1e-5
        alpha = float(rng.uniform(0.02, 0.3))
        e = bh_evalues(p, alpha)
        _, expected = brute_bh(list(p), alpha)
        assert set(ebh_select(e, alpha)) == expected if e.any() else not expected


def test_bc_evalues_examples():
    e = bc_evalues([0.01, 0.02, 0.03, 0.9], 0.34)
    assert e.tolist() == [4.0, 4.0, 4.0, 0.0]
    assert np.all(bc_evalues(np.ones(4), 0.2) == 0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_pvalues(rng, 30)
        alpha = float(rng.uniform(0.05, 0.5))
        e = bc_evalues(p, alpha)
        t = brute_bc_threshold(list(p), alpha)
        want = {i for i, x in enumerate(p) if t is not None and x <= t}
        got = set(ebh_select(e, alpha)) if e.any() else set()
        assert got == want


# ---------------------------------------------------------------------------
# leave-one-out thresholds


def test_bh_loo_vector_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(80):
        p = random_pvalues(rng, int(rng.integers(2, 40)))
        alpha = float(rng.uniform(0.02, 0.5))
        loo = compute_loo_thresholds(p, alpha, alpha)
        censored = np.minimum(p, 1.0 - p)
        t = t_bh_loo(loo)
        for i in range(p.size):
            mod = censored.copy()
            mod[i] = 0.0
            assert t[i] == pytest.approx(brute_bh_plateau(mod, alpha))


def test_bc_loo_vector_matches_brute_force():
    # D* = #{j : p_j >= 1 - t_bc_loo[j]} is the mirror count at the relaxed
    # plateau of the scan the leave-one-out thresholds hold, whose index and
    # candidate they keep
    rng = np.random.default_rng(5)
    for _ in range(120):
        p = random_pvalues(rng, int(rng.integers(2, 35)))
        alpha = float(rng.uniform(0.05, 0.6))
        loo = compute_loo_thresholds(p, alpha, alpha)
        k, mstar, count = _relaxed_plateau(loo._scan.grid, alpha)
        assert (loo._k_relaxed, loo._mstar) == (k, mstar)
        assert count == brute_loo_mirror_count(list(p), alpha)


def test_bc_loo2_monotone_and_exact():
    # the exact weights read the zeroed relaxed plateau off the base grid;
    # that is sound because zeroing p_i can move the plateau's grid
    # representative but never drops j's own mirror indicator
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = random_pvalues(rng, int(rng.integers(3, 20)))
        alpha = float(rng.uniform(0.1, 0.6))
        for j in range(p.size):
            base = brute_bc_loo_threshold(list(p), alpha, j)
            if base is None or not 1.0 - p[j] <= base:
                continue
            for i in range(p.size):
                if i != j:
                    zeroed = brute_bc_zeroed_loo_threshold(list(p), alpha, j, i)
                    assert zeroed is not None and 1.0 - p[j] <= zeroed


_EDGE_PVALUES = st.lists(EDGE | st.floats(0.0, 1.0), min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(p=_EDGE_PVALUES, a_bh=st.floats(0.005, 0.6), a_bc=st.floats(0.05, 0.7))
def test_prop_loo_thresholds_equal_their_definitions(p, a_bh, a_bc):
    q = np.array(p)
    loo = compute_loo_thresholds(q, a_bh, a_bc)
    censored = np.minimum(q, 1.0 - q)
    t = t_bh_loo(loo)
    for i in range(q.size):
        zeroed = censored.copy()
        zeroed[i] = 0.0
        assert t[i] == brute_bh_plateau(zeroed, a_bh)
    cands = loo._scan.grid.cands
    assert grid_positions(loo).tolist() == [int(np.sum(cands < c)) for c in censored]


# ---------------------------------------------------------------------------
# adaptive weights


def test_adaptive_weights_match_exhaustive_recomputation():
    p = np.array([0.001, 0.002, 0.5, 0.999])
    loo = compute_loo_thresholds(p, 0.1, 0.1)
    w_bh, w_bc = adaptive_weights(p, loo)
    want_bh, want_bc = brute_adaptive_weights(list(p), 0.1, 0.1)
    assert np.allclose(w_bh, want_bh)
    assert np.allclose(w_bc, want_bc)

    rng = np.random.default_rng(11)
    for _ in range(25):
        q = random_pvalues(rng, int(rng.integers(2, 14)))
        a = float(rng.uniform(0.05, 0.5))
        loo = compute_loo_thresholds(q, a, a)
        w_bh, w_bc = adaptive_weights(q, loo)
        want_bh, want_bc = brute_adaptive_weights(list(q), a, a)
        assert np.allclose(w_bh, want_bh)
        assert np.allclose(w_bc, want_bc)

    # separate base levels put both weights on both sides of their cut
    seen = set()
    for _ in range(40):
        q = random_pvalues(rng, int(rng.integers(4, 14)))
        a_bh, a_bc = float(rng.uniform(0.005, 0.1)), float(rng.uniform(0.2, 0.7))
        loo = compute_loo_thresholds(q, a_bh, a_bc)
        w_bh, w_bc = adaptive_weights(q, loo)
        want_bh, want_bc = brute_adaptive_weights(list(q), a_bh, a_bc)
        assert np.array_equal(w_bh, want_bh)
        assert np.array_equal(w_bc, want_bc)
        seen |= {("bh", x) for x in w_bh} | {("bc", x) for x in w_bc}
    assert seen == {("bh", 0.0), ("bh", 1.0), ("bc", 0.0), ("bc", 1.0)}


_TIED = st.sampled_from([0.0, 0.001, 0.01, 0.02, 0.05, 0.3, 0.5, 0.7, 0.95, 0.98, 0.99, 0.999, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(_TIED | st.floats(0.0, 1.0), min_size=1, max_size=12),
    a_bh=st.floats(0.005, 0.5),
    a_bc=st.floats(0.05, 0.7),
)
def test_prop_exact_weights_match_exhaustive_recomputation(p, a_bh, a_bc):
    q = np.array(p)
    w_bh, w_bc = adaptive_weights(q, compute_loo_thresholds(q, a_bh, a_bc))
    want_bh, want_bc = brute_adaptive_weights(p, a_bh, a_bc)
    assert np.array_equal(w_bh, want_bh)
    assert np.array_equal(w_bc, want_bc)


def test_mirror_bound_is_supremum_of_loo_mirror_count():
    # c_i = max(s_i, b_i) must dominate D* for every value of p_i (the BH
    # weight may not look at p_i), and is attained at p_i = 0 or p_i -> 1
    rng = np.random.default_rng(37)
    for _ in range(30):
        p = random_pvalues(rng, int(rng.integers(3, 9)))
        a = float(rng.uniform(0.15, 0.6))
        i = int(rng.integers(p.size))
        bound = max(brute_zeroed_mirror_count(list(p), a, i), brute_own_mirror_bound(list(p), a, i))
        sweep = [0.0, 1.0 - 1e-12, 0.5] + [x for j, x in enumerate(p) if j != i]
        sweep += [1.0 - x for j, x in enumerate(p) if j != i] + list(rng.uniform(size=5))
        counts = []
        for v in sweep:
            q = p.copy()
            q[i] = v
            counts.append(brute_loo_mirror_count(list(q), a))
        assert max(counts) == bound


def test_weights_are_exclusive_on_shared_rejections():
    # where both base procedures reject, the blend carries one e-value whole
    rng = np.random.default_rng(41)
    for _ in range(300):
        p = random_pvalues(rng, int(rng.integers(2, 60)))
        a = float(rng.uniform(0.05, 0.5))
        loo = compute_loo_thresholds(p, a, a)
        both = (bh_evalues(p, a) > 0) & (bc_evalues(p, a) > 0)
        w_bh, w_bc = adaptive_weights(p, loo)
        assert np.all(w_bh[both] + w_bc[both] <= 1.0)


def test_invariant_checks_survive_optimisation():
    # the guard is an explicit check, not an assert that python -O strips
    p = np.array([0.001, 0.002, 0.003, 0.004, 0.9, 0.95])
    loo = compute_loo_thresholds(p, 0.4, 0.4)
    assert loo._mstar is not None
    # a base plateau beyond the grid: every zeroed plateau seems to shrink it
    grown = replace(loo, _mstar=float(loo._scan.grid.cands[-1]) + 1.0)
    with pytest.raises(InvariantError):
        adaptive_weights(p, grown)
    # under -O it still fires for each corrupt plateau, for every single
    # hypothesis and for none
    code = (
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "from evmt import InvariantError\n"
        "from evmt.hybrid import _bh_weight, compute_loo_thresholds\n"
        "p = np.array([0.001, 0.002, 0.003, 0.004, 0.9, 0.95])\n"
        "loo = compute_loo_thresholds(p, 0.4, 0.4)\n"
        "cands, k = loo._scan.grid.cands, loo._k_relaxed\n"
        "fired = 0\n"
        "for mstar in (float(cands[-1]) + 1.0, float(cands[k - 1])):\n"
        "    for at in [[i] for i in range(p.size)] + [[]]:\n"
        "        try:\n"
        "            _bh_weight(replace(loo, _mstar=mstar), np.array(at, dtype=np.intp))\n"
        "        except InvariantError:\n"
        "            fired += 1\n"
        "raise SystemExit(0 if fired == 2 * (p.size + 1) else 1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert run.returncode == 0


def test_invariant_guard_fires_for_one_hypothesis():
    # the guard is one check on the grid: it fires whichever hypotheses,
    # one or none, the weights are asked for
    p = np.array([0.001, 0.002, 0.003, 0.004, 0.9, 0.95])
    loo = compute_loo_thresholds(p, 0.4, 0.4)
    cands, k = loo._scan.grid.cands, loo._k_relaxed
    assert k >= 1
    for mstar in (float(cands[-1]) + 1.0, float(cands[k - 1])):
        corrupt = replace(loo, _mstar=mstar)
        for at in [[i] for i in range(p.size)] + [[]]:
            with pytest.raises(InvariantError, match="relaxed plateau"):
                _bh_weight(corrupt, np.array(at, dtype=np.intp))


_BLEND_PVALUES = st.lists(EDGE | _TIED | st.floats(0.0, 1.0), min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(
    p=_BLEND_PVALUES,
    alpha=st.floats(0.01, 0.5),
    a_bh=st.none() | st.floats(0.005, 0.7),
    a_bc=st.none() | st.floats(0.05, 0.7),
    data=st.data(),
)
def test_prop_blend_weights_are_the_adaptive_weights_on_the_bh_rejections(p, alpha, a_bh, a_bc, data):
    # the blend evaluates the BH weight only where a BH e-value is nonzero;
    # there, and at any other subset, it equals the weight over every index
    q = np.array(p)
    cfg = HybridConfig(alpha_ebh=alpha, alpha_bh=a_bh, alpha_bc=a_bc)
    _, w_bh, w_bc = _hybrid_evalues(q, cfg)
    loo = compute_loo_thresholds(q, cfg.alpha_bh, cfg.alpha_bc)
    want_bh, want_bc = adaptive_weights(q, loo)
    rejected = bh_evalues(q, cfg.alpha_bh) > 0
    assert w_bh.tobytes() == np.where(rejected, want_bh, 0.0).tobytes()
    assert w_bc.tobytes() == want_bc.tobytes()
    assert loo.t_bh_max == t_bh_loo(loo).max()
    at = np.array(data.draw(st.lists(st.integers(0, q.size - 1), max_size=q.size)), dtype=np.intp)
    assert np.array_equal(_bh_weight(loo, at), want_bh[at])
    if q.size <= 12:
        brute_bh, brute_bc = brute_adaptive_weights(p, cfg.alpha_bh, cfg.alpha_bc)
        assert np.array_equal(want_bh, brute_bh)
        assert np.array_equal(w_bh, np.where(rejected, brute_bh, 0.0))
        assert np.array_equal(w_bc, brute_bc)


def test_bh_weight_is_zero_without_bh_evalue():
    rng = np.random.default_rng(47)
    for _ in range(50):
        p = random_pvalues(rng, int(rng.integers(2, 60)))
        cfg = HybridConfig(alpha_ebh=0.1, weight_mode="adaptive")
        _, w_bh, _ = _hybrid_evalues(p, cfg)
        assert np.all(w_bh[bh_evalues(p, cfg.alpha_bh) == 0.0] == 0.0)


def test_weights_lie_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = random_pvalues(rng, int(rng.integers(2, 40)))
        a = float(rng.uniform(0.02, 0.5))
        loo = compute_loo_thresholds(p, a, a)
        w_bh, w_bc = adaptive_weights(p, loo)
        assert np.all(w_bh >= 0.0) and np.all(w_bh <= 1.0)
        assert np.all(w_bc >= 0.0) and np.all(w_bc <= 1.0)


# ---------------------------------------------------------------------------
# full pipeline


def test_all_ones_rejects_nothing_every_mode():
    p = np.ones(20)
    for mode in ("averaged", "adaptive"):
        assert run_hybrid(p, HybridConfig(alpha_ebh=0.05, weight_mode=mode)).size == 0


def test_degenerate_inputs_are_total():
    inputs = [
        np.full(15, 0.5),
        np.zeros(10),
        np.sort(np.linspace(0.0, 1.0, 17)),
        np.repeat([0.01, 0.5, 0.99], 6),
    ]
    for p in inputs:
        for mode in ("averaged", "adaptive"):
            run_hybrid(p, HybridConfig(alpha_ebh=0.1, weight_mode=mode))


def test_adaptive_sits_between_base_procedures_on_dense_signals():
    # dense moderate signals: the mirror procedure dominates, the blend
    # tracks it far better than the fixed average, and stays bounded by it
    rng = np.random.default_rng(23)
    from scipy.stats import norm

    from evmt import ProcedureSpec, solve_threshold

    pow_bh, pow_bc, pow_ada, pow_ave = [], [], [], []
    for _ in range(60):
        n, n_alt = 1200, 300
        x = rng.normal(size=n)
        x[:n_alt] = rng.normal(2.3, 0.4, size=n_alt)
        p = 1.0 - norm.cdf(x)
        truth = np.zeros(n, dtype=int)
        truth[:n_alt] = 1
        bh = solve_threshold(p, ProcedureSpec(kind="bh", alpha=0.05))
        pow_bh.append(fdp_power(bh.rejected, truth)[1])
        bc = solve_threshold(p, ProcedureSpec(kind="bc", alpha=0.05))
        pow_bc.append(fdp_power(bc.rejected, truth)[1])
        ada = run_hybrid(p, HybridConfig(alpha_ebh=0.05, weight_mode="adaptive"))
        pow_ada.append(fdp_power(ada, truth)[1])
        ave = run_hybrid(p, HybridConfig(alpha_ebh=0.05, weight_mode="averaged"))
        pow_ave.append(fdp_power(ave, truth)[1])
    assert np.mean(pow_bc) >= np.mean(pow_ada) >= np.mean(pow_bh)
    assert np.mean(pow_ada) >= np.mean(pow_ave)
    assert np.mean(pow_ada) >= 0.25 * np.mean(pow_bc)


def test_null_evalue_budget_holds():
    rng = np.random.default_rng(29)
    n, reps = 30, 1500
    sums = []
    cfg = HybridConfig(alpha_ebh=0.1, weight_mode="adaptive")
    for _ in range(reps):
        p = rng.uniform(size=n)
        e_bh = bh_evalues(p, cfg.alpha_bh)
        e_bc = bc_evalues(p, cfg.alpha_bc)
        w_bh, w_bc = adaptive_weights(p, compute_loo_thresholds(p, cfg.alpha_bh, cfg.alpha_bc))
        sums.append((w_bh * e_bh + w_bc * e_bc).sum())
    sums = np.asarray(sums)
    se = sums.std(ddof=1) / np.sqrt(reps)
    assert sums.mean() <= n + 3 * se


def test_null_evalue_budget_holds_with_signals_present():
    # sum over the null hypotheses only, with non-nulls in the mix
    rng = np.random.default_rng(31)
    n, n_alt, reps = 30, 8, 1500
    sums = []
    cfg = HybridConfig(alpha_ebh=0.1, weight_mode="adaptive")
    for _ in range(reps):
        p = rng.uniform(size=n)
        p[:n_alt] = rng.beta(0.25, 10.0, size=n_alt)
        e_bh = bh_evalues(p, cfg.alpha_bh)
        e_bc = bc_evalues(p, cfg.alpha_bc)
        w_bh, w_bc = adaptive_weights(p, compute_loo_thresholds(p, cfg.alpha_bh, cfg.alpha_bc))
        sums.append((w_bh * e_bh + w_bc * e_bc)[n_alt:].sum())
    sums = np.asarray(sums)
    se = sums.std(ddof=1) / np.sqrt(reps)
    assert sums.mean() <= n + 3 * se


def test_blend_reads_bc_evalues_off_the_loo_scan():
    rng = np.random.default_rng(43)
    instances = [np.ones(20), rng.uniform(size=50)]
    instances += [random_pvalues(rng) for _ in range(60)]
    instances += [np.round(random_pvalues(rng), 2) for _ in range(20)]
    for p in instances:
        cfg = HybridConfig(alpha_ebh=float(rng.uniform(0.05, 0.3)), weight_mode="adaptive")
        e, w_bh, w_bc = _hybrid_evalues(p, cfg)
        blend = w_bh * bh_evalues(p, cfg.alpha_bh) + w_bc * bc_evalues(p, cfg.alpha_bc)
        assert e.tobytes() == blend.tobytes()
