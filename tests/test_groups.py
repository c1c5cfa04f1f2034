import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import ConfigurationError, InputError, ProcedureSpec, fdp_power, solve_threshold
from evmt.groups import (
    GroupPartition,
    assemble_weights,
    group_evalues,
    groupwise_bc_thresholds,
    run_grouped_ebh,
)
from evmt.procedures import _bc_scan, _relaxed_plateau

from oracles import brute_bc_loo_threshold, brute_bc_threshold, random_pvalues


def toy_instance():
    """Two groups (100 and 1000 hypotheses), 20 clear signals in each.

    Each group's threshold lands on its 20 small p-values with a mirror
    count of zero, and the duplicated top value keeps every leave-one-out
    threshold from reaching the large block.
    """
    def one_group(n):
        small = np.linspace(1e-4, 1e-3, 20)
        big = np.linspace(0.6, 0.7, n - 20)
        big[-2] = 0.7
        return np.concatenate([small, big])

    p = np.concatenate([one_group(100), one_group(1000)])
    part = GroupPartition.from_sizes([100, 1000])
    truth = np.zeros(1100, dtype=int)
    truth[:20] = 1
    truth[100:120] = 1
    return p, part, truth


# ---------------------------------------------------------------------------
# GroupPartition


def test_partition_from_labels():
    part = GroupPartition.from_labels(["b", "a", "b", "a", "a"])
    assert part.n_groups == 2
    assert part.names == ("a", "b")
    assert part.sizes.tolist() == [3, 2]
    assert part.indices(0).tolist() == [1, 3, 4]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.text(st.sampled_from("ab 1_\xa0\u00e9\u20ac\U0001d538"), min_size=1, max_size=4),
                 min_size=1, max_size=40),
        st.lists(st.integers(-3, 1000), min_size=1, max_size=40),
    ),
    st.booleans(),
)
def test_prop_from_labels_matches_np_unique(labels, as_objects):
    names, codes = np.unique(labels, return_inverse=True)
    # the CLI passes its labels as an object array
    part = GroupPartition.from_labels(np.array(labels, dtype=object) if as_objects else labels)
    assert part.names == tuple(names.tolist())
    assert part.labels.tolist() == codes.tolist()


def test_partition_rejects_empty_group():
    with pytest.raises(ConfigurationError):
        GroupPartition(labels=np.array([0, 0, 2]), n_groups=3)
    with pytest.raises(ConfigurationError):
        GroupPartition(labels=np.array([], dtype=int), n_groups=1)


def test_partition_length_mismatch():
    part = GroupPartition.from_sizes([2, 2])
    with pytest.raises(InputError):
        groupwise_bc_thresholds([0.1, 0.2, 0.3], part, 0.2)


# ---------------------------------------------------------------------------
# groupwise thresholds


def test_single_group_matches_core_bc():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_pvalues(rng, int(rng.integers(5, 60)))
        part = GroupPartition.from_sizes([p.size])
        alpha = float(rng.uniform(0.05, 0.5))
        [res] = groupwise_bc_thresholds(p, part, alpha)
        core = solve_threshold(p, ProcedureSpec(kind="bc", alpha=alpha))
        assert res.threshold == core.threshold
        assert res.m_at_T == core.m_at_T
        assert res.rejected.tolist() == core.rejected.tolist()


def test_toy_thresholds_reject_twenty_each():
    p, part, _ = toy_instance()
    res = groupwise_bc_thresholds(p, part, 0.05)
    assert res[0].feasible and res[1].feasible
    assert res[0].m_at_T == 1.0 and res[1].m_at_T == 1.0
    assert res[0].rejected.tolist() == list(range(20))
    assert res[1].rejected.tolist() == list(range(100, 120))


def test_all_one_group_is_infeasible():
    p = np.concatenate([np.full(10, 1.0), np.linspace(0.001, 0.002, 10)])
    part = GroupPartition.from_sizes([10, 10])
    res = groupwise_bc_thresholds(p, part, 0.2)
    assert not res[0].feasible and res[0].rejected.size == 0
    assert res[1].feasible


# ---------------------------------------------------------------------------
# leave-one-out thresholds


def test_loo_identity_for_small_pvalue():
    p = np.array([0.9, 0.01, 0.02])
    part = GroupPartition.from_sizes([3])
    base = groupwise_bc_thresholds(p, part, 0.5)[0].threshold
    # censoring a p-value below 0.5 changes nothing
    assert brute_bc_loo_threshold(list(p), 0.5, 1) == pytest.approx(base)
    # censoring a rejected p-value (p_i <= T) leaves the threshold alone
    assert brute_bc_loo_threshold(list(p), 0.5, 2) == pytest.approx(base)


def test_loo_exceed_count_equals_per_index_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(150):
        q = random_pvalues(rng, int(rng.integers(3, 40)))
        alpha = float(rng.uniform(0.1, 0.6))
        want = 0
        for j in range(q.size):
            t_j = brute_bc_loo_threshold(list(q), alpha, j)
            if t_j is not None and 1.0 - q[j] <= t_j:
                want += 1
        assert _relaxed_plateau(_bc_scan(q, alpha).grid, alpha)[2] == want


def test_prop_loo_threshold_identity_probes():
    # for feasible censored thresholds, min(p_i, p_j) >= 1 - max(T_i, T_j)
    # forces T_i == T_j
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(300):
        q = random_pvalues(rng, int(rng.integers(4, 30)))
        alpha = float(rng.uniform(0.15, 0.7))
        big = np.nonzero(q > 0.55)[0]
        pool = big if big.size >= 2 else np.arange(q.size)
        i, j = rng.choice(pool, size=2, replace=False)
        ti = brute_bc_loo_threshold(list(q), alpha, int(i))
        tj = brute_bc_loo_threshold(list(q), alpha, int(j))
        if ti is None or tj is None:
            continue
        if min(q[i], q[j]) >= 1.0 - max(ti, tj):
            assert ti == tj
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# weights


def test_unit_and_size_weights():
    p, part, _ = toy_instance()
    thr = groupwise_bc_thresholds(p, part, 0.05)
    unit = assemble_weights(p, part, thr, "unit")
    assert np.all(unit == 1.0)
    size = assemble_weights(p, part, thr, "size")
    assert size[0] == pytest.approx(5.5)
    assert size[-1] == pytest.approx(0.55)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(codes=st.lists(st.integers(0, 5), min_size=1, max_size=60))
def test_prop_size_weights_are_n_over_L_times_the_group_size(codes):
    part = GroupPartition.from_labels(codes)
    p = np.linspace(0.0, 1.0, part.n)
    thr = groupwise_bc_thresholds(p, part, 0.2)
    w = assemble_weights(p, part, thr, "size")
    want = [part.n / (part.n_groups * part.sizes[l]) for l in part.labels]
    assert w.tobytes() == np.array(want).tobytes()


def test_adaptive_weights_single_group_are_unit():
    rng = np.random.default_rng(4)
    p = random_pvalues(rng, 30)
    part = GroupPartition.from_sizes([30])
    thr = groupwise_bc_thresholds(p, part, 0.3)
    w = assemble_weights(p, part, thr, "adaptive", alpha=0.3)
    assert np.allclose(w, 1.0)


def test_adaptive_weights_on_toy():
    p, part, _ = toy_instance()
    thr = groupwise_bc_thresholds(p, part, 0.05)
    w = assemble_weights(p, part, thr, "adaptive", alpha=0.05)
    assert np.allclose(w[:100], 11.0)
    assert np.allclose(w[100:], 1.1)


def test_adaptive_weights_need_alpha():
    p, part, _ = toy_instance()
    thr = groupwise_bc_thresholds(p, part, 0.05)
    with pytest.raises(ConfigurationError):
        assemble_weights(p, part, thr, "adaptive")
    with pytest.raises(ConfigurationError):
        assemble_weights(p, part, thr, "bogus", alpha=0.05)


@pytest.mark.parametrize("keep", [1, 3])
def test_threshold_count_must_match_the_groups(keep):
    p, part, _ = toy_instance()
    thr = groupwise_bc_thresholds(p, part, 0.05)
    wrong = (thr + thr)[:keep]
    message = f"got {keep} thresholds for a partition of 2 groups"
    for scheme in ("unit", "size", "adaptive"):
        with pytest.raises(InputError, match=message):
            assemble_weights(p, part, wrong, scheme, alpha=0.05)
    with pytest.raises(InputError, match=message):
        group_evalues(p, part, wrong, np.ones(p.size))


@pytest.mark.parametrize("count", [5, 60])
def test_weight_count_must_match_the_pvalues(count):
    # 40 p-values in two groups, each with ten rejections at level 0.2
    half = np.concatenate([np.linspace(1e-4, 1e-3, 10), np.linspace(0.6, 0.7, 10)])
    p = np.concatenate([half, half])
    part = GroupPartition.from_sizes([20, 20])
    thr = groupwise_bc_thresholds(p, part, 0.2)
    assert all(res.feasible for res in thr)
    with pytest.raises(InputError, match=f"got {count} weights for 40 p-values"):
        group_evalues(p, part, thr, np.ones(count))


def test_infeasible_group_still_contributes_censored_exceedances():
    # group 0's base threshold is infeasible at alpha=0.5, yet censoring its
    # large p-value yields a feasible threshold of 0.1; that exceedance must
    # still enter the other group's weight denominators
    g0 = np.array([0.9, 0.001])
    g1 = np.array([0.001, 0.002, 0.003, 0.004, 0.9999])
    p = np.concatenate([g0, g1])
    part = GroupPartition.from_sizes([2, 5])
    alpha = 0.5
    assert brute_bc_threshold(list(g0), alpha) is None
    assert brute_bc_loo_threshold(list(g0), alpha, 0) == pytest.approx(0.1)
    thr = groupwise_bc_thresholds(p, part, alpha)
    w = assemble_weights(p, part, thr, "adaptive", alpha=alpha)
    t1 = thr[1].threshold
    b = 1.0 + np.count_nonzero(1.0 - g1 <= t1) - ((1.0 - g1) <= t1)
    assert np.allclose(w[2:], (7 / 5) * b / (b + 1.0))


# ---------------------------------------------------------------------------
# full pipeline


def test_toy_unit_rejects_nothing_adaptive_rejects_all():
    p, part, _ = toy_instance()
    unit = run_grouped_ebh(p, part, 0.05, scheme="unit")
    assert unit.rejected.size == 0
    ada = run_grouped_ebh(p, part, 0.05, scheme="adaptive")
    assert ada.rejected.size == 40
    assert set(ada.rejected) == set(range(20)) | set(range(100, 120))
    assert np.allclose(ada.evalues[ada.rejected], 1100.0)


def test_all_ones_empty_report():
    p = np.ones(30)
    part = GroupPartition.from_sizes([10, 20])
    rep = run_grouped_ebh(p, part, 0.05, scheme="adaptive")
    assert rep.rejected.size == 0
    assert all(not t.feasible for t in rep.thresholds)


def test_bad_alpha_raises_when_nothing_is_rejected():
    p = np.ones(30)
    part = GroupPartition.from_sizes([10, 20])
    for alpha in (0.0, 1.5):
        with pytest.raises(ConfigurationError):
            run_grouped_ebh(p, part, alpha, scheme="adaptive")


def test_report_metrics_on_toy():
    p, part, truth = toy_instance()
    rep = run_grouped_ebh(p, part, 0.05, scheme="adaptive", truth=truth)
    assert rep.fdp == 0.0 and rep.power == 1.0
    assert np.allclose(rep.group_fdp, 0.0)
    assert np.allclose(rep.group_power, 1.0)


def test_overall_rejections_contained_in_group_rejections():
    rng = np.random.default_rng(33)
    for _ in range(50):
        sizes = rng.integers(5, 40, size=int(rng.integers(1, 4)))
        p = random_pvalues(rng, int(sizes.sum()))
        part = GroupPartition.from_sizes(sizes.tolist())
        for scheme in ("unit", "size", "adaptive"):
            rep = run_grouped_ebh(p, part, float(rng.uniform(0.05, 0.4)), scheme)
            group_union = set()
            for rej in rep.per_group_rejected:
                group_union |= set(rej.tolist())
            assert set(rep.rejected.tolist()) <= group_union


def test_single_group_reduces_to_bc():
    rng = np.random.default_rng(39)
    for scheme in ("unit", "adaptive"):
        for _ in range(40):
            p = random_pvalues(rng, int(rng.integers(5, 80)))
            part = GroupPartition.from_sizes([p.size])
            alpha = float(rng.uniform(0.05, 0.4))
            rep = run_grouped_ebh(p, part, alpha, scheme)
            core = solve_threshold(p, ProcedureSpec(kind="bc", alpha=alpha))
            assert set(rep.rejected.tolist()) == set(core.rejected.tolist())


def test_null_evalue_sums_stay_below_n():
    # Monte Carlo check of the aggregate e-value budget under the global null
    rng = np.random.default_rng(101)
    n, reps = 40, 2000
    part = GroupPartition.from_sizes([20, 20])
    sums = {"unit": [], "size": [], "adaptive": []}
    for _ in range(reps):
        p = rng.uniform(size=n)
        thr = groupwise_bc_thresholds(p, part, 0.1)
        for scheme in sums:
            w = assemble_weights(p, part, thr, scheme, alpha=0.1)
            e = group_evalues(p, part, thr, w)
            sums[scheme].append(e.sum())
    for scheme, vals in sums.items():
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert vals.mean() <= n + 3 * se, scheme


def test_grouped_procedure_matches_its_public_steps():
    # run_grouped_ebh takes thresholds and leave-one-out counts from one scan
    # per group; the public steps scan again and must give the same bits
    rng = np.random.default_rng(41)
    for _ in range(60):
        sizes = rng.integers(3, 40, size=int(rng.integers(1, 6)))
        p = random_pvalues(rng, int(sizes.sum()))
        if rng.random() < 0.3:
            p = np.round(p, 2)
        part = GroupPartition.from_labels(rng.permutation(np.repeat(np.arange(sizes.size), sizes)))
        truth = (rng.random(p.size) < 0.3).astype(int)
        alpha = float(rng.uniform(0.05, 0.4))
        thr = groupwise_bc_thresholds(p, part, alpha)
        for scheme in ("unit", "size", "adaptive"):
            rep = run_grouped_ebh(p, part, alpha, scheme, truth=truth)
            w = assemble_weights(p, part, thr, scheme, alpha=alpha)
            assert rep.weights.tobytes() == w.tobytes()
            assert rep.evalues.tobytes() == group_evalues(p, part, thr, w).tobytes()
            for l in range(part.n_groups):
                idx = part.indices(l)
                hit = np.isin(idx, rep.rejected)
                assert (rep.group_fdp[l], rep.group_power[l]) == fdp_power(
                    np.flatnonzero(hit), truth[idx]
                )
