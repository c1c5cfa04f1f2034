import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import ConfigurationError, InputError, ebh_select, fdp_power
from evmt.knockoffs import combine_and_select, knockoff_evalues, knockoff_threshold

from oracles import brute_ebh, brute_knockoff_threshold


def sign_symmetric_nulls(rng, size):
    return rng.choice([-1.0, 1.0], size=size) * np.abs(rng.normal(size=size))


def synthetic_pair(rng, p=120, n_alt=25, mu=3.0):
    """Family A carries the signal, family B is pure noise."""
    w_a = sign_symmetric_nulls(rng, p)
    w_a[:n_alt] = np.abs(rng.normal(mu, 1.0, size=n_alt))
    w_b = sign_symmetric_nulls(rng, p)
    truth = np.zeros(p, dtype=int)
    truth[:n_alt] = 1
    return w_a, w_b, truth


def test_threshold_small_example():
    res = knockoff_threshold([3.0, 2.0, 1.0, -1.0], 0.5)
    # candidates {1, 2, 3}: at t=1 the ratio is 2/3, at t=2 it is 1/2
    assert res.threshold == 2.0
    assert res.m_at_T == 1.0
    assert res.rejected.tolist() == [0, 1]


def test_threshold_all_negative_is_infeasible():
    res = knockoff_threshold([-0.5, -2.0, -0.1], 0.5)
    assert not res.feasible
    assert res.rejected.size == 0


def test_threshold_tied_positive_values():
    res = knockoff_threshold([1.5, 1.5, 1.5, 1.5], 0.25)
    assert res.feasible and res.threshold == 1.5
    assert res.rejected.size == 4


def test_threshold_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(300):
        w = sign_symmetric_nulls(rng, int(rng.integers(2, 60)))
        if rng.uniform() < 0.5:
            w[: w.size // 3] = np.abs(w[: w.size // 3]) + 1.0
        alpha = float(rng.uniform(0.05, 0.6))
        res = knockoff_threshold(w, alpha)
        want = brute_knockoff_threshold(list(w), alpha)
        if want is None:
            assert not res.feasible
        else:
            assert res.threshold == pytest.approx(want)


# Statistics that tie, with both zeros among them: balanced signs, mostly
# positive ones (where most selections are feasible) and vectors with no
# positive entry; levels at which a count ratio can equal the level exactly.
_TIED_NEGATIVE = [-3.0, -2.0, -1.0, -0.5, -0.0]
_TIED_STATS = (
    st.lists(st.sampled_from(_TIED_NEGATIVE + [0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=30)
    | st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 3.0]), min_size=1, max_size=30)
    | st.lists(st.sampled_from(_TIED_NEGATIVE), min_size=1, max_size=10)
)
_LEVELS = st.sampled_from([1.0 / 3.0, 0.5, 0.25, 0.2, 0.1]) | st.floats(0.01, 0.99)


@settings(max_examples=400, deadline=None)
@given(w=_TIED_STATS, alpha=_LEVELS)
def test_prop_threshold_and_evalues_equal_their_definitions(w, alpha):
    res = knockoff_threshold(w, alpha)
    e = knockoff_evalues(w, alpha)
    t = brute_knockoff_threshold(w, alpha)
    if t is None:
        assert not res.feasible and res.threshold is None and res.m_at_T == 0.0
        assert res.rejected.size == 0 and not e.any()
        return
    m = 1.0 + sum(1 for x in w if x <= -t)
    rejected = [j for j, x in enumerate(w) if x >= t]
    assert res.feasible and res.threshold == t and not np.signbit(res.threshold)
    assert res.m_at_T == m
    assert res.rejected.tolist() == rejected
    want = [len(w) / m if j in rejected else 0.0 for j in range(len(w))]
    assert e.tolist() == want


def test_zero_statistics_are_not_candidates():
    res = knockoff_threshold([0.0, 0.0, 2.0, 2.0, 2.0, -0.5], 0.5)
    assert res.threshold == 2.0
    assert 0 not in res.rejected.tolist()


def test_evalues_small_example():
    e = knockoff_evalues([3.0, 2.0, 1.0, -1.0], 0.5)
    assert e.tolist() == [4.0, 4.0, 0.0, 0.0]
    assert np.all(knockoff_evalues([-1.0, -2.0, -3.0], 0.5) == 0.0)


def test_evalue_selection_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w = sign_symmetric_nulls(rng, int(rng.integers(2, 80)))
        if rng.uniform() < 0.6:
            k = int(rng.integers(1, max(2, w.size // 2)))
            w[:k] = np.abs(rng.normal(2.5, 1.0, size=k))
        alpha = float(rng.uniform(0.05, 0.6))
        res = knockoff_threshold(w, alpha)
        e = knockoff_evalues(w, alpha)
        got = set(ebh_select(e, alpha)) if e.any() else set()
        assert got == set(res.rejected.tolist())
        assert got == brute_ebh(list(e), alpha) if e.any() else True


def test_combination_validation():
    with pytest.raises(ConfigurationError):
        combine_and_select([1.0, -1.0], [1.0, -1.0], 0.2, w1=0.7, w2=0.7)
    with pytest.raises(ConfigurationError):
        combine_and_select([1.0, -1.0], [1.0, -1.0], 0.2, w1=-0.1, w2=0.5)
    for w1, w2 in ((float("nan"), 0.5), (0.5, float("nan"))):
        with pytest.raises(ConfigurationError):
            combine_and_select([1.0, -1.0], [1.0, -1.0], 0.2, w1=w1, w2=w2)
    with pytest.raises(InputError, match="equal length, got 2 and 1"):
        combine_and_select([1.0, -1.0], [1.0], 0.2)


def test_noise_family_contributes_nothing():
    rng = np.random.default_rng(11)
    w_a, _, _ = synthetic_pair(rng, mu=4.0)
    w_b = -np.abs(rng.normal(size=w_a.size))  # all negative: zero e-values
    combined = combine_and_select(w_a, w_b, 0.2)
    solo = ebh_select(0.5 * knockoff_evalues(w_a, 0.1), 0.2)
    assert combined.tolist() == solo.tolist()


def test_identical_families_match_single_family_selection():
    rng = np.random.default_rng(13)
    w_a, _, _ = synthetic_pair(rng, mu=4.0)
    combined = combine_and_select(w_a, w_a, 0.2)
    single = ebh_select(knockoff_evalues(w_a, 0.1), 0.2)
    assert combined.tolist() == single.tolist()


def test_combination_never_selects_doubly_zero_evalues():
    rng = np.random.default_rng(17)
    for _ in range(100):
        w_a, w_b, _ = synthetic_pair(rng, p=60, n_alt=10, mu=2.5)
        rej = combine_and_select(w_a, w_b, 0.3)
        e = knockoff_evalues(w_a, 0.15) + knockoff_evalues(w_b, 0.15)
        assert np.all(e[rej] > 0.0)


def test_combined_fdr_with_planted_signs():
    rng = np.random.default_rng(19)
    fdps = []
    for _ in range(1000):
        w_a, w_b, truth = synthetic_pair(rng)
        rej = combine_and_select(w_a, w_b, 0.2)
        fdps.append(fdp_power(rej, truth)[0])
    fdps = np.asarray(fdps)
    se = fdps.std(ddof=1) / np.sqrt(fdps.size)
    assert fdps.mean() <= 0.2 + 3 * se


def test_null_evalue_budget_sign_symmetric():
    rng = np.random.default_rng(23)
    p, reps = 80, 3000
    sums = []
    for _ in range(reps):
        w = sign_symmetric_nulls(rng, p)
        sums.append(knockoff_evalues(w, 0.2).sum())
    sums = np.asarray(sums)
    se = sums.std(ddof=1) / np.sqrt(reps)
    assert sums.mean() <= p + 3 * se
