"""The benchmark's reference computations against the brute-force oracles.

Run from the repository root: ``python3 -m pytest -q perfbench/test_reference.py``.
The oracles in ``tests/oracles.py`` are plain loops over the defining
formulas; the vectorised versions in ``reference.py`` must agree with them
exactly on small random inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

import oracles  # noqa: E402
import reference as ref  # noqa: E402

ALPHAS = (0.05, 0.1, 0.2, 0.3)
SEEDS = range(60)


def _instance(seed):
    rng = np.random.default_rng(seed)
    p = oracles.random_pvalues(rng)
    if seed % 4 == 0:
        # coarse values make ties between p-values and mirror scores
        p = np.round(p, 2)
    return p, ALPHAS[seed % len(ALPHAS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_stepup_matches_oracle(seed):
    p, alpha = _instance(seed)
    k, rejected, e = ref.stepup(p, alpha)
    k_or, set_or = oracles.brute_bh(list(p), alpha)
    assert k == k_or
    assert set(np.nonzero(rejected)[0]) == set_or
    assert np.array_equal(e > 0, rejected)
    if k:
        assert np.array_equal(e[rejected], np.full(k, p.size / (k * alpha)))


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_count_matches_oracle(seed):
    p, alpha = _instance(seed)
    t, rejected, e = ref.mirror_count(p, alpha)
    assert t == oracles.brute_bc_threshold(list(p), alpha)
    assert set(np.nonzero(rejected)[0]) == oracles.brute_bc_rejections(list(p), alpha)
    if t is not None:
        mirrors = sum(1 for x in p if 1.0 - x <= t)
        assert np.array_equal(e[rejected], np.full(rejected.sum(), p.size / (1.0 + mirrors)))


@pytest.mark.parametrize("seed", range(20))
def test_group_thresholds_match_oracle_per_group(seed):
    rng = np.random.default_rng(1000 + seed)
    n_groups = int(rng.integers(1, 8))
    parts = [oracles.random_pvalues(rng, int(rng.integers(1, 60))) for _ in range(n_groups)]
    if seed % 3 == 0:
        parts = [np.round(x, 2) for x in parts]
    p = np.concatenate(parts)
    groups = np.repeat(np.arange(n_groups), [x.size for x in parts])
    order = rng.permutation(p.size)  # groups need not be contiguous
    p, groups = p[order], groups[order]
    alpha = ALPHAS[seed % len(ALPHAS)]
    thr, mirrors = ref.mirror_thresholds(p, groups, n_groups, alpha)
    for l in range(n_groups):
        sub = list(p[groups == l])
        t = oracles.brute_bc_threshold(sub, alpha)
        assert (t is None and np.isnan(thr[l])) or t == thr[l]
        if t is not None:
            assert mirrors[l] == sum(1 for x in sub if 1.0 - x <= t)
    rejected = ref.group_rejections(p, groups, thr)
    for l in range(n_groups):
        idx = np.nonzero(groups == l)[0]
        want = {int(idx[i]) for i in oracles.brute_bc_rejections(list(p[idx]), alpha)}
        assert set(np.nonzero(rejected & (groups == l))[0]) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_ebh_matches_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(1, 150))
    e = rng.exponential(size=n) * rng.choice([1.0, 10.0, 100.0], size=n)
    e[rng.random(n) < 0.3] = 0.0
    alpha = ALPHAS[seed % len(ALPHAS)]
    assert set(np.nonzero(ref.ebh(e, alpha))[0]) == oracles.brute_ebh(list(e), alpha)


@pytest.mark.parametrize("seed", SEEDS)
def test_knockoff_matches_oracle(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(1, 120))
    w = rng.normal(size=n)
    w[: n // 4] = np.abs(rng.normal(3.0, 1.0, size=n // 4))
    if seed % 3 == 0:
        w = np.round(w, 1)  # ties in magnitude and exact zeros
    alpha = ALPHAS[seed % len(ALPHAS)]
    t, selected = ref.knockoff(w, alpha)
    t_or = oracles.brute_knockoff_threshold(list(w), alpha)
    assert t == t_or
    if t is not None:
        assert set(np.nonzero(selected)[0]) == {i for i, x in enumerate(w) if x >= t}
    else:
        assert not selected.any()


def test_fdp_power_by_hand():
    rejected = np.array([1, 1, 0, 1, 0], dtype=bool)
    truth = np.array([1, 0, 1, 1, 0])
    assert ref.fdp_power(rejected, truth) == (1 / 3, 2 / 3)
    assert ref.fdp_power(np.zeros(5, dtype=bool), truth) == (0.0, 0.0)


def test_start_loglik_matches_mixture_formula():
    rng = np.random.default_rng(7)
    p, _ = oracles.sample_working_model(rng, 200, [2.0, 0.0], [0.0, 0.0])
    p[0] = 0.0  # floored at 1e-15
    pf = np.maximum(p, 1e-15)
    by_hand = sum(np.log(0.9 + 0.1 * 0.5 * x ** -0.5) for x in pf)
    assert ref.mixture_loglik_at_start(p) == pytest.approx(by_hand, rel=1e-12)
