import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import (
    ConfigurationError,
    InputError,
    InvariantError,
    ProcedureSpec,
    RejectionCurves,
    ThresholdResult,
    ebh_select,
    fdp_power,
    procedure_to_evalues,
    solve_threshold,
    storey_pi0,
)
from evmt.groups import GroupPartition, _group_scans
from evmt.knockoffs import _knockoff_grid
from evmt.procedures import (
    _bc_grid,
    _bc_scan,
    _Memo,
    _mirror_scan,
    _relaxed_plateau,
    _run_scan,
    _Truth,
)

from oracles import (
    EDGE,
    brute_bc_rejections,
    brute_bc_threshold,
    brute_bh,
    brute_ebh,
    brute_fbc_loo_count,
    brute_fbc_threshold,
    brute_knockoff_threshold,
    brute_loo_mirror_count,
    brute_storey,
    random_pvalues,
)


def random_curves(rng, n):
    """Monotone rejection curves used for fbc tests."""
    pis = rng.uniform(0.2, 0.9, size=n)
    kappas = rng.uniform(0.1, 0.9, size=n)
    return RejectionCurves(pis, kappas)


def make_spec(kind, alpha, pvals=None, rng=None):
    if kind == "fbc":
        funcs = random_curves(rng, len(pvals))
        return ProcedureSpec(kind="fbc", alpha=alpha, rejection_functions=funcs)
    return ProcedureSpec(kind=kind, alpha=alpha)


# ---------------------------------------------------------------------------
# solve_threshold


def test_bh_small_example():
    p = [0.01, 0.02, 0.04, 0.9]
    res = solve_threshold(p, ProcedureSpec(kind="bh", alpha=0.05))
    khat, expected = brute_bh(p, 0.05)
    assert khat == 2
    assert set(res.rejected) == expected == {0, 1}
    assert res.feasible
    # plateau supremum: k_hat * alpha / n
    assert res.threshold == pytest.approx(2 * 0.05 / 4)


def test_bc_small_example():
    p = [0.01, 0.02, 0.03, 0.9]
    res = solve_threshold(p, ProcedureSpec(kind="bc", alpha=0.34))
    assert set(res.rejected) == brute_bc_rejections(p, 0.34) == {0, 1, 2}
    assert res.m_at_T == 1.0
    assert res.threshold == pytest.approx(brute_bc_threshold(p, 0.34)) == 0.03


def test_all_ones_infeasible_every_kind():
    p = [1.0, 1.0, 1.0]
    rng = np.random.default_rng(0)
    for kind in ("bh", "storey", "bc", "fbc"):
        res = solve_threshold(p, make_spec(kind, 0.05, p, rng))
        assert not res.feasible
        assert res.threshold is None
        assert res.rejected.size == 0


def test_pvalue_validation():
    with pytest.raises(InputError):
        solve_threshold([0.1, 1.2], ProcedureSpec(kind="bh", alpha=0.05))
    with pytest.raises(InputError):
        solve_threshold([0.1, np.nan], ProcedureSpec(kind="bh", alpha=0.05))
    with pytest.raises(InputError):
        solve_threshold([], ProcedureSpec(kind="bh", alpha=0.05))


def test_invalid_spec_configuration():
    with pytest.raises(ConfigurationError):
        ProcedureSpec(kind="bh", alpha=1.5)
    with pytest.raises(ConfigurationError):
        ProcedureSpec(kind="bh", alpha=0.0)
    with pytest.raises(ConfigurationError):
        ProcedureSpec(kind="storey", alpha=0.05, storey_lambda=1.0)
    with pytest.raises(ConfigurationError):
        ProcedureSpec(kind="nope", alpha=0.05)
    with pytest.raises(ConfigurationError):
        ProcedureSpec(kind="fbc", alpha=0.05)


class _LinearCurves:
    """Curves ``phi_i(p) = 0.4 - 0.3 p``, decreasing, with the interface
    of :class:`RejectionCurves` but not its type."""

    def __len__(self):
        return 3

    def at(self, p):
        return np.broadcast_to(0.4 - 0.3 * np.asarray(p), (3,))


def test_fbc_rejects_non_monotone_curves():
    # only RejectionCurves are accepted, and their ranges are checked when
    # they are built: what could decrease or be non-finite never gets in
    for other in ([lambda p: 0.4 - 0.3 * p] * 3, _LinearCurves()):
        with pytest.raises(ConfigurationError, match="must be RejectionCurves"):
            ProcedureSpec(kind="fbc", alpha=0.05, rejection_functions=other)
    ok = np.array([0.5, 0.5, 0.5])
    for bad in (0.0, -0.1, 1.0 + 1e-12, 2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="every pi in"):
            RejectionCurves(np.array([0.5, bad, 0.5]), ok)
    for bad in (-1e-12, -0.5, 1.0 + 1e-12, 2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="every kappa in"):
            RejectionCurves(ok, np.array([0.5, 0.5, bad]))
    for pi, kappa in ((ok, ok[:2]), (ok.reshape(1, 3), ok.reshape(1, 3)), (0.5, 0.5), (ok, ok.reshape(3, 1))):
        with pytest.raises(ConfigurationError, match="1-d pi and kappa of one length"):
            RejectionCurves(pi, kappa)
    # strings, complex numbers and objects are no curves, not even where
    # numpy could convert them
    for pi, kappa in ((["a", "b"], [0.5, 0.5]), (ok + 0j, ok), (ok, ok.astype(complex)),
                      (["0.5"] * 3, ok), (ok.astype(object), ok), ([0.5, None, 0.5], ok)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="curves need real numbers"):
                RejectionCurves(pi, kappa)
    # the edges of the ranges are curves
    edges = RejectionCurves(np.array([1.0, 5e-324, 0.3]), np.array([0.0, 1.0, 1.0]))
    spec = ProcedureSpec(kind="fbc", alpha=0.05, rejection_functions=edges)
    assert not solve_threshold([0.1, 0.5, 0.9], spec).feasible


def test_selected_curves_are_read_only_slices_of_the_arrays(monkeypatch):
    pi, kappa = np.array([0.2, 0.5, 1.0, 0.7]), np.array([0.0, 0.3, 1.0, 0.9])
    curves = RejectionCurves(pi, kappa)
    # a selection of checked curves is in range: it is not checked again
    monkeypatch.setattr(RejectionCurves, "__post_init__", lambda self: pytest.fail("checked again"))
    for idx in (slice(1, 3), np.array([3, 0, 0]), np.array([True, False, True, True]), np.array([], dtype=int)):
        part = curves[idx]
        assert isinstance(part, RejectionCurves) and len(part) == pi[idx].size
        assert np.array_equal(part.pi, pi[idx]) and np.array_equal(part.kappa, kappa[idx])
        assert not (part.pi.flags.writeable or part.kappa.flags.writeable)
        assert np.array_equal(part.at(0.3), curves.at(0.3)[idx])
    with pytest.raises(ConfigurationError, match="must be 1-d"):
        curves[0]


def test_fbc_matches_brute_force_grid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        p = random_pvalues(rng, n)
        funcs = random_curves(rng, n)
        alpha = float(rng.uniform(0.05, 0.6))
        spec = ProcedureSpec(kind="fbc", alpha=alpha, rejection_functions=funcs)
        res = solve_threshold(p, spec)
        u = funcs.at(p).tolist()
        v = funcs.at(1.0 - p).tolist()
        t_up = (1.0 - 1e-9) * float(funcs.at(0.5).min())
        t_oracle = brute_fbc_threshold(u, v, alpha, t_up)
        if t_oracle is None:
            assert not res.feasible
        else:
            assert res.threshold == pytest.approx(t_oracle)
            assert set(res.rejected) == {i for i, x in enumerate(u) if x <= t_oracle}


def _grid_by_definition(u, v, keep):
    """Distinct scores that ``keep`` admits, with #{u <= c} and #{v <= c}."""
    cands = sorted({x for x in list(u) + list(v) if keep(x)})
    return (
        cands,
        [sum(1 for x in u if x <= c) for c in cands],
        [sum(1 for x in v if x <= c) for c in cands],
    )


@settings(max_examples=300, deadline=None)
@given(p=st.lists(EDGE | st.floats(0.0, 1.0), min_size=1, max_size=40), alpha=st.floats(0.05, 0.7))
def test_prop_bc_grid_equals_its_definition(p, alpha):
    scan = _bc_scan(np.array(p), alpha)
    cands, n_rej, n_mir = _grid_by_definition(p, [1.0 - x for x in p], lambda x: x < 0.5)
    assert scan.grid.cands.tolist() == cands
    assert scan.grid.n_rej.tolist() == n_rej
    assert scan.grid.n_mir.tolist() == n_mir
    assert not np.signbit(scan.grid.cands).any()  # a zero candidate is +0.0
    t = brute_bc_threshold(p, alpha)
    assert (not scan.feasible) if t is None else scan.threshold == t


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.tuples(EDGE, EDGE), min_size=1, max_size=30),
    t_max=EDGE,
    inclusive=st.booleans(),
)
def test_prop_mirror_grid_equals_its_definition(scores, t_max, inclusive):
    u = [a for a, _ in scores]
    v = [b for _, b in scores]
    scan = _mirror_scan(np.array(u), np.array(v), 0.5, t_max=t_max, inclusive=inclusive)
    keep = (lambda x: x <= t_max) if inclusive else (lambda x: x < t_max)
    cands, n_rej, n_mir = _grid_by_definition(u, v, keep)
    assert scan.grid.cands.tolist() == cands
    assert scan.grid.n_rej.tolist() == n_rej
    assert scan.grid.n_mir.tolist() == n_mir
    assert not np.signbit(scan.grid.cands).any()  # a zero candidate is +0.0


def test_bc_matches_brute_force_grid():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_pvalues(rng, int(rng.integers(2, 60)))
        alpha = float(rng.uniform(0.05, 0.6))
        res = solve_threshold(p, ProcedureSpec(kind="bc", alpha=alpha))
        t_oracle = brute_bc_threshold(p, alpha)
        if t_oracle is None:
            assert not res.feasible
        else:
            assert res.threshold == pytest.approx(t_oracle)
            assert set(res.rejected) == brute_bc_rejections(p, alpha)


# ---------------------------------------------------------------------------
# storey_pi0


def test_storey_pi0_direct_counts():
    assert storey_pi0([0.1, 0.2, 0.6, 0.9], 0.5) == pytest.approx(1.5)
    # lambda = 0 with no zero p-values: (1 + n) / n
    assert storey_pi0([0.3, 0.7, 0.9], 0.0) == pytest.approx(4.0 / 3.0)
    assert storey_pi0([0.0, 0.9], 0.5) == pytest.approx(2.0)
    # p-values equal to lambda count as at or below it
    assert storey_pi0([0.5, 0.5, 0.7], 0.5) == pytest.approx(2.0 / 1.5)


@settings(max_examples=200, deadline=None)
@given(
    p=st.lists(EDGE | st.floats(0.0, 1.0), min_size=1, max_size=40),
    alpha=st.floats(0.02, 0.7),
    pick=st.integers(0, 39),
)
def test_prop_storey_with_ties_at_lambda_matches_brute_force(p, alpha, pick):
    lam = p[pick % len(p)]
    if lam >= 1.0:
        lam = 0.5
    n = len(p)
    assert storey_pi0(p, lam) == (1.0 + n - sum(1 for x in p if x <= lam)) / ((1.0 - lam) * n)
    res = solve_threshold(p, ProcedureSpec(kind="storey", alpha=alpha, storey_lambda=lam))
    khat, expected = brute_storey(p, alpha, lam)
    assert set(res.rejected.tolist()) == expected
    assert res.feasible == (khat > 0)


def test_storey_pi0_rejects_lambda_one():
    with pytest.raises(ConfigurationError):
        storey_pi0([0.5, 0.5], 1.0)


@pytest.mark.parametrize("lam", [1.0, 1.5, -0.1, float("nan")])
def test_spec_and_estimate_refuse_the_same_storey_lambda(lam):
    message = re.escape(f"storey_lambda must lie in [0, 1), got {lam}")
    with pytest.raises(ConfigurationError, match=message):
        ProcedureSpec(kind="storey", alpha=0.05, storey_lambda=lam)
    with pytest.raises(ConfigurationError, match=message):
        storey_pi0([0.5, 0.5], lam)


def test_storey_threshold_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_pvalues(rng, int(rng.integers(2, 60)))
        alpha = float(rng.uniform(0.02, 0.4))
        lam = float(rng.uniform(0.0, 0.9))
        spec = ProcedureSpec(kind="storey", alpha=alpha, storey_lambda=lam)
        res = solve_threshold(p, spec)
        khat, expected = brute_storey(p, alpha, lam)
        assert set(res.rejected) == expected
        assert res.feasible == (khat > 0)


# ---------------------------------------------------------------------------
# procedure_to_evalues


def test_bc_evalue_conversion_values():
    p = [0.01, 0.02, 0.03, 0.9]
    spec = ProcedureSpec(kind="bc", alpha=0.34)
    res = solve_threshold(p, spec)
    e = procedure_to_evalues(p, spec, res)
    assert e.tolist() == [4.0, 4.0, 4.0, 0.0]


def test_infeasible_conversion_is_all_zero():
    p = [1.0, 1.0, 1.0]
    spec = ProcedureSpec(kind="bc", alpha=0.05)
    res = solve_threshold(p, spec)
    e = procedure_to_evalues(p, spec, res)
    assert not res.feasible
    assert np.all(e == 0.0)


def test_feasible_result_without_false_rejection_estimate_raises():
    broken = ThresholdResult(threshold=0.1, m_at_T=0.0, rejected=np.array([0]), feasible=True)
    spec = ProcedureSpec(kind="bh", alpha=0.1)
    with pytest.raises(InvariantError):
        procedure_to_evalues([0.01, 0.5], spec, broken)


@pytest.mark.parametrize("last", [2, 3, -1])
def test_conversion_result_must_index_into_the_pvalues(last):
    spec = ProcedureSpec(kind="bh", alpha=0.5)
    res = ThresholdResult(threshold=0.5, m_at_T=1.5, rejected=np.array([0, last]), feasible=True)
    if 0 <= last < 3:
        assert procedure_to_evalues([0.01, 0.2, 0.3], spec, res).tolist() == [2.0, 0.0, 2.0]
    else:
        with pytest.raises(InputError, match=f"rejects index {last}, but there are 3 p-values"):
            procedure_to_evalues([0.01, 0.2, 0.3], spec, res)


def test_invariant_check_survives_python_optimisation():
    code = (
        "import numpy as np\n"
        "from evmt import InvariantError, ProcedureSpec, ThresholdResult, procedure_to_evalues\n"
        "r = ThresholdResult(threshold=0.1, m_at_T=0.0, rejected=np.array([0]), feasible=True)\n"
        "try:\n"
        "    procedure_to_evalues([0.01, 0.5], ProcedureSpec(kind='bh', alpha=0.1), r)\n"
        "except InvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert run.returncode == 0


def test_curve_refusals_survive_python_optimisation():
    code = (
        "import numpy as np\n"
        "from evmt import ConfigurationError, InputError, ProcedureSpec, RejectionCurves, solve_threshold\n"
        "from evmt import GroupPartition, fbc_group_threshold, structure_weights\n"
        "ok = np.full(3, 0.5)\n"
        "part = GroupPartition.from_sizes([1, 2])\n"
        "calls = [lambda b=b: RejectionCurves(np.array([0.5, b, 0.5]), ok) for b in (0.0, 2.0, np.nan)]\n"
        "calls += [lambda b=b: RejectionCurves(ok, np.array([0.5, b, 0.5])) for b in (-0.5, 2.0, np.inf)]\n"
        "calls += [lambda: RejectionCurves(ok, ok[:2]), lambda: RejectionCurves(ok[None], ok[None])]\n"
        "calls += [lambda: RejectionCurves(['a', 'b'], [0.5, 0.5]), lambda: RejectionCurves(ok + 0j, ok)]\n"
        "calls += [lambda: ProcedureSpec(kind='fbc', alpha=0.1, rejection_functions=[abs] * 3)]\n"
        "calls += [lambda: fbc_group_threshold(ok, part, [abs] * 3, 0.1)]\n"
        "calls += [lambda: structure_weights(ok, part, [abs] * 3, [None, None], 'unit')]\n"
        "curves = RejectionCurves(ok[:2], ok[:2])\n"
        "calls += [lambda: solve_threshold(ok, ProcedureSpec(kind='fbc', alpha=0.1, rejection_functions=curves))]\n"
        "fired = 0\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except (ConfigurationError, InputError):\n"
        "        fired += 1\n"
        "raise SystemExit(0 if fired == len(calls) == 14 else 1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert run.returncode == 0


def test_bh_conversion_reproduces_rejections_via_ebh():
    p = [0.01, 0.02, 0.04, 0.9]
    spec = ProcedureSpec(kind="bh", alpha=0.05)
    res = solve_threshold(p, spec)
    e = procedure_to_evalues(p, spec, res)
    assert set(ebh_select(e, 0.05)) == set(res.rejected) == {0, 1}


# ---------------------------------------------------------------------------
# ebh_select


def test_ebh_grouped_toy_rejects_nothing():
    e = np.zeros(1100)
    e[:20] = 1000.0
    e[20:40] = 100.0
    assert ebh_select(e, 0.05).size == 0


def test_ebh_all_zero():
    assert ebh_select(np.zeros(5), 0.1).size == 0


def test_ebh_small_example():
    # thresholds n / (i alpha) = 20, 10, 6.67, 5
    assert set(ebh_select([30.0, 10.0, 2.0, 0.0], 0.2)) == {0, 1}


def test_ebh_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        e = rng.choice([0.0, 1.0, 5.0], size=n) * rng.exponential(10.0, size=n)
        alpha = float(rng.uniform(0.02, 0.5))
        assert set(ebh_select(e, alpha)) == brute_ebh(list(e), alpha)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prop_ebh_matches_brute_force_on_mostly_zero_evalues_with_ties(data):
    # e-BH sorts only the positive e-values; draw vectors that are mostly
    # zero, with copies of the cutoff n / (k alpha) and its neighbours
    n = data.draw(st.integers(1, 40))
    alpha = data.draw(st.floats(0.01, 0.99))
    cut = n / (data.draw(st.integers(1, n)) * alpha)
    values = st.sampled_from([cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf), 2.0 * cut, 1.0])
    e = np.zeros(n)
    for i, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), values), max_size=max(1, n // 4))):
        e[i] = v
    got = ebh_select(e, alpha)
    assert set(got) == brute_ebh(list(e), alpha)
    assert np.array_equal(got, np.sort(got))


def test_ebh_tie_absorption():
    # two equal values straddling the formal cutoff are both rejected
    e = [8.0, 8.0, 0.0, 0.0]
    # n/(i*alpha) with alpha=0.5: 8, 4, 2.67, 2
    assert set(ebh_select(e, 0.5)) == {0, 1}


# ---------------------------------------------------------------------------
# fdp_power


def test_fdp_power_examples():
    # rejected {0, 1}; non-null = index 0 only
    fdp, power = fdp_power([0, 1], [1, 0, 0, 0])
    assert fdp == 0.5 and power == 1.0
    fdp, power = fdp_power([], [1, 0, 0, 0])
    assert fdp == 0.0 and power == 0.0
    fdp, power = fdp_power([0], [0, 0, 0])
    assert fdp == 1.0 and power == 0.0


def test_fdp_power_range_check():
    with pytest.raises(InputError):
        fdp_power([5], [0, 1])


@pytest.mark.parametrize("rejected", [[0.5], [True], np.array([0.0]), 0, [[0]]])
def test_fdp_power_refuses_indices_that_are_not_integers(rejected):
    # 0.5 would index as 0, a flag as 1; an empty list is no rejection
    with pytest.raises(InputError, match="rejected indices must form a 1-d array of integers"):
        fdp_power(rejected, [0, 1])
    assert fdp_power([], [0, 1]) == (0.0, 0.0)
    assert fdp_power(np.array([1], dtype=np.uint8), [0, 1]) == (0.0, 1.0)


@pytest.mark.parametrize("truth", [[0, 2], [0, -1], [0.5, 1], [np.nan, 1], ["0", "1"]])
def test_truth_values_other_than_0_and_1_are_refused(truth):
    with pytest.raises(InputError, match="truth values must be 0 or 1"):
        fdp_power([0], truth)
    with pytest.raises(InputError, match="truth values must be 0 or 1"):
        _Truth(truth, GroupPartition.from_sizes([1, 1]))
    assert fdp_power([0], [True, False]) == fdp_power([0], [1.0, 0.0]) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# module invariants


@pytest.mark.parametrize("kind", ["bh", "storey", "bc", "fbc"])
def test_equivalence_between_procedure_and_ebh(kind):
    rng = np.random.default_rng(17)
    for _ in range(250):
        p = random_pvalues(rng)
        spec = make_spec(kind, float(rng.uniform(0.02, 0.5)), p, rng)
        res = solve_threshold(p, spec)
        e = procedure_to_evalues(p, spec, res)
        assert set(ebh_select(e, spec.alpha)) == set(res.rejected)


@pytest.mark.parametrize("kind", ["bh", "storey", "bc", "fbc"])
def test_alpha_monotonicity(kind):
    rng = np.random.default_rng(23)
    for _ in range(60):
        p = random_pvalues(rng, int(rng.integers(5, 80)))
        lo = float(rng.uniform(0.02, 0.3))
        hi = lo + float(rng.uniform(0.0, 0.5))
        if kind == "fbc":
            funcs = random_curves(rng, p.size)
            spec_lo = ProcedureSpec(kind=kind, alpha=lo, rejection_functions=funcs)
            spec_hi = ProcedureSpec(kind=kind, alpha=hi, rejection_functions=funcs)
        else:
            spec_lo = ProcedureSpec(kind=kind, alpha=lo)
            spec_hi = ProcedureSpec(kind=kind, alpha=hi)
        r_lo = set(solve_threshold(p, spec_lo).rejected)
        r_hi = set(solve_threshold(p, spec_hi).rejected)
        assert r_lo <= r_hi


def test_ebh_alpha_monotonicity():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        e = rng.exponential(5.0, size=n)
        lo = float(rng.uniform(0.02, 0.3))
        hi = lo + float(rng.uniform(0.0, 0.5))
        assert set(ebh_select(e, lo)) <= set(ebh_select(e, hi))


def test_fdp_bounded_by_null_evalue_sum():
    # mechanics of the e-value FDP bound: FDP <= (alpha/n) * sum of null e-values
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(5, 80))
        p = random_pvalues(rng, n)
        truth = (rng.uniform(size=n) < 0.3).astype(int)
        alpha = float(rng.uniform(0.05, 0.4))
        spec = ProcedureSpec(kind="bc", alpha=alpha)
        res = solve_threshold(p, spec)
        e = procedure_to_evalues(p, spec, res)
        rej = ebh_select(e, alpha) if e.any() else np.empty(0, dtype=int)
        fdp, _ = fdp_power(rej, truth)
        null_sum = e[truth == 0].sum()
        assert fdp <= alpha / n * null_sum + 1e-12


def test_m_at_threshold_bounds():
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = random_pvalues(rng, int(rng.integers(2, 60)))
        alpha = float(rng.uniform(0.05, 0.5))
        bc = solve_threshold(p, ProcedureSpec(kind="bc", alpha=alpha))
        if bc.feasible:
            assert bc.m_at_T >= 1.0
            assert bc.m_at_T <= alpha * max(1, bc.rejected.size) * (1 + 1e-12)
        bh = solve_threshold(p, ProcedureSpec(kind="bh", alpha=alpha))
        if bh.feasible:
            assert bh.m_at_T > 0.0
            assert bh.m_at_T == pytest.approx(p.size * bh.threshold)
            # plateau convention puts the ratio exactly at alpha
            assert bh.m_at_T <= alpha * max(1, bh.rejected.size) * (1 + 1e-12)


@pytest.mark.parametrize("kind", ["bh", "storey", "bc"])
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = random_pvalues(rng, int(rng.integers(3, 60)))
        alpha = float(rng.uniform(0.05, 0.5))
        spec = ProcedureSpec(kind=kind, alpha=alpha)
        perm = rng.permutation(p.size)
        base = solve_threshold(p, spec)
        shuffled = solve_threshold(p[perm], spec)
        assert {int(np.where(perm == i)[0][0]) for i in base.rejected} == set(
            shuffled.rejected
        )


def labelled(labels, n_groups):
    """The two fields of a partition that the FDP/power kernel reads, and its
    size, for label sets with empty groups, which GroupPartition refuses."""
    return SimpleNamespace(labels=labels, n_groups=n_groups, n=labels.size)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1), st.booleans()), min_size=1, max_size=40)
)
def test_prop_group_fdp_power_matches_per_group_loop(rows):
    labels = np.array([r[0] for r in rows], dtype=np.intp)
    truth = np.array([r[1] for r in rows])
    rejected = np.array([i for i, r in enumerate(rows) if r[2]], dtype=np.intp)
    n_groups = int(labels.max()) + 2  # the last group is empty
    _, _, fdp, power = _Truth(truth, labelled(labels, n_groups)).score(rejected)
    for l in range(n_groups):
        idx = np.flatnonzero(labels == l)
        want = fdp_power(np.flatnonzero(np.isin(idx, rejected)), truth[idx])
        assert (fdp[l], power[l]) == want


def brute_fdp_power(rejected, truth):
    """FDP and power of a rejection set by counting hypothesis by hypothesis."""
    false = sum(1 for i in rejected if truth[i] == 0)
    true = sum(1 for i in rejected if truth[i] != 0)
    alt = sum(1 for x in truth if x != 0)
    return false / max(1, false + true), true / max(1, alt)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 1.0, 0.0]), st.booleans()),
        min_size=1, max_size=30,
    ),
    null=st.booleans(),
    none=st.booleans(),
)
def test_prop_fdp_power_kernel_equals_a_brute_count(rows, null, none):
    # every scorer (fdp_power, the grouped report, the CLI metrics, each
    # campaign replicate) runs _Truth.score; here on random rejection sets,
    # also empty ones and all-null truth, with no, one or several groups
    labels = np.array([r[0] for r in rows], dtype=np.intp)
    truth = np.array([0 if null else r[1] for r in rows])
    rejected = np.array([] if none else [i for i, r in enumerate(rows) if r[2]], dtype=np.intp)
    want = brute_fdp_power(rejected.tolist(), truth.tolist())
    assert _Truth(truth).score(rejected) == (*want, None, None)
    assert fdp_power(rejected, truth) == want
    chosen = set(rejected.tolist())
    for part in (labelled(np.zeros_like(labels), 1), labelled(labels, int(labels.max()) + 1)):
        fdp, power, g_fdp, g_power = _Truth(truth, part).score(rejected)
        assert (fdp, power) == want
        for l in range(part.n_groups):
            idx = np.flatnonzero(part.labels == l)
            mine = [k for k, i in enumerate(idx) if i in chosen]
            assert (g_fdp[l], g_power[l]) == brute_fdp_power(mine, truth[idx].tolist())


def test_fdp_power_kernel_refuses_what_fdp_power_refuses():
    with pytest.raises(InputError, match="truth must be a 1-d indicator vector"):
        fdp_power([0], [[0, 1]])
    with pytest.raises(InputError, match="rejected indices out of range for truth vector"):
        fdp_power([-1], [0, 1])
    with pytest.raises(InputError, match="partition covers 3 hypotheses, got 2 truth values"):
        _Truth([0, 1], GroupPartition.from_sizes([1, 2]))


# ---------------------------------------------------------------------------
# the split mirror scan: count criterion and relaxed plateau

_TIED_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.01, 0.2, 0.3, 0.7, 0.8, 0.99])


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(_TIED_SCORES | st.floats(0.0, 1.0), min_size=1, max_size=30),
    scale=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=30, max_size=30),
    w=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0]) | st.floats(-3, 3),
               min_size=1, max_size=30),
    alpha=st.sampled_from([0.1, 0.2, 1 / 3, 0.5]) | st.floats(0.05, 0.7),
)
def test_prop_count_scan_and_relaxed_plateau_equal_their_definitions(p, scale, w, alpha):
    def check(scan, grid, threshold, rejected, loo_count):
        assert scan.grid is grid
        assert scan.threshold == threshold and scan.feasible == (threshold is not None)
        assert set(np.flatnonzero(scan.rejected_mask).tolist()) == rejected
        k = scan.k_feas
        assert (grid.cands[k] == scan.threshold) if k >= 0 else scan.threshold is None
        k, mstar, count = _relaxed_plateau(grid, alpha)
        assert (grid.cands[k] == mstar) if k >= 0 else mstar is None
        assert count == loo_count

    # BC grid
    q = np.array(p)
    grid = _Memo(q)(_bc_grid)
    scan = _run_scan(q, grid, alpha)
    check(scan, grid, brute_bc_threshold(p, alpha), brute_bc_rejections(p, alpha),
          brute_loo_mirror_count(p, alpha))
    if scan.feasible:
        assert scan.m_at_T == 1 + sum(1 for x in p if 1.0 - x <= scan.threshold)

    # fbc grid: linear curves phi_i(x) = s_i x, capped inclusively below min_i phi_i(0.5)
    s = np.array(scale[: q.size])
    u, v = s * q, s * (1.0 - q)
    t_up = (1.0 - 1e-9) * float((s * 0.5).min())
    scan = _mirror_scan(u, v, alpha, t_max=t_up, inclusive=True)
    t = brute_fbc_threshold(u, v, alpha, t_up)
    check(scan, scan.grid, t, set() if t is None else set(np.flatnonzero(u <= t).tolist()),
          brute_fbc_loo_count(u, v, alpha, t_up))

    # knockoff grid: rejection scores -W, mirror scores W, capped below 0
    x = np.array(w)
    grid = _Memo(x)(_knockoff_grid)
    scan = _run_scan(-x, grid, alpha)
    t = brute_knockoff_threshold(w, alpha)
    neg = -5e-324  # the largest double below 0: an inclusive cap there excludes 0
    check(scan, grid, None if t is None else -t,
          set() if t is None else {j for j, y in enumerate(w) if y >= t},
          brute_fbc_loo_count(-x, x, alpha, neg))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2), _TIED_SCORES | st.floats(0.0, 1.0)),
                  min_size=1, max_size=30),
    alpha=st.sampled_from([0.2, 1 / 3, 0.5]) | st.floats(0.05, 0.7),
)
def test_prop_group_scan_counts_equal_a_per_group_brute_count(rows, alpha):
    labels = np.unique([r[0] for r in rows], return_inverse=True)[1]
    part = GroupPartition(labels=labels, n_groups=int(labels.max()) + 1)
    p = np.array([r[1] for r in rows])
    results, counts = _Memo(p, part)(_group_scans, None, alpha)
    for l in range(part.n_groups):
        idx = part.indices(l)
        group = p[idx].tolist()
        assert results[l].threshold == brute_bc_threshold(group, alpha)
        assert set(results[l].rejected.tolist()) == {int(idx[k]) for k in brute_bc_rejections(group, alpha)}
        assert counts[l] == brute_loo_mirror_count(group, alpha)
