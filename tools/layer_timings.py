"""In-process timings of the sort-bound layers and the CLI's I/O at n = 10^3 ... 10^6.

Times ``procedures.solve_threshold`` (``bh``), ``procedures._bc_scan``,
``hybrid.compute_loo_thresholds``, ``hybrid._hybrid_evalues`` (adaptive
weights) and ``groups.run_grouped_ebh`` (adaptive scheme, L = 1000 equal
groups) on one S1-like instance per n: the S1 generator with 5 % non-nulls,
seed 3.  Each call gets the p-values, so it validates them and sorts them
afresh.  The ``ebh_select`` row selects on the adaptive blend's e-values of
the same instance, which are zero off the base rejections.

The ``solve_threshold_fbc`` row runs ``solve_threshold`` (``fbc``, at the
base level ``ALPHA / (1 + ALPHA)``) on the same S1 instance per n, with
curves drawn from the fixed seed ``[FBC_SEED, k]`` for n = 10^k: pi
uniform on [0.2, 0.9] and kappa uniform on [0.1, 0.9].  Each call builds
the ``RejectionCurves`` and the ``ProcedureSpec`` from those draws, so the
figure includes every check of the curves.

The ``_run_scan_bc`` and ``_relaxed_plateau_bc`` rows read the two
criteria of a mirror scan off a BC grid built once, at the base level
``ALPHA / (1 + ALPHA)``, on the S1 instance with n = 200 and n = 10^6:
the count criterion with the threshold and rejections (every BC, fbc and
knockoff level), and the relaxed plateau (only the hybrid's weights and
the grouped leave-one-out counts).

The ``knockoff_threshold`` row selects one statistic family at the two
levels of a KNOCK_SYNTH replicate, ``KO_ALPHAS``, on one memo: a KNOCK_SYNTH
instance with p = n statistics and n / 20 planted ones, seed 3, family A.
Each call wraps the statistics in a fresh memo, so it validates and sorts
them and builds their mirror grid afresh.

Times ``adaptive.structure_pipeline`` (cheap weights, two folds: the
cross-fit, one fbc scan per fold and the weights) on one STRUCT instance
per n = 10^3 ... 10^5, seed 3.  The ``structure_pipeline_no_covariates``
row runs the same pipeline on the p-values of the STRUCT instance with
n = 60 (the size of acceptance criterion 08's pipelines) and n = 10^5, seed
3, without their covariates: nothing is fitted, and each fold runs its BC
scan.

Times the CLI's I/O on a CSV built like the benchmark's ``cli-1m`` input
(seed 941, n rows, labels ``g000`` ... ``g999``): ``cli.read_table`` without
and with labels, ``GroupPartition.from_labels`` on the parsed labels, and
``cli._write_outputs`` on the rejection tables of ``evmt bh`` and
``evmt groups --weights adaptive``.

Each figure is the best of several calls, repeated until the layer has run
for at least ``BUDGET_S`` seconds (at least three calls).

The ``fit_lfdr_em`` row fits the mixture on one fold of a STRUCT
instance of twice the size, seed 3, as ``structure_pipeline`` splits it
(two folds, ``rng = default_rng(0)``): n = 1500 with d = 2, one fold of the
benchmark's STRUCT replicate, and n = 10^5.  It reports seconds per fit
(best of several), objective evaluations per fit (both starts, each start
evaluated once), and the microseconds per evaluation spent
inside the objective (``adaptive._negloglik``'s kernel) and outside it, in
evmt's L-BFGS-B loop (``adaptive._minimize``) and scipy's ``setulb``
step, from further fits with a timer around each evaluation.

The ``replicate`` row times ``simulate._replicate_metrics`` on replicate 0
of each setting of the benchmark's ``campaigns`` workload (its plan in
``perfbench/campaigns.py``, benchmark seed ``REPLICATE_SEED``), with the
setting's method set: one draw and every method on it, sharing the
replicate's level-free scans.

The ``cold_start`` row is the fixed cost every ``evmt`` process pays: the
median wall time of ``COLD_RUNS`` fresh interpreters running
``import evmt``, started with ``subprocess``, next to the same for
``import numpy``, the floor under it.  Its third statement is the cost of a
process's first fit: ``import evmt.adaptive`` and one ``fit_lfdr_em`` on
the n = 1500, d = 2 fold of the ``fit_lfdr_em`` row, read from a ``.npy``
file.  Its fourth is a process's first campaign: ``run_campaign`` of one S1
replicate with the CLI's S1 method set, what ``evmt simulate --setting S1
--reps 1`` computes.  The ``cold_start_maxrss_mb`` row is the median peak
resident set of the same interpreters, each read by the child itself at its
end (``VmHWM`` in ``/proc/self/status``, Linux only).

Run from the repository root, against the source tree under test::

    PYTHONPATH=src python tools/layer_timings.py

Prints one JSON object, ``{layer: {n: seconds}}``; ``cold_start`` and
``cold_start_maxrss_mb`` are keyed by the statement run (the fit's by
``fit_lfdr_em n=1500 d=2``, the campaign's by ``S1 replicate``) and
``replicate`` by the setting's name instead
of n, and each ``fit_lfdr_em`` entry is an object of the figures above.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from evmt import RejectionCurves, adaptive, cli, simulate
from evmt.adaptive import fit_lfdr_em, structure_pipeline
from evmt.groups import GroupPartition, run_grouped_ebh
from evmt.hybrid import HybridConfig, _hybrid_evalues, compute_loo_thresholds
from evmt.knockoffs import as_stats, knockoff_threshold
from evmt.procedures import (
    ProcedureSpec,
    _bc_grid,
    _bc_scan,
    _Memo,
    _relaxed_plateau,
    _run_scan,
    ebh_select,
    procedure_to_evalues,
    solve_threshold,
)
from evmt.simulate import SimulationConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from campaigns import PLANS, config  # noqa: E402  the benchmark's campaign plans

ALPHA = 0.1
KO_ALPHAS = (0.2, 0.1)  # KNOCK_SYNTH's level and its KO_Hybrid family level
NO_COVARIATE_SIZES = {"60": 60, "1e5": 10**5}
SCAN_SIZES = {"200": 200, "1e6": 10**6}
BUDGET_S = 1.0
EXPONENTS = range(3, 7)  # n = 10^3 ... 10^6
STRUCT_EXPONENTS = range(3, 6)  # n = 10^3 ... 10^5
CSV_SEED = 941
N_LABELS = 1000
COLD_RUNS = 7
REPLICATE_SEED = 5
# a child's own peak resident set, "VmHWM: <kB> kB": its ru_maxrss would
# also hold this process's peak, which the child keeps across exec
PRINT_PEAK = "\nprint(next(line for line in open('/proc/self/status') if line.startswith('VmHWM')))"
FBC_SEED = 17


def best_of(fn):
    best, spent, calls = float("inf"), 0.0, 0
    while calls < 3 or spent < BUDGET_S:
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best


def cold_start(out, tmp):
    """Median wall seconds and peak resident set of fresh interpreters
    running each statement."""
    fold = tmp / "fold.npy"
    np.save(fold, np.column_stack(struct_fold(1500)))
    fit = (f"import numpy as np; import evmt.adaptive; a = np.load({str(fold)!r}); "
           "evmt.adaptive.fit_lfdr_em(a[:, 0], a[:, 1:])")
    replicate = ("from evmt.simulate import SimulationConfig, run_campaign; "
                 f"run_campaign(SimulationConfig('S1', replications=1), {cli._DEFAULT_METHODS['S1']!r})")
    keys = {fit: "fit_lfdr_em n=1500 d=2", replicate: "S1 replicate"}
    for statement in ("import numpy", "import evmt", fit, replicate):
        runs, peaks = [], []
        for _ in range(COLD_RUNS):
            start = time.perf_counter()
            child = subprocess.run([sys.executable, "-c", statement + PRINT_PEAK],
                                   check=True, capture_output=True, text=True)
            runs.append(time.perf_counter() - start)
            peaks.append(int(child.stdout.split()[-2]) / 1024)
        key = keys.get(statement, statement)
        out.setdefault("cold_start", {})[key] = round(statistics.median(runs), 6)
        out.setdefault("cold_start_maxrss_mb", {})[key] = round(statistics.median(peaks), 1)


def write_cli_csv(path, n):
    """n rows of ``pvalue,group,truth``, drawn as the benchmark's ``cli-1m`` input is."""
    rng = np.random.default_rng([CSV_SEED, 1])
    groups = rng.integers(0, N_LABELS, n)
    share = rng.uniform(0.0, 0.1, N_LABELS)
    truth = rng.random(n) < share[groups]
    z = rng.normal(size=n)
    z[truth] += rng.uniform(1.0, 5.0, int(truth.sum()))
    tails = [f",g{g:03d},{t}" for t in (0, 1) for g in range(N_LABELS)]
    rows = [repr(a) + tails[k] for a, k in zip(ndtr(-z).tolist(), (groups + N_LABELS * truth).tolist())]
    path.write_text("pvalue,group,truth\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_table(out, evalues, weights, rejected):
    with contextlib.redirect_stdout(io.StringIO()):
        cli._write_outputs(argparse.Namespace(out=str(out)), evalues, weights, rejected, {})


def s1_pvalues(n):
    """The p-values of the S1 instance with n hypotheses, 5 % non-null, seed 3."""
    config = SimulationConfig(
        setting="S1", parameters={"n": n, "n_alt": n // 20, "mu": 0.4, "sigma": 1.0}, seed=3
    )
    return generate(config, 0).pvals


def sort_layers(out):
    a_base = ALPHA / (1.0 + ALPHA)
    adaptive_blend = HybridConfig(alpha_ebh=ALPHA, weight_mode="adaptive")
    bh = ProcedureSpec(kind="bh", alpha=a_base)
    layers = {
        "solve_threshold_bh": lambda p, part, e: solve_threshold(p, bh),
        "_bc_scan": lambda p, part, e: _bc_scan(p, a_base),
        "compute_loo_thresholds": lambda p, part, e: compute_loo_thresholds(p, a_base, a_base),
        "_hybrid_evalues_adaptive": lambda p, part, e: _hybrid_evalues(p, adaptive_blend),
        "ebh_select": lambda p, part, e: ebh_select(e, ALPHA),
        "run_grouped_ebh_L1000": lambda p, part, e: run_grouped_ebh(p, part, ALPHA, "adaptive"),
    }
    for k in EXPONENTS:
        n = 10**k
        p = s1_pvalues(n)
        part = GroupPartition.from_sizes([n // 1000] * 1000)
        e = _hybrid_evalues(p, adaptive_blend)[0]
        for name, fn in layers.items():
            out.setdefault(name, {})[f"1e{k}"] = round(best_of(lambda: fn(p, part, e)), 6)


def fbc_layer(out):
    a_base = ALPHA / (1.0 + ALPHA)

    def solve(p, pi, kappa):
        curves = RejectionCurves(pi, kappa)
        return solve_threshold(p, ProcedureSpec(kind="fbc", alpha=a_base, rejection_functions=curves))

    for k in EXPONENTS:
        n = 10**k
        p = s1_pvalues(n)
        rng = np.random.default_rng([FBC_SEED, k])
        pi, kappa = rng.uniform(0.2, 0.9, n), rng.uniform(0.1, 0.9, n)
        out.setdefault("solve_threshold_fbc", {})[f"1e{k}"] = round(best_of(lambda: solve(p, pi, kappa)), 6)


def scan_layers(out):
    a_base = ALPHA / (1.0 + ALPHA)
    for key, n in SCAN_SIZES.items():
        p = s1_pvalues(n)
        grid = _Memo(p)(_bc_grid)
        layers = {
            "_run_scan_bc": lambda: _run_scan(p, grid, a_base),
            "_relaxed_plateau_bc": lambda: _relaxed_plateau(grid, a_base),
        }
        for name, fn in layers.items():
            out.setdefault(name, {})[key] = round(best_of(fn), 9)


def knockoff_layer(out):
    def select(w):
        memo = _Memo.of(w, check=as_stats)
        for alpha in KO_ALPHAS:
            knockoff_threshold(memo, alpha)

    for k in EXPONENTS:
        n = 10**k
        config = SimulationConfig(setting="KNOCK_SYNTH", parameters={"p": n, "n_alt": n // 20}, seed=3)
        w = generate(config, 0).stats_a
        out.setdefault("knockoff_threshold", {})[f"1e{k}"] = round(best_of(lambda: select(w)), 6)


def adaptive_layers(out):
    for e in STRUCT_EXPONENTS:
        inst = generate(SimulationConfig(setting="STRUCT", parameters={"n": 10**e}, seed=3), 0)
        seconds = best_of(lambda: structure_pipeline(
            inst.pvals, inst.covars, ALPHA, mode="cheap", rng=np.random.default_rng(0)
        ))
        out.setdefault("structure_pipeline_cheap", {})[f"1e{e}"] = round(seconds, 6)
    for key, n in NO_COVARIATE_SIZES.items():
        p = generate(SimulationConfig(setting="STRUCT", parameters={"n": n}, seed=3), 0).pvals
        seconds = best_of(lambda: structure_pipeline(
            p, None, ALPHA, mode="cheap", rng=np.random.default_rng(0)
        ))
        out.setdefault("structure_pipeline_no_covariates", {})[key] = round(seconds, 6)


def struct_fold(n):
    """The p-values and covariates of one fold of a STRUCT instance of 2n
    hypotheses, seed 3, as ``structure_pipeline`` splits it."""
    inst = generate(SimulationConfig(setting="STRUCT", parameters={"n": 2 * n}, seed=3), 0)
    labels = np.empty(2 * n, dtype=np.intp)
    labels[np.random.default_rng(0).permutation(2 * n)] = np.arange(2 * n) % 2
    return inst.pvals[labels == 1], inst.covars[labels == 1]


def fit_layer(out):
    kernel, calls, inside = adaptive._negloglik, 0, 0.0

    def timed_kernel(z, ell):
        negobj = kernel(z, ell)

        def timed(theta):
            nonlocal calls, inside
            start = time.perf_counter()
            result = negobj(theta)
            inside += time.perf_counter() - start
            calls += 1
            return result

        return timed

    for n, key in ((1500, "1500_d2"), (10**5, "1e5_d2")):
        p, x = struct_fold(n)
        seconds = best_of(lambda: fit_lfdr_em(p, x))
        adaptive._negloglik, calls, inside, fits = timed_kernel, 0, 0.0, 0
        try:
            start = time.perf_counter()
            while fits < 3 or time.perf_counter() - start < BUDGET_S:
                fit_lfdr_em(p, x)
                fits += 1
            total = time.perf_counter() - start
        finally:
            adaptive._negloglik = kernel
        out.setdefault("fit_lfdr_em", {})[key] = {
            "s_per_fit": round(seconds, 6),
            "evals_per_fit": round(calls / fits, 1),
            "objective_us_per_eval": round(1e6 * inside / calls, 1),
            "optimiser_us_per_eval": round(1e6 * (total - inside) / calls, 1),
        }


def replicate_layer(out):
    for k, s in enumerate(PLANS["campaigns"]):
        cfg = config(simulate, s, REPLICATE_SEED, k)
        seconds = best_of(lambda: simulate._replicate_metrics(cfg, 0, s.methods))
        out.setdefault("replicate", {})[s.name] = round(seconds, 6)


def io_layers(out, tmp):
    for e in EXPONENTS:
        csv, table_out = tmp / f"cli_{e}.csv", tmp / "rejections.csv"
        write_cli_csv(csv, 10**e)
        table = cli.read_table(csv, labels=True)
        p, labels = table["pvalue"], table["group"]
        part = GroupPartition.from_labels(labels)
        bh = ProcedureSpec(kind="bh", alpha=ALPHA)
        res = solve_threshold(p, bh)
        bh_table = (procedure_to_evalues(p, bh, res), np.ones(p.size), res.rejected)
        report = run_grouped_ebh(p, part, ALPHA, scheme="adaptive")
        groups_table = (report.evalues, report.weights, report.rejected)
        layers = {
            "read_table": lambda: cli.read_table(csv),
            "read_table_labels": lambda: cli.read_table(csv, labels=True),
            "from_labels": lambda: GroupPartition.from_labels(labels),
            "_write_outputs_bh": lambda: write_table(table_out, *bh_table),
            "_write_outputs_groups": lambda: write_table(table_out, *groups_table),
        }
        for name, fn in layers.items():
            out.setdefault(name, {})[f"1e{e}"] = round(best_of(fn), 6)


def main():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cold_start(out, Path(tmp))
        sort_layers(out)
        fbc_layer(out)
        scan_layers(out)
        knockoff_layer(out)
        adaptive_layers(out)
        fit_layer(out)
        replicate_layer(out)
        io_layers(out, Path(tmp))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
