"""In-process timings of the sort-bound layers and the CLI's I/O at n = 10^3 ... 10^6.

Times ``procedures._bc_scan``, ``hybrid.compute_loo_thresholds``,
``hybrid._hybrid_evalues`` (adaptive weights) and
``groups.run_grouped_ebh`` (adaptive scheme, L = 1000 equal groups) on one
S1-like instance per n: the S1 generator with 5 % non-nulls, seed 3.

Times ``adaptive.structure_pipeline`` (cheap weights, two folds: the
cross-fit, one fbc scan per fold and the weights) on one STRUCT instance
per n = 10^3 ... 10^5, seed 3.

Times the CLI's I/O on a CSV built like the benchmark's ``cli-1m`` input
(seed 941, n rows, labels ``g000`` ... ``g999``): ``cli.read_table`` without
and with labels, ``GroupPartition.from_labels`` on the parsed labels, and
``cli._write_outputs`` on the rejection tables of ``evmt bh`` and
``evmt groups --weights adaptive``.

Each figure is the best of several calls, repeated until the layer has run
for at least ``BUDGET_S`` seconds (at least three calls).

The ``replicate`` row times ``simulate._replicate_metrics`` on replicate 0
of each setting of the benchmark's ``campaigns`` workload (its plan in
``perfbench/campaigns.py``, benchmark seed ``REPLICATE_SEED``), with the
setting's method set: one draw and every method on it, sharing the
replicate's level-free scans.

The ``cold_start`` row is the fixed cost every ``evmt`` process pays: the
median wall time of ``COLD_RUNS`` fresh interpreters running
``import evmt``, started with ``subprocess``, next to the same for
``import numpy``, the floor under it.

Run from the repository root, against the source tree under test::

    PYTHONPATH=src python tools/layer_timings.py

Prints one JSON object, ``{layer: {n: seconds}}``; ``cold_start`` is keyed
by the statement run and ``replicate`` by the setting's name instead of n.
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

from evmt import cli, simulate
from evmt.adaptive import structure_pipeline
from evmt.groups import GroupPartition, run_grouped_ebh
from evmt.hybrid import HybridConfig, _hybrid_evalues, compute_loo_thresholds
from evmt.procedures import ProcedureSpec, _bc_scan, procedure_to_evalues, solve_threshold
from evmt.simulate import SimulationConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from campaigns import PLANS, config  # noqa: E402  the benchmark's campaign plans

ALPHA = 0.1
BUDGET_S = 1.0
EXPONENTS = range(3, 7)  # n = 10^3 ... 10^6
STRUCT_EXPONENTS = range(3, 6)  # n = 10^3 ... 10^5
CSV_SEED = 941
N_LABELS = 1000
COLD_RUNS = 7
REPLICATE_SEED = 5


def best_of(fn):
    best, spent, calls = float("inf"), 0.0, 0
    while calls < 3 or spent < BUDGET_S:
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best


def cold_start(out):
    """Median wall seconds of fresh interpreters running each import."""
    for statement in ("import numpy", "import evmt"):
        runs = []
        for _ in range(COLD_RUNS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", statement], check=True)
            runs.append(time.perf_counter() - start)
        out.setdefault("cold_start", {})[statement] = round(statistics.median(runs), 6)


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


def sort_layers(out):
    a_base = ALPHA / (1.0 + ALPHA)
    exact = HybridConfig(alpha_ebh=ALPHA, weight_mode="adaptive")
    layers = {
        "_bc_scan": lambda p, part: _bc_scan(p, a_base),
        "compute_loo_thresholds": lambda p, part: compute_loo_thresholds(p, a_base, a_base),
        "_hybrid_evalues_exact": lambda p, part: _hybrid_evalues(p, exact),
        "run_grouped_ebh_L1000": lambda p, part: run_grouped_ebh(p, part, ALPHA, "adaptive"),
    }
    for e in EXPONENTS:
        n = 10**e
        config = SimulationConfig(
            setting="S1", parameters={"n": n, "n_alt": n // 20, "mu": 0.4, "sigma": 1.0}, seed=3
        )
        p = generate(config, 0).pvals
        part = GroupPartition.from_sizes([n // 1000] * 1000)
        for name, fn in layers.items():
            out.setdefault(name, {})[f"1e{e}"] = round(best_of(lambda: fn(p, part)), 6)


def adaptive_layers(out):
    for e in STRUCT_EXPONENTS:
        inst = generate(SimulationConfig(setting="STRUCT", parameters={"n": 10**e}, seed=3), 0)
        seconds = best_of(lambda: structure_pipeline(
            inst.pvals, inst.covars, ALPHA, mode="cheap", rng=np.random.default_rng(0)
        ))
        out.setdefault("structure_pipeline_cheap", {})[f"1e{e}"] = round(seconds, 6)


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
    cold_start(out)
    sort_layers(out)
    adaptive_layers(out)
    replicate_layer(out)
    with tempfile.TemporaryDirectory() as tmp:
        io_layers(out, Path(tmp))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
