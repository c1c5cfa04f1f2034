"""In-process timings of the sort-bound layers at n = 10^3 ... 10^6.

Times ``procedures._bc_scan``, ``hybrid.compute_loo_thresholds``,
``hybrid._hybrid_evalues`` (fast and exact weights) and
``groups.run_grouped_ebh`` (adaptive scheme, L = 1000 equal groups) on one
S1-like instance per n: the S1 generator with 5 % non-nulls, seed 3.  Each
figure is the best of several calls, repeated until the layer has run for
at least ``BUDGET_S`` seconds (at least three calls).

Run from the repository root, against the source tree under test::

    PYTHONPATH=src python tools/layer_timings.py

Prints one JSON object, ``{layer: {n: seconds}}``.
"""

from __future__ import annotations

import json
import time

from evmt.groups import GroupPartition, run_grouped_ebh
from evmt.hybrid import HybridConfig, _hybrid_evalues, compute_loo_thresholds
from evmt.procedures import _bc_scan
from evmt.simulate import SimulationConfig, generate

ALPHA = 0.1
BUDGET_S = 1.0
EXPONENTS = range(3, 7)  # n = 10^3 ... 10^6


def best_of(fn):
    best, spent, calls = float("inf"), 0.0, 0
    while calls < 3 or spent < BUDGET_S:
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best


def main():
    a_base = ALPHA / (1.0 + ALPHA)
    fast = HybridConfig(alpha_ebh=ALPHA, weight_mode="fast")
    exact = HybridConfig(alpha_ebh=ALPHA, weight_mode="adaptive")
    layers = {
        "_bc_scan": lambda p, part: _bc_scan(p, a_base),
        "compute_loo_thresholds": lambda p, part: compute_loo_thresholds(p, a_base, a_base),
        "_hybrid_evalues_fast": lambda p, part: _hybrid_evalues(p, fast),
        "_hybrid_evalues_exact": lambda p, part: _hybrid_evalues(p, exact),
        "run_grouped_ebh_L1000": lambda p, part: run_grouped_ebh(p, part, ALPHA, "adaptive"),
    }
    out = {name: {} for name in layers}
    for e in EXPONENTS:
        n = 10**e
        config = SimulationConfig(
            setting="S1", parameters={"n": n, "n_alt": n // 20, "mu": 0.4, "sigma": 1.0}, seed=3
        )
        p = generate(config, 0).pvals
        part = GroupPartition.from_sizes([n // 1000] * 1000)
        for name, fn in layers.items():
            out[name][f"1e{e}"] = round(best_of(lambda: fn(p, part)), 6)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
