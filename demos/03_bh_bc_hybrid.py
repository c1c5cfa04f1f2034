"""Blending the step-up and mirror-count procedures with e-values.

In a dense-signal regime the mirror-count procedure dominates the step-up
one; reporting whichever looks better after the fact forfeits FDR control.
The blend keeps control by construction, and with leave-one-out adaptive
weights it tracks the stronger method far better than the fixed 0.5/0.5
average.
"""

import numpy as np

from evmt import SimulationConfig, fdp_power, generate, run_hybrid, solve_threshold
from evmt import HybridConfig, ProcedureSpec

cfg = SimulationConfig(setting="S2", replications=200, seed=42)
power = {m: [] for m in ("step-up", "mirror", "averaged blend", "adaptive blend")}
fdp = {m: [] for m in power}

for r in range(cfg.replications):
    inst = generate(cfg, r)
    runs = {
        "step-up": solve_threshold(inst.pvals, ProcedureSpec(kind="bh", alpha=0.05)).rejected,
        "mirror": solve_threshold(inst.pvals, ProcedureSpec(kind="bc", alpha=0.05)).rejected,
        "averaged blend": run_hybrid(inst.pvals, HybridConfig(alpha_ebh=0.05, weight_mode="averaged")),
        "adaptive blend": run_hybrid(inst.pvals, HybridConfig(alpha_ebh=0.05, weight_mode="adaptive")),
    }
    for name, rejected in runs.items():
        f, w = fdp_power(rejected, inst.truth)
        fdp[name].append(f)
        power[name].append(w)

print("dense-signal z-score model, 200 replications, level 0.05\n")
for name in power:
    print(
        f"{name:15s} power={np.mean(power[name]):.3f}  empirical fdr={np.mean(fdp[name]):.3f}"
    )
print(
    "\nThe adaptive blend rides the stronger (mirror-count) procedure while\n"
    "the fixed average is dragged down by the weaker one."
)
