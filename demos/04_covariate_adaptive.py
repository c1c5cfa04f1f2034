"""Covariate-adaptive testing with cross-fitted rejection curves.

Each hypothesis carries two covariates: one shifting how likely it is to be
non-null, one modulating its signal strength.  Rejection curves fitted by
maximum likelihood on complementary folds let the mirror-count procedure
spend its budget where signals are plausible, beating the covariate-blind
step-up baseline at the same (finite-sample) FDR level.  (Run time: about a
second.)
"""

import numpy as np

from evmt import (
    ProcedureSpec,
    SimulationConfig,
    fdp_power,
    generate,
    run_structure_adaptive,
    solve_threshold,
)

cfg = SimulationConfig(
    setting="STRUCT",
    parameters={"a0": 2.5, "a1": 2.0, "a_f": 1.0, "mu": 3.0, "n": 3000},
    replications=30,
    seed=11,
    target_alpha=0.1,
)

rows = {"step-up": [], "covariate-adaptive": []}
for r in range(cfg.replications):
    inst = generate(cfg, r)
    bh = solve_threshold(inst.pvals, ProcedureSpec(kind="bh", alpha=0.1)).rejected
    ada = run_structure_adaptive(
        inst.pvals, inst.covars, 0.1, mode="cheap", rng=np.random.default_rng(r)
    )
    rows["step-up"].append(fdp_power(bh, inst.truth))
    rows["covariate-adaptive"].append(fdp_power(ada, inst.truth))

print("moderate signal density, informative covariates, 30 replications\n")
for name, vals in rows.items():
    fdp, power = np.mean(vals, axis=0)
    print(f"{name:20s} power={power:.3f}  empirical fdr={fdp:.3f}")
