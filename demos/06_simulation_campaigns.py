"""Driving reproducible Monte Carlo campaigns and exporting plot-ready CSV.

Campaigns are deterministic functions of (setting, parameters, seed); each
replicate runs on its own counter-based substream, so the same
(setting, parameters, seed) always gives back the same report.
"""

from pathlib import Path

from evmt import SimulationConfig, run_campaign

cfg = SimulationConfig(setting="E1", replications=200, seed=7)
report = run_campaign(cfg, ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"])

print(f"setting E1, {cfg.replications} replications, level {cfg.target_alpha}\n")
header = f"{'method':8s} {'power':>7s} {'fdr':>7s} {'fdr_g1':>7s} {'fdr_g2':>7s}"
print(header)
for name, m in report.methods.items():
    print(
        f"{name:8s} {m['power']:7.3f} {m['fdr']:7.3f} "
        f"{m['group_fdr'][0]:7.3f} {m['group_fdr'][1]:7.3f}"
    )

out = Path("campaign_e1.csv")
report.to_csv(out)
print(f"\nflat metric rows written to {out} (one row per setting/method/metric)")

# identical (setting, parameters, seed) -> identical report
again = run_campaign(cfg, ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"])
print("bit-identical rerun:", report.rows() == again.rows())
