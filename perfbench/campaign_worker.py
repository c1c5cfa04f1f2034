"""Runs the campaign rounds of one workload in a process of its own.

Usage: ``python3 campaign_worker.py WORKLOAD SEED SECONDS RESULT_JSON [SPANS_JSON]``

First runs one replicate of each setting with its default parameters,
untimed and uncounted, so that first-call costs are paid before timing.
Then repeats the round of ``campaigns.py`` on the same configurations until
SECONDS have passed, at least once, with a speed-probe run before and after
each campaign.  With SPANS_JSON it runs one round, then installs the tracer,
runs the round again and writes the spans there.  The result file holds,
per round, each campaign's setting index, instance, replicates, wall
seconds, the probe times before and after it and its
``MetricsReport.methods`` table.  ``run.py`` starts this process so that
its peak memory is that of the campaigns alone.
"""

from __future__ import annotations

import json
import sys
import time

import speed
from campaigns import PLANS, config, units


def run_round(simulate, configs):
    out = []
    probe = speed.probe_once()
    for k, i, s, cfg in configs:
        start = time.perf_counter()
        report = simulate.run_campaign(cfg, s.methods)
        seconds = time.perf_counter() - start
        after = speed.probe_once()
        out.append({"setting": k, "instance": i, "reps": s.reps, "seconds": seconds,
                    "probes": [probe, after], "methods": report.methods})
        probe = after
    return out


def main(argv):
    workload, seed, seconds, result_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    import evmt.simulate as simulate

    plan = PLANS[workload]
    configs = [(k, i, s, config(simulate, s, seed, k, i)) for k, i, s in units(plan)]
    for s in {s.setting: s for s in plan}.values():
        simulate.run_campaign(simulate.SimulationConfig(setting=s.setting, replications=1), s.methods)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(simulate, configs))
    result = {"rounds": rounds}
    if spans_path:
        from tracer import Tracer

        tracer = Tracer().install()
        result["traced"] = run_round(simulate, configs)
        tracer.uninstall()
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
