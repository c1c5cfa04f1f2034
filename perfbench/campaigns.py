"""Campaign plans shared by ``run.py`` and its worker process.

A round runs ``evmt.run_campaign`` once per unit of the plan (see
``units``), in this order, and every round of a run repeats the same
configurations.  Replicate counts keep each small setting near a quarter
of a second, so that a run times each of them several times, and the
n = 10^5 setting at its minimum of one replicate.  STRUCT takes about a
second a replicate, so it runs as six one-replicate campaigns on
separate instances: each is timed on its own, and a run takes the
median of two or three short passes of each instead of one or two long
passes of a six-replicate campaign.  Method sets are spelled out here
rather than read from ``evmt.cli`` so the workload cannot change with the
program under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SCORES = ["BH", "ST", "BC", "eBH_Ave", "eBH_Ada", "fast_eBH_Ada"]
GROUPED = ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"]
KNOCK = ["KO_1", "KO_2", "KO_Hybrid"]
STRUCT = ["BH", "eBH_FBC"]


@dataclass(frozen=True)
class Setting:
    name: str  # label in the printed figures, e.g. ``s1`` for ``s1_reps_per_s``
    setting: str  # evmt setting
    reps: int  # replicates per campaign
    methods: list
    parameters: dict = field(default_factory=dict)
    # replicates of the campaign that checks FDR control (0: none, as one
    # replicate gives no standard error); when equal to ``reps * instances``
    # the check reads the timed campaigns' rows, else it runs an untimed
    # campaign
    fdr_reps: int = 0
    # campaigns per round, each on instances of its own; more than one
    # needs ``reps == 1``, so that the instances pool into one sample
    instances: int = 1


PLANS = {
    "campaigns": [
        Setting("s1", "S1", 80, SCORES, fdr_reps=400),
        Setting("s2", "S2", 45, SCORES, fdr_reps=200),
        Setting("e1", "E1", 130, GROUPED, fdr_reps=400),
        Setting("knock", "KNOCK_SYNTH", 700, KNOCK, fdr_reps=700),
        Setting("s1_1e5", "S1", 1, SCORES, {"n": 100_000, "n_alt": 5_000}),
    ],
    "campaign-struct": [
        Setting("struct", "STRUCT", 1, STRUCT, fdr_reps=6, instances=6),
    ],
}


def units(plan):
    """(setting index, instance, setting) of each campaign of a round, in order."""
    return [(k, i, s) for k, s in enumerate(plan) for i in range(s.instances)]


def config(evmt_simulate, plan_setting: Setting, seed: int, setting_index: int, instance: int = 0):
    """The ``SimulationConfig`` of one instance of a setting of a plan for a benchmark seed."""
    entropy = [seed, setting_index] + ([instance] if instance else [])
    state = np.random.SeedSequence(entropy).generate_state(1)
    return evmt_simulate.SimulationConfig(
        setting=plan_setting.setting,
        parameters=dict(plan_setting.parameters),
        replications=plan_setting.reps,
        seed=int(state[0] >> 1),
    )
