import dataclasses
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import (
    ConfigurationError,
    GroupPartition,
    HybridConfig,
    InputError,
    ProcedureSpec,
    RejectionCurves,
    combine_and_select,
    fbc_group_threshold,
    fdp_power,
    groupwise_bc_thresholds,
    knockoff_threshold,
    run_grouped_ebh,
    run_hybrid,
    solve_threshold,
    structure_weights,
)
from evmt import cli, groups, hybrid, knockoffs, procedures, simulate
from evmt.adaptive import structure_pipeline
from evmt.simulate import (
    MetricsReport,
    SimInstance,
    SimulationConfig,
    default_parameters,
    generate,
    run_campaign,
    toy_two_group,
)

SCORES = ["BH", "ST", "BC", "eBH_Ave", "eBH_Ada", "fast_eBH_Ada"]
GROUPED = ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"]


def test_builtin_parameter_tables():
    e1 = default_parameters("E1")["groups"]
    assert e1[0] == {"n": 100, "n_alt": 20, "beta_a": 4.0, "beta_b": 500.0}
    assert e1[1] == {"n": 1000, "n_alt": 20, "beta_a": 0.1, "beta_b": 500.0}
    f3 = default_parameters("F3")["groups"]
    assert [g["n"] for g in f3] == [50, 100, 50, 100]
    assert [g["n_alt"] for g in f3] == [2, 2, 4, 4]
    assert [g["beta_a"] for g in f3] == [0.1, 0.1, 0.2, 0.3]
    assert SimulationConfig(setting="F3").target_alpha == 0.2
    s1 = default_parameters("S1")
    assert s1 == {"n": 1000, "n_alt": 50, "mu": 0.4, "sigma": 1.0}
    with pytest.raises(ConfigurationError):
        default_parameters("E9")
    with pytest.raises(ConfigurationError):
        SimulationConfig(setting="whatever")


def test_generate_is_deterministic_per_replicate():
    cfg = SimulationConfig(setting="E1", replications=5, seed=42)
    a = generate(cfg, 3)
    b = generate(cfg, 3)
    assert np.array_equal(a.pvals, b.pvals)
    assert np.array_equal(a.truth, b.truth)
    c = generate(cfg, 4)
    assert not np.array_equal(a.pvals, c.pvals)


def test_allnull_generation():
    cfg = SimulationConfig(setting="ALLNULL", parameters={"n": 50}, seed=1)
    inst = generate(cfg, 0)
    assert inst.truth.sum() == 0
    assert inst.pvals.size == 50
    assert inst.partition is None
    grouped = SimulationConfig(
        setting="ALLNULL", parameters={"n": 50, "group_sizes": [20, 30], "d": 2}, seed=1
    )
    inst = generate(grouped, 0)
    assert inst.partition.sizes.tolist() == [20, 30]
    assert inst.covars.shape == (50, 2)


def test_s1_alternatives_are_shifted():
    cfg = SimulationConfig(setting="S1", seed=3)
    inst = generate(cfg, 0)
    assert inst.pvals.size == 1000 and inst.truth.sum() == 50
    assert inst.pvals[inst.truth == 1].mean() < 0.2
    assert abs(inst.pvals[inst.truth == 0].mean() - 0.5) < 0.06


def test_struct_generation_shapes():
    inst = generate(SimulationConfig(setting="STRUCT", seed=5), 0)
    assert inst.covars.shape == (3000, 2)
    assert 0 < inst.truth.sum() < 600  # sparse regime at a0 = 3.5


def test_knockoff_generation():
    inst = generate(SimulationConfig(setting="KNOCK_SYNTH", seed=5), 0)
    assert inst.pvals is None
    assert inst.stats_a.size == inst.stats_b.size == 200
    assert np.all(inst.stats_a[:30] > 0)


def reference_knockoff_draw(config, replicate):
    """KNOCK_SYNTH's statistics drawn with ``rng.choice`` for the signs, as
    ``generate`` once drew them."""
    rng = simulate._replicate_rng(config.seed, replicate)
    p, na = config.parameters["p"], config.parameters["n_alt"]
    w_a = rng.choice([-1.0, 1.0], size=p) * np.abs(rng.normal(size=p))
    w_a[:na] = np.abs(rng.normal(config.parameters["mu"], 1.0, size=na))
    w_b = rng.choice([-1.0, 1.0], size=p) * np.abs(rng.normal(size=p))
    return w_a, w_b


@pytest.mark.parametrize("p", [1, 2, 200])
def test_knockoff_signs_are_the_choice_draw(p):
    # the signs index a fixed pair with rng.integers: the same values as
    # rng.choice([-1.0, 1.0]), and the generator ends in the same state
    for seed in (0, 5, 2**31 - 1):
        config = SimulationConfig(setting="KNOCK_SYNTH", parameters={"p": p, "n_alt": min(p, 30) // 2},
                                  seed=seed)
        for replicate in (0, 1, 17):
            inst = generate(config, replicate)
            w_a, w_b = reference_knockoff_draw(config, replicate)
            assert inst.stats_a.tobytes() == w_a.tobytes()
            assert inst.stats_b.tobytes() == w_b.tobytes()
            old, new = (simulate._replicate_rng(seed, replicate) for _ in range(2))
            signs = simulate._SIGNS[new.integers(0, 2, size=p)]
            assert signs.tobytes() == old.choice([-1.0, 1.0], size=p).tobytes()
            assert new.random(4).tolist() == old.random(4).tolist()


@pytest.mark.parametrize("setting, parameters", [
    ("E1", {}),
    ("ALLNULL", {"n": 50, "group_sizes": [20, 30]}),
])
def test_grouped_replicates_share_one_read_only_partition(setting, parameters):
    config = SimulationConfig(setting=setting, parameters=parameters, seed=3)
    a, b = generate(config, 0), generate(config, 1)
    assert a.partition is b.partition
    part = a.partition
    for array in (part.labels, part.sizes, part._order):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        part.labels[0] = 1
    # the same sizes give the same partition as a fresh one
    fresh = GroupPartition.from_sizes(part.sizes.tolist())
    assert np.array_equal(part.labels, fresh.labels) and part.n_groups == fresh.n_groups


def test_a_partition_leaves_its_labels_array_writeable():
    codes = np.array([0, 1, 1, 0], dtype=np.intp)
    part = GroupPartition(labels=codes, n_groups=2)
    assert not part.labels.flags.writeable
    assert codes.flags.writeable


def test_campaign_reproducible_and_zero_power_under_null():
    cfg = SimulationConfig(setting="ALLNULL", parameters={"n": 80}, replications=40, seed=9)
    r1 = run_campaign(cfg, ["BH", "BC", "ST"])
    r2 = run_campaign(cfg, ["BH", "BC", "ST"])
    assert r1.rows() == r2.rows()
    for m in r1.methods.values():
        assert m["power"] == 0.0


def test_campaign_reference_methods_match_direct_runs():
    from evmt import fdp_power

    cfg = SimulationConfig(setting="E1", replications=10, seed=17)
    report = run_campaign(cfg, ["BC_Com", "BC_Sep"])
    assert all("group_fdr" in m for m in report.methods.values())
    # recompute both reference methods by hand over the same replicates
    com_fdp, sep_fdp = [], []
    for r in range(10):
        inst = generate(cfg, r)
        pooled = solve_threshold(inst.pvals, ProcedureSpec(kind="bc", alpha=0.05))
        com_fdp.append(fdp_power(pooled.rejected, inst.truth)[0])
        union = []
        for l in range(inst.partition.n_groups):
            idx = inst.partition.indices(l)
            res = solve_threshold(inst.pvals[idx], ProcedureSpec(kind="bc", alpha=0.05))
            union.extend(idx[res.rejected].tolist())
        sep_fdp.append(fdp_power(np.asarray(union, dtype=int), inst.truth)[0])
    assert report.methods["BC_Com"]["fdr"] == np.mean(com_fdp)
    assert report.methods["BC_Sep"]["fdr"] == np.mean(sep_fdp)


def test_null_calibration_of_evalue_methods():
    # empirical FDR of every e-value based method stays at or below the
    # target under the global null
    grouped = SimulationConfig(
        setting="ALLNULL",
        parameters={"n": 60, "group_sizes": [30, 30]},
        replications=400,
        seed=77,
        target_alpha=0.1,
    )
    report = run_campaign(grouped, ["eBH_1", "eBH_2", "eBH_Ada", "eBH_Ave", "fast_eBH_Ada"])
    for name, m in report.methods.items():
        assert m["fdr"] <= 0.1 + 3 * max(m["fdr_se"], 1e-12), name


def test_unknown_method_rejected():
    cfg = SimulationConfig(setting="E1", replications=2, seed=1)
    with pytest.raises(ConfigurationError):
        run_campaign(cfg, ["BH", "nope"])


def _malformed_calls():
    """Calls with a name or configuration value of the wrong type, each
    with the message of its refusal."""
    p = np.linspace(0.01, 0.99, 8)
    part = GroupPartition.from_sizes([4, 4])
    thresholds = groupwise_bc_thresholds(p, part, 0.2)
    curves = RejectionCurves(np.full(8, 0.5), np.full(8, 0.5))
    fold_thresholds = fbc_group_threshold(p, part, curves, 0.2)
    return {
        "hybrid mode": (lambda: HybridConfig(alpha_ebh=0.1, weight_mode=3), "unknown weight mode 3"),
        "grouped scheme": (lambda: run_grouped_ebh(p, part, 0.2, scheme=3), "unknown weight scheme 3"),
        "assembled scheme": (lambda: groups.assemble_weights(p, part, thresholds, None, 0.2),
                             "unknown weight scheme None"),
        "structure mode": (lambda: structure_weights(p, part, curves, fold_thresholds, 0, 0.2),
                           "unknown weight mode 0"),
        "pipeline mode": (lambda: structure_pipeline(p, None, 0.2, mode=["cheap"]),
                          r"unknown weight mode \['cheap'\]"),
        "setting": (lambda: SimulationConfig(setting=5), "unknown setting 5"),
        "default setting": (lambda: default_parameters(5), "unknown setting 5"),
        "parameters": (lambda: SimulationConfig(setting="S1", parameters=None),
                       "parameters must be a table, got None"),
        "group count": (lambda: GroupPartition(labels=[0, 1], n_groups=2.5),
                        "whole number of at least one group, got 2.5"),
        "method list": (lambda: run_campaign(SimulationConfig(setting="S1", replications=1), "BH"),
                        "methods must be a list of names, got 'BH'"),
        "method count": (lambda: run_campaign(SimulationConfig(setting="S1", replications=1), 5),
                         "methods must be a list of names, got 5"),
    }


@pytest.mark.parametrize("case", list(_malformed_calls()))
def test_malformed_names_and_values_are_configuration_errors(case):
    call, message = _malformed_calls()[case]
    with pytest.raises(ConfigurationError, match=message):
        call()


# the instance fields each method reads (eBH_Ada reads the partition only
# where there is one), and those each setting fills at its default parameters
_READS = {
    **dict.fromkeys(["BH", "ST", "BC", "BC_Com", "eBH_Ada", "eBH_Ave", "fast_eBH_Ada"], ("pvals",)),
    **dict.fromkeys(["BC_Sep", "eBH_1", "eBH_2"], ("pvals", "partition")),
    **dict.fromkeys(["eBH_FBC", "eBH_FBC_unit"], ("pvals", "covars")),
    "KO_1": ("stats_a",), "KO_2": ("stats_b",), "KO_Hybrid": ("stats_a", "stats_b"),
}
_FILLS = {
    **dict.fromkeys(["E1", "E2", "F1", "F2", "F3"], {"pvals", "partition"}),
    **dict.fromkeys(["S1", "S2", "ALLNULL"], {"pvals"}),
    "STRUCT": {"pvals", "covars"},
    "KNOCK_SYNTH": {"stats_a", "stats_b"},
}


@pytest.mark.parametrize("setting, name", [(setting, name) for setting in _FILLS for name in _READS
                                           if not set(_READS[name]) <= _FILLS[setting]])
def test_method_requires_matching_setting(setting, name):
    missing = " and ".join(f for f in _READS[name] if f not in _FILLS[setting])
    with pytest.raises(ConfigurationError, match=f"^method {name} needs {missing} for this setting$"):
        run_campaign(SimulationConfig(setting=setting, replications=1), [name])


def test_a_refused_method_stops_the_replicate_before_any_row_runs(monkeypatch):
    calls = _count_calls(monkeypatch, simulate, "solve_threshold")
    with pytest.raises(ConfigurationError, match="method BC_Sep needs partition"):
        run_campaign(SimulationConfig(setting="S1", replications=1), ["BH", "BC_Sep"])
    assert calls == []


@pytest.mark.parametrize("setting", list(_FILLS))
def test_every_default_method_runs_on_its_setting(setting):
    # the tables above match the program's
    config = SimulationConfig(setting=setting, replications=1)
    inst = generate(config, 0)
    filled = {f.name for f in dataclasses.fields(inst) if getattr(inst, f.name) is not None}
    assert filled == _FILLS[setting] | {"truth"}
    assert set(_READS) == set(simulate._METHODS)
    # a row for every setting; "grouped" and "scores" name lists that settings share
    assert set(cli._DEFAULT_METHODS) == set(_FILLS) | {"grouped", "scores"}
    methods = cli._DEFAULT_METHODS[setting]
    assert list(run_campaign(config, methods).methods) == methods


def test_report_csv_and_json_roundtrip(tmp_path):
    cfg = SimulationConfig(setting="E2", replications=5, seed=23)
    report = run_campaign(cfg, ["eBH_1", "eBH_Ada"])
    path = tmp_path / "metrics.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "setting,method,metric,value,std_error"
    # 2 methods x (2 overall + 2 groups x 2 metrics) = 12 rows
    assert len(lines) == 1 + 12
    payload = report.to_json()
    assert '"setting": "E2"' in payload


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(
        "# toy campaign\nsetting = S1\nreps = 7\nseed = 11\nalpha = 0.1\nmu = 0.45\n"
    )
    cfg = SimulationConfig.from_file(cfg_file)
    assert cfg.setting == "S1"
    assert cfg.replications == 7
    assert cfg.seed == 11
    assert cfg.target_alpha == 0.1
    assert cfg.parameters["mu"] == 0.45
    bad = tmp_path / "bad.cfg"
    bad.write_text("setting = S1\nmu 0.4\n")
    from evmt import InputError

    with pytest.raises(InputError):
        SimulationConfig.from_file(bad)


@pytest.mark.parametrize("key", ["reps", "replications", "seed"])
@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_config_file_bad_integer_names_its_line(tmp_path, key, value):
    from evmt import InputError

    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(f"setting = S1\n\n{key} = {value}\n")
    with pytest.raises(InputError, match=rf"campaign.cfg:3: {key} must be an integer, got '{value}'"):
        SimulationConfig.from_file(cfg)


def test_negative_seed_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="seed"):
        SimulationConfig(setting="S1", seed=-1)
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text("setting = S1\nseed = -2\n")
    with pytest.raises(ConfigurationError, match="campaign.cfg:2: seed"):
        SimulationConfig.from_file(cfg)


@pytest.mark.parametrize(
    "setting, parameters, message",
    [
        ("S1", {"nalt": 7}, "unknown parameter 'nalt'; expected one of n, n_alt, mu, sigma"),
        ("S1", {"n": -5}, "n must be at least 1, got -5"),
        ("S1", {"n_alt": 5000}, "n_alt must be at most n = 1000, got 5000"),
        ("S1", {"mu": "abc"}, "mu must be a finite number, got 'abc'"),
        ("S1", {"n": 2.5}, "n must be an integer, got 2.5"),
        ("S2", {"sigma": -0.1}, "sigma must be at least 0, got -0.1"),
        ("E1", {"groups": 3}, "groups must be a non-empty list, got 3"),
        ("E1", {"groups": [{"n": 10, "n_alt": 2, "beta_b": 5.0}]}, r"groups\[0\].beta_a is missing"),
        ("E1", {"groups": [{"n": 10, "n_alt": 2, "beta_a": 0.0, "beta_b": 5.0}]},
         r"groups\[0\].beta_a must be above 0, got 0.0"),
        ("F3", {"groups": [{"n": 10, "n_alt": 11, "beta_a": 1.0, "beta_b": 5.0}]},
         r"groups\[0\].n_alt must be at most n = 10, got 11"),
        ("KNOCK_SYNTH", {"n_alt": 201}, "n_alt must be at most p = 200, got 201"),
        ("STRUCT", {"a0": float("inf")}, "a0 must be a finite number, got inf"),
        ("ALLNULL", {"n": 0}, "n must be at least 1, got 0"),
        ("ALLNULL", {"n": 50, "group_sizes": [20, 20]}, "group_sizes must sum to n = 50, got 40"),
    ],
)
def test_bad_parameters_are_configuration_errors(setting, parameters, message):
    with pytest.raises(ConfigurationError, match=message):
        SimulationConfig(setting=setting, parameters=parameters)


def test_parameter_defaults_come_from_the_table():
    for setting, table in simulate._PARAMETERS.items():
        defaults = default_parameters(setting)
        assert defaults == {k: v.default for k, v in table.items() if v.default is not None}
        assert SimulationConfig(setting=setting).parameters == defaults
    # integral floats count as integers and are stored as them; the optional
    # ALLNULL keys stay optional
    SimulationConfig(setting="S1", parameters={"n": 1e3, "n_alt": 50.0})
    as_floats = SimulationConfig(setting="S1", parameters={"n": 100}, replications=2.0, seed=1.0)
    assert type(as_floats.replications) is int and type(as_floats.seed) is int
    want = run_campaign(replace(as_floats, replications=2, seed=1), ["BH"])
    got = run_campaign(as_floats, ["BH"])
    assert (got.replications, got.seed, got.rows()) == (2, 1, want.rows())
    SimulationConfig(setting="ALLNULL", parameters={"n": 50, "group_sizes": [20, 30], "d": 2})


def test_parameters_are_checked_once_per_config(monkeypatch):
    config = SimulationConfig(setting="E1", replications=3, seed=4)

    def fail(*args):
        raise AssertionError("parameters checked again")

    monkeypatch.setattr(simulate, "_check_table", fail)
    run_campaign(config, ["BH", "eBH_Ada"])


@pytest.mark.parametrize(
    "entry, error, message",
    [
        ("nalt = 7", "InputError", "campaign.cfg:3: unknown parameter 'nalt'"),
        ('mu = "abc"', "InputError", "campaign.cfg:3: mu must be a finite number"),
        ("n = -5", "ConfigurationError", "campaign.cfg:3: n must be at least 1"),
        ("n = 10", "ConfigurationError", "campaign.cfg:3: n_alt must be at most n = 10, got 50"),
    ],
)
def test_config_file_parameter_errors_name_their_line(tmp_path, entry, error, message):
    import evmt

    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(f"setting = S1\nreps = 2\n{entry}\n")
    with pytest.raises(getattr(evmt, error), match=message):
        SimulationConfig.from_file(cfg)


def test_toy_two_group_story():
    from evmt.groups import run_grouped_ebh

    pvals, part, truth = toy_two_group()
    unit = run_grouped_ebh(pvals, part, 0.05, scheme="unit", truth=truth)
    assert unit.rejected.size == 0
    ada = run_grouped_ebh(pvals, part, 0.05, scheme="adaptive", truth=truth)
    assert ada.rejected.size == 40
    assert ada.fdp == 0.0 and ada.power == 1.0


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_stage_builds(monkeypatch, stages):
    """Wrap each ``(module, name)`` stage in every namespace that holds it.

    Each build records ``(stage, key, data)``; the same wrapper replaces the
    stage everywhere, so a memo keys it the same way in every module.
    """
    builds = []
    for module, name in stages:
        original = getattr(module, name)

        def counted(memo, *key, _name=name, _original=original):
            builds.append((_name, key, memo.data.tobytes()))
            return _original(memo, *key)

        for ns in (procedures, groups, hybrid, knockoffs, simulate):
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    return builds


@pytest.mark.parametrize(
    "setting, methods, per_replicate",
    [
        ("S1", SCORES, {"_sorted": 1, "_bc_grid": 1}),
        # BC_Com scans all of p, the grouped methods each group's share
        ("E1", GROUPED + ["eBH_Ave", "fast_eBH_Ada"], {"_sorted": 3, "_bc_grid": 3, "_group_scans": 1}),
        # one sort and one mirror grid per knockoff family
        ("KNOCK_SYNTH", ["KO_1", "KO_2", "KO_Hybrid"], {"_sorted": 2, "_knockoff_grid": 2}),
    ],
)
def test_each_level_free_stage_runs_once_per_replicate(monkeypatch, setting, methods, per_replicate):
    builds = _count_stage_builds(monkeypatch, [
        (procedures, "_sorted"), (procedures, "_bc_grid"),
        (groups, "_group_scans"), (knockoffs, "_knockoff_grid"),
    ])
    reps = 6
    run_campaign(SimulationConfig(setting=setting, replications=reps, seed=5), methods)
    # no stage is built twice on the same data and key
    assert len(builds) == len(set(builds))
    counts = {name: sum(b[0] == name for b in builds) for name in per_replicate}
    assert counts == {name: reps * k for name, k in per_replicate.items()}
    assert len(builds) == reps * sum(per_replicate.values())


def test_grouped_eBH_Ada_stays_apart_from_the_hybrid(monkeypatch):
    # with groups, eBH_Ada is the grouped procedure and fast_eBH_Ada the hybrid
    blends = _count_calls(monkeypatch, hybrid, "_hybrid_evalues")
    grouped = _count_calls(monkeypatch, simulate, "run_grouped_ebh")
    cfg = SimulationConfig(setting="E1", replications=4, seed=3)
    run_campaign(cfg, ["eBH_Ada", "fast_eBH_Ada", "BC", "BC_Com"])
    assert len(blends) == 4 and len(grouped) == 4


def test_shared_runners_run_once_per_replicate(monkeypatch):
    # without groups, eBH_Ada and fast_eBH_Ada share one adaptive blend, and
    # BC and BC_Com one scan; eBH_Ave makes the second blend
    blends = _count_calls(monkeypatch, hybrid, "_hybrid_evalues")
    mirror = _count_calls(monkeypatch, procedures, "_run_scan")
    stepup = _count_calls(monkeypatch, procedures, "_stepup_scan")
    cfg = SimulationConfig(setting="S1", replications=5, seed=5)
    report = run_campaign(cfg, cli._DEFAULT_METHODS["scores"] + ["BC_Com"])
    assert len(blends) == 10
    # BC (BC_Com) and the BC level of each blend; BH, ST and the BH level of each blend
    assert len(mirror) == 5 * 3 and len(stepup) == 5 * 4
    assert report.methods["eBH_Ada"] == report.methods["fast_eBH_Ada"]
    assert report.methods["BC"] == report.methods["BC_Com"]


# Campaign reports of the commit before the replicate memo, one plan per
# setting; each method set covers every runner the setting can take.
_REPORT_METHODS = {
    "scores": ["BH", "ST", "BC", "BC_Com", "eBH_Ave", "eBH_Ada", "fast_eBH_Ada"],
    "grouped": ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada", "eBH_Ave", "fast_eBH_Ada", "BC", "BH", "ST"],
}
_REPORT_PLAN = {
    "S1": (dict(replications=8, seed=11), _REPORT_METHODS["scores"]),
    "S2": (dict(replications=4, seed=12), _REPORT_METHODS["scores"]),
    "E1": (dict(replications=8, seed=13), _REPORT_METHODS["grouped"]),
    "KNOCK_SYNTH": (dict(replications=20, seed=14), ["KO_1", "KO_2", "KO_Hybrid"]),
    "STRUCT": (dict(parameters={"n": 300}, replications=2, seed=15), ["BH", "eBH_FBC", "eBH_FBC_unit"]),
    "ALLNULL": (
        dict(parameters={"n": 90, "group_sizes": [30, 60], "d": 1}, replications=12, seed=16),
        _REPORT_METHODS["grouped"] + ["eBH_FBC"],
    ),
}


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("setting", list(_REPORT_PLAN))
def test_campaign_reports_are_unchanged(setting, runs):
    # with runs=2 the same campaign runs twice in a row: nothing one campaign
    # leaves behind in the process changes the next one's report
    expected = json.loads((Path(__file__).parent / "data" / "campaign_reports.json").read_text())
    kwargs, methods = _REPORT_PLAN[setting]
    for _ in range(runs):
        report = run_campaign(SimulationConfig(setting=setting, **kwargs), methods)
        # JSON keeps every float exactly (shortest round-trip repr)
        assert json.loads(json.dumps(report.methods)) == expected[setting]


_PROP_PVALUE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.001, 0.01, 0.02, 0.25, 0.75, 0.99]),
    st.floats(0.0, 1.0),
)


@st.composite
def _instances(draw):
    """A small instance with p-values, 1 to 4 groups and two statistic families."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["null", "drawn", "signal"]))
    if kind == "null":
        p = rng.uniform(size=n)
    elif kind == "drawn":
        # ties and exact 0, 0.5 and 1 come from the sampled values
        p = np.array(draw(st.lists(_PROP_PVALUE, min_size=n, max_size=n)))
    else:
        p = rng.uniform(size=n)
        p[: n // 2] = np.round(rng.beta(0.1, 20.0, size=n // 2), 3)
    n_groups = draw(st.integers(1, min(4, n)))
    labels = rng.permutation(np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)]))

    def stats():
        w = np.round(rng.normal(size=n) * rng.choice([0.5, 3.0]), 1)  # ties
        w[rng.uniform(size=n) < 0.2] = 0.0
        return w

    return SimInstance(
        pvals=p, truth=(rng.uniform(size=n) < 0.3).astype(int),
        partition=GroupPartition(labels=labels, n_groups=n_groups),
        stats_a=stats(), stats_b=stats(),
    )


def _public_rejections(inst, alpha):
    """Each method's rejections from a standalone call to its public function."""
    p, part = inst.pvals, inst.partition

    def solve(kind):
        return solve_threshold(p, ProcedureSpec(kind=kind, alpha=alpha)).rejected

    out = {
        "BH": solve("bh"), "ST": solve("storey"), "BC": solve("bc"), "BC_Com": solve("bc"),
        "eBH_Ave": run_hybrid(p, HybridConfig(alpha_ebh=alpha, weight_mode="averaged")),
        "fast_eBH_Ada": run_hybrid(p, HybridConfig(alpha_ebh=alpha, weight_mode="adaptive")),
        "KO_1": knockoff_threshold(inst.stats_a, alpha).rejected,
        "KO_2": knockoff_threshold(inst.stats_b, alpha).rejected,
        "KO_Hybrid": combine_and_select(inst.stats_a, inst.stats_b, alpha),
    }
    if part is None:
        out["eBH_Ada"] = out["fast_eBH_Ada"]
    else:
        thresholds = groupwise_bc_thresholds(p, part, alpha)
        out["BC_Sep"] = np.sort(np.concatenate([res.rejected for res in thresholds]))
        for name, scheme in (("eBH_1", "unit"), ("eBH_2", "size"), ("eBH_Ada", "adaptive")):
            out[name] = run_grouped_ebh(p, part, alpha, scheme=scheme).rejected
    return out


@settings(max_examples=150, deadline=None)
@given(inst=_instances(), alpha=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.6]), grouped=st.booleans())
def test_prop_replicate_rejections_equal_public_functions(inst, alpha, grouped):
    if not grouped:
        inst = replace(inst, partition=None)
    want = _public_rejections(inst, alpha)
    got = simulate._run_methods(inst, alpha, list(want), seed=0, replicate=0)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name

    # the replicate's records are the FDP and power of those rejections
    config = SimulationConfig(setting="ALLNULL", replications=1, target_alpha=alpha)
    with mock.patch.object(simulate, "generate", return_value=inst):
        records = simulate._replicate_metrics(config, 0, list(want))
    for name, rejected in want.items():
        assert (records[name]["fdp"], records[name]["power"]) == fdp_power(rejected, inst.truth), name


def test_campaign_runners_call_the_public_functions(monkeypatch):
    # each runner hands the replicate's memo to the public function
    names = ["solve_threshold", "run_hybrid", "groupwise_bc_thresholds", "run_grouped_ebh",
             "knockoff_threshold", "combine_and_select", "run_structure_adaptive"]
    calls = {name: _count_calls(monkeypatch, simulate, name) for name in names}
    run_campaign(SimulationConfig(setting="S1", replications=2, seed=1), SCORES)
    # on a grouped instance eBH_Ada is the grouped procedure and fast_eBH_Ada
    # the blend: one more run_hybrid call per replicate, no more grouped ones
    run_campaign(SimulationConfig(setting="E1", replications=2, seed=1), GROUPED + ["fast_eBH_Ada"])
    run_campaign(SimulationConfig(setting="KNOCK_SYNTH", replications=2, seed=1), ["KO_1", "KO_2", "KO_Hybrid"])
    run_campaign(SimulationConfig(setting="STRUCT", parameters={"n": 120}, replications=2, seed=1),
                 ["eBH_FBC", "eBH_FBC_unit"])
    # S1: BH, ST, BC and two blends; E1: BC_Com, BC_Sep, three grouped schemes and a blend
    counts = {name: len(got) for name, got in calls.items()}
    assert counts == {"solve_threshold": 2 * 3 + 2, "run_hybrid": 2 * 2 + 2, "groupwise_bc_thresholds": 2,
                      "run_grouped_ebh": 2 * 3, "knockoff_threshold": 2 * 2, "combine_and_select": 2,
                      "run_structure_adaptive": 2 * 2}
    for name, got in calls.items():
        assert all(isinstance(args[0], procedures._Memo) for args in got), name
    assert all(isinstance(args[1], procedures._Memo) for args in calls["combine_and_select"])


def _bits(x):
    """A comparable form of a result that tells apart every bit of its floats."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return float(x).hex()
    return x


def _merged_calls(inst, alpha):
    """Each function that takes a memo, as ``name -> f(pvals, stats_a, stats_b)``."""
    part = inst.partition
    n = inst.truth.size
    curves = RejectionCurves(np.linspace(0.2, 0.9, n), np.linspace(0.1, 0.9, n))
    averaged = HybridConfig(alpha_ebh=alpha, weight_mode="averaged")
    adaptive = HybridConfig(alpha_ebh=alpha, weight_mode="adaptive")
    calls = {
        f"solve_threshold {kind}": lambda p, a, b, kind=kind: solve_threshold(
            p, ProcedureSpec(kind=kind, alpha=alpha, rejection_functions=curves))
        for kind in ("bh", "storey", "bc", "fbc")
    }
    calls.update({
        "storey_pi0": lambda p, a, b: procedures.storey_pi0(p, 0.5),
        "bh_evalues": lambda p, a, b: hybrid.bh_evalues(p, alpha),
        "bc_evalues": lambda p, a, b: hybrid.bc_evalues(p, alpha),
        "compute_loo_thresholds": lambda p, a, b: hybrid.compute_loo_thresholds(p, alpha, alpha / 2),
        "_hybrid_evalues": lambda p, a, b: hybrid._hybrid_evalues(p, adaptive),
        "run_hybrid averaged": lambda p, a, b: run_hybrid(p, averaged),
        "run_hybrid adaptive": lambda p, a, b: run_hybrid(p, adaptive),
        "knockoff_threshold": lambda p, a, b: knockoff_threshold(a, alpha),
        "knockoff_evalues": lambda p, a, b: knockoffs.knockoff_evalues(b, alpha),
        "combine_and_select": lambda p, a, b: combine_and_select(a, b, alpha, 0.7, 0.3),
        "_combined_evalues": lambda p, a, b: knockoffs._combined_evalues(a, b, alpha, 0.5, 0.5),
    })
    if part is not None:
        thresholds = groupwise_bc_thresholds(inst.pvals, part, alpha)
        calls.update({
            "groupwise_bc_thresholds": lambda p, a, b: groupwise_bc_thresholds(p, part, alpha),
            "assemble_weights": lambda p, a, b: groups.assemble_weights(p, part, thresholds, "adaptive", alpha),
            "group_evalues": lambda p, a, b: groups.group_evalues(
                p, part, thresholds, np.linspace(0.5, 2.0, inst.truth.size)),
        })
        calls.update({
            f"run_grouped_ebh {scheme}": lambda p, a, b, scheme=scheme: run_grouped_ebh(
                p, part, alpha, scheme, truth=inst.truth)
            for scheme in ("unit", "size", "adaptive")
        })
    return calls


@settings(max_examples=60, deadline=None)
@given(inst=_instances(), grouped=st.booleans())
def test_prop_memo_and_array_give_identical_results(inst, grouped):
    if not grouped:
        inst = replace(inst, partition=None)
    memo = procedures._Memo.of(inst.pvals, check=procedures.as_pvalues, part=inst.partition)
    memo_a, memo_b = (procedures._Memo.of(w, check=knockoffs.as_stats) for w in (inst.stats_a, inst.stats_b))
    # one set of memos serves every function at two levels, as in a replicate
    for alpha in (0.1, 0.3):
        for name, call in _merged_calls(inst, alpha).items():
            want = call(inst.pvals, inst.stats_a, inst.stats_b)
            assert _bits(call(memo, memo_a, memo_b)) == _bits(want), (name, alpha)


def _grouped_memo(p, part):
    return procedures._Memo.of(p, check=procedures.as_pvalues, part=part)


def test_grouped_functions_refuse_a_memo_of_another_partition():
    p = np.linspace(0.001, 0.999, 40)
    part = GroupPartition.from_sizes([10, 30])
    thresholds = groupwise_bc_thresholds(p, part, 0.2)
    calls = {
        "groupwise_bc_thresholds": lambda memo: groupwise_bc_thresholds(memo, part, 0.2),
        "assemble_weights": lambda memo: groups.assemble_weights(memo, part, thresholds, "unit"),
        "group_evalues": lambda memo: groups.group_evalues(memo, part, thresholds, np.ones(40)),
        "run_grouped_ebh": lambda memo: run_grouped_ebh(memo, part, 0.2),
    }
    others = [
        _grouped_memo(p, GroupPartition.from_sizes([20, 20])),
        # an equal partition that is another object is another partition too
        _grouped_memo(p, GroupPartition.from_sizes([10, 30])),
        procedures._Memo.of(p, check=procedures.as_pvalues),
    ]
    for call in calls.values():
        call(_grouped_memo(p, part))  # the memo of part itself is used as is
        for memo in others:
            with pytest.raises(InputError, match="another partition"):
                call(memo)
