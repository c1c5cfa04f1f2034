import os

import numpy as np
import pytest

from evmt import ConfigurationError, ProcedureSpec, solve_threshold
from evmt.simulate import (
    MetricsReport,
    SimulationConfig,
    _worker_count,
    default_parameters,
    generate,
    run_campaign,
    toy_two_group,
)


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


def test_method_requires_matching_setting():
    cfg = SimulationConfig(setting="S1", replications=2, seed=1)
    with pytest.raises(ConfigurationError):
        run_campaign(cfg, ["BC_Sep"])  # no partition in S1


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


def test_toy_two_group_story():
    from evmt.groups import run_grouped_ebh

    pvals, part, truth = toy_two_group()
    unit = run_grouped_ebh(pvals, part, 0.05, scheme="unit", truth=truth)
    assert unit.rejected.size == 0
    ada = run_grouped_ebh(pvals, part, 0.05, scheme="adaptive", truth=truth)
    assert ada.rejected.size == 40
    assert ada.fdp == 0.0 and ada.power == 1.0


def test_parallel_campaign_matches_serial(monkeypatch):
    cfg = SimulationConfig(setting="E2", replications=12, seed=31)
    serial = run_campaign(cfg, ["eBH_2"])
    monkeypatch.setenv("EVMT_THREADS", "2")
    parallel = run_campaign(cfg, ["eBH_2"])
    assert serial.rows() == parallel.rows()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_count_is_a_configuration_error(monkeypatch, value):
    monkeypatch.setenv("EVMT_THREADS", value)
    with pytest.raises(ConfigurationError, match="EVMT_THREADS"):
        run_campaign(SimulationConfig(setting="E1", replications=2, seed=1), ["BH"])


def test_thread_count_is_capped_at_cpu_count(monkeypatch):
    # parsing only: no pool is started
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for value, want in (("", 1), (" 1 ", 1), ("2", 2), ("100000", 2)):
        monkeypatch.setenv("EVMT_THREADS", value)
        assert _worker_count() == want
    monkeypatch.delenv("EVMT_THREADS")
    assert _worker_count() == 1


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_runner_runs_once_per_replicate(monkeypatch):
    # eBH_Ada and fast_eBH_Ada run the same adaptive hybrid on S1: one
    # adaptive and one averaged blend per replicate
    from evmt import cli, hybrid

    monkeypatch.delenv("EVMT_THREADS", raising=False)
    calls = _count_calls(monkeypatch, hybrid, "_hybrid_evalues")
    cfg = SimulationConfig(setting="S1", replications=10, seed=5)
    report = run_campaign(cfg, cli._DEFAULT_METHODS["scores"])
    assert len(calls) == 20
    assert report.methods["eBH_Ada"] == report.methods["fast_eBH_Ada"]


def test_grouped_eBH_Ada_stays_apart_from_the_hybrid(monkeypatch):
    # with groups, eBH_Ada is the grouped procedure and fast_eBH_Ada the hybrid
    from evmt import hybrid, simulate

    monkeypatch.delenv("EVMT_THREADS", raising=False)
    blends = _count_calls(monkeypatch, hybrid, "_hybrid_evalues")
    grouped = _count_calls(monkeypatch, simulate, "run_grouped_ebh")
    cfg = SimulationConfig(setting="E1", replications=4, seed=3)
    run_campaign(cfg, ["eBH_Ada", "fast_eBH_Ada", "BC", "BC_Com"])
    assert len(blends) == 4 and len(grouped) == 4
