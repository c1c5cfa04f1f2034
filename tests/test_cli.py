import argparse
import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmt import GroupPartition, InputError, adaptive, cli, groups, hybrid
from evmt.cli import main, read_table
from evmt.simulate import toy_two_group
from oracles import rejection_table_lines


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def toy_csv(tmp_path):
    pvals, part, truth = toy_two_group()
    path = tmp_path / "toy.csv"
    labels = ["a"] * 100 + ["b"] * 1000
    write_csv(
        path,
        ["pvalue", "group", "truth"],
        [(f"{p:.12g}", g, t) for p, g, t in zip(pvals, labels, truth)],
    )
    return path


def run_cli(args):
    return main([str(a) for a in args])


def read_rejections(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_groups_adaptive_on_toy(tmp_path, toy_csv, capsys):
    out = tmp_path / "res.csv"
    code = run_cli(["groups", "--input", toy_csv, "--alpha", 0.05,
                    "--weights", "adaptive", "--out", out])
    assert code == 0
    rows = read_rejections(out)
    assert len(rows) == 1100
    assert sum(int(r["rejected"]) for r in rows) == 40
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["n_rejected"] == 40
    assert summary["metrics"]["power"] == 1.0
    assert summary["metrics"]["fdp"] == 0.0
    assert {g["group"] for g in summary["metrics"]["groups"]} == {"a", "b"}
    echoed = capsys.readouterr().out
    assert '"n_rejected": 40' in echoed


def test_groups_unit_on_toy(tmp_path, toy_csv):
    out = tmp_path / "unit.csv"
    code = run_cli(["groups", "--input", toy_csv, "--alpha", 0.05,
                    "--weights", "unit", "--out", out])
    assert code == 0
    assert sum(int(r["rejected"]) for r in read_rejections(out)) == 0


def test_ebh_on_zeros(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(path, ["evalue"], [(0.0,)] * 25)
    out = tmp_path / "res.csv"
    assert run_cli(["ebh", "--input", path, "--out", out]) == 0
    assert sum(int(r["rejected"]) for r in read_rejections(out)) == 0


def test_missing_column_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, ["notp"], [(0.1,), (0.2,)])
    assert run_cli(["bh", "--input", path]) == 2
    assert "pvalue" in capsys.readouterr().err


def test_unparseable_value_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, ["pvalue"], [(0.1,), ("oops",), (0.2,)])
    assert run_cli(["bh", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_bad_alpha_gives_exit_3(tmp_path, toy_csv, capsys):
    assert run_cli(["bh", "--input", toy_csv, "--alpha", 1.5]) == 3
    assert "alpha" in capsys.readouterr().err
    # also where nothing would be rejected: all-null p-values, zero e-values
    null = tmp_path / "null.csv"
    write_csv(null, ["pvalue", "group", "evalue"], [(0.9, "a", 0), (0.8, "b", 0), (0.7, "a", 0)])
    stats = tmp_path / "w.csv"
    write_csv(stats, ["w"], [(-1.0,), (-2.0,), (0.5,)])
    out = tmp_path / "res.csv"
    for cmd in ("bh", "storey", "bc", "fbc", "ebh", "groups", "hybrid", "adaptive", "knockoff-combine"):
        inputs = ["--input", stats, "--input", stats] if cmd == "knockoff-combine" else ["--input", null]
        for alpha in (-0.1, 0.0, 1.0, 1.5):
            code = run_cli([cmd, *inputs, "--alpha", alpha, "--seed", 1, "--out", out])
            assert (cmd, alpha, code) == (cmd, alpha, 3)
            assert "alpha" in capsys.readouterr().err
            assert not out.exists()


def test_bad_weights_gives_exit_3(tmp_path, toy_csv, capsys):
    assert run_cli(["groups", "--input", toy_csv, "--weights", "bogus"]) == 3
    assert "weights" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value", [
    ("bh", "--weights", "bogus"),
    ("bh", "--seed", -1),
    ("hybrid", "--setting", "S1"),
    ("bc", "--seed", 5),
    ("storey", "--reps", 3),
    ("fbc", "--weights", "adaptive"),
    ("ebh", "--seed", 1),
    ("groups", "--seed", 1),
    ("adaptive", "--reps", 2),
    ("knockoff-combine", "--weights", "adaptive"),
    ("simulate", "--weights", "adaptive"),
])
def test_commands_refuse_options_they_do_not_read(tmp_path, toy_csv, capsys, command, option, value):
    out = tmp_path / "res.csv"
    inputs = ["--input", toy_csv] * (2 if command == "knockoff-combine" else 1)
    if command == "simulate":
        inputs = ["--setting", "S1", "--seed", 1]
    assert run_cli([command, *inputs, option, value, "--out", out]) == 3
    captured = capsys.readouterr()
    assert f"{command} does not read {option}" in captured.err
    assert captured.out == "" and not out.exists()


def test_options_each_command_reads_are_accepted(tmp_path, toy_csv):
    # every option of a command's row in the table gets past the check
    out = tmp_path / "res.csv"
    assert run_cli(["adaptive", "--input", toy_csv, "--weights", "unit", "--seed", 2, "--out", out]) == 0
    assert run_cli(["hybrid", "--input", toy_csv, "--weights", "averaged", "--out", out]) == 0
    assert set(cli._OPTIONS) == {a.dest for a in cli.build_parser()._actions} - {"help", "subcommand"}


def test_level_is_checked_before_the_input_is_read_or_fitted(tmp_path, capsys, monkeypatch):
    # a bad level exits 3 before the file is opened and before fbc fits its curves
    assert run_cli(["fbc", "--input", tmp_path / "nope.csv", "--alpha", 1.5]) == 3
    assert "alpha must lie in (0, 1), got 1.5" in capsys.readouterr().err
    path = tmp_path / "cov.csv"
    write_csv(path, ["pvalue", "x1"], [(0.01, 0.3), (0.5, -1.0), (0.9, 2.0)])
    monkeypatch.setattr(cli, "fit_lfdr_em", mock.Mock(side_effect=AssertionError("fitted")))
    assert run_cli(["fbc", "--input", path, "--alpha", 0.0]) == 3
    assert "alpha must lie in (0, 1), got 0.0" in capsys.readouterr().err


def test_missing_file_gives_exit_2(tmp_path):
    assert run_cli(["bh", "--input", tmp_path / "nope.csv"]) == 2


def test_threshold_commands_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    p = rng.uniform(size=200)
    p[:15] *= 1e-4
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue"], [(f"{x:.12g}",) for x in p])
    from evmt import ebh_select

    for cmd in ("bh", "storey", "bc"):
        out = tmp_path / f"{cmd}.csv"
        assert run_cli([cmd, "--input", path, "--alpha", 0.1, "--out", out]) == 0
        rows = read_rejections(out)
        summary = json.loads((tmp_path / f"{cmd}.json").read_text())
        assert summary["n_rejected"] == sum(int(r["rejected"]) for r in rows)
        # rejected rows are exactly the positive e-values
        for r in rows:
            assert (float(r["evalue"]) > 0) == bool(int(r["rejected"]))
        # re-scoring the emitted e-values reproduces the selection exactly
        evalues = np.array([float(r["evalue"]) for r in rows])
        reselected = set(ebh_select(evalues, 0.1).tolist()) if evalues.any() else set()
        assert reselected == {i for i, r in enumerate(rows) if int(r["rejected"])}


def test_bc_zero_threshold_is_positive_zero(tmp_path):
    # "-0" parses to -0.0, which ties with 0.0; the reported threshold is +0.0
    # whichever copy of the tie the scan keeps
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue"], [("-0",)] * 10 + [("0",)] + [("-0",)] * 9)
    out = tmp_path / "bc.csv"
    assert run_cli(["bc", "--input", path, "--alpha", 0.1, "--out", out]) == 0
    summary = json.loads((tmp_path / "bc.json").read_text())
    assert summary["feasible"] and summary["n_rejected"] == 20
    assert summary["threshold"] == 0.0 and math.copysign(1.0, summary["threshold"]) == 1.0


def test_fbc_and_adaptive_with_covariates(tmp_path):
    rng = np.random.default_rng(9)
    n = 300
    x = rng.normal(size=n)
    p = rng.uniform(size=n)
    strong = rng.uniform(size=n) < 0.15
    p[strong] *= 1e-5
    path = tmp_path / "cov.csv"
    write_csv(
        path,
        ["pvalue", "x1"],
        [(f"{a:.12g}", f"{b:.6g}") for a, b in zip(p, x)],
    )
    out = tmp_path / "fbc.csv"
    assert run_cli(["fbc", "--input", path, "--alpha", 0.1, "--out", out]) == 0
    out2 = tmp_path / "ada.csv"
    assert run_cli(["adaptive", "--input", path, "--alpha", 0.1, "--seed", 3,
                    "--weights", "cheap", "--out", out2]) == 0
    summary = json.loads((tmp_path / "ada.json").read_text())
    assert summary["seed"] == 3
    assert len(summary["thresholds"]) == 2
    assert [m["fold"] for m in summary["models"]] == [1, 2]
    for m in summary["models"]:
        assert set(m) == {"fold", "converged", "n_iter", "loglik"}
        assert isinstance(m["converged"], bool)
        assert isinstance(m["n_iter"], int) and m["n_iter"] >= 1
        assert np.isfinite(m["loglik"])


def test_fbc_controls_the_fdr_on_global_null_data_with_covariates(tmp_path, capsys):
    # curves fitted on the p-values they test reached an FDR of 0.26-0.28 here
    rng = np.random.default_rng(2018)
    alpha, reps, n = 0.2, 1000, 100
    fdp = np.empty(reps)
    for r in range(reps):
        # fresh files each replicate: rewriting a just-written file can wait on its flush
        path, out = tmp_path / f"null{r}.csv", tmp_path / f"r{r}.csv"
        p, x = rng.uniform(size=n), 2.0 * rng.normal(size=(n, 2))
        write_csv(path, ["pvalue", "x1", "x2", "truth"], [(a, b, c, 0) for a, (b, c) in zip(p, x)])
        assert run_cli(["fbc", "--input", path, "--alpha", alpha, "--out", out]) == 0
        fdp[r] = json.loads(out.with_suffix(".json").read_text())["metrics"]["fdp"]
        capsys.readouterr()
    se = fdp.std(ddof=1) / np.sqrt(reps)
    assert fdp.mean() <= alpha + 3.0 * se, (fdp.mean(), se)


@pytest.mark.parametrize("command, spelling, name", [
    ("groups", "size_adjusted", "size"),
    ("hybrid", "fast_adaptive", "adaptive"),
])
def test_weights_take_the_library_spellings(tmp_path, toy_csv, command, spelling, name):
    written = []
    for weights in (spelling, name):
        out = tmp_path / f"{weights}.csv"
        assert run_cli([command, "--input", toy_csv, "--weights", weights, "--out", out]) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        del summary["rejections_csv"]
        written.append((out.read_bytes(), summary))
    assert written[0] == written[1]


def test_weights_help_names_every_spelling():
    help_text = " ".join(cli.build_parser().format_help().split())
    for table in (groups._SCHEMES, hybrid._MODES, adaptive._MODES):
        for key in table:
            assert re.search(rf"\b{key}\b", help_text), key


def test_hybrid_command(tmp_path):
    rng = np.random.default_rng(11)
    p = rng.uniform(size=400)
    p[:40] = rng.uniform(0, 1e-5, size=40)
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue"], [(f"{x:.12g}",) for x in p])
    out = tmp_path / "hy.csv"
    assert run_cli(["hybrid", "--input", path, "--alpha", 0.05,
                    "--weights", "fast", "--out", out]) == 0
    summary = json.loads((tmp_path / "hy.json").read_text())
    assert summary["weight_mode"] == "adaptive"
    assert summary["n_rejected"] > 0


def test_knockoff_combine(tmp_path):
    rng = np.random.default_rng(13)
    w_a = rng.choice([-1.0, 1.0], 150) * np.abs(rng.normal(size=150))
    w_a[:25] = np.abs(rng.normal(4.0, 1.0, size=25))
    w_b = rng.choice([-1.0, 1.0], 150) * np.abs(rng.normal(size=150))
    fa, fb = tmp_path / "wa.csv", tmp_path / "wb.csv"
    write_csv(fa, ["w"], [(f"{x:.10g}",) for x in w_a])
    write_csv(fb, ["w"], [(f"{x:.10g}",) for x in w_b])
    out = tmp_path / "ko.csv"
    assert run_cli(["knockoff-combine", "--input", fa, "--input", fb,
                    "--alpha", 0.2, "--out", out]) == 0
    summary = json.loads((tmp_path / "ko.json").read_text())
    assert summary["alpha_per_family"] == 0.1
    assert summary["n_rejected"] > 0
    # one file only -> input error
    assert run_cli(["knockoff-combine", "--input", fa]) == 2


def test_knockoff_combine_refuses_files_of_unequal_length(tmp_path, capsys):
    rng = np.random.default_rng(17)
    fa, fb = tmp_path / "wa.csv", tmp_path / "wb.csv"
    write_csv(fa, ["w"], [(repr(x),) for x in rng.normal(size=150).tolist()])
    write_csv(fb, ["w"], [(repr(x),) for x in rng.normal(size=149).tolist()])
    out = tmp_path / "ko.csv"
    assert run_cli(["knockoff-combine", "--input", fa, "--input", fb, "--out", out]) == 2
    assert "equal length, got 150 and 149" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("columns", [["w", "group"], ["group"]])
def test_knockoff_combine_refuses_a_group_column(tmp_path, capsys, columns):
    fa, fb = tmp_path / "wa.csv", tmp_path / "wb.csv"
    write_csv(fa, columns, [("1.5", "a")[: len(columns)], ("-0.5", "b")[: len(columns)]])
    write_csv(fb, ["w"], [("1.5",), ("-0.5",)])
    assert run_cli(["knockoff-combine", "--input", fa, "--input", fb]) == 2
    err = capsys.readouterr().err
    assert f"{fa}: line 1: expected a single statistic column, got {sorted(columns)}" in err


def test_simulate_writes_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = run_cli(["simulate", "--setting", "E1", "--reps", 5, "--seed", 7,
                    "--alpha", 0.05, "--out", out])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "setting,method,metric,value,std_error"
    assert any("eBH_Ada" in line for line in text)
    payload = json.loads(capsys.readouterr().out)
    assert payload["setting"] == "E1"
    assert payload["replications"] == 5


def test_simulate_e1_full_campaign_matches_benchmarks(tmp_path):
    out = tmp_path / "metrics.csv"
    code = run_cli(["simulate", "--setting", "E1", "--reps", 1000, "--seed", 7,
                    "--alpha", 0.05, "--out", out])
    assert code == 0
    rows = {}
    with open(out) as handle:
        for row in csv.DictReader(handle):
            rows[(row["method"], row["metric"])] = float(row["value"])
    assert abs(rows[("eBH_Ada", "power")] - 0.212) <= 0.05
    assert abs(rows[("eBH_Ada", "fdr")] - 0.027) <= 0.02
    assert abs(rows[("BC_Sep", "fdr")] - 0.060) <= 0.02


def test_simulate_from_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = ALLNULL\nreps = 4\nseed = 2\nn = 40\n")
    out = tmp_path / "m.csv"
    assert run_cli(["simulate", "--input", cfg, "--out", out]) == 0
    assert "BH" in out.read_text()


def test_simulate_config_file_without_seed_draws_a_fresh_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = ALLNULL\nreps = 1\nn = 40\n")
    with mock.patch.object(cli.secrets, "randbits", return_value=12345):
        assert run_cli(["simulate", "--input", cfg, "--out", tmp_path / "m.csv"]) == 0
    first, report = capsys.readouterr().out.split("\n", 1)
    assert first == "seed = 12345"
    assert json.loads(report)["seed"] == 12345


def test_simulate_config_file_keeps_an_explicit_seed_zero(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = ALLNULL\nreps = 1\nn = 40\nseed = 0\n")
    with mock.patch.object(cli.secrets, "randbits", side_effect=AssertionError("a seed was drawn")):
        assert run_cli(["simulate", "--input", cfg, "--out", tmp_path / "m.csv"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_simulate_unknown_setting_exit_3(capsys):
    assert run_cli(["simulate", "--setting", "Z9", "--reps", 2]) == 3
    assert "setting" in capsys.readouterr().err


def test_simulate_negative_seed_exit_3(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run_cli(["simulate", "--setting", "S1", "--reps", 1, "--seed", -1, "--out", out]) == 3
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_adaptive_negative_seed_exit_3(tmp_path, capsys):
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue", "x"], [(0.01, 0.5), (0.6, -1.0), (0.3, 0.2)])
    assert run_cli(["adaptive", "--input", path, "--seed", -5, "--out", tmp_path / "r.csv"]) == 3
    assert "--seed" in capsys.readouterr().err


def test_adaptive_prints_no_seed_when_a_check_fails(tmp_path, capsys):
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue", "x"], [(0.01, 0.5), (0.6, -1.0), (0.3, 0.2)])
    out = tmp_path / "r.csv"
    assert run_cli(["adaptive", "--input", path, "--alpha", 1.5, "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--reps", 0], ["--alpha", 1.5]])
def test_simulate_prints_no_seed_when_a_check_fails(tmp_path, capsys, flags):
    out = tmp_path / "m.csv"
    assert run_cli(["simulate", "--setting", "S1", *flags, "--out", out]) == 3
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_drawn_seed_is_printed_just_before_the_summary(tmp_path, capsys):
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue"], [(0.01,), (0.6,), (0.3,), (0.002,)])
    with mock.patch.object(cli.secrets, "randbits", return_value=321):
        assert run_cli(["adaptive", "--input", path, "--out", tmp_path / "r.csv"]) == 0
    first, summary = capsys.readouterr().out.split("\n", 1)
    assert first == "seed = 321"
    assert json.loads(summary)["seed"] == 321


def test_simulate_negative_seed_in_config_file_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = ALLNULL\nreps = 2\nseed = -3\n")
    assert run_cli(["simulate", "--input", cfg, "--out", tmp_path / "m.csv"]) == 3
    assert f"{cfg}:3: seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_simulate_bad_reps_in_config_file_exit_2(tmp_path, capsys, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"setting = ALLNULL\n# comment\nreps = {value}\n")
    assert run_cli(["simulate", "--input", cfg, "--out", tmp_path / "m.csv"]) == 2
    assert f"{cfg}:3: reps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, entry, code, message",
    [
        ("S1", "nalt = 7", 2, "unknown parameter 'nalt'"),
        ("S1", "n = -5", 3, "n must be at least 1, got -5"),
        ("S1", "n_alt = 5000", 3, "n_alt must be at most n = 1000, got 5000"),
        ("S1", 'mu = "abc"', 2, "mu must be a finite number, got 'abc'"),
        ("E1", "groups = 3", 2, "groups must be a non-empty list, got 3"),
        ("E1", 'groups = [{"n": 10, "n_alt": 2, "beta_b": 5}]', 2, "groups[0].beta_a is missing"),
        ("E1", 'groups = [{"n": 10, "n_alt": 2, "beta_a": -1, "beta_b": 5}]', 3,
         "groups[0].beta_a must be above 0, got -1"),
        ("ALLNULL", "n = 0", 3, "n must be at least 1, got 0"),
        ("ALLNULL", "group_sizes = [20, 20]", 3, "group_sizes must sum to n = 200, got 40"),
    ],
)
def test_simulate_bad_parameter_in_config_file(tmp_path, capsys, setting, entry, code, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"setting = {setting}\nreps = 2\n# comment\n{entry}\n")
    out = tmp_path / "m.csv"
    assert run_cli(["simulate", "--input", cfg, "--seed", 1, "--out", out]) == code
    assert f"{cfg}:4: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_setting_flag_replaces_the_files_setting(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = S1\nmu = 0.45\nreps = 1\n")
    with mock.patch.object(cli, "run_campaign", wraps=cli.run_campaign) as campaign:
        assert run_cli(["simulate", "--input", cfg, "--setting", "S2", "--seed", 1,
                        "--out", tmp_path / "m.csv"]) == 0
    config = campaign.call_args.args[0]
    assert config.setting == "S2"
    assert config.parameters == {"n": 3000, "n_alt": 750, "mu": 0.45, "sigma": 0.4}
    assert config.replications == 1


def test_simulate_setting_flag_checks_the_files_keys(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("setting = S1\nmu = 0.45\n")
    out = tmp_path / "m.csv"
    assert run_cli(["simulate", "--input", cfg, "--setting", "E1", "--seed", 1, "--out", out]) == 2
    assert f"{cfg}:2: unknown parameter 'mu'" in capsys.readouterr().err
    assert not out.exists()
    # the flag's own setting is checked without the file's line
    assert run_cli(["simulate", "--input", cfg, "--setting", "Z9", "--seed", 1, "--out", out]) == 3
    assert "unknown setting 'Z9'" in capsys.readouterr().err


def test_adaptive_full_weights_exit_3(tmp_path, capsys):
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue", "x"], [(0.01 * k, k % 3) for k in range(1, 30)])
    out = tmp_path / "r.csv"
    assert run_cli(["adaptive", "--input", path, "--weights", "full", "--seed", 1, "--out", out]) == 3
    assert "--weights for adaptive must be one of ['cheap', 'unit'], got 'full'" in capsys.readouterr().err
    assert not out.exists()


def test_read_table_rejects_out_of_range_pvalue(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["pvalue"], [(0.5,), (1.5,)])
    from evmt import InputError

    with pytest.raises(InputError):
        read_table(path)


def test_duplicate_header_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    write_csv(path, ["pvalue", "pvalue"], [(0.01, 0.02), (0.5, 0.6)])
    assert run_cli(["bh", "--input", path, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "duplicate column 'pvalue'" in err
    assert not (tmp_path / "r.csv").exists()


def test_empty_group_label_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "g.csv"
    write_csv(path, ["pvalue", "group"], [(0.01, "a"), (0.02, ""), (0.5, "a")])
    assert run_cli(["groups", "--input", path, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "group" in err


@pytest.mark.parametrize("command, cell", [("bh", ""), ("hybrid", "  "), ("ebh", "")])
def test_empty_group_label_gives_exit_2_without_reading_labels(tmp_path, capsys, command, cell):
    path = tmp_path / "g.csv"
    write_csv(path, ["pvalue", "group", "evalue"], [(0.01, "a", 1), (0.02, cell, 2), (0.5, "a", 0)])
    assert run_cli([command, "--input", path, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "group" in err


def test_only_groups_reads_labels(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("pvalue,group\n0.25, g1 \n0.001,g2\n")
    assert list(read_table(path)) == ["pvalue"]
    with mock.patch.object(cli, "read_table", wraps=cli.read_table) as spy:
        for command in ("bh", "hybrid", "groups"):
            assert run_cli([command, "--input", path, "--out", tmp_path / "r.csv"]) == 0
    assert [call.kwargs for call in spy.call_args_list] == [{}, {}, {"labels": True}]


def test_negative_evalue_reports_line_number(tmp_path, capsys):
    path = tmp_path / "e.csv"
    write_csv(path, ["evalue"], [(1.0,), ("-0",), (-0.5,), (2.0,)])
    assert run_cli(["ebh", "--input", path, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 4: evalue must be nonnegative" in err
    assert not (tmp_path / "r.csv").exists()
    # -0 is not negative
    write_csv(path, ["evalue"], [(1.0,), ("-0",), (2.0,)])
    assert run_cli(["ebh", "--input", path, "--out", tmp_path / "r.csv"]) == 0


def test_line_numbers_count_skipped_blank_lines(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("pvalue\n0.1\n\n0.2\nbad\n")
    assert run_cli(["bh", "--input", path]) == 2
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, header, rows, column",
    [
        ("bh", ["pvalue"], [(0.1,), ("nan",), (0.2,)], "pvalue"),
        ("bh", ["pvalue", "truth"], [(0.1, 1), (0.2, "nan")], "truth"),
        ("ebh", ["evalue"], [(1.0,), ("inf",)], "evalue"),
        ("fbc", ["pvalue", "x1"], [(0.1, 0.5), (0.2, "-inf"), (0.3, 1.0)], "x1"),
    ],
)
def test_non_finite_value_reports_line_number(tmp_path, capsys, command, header, rows, column):
    path = tmp_path / "p.csv"
    write_csv(path, header, rows)
    assert run_cli([command, "--input", path, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 3: {column} must be finite" in err
    assert not (tmp_path / "r.csv").exists()


def test_regular_file_is_parsed_without_the_row_scan(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text('pvalue, group ,truth\r\n0.25," g#1 ",1\r\n\r\n1e-3,g2,0\r\n')
    with mock.patch.object(cli, "_scan_table", side_effect=AssertionError("row scan ran")):
        table = read_table(path, labels=True)
    assert list(table) == ["pvalue", "group", "truth"]
    assert table["pvalue"].tolist() == [0.25, 1e-3]
    assert table["group"].tolist() == ["g#1", "g2"]
    assert table["truth"].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("labels", [True, False])
def test_padded_quoted_and_non_ascii_labels_parse_without_the_row_scan(tmp_path, labels):
    path = tmp_path / "g.csv"
    path.write_text(
        'pvalue,group\n0.25,  a b \n0.5," x, y "\n1e-3,\t\u00c9t\u00e9\xa0\n0.75,"a b"\n',
        encoding="utf-8",
    )
    with mock.patch.object(cli, "_scan_table", side_effect=AssertionError("row scan ran")):
        table = read_table(path, labels=labels)
    assert table["pvalue"].tolist() == [0.25, 0.5, 1e-3, 0.75]
    if labels:
        assert table["group"].tolist() == ["a b", "x, y", "\u00c9t\u00e9", "a b"]
    else:
        assert list(table) == ["pvalue"]


# --------------------------------------------------------------- properties

_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0"])
_PVALUE = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1.0).map(lambda x: f"{x:.3e}"),
    st.sampled_from(["0", "1", ".5", "5e-1", "1E-03", "-0", "1e-400", "0.1000000000000000055511"]),
)
_NUMBER = st.one_of(
    _PVALUE,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.4E}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["5.", "+3", "1E+03", "Infinity", "-inf", "nan"]),
)
# cells that only Python's float() accepts, or nothing does
_ODD_NUMBER = st.sampled_from(["1_0", "", "abc", "0x1", "nan(1)", "\uff11", "1 2"])
_LABEL = st.text(st.sampled_from("ab#1 _-,\"\xa0é"), min_size=1, max_size=5)


def _cell(text, quote, pad):
    text = pad[0] + text + pad[1]
    if quote or any(c in text for c in ',"'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _rare(draw, one_in):
    return draw(st.integers(1, one_in)) == 1


@st.composite
def _csv_files(draw):
    """CSV text that is mostly regular, with rare irregular rows and cells."""
    names = draw(st.lists(st.sampled_from(["pvalue", "group", "truth", "x1"]),
                          min_size=1, max_size=4, unique=True))
    odd = draw(st.sampled_from([8, 30, 1000]))  # how rare irregularities are
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(draw(_SPACE) + name + draw(_SPACE) for name in names)]
    for _ in range(draw(st.integers(1, 8))):
        if _rare(draw, 8):
            lines.append("")
            continue
        if _rare(draw, odd):
            lines.append(draw(st.sampled_from([" ", "\t", ",".join(" " for _ in names)])))
            continue
        cells = []
        for name in names:
            if name == "group":
                text = "" if _rare(draw, odd) else draw(_LABEL)
            elif _rare(draw, odd):
                text = draw(_ODD_NUMBER)
            elif name == "truth":
                text = draw(st.sampled_from(["0", "1", "1.0", "0.0"]))
            else:
                text = draw(_PVALUE if name == "pvalue" else _NUMBER)
            cells.append(_cell(text, _rare(draw, 4), (draw(_SPACE), draw(_SPACE))))
        if _rare(draw, odd):
            cells = cells[:-1] if len(cells) > 1 else cells + ["0"]
        lines.append(",".join(cells))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(path, **kwargs):
    try:
        return read_table(path, **kwargs)
    except InputError as exc:
        return str(exc)


# Label cells that the parse must hand to the row scan or get right without it.
# The first is padded past the prefix that commands without labels read.
_LABEL_EDGES = {
    "padding_wider_than_prefix": (" " * 12 + "b", ["a", "b", "a"]),
    "whitespace_only": (" \t ", None),
    "empty": ("", None),
    "quoted_comma": ('" b, c "', ["a", "b, c", "a"]),
}


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("edge", sorted(_LABEL_EDGES))
def test_label_edge_cases_match_the_row_scan(tmp_path, edge, labels):
    cell, expected = _LABEL_EDGES[edge]
    path = tmp_path / "g.csv"
    path.write_text(f"pvalue,group\n0.25,a\n0.5,{cell}\n1e-3,a\n", encoding="utf-8")
    fast = _outcome(path, labels=labels)
    with mock.patch.object(cli, "_parse_columns", side_effect=ValueError):
        slow = _outcome(path, labels=labels)
    if expected is None:
        assert fast == slow == f"{path}: line 3: empty group label"
        return
    assert list(fast) == list(slow) == (["pvalue", "group"] if labels else ["pvalue"])
    assert fast["pvalue"].tolist() == slow["pvalue"].tolist() == [0.25, 0.5, 1e-3]
    if labels:
        assert fast["group"].tolist() == slow["group"].tolist() == expected


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_prop_columnar_parse_matches_row_scan(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path, labels=True)
        with mock.patch.object(cli, "_parse_columns", side_effect=ValueError):
            slow = _outcome(path, labels=True)
    if isinstance(slow, str) or isinstance(fast, str):
        assert fast == slow
        return
    assert list(fast) == list(slow)
    for name in slow:
        if name == "group":
            assert fast[name].tolist() == slow[name].tolist()
        else:
            assert fast[name].dtype == slow[name].dtype
            assert fast[name].tobytes() == slow[name].tobytes()


@settings(max_examples=200, deadline=None)
@given(_csv_files())
def test_prop_parse_without_labels_drops_only_the_group_column(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        full = _outcome(path, labels=True)
        fast = _outcome(path)
        with mock.patch.object(cli, "_parse_columns", side_effect=ValueError):
            slow = _outcome(path)
    if isinstance(full, str):
        assert fast == slow == full
        return
    assert list(fast) == list(slow) == [name for name in full if name != "group"]
    for name in fast:
        assert fast[name].tobytes() == slow[name].tobytes() == full[name].tobytes()


_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 20.0, 1e-300, np.nan, np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _write_table(evalues, weights, rejected):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.csv"
        cli._write_outputs(argparse.Namespace(out=str(out)), evalues, weights, rejected, {})
        return out.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_VALUE, _VALUE, st.booleans()), min_size=1, max_size=40),
    st.integers(1, 8),
    st.booleans(),
)
def test_prop_writer_matches_line_loop(rows, chunk, distinct):
    evalues = np.array([r[0] for r in rows])
    weights = np.array([r[1] for r in rows])
    if distinct:
        evalues = evalues + np.arange(evalues.size)
    rejected = np.array([i for i, r in enumerate(rows) if r[2]], dtype=np.intp)
    with mock.patch.object(cli, "_WRITE_ROWS", chunk):
        written = _write_table(evalues, weights, rejected)
    assert written == rejection_table_lines(evalues, weights, rejected).encode("utf-8")


def test_writer_matches_line_loop_across_chunks():
    rng = np.random.default_rng(17)
    n = 2 * cli._WRITE_ROWS + 3
    evalues = rng.exponential(size=n)  # every value distinct
    weights = np.where(rng.random(n) < 0.5, 1.0, 2.0 / 3.0)
    rejected = np.flatnonzero(rng.random(n) < 0.1)
    written = _write_table(evalues, weights, rejected)
    assert written == rejection_table_lines(evalues, weights, rejected).encode("utf-8")


@pytest.mark.parametrize("chunk", [7, 9, 10, 99, 100, 999, 1000])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(pool=st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=30))
def test_writer_matches_line_loop_across_digit_counts(chunk, pool):
    # 1001 rows cross the 9/10, 99/100 and 999/1000 index widths, inside a
    # chunk or on its edge depending on the chunk size
    rng = np.random.default_rng(chunk)
    rows = np.array(pool)[rng.integers(0, len(pool), 1001)]
    evalues, weights = rows[:, 0].copy(), rows[:, 1].copy()
    rejected = np.flatnonzero(rng.random(1001) < 0.3)
    with mock.patch.object(cli, "_WRITE_ROWS", chunk):
        written = _write_table(evalues, weights, rejected)
    assert written == rejection_table_lines(evalues, weights, rejected).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=60), st.booleans())
def test_prop_group_slices_match_label_scan(labels, by_sizes):
    if by_sizes:
        part = GroupPartition.from_sizes([s + 1 for s in labels[:7]])
    else:
        part = GroupPartition.from_labels(labels)
    for l in range(part.n_groups):
        idx = part.indices(l)
        assert np.array_equal(idx, np.nonzero(part.labels == l)[0])
        assert not idx.flags.writeable


def _fresh_python(args, cwd=None):
    """Run ``python *args`` in a fresh interpreter that imports evmt from this tree."""
    env = {
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_import_does_not_load_scipy_optimize_or_stats():
    # no scipy module at all: scipy is imported where a model is fitted or data generated
    code = "import sys\nimport evmt\nprint([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    run = _fresh_python(["-c", code])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["bh", "hybrid", "groups", "ebh", "knockoff-combine", "adaptive"])
def test_data_commands_load_no_scipy(tmp_path, command):
    # the input has no covariate column, so adaptive fits nothing
    write_csv(tmp_path / "g.csv", ["pvalue", "group", "evalue"],
              [(0.001, "a", 30.0), (0.5, "b", 0.0), (0.02, " a ", 1.0), (0.9, "b", 0.5)])
    write_csv(tmp_path / "w.csv", ["w"], [(3.0,), (-1.0,), (2.0,)])
    inputs = ["--input", "w.csv"] * 2 if command == "knockoff-combine" else ["--input", "g.csv"]
    run = _fresh_python(["-X", "importtime", "-m", "evmt.cli", command, *inputs, "--out", "r.csv"],
                        cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    imported = [line.split("|")[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "evmt.procedures" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_model_and_simulate_commands_run_in_a_fresh_process(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=80)
    p = np.where(rng.random(80) < 0.3, rng.uniform(0.0, 0.01, 80), rng.uniform(size=80))
    write_csv(tmp_path / "s.csv", ["pvalue", "x1"], zip(p.tolist(), x.tolist()))
    fbc = _fresh_python(["-m", "evmt.cli", "fbc", "--input", "s.csv", "--out", "r.csv"], cwd=tmp_path)
    assert fbc.returncode == 0, fbc.stderr
    assert json.loads(fbc.stdout)["command"] == "fbc"
    sim = _fresh_python(["-m", "evmt.cli", "simulate", "--setting", "STRUCT", "--reps", 1,
                         "--seed", 1, "--out", "m.csv"], cwd=tmp_path)
    assert sim.returncode == 0, sim.stderr
    assert (tmp_path / "m.csv").exists()


def test_fit_loads_one_module_of_scipy_optimize(tmp_path):
    # a fit and a campaign load scipy's compiled L-BFGS-B module and its
    # special-function ufuncs alone, not their packages; -X importtime lists
    # what the import system loads, and -v also names the modules that
    # adaptive._compiled executes from their files
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 2))
    p = np.where(rng.random(80) < 0.3, rng.uniform(0.0, 0.01, 80), rng.uniform(size=80))
    write_csv(tmp_path / "s.csv", ["pvalue", "x1", "x2"], zip(p.tolist(), *x.T.tolist()))
    commands = {
        "fbc": ["fbc", "--input", "s.csv", "--out", "r.csv"],
        "simulate": ["simulate", "--setting", "S1", "--reps", 1, "--out", "m.csv"],
    }
    heavy = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special")
    for command, args in commands.items():
        run = _fresh_python(["-X", "importtime", "-v", "-m", "evmt.cli", *args], cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        imported = {line.split("|")[-1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")}
        imported |= set(re.findall(r"^# extension module '([\w.]+)' loaded from", run.stderr, re.M))
        fitted = ["scipy.optimize._lbfgsb"] if command == "fbc" else []
        assert sorted(m for m in imported if m.startswith(heavy)) == \
            fitted + ["scipy.special._special_ufuncs"], command


_FIT_AND_OPTIMIZE = """
import sys
import numpy as np
from evmt import adaptive
from evmt.adaptive import fit_lfdr_em
from evmt.simulate import SimulationConfig, run_campaign

def fit():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 2))
    p = np.where(rng.random(300) < 0.3, rng.beta(0.2, 4.0, 300), rng.uniform(size=300))
    m = fit_lfdr_em(p, x)
    return (m.beta_pi.tobytes(), m.beta_kappa.tobytes(), m.loglik, m.converged, m.n_iter, m.start)

def campaign():
    config = SimulationConfig(setting="S1", replications=1, seed=4)
    return repr(run_campaign(config, ["BH", "BC", "eBH_Ada"]).methods)

if OPTIMIZE_FIRST:
    import scipy.optimize
first = fit(), campaign()
assert ("scipy.optimize" in sys.modules) == ("scipy.special" in sys.modules) == OPTIMIZE_FIRST
import scipy.special
assert scipy.special.ndtr(0.0) == 0.5
assert scipy.special.ndtr is adaptive._compiled("special", "_special_ufuncs").ndtr
assert (fit(), campaign()) == first
import scipy.optimize
from oracles import scipy_lbfgsb
assert callable(scipy.optimize._lbfgsb.setulb)
rng = np.random.default_rng(12)
z = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 1))])
negobj = adaptive._negloglik(z, -np.log(rng.uniform(1e-6, 1.0, 200)))
theta0 = np.array([2.0, 0.5, -1.0, 0.3])
x, f, nit, success = adaptive._minimize(negobj, theta0, adaptive._BOX)
ref = scipy_lbfgsb(negobj, theta0, adaptive._BOX)
assert (x.tobytes(), f, nit, success) == (ref.x.tobytes(), ref.fun, ref.nit, ref.success)
assert (fit(), campaign()) == first
print("ok")
"""


@pytest.mark.parametrize("optimize_first", [False, True])
def test_fit_and_scipy_optimize_agree_in_either_import_order(optimize_first):
    # a fit and a campaign before the package imports must leave
    # scipy.optimize._lbfgsb and scipy.special's ufuncs reachable, and the
    # fits, the campaign reports and the public minimize call unchanged
    code = f"OPTIMIZE_FIRST = {optimize_first}\n{_FIT_AND_OPTIMIZE}"
    run = _fresh_python(["-c", code], cwd=Path(__file__).resolve().parent)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def _pinned_inputs(directory):
    """The inputs of the pinned CLI runs: 300 rows in four labelled groups with
    ``truth``, an ``evalue`` column and two covariates, the same rows without
    the covariates, and two statistic files; every float written with ``repr``."""
    rng = np.random.default_rng(20231204)
    n = 300
    group = rng.integers(0, 4, size=n)
    x = rng.normal(size=(n, 2))
    truth = rng.uniform(size=n) < np.array([0.05, 0.15, 0.3, 0.5])[group] * (1.0 + 0.5 * (x[:, 0] > 0))
    z = rng.normal(size=n) + truth * (2.0 + np.abs(x[:, 1]))
    p = [0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()]
    e = np.where(truth, rng.uniform(0.0, 400.0, size=n), rng.exponential(size=n))
    labels = np.array(["north", "east", "south", "west"])[group]
    rows = list(zip(map(repr, p), labels, truth.astype(int), map(repr, e.tolist()),
                    map(repr, x[:, 0].tolist()), map(repr, x[:, 1].tolist())))
    write_csv(directory / "cov.csv", ["pvalue", "group", "truth", "evalue", "x1", "x2"], rows)
    write_csv(directory / "plain.csv", ["pvalue", "group", "truth", "evalue"], [r[:4] for r in rows])
    for name in ("wa", "wb"):
        w = rng.choice([-1.0, 1.0], n) * np.abs(rng.normal(size=n))
        w[: n // 6] = np.abs(rng.normal(3.5, 1.0, size=n // 6))
        write_csv(directory / f"{name}.csv", ["w"], [(repr(v),) for v in w.tolist()])


def _pinned_runs():
    """Name and arguments of each pinned run: every data command on the inputs
    with and without covariates, under every ``--weights`` spelling it takes."""
    weights = {
        "groups": [None, "unit", "size", "size_adjusted", "adaptive"],
        "hybrid": [None, "averaged", "adaptive", "fast", "fast_adaptive"],
        "adaptive": [None, "unit", "cheap"],
    }
    runs = {}
    for data in ("cov", "plain"):
        for command in ("bh", "storey", "bc", "fbc", "ebh", "groups", "hybrid", "adaptive"):
            for spelling in weights.get(command, [None]):
                args = [command, "--input", f"{data}.csv", "--alpha", "0.1"]
                if spelling is not None:
                    args += ["--weights", spelling]
                if command == "adaptive":
                    args += ["--seed", "7"]
                runs[" ".join(args)] = args
    for alpha in ("0.1", "0.3"):
        runs[f"knockoff-combine {alpha}"] = ["knockoff-combine", "--input", "wa.csv",
                                             "--input", "wb.csv", "--alpha", alpha]
    runs["groups bad weights"] = ["groups", "--input", "cov.csv", "--weights", "cheap"]
    runs["bh bad alpha"] = ["bh", "--input", "cov.csv", "--alpha", "1.5"]
    return runs


def _cli_outputs(directory, monkeypatch):
    """Exit code, SHA-256 of the rejection table and JSON summary (without its
    ``rejections_csv``) of each pinned run."""
    _pinned_inputs(directory)
    monkeypatch.chdir(directory)
    outputs = {}
    for name, args in _pinned_runs().items():
        out = directory / "res.csv"
        out.unlink(missing_ok=True)
        out.with_suffix(".json").unlink(missing_ok=True)
        code = main([*args, "--out", str(out)])
        table = summary = None
        if out.exists():
            table = hashlib.sha256(out.read_bytes()).hexdigest()
            summary = json.loads(out.with_suffix(".json").read_text())
            del summary["rejections_csv"]
        outputs[name] = {"code": code, "table_sha256": table, "summary": summary}
    return outputs


def test_cli_outputs_are_unchanged(tmp_path, monkeypatch, capsys):
    expected = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())
    assert _cli_outputs(tmp_path, monkeypatch) == expected
