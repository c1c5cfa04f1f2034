import csv
import json

import numpy as np
import pytest

from evmt.cli import main, read_table
from evmt.simulate import toy_two_group


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


def test_bad_weights_gives_exit_3(tmp_path, toy_csv, capsys):
    assert run_cli(["groups", "--input", toy_csv, "--weights", "bogus"]) == 3
    assert "weights" in capsys.readouterr().err


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
    assert summary["weight_mode"] == "fast"
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


def test_simulate_unknown_setting_exit_3(capsys):
    assert run_cli(["simulate", "--setting", "Z9", "--reps", 2]) == 3
    assert "setting" in capsys.readouterr().err


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


def test_line_numbers_count_skipped_blank_lines(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("pvalue\n0.1\n\n0.2\nbad\n")
    assert run_cli(["bh", "--input", path]) == 2
    assert "line 5" in capsys.readouterr().err


def test_simulate_bad_thread_count_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("EVMT_THREADS", "abc")
    assert run_cli(["simulate", "--setting", "E1", "--reps", 2, "--seed", 1]) == 3
    assert "EVMT_THREADS" in capsys.readouterr().err
