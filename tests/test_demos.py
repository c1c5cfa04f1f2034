"""Each demo in ``demos/`` runs to its end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_its_end(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # 06 writes campaign_e1.csv into the working directory
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
