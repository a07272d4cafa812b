"""Smoke runs of the demo scripts' main() entry points."""

import importlib
import json
from pathlib import Path

import numpy as np

from softkm import load_csv
from softkm.synth import two_gaussians

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module(name)


def test_bench_sweep(monkeypatch, tmp_path, capsys):
    script = load_script(monkeypatch, "bench_sweep")
    assert script.main(["--out", str(tmp_path), "--seeds", "1", "--lambdas", "1.0"]) == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["global", "am", "mvskm"]
    spec = json.loads((tmp_path / "spec.json").read_text())
    assert spec["input"] == str(tmp_path / "data.csv")
    assert "mvskm" in capsys.readouterr().out


def test_compare_solvers(monkeypatch, tmp_path, capsys):
    script = load_script(monkeypatch, "compare_solvers")
    assert script.main(["--out", str(tmp_path)]) == 0
    for solver in ("global", "am", "mvskm"):
        assert (tmp_path / solver / "result.json").exists()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["global", "am", "mvskm"]


def test_labelled_csv_round_trips(monkeypatch, tmp_path):
    writer = load_script(monkeypatch, "labelled_csv")
    X, labels = two_gaussians()
    path = tmp_path / "data.csv"
    writer.write_labelled_csv(path, X, labels)
    loaded, loaded_labels = load_csv(str(path))
    np.testing.assert_array_equal(loaded.values, X)
    np.testing.assert_array_equal(loaded_labels, labels)
