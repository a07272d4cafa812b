"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(tmp_path, workload, seed, trace):
    return harness.run_workload(workload, seed, 0.01, trace, size="toy", workdir=tmp_path)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    report = run(tmp_path, workload, 1, trace)
    line = harness.result_line(report, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    text = harness.format_report(report, trace)
    names = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    for name in names:
        assert f" {name} " in text
    json.dumps(line)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_repeats_every_count(tmp_path, workload):
    a = run(tmp_path, workload, 3, True)
    b = run(tmp_path, workload, 3, True)
    assert a["meta"]["inputs_sha256"] == b["meta"]["inputs_sha256"]
    assert a["counts_repeat"] and b["counts_repeat"]
    for name in harness.COUNT_METRICS:
        assert a["per_layer"][name] == b["per_layer"][name], name
    assert [(o["op"], o["outer_iters"], o["cap_hits"]) for o in a["ops"]] == \
        [(o["op"], o["outer_iters"], o["cap_hits"]) for o in b["ops"]]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_other_seed_changes_the_inputs(tmp_path, workload):
    a = run(tmp_path, workload, 3, False)
    b = run(tmp_path, workload, 4, False)
    assert a["meta"]["inputs_sha256"] != b["meta"]["inputs_sha256"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
