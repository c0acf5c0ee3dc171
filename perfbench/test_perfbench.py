"""Self-test of the benchmark: every workload, both modes, at a tiny size.

Each run goes through ``run.main`` with the TINY scale and must end with
the result line that BENCHMARK.json promises: every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) with its unit
and a finite value. Run it with

    python -m pytest perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv, scale="tiny") == 0
    captured = capsys.readouterr()
    assert "differs" not in captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_fails_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "shrinkmap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
