"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload, BENCHMARK.json's and refine, at smoke size (level-2 meshes, perfbench/configs/smoke)
with tracing off and on, and checks that the last stdout line is the result
object carrying exactly the metrics BENCHMARK.json names, each with its
unit. Also checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "ok_frac", "lam_err_p2", "lam_excess"):
            assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = BENCH / "_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
