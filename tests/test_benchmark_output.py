"""The benchmark's result line stays readable: a traced run of one workload
ends with strict JSON that holds every per-layer metric BENCHMARK.json
lists, each a finite number."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_traced_run_ends_with_every_per_layer_metric_finite():
    # --seconds 0 would mean the default run length; 0.01 runs one pair of repetitions
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "elimination", "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert result["correct"] and result["failed"] == 0
