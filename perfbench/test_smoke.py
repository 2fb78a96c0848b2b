"""Seconds-long smoke run of the benchmark: every workload at a tiny size.

Each run must print, as its last line, a result carrying every end-to-end
(``--trace 0``) or per-layer (``--trace 1``) metric named in BENCHMARK.json,
with its unit.  No timing is gated, so the result's ``correct`` flag is not
either: acceptance criterion 1 has a wall-clock bound.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
