"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at minimal size, untraced and traced, and checks that
the last line carries every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        # Layer self times add up to the traced unit's wall time.
        assert 0.95 <= out["metrics"]["trace.accounted"]["value"] <= 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_digest_is_reproduced_and_enforced(seed):
    unit = run.run_unit("ml-sweep", seed, False, False, run.RUN_LIMIT_S)
    ok, detail = run.check_outputs("ml-sweep", seed, False, [unit])
    assert ok, detail
    tampered = dict(unit, result=unit["result"].replace(",ted,64,", ",ted,65,"))
    tampered["digest"] = "0" * 64
    ok, detail = run.check_outputs("ml-sweep", seed, False, [tampered])
    assert not ok and "pinned" in detail


def test_tail_percentile_is_fixed_and_needs_ten_beyond():
    # fuzzy-sweep runs 6 operations per unit: 7 units leave 10 beyond p75, 6 units 9.
    unit = {"op_ms": [5.0, 1.0, 2.0, 3.0, 4.0, 6.0], "wall_s": 1.0, "scale": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 1.0}
    with pytest.raises(run.UnitError):
        run.end_to_end("fuzzy-sweep", [unit] * 6, smoke=False)
    values, note = run.end_to_end("fuzzy-sweep", [unit] * 7, smoke=False)
    assert values["op_ms_tail"] == 5.0 and values["op_ms_p50"] == 3.5
    assert "p75 of 42 operations" in note and "10 beyond" in note


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ml-sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
