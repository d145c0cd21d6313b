"""The benchmark itself, on every workload at reduced size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--size", "small", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_code():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert WORKLOADS == list(json.loads((BENCH / "workloads.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = _bench(workload, 0)["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _bench(workload, 1), _bench(workload, 1)
    units = _units("per_layer")
    for result in (first, second):
        assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    counts = [m for m, unit in units.items() if unit == "count"]
    assert [first["metrics"][m]["value"] for m in counts] == [second["metrics"][m]["value"] for m in counts]
    assert first["metrics"]["dynamics.step.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _manifest(tmp_path, **changes) -> Path:
    manifest = {"gates": {"g": {"passed": True}}, "summary": {"instability": {"R_max_symmetric": 0.0}}}
    manifest.update(changes)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path


def test_check_outputs_counts_every_failure_kind(tmp_path):
    assert run.check_outputs(0, _manifest(tmp_path)) == []
    assert run.check_outputs(1, _manifest(tmp_path)) == ["exit code 1"]
    assert "aborted" in run.check_outputs(2, _manifest(tmp_path, aborted="boom"))[1]
    assert "gates failed: g" in run.check_outputs(0, _manifest(tmp_path, gates={"g": {"passed": False}}))
    # the CLI gate would pass 1e-12; the benchmark insists on an exact zero
    near_zero = _manifest(tmp_path, summary={"instability": {"R_max_symmetric": 1e-12}})
    assert "not exactly 0" in run.check_outputs(0, near_zero)[0]
    assert run.check_outputs(0, tmp_path / "missing") == ["no manifest written"]


def test_speed_scale_uses_samples_inside_the_interval():
    probe = run.SpeedProbe([0])
    probe.samples = [(1.0, run.REF_LOOP_S), (2.0, 2 * run.REF_LOOP_S), (3.0, 2 * run.REF_LOOP_S)]
    assert probe.scale(1.5, 3.5) == 0.5
    assert probe.scale(0.0, 1.2) == 1.0
    assert probe.scale(9.0, 9.5) == 0.5  # no sample inside: the nearest one
