"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs at its smoke size (a second or so of items) untraced and
traced, and must report every metric of BENCHMARK.json with no failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hostspeed import REF_LOOP_S
from run import end_to_end
from spans import self_times
from workloads import WORKLOADS, check_generated, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_of(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONFIG[section]]
    for m in CONFIG[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run_bench(workload, 0), "end_to_end")
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_runs_repeat_their_counts(workload):
    first, second = (result_of(run_bench(workload, 1), "per_layer") for _ in range(2))
    counts = [m["name"] for m in CONFIG["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["item.ms"] > 0


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in CONFIG["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("derive-kernel", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_union_of_children():
    spans = [
        [1, None, "item", 0, 0, 100, None],
        [2, 1, "a", 0, 10, 50, None],
        [3, 1, "b", 0, 30, 70, None],  # overlaps a, as parallel workers do
        [4, 2, "c", 0, 20, 30, None],
    ]
    got = {span[2]: self_ns for span, self_ns in self_times(spans)}
    assert got == {"item": 40, "a": 30, "b": 40, "c": 10}


def test_host_scaling_divides_out_a_host_slowdown():
    # Ten 10 ms items, 1.5 s apart; the host halves its speed for the last
    # five, and the reference loop timed just after each item slows with it.
    starts = [i * 1_500_000_000 for i in range(10)]
    slow = [1 if i < 5 else 2 for i in range(10)]
    run = {
        "starts_ns": starts,
        "latencies_ns": [10_000_000 * k for k in slow],
        "cpu_ns": [10_000_000 * k for k in slow],
        "loops_ns": [(t + 50_000_000, round(REF_LOOP_S * 1e9) * k) for t, k in zip(starts, slow)],
        "peak_rss_mb": 1.0,
    }
    setups = [{"total": 0.2, "loop": 2 * REF_LOOP_S}]
    scaled, raw = end_to_end(run, setups, designs_per_item=2)
    assert scaled["latency_p50_ms"] == pytest.approx(10.0)
    assert scaled["latency_p90_ms"] == pytest.approx(10.0)
    assert scaled["cpu_ms_per_item"] == pytest.approx(10.0)
    assert scaled["items_per_s"] == pytest.approx(200.0)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert raw["latency_p90_ms"] == pytest.approx(20.0)
    assert raw["items_per_s"] == pytest.approx(2 * 10 * 1000 / 150)


def test_generated_output_check_catches_a_changed_byte(tmp_path):
    log = {"design_hash": sha256("{}"), "generation_config": {"seed": 3},
           "outcome": "complete", "steps": [{}]}
    log["log_hash"] = sha256(json.dumps(log, sort_keys=True, separators=(",", ":")))
    (tmp_path / "design_3.json").write_text("{}\n")
    (tmp_path / "log_3.json").write_text(json.dumps(log))
    line = json.dumps({"seed": 3, "design_hash": sha256("{}"), "steps": 1, "outcome": "complete"})
    assert check_generated(tmp_path, line, [3]) == []
    (tmp_path / "design_3.json").write_text("{ }\n")
    assert check_generated(tmp_path, line, [3]) != []
