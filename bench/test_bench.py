"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import main as compare_main
from compare import verdict
from episode import WARMUP, WORKLOADS
from tracer import TICK, read_spans, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_run_of_every_workload_passes_its_checks():
    proc = run_bench()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = set(result["metrics"])
    expected = {
        f"{workload}.{metric['name']}"
        for workload in WORKLOADS for metric in SPEC["end_to_end"]
    }
    assert emitted == expected
    for name, metric in result["metrics"].items():
        unit = next(m["unit"] for m in SPEC["end_to_end"] if name.endswith("." + m["name"]))
        assert metric["unit"] == unit
        assert metric["value"] > 0, name


def test_single_workload_emits_the_declared_metrics_by_bare_name():
    proc = run_bench("--workload", "twig_c", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = last_json(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]


def test_traced_run_emits_per_layer_metrics_and_self_times_sum_to_the_tick():
    proc = run_bench("--trace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    expected = {
        f"{workload}.{metric['name']}"
        for workload in WORKLOADS for metric in SPEC["per_layer"]
    }
    assert set(result["metrics"]) == expected
    for workload in WORKLOADS:
        times = self_times(read_spans(BENCH / "out" / f"spans-{workload}.jsonl"), WARMUP)
        assert times["ticks"] == WORKLOADS[workload].quick_ticks
        assert times["escaped"] == 0
        total_self = sum(times["self_s"].values())
        assert total_self == pytest.approx(times["tick_s"], rel=0.05)
        assert times["self_s"][TICK] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "twig_c", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # Nine of ten pairs won and a gap wider than the parent's spread.
        ([10.0] * 9 + [10.5], [9.0] * 9 + [11.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [10.1, 10.0, 10.0, 10.1], "lower", "unchanged"),
        ([5.0, 15.0, 8.0, 12.0], [9.0, 11.0, 10.0, 10.5], "lower", "unresolved"),
        ([0.9, 0.91, 0.9, 0.92], [0.95, 0.96, 0.95, 0.97], "higher", "better"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, 0.1, more_failures=False)[0] == expected


def test_compare_refuses_a_gain_bought_with_failures():
    parent, change = [10.0] * 10, [5.0] * 10
    assert verdict(parent, change, "lower", 0.1, more_failures=True)[0] == "unchanged"


def write_results(path: Path, digest: str, episode_count: int = 3) -> Path:
    metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    runs = [
        {"workload": "twig_c", "seed": seed, "trace": 0, "quick": False,
         "episode_count": episode_count, "correct": True, "failed": 0,
         "digest": digest, "metrics": metrics}
        for seed in range(4)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_fails_when_a_simulated_run_trace_changes(tmp_path, capsys):
    parent = write_results(tmp_path / "a.json", "d1")
    assert compare_main([str(parent), str(write_results(tmp_path / "b.json", "d1"))]) == 0
    changed = write_results(tmp_path / "c.json", "d2")
    assert compare_main([str(parent), str(changed)]) == 1
    assert compare_main([str(parent), str(changed), "--simulation-may-change"]) == 0


def test_compare_refuses_runs_of_different_episode_counts(tmp_path, capsys):
    parent = write_results(tmp_path / "a.json", "d1", episode_count=3)
    change = write_results(tmp_path / "b.json", "d1", episode_count=4)
    assert compare_main([str(parent), str(change)]) == 2
    assert "episodes" in capsys.readouterr().err
