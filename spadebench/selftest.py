"""Tests of the benchmark itself.

Run from the repository root (the name keeps them out of the tier-1
collection, which would otherwise pay for every workload's sweeps)::

    python3 -m pytest spadebench/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _measure(name, tmp_path, **kwargs):
    options = dict(seed=0, seconds=0, trace=False, work_dir=tmp_path,
                   min_sweeps=1, setup_repeats=1)
    options.update(kwargs)
    return run.benchmark(name, **options)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_minimal_sweep_runs_end_to_end(name, tmp_path):
    # Seed 1 is checked against the committed digests of input 1.
    result, record = _measure(name, tmp_path, seed=1)
    assert result["correct"], record
    assert result["failed"] == 0
    # The warm-up and one timed sweep.
    cells = len(run.expected_cells(WORKLOADS[name](1, tmp_path / "x")))
    assert result["attempted"] == 2 * cells
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert record["result_digest"]
    assert record["table1_gops"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_rows_match_their_digests(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    rows, digests = run.golden_files(workload)
    recorded = json.loads(digests.read_text())
    assert sorted(recorded, key=int) == [str(index) for index
                                         in range(workload.period)]
    assert recorded["0"] == run.expected_cells(workload)


def test_tampered_golden_row_fails(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(run.GOLDEN_DIR, golden)
    path = golden / "kitti-grid.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["cycles"] += 1
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    result, record = _measure("kitti-grid", tmp_path / "work",
                              golden_dir=golden)
    assert not result["correct"]
    assert result["failed"] == 2            # warm-up and timed sweep
    assert record["error_rate"] > 0
    assert result["metrics"]["pass_rate"]["value"] < 1


def test_traced_self_times_cover_the_sweep(tmp_path):
    from repro.data import pillars
    from repro.engine import TraceCache, runner

    result, _ = _measure("kitti-grid", tmp_path, trace=True)
    assert result["correct"]
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    attributed = sum(value for name, value in metrics.items()
                     if name.endswith(".s") and name != "other.s")
    sweep = metrics["bench.sweep_s"]
    assert abs(attributed - sweep) <= 0.1 * sweep
    assert metrics["plan-tiles.calls"] > 0 and metrics["trace.calls"] == 6
    # The wrappers are gone once the traced run returns.
    assert runner.voxelize is pillars.voxelize
    assert not hasattr(TraceCache.get_trace, "__wrapped__")


def test_process_workers_report_their_layers(tmp_path):
    result, _ = _measure("kitti-grid-process", tmp_path, trace=True)
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    # Traces are computed and written to the disk tier only in workers.
    assert metrics["trace.calls"] == 6
    assert metrics["cache.disk_writes"] == 6
    assert metrics["backend.pool_util"] > 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_of([1.0] * 19)[0] == 50
    assert run.tail_of(list(range(40)))[0] == 75
    assert run.tail_of(list(range(100)))[0] == 90


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kitti-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
