"""Chaos matrix: deterministic fault plans against real runs.

Each scenario injects one failure mode — a journal torn mid-record or
a run killed at a checkpoint, on the serial or the process backend —
and asserts the resumed table is identical to a fault-free serial run,
and that a killed process run leaves no pool worker behind."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    ExperimentSpec,
    RunJournal,
    read_journal,
)
from repro.engine import faults

REPO_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = str(REPO_DIR / "src")


def chaos_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="chaos-test",
        simulators=["spade-he", "dense-he"],
        models=["SPP2", "SPP3"],
        scenarios=[{"name": "a", "seed": 0}, {"name": "b", "seed": 9}],
        backend="serial",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def subprocess_env(fault_plan: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ENGINE_FAULTS", None)
    if fault_plan:
        env["REPRO_ENGINE_FAULTS"] = fault_plan
    return env


def pool_pids(journal) -> set:
    """The pids of the pool workers a run journal names."""
    return {int(unit["worker"].removeprefix("process-"))
            for unit in read_journal(journal)["units"]}


def running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


class TestRunProcessChaos:
    """Faults that kill the *run* process: recover with --resume."""

    @pytest.mark.parametrize("plan, exit_code, durable_units", [
        ("kill_run:record=2", 137, 2),
        ("truncate_journal:record=2", 23, 1),
    ])
    def test_killed_run_resumes_byte_identical(self, tmp_path, plan,
                                               exit_code,
                                               durable_units):
        """Acceptance: a run killed at (or torn mid-) checkpoint 2,
        resumed with --resume, produces output byte-identical to an
        uninterrupted run."""
        spec = chaos_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        journal = tmp_path / "run.journal"
        out = tmp_path / "out.csv"
        command = [sys.executable, "-m", "repro", "run", str(spec_path),
                   "--resume", str(journal), "--out", str(out)]
        first = subprocess.run(command, env=subprocess_env(plan),
                               capture_output=True, timeout=300)
        assert first.returncode == exit_code, first.stderr.decode()
        assert not out.exists(), "the killed run must not emit a table"
        recovered = read_journal(journal)
        assert len(recovered["units"]) == durable_units
        # Clean resume: skips the durable units, reruns the rest.
        second = subprocess.run(command, env=subprocess_env(),
                                capture_output=True, timeout=300)
        assert second.returncode == 0, second.stderr.decode()
        assert f"resumed {durable_units} unit(s)" \
            in second.stderr.decode()
        expected = spec.build_runner().run(backend="serial")
        assert out.read_text() == expected.to_csv()

    @pytest.mark.parametrize("plan, exit_code, durable_units", [
        ("kill_run:record=3", 137, 3),
        ("truncate_journal:record=3", 23, 2),
    ])
    def test_killed_pool_run_resumes_byte_identical(
            self, tmp_path, plan, exit_code, durable_units):
        """The same guarantee on the process backend: the parent
        journals each unit a pool worker returns, so a pool run killed
        at (or torn mid-) checkpoint 3 resumes on the pool and writes
        the serial bytes."""
        spec = chaos_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        journal = tmp_path / "run.journal"
        out = tmp_path / "out.csv"
        command = [sys.executable, "-m", "repro", "run", str(spec_path),
                   "--backend", "process", "--workers", "2",
                   "--resume", str(journal), "--out", str(out)]
        # Output goes to files: pool workers inherit the run's streams.
        logs = [tmp_path / "first.log", tmp_path / "second.log"]
        with open(logs[0], "wb") as sink:
            first = subprocess.run(command, env=subprocess_env(plan),
                                   stdout=sink, stderr=sink, timeout=300)
        assert first.returncode == exit_code, logs[0].read_text()
        assert not out.exists(), "the killed run must not emit a table"
        recovered = read_journal(journal)
        assert [unit["unit"] for unit in recovered["units"]] \
            == ["a/SPP2", "a/SPP3", "b/SPP2"][:durable_units]
        pids = pool_pids(journal)
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if running(pid)]
        with open(logs[1], "wb") as sink:
            second = subprocess.run(command, env=subprocess_env(),
                                    stdout=sink, stderr=sink, timeout=300)
        assert second.returncode == 0, logs[1].read_text()
        assert f"resumed {durable_units} unit(s)" in logs[1].read_text()
        expected = spec.build_runner().run(backend="serial")
        assert out.read_text() == expected.to_csv()

    def test_journal_truncation_leaves_a_recoverable_tail(
        self, tmp_path
    ):
        spec = chaos_spec(models=["SPP3"])
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        journal = tmp_path / "run.journal"
        command = [sys.executable, "-m", "repro", "run", str(spec_path),
                   "--resume", str(journal), "--out", "-"]
        torn = subprocess.run(
            command, env=subprocess_env("truncate_journal:record=2"),
            capture_output=True, timeout=300,
        )
        assert torn.returncode == 23
        data = journal.read_bytes()
        assert not data.endswith(b"\n"), "the tail must be torn"
        # `repro journal inspect` reports the torn tail instead of
        # choking on it.
        inspect = subprocess.run(
            [sys.executable, "-m", "repro", "journal", "inspect",
             str(journal)],
            env=subprocess_env(), capture_output=True, timeout=60,
        )
        assert inspect.returncode == 0
        assert b"torn tail" in inspect.stdout


    def test_killed_process_run_leaves_no_pool_worker(self, tmp_path):
        """A process run killed at checkpoint 2 takes its pool workers
        with it: every worker the journal names is gone (or a zombie)
        within seconds, and the resumed run matches the serial CSV."""
        spec = REPO_DIR / "examples" / "specs" / "chaos.json"
        journal = tmp_path / "run.journal"
        out = tmp_path / "process.csv"
        command = [sys.executable, "-m", "repro", "run", str(spec),
                   "--backend", "process", "--workers", "2",
                   "--resume", str(journal), "--out", str(out)]
        # Output goes to a file: an orphaned worker would hold a
        # captured pipe open, and the run would look hung instead.
        log = tmp_path / "killed.log"
        with open(log, "wb") as sink:
            first = subprocess.run(command,
                                   env=subprocess_env("kill_run:record=2"),
                                   stdout=sink, stderr=sink, timeout=300)
        assert first.returncode == 137, log.read_text()
        assert not out.exists()
        pids = pool_pids(journal)
        assert pids, "the journal names no pool worker"
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if running(pid)]
        second = subprocess.run(command, env=subprocess_env(),
                                capture_output=True, timeout=300)
        assert second.returncode == 0, second.stderr.decode()
        expected = ExperimentSpec.load(spec).build_runner().run(
            backend="serial")
        assert out.read_text() == expected.to_csv()


class TestJournaledPoolRun:
    def test_journaled_process_run_checkpoints_units(self, tmp_path):
        """The journal seam works through the process backend: each
        unit is journaled in plan order under its pool worker's name,
        and a serial resume that executes nothing reproduces the
        table byte for byte."""
        spec = chaos_spec(models=["SPP3"])
        path = tmp_path / "process.journal"
        table = spec.build_runner(workers=2).run(
            backend="process", journal=RunJournal(path))
        recorded = read_journal(path)
        assert [u["unit"] for u in recorded["units"]] \
            == ["a/SPP3", "b/SPP3"]
        for unit in recorded["units"]:
            assert unit["worker"].startswith("process-")
            assert unit["worker"] != f"process-{os.getpid()}"
        journal = RunJournal(path)
        resumed = spec.build_runner().run(backend="serial",
                                          journal=journal)
        assert journal.summary()["resumed_units"] == 2
        assert journal.summary()["appended_units"] == 0
        assert resumed.to_csv() == table.to_csv()
        assert resumed.to_json() == table.to_json()
