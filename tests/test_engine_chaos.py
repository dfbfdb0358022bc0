"""Chaos matrix: deterministic fault plans against real runs.

Each scenario injects one failure mode — a worker killed mid-run, a
dropped connection, a stalled heartbeat, a journal torn mid-record, a
run killed at a checkpoint — and asserts the final table is identical
to a fault-free serial run (resuming with the journal where the fault
killed the run process)."""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import (
    DistRunError,
    DistStartTimeout,
    ExperimentSpec,
    ExperimentTable,
    Worker,
)
from repro.engine import faults
from repro.engine.backends import BackendUnavailable
from repro.engine.dist.coordinator import DistBackend

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


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


def serial_projection(spec: ExperimentSpec) -> ExperimentTable:
    table = spec.build_runner().run(backend="serial")
    return ExperimentTable.from_json(table.to_json())


def subprocess_env(fault_plan: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ENGINE_FAULTS", None)
    if fault_plan:
        env["REPRO_ENGINE_FAULTS"] = fault_plan
    return env


def start_worker_process(port: int, fault_plan: str = None,
                         reconnect: float = 60.0,
                         worker_id: str = None) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "worker",
               "--connect", f"127.0.0.1:{port}",
               "--retry-seconds", "60",
               "--reconnect-seconds", str(reconnect)]
    if worker_id:
        command += ["--id", worker_id]
    return subprocess.Popen(command, env=subprocess_env(fault_plan),
                            stderr=subprocess.DEVNULL)


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
        from repro.engine import read_journal

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


class TestDistChaos:
    """Worker/connection faults: the run itself survives and the table
    still matches the fault-free serial run row for row."""

    @pytest.mark.parametrize("plan", [
        "kill_worker:unit=1",
        "stall_heartbeat:after=2",
        "drop_conn:after=8",
    ])
    def test_faulty_worker_never_corrupts_the_table(self, plan):
        spec = chaos_spec()
        port = free_port()
        workers = [
            start_worker_process(port, fault_plan=plan,
                                 worker_id="chaotic"),
            start_worker_process(port, worker_id="steady"),
        ]
        backend = DistBackend(port=port, start_timeout=60,
                              max_attempts=5,
                              heartbeat_interval=0.2,
                              worker_timeout=1.5)
        try:
            table = spec.build_runner().run(backend=backend)
        finally:
            for worker in workers:
                worker.kill()
                worker.wait()
        expected = serial_projection(spec)
        assert len(table) == len(expected) == 8
        for left, right in zip(expected, table):
            assert left == right
        assert table.to_csv() == expected.to_csv()

    def test_coordinator_drop_requeues_and_worker_reconnects(self):
        """The coordinator drops the socket mid-assignment; the worker
        re-dials with backoff, re-handshakes, and the unit lands."""
        spec = chaos_spec(models=["SPP3"])
        port = free_port()
        worker = Worker(("127.0.0.1", port), worker_id="boomerang",
                        retry_seconds=60.0, reconnect_seconds=60.0)
        threading.Thread(target=worker.run, daemon=True).start()
        backend = DistBackend(port=port, start_timeout=60,
                              max_attempts=5)
        faults.install("coordinator_drop:unit=1")
        try:
            table = spec.build_runner().run(backend=backend)
        finally:
            faults.reset()
        expected = serial_projection(spec)
        assert len(table) == len(expected)
        for left, right in zip(expected, table):
            assert left == right
        stats = backend.last_coordinator.stats
        assert stats["requeues"] >= 1 or stats["worker_failures"] >= 1

    def test_exhausted_unit_reports_its_attempt_history(self):
        from repro.engine import SimResult, Simulator, register_simulator
        from repro.engine.registry import SIMULATORS

        class _FailSim(Simulator):
            name = "FailSim"

            def run(self, trace):
                raise RuntimeError("injected simulator failure")

        register_simulator("chaosfail", lambda: _FailSim(),
                           overwrite=True)
        try:
            spec = chaos_spec(simulators=["chaosfail"], models=["SPP3"],
                              scenarios=[{"name": "doomed", "seed": 0}])
            port = free_port()
            worker = Worker(("127.0.0.1", port), worker_id="w0",
                            retry_seconds=60.0)
            threading.Thread(target=worker.run, daemon=True).start()
            backend = DistBackend(port=port, start_timeout=60,
                                  max_attempts=2)
            with pytest.raises(DistRunError) as caught:
                spec.build_runner().run(backend=backend)
        finally:
            SIMULATORS.unregister("chaosfail")
        error = caught.value
        assert "attempt 1 on 'w0'" in str(error)
        assert len(error.attempts) == 2
        for entry in error.attempts:
            assert entry["worker"] == "w0"
            assert entry["assigned_at"]
            assert "injected simulator failure" in entry["reason"]
            assert entry["failed_at"]


class TestDegradation:
    def test_start_timeout_degrades_to_a_local_backend(self, capsys):
        """With degrade on, a dist run that never sees a worker falls
        back down the ladder and still produces the serial table."""
        spec = chaos_spec(models=["SPP3"])
        backend = DistBackend(port=free_port(), start_timeout=0.5)
        runner = spec.build_runner(degrade=True)
        table = runner.run(backend=backend)
        expected = serial_projection(spec)
        assert len(table) == len(expected)
        assert table.to_csv() == spec.build_runner().run(
            backend="serial").to_csv()
        assert "degrading to" in capsys.readouterr().err

    def test_degradation_is_opt_in(self):
        spec = chaos_spec(models=["SPP3"],
                          scenarios=[{"name": "a", "seed": 0}])
        backend = DistBackend(port=free_port(), start_timeout=0.3)
        with pytest.raises(DistStartTimeout):
            spec.build_runner().run(backend=backend)

    def test_start_timeout_is_both_unavailable_and_dist_error(self):
        # Old handlers catching DistRunError and the degradation seam
        # catching BackendUnavailable both see the same exception.
        assert issubclass(DistStartTimeout, DistRunError)
        assert issubclass(DistStartTimeout, BackendUnavailable)

    def test_journaled_dist_run_checkpoints_units(self, tmp_path):
        """The journal seam works through the dist backend: a resumed
        dist run skips completed units and stitches identical rows."""
        from repro.engine import RunJournal

        spec = chaos_spec(models=["SPP3"])
        port = free_port()
        worker = Worker(("127.0.0.1", port), worker_id="w0",
                        retry_seconds=60.0)
        threading.Thread(target=worker.run, daemon=True).start()
        path = tmp_path / "dist.journal"
        backend = DistBackend(port=port, start_timeout=60)
        table = spec.build_runner().run(backend=backend,
                                        journal=RunJournal(path))
        from repro.engine import read_journal

        recorded = read_journal(path)
        assert [u["unit"] for u in recorded["units"]] \
            == ["a/SPP3", "b/SPP3"]
        for unit in recorded["units"]:
            assert unit["worker"] == "w0"
        # Resume executes nothing (serial fallback never runs a group)
        # yet reproduces the dist table byte for byte.
        journal = RunJournal(path)
        resumed = spec.build_runner().run(backend="serial",
                                          journal=journal)
        assert journal.summary()["resumed_units"] == 2
        assert journal.summary()["appended_units"] == 0
        assert resumed.to_csv() == table.to_csv()
        assert resumed.to_json() == table.to_json()
