"""The process pool, the engine's one parallel path: row parity with the
serial backend for every Table I model and simulator family and across
pool widths and plan shapes, the cache tier its workers write, the cache
counters its manifests report, how a failing pool run ends, and the
parent-death watch that ends a pool worker whose run was killed."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.engine import (
    ExperimentRunner,
    ExperimentSpec,
    RunJournal,
    RunManifest,
    RunObserver,
    Scenario,
    Simulator,
    TraceCache,
    read_journal,
)
from repro.engine import backends as backends_module
from repro.engine.settings import CACHE_DIR_ENV_VAR
from repro.models.specs import TABLE1_MODELS

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: One spec string per built-in simulator configuration.
SIMULATOR_SPECS = [
    "spade-he", "spade-le", "spade-he-noopt", "dense-he", "dense-le",
    "pointacc-he", "pointacc-le", "spconv2d", "platform:A6000", "stats",
]


def pool_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="pool-test",
        simulators=["spade-he", "dense-he"],
        models=["SPP2", "SPP3"],
        scenarios=[{"name": "a", "seed": 0}, {"name": "b", "seed": 9}],
        backend="serial",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.fixture(scope="module")
def full_grid():
    """Every Table I model x every simulator configuration, one
    single-frame and one 2-frame scenario: (serial, process) tables."""

    def runner():
        return ExperimentRunner(
            simulators=list(SIMULATOR_SPECS),
            models=list(TABLE1_MODELS),
            scenarios=[Scenario("one", seed=2),
                       Scenario("two", seed=5, frames=2)],
            cache=TraceCache(disk_dir=None), max_workers=2,
        )

    return runner().run(backend="serial"), runner().run(backend="process")


class TestEveryCellCrossesThePool:
    """A pool worker re-creates each model's spec from its name and
    unpickles each simulator instance; no model or simulator may come
    back different from the serial run."""

    @pytest.mark.parametrize("model", TABLE1_MODELS)
    def test_model_rows_match_serial(self, full_grid, model):
        serial, process = full_grid
        expected = [(index, row) for index, row in enumerate(serial)
                    if row.model == model]
        got = [(index, row) for index, row in enumerate(process)
               if row.model == model]
        # Per simulator: one row for "one", two frames plus a mean
        # for "two".
        assert len(expected) == len(SIMULATOR_SPECS) * 4
        assert got == expected

    @pytest.mark.parametrize("simulator", SIMULATOR_SPECS)
    def test_simulator_rows_match_serial(self, full_grid, simulator):
        from repro.engine import build_simulator

        name = build_simulator(simulator).name
        serial, process = full_grid
        expected = [(index, row.as_dict()) for index, row
                    in enumerate(serial) if row.simulator == name]
        got = [(index, row.as_dict()) for index, row
               in enumerate(process) if row.simulator == name]
        assert len(expected) == len(TABLE1_MODELS) * 4
        assert got == expected


#: Plan shapes for the width sweep: (spec overrides, rows).
PLAN_SHAPES = {
    "grid": ({}, 8),
    "batched": (dict(scenarios=[{"name": "a", "seed": 0, "frames": 2},
                                {"name": "b", "seed": 9, "frames": 3}]),
                2 * 2 * (3 + 4)),
    "delta": (dict(delta_trace=True,
                   scenarios=[{"name": "a", "seed": 0, "frames": 2},
                              {"name": "b", "seed": 9, "frames": 2}]),
              2 * 2 * 2 * 3),
    "cells": (dict(cells=[{"model": "SPP2", "simulator": "SPADE*"},
                          {"model": "SPP3"}]), 2 * 3),
    "uneven": (dict(models=["SPP1", "SPP2", "SPP3"],
                    scenarios=[{"name": "a", "seed": 0},
                               {"name": "b", "seed": 9, "frames": 2},
                               {"name": "c", "seed": 4}]),
               2 * 3 * (1 + 3 + 1)),
}


class TestPoolWidths:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    def test_table_is_the_serial_bytes(self, monkeypatch, shape, workers):
        """At every pool width and plan shape the process table's CSV
        and JSON bytes are the serial run's."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        overrides, rows = PLAN_SHAPES[shape]
        spec = pool_spec(**overrides)
        serial = spec.build_runner().run(backend="serial")
        process = spec.build_runner(workers=workers).run(backend="process")
        assert len(serial) == rows
        assert process.to_csv() == serial.to_csv()
        assert process.to_json() == serial.to_json()

    @pytest.mark.parametrize("workers, width", [
        (2, 2), (3, 3), (4, 3), (8, 3),
    ])
    def test_pool_is_no_wider_than_the_plan(self, monkeypatch, workers,
                                            width):
        """Three one-group scenarios cut into three chunks: the pool is
        ``min(workers, chunks)`` processes wide."""
        widths = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                widths.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, chunks):
                return [fn(chunk) for chunk in chunks]

        for name in ("_WORKER_SETTINGS", "_WORKER_CACHE", "_WORKER_FRAMES"):
            monkeypatch.setattr(backends_module, name, None)
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        spec = pool_spec(models=["SPP3"], simulators=["spade-he"],
                         scenarios=[{"name": name, "seed": seed}
                                    for seed, name in enumerate("abc")])
        table = spec.build_runner(workers=workers).run(backend="process")
        assert widths == [width]
        assert len(table) == 3


class TestPoolWorkers:
    def test_finished_run_leaves_no_worker(self, monkeypatch):
        """Three scenarios on a two-process pool: every unit names one
        of at most two workers, none the run process itself, and no
        worker is left once the run returns."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        spec = pool_spec(scenarios=[{"name": name, "seed": seed}
                                    for seed, name in enumerate("abc")])
        observer = RunObserver()
        spec.build_runner(workers=2).run(backend="process",
                                         observer=observer)
        workers = {unit["worker"] for unit in observer.units}
        assert len(observer.units) == 6
        assert 1 <= len(workers) <= 2
        assert f"process-{os.getpid()}" not in workers
        pids = [int(worker.removeprefix("process-")) for worker in workers]
        assert not [pid for pid in pids if running(pid)]

    def test_environment_selects_the_pool(self, monkeypatch):
        """``REPRO_ENGINE_BACKEND=process`` sends a runner without a
        backend of its own to the pool, with the serial table."""
        from repro.engine.settings import BACKEND_ENV_VAR, WORKERS_ENV_VAR

        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")

        def runner():
            return ExperimentRunner(
                simulators=["spade-he", "dense-he"],
                models=["SPP2", "SPP3"],
                scenarios=[Scenario("a", seed=0), Scenario("b", seed=9)],
                cache=TraceCache(disk_dir=None))

        observer = RunObserver()
        pooled = runner().run(observer=observer)
        assert all(unit["worker"].startswith("process-")
                   for unit in observer.units)
        assert pooled.to_csv() == runner().run(backend="serial").to_csv()


class TestPoolCacheTier:
    @pytest.mark.parametrize("source", ["env", "cache-dir"])
    def test_workers_write_the_runs_cache_tier(self, tmp_path,
                                               monkeypatch, source):
        """Whether the runner's cache took its tier from
        ``REPRO_TRACE_CACHE_DIR`` or from the ``cache_dir`` knob, the
        pool workers write one artifact per unique frame into it."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        overrides = {}
        if source == "env":
            monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
            overrides["cache"] = TraceCache()
        else:
            overrides["cache_dir"] = str(tmp_path)
        spec = pool_spec(
            models=["SPP3"],
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9}],
        )
        table = spec.build_runner(workers=2, **overrides).run(
            backend="process")
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 3
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        expected = spec.build_runner(cache_dir=None).run(backend="serial")
        assert table.to_csv() == expected.to_csv()

    def test_delta_chains_keep_the_serial_keys(self, tmp_path,
                                               monkeypatch):
        """Delta-traced chains traced by pool workers land under the
        same content keys a serial run writes, so either run warms the
        other's tier."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        spec = pool_spec(
            models=["SPP3"], delta_trace=True,
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9, "frames": 2}],
        )
        serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
        serial = spec.build_runner(cache_dir=str(serial_dir)).run(
            backend="serial")
        pooled = spec.build_runner(cache_dir=str(pool_dir),
                                   workers=2).run(backend="process")
        keys = sorted(path.name for path in serial_dir.glob("*.trace.pkl"))
        assert len(keys) == 4
        assert sorted(path.name
                      for path in pool_dir.glob("*.trace.pkl")) == keys
        assert pooled.to_csv() == serial.to_csv()


class TestManifestCacheCounters:
    """Process manifests count the trace lookups, misses and layers
    their workers did, exactly as a serial run counts its own."""

    @staticmethod
    def _cache(spec, backend):
        runner = spec.build_runner(cache_dir=None, workers=2)
        observer = RunObserver()
        table = runner.run(backend=backend, observer=observer)
        return RunManifest.collect(runner, table,
                                   observer=observer).cache

    @pytest.mark.parametrize("delta_trace", [False, True],
                             ids=["full", "delta"])
    def test_counters_match_serial(self, monkeypatch, delta_trace):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        # Two groups of two sequential frames on a two-process pool.
        spec = pool_spec(
            models=["SPP3"], delta_trace=delta_trace,
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9, "frames": 2}],
        )
        expected = self._cache(spec, "serial")
        got = self._cache(spec, "process")

        def lookups(cache):
            return cache["hits"] + cache["disk_hits"] + cache["misses"]

        assert lookups(expected) == 4
        assert lookups(got) == lookups(expected)
        for key in ("full_layers", "delta_layers"):
            assert got[key] == expected[key], key
        assert (expected["delta_layers"] > 0) == delta_trace


class _FailOnSpp3(Simulator):
    """Fails on SPP3 traces only, so a plan can fail in its last chunk."""

    name = "FailOnSpp3"

    def run(self, trace):
        if trace.spec.name == "SPP3":
            raise RuntimeError("injected simulator failure")
        from repro.engine import SimResult

        return SimResult(simulator=self.name, model=trace.spec.name)


class TestFailingPoolRun:
    def _runner(self):
        return ExperimentRunner(
            simulators=[_FailOnSpp3()], models=["SPP2", "SPP3"],
            scenarios=[Scenario("a", seed=0)],
            cache=TraceCache(disk_dir=None), max_workers=2,
        )

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        """A simulator raising in a pool worker fails the run with that
        error, and the pool is shut down: no worker outlives it."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        with pytest.raises(RuntimeError, match="injected simulator"):
            self._runner().run(backend="process")
        assert multiprocessing.active_children() == []

    def test_units_before_the_failure_stay_journaled(self, tmp_path,
                                                     monkeypatch):
        """Chunks come home in plan order: the one that finished before
        the failing chunk is journaled, under its pool worker's name."""
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        path = tmp_path / "failed.journal"
        with pytest.raises(RuntimeError, match="injected simulator"):
            self._runner().run(backend="process", journal=RunJournal(path))
        units = read_journal(path)["units"]
        assert [unit["unit"] for unit in units] == ["a/SPP2"]
        assert units[0]["worker"].startswith("process-")


def _watch_script(body: str) -> list:
    return [sys.executable, "-c",
            "import os, sys, threading, time\n"
            "from repro.engine.backends import _exit_with_parent\n" + body]


class TestParentDeathWatch:
    """``_exit_with_parent``: the daemon thread every pool worker runs,
    which ends the worker once the run process that owns it is gone."""

    def test_init_worker_starts_a_daemon_watch(self, monkeypatch):
        started = []

        class InertThread:
            """Records the watch instead of starting it in this
            process."""

            def __init__(self, target=None, args=(), daemon=None):
                self.target, self.args, self.daemon = target, args, daemon

            def start(self):
                started.append(self)

        for name in ("_WORKER_SETTINGS", "_WORKER_CACHE", "_WORKER_FRAMES"):
            monkeypatch.setattr(backends_module, name, None)
        monkeypatch.setattr(backends_module, "threading",
                            SimpleNamespace(Thread=InertThread))
        from repro.engine.settings import EngineSettings

        backends_module._init_worker(EngineSettings.resolve(), False)
        [watch] = started
        assert watch.target is backends_module._exit_with_parent
        assert watch.args == (os.getppid(),)
        assert watch.daemon is True

    def test_watch_ends_a_process_whose_parent_changed(self):
        """A process whose parent pid is no longer the one it was
        started under exits at the first check, with status 1."""
        done = subprocess.run(
            _watch_script("_exit_with_parent(-1)\nsys.exit(0)\n"),
            env=subprocess_env(), capture_output=True, timeout=60)
        assert done.returncode == 1, done.stderr.decode()

    def test_watch_waits_while_the_parent_lives(self):
        script = _watch_script(
            "threading.Thread(target=_exit_with_parent,\n"
            "                 args=(os.getppid(),), daemon=True).start()\n"
            "time.sleep(1.2)\n"
            "print('alive')\n")
        done = subprocess.run(script, env=subprocess_env(),
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().strip() == "alive"

    def test_orphaned_process_exits(self, tmp_path):
        """The watched process's parent exits without a word: the
        orphan is gone within seconds, not after its 30 s sleep."""
        child = ("threading.Thread(target=_exit_with_parent,\n"
                 "                 args=(os.getppid(),),"
                 " daemon=True).start()\n"
                 "print('watching', flush=True)\n"
                 "time.sleep(30)\n")
        # The parent waits until the watch holds its pid, then exits.
        parent = (
            "import os, subprocess\n"
            f"orphan = subprocess.Popen({_watch_script(child)!r},\n"
            "                          stdout=subprocess.PIPE)\n"
            "orphan.stdout.readline()\n"
            "print(orphan.pid, flush=True)\n"
            "os._exit(0)\n")
        # Output goes to a file: a lingering orphan would hold a
        # captured pipe open and stall the parent's run.
        log = tmp_path / "parent.log"
        with open(log, "wb") as sink:
            done = subprocess.run(
                [sys.executable, "-c", parent], env=subprocess_env(),
                stdout=sink, stderr=sink, timeout=60)
        assert done.returncode == 0, log.read_text()
        pid = int(log.read_text().split()[0])
        deadline = time.monotonic() + 10
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not running(pid)


class TestJournalAcrossBackends:
    """A journal written by one backend resumes on the other: pool
    workers and the serial loop checkpoint the same units."""

    @pytest.mark.parametrize("first, second", [
        ("serial", "process"), ("process", "serial"),
        ("process", "process"),
    ])
    def test_partial_journal_resumes_byte_identical(
            self, tmp_path, monkeypatch, first, second):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        spec = pool_spec()
        path = tmp_path / "run.journal"
        full = spec.build_runner(workers=2).run(
            backend=first, journal=RunJournal(path))
        # Keep the header and the first two unit records: a run that
        # stopped after checkpoint 2.
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 4
        path.write_text("".join(lines[:3]))
        journal = RunJournal(path)
        resumed = spec.build_runner(workers=2).run(
            backend=second, journal=journal)
        assert journal.summary()["resumed_units"] == 2
        assert journal.summary()["appended_units"] == 2
        assert resumed.to_csv() == full.to_csv()
        assert resumed.to_json() == full.to_json()
        units = [unit["unit"] for unit in read_journal(path)["units"]]
        assert units == ["a/SPP2", "a/SPP3", "b/SPP2", "b/SPP3"]


class TestSpecRunsOnThePool:
    def test_cli_process_run_writes_the_serial_table(self, tmp_path):
        """``repro run --backend process --workers 2`` writes the bytes
        ``--backend serial`` does, and its manifest names the pool."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(pool_spec().to_dict()))
        outputs = {}
        for backend in ("serial", "process"):
            out = tmp_path / f"{backend}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "repro", "run", str(spec_path),
                 "--backend", backend, "--workers", "2",
                 "--out", str(out)],
                env=subprocess_env(), capture_output=True, timeout=300)
            assert done.returncode == 0, done.stderr.decode()
            outputs[backend] = out.read_text()
        assert outputs["process"] == outputs["serial"]
