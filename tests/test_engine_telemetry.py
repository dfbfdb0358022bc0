"""Live telemetry layer: span tracer, the merged fleet trace, the
manifest's per-run ``telemetry`` snapshot, and the byte-identity
contract —
a telemetry-disabled run's CSV/JSON and manifest (minus the
``telemetry`` key) must match a traced run's byte for byte."""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import (
    ExperimentSpec,
    ExperimentTable,
    TraceCache,
    telemetry,
)
from repro.engine.dist.coordinator import Coordinator, _WorkerConn
from repro.engine.manifest import RunManifest, RunObserver
from repro.engine.settings import (
    ENGINE_ENV_VARS,
    DistSettings,
    TelemetrySettings,
)
from repro.engine.telemetry import SPAN_CATEGORIES, SpanTracer

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENGINE_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Telemetry is process-global state; never leak it across tests."""
    assert telemetry.active_tracer() is None
    yield
    telemetry.activate(None)


def small_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="telemetry-test",
        simulators=["spade-he", "dense-he"],
        models=["SPP2"],
        scenarios=[{"name": "a", "seed": 0, "frames": 2}],
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def assert_chrome_trace_schema(doc: dict) -> None:
    """The subset of the trace-event JSON schema Perfetto requires."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert isinstance(doc["traceEvents"], list)
    for event in doc["traceEvents"]:
        assert isinstance(event, dict)
        assert event["ph"] in ("X", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] == "process_name"
            assert isinstance(event["args"]["name"], str)
        else:
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
            assert event["dur"] >= 0


class TestSpanTracer:
    def test_spans_record_counts_and_durations(self):
        tracer = SpanTracer(process="t")
        with telemetry.tracing(tracer):
            with telemetry.span("trace", "engine", model="SPP2"):
                with telemetry.span("cache-get", "cache"):
                    pass
            with telemetry.span("trace"):
                pass
        assert tracer.counts() == {"trace": 2, "cache-get": 1}
        profile = tracer.phase_profile()
        assert set(profile) == {"trace", "cache-get"}
        assert profile["trace"]["count"] == 2
        assert profile["trace"]["micros"] >= 0

    def test_timestamps_are_epoch_microseconds(self):
        tracer = SpanTracer()
        before = time.time_ns() // 1_000
        with tracer.span("trace"):
            pass
        after = time.time_ns() // 1_000
        (event,) = tracer.drain()
        assert before <= event["ts"] <= after
        assert event["tid"] == threading.get_ident()
        assert event["pid"] == 0

    def test_trace_events_document_is_schema_valid(self, tmp_path):
        tracer = SpanTracer(process="coordinator")
        with tracer.span("simulate", "engine", scenario="a"):
            pass
        tracer.ingest(
            [{"name": "simulate", "cat": "engine", "ph": "X",
              "ts": 1, "dur": 2, "pid": 0, "tid": 5}],
            worker="w0",
        )
        doc = tracer.trace_events()
        assert_chrome_trace_schema(doc)
        names = {event["args"]["name"] for event in doc["traceEvents"]
                 if event["ph"] == "M"}
        assert names == {"coordinator", "w0"}
        path = tmp_path / "run.trace.json"
        tracer.export(path)
        assert_chrome_trace_schema(json.loads(path.read_text()))

    def test_ingest_assigns_stable_pids_per_worker(self):
        tracer = SpanTracer()
        batch = [{"name": "simulate", "ph": "X", "ts": 0, "dur": 1,
                  "pid": 0, "tid": 1}]
        tracer.ingest(batch, worker="w0")
        tracer.ingest(batch, worker="w1")
        tracer.ingest(batch, worker="w0")
        events = tracer.drain()
        pids = {}
        for event in events:
            pids.setdefault(event["pid"], 0)
            pids[event["pid"]] += 1
        assert sorted(pids.values()) == [1, 2]
        assert tracer.counts() == {"simulate": 3}

    def test_drain_removes_local_events(self):
        tracer = SpanTracer()
        with tracer.span("trace"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []
        # Counts survive the drain — the manifest snapshot still sees
        # spans a dist worker already shipped away.
        assert tracer.counts() == {"trace": 1}

    def test_phase_profile_is_detached_and_json_safe(self):
        tracer = SpanTracer()
        with tracer.span("simulate", scenario="a"):
            pass
        profile = tracer.phase_profile()
        assert json.loads(json.dumps(profile)) == profile
        profile["simulate"]["count"] = 99
        profile["trace"] = {"count": 1, "micros": 1}
        assert tracer.phase_profile()["simulate"]["count"] == 1
        assert set(tracer.phase_profile()) == {"simulate"}

    def test_concurrent_spans_are_not_lost(self):
        tracer = SpanTracer()
        per_thread = 200
        # All four threads are alive together, so their idents differ.
        barrier = threading.Barrier(4)

        def emit():
            barrier.wait()
            for _ in range(per_thread):
                with tracer.span("simulate"):
                    pass
            barrier.wait()

        threads = [threading.Thread(target=emit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = tracer.drain()
        assert len(events) == 4 * per_thread
        assert tracer.counts() == {"simulate": 4 * per_thread}
        # Each thread's spans carry its own tid.
        assert len({event["tid"] for event in events}) == 4

    def test_ingest_adds_worker_spans_to_the_profile(self):
        tracer = SpanTracer()
        tracer.ingest(
            [{"name": "simulate", "ph": "X", "ts": 0, "dur": 5,
              "pid": 0, "tid": 1},
             {"name": "simulate", "ph": "X", "ts": 9, "dur": 7,
              "pid": 0, "tid": 1},
             {"name": "trace", "ph": "X", "ts": 2, "pid": 0, "tid": 1},
             "not-an-event"],
            worker="w0",
        )
        assert tracer.phase_profile() == {
            "simulate": {"count": 2, "micros": 12},
            "trace": {"count": 1, "micros": 0},
        }
        assert len(tracer.drain()) == 3

    def test_empty_batch_names_no_worker(self):
        tracer = SpanTracer(process="coordinator")
        tracer.ingest([], worker="idle")
        tracer.ingest([{"name": "simulate", "ph": "X", "ts": 0,
                        "dur": 1, "pid": 0, "tid": 1}], worker="busy")
        (event,) = tracer.drain()
        assert event["pid"] == 1
        names = {meta["args"]["name"]
                 for meta in tracer.trace_events()["traceEvents"]
                 if meta["ph"] == "M"}
        assert names == {"coordinator", "busy"}

    def test_span_that_raises_is_recorded_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("simulate", scenario="a"):
                raise ValueError("boom")
        (event,) = tracer.drain()
        assert event["name"] == "simulate"
        assert event["args"] == {"scenario": "a"}
        assert tracer.counts() == {"simulate": 1}


class TestNoopFastPath:
    def test_span_without_tracer_is_the_shared_noop(self):
        first = telemetry.span("trace", model="SPP2")
        second = telemetry.span("simulate")
        assert first is second
        with first:
            pass

    def test_drain_spans_without_tracer_is_empty(self):
        assert telemetry.drain_spans() == []

    def test_tracing_scope_restores_previous(self):
        outer, inner = SpanTracer(), SpanTracer()
        with telemetry.tracing(outer):
            with telemetry.tracing(inner):
                assert telemetry.active_tracer() is inner
            assert telemetry.active_tracer() is outer
        assert telemetry.active_tracer() is None


class TestLogLine:
    def test_whole_line_to_stderr(self, capsys):
        telemetry.log_line("[repro] one whole line")
        captured = capsys.readouterr()
        assert captured.err == "[repro] one whole line\n"
        assert captured.out == ""


class TestTelemetrySettings:
    def test_defaults(self):
        settings = TelemetrySettings.resolve()
        assert settings == TelemetrySettings(enabled=False)

    def test_env_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "1")
        settings = TelemetrySettings.resolve()
        assert settings == TelemetrySettings(enabled=True)

    def test_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "0")
        settings = TelemetrySettings.resolve(enabled=True)
        assert settings.enabled is True

    def test_bad_flag_names_the_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "republic")
        with pytest.raises(ValueError, match="REPRO_ENGINE_TELEMETRY"):
            TelemetrySettings.resolve()


def _unit(unit_id: str) -> dict:
    return {"unit": unit_id, "label": unit_id, "groups": []}


class TestFirstAcceptedWinsSpans:
    def test_duplicate_result_spans_ingest_exactly_once(self):
        """A resent unit (requeue after a presumed-dead worker) books
        rows, stats AND spans exactly once — from the accepted result."""
        coordinator = Coordinator(
            units=[_unit("u0")], settings=DistSettings.resolve(),
        )
        tracer = SpanTracer(process="coordinator")
        batch = [{"name": "simulate", "ph": "X", "ts": 0, "dur": 7,
                  "pid": 0, "tid": 1}]
        first = _WorkerConn(None, worker_id="w0", pid=101)
        second = _WorkerConn(None, worker_id="w1", pid=102)
        coordinator._pending.clear()
        with telemetry.tracing(tracer):
            coordinator._handle_result(
                first, {"unit": "u0", "groups": {}, "timings": {},
                        "spans": list(batch)})
            # The duplicate from the presumed-dead worker: same unit,
            # same spans — must be dropped wholesale.
            coordinator._handle_result(
                second, {"unit": "u0", "groups": {}, "timings": {},
                         "spans": list(batch)})
        assert coordinator._done == {"u0"}
        assert tracer.counts() == {"simulate": 1}
        events = tracer.drain()
        assert len(events) == 1


def _traced_fleet_run(directory: Path) -> tuple:
    """A traced 2-worker loopback dist run: the exported Chrome trace
    document, the dist table and the serial table of the same spec."""
    from repro.engine.dist.coordinator import DistBackend

    spec = small_spec(
        models=["SPP2", "SPP3"],
        scenarios=[{"name": "a", "seed": 0},
                   {"name": "b", "seed": 9}],
    )
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get(
        "PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}",
             "--id", f"trace-w{index}",
             "--retry-seconds", "60"],
            env=env, stderr=subprocess.DEVNULL,
        )
        for index in range(2)
    ]
    tracer = SpanTracer(process="coordinator")
    try:
        with telemetry.tracing(tracer):
            table = spec.build_runner().run(
                backend=DistBackend(port=port, start_timeout=60,
                                    unit_timeout=60),
            )
    finally:
        for worker in workers:
            worker.kill()
            worker.wait()
    serial = spec.build_runner().run(backend="serial")
    path = directory / "fleet.trace.json"
    tracer.export(path)
    return json.loads(path.read_text()), table, serial


@pytest.fixture(scope="class")
def fleet_trace(tmp_path_factory):
    """One traced fleet run shared by the class's tests."""
    # Class scope runs before the per-test clean_env: strip the engine
    # knobs here too, for this process and the spawned workers.
    with pytest.MonkeyPatch.context() as patch:
        for var in ENGINE_ENV_VARS:
            patch.delenv(var, raising=False)
        return _traced_fleet_run(tmp_path_factory.mktemp("fleet"))


class TestMergedFleetTrace:
    def test_two_subprocess_workers_one_timeline(self, fleet_trace):
        """Acceptance: a traced 2-worker run exports one merged,
        schema-valid Chrome trace covering coordinator and both
        workers."""
        doc, table, serial = fleet_trace
        assert len(table) == 8
        assert table.to_csv() == serial.to_csv()
        assert_chrome_trace_schema(doc)
        processes = {event["args"]["name"]
                     for event in doc["traceEvents"]
                     if event["ph"] == "M"}
        assert processes == {"coordinator", "trace-w0", "trace-w1"}
        by_process = {name: 0 for name in processes}
        pid_names = {event["pid"]: event["args"]["name"]
                     for event in doc["traceEvents"]
                     if event["ph"] == "M"}
        names_seen = set()
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            by_process[pid_names[event["pid"]]] += 1
            names_seen.add(event["name"])
        # Every fleet member contributed spans to the one timeline.
        assert all(count > 0 for count in by_process.values())
        # Worker-side execution and coordinator-side protocol both
        # appear (the merged timeline covers the whole request path).
        assert "simulate" in names_seen
        assert "protocol-send" in names_seen

    def test_every_span_category_is_declared(self, fleet_trace):
        """SPAN_CATEGORIES names exactly what the instrumentation
        emits: the fleet run's spans use every category and no other."""
        doc, _, _ = fleet_trace
        categories = {event["cat"] for event in doc["traceEvents"]
                      if event["ph"] == "X"}
        assert categories == set(SPAN_CATEGORIES)


class TestSpanCategories:
    def test_every_instrumentation_site_uses_a_declared_category(self):
        """Each ``telemetry.span(name, category)`` call under ``src/``
        names a declared category, and every declared category has a
        site — including sites a loopback fleet run never reaches."""
        pattern = re.compile(r"telemetry\.span\(\s*[^,()]+,\s*\"(\w+)\"")
        used = set()
        for path in Path(SRC_DIR, "repro").rglob("*.py"):
            used.update(pattern.findall(path.read_text(encoding="utf-8")))
        assert used == set(SPAN_CATEGORIES)


class TestByteIdentity:
    def run_once(self, traced: bool, tmp_path, label: str) -> tuple:
        spec = small_spec()
        runner = spec.build_runner()
        observer = RunObserver()
        tracer = SpanTracer() if traced else None
        with telemetry.tracing(tracer):
            table = runner.run(observer=observer)
            csv_text = table.to_csv()
            json_text = table.to_json()
        manifest = RunManifest.collect(runner, table, observer=observer)
        path = tmp_path / f"{label}.manifest.json"
        manifest.write(path)
        return csv_text, json_text, json.loads(path.read_text())

    def test_disabled_run_is_byte_identical(self, tmp_path):
        """Acceptance: telemetry on vs off — same CSV/JSON bytes, same
        manifest minus the ``telemetry`` key."""
        off_csv, off_json, off_manifest = self.run_once(
            False, tmp_path, "off")
        on_csv, on_json, on_manifest = self.run_once(
            True, tmp_path, "on")
        assert off_csv == on_csv
        assert off_json == on_json
        assert "telemetry" not in off_manifest
        assert set(on_manifest) - set(off_manifest) == {"telemetry"}
        assert on_manifest["telemetry"]["spans"]
        assert on_manifest["spec"] == off_manifest["spec"]
        assert on_manifest["settings"] == off_manifest["settings"]

    def test_manifest_round_trips_telemetry(self, tmp_path):
        _, _, on_manifest = self.run_once(True, tmp_path, "round")
        loaded = RunManifest.from_dict(on_manifest)
        assert loaded.telemetry["spans"] == (
            on_manifest["telemetry"]["spans"]
        )
        assert set(loaded.telemetry) == {"spans"}


class TestPerRunTelemetry:
    def traced_telemetry(self, backend: str) -> dict:
        spec = small_spec(simulators=["spade-he"],
                          scenarios=[{"name": "a", "seed": 0}])
        runner = spec.build_runner(backend=backend, workers=2)
        observer = RunObserver()
        with telemetry.tracing(SpanTracer()):
            runner.run(observer=observer)
        return observer.telemetry

    def test_repeated_runs_report_the_same_telemetry(self):
        """Each traced run's manifest describes that run alone: the
        same one-cell spec run twice in one process — serial, then
        through the process backend — records the same span profile
        and nothing that accumulates across runs."""
        serial = self.traced_telemetry("serial")
        process = self.traced_telemetry("process")
        assert set(serial) == set(process) == {"spans"}

        def counts(snapshot):
            # Durations vary run to run; what was recorded must not.
            return {name: entry["count"]
                    for name, entry in snapshot["spans"].items()}

        assert counts(serial) == counts(process)
        assert counts(serial)["simulate"] == 1

    def grid_run(self, backend: str, traced: bool, cache=None):
        """A 2 scenarios x 2 models x 2 simulators run on a fresh
        memory-only cache unless one is given; (table, observer)."""
        spec = small_spec(models=["SPP2", "SPP3"],
                          scenarios=[{"name": "a", "seed": 0},
                                     {"name": "b", "seed": 1}])
        runner = spec.build_runner(
            backend=backend, workers=2,
            cache=cache if cache is not None else TraceCache(disk_dir=None))
        observer = RunObserver()
        with telemetry.tracing(SpanTracer() if traced else None):
            table = runner.run(observer=observer)
        return table, observer

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_manifest_counts_this_runs_cache_lookups(self, backend):
        """Two traced cold runs in one process each count their own
        four misses — including the pool workers' lookups — and never
        the sum of both runs."""
        for _ in range(2):
            table, observer = self.grid_run(backend, traced=True)
            assert len(table) == 8
            assert observer.cache_stats["misses"] == 4
            assert observer.cache_stats["hits"] == 0

    def test_serial_span_counts_follow_the_plan(self):
        """One disk lookup, trace and store per (scenario, model)
        miss and one simulate per cell; a warm re-run on the same cache
        is served from memory and records only its own simulations."""
        cache = TraceCache(disk_dir=None)
        table, cold = self.grid_run("serial", traced=True, cache=cache)

        def counts(observer):
            return {name: entry["count"] for name, entry
                    in observer.telemetry["spans"].items()}

        assert counts(cold) == {"trace": 4, "cache-get": 4,
                                "cache-put": 4, "simulate": len(table)}
        _, warm = self.grid_run("serial", traced=True, cache=cache)
        assert counts(warm) == {"simulate": len(table)}
        assert warm.cache_stats["hits"] == 4

    def test_process_span_counts_match_serial(self):
        """A traced plan that fills two pool chunks records the spans
        its workers emitted: the same counts as the serial run."""
        def counts(observer):
            return {name: entry["count"] for name, entry
                    in observer.telemetry["spans"].items()}

        _, serial = self.grid_run("serial", traced=True)
        _, process = self.grid_run("process", traced=True)
        assert counts(serial) == {"trace": 4, "cache-get": 4,
                                  "cache-put": 4, "simulate": 8}
        assert counts(process) == counts(serial)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_untraced_run_records_no_telemetry(self, backend):
        table, observer = self.grid_run(backend, traced=False)
        assert len(table) == 8
        assert observer.telemetry is None
        assert observer.as_dict()["telemetry"] is None


class TestRetiredInstruments:
    def test_metrics_registry_is_gone(self):
        """The process-wide metrics registry was deleted; the span
        profile in the manifest is the one telemetry record."""
        import repro.engine as engine

        for name in ("MetricsRegistry", "metrics", "LATENCY_BUCKETS"):
            assert not hasattr(telemetry, name), name
            assert not hasattr(engine, name), name


def _cli_spec(directory: Path, name: str) -> Path:
    """A one-cell spec file for ``repro run``."""
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps({
        "name": name,
        "simulators": ["spade-he"],
        "models": ["SPP2"],
        "scenarios": [{"name": "a", "seed": 0}],
    }))
    return spec_path


class TestTraceOutCli:
    def test_run_trace_out_writes_perfetto_file(self, tmp_path):
        from repro.cli import main

        spec_path = _cli_spec(tmp_path, "cli-trace")
        out = tmp_path / "results.csv"
        trace = tmp_path / "run.trace.json"
        code = main(["run", str(spec_path), "--out", str(out),
                     "--trace-out", str(trace)])
        assert code == 0
        assert telemetry.active_tracer() is None
        doc = json.loads(trace.read_text())
        assert_chrome_trace_schema(doc)
        names = {event["name"] for event in doc["traceEvents"]
                 if event["ph"] == "X"}
        assert {"simulate", "serialize"} <= names
        manifest = json.loads(
            (tmp_path / "results.manifest.json").read_text())
        assert manifest["telemetry"]["spans"]["simulate"]["count"] > 0

    def test_trace_out_beats_a_disabled_environment(self, tmp_path,
                                                    monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "0")
        spec_path = _cli_spec(tmp_path, "cli-trace")
        trace = tmp_path / "run.trace.json"
        assert main(["run", str(spec_path),
                     "--out", str(tmp_path / "results.csv"),
                     "--trace-out", str(trace)]) == 0
        assert_chrome_trace_schema(json.loads(trace.read_text()))

    def test_environment_traces_without_an_export_file(self, tmp_path,
                                                       monkeypatch):
        """``REPRO_ENGINE_TELEMETRY=1`` alone records the span profile
        in the manifest; only ``--trace-out`` writes a trace file."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "1")
        spec_path = _cli_spec(tmp_path, "cli-env")
        assert main(["run", str(spec_path),
                     "--out", str(tmp_path / "results.csv")]) == 0
        manifest = json.loads(
            (tmp_path / "results.manifest.json").read_text())
        assert manifest["telemetry"]["spans"]["simulate"]["count"] > 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "results.csv", "results.manifest.json", "spec.json"]

    def test_untraced_cli_run_has_no_telemetry_key(self, tmp_path):
        from repro.cli import main

        spec_path = _cli_spec(tmp_path, "cli-plain")
        out = tmp_path / "results.csv"
        assert main(["run", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads(
            (tmp_path / "results.manifest.json").read_text())
        assert "telemetry" not in manifest


class TestTableConsistency:
    def test_traced_rows_round_trip_unchanged(self):
        """Tracing must not disturb the rows: the traced table matches
        an untraced run and survives the JSON projection."""
        spec = small_spec()
        untraced = spec.build_runner().run(backend="serial")
        tracer = SpanTracer()
        with telemetry.tracing(tracer):
            traced = spec.build_runner().run(backend="serial")
        assert traced.to_csv() == untraced.to_csv()
        assert ExperimentTable.from_json(
            traced.to_json()).to_csv() == traced.to_csv()
