"""Live telemetry layer: span tracer, metrics registry, the merged
fleet trace, and the byte-identity contract —
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

from repro.engine import ExperimentSpec, ExperimentTable, telemetry
from repro.engine.dist.coordinator import Coordinator, _WorkerConn
from repro.engine.manifest import RunManifest, RunObserver
from repro.engine.settings import (
    ENGINE_ENV_VARS,
    DistSettings,
    TelemetrySettings,
)
from repro.engine.telemetry import (
    LATENCY_BUCKETS,
    SPAN_CATEGORIES,
    MetricsRegistry,
    SpanTracer,
)

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


class TestMetricsRegistry:
    def test_counters_and_histograms_snapshot(self):
        registry = MetricsRegistry()
        registry.count("repro_cache_gets_total", result="hit")
        registry.count("repro_cache_gets_total", result="hit")
        registry.count("repro_cache_gets_total", result="miss")
        registry.observe("repro_unit_seconds", 0.003, scenario="a")
        registry.observe("repro_unit_seconds", 9000.0, scenario="a")
        snapshot = registry.snapshot()
        hits = {
            entry["labels"]["result"]: entry["value"]
            for entry in snapshot["counters"]["repro_cache_gets_total"]
        }
        assert set(snapshot) == {"counters", "histograms"}
        assert hits == {"hit": 2, "miss": 1}
        (histogram,) = snapshot["histograms"]["repro_unit_seconds"]
        assert histogram["labels"] == {"scenario": "a"}
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(9000.003)
        assert histogram["buckets"] == list(LATENCY_BUCKETS)
        # 0.003 lands in the 0.005 bucket; 9000 s in the +Inf overflow.
        assert histogram["counts"][1] == 1
        assert histogram["counts"][-1] == 1

    def test_label_order_does_not_split_a_series(self):
        registry = MetricsRegistry()
        registry.count("repro_rows_total", scenario="a", model="SPP3")
        registry.count("repro_rows_total", 4, model="SPP3", scenario="a")
        (series,) = registry.snapshot()["counters"]["repro_rows_total"]
        assert series == {"labels": {"model": "SPP3", "scenario": "a"},
                          "value": 5}

    @pytest.mark.parametrize("value, index", [
        (0.0, 0),
        (LATENCY_BUCKETS[0], 0),
        (LATENCY_BUCKETS[5], 5),
        (LATENCY_BUCKETS[-1], len(LATENCY_BUCKETS) - 1),
        (LATENCY_BUCKETS[-1] * 1.001, len(LATENCY_BUCKETS)),
    ], ids=["zero", "first-edge", "middle-edge", "last-edge", "overflow"])
    def test_observation_lands_in_its_bucket(self, value, index):
        """Bucket edges are inclusive upper bounds; past the last edge
        is the +Inf overflow slot."""
        registry = MetricsRegistry()
        registry.observe("repro_unit_seconds", value)
        (histogram,) = registry.snapshot()["histograms"][
            "repro_unit_seconds"]
        expected = [0] * (len(LATENCY_BUCKETS) + 1)
        expected[index] = 1
        assert histogram["counts"] == expected

    def test_snapshot_is_detached_and_json_safe(self):
        registry = MetricsRegistry()
        registry.count("repro_requeues_total", reason="timeout")
        registry.observe("repro_unit_seconds", 0.2, scenario="a")
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        snapshot["counters"]["repro_requeues_total"][0]["value"] = 99
        snapshot["histograms"]["repro_unit_seconds"][0]["counts"][0] = 99
        registry.count("repro_requeues_total", reason="timeout")
        fresh = registry.snapshot()
        assert fresh["counters"]["repro_requeues_total"][0]["value"] == 2
        assert fresh["histograms"]["repro_unit_seconds"][0]["counts"][0] \
            == 0

    def test_concurrent_counts_are_not_lost(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(500):
                registry.count("repro_heartbeats_total", worker="w")
                registry.observe("repro_unit_seconds", 0.01)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        (counter,) = snapshot["counters"]["repro_heartbeats_total"]
        (histogram,) = snapshot["histograms"]["repro_unit_seconds"]
        assert counter["value"] == 2000
        assert histogram["count"] == 2000

    def test_reset_drops_every_series(self):
        registry = MetricsRegistry()
        registry.count("repro_rows_total")
        registry.observe("repro_unit_seconds", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}


class TestLogLine:
    def test_whole_line_to_stderr(self, capsys):
        telemetry.log_line("[repro] one whole line")
        captured = capsys.readouterr()
        assert captured.err == "[repro] one whole line\n"
        assert captured.out == ""


class TestTelemetrySettings:
    def test_defaults(self):
        settings = TelemetrySettings.resolve()
        assert settings == TelemetrySettings(
            enabled=False, trace_out=None,
        )

    def test_env_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY_TRACE_OUT",
                           "fleet.trace.json")
        settings = TelemetrySettings.resolve()
        assert settings == TelemetrySettings(
            enabled=True, trace_out="fleet.trace.json",
        )

    def test_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY_TRACE_OUT",
                           "env.trace.json")
        settings = TelemetrySettings.resolve(enabled=True,
                                             trace_out="arg.trace.json")
        assert settings.enabled is True
        assert settings.trace_out == "arg.trace.json"

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
    from repro.engine import DistBackend

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
        assert "metrics" in loaded.telemetry


class TestTraceOutCli:
    def test_run_trace_out_writes_perfetto_file(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-trace",
            "simulators": ["spade-he"],
            "models": ["SPP2"],
            "scenarios": [{"name": "a", "seed": 0}],
        }))
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

    def test_untraced_cli_run_has_no_telemetry_key(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-plain",
            "simulators": ["spade-he"],
            "models": ["SPP2"],
            "scenarios": [{"name": "a", "seed": 0}],
        }))
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
