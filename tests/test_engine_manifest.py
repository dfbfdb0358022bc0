"""Run manifests: the RunObserver streaming collector, RunManifest
assembly/serialization, and per-unit timing coverage across the
serial and process backends."""

import json
import subprocess
import threading

import pytest

from repro.analysis.sparsity import SparsityAnalyzer
from repro.engine import (
    ExperimentSpec,
    RunManifest,
    RunObserver,
    git_revision,
    manifest_path_for,
    spec_hash,
)
from repro.engine.manifest import MANIFEST_SCHEMA, MANIFEST_VERSION


def small_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="manifest-test",
        simulators=["spade-he", "dense-he"],
        models=["SPP3"],
        scenarios=[{"name": "m", "seed": 0}],
        backend="serial",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def observed_run(spec=None, backend=None):
    """One spec run with an observer attached; (runner, table, observer)."""
    spec = spec or small_spec()
    runner = spec.build_runner()
    observer = RunObserver()
    table = runner.run(backend=backend, observer=observer)
    return runner, table, observer


class TestSpecHash:
    def test_key_order_does_not_matter(self):
        assert spec_hash({"a": 1, "b": [2, 3]}) \
            == spec_hash({"b": [2, 3], "a": 1})

    def test_content_does(self):
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})

    def test_matches_the_spec_dict(self):
        spec = small_spec()
        runner, table, observer = observed_run(spec)
        manifest = RunManifest.collect(runner, table, observer=observer)
        assert manifest.spec == spec.to_dict()
        assert manifest.spec_hash == spec_hash(spec.to_dict())


class TestGitRevision:
    def test_resolves_in_this_repository(self):
        rev = git_revision()
        assert rev is not None and len(rev) == 40
        assert all(ch in "0123456789abcdef" for ch in rev)

    def test_none_outside_a_repository(self, tmp_path):
        assert git_revision(tmp_path) is None

    def test_spawns_git_once_per_directory(self, tmp_path, monkeypatch):
        calls = []
        run = subprocess.run

        def counted(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        # A failed lookup is cached too.
        assert git_revision(tmp_path) is None
        assert git_revision(tmp_path / ".." / tmp_path.name) is None
        assert calls == [str(tmp_path.resolve())]


class TestManifestPath:
    @pytest.mark.parametrize("sink, expected", [
        ("results.json", "results.manifest.json"),
        ("results.csv", "results.manifest.json"),
        ("out/table.json", "table.manifest.json"),
    ])
    def test_lands_next_to_the_sink(self, sink, expected):
        assert manifest_path_for(sink).name == expected


class TestRunObserver:
    def test_records_units_phases_and_rows(self):
        runner, table, observer = observed_run()
        # One (scenario, model) group; its unit carries every row.
        assert len(observer.units) == 1
        unit = observer.units[0]
        assert unit["scenario"] == "m" and unit["model"] == "SPP3"
        assert unit["rows"] == len(table) == 2
        assert unit["seconds"] > 0
        assert unit["worker"] is None
        names = [phase["name"] for phase in observer.phases]
        assert "run" in names
        assert observer.unit_seconds() > 0

    def test_run_is_the_only_phase(self):
        """``finish()`` records one ``"run"`` phase per run, and the
        manifest carries it as is; there is no other phase API."""
        runner, table, observer = observed_run()
        (phase,) = observer.phases
        assert set(phase) == {"name", "seconds"}
        assert phase["name"] == "run"
        assert phase["seconds"] > 0
        manifest = RunManifest.collect(runner, table, observer=observer)
        assert manifest.to_dict()["phases"] == observer.phases
        assert not hasattr(observer, "record_phase")
        assert not hasattr(observer, "phase")

    def test_cache_delta_is_a_delta(self):
        # Two identical runs against the same runner cache: the second
        # observer must see a pure-hit delta, not cumulative counters.
        # The scenario seed is unique so the shared in-process trace
        # cache (warmed by other tests) is cold for the first run.
        spec = small_spec(scenarios=[{"name": "delta-probe",
                                      "seed": 987123}])
        runner = spec.build_runner()
        first = RunObserver()
        runner.run(observer=first)
        second = RunObserver()
        runner.run(observer=second)
        assert first.cache_stats["misses"] == 1
        assert second.cache_stats["misses"] == 0
        assert second.cache_stats["hits"] >= 1

    def test_streaming_analytics_aggregate_per_layer(self):
        runner, table, observer = observed_run()
        summary = observer.analyzer.summary()
        assert summary["rows_ingested"] == len(table)
        assert summary["layers"] > 0
        fields = summary["per_layer"][0]["fields"]
        assert "overhead_fraction" in fields or "macs" in fields

    def test_thread_safe_unit_recording(self):
        observer = RunObserver()
        threads = [
            threading.Thread(
                target=lambda: [
                    observer.record_unit("s", "m", 0.001)
                    for _ in range(50)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(observer.units) == 400

    def test_as_dict_is_json_safe(self):
        runner, table, observer = observed_run()
        snapshot = observer.as_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert "dist" not in snapshot


class TestRunManifest:
    def test_collect_records_settings_and_table_shape(self):
        runner, table, observer = observed_run()
        manifest = RunManifest.collect(runner, table, observer=observer)
        assert manifest.name == "manifest-test"
        assert manifest.backend == "serial"
        assert manifest.settings["workers"] == runner.settings.workers
        assert manifest.settings["delta_trace"] is False
        assert "trace_workers" not in manifest.settings
        assert manifest.table["rows"] == 2
        assert manifest.table["simulators"] == ["SPADE.HE",
                                                "DenseAcc.HE"]
        assert manifest.units == observer.units
        assert manifest.analysis["rows_ingested"] == 2

    def test_json_round_trip(self, tmp_path):
        runner, table, observer = observed_run()
        manifest = RunManifest.collect(runner, table, observer=observer)
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        document = json.loads(path.read_text())
        assert document["schema"] == MANIFEST_SCHEMA
        assert document["version"] == MANIFEST_VERSION

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a"):
            RunManifest.from_dict({"schema": "something.else"})
        with pytest.raises(ValueError, match="version"):
            RunManifest.from_dict({"schema": MANIFEST_SCHEMA,
                                   "version": 99})

    def test_collect_without_observer_still_works(self):
        spec = small_spec()
        runner = spec.build_runner()
        table = runner.run()
        manifest = RunManifest.collect(runner, table)
        assert manifest.units == [] and manifest.phases == []
        assert manifest.table["rows"] == len(table)


class TestLegacyManifests:
    """Manifests written while the dist backend and the degrade knob
    existed still load; what they recorded of that run is kept."""

    @staticmethod
    def _legacy(kind: str) -> dict:
        runner, table, observer = observed_run()
        data = RunManifest.collect(runner, table,
                                   observer=observer).to_dict()
        if kind == "dist-block":
            data["dist"] = {"stats": {"units": 1, "requeues": 0},
                            "workers": [{"worker": "w0", "units": 1}],
                            "settings": {"port": 7463, "token": False}}
        elif kind == "degrade-setting":
            data["settings"] = dict(data["settings"], degrade=False)
        else:
            data["backend"] = "dist"
            for unit in data["units"]:
                unit["worker"] = "w0"
        return data

    @pytest.mark.parametrize("kind", [
        "dist-block", "degrade-setting", "dist-run",
    ])
    def test_loads_and_round_trips(self, kind):
        data = self._legacy(kind)
        manifest = RunManifest.from_dict(data)
        again = manifest.to_dict()
        assert "dist" not in again
        for key in again:
            assert again[key] == data[key], key
        assert RunManifest.from_json(manifest.to_json()).to_dict() == again


class TestBackendCoverage:
    """Every local backend produces complete unit records."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_units_cover_the_table(self, backend):
        spec = small_spec(
            models=["SPP2", "SPP3"],
            scenarios=[{"name": "a", "seed": 0},
                       {"name": "b", "seed": 1}],
            backend=backend,
            workers=2,
        )
        runner, table, observer = observed_run(spec)
        # One unit per (scenario, model) group, each timed and with
        # its streamed rows counted.
        assert len(observer.units) == 4
        assert sorted((unit["scenario"], unit["model"])
                      for unit in observer.units) == [
            ("a", "SPP2"), ("a", "SPP3"),
            ("b", "SPP2"), ("b", "SPP3"),
        ]
        assert all(unit["seconds"] > 0 for unit in observer.units)
        assert sum(unit["rows"] for unit in observer.units) \
            == len(table) == 8

    def test_process_units_name_their_pool_worker(self):
        """Each scenario's groups run in one chunk, so all its units
        carry the one ``process-<pid>`` label of the worker that ran
        them."""
        spec = small_spec(
            models=["SPP2", "SPP3"],
            scenarios=[{"name": "a", "seed": 0},
                       {"name": "b", "seed": 1}],
            backend="process",
            workers=2,
        )
        observer = observed_run(spec)[2]
        labels = {}
        for unit in observer.units:
            labels.setdefault(unit["scenario"], set()).add(unit["worker"])
        assert sorted(labels) == ["a", "b"]
        for workers in labels.values():
            assert len(workers) == 1
            assert next(iter(workers)).startswith("process-")

    def test_process_backend_matches_serial_analytics(self):
        serial = observed_run(small_spec())[2]
        pooled = observed_run(
            small_spec(backend="process", workers=2))[2]
        assert serial.analyzer.layer_stats() \
            == pooled.analyzer.layer_stats()


class TestSparsityAnalyzerUnit:
    def test_counts_every_row_from_the_start(self):
        # No gate: a fresh analyzer ingests at once, and rows without
        # per-layer detail count but add no layers.
        analyzer = SparsityAnalyzer()
        analyzer.ingest_result({"model": "M",
                                "per_layer": [{"name": "L", "x": 1}]})
        analyzer.ingest_result({"model": "M", "per_layer": None})
        assert analyzer.summary()["rows_ingested"] == 2
        assert analyzer.summary()["layers"] == 1
        assert set(analyzer.summary()) == {"rows_ingested", "layers",
                                           "per_layer"}

    def test_aggregates_count_mean_min_max(self):
        analyzer = SparsityAnalyzer()
        for value in (1.0, 3.0):
            analyzer.ingest_result({
                "model": "M",
                "per_layer": [{"name": "L", "metric": value,
                               "skipme": "text"}],
            })
        entry = analyzer.layer_stats()[0]
        assert entry["model"] == "M" and entry["layer"] == "L"
        stats = entry["fields"]["metric"]
        assert stats == {"count": 2, "mean": 2.0, "min": 1.0,
                         "max": 3.0}
        assert "skipme" not in entry["fields"]
