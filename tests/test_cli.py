"""The `repro` CLI front-end: run/list/describe over the engine."""

import csv
import importlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import (
    BACKENDS,
    FRAME_PROVIDERS,
    SIMULATORS,
    ExperimentRunner,
    ExperimentTable,
    RunManifest,
    Scenario,
    manifest_path_for,
    shared_trace_cache,
    spec_hash,
)

SPEC = {
    "version": 1,
    "name": "cli-test",
    "simulators": ["spade-he", "dense-he"],
    "models": ["SPP3"],
    "scenarios": [{"name": "cli", "seed": 0}],
    "backend": "serial",
}


#: The spec files shipped for users to run (`repro run`/`describe`).
SHIPPED_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs")
    .glob("*.json")
)


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


class TestList:
    def test_simulators_non_empty(self, capsys):
        assert main(["list", "simulators"]) == 0
        out = capsys.readouterr().out.strip()
        assert out, "repro list simulators must be non-empty"
        assert "spade" in out
        assert "platform" in out

    def test_models_backends_providers(self, capsys):
        assert main(["list", "models"]) == 0
        assert "SPP2" in capsys.readouterr().out
        assert main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "process" in out
        assert main(["list", "frame-providers"]) == 0
        assert "synthetic" in capsys.readouterr().out

    def test_scenarios_need_a_spec(self, capsys, spec_path):
        assert main(["list", "scenarios"]) == 2
        assert "spec" in capsys.readouterr().err
        assert main(["list", "scenarios", spec_path]) == 0
        assert "cli" in capsys.readouterr().out


class TestDescribe:
    @pytest.mark.parametrize("name, expect", [
        ("spade-he", "SpadeSimulator"),
        ("SPP2", "Table I"),
        ("serial", "backend"),
        ("synthetic", "frame provider"),
    ])
    def test_describe_kinds(self, capsys, name, expect):
        assert main(["describe", name]) == 0
        assert expect in capsys.readouterr().out

    def test_describe_spec_file(self, capsys, spec_path):
        assert main(["describe", spec_path]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out and "backend=serial" in out

    def test_describe_unknown_exits_2(self, capsys):
        assert main(["describe", "gibberish"]) == 2
        assert "nothing named" in capsys.readouterr().err

    @pytest.mark.parametrize("path", SHIPPED_SPECS,
                             ids=lambda path: path.name)
    def test_describe_shipped_spec(self, capsys, path):
        """Every shipped spec goes through the CLI path users run, and
        names a backend that is still registered."""
        assert main(["describe", str(path)]) == 0
        out = capsys.readouterr().out
        backend = json.loads(path.read_text()).get("backend", "serial")
        assert f"backend={backend}" in out
        assert backend in BACKENDS


class TestRun:
    def test_run_parity_with_hand_built_runner(self, capsys, spec_path,
                                               tmp_path):
        """Acceptance: `repro run spec.json` produces a table identical
        row-for-row to the equivalent hand-built ExperimentRunner."""
        out_path = tmp_path / "results.json"
        assert main(["run", spec_path, "--out", str(out_path)]) == 0
        cli_table = ExperimentTable.from_json(out_path)

        hand_built = ExperimentRunner(
            simulators=["spade-he", "dense-he"],
            models=["SPP3"],
            scenarios=[Scenario("cli", seed=0)],
            backend="serial",
            cache=shared_trace_cache(),
        ).run()
        assert len(cli_table) == len(hand_built) == 2
        for cli_row, hand_row in zip(cli_table, hand_built):
            assert cli_row.as_dict() == hand_row.as_dict()

    def test_run_stdout_csv(self, capsys, spec_path):
        assert main(["run", spec_path, "--out", "-"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0][0] == "scenario"
        assert len(rows) == 3
        # Status chatter goes to stderr, keeping stdout machine-clean.
        assert "cli-test" in captured.err

    def test_run_stdout_json(self, capsys, spec_path):
        assert main(["run", spec_path, "--out", "-",
                     "--format", "json"]) == 0
        table = ExperimentTable.from_json(capsys.readouterr().out)
        assert table.simulators == ["SPADE.HE", "DenseAcc.HE"]

    def test_run_csv_file_format_inferred(self, capsys, tmp_path,
                                          spec_path):
        out_path = tmp_path / "results.csv"
        assert main(["run", spec_path, "--out", str(out_path)]) == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0][0] == "scenario" and len(rows) == 3

    def test_run_default_prints_table(self, capsys, spec_path):
        assert main(["run", spec_path]) == 0
        out = capsys.readouterr().out
        assert "SPADE.HE" in out and "DenseAcc.HE" in out

    def test_run_backend_override_validated(self, capsys, spec_path):
        assert main(["run", spec_path, "--backend", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "quantum" in err and "serial" in err

    def test_run_thread_backend_is_gone(self, capsys, spec_path):
        assert main(["run", spec_path, "--backend", "thread"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'thread'" in err
        assert "serial" in err and "process" in err

    def test_run_has_no_trace_workers_flag(self, capsys, spec_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", spec_path, "--trace-workers", "2"])
        assert exit_info.value.code == 2
        assert "--trace-workers" in capsys.readouterr().err

    def test_run_bad_workers_names_knob(self, capsys, spec_path):
        assert main(["run", spec_path, "--workers", "lots"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_run_missing_spec_file(self, capsys):
        assert main(["run", "no/such/spec.json"]) == 2
        assert "spec" in capsys.readouterr().err

    def test_run_invalid_spec_names_problem(self, capsys, tmp_path):
        bad = dict(SPEC, simulators=["warp-he"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown simulator" in err

    def test_unknown_format_target_rejected(self, capsys, tmp_path,
                                            spec_path):
        out_path = tmp_path / "results.xlsx"
        assert main(["run", spec_path, "--out", str(out_path)]) == 2
        assert "format" in capsys.readouterr().err

    def test_run_progress_reports_groups(self, capsys, spec_path):
        assert main(["run", spec_path, "--progress", "--out", "-"]) == 0
        captured = capsys.readouterr()
        # One (scenario, model) group in the test spec; stdout stays
        # machine-clean, the ticker goes to stderr.
        assert "groups 1/1" in captured.err
        assert "groups" not in captured.out


class TestCache:
    def _run_with_cache(self, spec_path, cache_dir):
        assert main(["run", spec_path, "--cache-dir", str(cache_dir),
                     "--out", "-"]) == 0

    def test_stats_without_dir_says_disabled(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "disabled" in out
        assert "memory tier" in out

    def test_stats_counts_artifacts(self, capsys, tmp_path, spec_path):
        self._run_with_cache(spec_path, tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifacts   : 1" in out
        assert str(tmp_path) in out

    def test_stats_reads_env_dir(self, capsys, tmp_path, spec_path,
                                 monkeypatch):
        self._run_with_cache(spec_path, tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "artifacts   : 1" in capsys.readouterr().out

    def test_clear_removes_artifacts(self, capsys, tmp_path, spec_path):
        self._run_with_cache(spec_path, tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "removed 1 trace artifact" in capsys.readouterr().err
        assert list(tmp_path.glob("*.trace.pkl")) == []
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "artifacts   : 0" in capsys.readouterr().out

    def test_clear_without_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        assert main(["cache", "clear"]) == 2
        assert "REPRO_TRACE_CACHE_DIR" in capsys.readouterr().err


class TestRetiredDistBackend:
    """The dist backend is gone: its worker verb, the degrade flag that
    fell back from it, its package and its public names."""

    def test_worker_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", "--connect", "127.0.0.1:7463"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_degrade_flag_is_rejected(self, capsys, spec_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", spec_path, "--degrade", "1"])
        assert exit_info.value.code == 2
        assert "--degrade" in capsys.readouterr().err

    def test_dist_backend_flag_is_unknown(self, capsys, spec_path):
        assert main(["run", spec_path, "--backend", "dist"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'dist'" in err
        assert "serial" in err and "process" in err

    def test_only_local_backends_are_listed(self, capsys):
        assert main(["list", "backends"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["process", "serial"]

    def test_dist_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.dist")

    @pytest.mark.parametrize("name", [
        "Coordinator", "Worker", "DistRunError", "DistStartTimeout",
        "BackendUnavailable",
    ])
    def test_dist_name_is_not_exported(self, name):
        import repro.engine

        assert not hasattr(repro.engine, name)
        assert name not in repro.engine.__all__


class TestRetiredExperimentService:
    """The persistent run service is gone: its verbs, its metrics
    endpoint flag, its package and its public names."""

    @pytest.mark.parametrize("verb", [
        "serve", "submit", "status", "results", "cancel", "queue", "top",
    ])
    def test_verb_is_not_a_subcommand(self, capsys, verb):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_metrics_port_flag_is_rejected(self, capsys, spec_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", spec_path, "--metrics-port", "9100"])
        assert exit_info.value.code == 2
        assert "--metrics-port" in capsys.readouterr().err

    def test_service_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.service")

    @pytest.mark.parametrize("name", [
        "ExperimentService", "RunScheduler", "RunStore", "ServiceClient",
        "ServiceError",
    ])
    def test_service_name_is_not_exported(self, name):
        import repro.engine

        assert not hasattr(repro.engine, name)
        assert name not in repro.engine.__all__


class TestDescribeEveryRegistrant:
    """`repro describe` renders every registered name, not just the
    ones the docs happen to mention."""

    # Families whose bare name needs arguments to build; describe them
    # through a concrete spec string instead.
    SPEC_FOR_FAMILY = {
        "dense": "dense-he",
        "platform": "platform:A6000",
        "pointacc": "pointacc-he",
        "spade": "spade-he",
    }

    def test_every_simulator_family(self, capsys):
        for family in SIMULATORS.names():
            name = self.SPEC_FOR_FAMILY.get(family, family)
            assert main(["describe", name]) == 0, name
            out = capsys.readouterr().out
            assert name in out and out.strip(), name

    def test_every_backend(self, capsys):
        for name in BACKENDS.names():
            assert main(["describe", name]) == 0, name
            out = capsys.readouterr().out
            assert "backend" in out and name in out, name

    def test_every_frame_provider(self, capsys):
        for name in FRAME_PROVIDERS.names():
            assert main(["describe", name]) == 0, name
            out = capsys.readouterr().out
            assert "frame provider" in out and name in out, name


class TestRunManifestSink:
    def test_out_writes_a_manifest_next_to_the_sink(self, capsys,
                                                    tmp_path,
                                                    spec_path):
        out = tmp_path / "r.json"
        assert main(["run", spec_path, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "wrote run manifest" in err
        manifest = RunManifest.load(manifest_path_for(out))
        assert manifest.name == "cli-test"
        assert manifest.spec_hash == spec_hash(manifest.spec)
        assert manifest.backend == "serial"
        assert sum(unit["rows"] for unit in manifest.units) \
            == manifest.table["rows"] \
            == len(ExperimentTable.from_json(str(out)))

    def test_csv_sink_gets_a_json_manifest(self, capsys, tmp_path,
                                           spec_path):
        out = tmp_path / "r.csv"
        assert main(["run", spec_path, "--out", str(out)]) == 0
        path = manifest_path_for(out)
        assert path.name == "r.manifest.json" and path.exists()

    def test_stdout_sink_skips_the_manifest(self, capsys, spec_path):
        assert main(["run", spec_path, "--out", "-"]) == 0
        assert "wrote run manifest" not in capsys.readouterr().err

    def test_unwritable_out_dir_is_actionable(self, capsys,
                                              spec_path):
        assert main(["run", spec_path, "--out",
                     "/nonexistent/r.json"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and "--out" in err
