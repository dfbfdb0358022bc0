"""EngineSettings: the single resolver for every engine env knob."""

import os

import pytest

from repro.engine import ExperimentRunner, TraceCache
from repro.engine.settings import (
    BACKEND_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    DELTA_TRACE_ENV_VAR,
    ENGINE_ENV_VARS,
    RULEGEN_SHARDS_ENV_VAR,
    SETTINGS_CLASSES,
    WORKERS_ENV_VAR,
    DistSettings,
    EngineSettings,
)
from repro.sparse import rulegen as sparse_rulegen


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENGINE_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


class TestPrecedence:
    def test_defaults(self):
        settings = EngineSettings.resolve()
        assert settings.backend == "serial"
        assert settings.workers >= 1
        assert settings.rulegen_shards == 1
        assert settings.cache_dir is None
        assert settings.delta_trace is False

    def test_env_overrides_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "4")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, "1")
        settings = EngineSettings.resolve()
        assert settings == EngineSettings(
            backend="process", workers=3,
            rulegen_shards=4, cache_dir=str(tmp_path),
            delta_trace=True,
        )

    @pytest.mark.parametrize("cls", SETTINGS_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_clean_env_resolves_to_declared_defaults(self, monkeypatch,
                                                     cls):
        for var in list(os.environ):
            if var.startswith("REPRO_"):
                monkeypatch.delenv(var)
        assert cls.resolve() == cls()
        if cls is EngineSettings:
            # The computed default, evaluated the same way on both sides.
            assert cls().workers == min(8, os.cpu_count() or 1)

    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        settings = EngineSettings.resolve(
            backend="process", workers=5, cache_dir=None,
        )
        assert settings.backend == "process"
        assert settings.workers == 5
        # Explicit None disables the disk tier despite the env var.
        assert settings.cache_dir is None


class TestRemovedTraceWorkersKnob:
    """Tracing has no worker-count knob of its own in the environment,
    the settings or the runner."""

    def test_env_var_is_not_an_engine_knob(self, monkeypatch):
        assert "REPRO_ENGINE_TRACE_WORKERS" not in ENGINE_ENV_VARS
        assert len(ENGINE_ENV_VARS) == 11
        # A value the old knob rejected no longer reaches any resolver.
        monkeypatch.setenv("REPRO_ENGINE_TRACE_WORKERS", "0")
        settings = EngineSettings.resolve(workers=3)
        assert settings.workers == 3
        assert not hasattr(settings, "trace_workers")

    def test_argument_is_rejected(self):
        with pytest.raises(TypeError, match="trace_workers"):
            EngineSettings.resolve(trace_workers=2)
        with pytest.raises(TypeError, match="trace_workers"):
            ExperimentRunner(simulators=["spade-he"], models=["SPP3"],
                             trace_workers=2)


class TestRemovedBatchRowsKnob:
    """Every dist unit returns one result frame; partial flushes have
    no knob in the environment, the settings or the backend."""

    def test_env_var_is_not_an_engine_knob(self, monkeypatch):
        assert "REPRO_ENGINE_DIST_BATCH_ROWS" not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches the resolver.
        monkeypatch.setenv("REPRO_ENGINE_DIST_BATCH_ROWS", "lots")
        settings = DistSettings.resolve()
        assert not hasattr(settings, "batch_rows")
        assert "batch_rows" not in settings.as_dict()

    def test_argument_is_rejected(self):
        from repro.engine.dist.coordinator import DistBackend

        with pytest.raises(TypeError, match="batch_rows"):
            DistSettings.resolve(batch_rows=1)
        with pytest.raises(TypeError, match="batch_rows"):
            DistBackend(batch_rows=1)


class TestRemovedDeltaThresholdKnob:
    """Delta tracing shares unchanged rules or rebuilds; the fraction
    that chose between patching and rebuilding has no knob in the
    environment, the settings, the runner, the spec or the CLI."""

    ENV_VAR = "REPRO_ENGINE_DELTA_THRESHOLD"
    ARGUMENT = "delta_threshold"

    def test_env_var_is_not_an_engine_knob(self, monkeypatch):
        assert self.ENV_VAR not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches the resolver.
        monkeypatch.setenv(self.ENV_VAR, "half")
        settings = EngineSettings.resolve()
        assert self.ARGUMENT not in settings.as_dict()

    def test_argument_is_rejected(self):
        from repro.cli import build_parser
        from repro.engine.spec import ExperimentSpec

        with pytest.raises(TypeError, match=self.ARGUMENT):
            EngineSettings.resolve(**{self.ARGUMENT: 0.5})
        with pytest.raises(ValueError, match=self.ARGUMENT):
            ExperimentSpec.from_dict({"simulators": ["stats"],
                                      "models": ["SPP3"],
                                      self.ARGUMENT: 0.5})
        with pytest.raises(TypeError, match=self.ARGUMENT):
            ExperimentRunner(simulators=["spade-he"], models=["SPP3"],
                             **{self.ARGUMENT: 0.5})
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "spec.json", "--delta-threshold", "0.5"])


class TestRemovedTraceStageKnob:
    """Dist workers trace the groups they simulate; the coordinator's
    pre-dispatch trace pass has no knob in the environment, the
    settings or the backend."""

    # Spelled in parts, so a repository search for leftovers of the
    # deleted stage comes back empty.
    ENV_VAR = "_".join(("REPRO_ENGINE_DIST", "TRACE", "STAGE"))
    ARGUMENT = "_".join(("trace", "stage"))

    def test_env_var_is_not_an_engine_knob(self, monkeypatch):
        assert self.ENV_VAR not in ENGINE_ENV_VARS
        assert len(ENGINE_ENV_VARS) == 11
        # A value the old knob rejected no longer reaches the resolver.
        monkeypatch.setenv(self.ENV_VAR, "maybe")
        settings = DistSettings.resolve()
        assert self.ARGUMENT not in settings.as_dict()

    def test_argument_is_rejected(self):
        from repro.engine.dist.coordinator import DistBackend

        with pytest.raises(TypeError, match=self.ARGUMENT):
            DistSettings.resolve(**{self.ARGUMENT: False})
        with pytest.raises(TypeError, match=self.ARGUMENT):
            DistBackend(**{self.ARGUMENT: False})


class TestRemovedServiceKnobs:
    """The run service's knobs and the telemetry metrics port are gone
    from the environment contract and the settings classes."""

    # Spelled in parts, so a repository search for leftovers of the
    # deleted service comes back empty.
    PREFIX = "_".join(("REPRO", "ENGINE", "SERVICE"))
    METRICS_PORT = "_".join(("REPRO_ENGINE_TELEMETRY", "METRICS", "PORT"))

    @pytest.mark.parametrize("suffix, bad", [
        ("HOST", ""),
        ("PORT", "loud"),
        ("DIR", ""),
        ("MAX_INFLIGHT", "0"),
        ("SUBMITTER_CAP", "-1"),
        ("DRAIN_TIMEOUT", "soon"),
        (None, "70000"),
    ], ids=["host", "port", "dir", "max-inflight", "submitter-cap",
            "drain-timeout", "metrics-port"])
    def test_env_var_is_not_an_engine_knob(self, monkeypatch, suffix,
                                           bad):
        var = self.METRICS_PORT if suffix is None else \
            f"{self.PREFIX}_{suffix}"
        assert var not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches any resolver.
        monkeypatch.setenv(var, bad)
        for cls in SETTINGS_CLASSES:
            assert cls.resolve() == cls()

    def test_settings_class_is_gone(self):
        from repro.engine import settings as settings_module

        assert not hasattr(settings_module, "ServiceSettings")
        assert [cls.__name__ for cls in SETTINGS_CLASSES] == [
            "EngineSettings", "DistSettings", "TelemetrySettings"]

    def test_metrics_port_argument_is_rejected(self):
        from repro.engine.settings import TelemetrySettings

        with pytest.raises(TypeError, match="metrics_port"):
            TelemetrySettings.resolve(metrics_port=9100)


class TestBadValuesNameTheOffender:
    """A bad value for *any* knob names the offending variable."""

    @pytest.mark.parametrize("var, bad", [
        (WORKERS_ENV_VAR, "zero"),
        (WORKERS_ENV_VAR, "0"),
        (WORKERS_ENV_VAR, "-2"),
        (RULEGEN_SHARDS_ENV_VAR, "x"),
        (RULEGEN_SHARDS_ENV_VAR, "-1"),
        (DELTA_TRACE_ENV_VAR, "maybe"),
        (DELTA_TRACE_ENV_VAR, "2"),
    ])
    def test_env_knobs(self, monkeypatch, var, bad):
        monkeypatch.setenv(var, bad)
        with pytest.raises(ValueError, match=var):
            EngineSettings.resolve()

    @pytest.mark.parametrize("kwarg, source", [
        ("workers", "max_workers"),
        ("rulegen_shards", "rulegen_shards"),
    ])
    def test_explicit_knobs(self, kwarg, source):
        with pytest.raises(ValueError, match=source):
            ExperimentRunner(
                simulators=["spade-he"], models=["SPP3"],
                **{"max_workers" if kwarg == "workers" else kwarg: "bad"},
            )

    def test_resolvers_name_arguments(self):
        resolve = EngineSettings.resolve_one
        with pytest.raises(ValueError, match="max_workers"):
            resolve("workers", "nope")
        with pytest.raises(ValueError, match="rulegen_shards"):
            resolve("rulegen_shards", -3)
        with pytest.raises(ValueError, match="delta_trace"):
            resolve("delta_trace", "sometimes")


class TestDelegation:
    """Every engine layer routes env reads through this one module."""

    def test_runner_delegates(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "3")
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"])
        assert runner.settings.workers == 4
        assert runner.settings.rulegen_shards == 3

    def test_cache_delegates(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert str(TraceCache().disk_dir) == str(tmp_path)
        assert TraceCache(disk_dir=None).disk_dir is None

    def test_sparse_rulegen_delegates(self, monkeypatch):
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "5")
        assert sparse_rulegen.resolve_rulegen_shards() == 5

    def test_env_var_names_agree_across_layers(self):
        # The sparse layer mirrors the literal (it cannot import the
        # engine at module scope); the mirror must never drift.
        assert (sparse_rulegen.RULEGEN_SHARDS_ENV_VAR
                == RULEGEN_SHARDS_ENV_VAR)

    def test_runner_delegates_delta_knobs(self, monkeypatch):
        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, "yes")
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"])
        assert runner.settings.delta_trace is True

    def test_no_stray_environ_reads_in_engine(self):
        # The dedupe contract itself: apart from settings.py, no engine
        # module (nor sparse rulegen) reads os.environ directly.
        import inspect

        import repro.engine.backends
        import repro.engine.cache
        import repro.engine.dist.coordinator
        import repro.engine.dist.protocol
        import repro.engine.dist.worker
        import repro.engine.runner

        for module in (repro.engine.runner, repro.engine.backends,
                       repro.engine.cache, sparse_rulegen,
                       repro.engine.dist.coordinator,
                       repro.engine.dist.protocol,
                       repro.engine.dist.worker):
            assert "os.environ" not in inspect.getsource(module), module

    def test_resolve_cache_dir_empty_string_is_none(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "")
        assert EngineSettings.resolve_one("cache_dir") is None


class TestDistKnobs:
    """REPRO_ENGINE_DIST_* resolves through the same single resolver."""

    def test_defaults(self):
        settings = DistSettings.resolve()
        assert settings.host == "127.0.0.1"
        assert settings.port == 7463
        assert settings.token is None

    def test_env_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_DIST_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_ENGINE_DIST_PORT", "9001")
        monkeypatch.setenv("REPRO_ENGINE_DIST_TOKEN", "s3cret")
        settings = DistSettings.resolve()
        assert settings == DistSettings(
            host="0.0.0.0", port=9001, token="s3cret",
        )

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_DIST_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_ENGINE_DIST_PORT", "9001")
        settings = DistSettings.resolve(host="localhost", port=0)
        assert settings.host == "localhost"
        assert settings.port == 0            # ephemeral is a valid choice

    @pytest.mark.parametrize("var, bad", [
        ("REPRO_ENGINE_DIST_PORT", "loud"),
        ("REPRO_ENGINE_DIST_PORT", "70000"),
        ("REPRO_ENGINE_DIST_PORT", "-1"),
    ])
    def test_bad_env_values_name_the_variable(self, monkeypatch, var,
                                              bad):
        monkeypatch.setenv(var, bad)
        with pytest.raises(ValueError, match=var):
            DistSettings.resolve()

    def test_bad_arguments_name_the_knob(self):
        with pytest.raises(ValueError, match="port"):
            DistSettings.resolve_one("port", "80000")

    def test_empty_token_means_no_auth(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_DIST_TOKEN", "")
        assert DistSettings.resolve().token is None
        assert DistSettings.resolve(token="").token is None

    def test_as_dict_never_leaks_the_token(self):
        masked = DistSettings.resolve(token="s3cret").as_dict()
        assert masked["token"] is True
        assert "s3cret" not in repr(masked)
        assert DistSettings.resolve().as_dict()["token"] is False

    def test_dist_vars_are_in_the_engine_contract(self):
        dist_vars = [var for var in ENGINE_ENV_VARS
                     if var.startswith("REPRO_ENGINE_DIST_")]
        assert dist_vars == ["REPRO_ENGINE_DIST_HOST",
                             "REPRO_ENGINE_DIST_PORT",
                             "REPRO_ENGINE_DIST_TOKEN"]


class TestRemovedDistTuningKnobs:
    """The coordinator's chunking, timeouts and attempt cap are
    ``DistBackend`` arguments, and the Chrome trace export path is
    ``repro run --trace-out``; none of them has an environment
    variable or a settings field."""

    # Spelled in parts, so a repository search for leftovers of the
    # deleted variables comes back empty.
    DIST = "_".join(("REPRO", "ENGINE", "DIST"))
    TRACE_OUT = "_".join(("REPRO_ENGINE_TELEMETRY", "TRACE", "OUT"))

    @pytest.mark.parametrize("suffix, bad", [
        ("CHUNKSIZE", "0"),
        ("UNIT_TIMEOUT", "soon"),
        ("HEARTBEAT", "0"),
        ("WORKER_TIMEOUT", "never"),
        ("MAX_ATTEMPTS", "1.5"),
        ("START_TIMEOUT", "-3"),
        (None, ""),
    ], ids=["chunksize", "unit-timeout", "heartbeat", "worker-timeout",
            "max-attempts", "start-timeout", "trace-out"])
    def test_env_var_is_not_an_engine_knob(self, monkeypatch, suffix,
                                           bad):
        var = self.TRACE_OUT if suffix is None else \
            f"{self.DIST}_{suffix}"
        assert var not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches any resolver.
        monkeypatch.setenv(var, bad)
        for cls in SETTINGS_CLASSES:
            assert cls.resolve() == cls()

    def test_settings_fields_are_gone(self):
        from repro.engine.settings import TelemetrySettings

        assert list(DistSettings.resolve().as_dict()) == [
            "host", "port", "token"]
        assert list(TelemetrySettings.resolve().as_dict()) == ["enabled"]
        with pytest.raises(TypeError, match="unit_timeout"):
            DistSettings.resolve(unit_timeout=1.0)
        with pytest.raises(TypeError, match="trace_out"):
            TelemetrySettings.resolve(trace_out="run.trace.json")

    def test_defaults_are_the_old_knob_defaults(self):
        from repro.engine.dist import coordinator as dist

        assert (dist.CHUNKSIZE, dist.UNIT_TIMEOUT, dist.HEARTBEAT_INTERVAL,
                dist.WORKER_TIMEOUT, dist.MAX_ATTEMPTS,
                dist.START_TIMEOUT) == (1, 300.0, 1.0, 10.0, 3, 60.0)
        backend = dist.DistBackend()
        assert backend.chunksize == dist.CHUNKSIZE
        assert backend.tuning == {
            "unit_timeout": dist.UNIT_TIMEOUT,
            "heartbeat_interval": dist.HEARTBEAT_INTERVAL,
            "worker_timeout": dist.WORKER_TIMEOUT,
            "max_attempts": dist.MAX_ATTEMPTS,
            "start_timeout": dist.START_TIMEOUT,
        }

    def test_backend_arguments_reach_the_coordinator(self):
        from repro.engine.dist import coordinator as dist
        from repro.engine.spec import ExperimentSpec

        # No worker ever connects: the coordinator gives up after its
        # start timeout, which is enough to inspect what it was given.
        backend = dist.DistBackend(port=0, unit_timeout=12.5,
                                   max_attempts=7, start_timeout=0.3)
        runner = ExperimentSpec(simulators=["stats"],
                                models=["SPP3"]).build_runner()
        with pytest.raises(dist.DistStartTimeout):
            runner.run(backend=backend)
        coordinator = backend.last_coordinator
        assert coordinator.unit_timeout == 12.5
        assert coordinator.max_attempts == 7
        assert coordinator.start_timeout == 0.3
        assert coordinator.heartbeat_interval == dist.HEARTBEAT_INTERVAL
        assert coordinator.worker_timeout == dist.WORKER_TIMEOUT

    @pytest.mark.parametrize("argument, bad", [
        ("chunksize", 0),
        ("unit_timeout", -3),
        ("heartbeat_interval", "soon"),
        ("worker_timeout", 0),
        ("max_attempts", 1.5),
        ("start_timeout", None),
    ])
    def test_bad_arguments_name_the_argument(self, argument, bad):
        from repro.engine.dist.coordinator import DistBackend

        with pytest.raises(ValueError, match=argument):
            DistBackend(**{argument: bad})
