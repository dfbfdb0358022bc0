"""EngineSettings: the single resolver for every engine env knob."""

import os

import pytest

from repro.engine import ExperimentRunner, TraceCache
from repro.engine.settings import (
    BACKEND_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    DELTA_TRACE_ENV_VAR,
    ENGINE_ENV_VARS,
    FAULTS_ENV_VAR,
    SETTINGS_CLASSES,
    TELEMETRY_ENV_VAR,
    WORKERS_ENV_VAR,
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
        assert settings.cache_dir is None
        assert settings.delta_trace is False

    def test_env_overrides_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, "1")
        settings = EngineSettings.resolve()
        assert settings == EngineSettings(
            backend="process", workers=3, cache_dir=str(tmp_path),
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
        assert len(ENGINE_ENV_VARS) == 6
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


class TestRemovedRulegenShardsKnob:
    """Rules are built in one pass, so the row-band count has no knob
    in the environment, the settings, the runner, the spec or the CLI,
    and the sparse layer exports no shard resolver."""

    # Spelled in parts, so a repository search for leftovers of the
    # deleted knob comes back empty.
    ENV_VAR = "_".join(("REPRO", "ENGINE", "RULEGEN", "SHARDS"))
    ARGUMENT = "_".join(("rulegen", "shards"))

    def test_engine_env_vars_are_the_six_knobs(self):
        assert ENGINE_ENV_VARS == (
            BACKEND_ENV_VAR, WORKERS_ENV_VAR, CACHE_DIR_ENV_VAR,
            DELTA_TRACE_ENV_VAR, FAULTS_ENV_VAR, TELEMETRY_ENV_VAR)

    def test_env_var_is_not_an_engine_knob(self, monkeypatch):
        assert self.ENV_VAR not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches any resolver.
        monkeypatch.setenv(self.ENV_VAR, "0")
        for cls in SETTINGS_CLASSES:
            assert cls.resolve() == cls()

    def test_argument_is_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(TypeError, match=self.ARGUMENT):
            EngineSettings.resolve(**{self.ARGUMENT: 2})
        with pytest.raises(TypeError, match=self.ARGUMENT):
            ExperimentRunner(simulators=["spade-he"], models=["SPP3"],
                             **{self.ARGUMENT: 2})
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "spec.json", "--rulegen-" + "shards", "2"])

    def test_sparse_layer_has_no_shard_resolver(self):
        import repro.sparse

        for name in ("resolve_" + self.ARGUMENT,
                     self.ENV_VAR.replace("REPRO_ENGINE_", "") + "_ENV_VAR"):
            assert not hasattr(sparse_rulegen, name), name
            assert name not in repro.sparse.__all__, name


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
            "EngineSettings", "TelemetrySettings"]

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
        (DELTA_TRACE_ENV_VAR, "x"),
        (DELTA_TRACE_ENV_VAR, "-1"),
        (DELTA_TRACE_ENV_VAR, "maybe"),
        (DELTA_TRACE_ENV_VAR, "2"),
    ])
    def test_env_knobs(self, monkeypatch, var, bad):
        monkeypatch.setenv(var, bad)
        with pytest.raises(ValueError, match=var):
            EngineSettings.resolve()

    @pytest.mark.parametrize("kwarg, source", [
        ("workers", "max_workers"),
        ("delta_trace", "delta_trace"),
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
        with pytest.raises(ValueError, match="max_workers"):
            resolve("workers", -3)
        with pytest.raises(ValueError, match="delta_trace"):
            resolve("delta_trace", "sometimes")


class TestDelegation:
    """Every engine layer routes env reads through this one module."""

    def test_runner_delegates(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"])
        assert runner.settings.workers == 4
        assert runner.settings.backend == "process"

    def test_cache_delegates(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert str(TraceCache().disk_dir) == str(tmp_path)
        assert TraceCache(disk_dir=None).disk_dir is None

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
        import repro.engine.runner

        for module in (repro.engine.runner, repro.engine.backends,
                       repro.engine.cache, sparse_rulegen):
            assert "os.environ" not in inspect.getsource(module), module

    def test_resolve_cache_dir_empty_string_is_none(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "")
        assert EngineSettings.resolve_one("cache_dir") is None


class TestRemovedDistKnobs:
    """The dist backend is gone, and with it the coordinator's address,
    port, token and tuning, the degrade ladder and the trace export
    variable: none of them has an environment variable, a settings
    field, a spec key or a ``repro run`` flag."""

    # Spelled in parts, so a repository search for leftovers of the
    # deleted variables comes back empty.
    DIST = "_".join(("REPRO", "ENGINE", "DIST"))
    DEGRADE = "_".join(("REPRO", "ENGINE", "DEGRADE"))
    TRACE_OUT = "_".join(("REPRO_ENGINE_TELEMETRY", "TRACE", "OUT"))

    @pytest.mark.parametrize("suffix, bad", [
        ("HOST", ""),
        ("PORT", "70000"),
        ("TOKEN", "s3cret"),
        ("CHUNKSIZE", "0"),
        ("UNIT_TIMEOUT", "soon"),
        ("HEARTBEAT", "0"),
        ("WORKER_TIMEOUT", "never"),
        ("MAX_ATTEMPTS", "1.5"),
        ("START_TIMEOUT", "-3"),
        ("BATCH_ROWS", "lots"),
        ("TRACE_STAGE", "maybe"),
        ("degrade", "maybe"),
        ("trace-out", ""),
    ], ids=lambda value: str(value).lower().replace("_", "-"))
    def test_env_var_is_not_an_engine_knob(self, monkeypatch, suffix,
                                           bad):
        var = {"degrade": self.DEGRADE, "trace-out": self.TRACE_OUT}.get(
            suffix, f"{self.DIST}_{suffix}")
        assert var not in ENGINE_ENV_VARS
        # A value the old knob rejected no longer reaches any resolver.
        monkeypatch.setenv(var, bad)
        for cls in SETTINGS_CLASSES:
            assert cls.resolve() == cls()

    def test_settings_fields_are_gone(self):
        from repro.engine import settings as settings_module
        from repro.engine.settings import TelemetrySettings

        assert not hasattr(settings_module, "DistSettings")
        assert list(EngineSettings.resolve().as_dict()) == [
            "backend", "workers", "cache_dir", "delta_trace", "faults"]
        assert list(TelemetrySettings.resolve().as_dict()) == ["enabled"]
        with pytest.raises(TypeError, match="trace_out"):
            TelemetrySettings.resolve(trace_out="run.trace.json")

    def test_dist_backend_from_env_is_unknown(self, monkeypatch):
        """``REPRO_ENGINE_BACKEND=dist`` left over in an environment
        fails the run naming the backends that exist, rather than
        running somewhere the user did not ask for."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "dist")
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"], cache=TraceCache())
        with pytest.raises(ValueError, match="dist") as error:
            runner.run()
        assert "process" in str(error.value)
        assert "serial" in str(error.value)

    def test_degrade_argument_is_rejected(self):
        from repro.cli import build_parser
        from repro.engine.spec import ExperimentSpec

        with pytest.raises(TypeError, match="degrade"):
            EngineSettings.resolve(degrade=True)
        with pytest.raises(TypeError, match="degrade"):
            ExperimentRunner(simulators=["spade-he"], models=["SPP3"],
                             degrade=True)
        with pytest.raises(ValueError, match="degrade"):
            ExperimentSpec.from_dict({"simulators": ["stats"],
                                      "models": ["SPP3"],
                                      "degrade": True})
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "spec.json", "--degrade", "1"])
