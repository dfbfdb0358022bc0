"""Registry layer: named factories, plugin registration, error shape."""

import pytest

from repro.engine import (
    SIMULATORS,
    ExperimentRunner,
    ExperimentSpec,
    Simulator,
    SimResult,
    TraceCache,
    build_simulator,
    register_simulator,
)
from repro.engine.backends import BACKENDS, resolve_backend
from repro.engine.registry import Registry, UnknownNameError


class TestRegistry:
    def test_register_get_create(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: "made-alpha")
        assert "alpha" in registry
        assert "ALPHA" in registry            # case-insensitive
        assert registry.names() == ["alpha"]
        assert registry.get("Alpha")() == "made-alpha"

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("beta")
        def make_beta():
            """Builds a beta widget."""
            return "beta!"

        assert registry.get("beta")() == "beta!"
        assert registry.describe("beta") == "Builds a beta widget."

    def test_duplicate_rejected_unless_overwrite(self):
        registry = Registry("widget")
        registry.register("dup", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("dup", lambda: 2)
        registry.register("dup", lambda: 2, overwrite=True)
        assert registry.get("dup")() == 2

    def test_unknown_name_lists_registered(self):
        registry = Registry("widget")
        registry.register("only", lambda: None)
        with pytest.raises(UnknownNameError) as err:
            registry.get("nope")
        message = str(err.value)
        assert "unknown widget 'nope'" in message
        assert "only" in message

    def test_unknown_is_both_value_and_key_error(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.get("x")
        with pytest.raises(KeyError):
            registry.get("x")

    def test_builtin_registries_populated(self):
        assert {"spade", "dense", "pointacc", "spconv2d", "platform",
                "stats"} <= set(SIMULATORS.names())
        assert sorted(BACKENDS) == ["process", "serial"]


class TestBuildSimulatorErrors:
    """Unknown/malformed spec strings raise ValueError listing names."""

    def test_unknown_family_lists_registered(self):
        with pytest.raises(ValueError) as err:
            build_simulator("warp-he")
        message = str(err.value)
        assert "unknown simulator 'warp'" in message
        for name in ("spade", "dense", "pointacc", "platform"):
            assert name in message

    def test_known_family_bad_config_lists_choices(self):
        with pytest.raises(ValueError, match=r"he.*le|le.*he"):
            build_simulator("spade-xl")
        with pytest.raises(ValueError, match="config token"):
            build_simulator("spade")

    def test_unknown_platform_lists_platforms(self):
        with pytest.raises(ValueError, match="a6000"):
            build_simulator("platform:TPU")
        with pytest.raises(ValueError, match="platform name"):
            build_simulator("platform:")

    def test_extra_args_on_zero_arg_family_is_value_error(self):
        # Regression: a factory signature mismatch must keep the spec
        # contract (ValueError), never leak a bare TypeError.
        with pytest.raises(ValueError, match="does not accept"):
            build_simulator("spconv2d-he")
        with pytest.raises(ValueError, match="stats"):
            build_simulator("stats-he")

    def test_non_string_and_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            build_simulator("")
        with pytest.raises(ValueError, match="non-empty string"):
            build_simulator(None)

    def test_errors_remain_key_errors_for_compat(self):
        with pytest.raises(KeyError):
            build_simulator("warp-he")
        with pytest.raises(KeyError):
            build_simulator("platform:TPU")
        with pytest.raises(KeyError):
            build_simulator("spade-xl")


class _EchoSim(Simulator):
    """Test double returning a constant row."""

    def __init__(self, name="Echo"):
        self.name = name

    def run(self, trace):
        return SimResult(simulator=self.name, model=trace.spec.name,
                         cycles=7)


class TestThirdPartyPlugins:
    """The point of the registry: plugins slot in without engine edits."""

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        yield
        SIMULATORS.unregister("echo")

    def test_registered_simulator_works_everywhere(self):
        register_simulator("echo", lambda: _EchoSim())
        # ... in build_simulator,
        assert build_simulator("echo").name == "Echo"
        # ... in a declarative spec (validation accepts it),
        spec = ExperimentSpec(simulators=["echo"], models=["SPP3"])
        assert spec.to_dict()["simulators"] == ["echo"]
        # ... and in a live runner grid.
        runner = ExperimentRunner(simulators=["echo"], models=["SPP3"],
                                  cache=TraceCache())
        table = runner.run(backend="serial")
        assert table.get(simulator="Echo").cycles == 7

    def test_backend_instance_passes_through(self):
        from repro.engine.backends import SerialBackend

        class InlineBackend(SerialBackend):
            name = "inline"

        backend = InlineBackend()
        assert resolve_backend(backend) is backend
        runner = ExperimentRunner(simulators=["stats"], models=["SPP3"],
                                  cache=TraceCache())
        assert len(runner.run(backend=backend)) == 1

    def test_unknown_backend_error_shape(self):
        with pytest.raises(UnknownNameError,
                           match=r"unknown backend 'quantum'; "
                                 r"choices: \['process', 'serial'\]"):
            resolve_backend("quantum")
        assert resolve_backend(" Process ").name == "process"
