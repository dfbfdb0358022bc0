"""ExperimentSpec: validation, JSON round trip, runner materialization."""

import json
from pathlib import Path

import pytest

from repro.engine import (
    ExperimentRunner,
    ExperimentSpec,
    ExperimentTable,
    FrameProvider,
    RunManifest,
    Scenario,
    TraceCache,
)
from repro.engine.spec import cell_filter_from_rules
from repro.models import build_model_spec

#: The spec files shipped for users to run (`repro run`/`describe`).
SHIPPED_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs")
    .glob("*.json")
)


def _spec(**overrides):
    fields = dict(
        name="t",
        simulators=["spade-he", "dense-he"],
        models=["SPP3"],
        scenarios=[{"name": "a", "seed": 1}],
        backend="serial",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestValidation:
    def test_valid_spec_builds(self):
        spec = _spec()
        assert [s.name for s in spec.scenarios] == ["a"]

    def test_unknown_simulator_actionable(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            _spec(simulators=["warp-he"])

    def test_unknown_model_lists_zoo(self):
        with pytest.raises(ValueError, match="SPP3"):
            _spec(models=["NotAModel"])

    def test_modelspec_instances_allowed(self):
        spec = _spec(models=[build_model_spec("SPP3")])
        assert spec.models[0].name == "SPP3"

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="serial"):
            _spec(backend="quantum")

    def test_empty_simulators_and_models_rejected(self):
        with pytest.raises(ValueError, match="simulators"):
            _spec(simulators=[])
        with pytest.raises(ValueError, match="models"):
            _spec(models=[])

    def test_bad_knobs_name_the_knob(self):
        with pytest.raises(ValueError, match="workers"):
            _spec(workers="many")
        with pytest.raises(ValueError, match="rulegen_shards"):
            _spec(rulegen_shards=0)

    def test_bad_cells_actionable(self):
        with pytest.raises(ValueError, match="cells\\[0\\]"):
            _spec(cells=["SPP3"])
        with pytest.raises(ValueError, match="allowed"):
            _spec(cells=[{"modle": "SPP3"}])

    def test_scenario_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            _spec(scenarios=[{"name": "a", "sede": 3}])

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="simulators"):
            ExperimentSpec.from_dict({"models": ["SPP3"]})

    def test_unknown_top_level_key(self):
        data = _spec().to_dict()
        data["simulatorz"] = []
        with pytest.raises(ValueError, match="simulatorz"):
            ExperimentSpec.from_dict(data)

    def test_unsupported_version(self):
        data = _spec().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("key, value, match", [
        ("trace_workers", 2, "unknown key.*trace_workers"),
        ("degrade", True, "unknown key.*degrade"),
        ("backend", "thread", "unknown backend 'thread'"),
        ("backend", "dist", "unknown backend 'dist'"),
        ("frame_provider", "synthetic", "unknown key.*frame_provider"),
    ], ids=["trace-workers", "degrade", "thread-backend", "dist-backend",
            "frame-provider"])
    def test_removed_knobs_rejected(self, key, value, match):
        data = _spec().to_dict()
        data[key] = value
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(data)


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda path: path.name)
def test_shipped_spec_loads(path):
    spec = ExperimentSpec.load(path)
    assert spec.simulators and spec.models


class TestSharedScenarioValidator:
    """Dict-built and kwarg-built scenarios share one validator."""

    def test_same_message_both_paths(self):
        with pytest.raises(ValueError) as via_kwargs:
            Scenario("drive", seed=0, frames=0)
        with pytest.raises(ValueError) as via_dict:
            _spec(scenarios=[{"name": "drive", "seed": 0, "frames": 0}])
        assert str(via_kwargs.value) == str(via_dict.value)
        assert "frames >= 1" in str(via_kwargs.value)

    def test_same_message_for_bad_seed(self):
        with pytest.raises(ValueError) as via_kwargs:
            Scenario("drive", seed="tomorrow")
        with pytest.raises(ValueError) as via_dict:
            _spec(scenarios=[{"name": "drive", "seed": "tomorrow"}])
        assert str(via_kwargs.value) == str(via_dict.value)


class TestRoundTrip:
    @pytest.mark.parametrize("knobs", [
        {"workers": 2},
        # A non-default value for every EngineSettings knob.
        {"backend": "process", "workers": 3, "rulegen_shards": 2,
         "cache_dir": "trace-cache", "delta_trace": True,
         "faults": "kill_run:record=99"},
    ], ids=["workers", "every-knob"])
    def test_dict_round_trip(self, knobs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)          # the relative cache_dir
        spec = _spec(cells=[{"model": "SPP3"}], out="-", **knobs)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        for name, value in knobs.items():
            assert getattr(again, name) == value
        runner = again.build_runner()
        manifest = RunManifest.collect(runner, ExperimentTable(results=[]))
        for name, value in knobs.items():
            assert manifest.settings[name] == value, name

    def test_json_round_trip(self):
        spec = _spec(scenarios=[{"name": "d", "seed": 3, "frames": 2}])
        text = spec.to_json()
        again = ExperimentSpec.from_json(text)
        assert again == spec
        assert json.loads(text)["version"] == 1

    def test_save_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = _spec()
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_load_names_file_on_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            ExperimentSpec.load(path)

    def test_instances_refuse_serialization(self):
        from repro.engine import SpadeSimulator
        from repro.core import SPADE_HE

        spec = _spec(simulators=[SpadeSimulator(SPADE_HE)])
        with pytest.raises(ValueError, match="register_simulator"):
            spec.to_dict()
        spec = _spec(models=[build_model_spec("SPP3")])
        with pytest.raises(ValueError, match="Table I"):
            spec.to_dict()


class TestCellRules:
    def test_empty_rules_mean_no_filter(self):
        assert cell_filter_from_rules([]) is None

    def test_rules_compile_to_filter(self):
        rules = [{"model": "SPP3", "simulator": "SPADE*"},
                 {"model": "PP", "simulator": "DenseAcc*"}]
        cell_filter = cell_filter_from_rules(rules)

        class Sim:
            def __init__(self, name):
                self.name = name

        scenario = Scenario("s")
        assert cell_filter(scenario, "SPP3", Sim("SPADE.HE"))
        assert cell_filter(scenario, "PP", Sim("DenseAcc.HE"))
        assert not cell_filter(scenario, "SPP3", Sim("DenseAcc.HE"))
        assert not cell_filter(scenario, "PP", Sim("SPADE.HE"))


class TestBuildRunner:
    def test_runner_matches_spec(self):
        spec = _spec(workers=2, rulegen_shards=2)
        runner = spec.build_runner()
        assert isinstance(runner, ExperimentRunner)
        assert [s.name for s in runner.simulators] == ["SPADE.HE",
                                                       "DenseAcc.HE"]
        assert runner.models == ["SPP3"]
        assert runner.backend == "serial"
        assert runner.settings.workers == 2
        assert runner.settings.rulegen_shards == 2

    def test_overrides_beat_spec(self):
        runner = _spec(workers=2).build_runner(backend="process",
                                               workers=4)
        assert runner.backend == "process"
        assert runner.settings.workers == 4

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="override"):
            _spec().build_runner(wokers=4)

    def test_cache_dir_builds_disk_cache(self, tmp_path):
        runner = _spec(cache_dir=str(tmp_path)).build_runner()
        assert str(runner.cache.disk_dir) == str(tmp_path)

    def test_explicit_cache_dir_none_disables_disk_tier(self, monkeypatch,
                                                        tmp_path):
        # Regression: build_runner(cache_dir=None) must mean
        # "memory-only" even when the environment names a directory —
        # agreeing with spec.settings(cache_dir=None).
        from repro.engine.settings import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        spec = _spec()
        assert spec.build_runner(cache_dir=None).cache.disk_dir is None
        assert spec.settings(cache_dir=None).cache_dir is None
        # (Without any cache_dir the runner falls back to the shared
        # process-wide cache, whose tier was fixed at import time.)

    def test_override_errors_use_spec_knob_names(self):
        # Regression: a bad --workers override errors as "workers" (the
        # name the spec/CLI user typed), not the runner-internal
        # "max_workers" kwarg.
        with pytest.raises(ValueError) as err:
            _spec().build_runner(workers=0)
        assert str(err.value).startswith("workers must be")

    def test_validation_instances_reused_by_build_runner(self):
        # Regression: validation builds each simulator once and
        # build_runner reuses those instances instead of constructing
        # everything a second time.
        spec = _spec()
        runner = spec.build_runner(cache=TraceCache())
        assert runner.simulators == spec._validated_simulators

    def test_cells_become_cell_filter(self):
        spec = _spec(
            simulators=["spade-he", "dense-he"],
            models=["SPP3", "PP"],
            cells=[{"model": "SPP3", "simulator": "SPADE*"},
                   {"model": "PP", "simulator": "DenseAcc*"}],
        )
        runner = spec.build_runner(cache=TraceCache())
        cells = {
            (group.model, simulator.name)
            for group in runner.plan()
            for simulator in group.simulators
        }
        assert cells == {("SPP3", "SPADE.HE"), ("PP", "DenseAcc.HE")}

    def test_spec_run_equals_hand_built_runner(self):
        """Acceptance: declarative spec == hand-assembled kwargs."""
        cache = TraceCache()
        spec = ExperimentSpec(
            name="parity",
            simulators=["spade-he", "dense-he"],
            models=["SPP3"],
            scenarios=[{"name": "p", "seed": 5}],
            backend="serial",
        )
        declarative = spec.build_runner(cache=cache).run()
        hand_built = ExperimentRunner(
            simulators=["spade-he", "dense-he"],
            models=["SPP3"],
            scenarios=[Scenario("p", seed=5)],
            backend="serial",
            cache=cache,
        ).run()
        assert len(declarative) == len(hand_built) == 2
        for left, right in zip(declarative, hand_built):
            assert left == right

    def test_frame_provider_instance_feeds_a_batched_scenario(self):
        """Custom frames reach a spec's runner as an instance: each
        frame of a 3-frame scenario is asked of it, and its frames (the
        default ones in reverse) are the ones simulated."""
        requested = []

        class ReversedFrames(FrameProvider):
            def frame_for(self, scenario, model, frame=0):
                requested.append((scenario.name, model, frame))
                return super().frame_for(scenario, model, 2 - frame)

        spec = _spec(simulators=["spade-he"],
                     scenarios=[{"name": "drive", "seed": 0, "frames": 3}])
        custom = spec.build_runner(cache=TraceCache(),
                                   frame_provider=ReversedFrames()).run()
        default = spec.build_runner(cache=TraceCache()).run()
        assert requested == [("drive", "SPP3", 0), ("drive", "SPP3", 1),
                             ("drive", "SPP3", 2)]
        assert len(custom) == 4                 # 3 frames + the mean row
        for frame in range(3):
            mirrored = default.get(frame=2 - frame)
            assert custom.get(frame=frame).cycles == mirrored.cycles
        assert custom.get(frame=0).cycles != custom.get(frame=2).cycles

    def test_settings_snapshot(self, monkeypatch):
        from repro.engine.settings import WORKERS_ENV_VAR

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        settings = _spec().settings()
        assert settings.backend == "serial"      # spec beats env default
        assert settings.workers == 3             # env fills spec's None
