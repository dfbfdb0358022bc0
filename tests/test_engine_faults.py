"""Fault-injection harness: plan grammar, deterministic counted
triggers, settings/spec resolution, worker backoff, cache quarantine."""

import random
import time

import pytest

from repro.engine import ExperimentSpec, TraceCache
from repro.engine import faults
from repro.engine.cache import QUARANTINE_SUFFIX, scan_disk_tier
from repro.engine.dist.worker import Worker, backoff_delays
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.settings import (
    DEGRADE_ENV_VAR,
    ENGINE_ENV_VARS,
    FAULTS_ENV_VAR,
    EngineSettings,
)
from repro.models.specs import build_model_spec


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


class TestPlanGrammar:
    def test_parse_multi_rule_plan(self):
        plan = FaultPlan.parse(
            "kill_worker:unit=2; drop_conn:after=5;"
            "delay_conn:after=3,seconds=0.25"
        )
        assert [r.kind for r in plan.rules] \
            == ["kill_worker", "drop_conn", "delay_conn"]
        assert plan.rules[0].trigger == 2
        assert plan.rules[2].seconds == 0.25
        assert plan

    def test_blank_plans_are_empty(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")

    def test_triggers_default_to_one(self):
        plan = FaultPlan.parse("stall_heartbeat")
        assert plan.rules[0].trigger == 1

    @pytest.mark.parametrize("text, match", [
        ("explode", "unknown fault kind"),
        ("kill_worker:unit=0", "positive integer"),
        ("kill_worker:unit=x", "positive integer"),
        ("kill_worker:units=2", "unknown parameter"),
        ("kill_worker:unit", "malformed parameter"),
        ("kill_worker:unit=1,unit=2", "duplicate parameter"),
        ("delay_conn:after=1,seconds=-2", "seconds must be"),
        ("kill_worker:seconds=1", "unknown parameter"),
        ("drop_conn:after=1,p=2", "p must be"),
        ("drop_conn:after=1,p=zero", "p must be"),
    ])
    def test_grammar_errors_name_the_rule(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(text)

    def test_error_counts_rules_from_one(self):
        with pytest.raises(ValueError, match="rule 2"):
            FaultPlan.parse("stall_heartbeat;explode")


class TestInjector:
    def test_counted_trigger_fires_once(self):
        faults.install("drop_conn:after=3")
        assert faults.check("protocol.message") is None
        assert faults.check("protocol.message") is None
        with pytest.raises(InjectedFault, match="drop_conn"):
            faults.check("protocol.message")
        # One-shot: the rule disarmed after firing.
        assert faults.check("protocol.message") is None

    def test_sites_are_independent(self):
        faults.install("drop_conn:after=1")
        assert faults.check("worker.unit", unit=1) is None
        assert faults.check("cache.store", key="k") is None
        with pytest.raises(InjectedFault):
            faults.check("protocol.message")

    def test_call_site_kinds_are_returned(self):
        faults.install("stall_heartbeat:after=2")
        assert faults.check("worker.heartbeat") is None
        assert faults.check("worker.heartbeat") == "stall_heartbeat"
        assert faults.check("worker.heartbeat") is None

    def test_delay_conn_sleeps_in_place(self):
        faults.install("delay_conn:after=1,seconds=0.05")
        started = time.monotonic()
        assert faults.check("protocol.message") == "delay_conn"
        assert time.monotonic() - started >= 0.05

    def test_probabilistic_rules_replay_identically(self):
        plan = FaultPlan.parse("drop_conn:after=1,p=0.3,seed=7")

        def firing_event(injector):
            for event in range(1, 100):
                if injector.fire("protocol.message") is not None:
                    return event
            return None

        first = firing_event(plan.arm())
        second = firing_event(plan.arm())
        assert first is not None
        assert first == second

    def test_scoped_restores_previous_install(self):
        faults.install("stall_heartbeat:after=1")
        with faults.scoped("drop_conn:after=1"):
            with pytest.raises(InjectedFault):
                faults.check("protocol.message")
        assert faults.check("worker.heartbeat") == "stall_heartbeat"

    def test_env_plan_arms_lazily(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "stall_heartbeat:after=1")
        faults.reset()
        assert faults.installed_plan() == "stall_heartbeat:after=1"
        assert faults.check("worker.heartbeat") == "stall_heartbeat"

    def test_invalid_env_plan_never_crashes_a_run(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "explode")
        faults.reset()
        assert faults.check("worker.heartbeat") is None
        assert faults.installed_plan() is None


class TestSettings:
    def test_env_vars_are_registered(self):
        assert FAULTS_ENV_VAR in ENGINE_ENV_VARS
        assert DEGRADE_ENV_VAR in ENGINE_ENV_VARS

    def test_resolve_faults_validates(self, monkeypatch):
        resolve = EngineSettings.resolve_one
        assert resolve("faults", "kill_worker:unit=1") \
            == "kill_worker:unit=1"
        assert resolve("faults", None) is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "explode")
        with pytest.raises(ValueError, match=FAULTS_ENV_VAR):
            resolve("faults")
        with pytest.raises(ValueError, match="faults"):
            resolve("faults", "explode")

    def test_resolve_degrade(self, monkeypatch):
        resolve = EngineSettings.resolve_one
        assert resolve("degrade", None) is False
        monkeypatch.setenv(DEGRADE_ENV_VAR, "1")
        assert resolve("degrade") is True
        monkeypatch.setenv(DEGRADE_ENV_VAR, "maybe")
        with pytest.raises(ValueError, match=DEGRADE_ENV_VAR):
            resolve("degrade")

    def test_settings_resolve_and_as_dict(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "stall_heartbeat:after=2")
        monkeypatch.setenv(DEGRADE_ENV_VAR, "yes")
        settings = EngineSettings.resolve()
        assert settings.faults == "stall_heartbeat:after=2"
        assert settings.degrade is True
        as_dict = settings.as_dict()
        assert as_dict["faults"] == "stall_heartbeat:after=2"
        assert as_dict["degrade"] is True

    def test_spec_knobs_round_trip(self):
        spec = ExperimentSpec(
            name="chaos",
            simulators=["spade-he"],
            models=["SPP3"],
            faults="kill_worker:unit=1",
            degrade="1",
        )
        assert spec.degrade is True
        assert spec.to_dict()["faults"] == "kill_worker:unit=1"
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        runner = rebuilt.build_runner()
        assert runner.settings.faults == "kill_worker:unit=1"
        assert runner.settings.degrade is True

    def test_spec_rejects_a_bad_plan(self):
        with pytest.raises(ValueError, match="faults"):
            ExperimentSpec(name="bad", simulators=["spade-he"],
                           models=["SPP3"], faults="explode")


class TestBackoff:
    def test_delays_are_deterministic_per_seed(self):
        left = backoff_delays(random.Random("repro-worker-w1"))
        right = backoff_delays(random.Random("repro-worker-w1"))
        first = [next(left) for _ in range(8)]
        assert first == [next(right) for _ in range(8)]

    def test_workers_desynchronize(self):
        one = backoff_delays(random.Random("repro-worker-w1"))
        two = backoff_delays(random.Random("repro-worker-w2"))
        assert [next(one) for _ in range(4)] \
            != [next(two) for _ in range(4)]

    def test_delays_grow_exponentially_to_the_cap(self):
        delays = list(
            next(backoff_delays(random.Random(0), base=0.1, cap=2.0))
            for _ in range(1)
        )
        assert 0.05 <= delays[0] < 0.1
        stream = backoff_delays(random.Random(0), base=0.1, cap=2.0)
        jittered = [next(stream) for _ in range(12)]
        # Jitter is in [0.5, 1.0): every delay is bounded by the
        # un-jittered exponential and never exceeds the cap.
        for index, delay in enumerate(jittered):
            assert delay < min(2.0, 0.1 * (2 ** index)) + 1e-9
            assert delay <= 2.0

    def test_worker_rng_is_seeded_by_id(self):
        first = Worker(("127.0.0.1", 1), worker_id="w1")
        second = Worker(("127.0.0.1", 1), worker_id="w1")
        assert first._rng.random() == second._rng.random()


class TestQuarantine:
    def _store_one(self, tmp_path, coords):
        cache = TraceCache(disk_dir=tmp_path)
        spec = build_model_spec("SPP2")
        cache.get_trace(spec, coords)
        (artifact,) = tmp_path.glob("*.trace.pkl")
        return spec, artifact

    def test_corrupt_artifact_is_quarantined_and_recomputed(
        self, tmp_path, kitti_batch
    ):
        coords = kitti_batch.coords
        spec, artifact = self._store_one(tmp_path, coords)
        artifact.write_bytes(b"garbage, not a pickle")
        fresh = TraceCache(disk_dir=tmp_path)
        trace = fresh.get_trace(spec, coords)
        assert trace is not None
        assert fresh.stats()["quarantined"] == 1
        quarantined = list(tmp_path.glob(f"*{QUARANTINE_SUFFIX}"))
        assert len(quarantined) == 1
        # The poisoned artifact no longer shadows the rewritten one.
        assert scan_disk_tier(tmp_path)["quarantined"] == 1
        assert fresh.stats()["disk_writes"] == 1

    def test_corrupt_cache_fault_poisons_a_store(self, tmp_path,
                                                 kitti_batch):
        coords = kitti_batch.coords
        faults.install("corrupt_cache:entry=1")
        spec, artifact = self._store_one(tmp_path, coords)
        faults.reset()
        fresh = TraceCache(disk_dir=tmp_path)
        assert fresh.get_trace(spec, coords) is not None
        assert fresh.stats()["quarantined"] == 1

    def test_clear_removes_quarantined_artifacts(self, tmp_path,
                                                 kitti_batch):
        coords = kitti_batch.coords
        spec, artifact = self._store_one(tmp_path, coords)
        artifact.write_bytes(b"garbage")
        cache = TraceCache(disk_dir=tmp_path)
        cache.get_trace(spec, coords)
        cache.clear(disk=True)
        assert list(tmp_path.glob("*.trace.*")) == []
        assert cache.stats()["quarantined"] == 0
