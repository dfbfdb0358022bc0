"""Fault-injection harness: plan grammar, deterministic counted
triggers, settings/spec resolution, cache quarantine."""

import pytest

from repro.engine import ExperimentSpec, TraceCache
from repro.engine import faults
from repro.engine.cache import QUARANTINE_SUFFIX, scan_disk_tier
from repro.engine.faults import FaultPlan
from repro.engine.settings import (
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
            "kill_run:record=2; truncate_journal:record=5;"
            "corrupt_cache:entry=3"
        )
        assert [r.kind for r in plan.rules] \
            == ["kill_run", "truncate_journal", "corrupt_cache"]
        assert [r.trigger for r in plan.rules] == [2, 5, 3]
        assert plan

    def test_blank_plans_are_empty(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")

    def test_triggers_default_to_one(self):
        plan = FaultPlan.parse("corrupt_cache")
        assert plan.rules[0].trigger == 1

    @pytest.mark.parametrize("text, match", [
        ("explode", "unknown fault kind"),
        ("kill_run:record=0", "positive integer"),
        ("kill_run:record=x", "positive integer"),
        ("kill_run:records=2", "unknown parameter"),
        ("kill_run:record", "malformed parameter"),
        ("kill_run:record=1,record=2", "duplicate parameter"),
        ("kill_run:seconds=1", "unknown parameter"),
        ("corrupt_cache:record=1", "unknown parameter"),
        ("kill_run:record=1,p=0.5", "unknown parameter 'p'"),
        ("corrupt_cache:entry=1,seed=4", "unknown parameter 'seed'"),
    ])
    def test_grammar_errors_name_the_rule(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(text)

    def test_error_counts_rules_from_one(self):
        with pytest.raises(ValueError, match="rule 2"):
            FaultPlan.parse("corrupt_cache;explode")


class TestInjector:
    def test_counted_trigger_fires_once(self):
        faults.install("corrupt_cache:entry=3")
        assert faults.check("cache.store") is None
        assert faults.check("cache.store") is None
        assert faults.check("cache.store") == "corrupt_cache"
        # One-shot: the rule disarmed after firing.
        assert faults.check("cache.store") is None

    def test_sites_are_independent(self):
        faults.install("corrupt_cache:entry=1")
        assert faults.check("journal.record") is None
        assert faults.check("cache.store") == "corrupt_cache"

    def test_call_site_kinds_are_returned(self):
        faults.install("kill_run:record=2")
        assert faults.check("journal.record") is None
        assert faults.check("journal.record") == "kill_run"
        assert faults.check("journal.record") is None

    def test_scoped_restores_previous_install(self):
        faults.install("kill_run:record=1")
        with faults.scoped("corrupt_cache:entry=1"):
            assert faults.check("journal.record") is None
            assert faults.check("cache.store") == "corrupt_cache"
        assert faults.check("journal.record") == "kill_run"

    def test_env_plan_arms_lazily(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill_run:record=1")
        faults.reset()
        assert faults.installed_plan() == "kill_run:record=1"
        assert faults.check("journal.record") == "kill_run"

    def test_invalid_env_plan_never_crashes_a_run(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "explode")
        faults.reset()
        assert faults.check("journal.record") is None
        assert faults.installed_plan() is None


#: Every fault kind: its injection site and its trigger parameter.
KIND_SITES = [
    ("kill_run", "journal.record", "record"),
    ("truncate_journal", "journal.record", "record"),
    ("corrupt_cache", "cache.store", "entry"),
]
KIND_IDS = [kind for kind, _, _ in KIND_SITES]
OTHER_SITE = {"journal.record": "cache.store",
              "cache.store": "journal.record"}


class TestFaultKinds:
    """Where each kind fires and which parameters it takes."""

    @pytest.mark.parametrize("kind, site, trigger", KIND_SITES,
                             ids=KIND_IDS)
    def test_kind_is_armed_at_its_site(self, kind, site, trigger):
        assert faults.FAULT_KINDS[kind] == (site, trigger)
        [rule] = FaultPlan.parse(kind).rules
        assert (rule.kind, rule.site, rule.trigger) == (kind, site, 1)

    @pytest.mark.parametrize("kind, site, trigger", KIND_SITES,
                             ids=KIND_IDS)
    def test_trigger_counts_only_its_sites_events(self, kind, site,
                                                  trigger):
        faults.install(f"{kind}:{trigger}=3")
        for _ in range(5):
            assert faults.check(OTHER_SITE[site]) is None
        assert faults.check(site) is None
        assert faults.check(site) is None
        assert faults.check(site) == kind
        assert faults.check(site) is None

    @pytest.mark.parametrize("kind, site, trigger", KIND_SITES,
                             ids=KIND_IDS)
    def test_another_kinds_trigger_is_unknown(self, kind, site, trigger):
        foreign = "entry" if trigger == "record" else "record"
        with pytest.raises(ValueError,
                           match=f"unknown parameter '{foreign}'"):
            FaultPlan.parse(f"{kind}:{foreign}=1")

    def test_one_rule_fires_per_event(self):
        """Two kinds armed at the same journal record: the first in
        plan order fires there, the other at the next record."""
        faults.install("kill_run:record=2;truncate_journal:record=2")
        fired = [faults.check("journal.record") for _ in range(4)]
        assert fired == [None, "kill_run", "truncate_journal", None]

    def test_kinds_fire_at_two_sites(self):
        assert {site for site, _ in faults.FAULT_KINDS.values()} \
            == {"journal.record", "cache.store"}

    @pytest.mark.parametrize("kind", [
        "kill_worker", "drop_conn", "delay_conn", "stall_heartbeat",
        "coordinator_drop",
    ])
    def test_removed_kind_fails_loudly(self, monkeypatch, kind):
        """Plans naming a kind of the removed worker protocol are
        grammar errors: refused when resolved, inert from the
        environment."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse(f"{kind}:after=1")
        monkeypatch.setenv(FAULTS_ENV_VAR, f"{kind}:after=1")
        with pytest.raises(ValueError, match=FAULTS_ENV_VAR):
            EngineSettings.resolve_one("faults")
        faults.reset()
        assert faults.installed_plan() is None


class TestSettings:
    def test_env_vars_are_registered(self):
        assert FAULTS_ENV_VAR in ENGINE_ENV_VARS

    def test_resolve_faults_validates(self, monkeypatch):
        resolve = EngineSettings.resolve_one
        assert resolve("faults", "kill_run:record=1") \
            == "kill_run:record=1"
        assert resolve("faults", None) is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "explode")
        with pytest.raises(ValueError, match=FAULTS_ENV_VAR):
            resolve("faults")
        with pytest.raises(ValueError, match="faults"):
            resolve("faults", "explode")

    def test_settings_resolve_and_as_dict(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "truncate_journal:record=2")
        settings = EngineSettings.resolve()
        assert settings.faults == "truncate_journal:record=2"
        assert settings.as_dict()["faults"] == "truncate_journal:record=2"

    def test_spec_knobs_round_trip(self):
        spec = ExperimentSpec(
            name="chaos",
            simulators=["spade-he"],
            models=["SPP3"],
            faults="kill_run:record=1",
        )
        assert spec.to_dict()["faults"] == "kill_run:record=1"
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        runner = rebuilt.build_runner()
        assert runner.settings.faults == "kill_run:record=1"

    def test_spec_rejects_a_bad_plan(self):
        with pytest.raises(ValueError, match="faults"):
            ExperimentSpec(name="bad", simulators=["spade-he"],
                           models=["SPP3"], faults="explode")


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
