"""Experiment service: the priority/fair-share scheduler, the durable
run store, and the ``repro serve`` daemon end to end — submit/status/
results/cancel/queue round trips, priority ordering through a shared
worker fleet, warm-cache fleet reuse, auth on the client socket, and a
daemon kill/restart recovering the queue from the store."""

import json
import threading
import time

import pytest

from repro.engine import ExperimentSpec, Worker
from repro.engine.dist import ConnectionClosed, ProtocolError
from repro.engine.service import (
    RECOVERABLE_STATES,
    RUN_STATES,
    TERMINAL_STATES,
    ExperimentService,
    RunScheduler,
    RunStore,
    ServiceClient,
    ServiceError,
)
from repro.engine.settings import (
    ENGINE_ENV_VARS,
    DistSettings,
    ServiceSettings,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENGINE_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


def service_spec(name: str, scenarios: int = 1, frames: int = 1) -> dict:
    return {
        "name": name,
        "simulators": ["spade-he"],
        "models": ["CP"],
        "scenarios": [{"name": f"s{i}", "seed": 7 + i, "frames": frames}
                      for i in range(scenarios)],
    }


def start_service(store_dir, *, max_inflight=1, submitter_cap=1,
                  token=None) -> ExperimentService:
    service = ExperimentService(
        ServiceSettings(host="127.0.0.1", port=0,
                        store_dir=str(store_dir),
                        max_inflight=max_inflight,
                        submitter_cap=submitter_cap,
                        drain_timeout=5.0),
        DistSettings.resolve(port=0, unit_timeout=60.0, token=token),
    )
    service.start()
    return service


def start_worker_thread(port: int, **kwargs) -> Worker:
    kwargs.setdefault("retry_seconds", 30.0)
    worker = Worker(("127.0.0.1", port), **kwargs)
    threading.Thread(target=worker.run, daemon=True).start()
    return worker


def wait_for_state(client: ServiceClient, run_id: str, state: str,
                   timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.status(run_id)
        if record.get("state") == state:
            return record
        time.sleep(0.05)
    raise AssertionError(
        f"run {run_id} never reached {state!r} "
        f"(last: {record.get('state')!r})"
    )


class TestRunScheduler:
    def drain(self, scheduler: RunScheduler) -> list:
        """Dispatch order: repeatedly next()+start()+finish()."""
        order = []
        while True:
            run_id = scheduler.next()
            if run_id is None:
                return order
            scheduler.start(run_id)
            scheduler.finish(run_id)
            order.append(run_id)

    def test_higher_priority_band_dispatches_first(self):
        scheduler = RunScheduler()
        scheduler.submit("low", priority=0, submitter="a")
        scheduler.submit("high", priority=5, submitter="a")
        scheduler.submit("mid", priority=2, submitter="a")
        assert self.drain(scheduler) == ["high", "mid", "low"]

    def test_fair_share_interleaves_submitters_within_a_band(self):
        scheduler = RunScheduler()
        for run_id, submitter in (("a1", "alice"), ("a2", "alice"),
                                  ("b1", "bob"), ("b2", "bob")):
            scheduler.submit(run_id, priority=1, submitter=submitter)
        # Round-robin across submitters, FIFO within one — not a1, a2
        # first just because alice submitted before bob.
        assert self.drain(scheduler) == ["a1", "b1", "a2", "b2"]

    def test_submitter_cap_holds_a_run_pending(self):
        scheduler = RunScheduler(max_inflight=2, submitter_cap=1)
        scheduler.submit("a1", submitter="alice")
        scheduler.submit("a2", submitter="alice")
        scheduler.submit("b1", submitter="bob")
        first = scheduler.next()
        assert first == "a1"
        scheduler.start(first)
        # alice is at her cap: a2 is pending, bob's run is the one ready.
        assert scheduler.next() == "b1"
        snapshot = scheduler.snapshot()
        readiness = {entry["run"]: entry["ready"]
                     for entry in snapshot["queued"]}
        assert readiness == {"a2": False, "b1": True}
        scheduler.finish("a1")
        assert scheduler.next() == "b1"     # round-robin: bob's turn

    def test_max_inflight_gates_dispatch(self):
        scheduler = RunScheduler(max_inflight=1)
        scheduler.submit("one", submitter="a")
        scheduler.submit("two", submitter="b")
        scheduler.start(scheduler.next())
        assert scheduler.next() is None
        scheduler.finish("one")
        assert scheduler.next() == "two"

    def test_cancel_queued_and_inflight(self):
        scheduler = RunScheduler()
        scheduler.submit("gone", submitter="a")
        scheduler.submit("busy", submitter="b")
        assert scheduler.cancel("gone") == "queued"
        assert scheduler.snapshot()["finished"]["gone"] == "cancelled"
        scheduler.start(scheduler.next())
        # Inflight: the scheduler only reports it — the caller must
        # interrupt the execution and then finish() the run.
        assert scheduler.cancel("busy") == "inflight"
        assert scheduler.inflight_ids() == ["busy"]
        scheduler.finish("busy", outcome="cancelled")
        assert scheduler.cancel("busy") is None
        assert scheduler.cancel("never-seen") is None

    def test_submit_is_idempotent(self):
        scheduler = RunScheduler()
        scheduler.submit("r1", priority=3, submitter="a")
        scheduler.submit("r1", priority=9, submitter="b")
        assert scheduler.queued_ids() == ["r1"]
        assert scheduler.snapshot()["queued"][0]["priority"] == 3


class TestRunStore:
    def test_create_allocates_monotonic_ids_across_restarts(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = store.create(service_spec("one"))
        second = store.create(service_spec("two"), priority=4,
                              submitter="alice")
        assert [first["run"], second["run"]] == ["r0001", "r0002"]
        assert second["priority"] == 4
        assert second["submitter"] == "alice"
        assert second["state"] == "queued"
        assert store.spec("r0002")["name"] == "two"
        # A fresh store over the same root continues the counter.
        reopened = RunStore(tmp_path / "runs")
        assert reopened.create(service_spec("three"))["run"] == "r0003"

    def test_update_timestamps_transitions(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.create(service_spec("x"))["run"]
        state = store.update(run_id, state="running")
        assert state["running_at"] >= state["submitted_at"]
        state = store.update(run_id, state="done", rows=8)
        assert state["rows"] == 8
        assert "done_at" in state
        # No torn/leftover temp files from the atomic writes.
        assert not list((tmp_path / "runs").rglob("*.tmp"))

    def test_unknown_state_and_unknown_run_are_rejected(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.create(service_spec("x"))["run"]
        with pytest.raises(ValueError, match="unknown run state"):
            store.update(run_id, state="paused")
        with pytest.raises(KeyError, match="no run 'r9999'"):
            store.state("r9999")
        with pytest.raises(KeyError, match="no run 'r9999'"):
            store.spec("r9999")

    def test_recoverable_flips_running_to_interrupted(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        ids = [store.create(service_spec(name))["run"]
               for name in ("a", "b", "c", "d")]
        store.update(ids[1], state="running")
        store.update(ids[2], state="done")
        store.update(ids[3], state="cancelled")
        found = store.recoverable()
        assert [record["run"] for record in found] == [ids[0], ids[1]]
        assert [record["state"] for record in found] \
            == ["queued", "interrupted"]
        # The flip is durable, not just in the returned records.
        assert store.state(ids[1])["state"] == "interrupted"

    def test_state_vocabulary_is_closed(self):
        assert set(RECOVERABLE_STATES) | set(TERMINAL_STATES) \
            == set(RUN_STATES)
        assert not set(RECOVERABLE_STATES) & set(TERMINAL_STATES)


class TestServiceEndToEnd:
    def test_submit_runs_and_results_match_standalone(self, tmp_path):
        """Acceptance: a submitted spec executes on the fleet and the
        stored CSV is byte-identical to a standalone `repro run`."""
        spec = service_spec("round-trip", scenarios=2)
        expected = ExperimentSpec.from_dict(spec).build_runner().run(
            backend="serial").to_csv()
        service = start_service(tmp_path / "runs")
        try:
            start_worker_thread(service.port)
            client = ServiceClient(host="127.0.0.1", port=service.port)
            run_id = client.submit(spec, submitter="alice")["run"]
            assert run_id == "r0001"
            final = client.wait(run_id, timeout=120)
            assert final["state"] == "done"
            assert final["rows"] == 2
            results = client.results(run_id)
            assert results["csv"] == expected
            manifest = json.loads(results["manifest"])
            assert manifest["backend"] == "dist"
            # The durable copies match what the wire returned.
            store = service.store
            assert store.results_path(run_id).read_text() \
                == results["csv"]
            assert store.manifest_path(run_id).exists()
            summary = client.status()
            assert summary["service"]["store_dir"] == str(tmp_path / "runs")
            assert summary["workers"], "fleet roster missing"
        finally:
            service.stop()

    def test_results_before_done_and_bad_specs_are_errors(self, tmp_path):
        service = start_service(tmp_path / "runs")
        try:
            client = ServiceClient(host="127.0.0.1", port=service.port)
            with pytest.raises(ServiceError, match="config token"):
                client.submit(dict(service_spec("bad"),
                                   simulators=["spade"]))
            run_id = client.submit(service_spec("pending"))["run"]
            with pytest.raises(ServiceError,
                               match="available once it is done"):
                client.results(run_id)
            with pytest.raises(ServiceError, match="no run 'r9999'"):
                client.status("r9999")
        finally:
            service.stop()

    def test_priority_order_through_a_shared_fleet(self, tmp_path):
        """Acceptance: two queued specs at different priorities complete
        through one daemon in priority order, not submission order."""
        service = start_service(tmp_path / "runs")
        try:
            client = ServiceClient(host="127.0.0.1", port=service.port)
            # No workers yet: the blocker occupies the single inflight
            # slot so both follow-ups are queued when ordering matters.
            blocker = client.submit(service_spec("blocker"),
                                    submitter="z")["run"]
            wait_for_state(client, blocker, "running")
            low = client.submit(service_spec("low"), priority=0,
                                submitter="alice")["run"]
            high = client.submit(service_spec("high"), priority=5,
                                 submitter="bob")["run"]
            queue = client.queue()
            assert queue["inflight"] == [blocker]
            assert [entry["run"] for entry in queue["queued"]] \
                == [high, low]
            start_worker_thread(service.port)
            for run_id in (blocker, high, low):
                assert client.wait(run_id, timeout=120)["state"] == "done"
            assert client.status(high)["done_at"] \
                < client.status(low)["done_at"]
        finally:
            service.stop()

    def test_fleet_and_disk_cache_survive_across_runs(self, tmp_path):
        """Acceptance: the second identical submission reuses the same
        attached worker and its warm memory tier; a worker attached
        later serves a third from the warm disk tier."""
        service = start_service(tmp_path / "runs")

        def cache_stats(run_id):
            return json.loads(
                service.store.manifest_path(run_id).read_text()
            )["cache"]

        try:
            worker = start_worker_thread(service.port, max_units=2)
            client = ServiceClient(host="127.0.0.1", port=service.port)
            first = client.submit(service_spec("warmup"))["run"]
            assert client.wait(first, timeout=120)["state"] == "done"
            second = client.submit(service_spec("warmed"))["run"]
            assert client.wait(second, timeout=120)["state"] == "done"
            # One worker served both runs over one connection.
            assert worker.units_done == 2
            stats = cache_stats(second)
            assert stats["misses"] == 0
            assert stats["hits"] >= 1
            assert stats["disk_writes"] == 0
            # The first worker drained after two units; a fresh one has
            # a cold memory tier and loads the first run's artifact.
            fresh = start_worker_thread(service.port)
            third = client.submit(service_spec("fresh"))["run"]
            assert client.wait(third, timeout=120)["state"] == "done"
            assert fresh.units_done == 1
            stats = cache_stats(third)
            assert stats["misses"] == 0
            assert stats["disk_hits"] >= 1
            assert stats["disk_writes"] == 0
        finally:
            service.stop()

    def test_cancel_queued_and_inflight_runs(self, tmp_path):
        service = start_service(tmp_path / "runs")
        try:
            client = ServiceClient(host="127.0.0.1", port=service.port)
            # No workers: the first run dispatches and then waits on the
            # fleet forever; the second stays queued behind it.
            inflight = client.submit(service_spec("inflight"))["run"]
            wait_for_state(client, inflight, "running")
            queued = client.submit(service_spec("queued"))["run"]
            assert client.cancel(queued)["state"] == "cancelled"
            assert client.status(queued)["state"] == "cancelled"
            reply = client.cancel(inflight)
            assert reply["state"] == "cancelling"
            assert client.wait(inflight, timeout=30)["state"] \
                == "cancelled"
            with pytest.raises(ServiceError, match="already cancelled"):
                client.cancel(inflight)
        finally:
            service.stop()

    def test_daemon_restart_recovers_queue_and_resumes(self, tmp_path):
        """Acceptance: killing the daemon mid-queue loses nothing — a
        restart re-queues pending runs and resumes the interrupted one
        from its journal without re-executing completed units."""
        spec = service_spec("resume-me", scenarios=2)
        expected = ExperimentSpec.from_dict(spec).build_runner().run(
            backend="serial").to_csv()
        store_dir = tmp_path / "runs"
        service = start_service(store_dir)
        run_id = None
        pending = None
        try:
            client = ServiceClient(host="127.0.0.1", port=service.port)
            run_id = client.submit(spec, submitter="alice")["run"]
            pending = client.submit(service_spec("behind"),
                                    submitter="bob")["run"]
            # The worker drains after one of the two units: unit one is
            # journalled, unit two never starts, the run stays running.
            worker = start_worker_thread(service.port, max_units=1)
            deadline = time.monotonic() + 60
            while worker.units_done < 1:
                assert time.monotonic() < deadline, "unit never finished"
                time.sleep(0.05)
        finally:
            service.stop(drain=False)       # the "kill": no drain
        assert service.store.state(run_id)["state"] == "interrupted"
        assert service.store.state(pending)["state"] == "queued"

        revived = start_service(store_dir)
        try:
            start_worker_thread(revived.port)
            client = ServiceClient(host="127.0.0.1", port=revived.port)
            final = client.wait(run_id, timeout=120)
            assert final["state"] == "done"
            # Exactly one unit resumed from the journal, one appended —
            # nothing duplicated, nothing lost.
            assert final["resumed_units"] == 1
            assert final["appended_units"] == 1
            assert client.results(run_id)["csv"] == expected
            assert client.wait(pending, timeout=120)["state"] == "done"
        finally:
            revived.stop()

    def test_client_socket_requires_the_shared_token(self, tmp_path,
                                                     monkeypatch):
        service = start_service(tmp_path / "runs", token="s3cret")
        try:
            good = ServiceClient(host="127.0.0.1", port=service.port,
                                 token="s3cret")
            assert good.status()["service"]["draining"] is False
            wrong = ServiceClient(host="127.0.0.1", port=service.port,
                                  token="wrong")
            with pytest.raises((ConnectionClosed, OSError)):
                wrong.status()
            unconfigured = ServiceClient(host="127.0.0.1",
                                         port=service.port, token="")
            with pytest.raises(ProtocolError,
                               match="no token is configured"):
                unconfigured.status()
            # An authenticated worker joins the same guarded socket and
            # serves a run end to end.
            monkeypatch.setenv("REPRO_ENGINE_DIST_TOKEN", "s3cret")
            start_worker_thread(service.port)
            run_id = good.submit(service_spec("guarded"))["run"]
            assert good.wait(run_id, timeout=120)["state"] == "done"
        finally:
            service.stop()

    def test_draining_service_rejects_new_submissions(self, tmp_path):
        service = start_service(tmp_path / "runs")
        try:
            service._draining = True
            client = ServiceClient(host="127.0.0.1", port=service.port)
            with pytest.raises(ServiceError, match="shutting down"):
                client.submit(service_spec("late"))
        finally:
            service._draining = False
            service.stop()


class TestServiceCli:
    def test_cli_verbs_reach_the_daemon(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(service_spec("via-cli")))
        service = start_service(tmp_path / "runs")
        try:
            start_worker_thread(service.port)
            monkeypatch.setenv("REPRO_ENGINE_SERVICE_HOST", "127.0.0.1")
            monkeypatch.setenv("REPRO_ENGINE_SERVICE_PORT",
                               str(service.port))
            assert main(["submit", str(spec_file), "--wait"]) == 0
            run_id = capsys.readouterr().out.strip().splitlines()[0]
            assert main(["status", run_id]) == 0
            status_out = capsys.readouterr().out
            assert status_out.splitlines()[0] == f"run {run_id}"
            assert "state         : done" in status_out
            assert main(["results", run_id]) == 0
            csv_text = capsys.readouterr().out
            assert csv_text == service.store.results_path(
                run_id).read_text()
            assert main(["queue"]) == 0
            assert "inflight (0/1): -" in capsys.readouterr().out
        finally:
            service.stop()

    def test_cli_reports_an_unreachable_daemon(self, capsys):
        from repro.cli import main

        assert main(["queue", "--host", "127.0.0.1",
                     "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert "repro serve" in err
