"""The experiment service: a fleet coordinator plus a run dispatcher.

Two cooperating pieces:

:class:`FleetCoordinator` subclasses the run-scoped
:class:`~repro.engine.dist.coordinator.Coordinator` into a *persistent*
one.  It owns the single listening socket — workers and clients both
connect to it, routed by their first message — and never "completes":
idle workers receive ``wait`` and stay attached across runs, keeping
their warm :class:`~repro.engine.cache.TraceCache` tiers.  Units of
many concurrent runs share its queue (unit ids are
``<run-id>:<n>``, group indices globally offset per run), and all the
inherited assignment / heartbeat / requeue / attempt-cap machinery
works unchanged; only failure is re-scoped — a unit exhausting its
attempts fails *its run*, not the fleet.

:class:`ExperimentService` owns the durable side: the
:class:`~repro.engine.service.store.RunStore`, the
:class:`~repro.engine.service.scheduler.RunScheduler`, and one
executor thread per inflight run.  Each dispatched run executes
through the ordinary ``runner.run(backend=..., observer=...,
journal=...)`` path with a :class:`_FleetRunBackend` that feeds the
shared fleet — so journaled resume, manifests, and byte-identical
CSV/JSON output all ride the same tested machinery a standalone
``repro run`` uses.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from .. import telemetry
from ..backends import (
    Backend,
    _model_name,
    observe_unit_done,
    report_group_done,
)
from ..dist.coordinator import Coordinator, build_units
from ..dist.protocol import ProtocolError, message, send_message
from ..journal import RunJournal
from ..manifest import RunManifest, RunObserver
from ..settings import DistSettings, EngineSettings, ServiceSettings
from ..spec import ExperimentSpec
from .scheduler import RunScheduler
from .store import RunStore, TERMINAL_STATES


class RunCancelled(RuntimeError):
    """An inflight run was cancelled by a client request."""


class ServiceStopped(RuntimeError):
    """The service is shutting down; the run is journaled and resumable."""


class ActiveRun:
    """Fleet-side state of one executing run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.runner = None            # set before units are enqueued
        self.groups = ()              # this run's pending work groups
        self.base_index = None        # global offset of group indices
        self.unit_ids = set()
        self.observed = 0             # groups booked to journal/observer
        self.failure = None           # exception ending the run early


class FleetCoordinator(Coordinator):
    """A coordinator that outlives any single run.

    Constructed with *no* units; runs add theirs via :meth:`add_run`
    and collect rows with :meth:`wait_run`.  Client connections (first
    message not ``hello``) are handed to the owning service.
    """

    def __init__(self, settings: DistSettings, cache_dir: str,
                 service=None, on_group_done=None):
        super().__init__([], settings, cache_dir=cache_dir,
                         on_group_done=on_group_done)
        self.service = service
        self._closing = False
        self._runs = {}               # run id -> ActiveRun
        self._next_index = 0

    # -- base-class seams --------------------------------------------------

    def _completed(self) -> bool:
        """The fleet is 'complete' only when closing — idle workers
        get ``wait`` between runs instead of ``shutdown``."""
        return self._closing

    def _register_failure(self, unit_id, error) -> None:
        """Scope an attempt-cap exhaustion to the unit's own run."""
        run = self._runs.get(str(unit_id).split(":", 1)[0])
        if run is None:
            return
        self._withdraw_locked(run, error)

    def _handle_peer(self, conn, first: dict) -> None:
        """Route an authenticated non-worker connection to the service."""
        if self.service is None:
            conn.close()
            return
        self.service.handle_client(conn, first)

    # -- run lifecycle -----------------------------------------------------

    def allocate_indices(self, count: int) -> int:
        """Reserve a block of global group indices; return its base."""
        with self._cond:
            base = self._next_index
            self._next_index += count
            return base

    def add_run(self, run: ActiveRun, units: list) -> None:
        """Enqueue one run's (already id-rewritten) units on the fleet."""
        with self._cond:
            self._runs[run.run_id] = run
            self.stats["units"] += len(units)
            for unit in units:
                unit_id = unit["unit"]
                self._units[unit_id] = unit
                self._attempts[unit_id] = 0
                self._history[unit_id] = []
                self._pending.append(unit_id)
            self._cond.notify_all()

    def wait_run(self, run: ActiveRun) -> dict:
        """Block until one run's units are all done; return its rows.

        Returns ``{global group index: [SimResult, ...]}`` and retires
        the run's bookkeeping.  Raises the run's failure (attempt-cap
        exhaustion, cancellation, or :class:`ServiceStopped`) instead.
        """
        total = len(run.groups)
        with self._cond:
            while (run.failure is None and not self._closing
                   and not (run.unit_ids <= self._done
                            and run.observed >= total)):
                self._cond.wait(0.2)
            if run.failure is None and self._closing \
                    and not run.unit_ids <= self._done:
                self._withdraw_locked(
                    run, ServiceStopped(
                        "service shutting down; completed units are "
                        "journaled and the run resumes on restart"
                    ),
                )
            if run.failure is not None:
                self._runs.pop(run.run_id, None)
                raise run.failure
            rows = {
                index: self._rows.pop(index)
                for index in range(run.base_index,
                                   run.base_index + total)
            }
            self._retire_locked(run)
            return rows

    def cancel_run(self, run: ActiveRun, error) -> None:
        """Withdraw one run's units and fail it with ``error``."""
        with self._cond:
            self._withdraw_locked(run, error)

    def run_for_index(self, index: int):
        """The active run owning one global group index, or None."""
        with self._cond:
            for run in self._runs.values():
                if run.base_index is not None and \
                        run.base_index <= index \
                        < run.base_index + len(run.groups):
                    return run
        return None

    def close_fleet(self) -> None:
        """Start answering worker requests with ``shutdown``."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()

    # -- internals (condition lock held) -----------------------------------

    def _retire_locked(self, run: ActiveRun) -> None:
        self._runs.pop(run.run_id, None)
        for unit_id in run.unit_ids:
            self._units.pop(unit_id, None)
            self._attempts.pop(unit_id, None)
            self._history.pop(unit_id, None)
            self._done.discard(unit_id)

    def _withdraw_locked(self, run: ActiveRun, error) -> None:
        """Pull one run's units out of every queue and fail it.

        Results still streaming in for withdrawn units are ignored by
        the base handler (the unit id is no longer registered), so a
        worker mid-execution simply finishes into the void and pulls
        fresh work.
        """
        survivors = [unit_id for unit_id in self._pending
                     if unit_id not in run.unit_ids]
        self._pending.clear()
        self._pending.extend(survivors)
        for unit_id in run.unit_ids:
            self._units.pop(unit_id, None)
            self._attempts.pop(unit_id, None)
            self._history.pop(unit_id, None)
            self._inflight.pop(unit_id, None)
            self._done.discard(unit_id)
        if run.base_index is not None:
            for index in range(run.base_index,
                               run.base_index + len(run.groups)):
                self._rows.pop(index, None)
        if run.failure is None:
            run.failure = error
        self._cond.notify_all()


class _FleetRunBackend(Backend):
    """Execute one run's plan on the service's shared worker fleet.

    A per-run, single-use :class:`Backend`: serialize the plan into
    globally-unique units, enqueue them on the fleet, and block until
    the run's rows are in.  The fleet's workers trace what they
    simulate, through the service cache dir the welcome announced.
    """

    name = "service-fleet"

    def __init__(self, service, run: ActiveRun):
        self.service = service
        self.run = run

    def execute(self, runner, groups: list) -> list:
        """Enqueue and await this run's groups on the fleet."""
        if not groups:
            return []
        fleet = self.service.fleet
        run = self.run
        units = build_units(runner, groups, fleet.settings.chunksize)
        base = fleet.allocate_indices(len(groups))
        run.runner = runner
        run.groups = list(groups)
        run.base_index = base
        for unit in units:
            unit["unit"] = f"{run.run_id}:{unit['unit']}"
            for entry in unit["groups"]:
                entry["index"] += base
        run.unit_ids = {unit["unit"] for unit in units}
        fleet.add_run(run, units)
        rows_by_index = fleet.wait_run(run)
        return [rows_by_index[base + offset]
                for offset in range(len(groups))]


class ExperimentService:
    """The ``repro serve`` daemon: socket, fleet, queue and store.

    Args:
        settings: Resolved :class:`ServiceSettings`; ``None`` resolves
            from the environment.
        dist: Resolved :class:`DistSettings` for the fleet's protocol
            knobs (timeouts, chunksize, auth token); ``None``
            resolves from the environment.  The fleet always binds the
            *service* host/port, and its start timeout is disabled —
            queued runs wait for workers instead of failing.
    """

    def __init__(self, settings: ServiceSettings = None,
                 dist: DistSettings = None):
        self.settings = settings or ServiceSettings.resolve()
        self.store = RunStore(self.settings.store_dir)
        cache_dir = EngineSettings.resolve_one("cache_dir")
        if cache_dir is None:
            cache_dir = str(self.store.root / "trace-cache")
        self.cache_dir = cache_dir
        base = dist or DistSettings.resolve()
        self.dist = dataclasses.replace(
            base, host=self.settings.host, port=self.settings.port,
            start_timeout=365 * 24 * 3600.0,
        )
        self.scheduler = RunScheduler(
            max_inflight=self.settings.max_inflight,
            submitter_cap=self.settings.submitter_cap,
        )
        self.fleet = FleetCoordinator(
            self.dist, cache_dir, service=self,
            on_group_done=self._group_done,
        )
        self._lock = threading.Lock()       # scheduler + store moves
        self._wake = threading.Event()      # kicks the dispatch loop
        self._stopping = threading.Event()  # ends the dispatch loop
        self._stop_signal = threading.Event()
        self._draining = False
        self._active = {}                   # run id -> ActiveRun
        self._threads = {}                  # run id -> executor thread
        self._dispatcher = None
        self._gauge_bands = set()           # priority bands seen by scrapes
        telemetry.metrics().add_collector(self._collect_fleet_gauges)

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; differs when port 0)."""
        return self.fleet.port

    def start(self) -> None:
        """Bind the socket, recover the stored queue, start dispatch."""
        self.fleet.start()
        self.recover()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def recover(self) -> int:
        """Re-queue every non-terminal stored run; return the count.

        ``running`` records (a daemon killed mid-run) come back as
        ``interrupted``; their journals make re-dispatch a resume.
        """
        recovered = self.store.recoverable()
        with self._lock:
            for state in recovered:
                self.scheduler.submit(
                    state["run"],
                    priority=int(state.get("priority") or 0),
                    submitter=str(state.get("submitter") or "anon"),
                )
        if recovered:
            self.fleet._log(
                f"recovered {len(recovered)} run(s) from "
                f"{self.store.root}"
            )
        self._wake.set()
        return len(recovered)

    def request_stop(self) -> None:
        """Signal-handler-safe shutdown request (see :meth:`serve_forever`)."""
        self._stop_signal.set()

    def serve_forever(self) -> int:
        """Block until :meth:`request_stop`, then drain and stop."""
        while not self._stop_signal.wait(0.2):
            pass
        self.stop(drain=True)
        return 0

    def stop(self, drain: bool = True, timeout: float = None) -> None:
        """Shut the service down.

        With ``drain`` (the SIGTERM path): refuse new submissions, let
        inflight runs keep executing up to ``timeout`` (default
        ``drain_timeout``) — every completed unit is already journaled
        — then interrupt whatever remains, mark it resumable, and send
        the workers ``shutdown``.  Queued runs stay ``queued`` in the
        store, so a restarted daemon picks the whole queue back up.

        Without ``drain`` (the hard path, and what a kill approximates):
        interrupt immediately.
        """
        with self._lock:
            self._draining = True
        self._stopping.set()
        self._wake.set()
        if drain:
            budget = (timeout if timeout is not None
                      else self.settings.drain_timeout)
            deadline = time.monotonic() + budget
            while time.monotonic() < deadline and self._active:
                time.sleep(0.05)
        for run in list(self._active.values()):
            self.fleet.cancel_run(run, ServiceStopped(
                "service shutting down; completed units are journaled "
                "and the run resumes on restart"
            ))
        for thread in list(self._threads.values()):
            thread.join(timeout=5.0)
        self.fleet.close_fleet()
        # Give attached workers a request cycle to pull the shutdown
        # reply and exit 0 rather than seeing a dropped socket.
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline \
                and self.fleet.worker_snapshot():
            time.sleep(0.1)
        self.fleet.shutdown()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=2.0)
        telemetry.metrics().remove_collector(self._collect_fleet_gauges)

    # -- intake ------------------------------------------------------------

    def submit(self, spec: dict, priority: int = 0,
               submitter: str = "anon") -> dict:
        """Validate, durably record and queue one submission."""
        validated = ExperimentSpec.from_dict(spec).to_dict()
        with self._lock:
            if self._draining:
                raise ValueError(
                    "service is shutting down; not accepting submissions"
                )
            state = self.store.create(validated, priority=priority,
                                      submitter=submitter)
            self.scheduler.submit(state["run"], priority=priority,
                                  submitter=submitter)
        self._wake.set()
        return state

    def cancel(self, run_id: str) -> dict:
        """Cancel one run wherever it is; return its updated state."""
        with self._lock:
            stored = self.store.state(run_id)     # KeyError on unknown
            where = self.scheduler.cancel(run_id)
            if where == "queued":
                return self.store.update(run_id, state="cancelled")
            run = self._active.get(run_id)
        if where == "inflight" and run is not None:
            self.fleet.cancel_run(run, RunCancelled(
                f"run {run_id} cancelled while inflight"
            ))
            return dict(stored, state="cancelling")
        if stored.get("state") in TERMINAL_STATES:
            raise ValueError(
                f"run {run_id} is already {stored['state']}"
            )
        raise ValueError(f"run {run_id} is not cancellable right now")

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(0.2)
            self._wake.clear()
            while True:
                with self._lock:
                    if self._draining:
                        break
                    run_id = self.scheduler.next()
                    if run_id is None:
                        break
                    self.scheduler.start(run_id)
                    thread = threading.Thread(
                        target=self._execute, args=(run_id,),
                        name=f"repro-service-run-{run_id}", daemon=True,
                    )
                    self._threads[run_id] = thread
                thread.start()

    def _execute(self, run_id: str) -> None:
        """Run one dispatched submission end to end (its own thread)."""
        outcome = "failed"
        run = ActiveRun(run_id)
        self._active[run_id] = run
        try:
            self.store.update(run_id, state="running")
            spec = ExperimentSpec.from_dict(self.store.spec(run_id))
            runner = spec.build_runner(cache_dir=self.cache_dir)
            journal = RunJournal(self.store.journal_path(run_id))
            observer = RunObserver()
            table = runner.run(backend=_FleetRunBackend(self, run),
                               observer=observer, journal=journal)
            table.to_json(path=self.store.results_path(run_id, "json"))
            table.to_csv(path=self.store.results_path(run_id, "csv"))
            observer.record_dist(dict(self.fleet.stats),
                                 list(self.fleet.roster),
                                 settings=self.dist.as_dict())
            manifest = RunManifest.collect(runner, table,
                                           observer=observer,
                                           journal=journal,
                                           backend="dist")
            manifest.write(self.store.manifest_path(run_id))
            self.store.update(
                run_id, state="done", rows=len(table),
                resumed_units=journal.resumed_units,
                appended_units=journal.appended_units,
            )
            outcome = "done"
        except RunCancelled:
            self.store.update(run_id, state="cancelled")
            outcome = "cancelled"
        except ServiceStopped:
            # Drained shutdown: the journal holds every completed unit
            # and the stored state re-queues on the next daemon start.
            self.store.update(run_id, state="interrupted")
            outcome = "interrupted"
        except Exception as error:  # noqa: BLE001 — booked to the store
            self.store.update(run_id, state="failed", error=str(error))
            self.fleet._log(f"run {run_id} failed: {error}")
        finally:
            self._active.pop(run_id, None)
            self._threads.pop(run_id, None)
            with self._lock:
                self.scheduler.finish(run_id, outcome)
            self._wake.set()

    def _group_done(self, index: int, rows, seconds: float,
                    worker_id: str, cache: dict = None) -> None:
        """Fleet callback: book one accepted group to its run.

        Rides the same :func:`observe_unit_done` seam as every other
        backend — the journal write happens here, durably, *before*
        the run can complete, which is what makes a drained or killed
        daemon resumable with no lost units; the worker's cache delta
        lands in the run's manifest the same way.
        """
        run = self.fleet.run_for_index(index)
        if run is None or run.runner is None:
            return
        group = run.groups[index - run.base_index]
        observe_unit_done(run.runner, group.scenario.name,
                          _model_name(group.model), seconds, rows,
                          worker=worker_id, cache=cache)
        report_group_done(run.runner)
        with self.fleet._cond:
            run.observed += 1
            self.fleet._cond.notify_all()

    # -- client connections ------------------------------------------------

    def handle_client(self, conn, first: dict) -> None:
        """Answer one (already authenticated) client request and close."""
        try:
            reply = self._client_reply(first)
        except KeyError as error:
            reply = message("error", error=str(error.args[0])
                            if error.args else str(error))
        except ValueError as error:
            reply = message("error", error=str(error))
        try:
            send_message(conn, reply)
        except (ProtocolError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _client_reply(self, msg: dict) -> dict:
        kind = msg.get("type")
        if kind == "submit":
            state = self.submit(
                msg.get("spec"),
                priority=int(msg.get("priority") or 0),
                submitter=str(msg.get("submitter") or "anon"),
            )
            return message("submitted", **state)
        if kind == "status":
            run_id = msg.get("run")
            if run_id is None:
                return self._summary_reply()
            state = self.store.state(run_id)
            seconds = self._journal_seconds(run_id)
            if seconds is not None:
                state.setdefault("unit_seconds", seconds)
            return message("status", **state)
        if kind == "results":
            return self._results_reply(msg.get("run"))
        if kind == "cancel":
            return message("cancelled", **self.cancel(msg.get("run")))
        if kind == "queue":
            with self._lock:
                return message("queue", **self.scheduler.snapshot())
        if kind == "metrics":
            return message("metrics", **telemetry.metrics().snapshot())
        raise ValueError(f"unknown request type {kind!r}")

    def _summary_reply(self) -> dict:
        with self._lock:
            snapshot = self.scheduler.snapshot()
        return message(
            "status",
            service={
                "host": self.settings.host,
                "port": self.port,
                "store_dir": str(self.store.root),
                "draining": self._draining,
            },
            queue=snapshot,
            workers=self.fleet.worker_snapshot(),
        )

    def _journal_seconds(self, run_id: str) -> float:
        """Total journaled unit seconds for one run, or ``None``.

        The same total ``repro journal inspect --timings`` computes
        from the run's journal file — surfaced in the run's status
        reply so operators see it without store access.
        """
        path = self.store.journal_path(run_id)
        if not path.exists():
            return None
        from ..journal import read_journal

        try:
            info = read_journal(path)
        except (OSError, ValueError):
            return None
        return round(sum(float(record.get("seconds") or 0.0)
                         for record in info["units"]), 6)

    def _collect_fleet_gauges(self) -> None:
        """Registry collector: live fleet/queue gauges, set at scrape time.

        Runs under the registry's collector pass (metrics verb,
        Prometheus scrape, manifest snapshot), so the gauges always
        reflect the moment of observation instead of per-transition
        bookkeeping.  Bands seen once keep reporting (as zero) so a
        drained band's series drops to 0 rather than going stale.
        """
        registry = telemetry.metrics()
        with self._lock:
            snapshot = self.scheduler.snapshot()
        depth = {}
        for entry in snapshot.get("queued") or []:
            band = int(entry.get("priority") or 0)
            depth[band] = depth.get(band, 0) + 1
        self._gauge_bands.update(depth)
        for band in self._gauge_bands:
            registry.gauge("repro_queue_depth", depth.get(band, 0),
                           band=str(band))
        registry.gauge("repro_inflight_runs",
                       len(snapshot.get("inflight") or []))
        registry.gauge("repro_workers_connected",
                       len(self.fleet.worker_snapshot()))

    def _results_reply(self, run_id: str) -> dict:
        state = self.store.state(run_id)          # KeyError on unknown
        if state.get("state") != "done":
            raise ValueError(
                f"run {run_id} is {state.get('state')!r}; results are "
                f"available once it is done"
            )
        manifest_path = self.store.manifest_path(run_id)
        return message(
            "results",
            run=run_id,
            state=state,
            csv=self.store.results_path(run_id, "csv").read_text(),
            json=self.store.results_path(run_id, "json").read_text(),
            manifest=(manifest_path.read_text()
                      if manifest_path.exists() else None),
        )
