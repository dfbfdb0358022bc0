"""The distributed coordinator and the ``"dist"`` execution backend.

:class:`DistBackend` is a :class:`~repro.engine.backends.Backend` like
any other — ``ExperimentRunner`` hands it the planned work groups and
gets back one row list per group — but execution happens on remote
worker processes started with ``repro worker --connect HOST:PORT``:

1. **Serialization.**  Each work group (one scenario x model with its
   surviving simulators) becomes a self-contained
   :class:`~repro.engine.spec.ExperimentSpec` dict — exactly the JSON a
   spec file carries, restricted to that group — so a worker needs
   nothing but the ``repro`` package to execute it.  Groups are chunked
   into *units* (``DistBackend(chunksize=...)`` groups per dispatch,
   default :data:`CHUNKSIZE`), the granularity of scheduling and of
   requeue.
2. **Tracing where it is simulated.**  A work group is one (scenario,
   model), so the worker that simulates a group traces its frames,
   through a worker-lifetime :class:`~repro.engine.cache.TraceCache`
   over the run's own disk tier (``runner.settings.cache_dir``,
   announced in the ``welcome`` handshake) — the tier the process
   backend's workers use.  Every unique frame is traced once, with no
   pass over the plan before dispatch; artifacts a previous run left in
   the tier (shared storage in a real deployment) load by content key.
   Each group's cache counter delta rides home in its ``result`` frame,
   so the run manifest counts the fleet's lookups.
3. **Pull scheduling.**  Workers *request* units when idle
   (work-stealing semantics: fast workers simply pull more), execute
   them serially, and stream row records back.
4. **Fault tolerance.**  Workers heartbeat on a fixed interval; a
   worker that goes silent while holding a unit, dies (closed socket),
   reports an execution error, or exceeds the per-unit timeout has its
   unit requeued onto the surviving workers.  Each unit carries an
   attempt cap — exhausting it fails the run with a
   :class:`DistRunError` naming the unit — and results are keyed by
   unit, so the table is deterministic regardless of which worker ran
   what (duplicate results from a presumed-dead worker are ignored).

Because results travel as JSON records, returned rows match the serial
backend's rows *as serialized*: ``extras``/``per_layer`` carry their
JSON-safe projection, and CSV/JSON outputs are byte-identical to a
serial run's.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from datetime import datetime, timezone

from .. import faults, telemetry
from ..backends import (
    Backend,
    BackendUnavailable,
    _model_name,
    journal_of,
    observe_unit_done,
    observer_of,
    report_group_done,
)
from ..registry import register_backend
from ..result import _record_to_result
from ..settings import (
    DIST_TOKEN_ENV_VAR,
    DistSettings,
    positive_float,
    positive_int,
)
from .protocol import (
    ProtocolError,
    auth_nonce,
    message,
    recv_message,
    send_message,
    verify_digest,
)


#: Work groups per dispatched unit (the requeue granularity — 1 gives
#: the finest-grained work stealing).
CHUNKSIZE = 1

#: Seconds a unit may execute before its worker is presumed wedged and
#: the unit is requeued.
UNIT_TIMEOUT = 300.0

#: Seconds between worker heartbeats (the coordinator tells workers).
HEARTBEAT_INTERVAL = 1.0

#: Seconds of heartbeat silence before a worker holding work is
#: declared dead.
WORKER_TIMEOUT = 10.0

#: Dispatch attempts per unit before the run fails.
MAX_ATTEMPTS = 3

#: Seconds the coordinator tolerates having zero connected workers (at
#: startup and after losing all of them).
START_TIMEOUT = 60.0


class DistRunError(RuntimeError):
    """A distributed run that could not complete (unit exhausted its
    attempt cap, or the worker fleet disappeared).

    An attempt-cap failure carries ``attempts``: the failed unit's full
    dispatch history as dicts (worker id, assignment/failure timestamps,
    failure reason), so the error names more than the unit.
    """

    #: Per-attempt history dicts of the failing unit (may be empty).
    attempts = ()


class DistStartTimeout(BackendUnavailable, DistRunError):
    """No worker connected within ``start_timeout`` — the dist backend
    never started.  Subclasses :class:`BackendUnavailable` so a run
    with the ``degrade`` knob on falls down the backend ladder
    (process, then serial) instead of failing."""


def _utc_now() -> str:
    """Wall-clock timestamp for attempt histories (ISO-8601, UTC)."""
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


# ---------------------------------------------------------------------------
# Work-unit serialization
# ---------------------------------------------------------------------------


#: Knobs every work unit pins over the run's own values: a worker runs
#: its unit in-process, takes its cache dir from the welcome handshake,
#: and leaves fault plans and backend degradation to the coordinator
#: (``None`` inherits the worker's own environment).
UNIT_KNOBS = {"backend": "serial", "workers": 1, "cache_dir": None,
              "faults": None, "degrade": None}


def group_spec_dict(runner, group, base: dict = None,
                    index_of: dict = None) -> dict:
    """One work group as a self-contained ExperimentSpec dict.

    The group's simulator *instances* are mapped back to the source
    spec's registry strings by identity, so the worker re-resolves the
    same factories; the cell filter is already baked in (the group only
    carries surviving simulators), hence ``cells`` is empty.
    ``base``/``index_of`` let :func:`build_units` hoist the (identical)
    spec serialization and identity map out of its per-group loop.
    """
    if base is None:
        base = runner.source_spec.to_dict()
    if index_of is None:
        index_of = {
            id(simulator): position
            for position, simulator in enumerate(runner.simulators)
        }
    simulators = [
        base["simulators"][index_of[id(simulator)]]
        for simulator in group.simulators
    ]
    scenario = group.scenario
    return {
        "version": base["version"],
        "name": base["name"],
        "simulators": simulators,
        "models": [_model_name(group.model)],
        "scenarios": [{
            "name": scenario.name,
            "seed": scenario.seed,
            "frames": scenario.frames,
        }],
        **runner.settings.as_dict(),
        **UNIT_KNOBS,
        "frame_provider": base["frame_provider"],
        "cells": [],
        "out": None,
    }


def build_units(runner, groups: list, chunksize: int) -> list:
    """The dispatchable units of one plan: chunked, labelled, indexed."""
    base = runner.source_spec.to_dict()
    index_of = {
        id(simulator): position
        for position, simulator in enumerate(runner.simulators)
    }
    payload = [
        {"index": index,
         "spec": group_spec_dict(runner, group, base, index_of)}
        for index, group in enumerate(groups)
    ]
    labels = [
        f"{group.scenario.name}/{_model_name(group.model)}"
        for group in groups
    ]
    units = []
    for unit_id, start in enumerate(range(0, len(payload), chunksize)):
        chunk = payload[start:start + chunksize]
        units.append({
            "unit": unit_id,
            "groups": chunk,
            "label": ", ".join(labels[entry["index"]] for entry in chunk),
        })
    return units


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(self, sock, worker_id: str, pid: int):
        self.sock = sock
        self.worker_id = worker_id
        self.pid = pid
        self.last_seen = time.monotonic()
        self.inflight = None          # unit id this worker is executing
        self.dead = False
        self.graceful = False         # announced goodbye (drain mode)

    def close(self) -> None:
        """Tear the worker's socket down, both directions."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class Coordinator:
    """Serve one run's units to pulling workers, fault-tolerantly.

    The coordinator is run-scoped: :meth:`serve` binds the listening
    socket, dispatches every unit, and returns the decoded rows per
    group index (or raises :class:`DistRunError`).  All shared state is
    guarded by one condition variable; per-connection handler threads,
    the accept loop and the timeout monitor coordinate through it.

    ``settings`` gives the bind address and the handshake token; the
    keyword-only timeouts and attempt cap default to this module's
    constants and are taken as given (:class:`DistBackend` validates
    them).
    """

    def __init__(self, units: list, settings: DistSettings,
                 cache_dir: str = None, on_unit_done=None,
                 on_group_done=None, *, unit_timeout=UNIT_TIMEOUT,
                 heartbeat_interval=HEARTBEAT_INTERVAL,
                 worker_timeout=WORKER_TIMEOUT, max_attempts=MAX_ATTEMPTS,
                 start_timeout=START_TIMEOUT):
        self.settings = settings
        self.unit_timeout = unit_timeout
        self.heartbeat_interval = heartbeat_interval
        self.worker_timeout = worker_timeout
        self.max_attempts = max_attempts
        self.start_timeout = start_timeout
        self.cache_dir = cache_dir
        self.on_unit_done = on_unit_done
        #: Optional per-group stats callback ``(group_index, rows,
        #: seconds, worker_id, cache)``, fired once per group of each
        #: first *accepted* unit result (requeued duplicates never
        #: re-fire) — how :class:`DistBackend` feeds worker-side
        #: timings and cache counter deltas into a
        #: :class:`~repro.engine.manifest.RunObserver`.
        self.on_group_done = on_group_done
        self._units = {unit["unit"]: unit for unit in units}
        self._attempts = {unit["unit"]: 0 for unit in units}
        #: unit id -> list of attempt dicts (worker, timestamps,
        #: failure reason) — attached to the DistRunError when a unit
        #: exhausts its cap, so the failure names every try.
        self._history = {unit["unit"]: [] for unit in units}
        self._last_error = {}
        self._pending = deque(unit["unit"] for unit in units)
        self._inflight = {}           # unit id -> (worker, deadline)
        self._done = set()
        self._rows = {}               # group index -> [SimResult, ...]
        self._failure = None
        self._cond = threading.Condition()
        # Keyed by connection object identity, never by the
        # worker-supplied name: two workers may legitimately announce
        # the same id (identical container hostnames and pids), and a
        # collision must not let one connection's death reap the other.
        self._workers = {}            # id(_WorkerConn) -> _WorkerConn
        self._stop = threading.Event()
        self._no_worker_since = None  # set while zero workers are live
        self._listener = None
        self._threads = []
        self.port = None
        self.stats = {
            "units": len(units),
            "workers_seen": 0,
            "requeues": 0,
            "worker_failures": 0,
        }
        #: Every worker that ever completed the handshake, in arrival
        #: order — the manifest's worker roster (worker_snapshot() only
        #: shows currently-live workers).
        self.roster = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start serving connections (idempotent).

        Separated from :meth:`serve` so a coordinator can listen (and
        report its bound :attr:`port`) before anything waits on
        completion.
        """
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.settings.host, self.settings.port))
        except OSError as error:
            listener.close()
            raise DistRunError(
                f"coordinator cannot bind "
                f"{self.settings.host}:{self.settings.port}: {error}"
            ) from None
        listener.listen()
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._no_worker_since = time.monotonic()
        self._threads = [
            threading.Thread(target=self._accept_loop,
                             name="repro-dist-accept", daemon=True),
            threading.Thread(target=self._monitor_loop,
                             name="repro-dist-monitor", daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def shutdown(self, close_workers: bool = True) -> None:
        """Stop threads and close sockets (idempotent, safe anytime)."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if close_workers:
            with self._cond:
                workers = list(self._workers.values())
            for worker in workers:
                worker.close()

    def serve(self) -> dict:
        """Dispatch every unit; block until done; return rows per group.

        Raises:
            DistRunError: a unit exhausted its attempt cap, or no
                workers were available for ``start_timeout`` seconds.
        """
        self.start()
        try:
            with self._cond:
                while self._failure is None and not self._completed():
                    self._cond.wait(0.2)
                failure = self._failure
        finally:
            # On failure, busy workers are executing doomed units; cut
            # them loose instead of letting them stream stale results.
            # On success, leave the sockets open so the handlers can
            # answer each worker's next request with ``shutdown``.
            self.shutdown(close_workers=self._failure is not None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        if failure is not None:
            raise failure
        return dict(self._rows)

    def _completed(self) -> bool:
        return len(self._done) == len(self._units)

    def worker_snapshot(self) -> list:
        """Live workers as dicts (id, pid, in-flight unit) — for tests
        and operator tooling."""
        with self._cond:
            return [
                {
                    "worker": worker.worker_id,
                    "pid": worker.pid,
                    "inflight": worker.inflight,
                }
                for worker in self._workers.values()
                if not worker.dead
            ]

    # -- accept / per-worker handler ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_worker, args=(conn,),
                             name="repro-dist-worker", daemon=True).start()

    def _log(self, text: str) -> None:
        """Operational chatter — stderr, like the worker's log lines."""
        telemetry.log_line(f"[repro coordinator] {text}")

    def _authenticate(self, conn, first: dict) -> bool:
        """Challenge the peer when a token is configured.

        The peer's *first* message is already read; with a token set,
        a ``challenge`` goes out and the next message must be a valid
        ``auth`` before that first message is processed.  Returns False
        (peer logged and dropped) on any handshake failure.
        """
        token = self.settings.token
        if not token:
            return True
        nonce = auth_nonce()
        send_message(conn, message("challenge", nonce=nonce))
        try:
            reply = recv_message(conn)
        except (ProtocolError, OSError):
            reply = {}
        if (reply.get("type") != "auth"
                or not verify_digest(token, nonce, reply.get("digest"))):
            peer = first.get("worker") or first.get("type") or "peer"
            self._log(
                f"dropping unauthenticated {peer!r} (failed the "
                f"{DIST_TOKEN_ENV_VAR} challenge)"
            )
            try:
                conn.close()
            except OSError:
                pass
            return False
        return True

    def _serve_worker(self, conn) -> None:
        # Workers heartbeat every heartbeat_interval even while idle,
        # so worker_timeout seconds of pure socket silence means the
        # host vanished without FIN/RST.  A read timeout here is what
        # catches a silently-dead *idle* worker (the monitor only
        # watches workers holding units) — without it a dead idle
        # worker keeps the run registered as "has workers" forever.
        conn.settimeout(max(self.worker_timeout, 2 * self.heartbeat_interval))
        worker = None
        try:
            hello = recv_message(conn)
            if not self._authenticate(conn, hello):
                return
            if hello.get("type") != "hello":
                return        # only workers are served: drop the peer
            worker = _WorkerConn(
                conn,
                worker_id=str(hello.get("worker") or f"worker-{id(conn)}"),
                pid=hello.get("pid"),
            )
            with self._cond:
                self.stats["workers_seen"] += 1
                self._workers[id(worker)] = worker
                self.roster.append({"worker": worker.worker_id,
                                    "pid": worker.pid})
                self._no_worker_since = None
            send_message(conn, message(
                "welcome",
                cache_dir=self.cache_dir,
                heartbeat_interval=self.heartbeat_interval,
                telemetry=telemetry.active_tracer() is not None,
            ))
            while True:
                msg = recv_message(conn)
                kind = msg.get("type")
                if kind == "heartbeat":
                    with self._cond:
                        worker.last_seen = time.monotonic()
                elif kind == "request":
                    if not self._handle_request(worker):
                        return
                elif kind == "result":
                    self._handle_result(worker, msg)
                elif kind == "error":
                    self._handle_error(worker, msg)
                elif kind == "goodbye":
                    # Announced exit (drain mode): not a failure.
                    worker.graceful = True
                    return
                # Unknown types are ignored (forward compatibility).
        except (ProtocolError, OSError):
            pass
        finally:
            if worker is not None:
                self._reap(worker, "connection lost")
            else:
                try:
                    conn.close()
                except OSError:
                    pass

    #: How long a request may idle-wait before the coordinator answers
    #: ``wait`` (the worker immediately re-requests).  Guaranteed
    #: traffic lets workers run a bounded read timeout instead of
    #: blocking forever on a coordinator host that vanished.
    IDLE_REPLY_SECONDS = 2.0

    def _handle_request(self, worker) -> bool:
        """Assign the next unit (blocking until one is available).

        Returns False after replying ``shutdown`` — the handler then
        drops the connection.
        """
        idle_deadline = time.monotonic() + self.IDLE_REPLY_SECONDS
        # The span covers request arrival to reply choice: the time a
        # ready worker sat waiting for the scheduler to hand it a unit.
        with telemetry.span("queue-wait", "scheduler",
                            worker=worker.worker_id), self._cond:
            while True:
                if worker.dead:
                    return False
                if self._failure is not None or self._completed():
                    reply = message("shutdown")
                    break
                worker.last_seen = time.monotonic()
                if self._pending:
                    unit_id = self._pending.popleft()
                    self._attempts[unit_id] += 1
                    self._history[unit_id].append({
                        "attempt": self._attempts[unit_id],
                        "worker": worker.worker_id,
                        "assigned_at": _utc_now(),
                    })
                    deadline = time.monotonic() + self.unit_timeout
                    self._inflight[unit_id] = (worker, deadline)
                    worker.inflight = unit_id
                    unit = self._units[unit_id]
                    reply = message("unit", unit=unit_id,
                                    groups=unit["groups"])
                    break
                if time.monotonic() >= idle_deadline:
                    reply = message("wait")
                    break
                # Idle: wait for a requeue or for completion.
                self._cond.wait(0.25)
        # Chaos harness: coordinator_drop:unit=N raises here (an
        # OSError), so the handler reaps this connection and the unit
        # requeues — the worker must survive the dropped socket.
        if reply["type"] == "unit":
            faults.check("coordinator.assign", unit=reply.get("unit"),
                         worker=worker.worker_id)
        send_message(worker.sock, reply)
        return reply["type"] != "shutdown"

    def _handle_result(self, worker, msg: dict) -> None:
        unit_id = msg.get("unit")
        decoded = {
            int(index): [_record_to_result(record) for record in records]
            for index, records in (msg.get("groups") or {}).items()
        }
        timings = msg.get("timings") or {}
        deltas = msg.get("cache") or {}
        with self._cond:
            worker.last_seen = time.monotonic()
            if worker.inflight == unit_id:
                worker.inflight = None
            if unit_id not in self._units or unit_id in self._done:
                return            # duplicate from a presumed-dead worker
            self._inflight.pop(unit_id, None)
            # A stale worker may complete a unit that was already
            # requeued; first valid result wins (rows are deterministic).
            try:
                self._pending.remove(unit_id)
            except ValueError:
                pass
            self._rows.update(decoded)
            self._done.add(unit_id)
            for entry in reversed(self._history.get(unit_id, [])):
                if (entry["worker"] == worker.worker_id
                        and "failed_at" not in entry):
                    entry["completed_at"] = _utc_now()
                    break
            self._cond.notify_all()
        # Only an *accepted* result reaches this point (duplicates
        # returned above, still holding their spans) — so a resent
        # unit's spans and row counts book exactly once, from
        # whichever worker's result won, like the stats below.
        tracer = telemetry.active_tracer()
        spans = msg.get("spans")
        if spans and tracer is not None:
            tracer.ingest(spans, worker.worker_id)
        # Callbacks run outside the lock; stats ride the same accepted
        # result as the rows, so requeued units still report exactly
        # once, from whichever worker's result won.
        if self.on_group_done is not None:
            for index, rows in decoded.items():
                self.on_group_done(
                    index, rows,
                    float(timings.get(str(index)) or 0.0),
                    worker.worker_id,
                    deltas.get(str(index)),
                )
        if self.on_unit_done is not None:
            self.on_unit_done(len(decoded))

    def _handle_error(self, worker, msg: dict) -> None:
        unit_id = msg.get("unit")
        with self._cond:
            worker.last_seen = time.monotonic()
            if worker.inflight == unit_id:
                worker.inflight = None
            # Only the current owner's error counts: a stale report
            # from a worker whose unit was already requeued (timeout
            # races) must not pop another worker's assignment.
            entry = self._inflight.get(unit_id)
            if entry is not None and entry[0] is worker:
                self._inflight.pop(unit_id)
                self._requeue_or_fail(
                    unit_id,
                    f"failed on worker {worker.worker_id!r}: "
                    f"{msg.get('error')}",
                )
            self._cond.notify_all()

    # -- fault handling ----------------------------------------------------

    def _requeue_or_fail(self, unit_id, reason: str) -> None:
        """Requeue one unit, or fail the run at the attempt cap.

        Caller holds the condition lock.
        """
        self._last_error[unit_id] = reason
        history = self._history.get(unit_id, [])
        for entry in reversed(history):
            if "failed_at" not in entry and "completed_at" not in entry:
                entry["failed_at"] = _utc_now()
                entry["reason"] = reason
                break
        if unit_id in self._done:
            return
        if self._attempts[unit_id] >= self.max_attempts:
            label = self._units[unit_id]["label"]
            trail = "; ".join(
                f"attempt {entry['attempt']} on {entry['worker']!r} "
                f"at {entry['assigned_at']}"
                + (f": {entry['reason']}" if entry.get("reason") else "")
                for entry in history
            )
            error = DistRunError(
                f"work unit {unit_id} ({label}) exhausted "
                f"{self.max_attempts} attempt(s); "
                f"last failure: {reason}"
                + (f" [{trail}]" if trail else "")
            )
            error.attempts = [dict(entry) for entry in history]
            self._failure = error
        else:
            self.stats["requeues"] += 1
            self._pending.appendleft(unit_id)

    def _reap(self, worker, reason: str) -> None:
        """Mark one worker dead and requeue anything it held."""
        with self._cond:
            already = worker.dead
            worker.dead = True
            self._workers.pop(id(worker), None)
            unit_id = worker.inflight
            worker.inflight = None
            if not already and not worker.graceful \
                    and not self._completed() \
                    and self._failure is None:
                self.stats["worker_failures"] += 1
            if unit_id is not None:
                entry = self._inflight.get(unit_id)
                if entry is not None and entry[0] is worker:
                    self._inflight.pop(unit_id)
                    self._requeue_or_fail(
                        unit_id,
                        f"worker {worker.worker_id!r} {reason}",
                    )
            if not self._workers:
                self._no_worker_since = time.monotonic()
            self._cond.notify_all()
        worker.close()

    def _abandon_unit(self, unit_id, worker, reason: str) -> None:
        """Requeue a timed-out unit WITHOUT destroying its worker.

        The worker is alive and heartbeating — the unit is just slower
        than the budget.  It is requeued onto idle workers (or fails at
        the attempt cap), while the original execution keeps running:
        if it finishes first, its result is still accepted (rows are
        deterministic), and the worker then pulls fresh work normally.
        Reaping here would convert one slow unit into the loss of
        ``max_attempts`` healthy workers.

        Caller holds the condition lock.
        """
        entry = self._inflight.get(unit_id)
        if entry is None or entry[0] is not worker:
            return
        self._inflight.pop(unit_id)
        if worker.inflight == unit_id:
            worker.inflight = None
        self._requeue_or_fail(unit_id, reason)
        self._cond.notify_all()

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            time.sleep(0.1)
            stale = []
            with self._cond:
                now = time.monotonic()
                for unit_id, (worker, deadline) in list(
                        self._inflight.items()):
                    if now > deadline:
                        self._abandon_unit(
                            unit_id, worker,
                            f"unit timed out after "
                            f"{self.unit_timeout:g}s",
                        )
                    elif now - worker.last_seen > self.worker_timeout:
                        stale.append((
                            worker,
                            f"heartbeat lost for "
                            f"{self.worker_timeout:g}s",
                        ))
                if (self._failure is None and not self._completed()
                        and self._no_worker_since is not None
                        and now - self._no_worker_since
                        > self.start_timeout):
                    self._failure = DistStartTimeout(
                        f"no connected workers for "
                        f"{self.start_timeout:g}s — start some "
                        f"with `repro worker --connect "
                        f"{self.settings.host}:{self.port}`"
                    )
                    self._cond.notify_all()
            for worker, reason in stale:
                self._reap(worker, reason)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


@register_backend("dist")
class DistBackend(Backend):
    """Coordinator/worker distributed execution over TCP.

    The runner must be built from an :class:`ExperimentSpec`
    (``spec.build_runner()`` or ``repro run``) so work units can be
    serialized; workers are separate ``repro worker --connect
    HOST:PORT`` processes, on this machine or others.  Workers
    re-create the spec's frame provider by registry name, so a runner
    given a frame-provider *instance* cannot go through this backend.

    Args:
        host, port, token: The coordinator's bind address and handshake
            secret, as in :class:`~repro.engine.settings.DistSettings`;
            ``None`` inherits the ``REPRO_ENGINE_DIST_*`` environment.
        chunksize: Work groups per dispatched unit (default
            :data:`CHUNKSIZE`).
        unit_timeout, heartbeat_interval, worker_timeout, max_attempts,
            start_timeout: The :class:`Coordinator`'s timeouts (seconds)
            and attempt cap; each defaults to this module's constant of
            the same name in capitals.

    A non-positive or malformed ``chunksize``, timeout or attempt cap
    raises :class:`ValueError` naming the argument.
    """

    name = "dist"

    def __init__(self, host=None, port=None, chunksize=CHUNKSIZE,
                 unit_timeout=UNIT_TIMEOUT,
                 heartbeat_interval=HEARTBEAT_INTERVAL,
                 worker_timeout=WORKER_TIMEOUT, max_attempts=MAX_ATTEMPTS,
                 start_timeout=START_TIMEOUT, token=None):
        self._overrides = {"host": host, "port": port, "token": token}
        self.chunksize = positive_int(chunksize, "chunksize")
        #: The :class:`Coordinator`'s keyword arguments, validated.
        self.tuning = {
            "unit_timeout": positive_float(unit_timeout, "unit_timeout"),
            "heartbeat_interval": positive_float(heartbeat_interval,
                                                 "heartbeat_interval"),
            "worker_timeout": positive_float(worker_timeout,
                                             "worker_timeout"),
            "max_attempts": positive_int(max_attempts, "max_attempts"),
            "start_timeout": positive_float(start_timeout,
                                            "start_timeout"),
        }
        #: The coordinator of the most recent ``execute`` call — state
        #: introspection for tests and operator tooling.
        self.last_coordinator = None

    @staticmethod
    def incompatibility(runner) -> str:
        """Why this runner cannot serialize into dist units, or None."""
        from ..runner import FrameProvider

        spec = getattr(runner, "source_spec", None)
        if spec is None:
            return (
                "DistBackend needs a runner built from an "
                "ExperimentSpec (spec.build_runner() or `repro run`), "
                "so work units can be serialized to workers"
            )
        try:
            spec.to_dict()
        except ValueError as error:
            return f"DistBackend cannot serialize the experiment: {error}"
        from ..spec import DEFAULT_FRAME_PROVIDER

        # Workers re-create frame providers from the registry NAME, so
        # any caller-supplied provider *instance* (and any non-stock
        # type under the default name) would be silently ignored
        # remotely — reject rather than let tables quietly diverge.
        provider = runner.frame_provider
        if spec.frame_provider == DEFAULT_FRAME_PROVIDER:
            if type(provider) is not FrameProvider:
                return (
                    "DistBackend re-creates frame providers by "
                    "registry name inside each worker; a custom "
                    f"{type(provider).__name__} instance would be "
                    "silently ignored — use the serial backend"
                )
        elif getattr(runner, "frame_provider_explicit", False):
            return (
                "DistBackend re-creates frame providers by registry "
                f"name ({spec.frame_provider!r}) inside each worker; "
                f"the {type(provider).__name__} instance passed to "
                "build_runner would be silently ignored — drop the "
                "instance or use the serial backend"
            )
        return None

    def execute(self, runner, groups: list) -> list:
        """Serve the plan to connected workers; reassemble their rows."""
        reason = self.incompatibility(runner)
        if reason is not None:
            raise ValueError(reason)
        if not groups:
            return []
        settings = DistSettings.resolve(**self._overrides)
        units = build_units(runner, groups, self.chunksize)
        observer = observer_of(runner)
        journal = journal_of(runner)

        def group_stats(index, rows, seconds, worker_id, cache):
            """Book one accepted unit result as an observer record."""
            # Worker-side timings and cache deltas arrive with each
            # accepted result and land in the observer as ordinary unit
            # records, tagged with the executing worker's id.
            group = groups[index]
            observe_unit_done(runner, group.scenario.name,
                              _model_name(group.model), seconds, rows,
                              worker=worker_id, cache=cache)

        # Workers trace through the run's own disk tier, as the
        # process backend's pool workers do.
        cache_dir = runner.settings.cache_dir
        coordinator = Coordinator(
            units,
            settings=settings,
            cache_dir=str(cache_dir) if cache_dir else None,
            on_unit_done=lambda count: report_group_done(runner, count),
            on_group_done=group_stats
            if (observer is not None or journal is not None)
            else None,
            **self.tuning,
        )
        self.last_coordinator = coordinator
        try:
            rows_by_group = coordinator.serve()
        except BaseException:
            coordinator.shutdown()
            raise
        if observer is not None:
            observer.record_dist(
                coordinator.stats, coordinator.roster,
                settings={**settings.as_dict(), "chunksize": self.chunksize,
                          **self.tuning})
        return [rows_by_group[index] for index in range(len(groups))]
