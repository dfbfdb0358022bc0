"""The distributed worker: pull units, execute, stream rows back.

A worker is one process (``repro worker --connect HOST:PORT``, or a
:class:`Worker` driven in-process by tests and benchmarks) that serves
exactly one coordinator.  Its loop is deliberately boring:

1. connect — with retry, so workers can be started *before* the
   coordinator binds (CI starts two workers in the background, then
   launches ``repro run --backend dist``);
2. handshake — ``hello`` up, ``welcome`` down (the welcome names the
   run's trace-cache directory and the heartbeat interval); when the
   coordinator is configured with a shared token it interposes an HMAC
   ``challenge`` that the worker answers from its own
   ``REPRO_ENGINE_DIST_TOKEN``;
3. pull — ``request`` a unit, execute it, send ``result`` (or
   ``error`` with the exception message), repeat;
4. exit — on the coordinator's ``shutdown`` message (exit code 0), or
   when the connection drops mid-run (exit code 1).

A background thread heartbeats on the welcome's interval so the
coordinator can tell "still crunching a big unit" from "dead".  Units
are :class:`~repro.engine.spec.ExperimentSpec` dicts; execution goes
through the exact spec → runner → serial-backend path a local
``repro run`` uses, against a worker-lifetime
:class:`~repro.engine.cache.TraceCache` (memory tier per worker, disk
tier the run's own cache directory when it is reachable) and a
worker-lifetime :class:`~repro.engine.runner.FrameProvider` so repeated
scenarios reuse their frames.  The worker traces every group it
simulates, and ships each group's cache counter delta back with its
rows.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
import traceback

from .. import faults, telemetry
from ..cache import TraceCache, counter_delta
from ..runner import FrameProvider
from ..settings import UNSET, DistSettings
from .protocol import (
    ProtocolError,
    auth_digest,
    message,
    parse_address,
    recv_message,
    send_message,
)


def backoff_delays(rng, base: float = 0.1, cap: float = 2.0):
    """Yield exponential backoff delays with deterministic jitter.

    Delays double from ``base`` up to ``cap``, each multiplied by a
    jitter factor in [0.5, 1.0) drawn from ``rng`` — a
    :class:`random.Random` seeded per worker, so two workers hammering
    a restarted coordinator desynchronize, yet any single worker's
    retry schedule replays exactly.
    """
    attempt = 0
    while True:
        delay = min(cap, base * (2 ** attempt))
        yield delay * (0.5 + 0.5 * rng.random())
        if delay < cap:
            attempt += 1


def execute_unit(groups: list, cache: TraceCache, providers: dict,
                 timings: dict = None, deltas: dict = None) -> dict:
    """Execute one unit's group specs; rows as JSON records per index.

    ``providers`` maps frame-provider registry names to live instances;
    the caller seeds it with the default provider and it is extended
    here on first use, so every provider — and its frame cache — lives
    for the worker's lifetime rather than being rebuilt (and its scene
    synthesis re-run) once per unit.

    ``timings`` and ``deltas``, when given, are filled with each
    group's wall seconds and ``cache`` counter delta under the same
    string index keys as the returned rows — the per-unit statistics
    the worker ships back in its ``result`` message for the
    coordinator's run manifest.

    Split out from the connection loop so tests can drive execution
    without a socket.  Import inside: the spec layer imports the runner
    and backends, which this module must not require at import time.
    """
    from ..registry import FRAME_PROVIDERS
    from ..spec import ExperimentSpec

    out = {}
    for entry in groups:
        before = cache.stats()
        started = time.monotonic()
        spec = ExperimentSpec.from_dict(entry["spec"])
        provider = providers.get(spec.frame_provider)
        if provider is None:
            provider = FRAME_PROVIDERS.create(spec.frame_provider)
            providers[spec.frame_provider] = provider
        runner = spec.build_runner(cache=cache, frame_provider=provider)
        table = runner.run(backend="serial")
        out[str(entry["index"])] = table.to_records()
        if timings is not None:
            timings[str(entry["index"])] = time.monotonic() - started
        if deltas is not None:
            deltas[str(entry["index"])] = counter_delta(before,
                                                        cache.stats())
    return out


#: Worker-side read timeout.  The coordinator guarantees a reply to
#: every request within its idle-reply window (~2 s), so a minute of
#: socket silence means the coordinator host vanished without FIN/RST —
#: exit 1 and let the supervisor restart the worker instead of hanging
#: forever.
READ_TIMEOUT_SECONDS = 60.0


class Worker:
    """One coordinator-serving worker loop.

    Args:
        address: ``(host, port)`` tuple or ``"HOST:PORT"`` string of the
            coordinator.
        worker_id: Stable name in coordinator logs and errors; defaults
            to ``hostname:pid``.
        cache_dir: Trace-artifact directory override.  Unset (the
            default) defers to the coordinator's welcome message, then
            to ``REPRO_TRACE_CACHE_DIR``; pass ``None`` explicitly for a
            memory-only cache.
        retry_seconds: How long to keep retrying the initial connection
            — this is what lets workers start before the coordinator.
            Retries back off exponentially with per-worker jitter.
        max_units: Exit cleanly after this many units (drain mode for
            tests and rolling restarts); ``None`` serves until shutdown.
        reconnect_seconds: After losing an *established* connection,
            keep re-dialling (same backoff + jitter) for this long
            before giving up — lets workers survive a coordinator
            restart, e.g. an interrupted run resumed with ``--resume``.
            The default 0 keeps the old exit-on-disconnect behaviour.
    """

    def __init__(self, address, worker_id: str = None, cache_dir=UNSET,
                 retry_seconds: float = 30.0, max_units: int = None,
                 reconnect_seconds: float = 0.0):
        self.address = (parse_address(address)
                        if isinstance(address, str) else tuple(address))
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}"
        )
        self._cache_dir = cache_dir
        self.retry_seconds = float(retry_seconds)
        self.max_units = max_units
        self.reconnect_seconds = float(reconnect_seconds)
        self.units_done = 0
        self._send_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        # String seeds hash deterministically in random.Random, so a
        # worker's whole retry schedule is a pure function of its id.
        self._rng = random.Random(f"repro-worker-{self.worker_id}")

    def _log(self, text: str) -> None:
        telemetry.log_line(f"[repro worker {self.worker_id}] {text}")

    # -- connection --------------------------------------------------------

    def _connect(self, budget: float = None):
        """Dial the coordinator with exponential backoff + jitter.

        Retries until ``budget`` seconds run out (``retry_seconds`` by
        default), so a worker may be launched before the coordinator —
        or, with a ``reconnect_seconds`` budget, outlive one.
        """
        budget = self.retry_seconds if budget is None else budget
        deadline = time.monotonic() + budget
        delays = backoff_delays(self._rng)
        while True:
            try:
                return socket.create_connection(self.address, timeout=5.0)
            except OSError as error:
                now = time.monotonic()
                if now >= deadline:
                    raise ConnectionError(
                        f"no coordinator at "
                        f"{self.address[0]}:{self.address[1]} after "
                        f"{budget:g}s: {error}"
                    ) from None
                time.sleep(min(next(delays), max(0.0, deadline - now)))

    def _send(self, sock, payload: dict) -> None:
        with self._send_lock:
            send_message(sock, payload)

    def _heartbeat_loop(self, sock, interval: float) -> None:
        while not self._stop_heartbeat.wait(interval):
            if faults.check("worker.heartbeat") == "stall_heartbeat":
                # Chaos harness: go silent without closing the socket —
                # the coordinator's reaper must notice on its own.
                self._log("heartbeat stalled (injected fault)")
                return
            try:
                self._send(sock, message("heartbeat"))
            except OSError:
                return

    def _run_unit(self, unit_id, entries, cache, providers) -> dict:
        """Execute one unit's groups and build its ``result`` frame."""
        timings = {}
        deltas = {}
        groups = execute_unit(entries, cache, providers, timings=timings,
                              deltas=deltas)
        return self._with_spans(message(
            "result", unit=unit_id, groups=groups, timings=timings,
            cache=deltas,
        ))

    def _with_spans(self, reply: dict) -> dict:
        """Attach the unit's traced span batch to its ``result`` frame.

        Only a tracer this worker activated itself is drained: an
        in-process loopback worker shares the coordinator's tracer
        (same process-wide global), where its spans already record
        directly — draining there would ship the coordinator's own
        events back as a worker batch.
        """
        if not getattr(self, "_ships_spans", False):
            return reply
        spans = telemetry.drain_spans()
        if spans:
            reply["spans"] = spans
        return reply

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Serve the coordinator until shutdown; returns an exit code.

        With a ``reconnect_seconds`` budget, a lost *established*
        connection triggers a fresh dial-and-handshake loop instead of
        an exit — the coordinator (old or restarted) sees an ordinary
        new worker and the welcome re-announces the run's cache dir.
        """
        budget = self.retry_seconds
        while True:
            try:
                sock = self._connect(budget)
            except ConnectionError as error:
                self._log(str(error))
                return 1
            # Fresh event per connection: the previous connection's
            # teardown must not stop the next connection's heartbeat.
            self._stop_heartbeat = threading.Event()
            try:
                return self._serve(sock)
            except (ProtocolError, OSError) as error:
                self._log(f"connection to coordinator lost: {error}")
                if self.reconnect_seconds <= 0:
                    return 1
                self._log(
                    f"re-dialling for up to {self.reconnect_seconds:g}s"
                )
                budget = self.reconnect_seconds
            finally:
                self._stop_heartbeat.set()
                try:
                    sock.close()
                except OSError:
                    pass

    def _serve(self, sock) -> int:
        self._send(sock, message("hello", worker=self.worker_id,
                                 pid=os.getpid()))
        welcome = recv_message(sock)
        if welcome.get("type") == "challenge":
            token = DistSettings.resolve_one("token")
            if token is None:
                self._log(
                    "coordinator requires authentication but no "
                    "REPRO_ENGINE_DIST_TOKEN is set"
                )
                return 1
            self._send(sock, message(
                "auth",
                digest=auth_digest(token, welcome.get("nonce") or ""),
            ))
            welcome = recv_message(sock)
        if welcome.get("type") != "welcome":
            self._log(f"unexpected handshake reply: {welcome.get('type')}")
            return 1
        sock.settimeout(READ_TIMEOUT_SECONDS)
        if self._cache_dir is UNSET:
            disk_dir = welcome.get("cache_dir")
            cache = (TraceCache(maxsize=16, disk_dir=disk_dir)
                     if disk_dir else TraceCache(maxsize=16))
        else:
            cache = TraceCache(maxsize=16, disk_dir=self._cache_dir)
        from ..spec import DEFAULT_FRAME_PROVIDER

        providers = {DEFAULT_FRAME_PROVIDER: FrameProvider()}
        interval = float(welcome.get("heartbeat_interval") or 1.0)
        # A traced coordinator asks the fleet to trace too: spans
        # recorded while a unit executes ride home on its
        # `result` frame (see _with_spans) and merge into one timeline.
        owns_tracer = False
        if welcome.get("telemetry") and telemetry.active_tracer() is None:
            telemetry.activate(
                telemetry.SpanTracer(process=self.worker_id))
            owns_tracer = True
        self._ships_spans = owns_tracer
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(sock, interval),
            name="repro-worker-heartbeat", daemon=True,
        )
        heartbeat.start()
        self._log(
            f"connected to {self.address[0]}:{self.address[1]} "
            f"(cache_dir={cache.disk_dir})"
        )
        try:
            while True:
                self._send(sock, message("request"))
                msg = recv_message(sock)
                kind = msg.get("type")
                if kind == "shutdown":
                    self._log(
                        f"shutdown after {self.units_done} unit(s)")
                    return 0
                if kind != "unit":
                    continue              # ignore unknown message types
                unit_id = msg.get("unit")
                # Chaos harness: kill_worker:unit=K exits hard
                # (os._exit, status 137) just before this process's
                # K-th unit runs.
                faults.check("worker.unit", unit=unit_id)
                try:
                    reply = self._run_unit(unit_id, msg.get("groups") or [],
                                           cache, providers)
                except Exception as error:  # noqa: BLE001 — reported upstream
                    detail = traceback.format_exception_only(
                        type(error), error
                    )[-1].strip()
                    self._log(f"unit {unit_id} failed: {detail}")
                    reply = message("error", unit=unit_id, error=detail)
                self._send(sock, reply)
                self.units_done += 1
                if (self.max_units is not None
                        and self.units_done >= self.max_units):
                    # Announce the exit so the coordinator books it as
                    # a drain, not a worker failure.
                    self._send(sock, message("goodbye"))
                    self._log(
                        f"drained after {self.units_done} unit(s) "
                        f"(--max-units)"
                    )
                    return 0
        finally:
            self._ships_spans = False
            if owns_tracer:
                telemetry.activate(None)
