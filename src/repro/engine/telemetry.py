"""Live telemetry: the span tracer and the stderr writer.

Two pieces, both engineered to cost nothing when off:

* :class:`SpanTracer` — a low-overhead tracer of counted, nested spans
  (``trace`` / ``delta-patch`` / ``simulate`` / ``serialize`` /
  ``cache-get`` / ``cache-put`` / ``protocol-send`` / ``protocol-recv``
  / ``queue-wait``).  Each thread keeps its own span stack; completed
  spans become Chrome trace-event dicts (``ph: "X"``) that
  :meth:`SpanTracer.export` writes as a Perfetto-loadable
  ``{"traceEvents": [...]}`` JSON file.  Distributed workers trace
  locally and ship their span batches back inside the existing result
  stream; the coordinator :meth:`ingests <SpanTracer.ingest>` accepted
  batches with ``pid``/``tid`` mapped to worker ids, so one timeline
  covers the whole fleet.  The module-level :func:`span` helper is the
  instrumentation seam every layer calls: when no tracer is active it
  returns a shared no-op context manager — one global read, no
  allocation.  A traced run's per-phase totals
  (:meth:`SpanTracer.phase_profile`) are stored in the
  :class:`~repro.engine.manifest.RunManifest` under
  ``telemetry.spans``.

* :func:`log_line` — the one line-buffered, lock-guarded stderr writer
  progress lines and worker warnings both route through (no
  interleaved half-lines under concurrent dist groups).

Tracing is activated per run — ``repro run spec.json --trace-out
run.trace.json`` or ``REPRO_ENGINE_TELEMETRY=1`` — via
:func:`activate`; see ``docs/observability.md``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

#: Exactly the span categories the engine's instrumentation sites emit
#: (Perfetto colors by category); a test holds the two in step.
SPAN_CATEGORIES = ("engine", "cache", "protocol", "scheduler")


class _NoopSpan:
    """The shared do-nothing context manager :func:`span` hands out
    when tracing is off — one instance, zero per-call allocation."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()

#: The process-wide active tracer (None = tracing off).  A plain module
#: attribute on purpose: the disabled fast path is a single load.
_ACTIVE_TRACER = None


class _Span:
    """One open span on a thread's stack (context-manager form)."""

    __slots__ = ("tracer", "name", "cat", "args", "ts", "start")

    def __init__(self, tracer, name, cat, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.ts = 0
        self.start = 0

    def __enter__(self):
        self.ts = time.time_ns() // 1_000
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        duration = (time.perf_counter_ns() - self.start) // 1_000
        self.tracer._record(self.name, self.cat, self.ts, duration,
                            self.args)
        return False


class SpanTracer:
    """Collects counted, nested spans into Chrome trace-event JSON.

    Spans open and close per thread (``tid`` is the OS thread id of the
    emitting thread), timestamps are wall-clock microseconds (so
    batches from loopback workers merge onto one consistent timeline),
    and every completed span bumps a per-name counter.  All mutation of
    the shared event list happens under one lock; the per-span cost is
    two clock reads plus one locked append.

    Args:
        process: ``pid`` label for locally-emitted spans (the
            coordinator/runner process; workers get their own pids via
            :meth:`ingest`).
    """

    def __init__(self, process: str = "repro"):
        self.process = process
        self._lock = threading.Lock()
        self._events = []
        self._counts = {}
        self._micros = {}
        self._processes = {0: process}
        self._next_pid = 1

    # -- recording ----------------------------------------------------------

    def span(self, name: str, cat: str = "engine", **args) -> _Span:
        """An open-span context manager recording on ``with`` exit."""
        return _Span(self, name, cat, args or None)

    def _record(self, name, cat, ts, duration, args) -> None:
        event = {"name": name, "cat": cat, "ph": "X", "ts": ts,
                 "dur": duration, "pid": 0,
                 "tid": threading.get_ident()}
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)
            self._counts[name] = self._counts.get(name, 0) + 1
            self._micros[name] = self._micros.get(name, 0) + duration

    def ingest(self, spans, worker: str) -> None:
        """Merge one worker's shipped span batch into the timeline.

        Each distinct ``worker`` id gets its own stable ``pid`` (named
        in the exported metadata), so Perfetto renders one row group
        per fleet member under the coordinator's.
        """
        if not spans:
            return
        with self._lock:
            pid = next(
                (p for p, name in self._processes.items()
                 if name == worker), None,
            )
            if pid is None:
                pid = self._next_pid
                self._next_pid += 1
                self._processes[pid] = worker
            for event in spans:
                if not isinstance(event, dict):
                    continue
                merged = dict(event)
                merged["pid"] = pid
                self._events.append(merged)
                name = merged.get("name")
                self._counts[name] = self._counts.get(name, 0) + 1
                self._micros[name] = (self._micros.get(name, 0)
                                      + int(merged.get("dur") or 0))

    # -- export -------------------------------------------------------------

    def drain(self) -> list:
        """Remove and return the locally-recorded events (worker side:
        the batch shipped back inside a ``result`` message)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def counts(self) -> dict:
        """``{span name: completed count}`` so far (all processes)."""
        with self._lock:
            return dict(self._counts)

    def phase_profile(self) -> dict:
        """``{span name: {"count", "micros"}}`` — the per-phase totals
        the manifest stores and the HTML report's timeline renders."""
        with self._lock:
            return {
                name: {"count": count,
                       "micros": self._micros.get(name, 0)}
                for name, count in sorted(self._counts.items())
            }

    def trace_events(self) -> dict:
        """The Chrome trace-event document (``traceEvents`` + process
        metadata), JSON-safe and Perfetto-loadable."""
        with self._lock:
            events = list(self._events)
            processes = dict(self._processes)
        meta = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
            for pid, name in sorted(processes.items())
        ]
        return {"traceEvents": meta + events,
                "displayTimeUnit": "ms"}

    def export(self, path) -> str:
        """Write :meth:`trace_events` as JSON; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.trace_events(), handle)
        return str(path)


def activate(tracer) -> None:
    """Make ``tracer`` the process-wide active tracer (None turns
    tracing off); instrumentation sites pick it up via :func:`span`."""
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer


def active_tracer():
    """The currently active :class:`SpanTracer`, or ``None``."""
    return _ACTIVE_TRACER


def drain_spans() -> list:
    """Drain the active tracer's local events (``[]`` when tracing is
    off) — the batch a dist worker ships inside its ``result``."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return []
    return tracer.drain()


def span(name: str, cat: str = "engine", **args):
    """A span context manager on the active tracer — or the shared
    no-op when tracing is off (the disabled cost: one global read)."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return _NOOP
    return tracer.span(name, cat, **args)


class _TracerScope:
    """``with tracing(tracer):`` — activate on enter, restore on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = _ACTIVE_TRACER
        activate(self.tracer)
        return self.tracer

    def __exit__(self, *exc):
        activate(self._previous)
        return False


def tracing(tracer) -> _TracerScope:
    """Scope ``tracer`` as the active tracer for a ``with`` block."""
    return _TracerScope(tracer)


# ---------------------------------------------------------------------------
# the one stderr writer (progress lines + worker warnings)
# ---------------------------------------------------------------------------

_STDERR_LOCK = threading.Lock()


def log_line(text: str) -> None:
    """Write one whole line to stderr, lock-guarded and line-buffered.

    Progress reporters and dist worker/coordinator logs all route
    through here, so concurrent emitters can never interleave
    mid-line: each line is a single ``write`` under one process-wide
    lock, flushed before the lock drops.
    """
    with _STDERR_LOCK:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()
