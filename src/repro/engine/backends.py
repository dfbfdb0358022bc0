"""Pluggable execution backends for the :class:`ExperimentRunner`.

The runner plans a grid of *work groups* — one per (scenario, model),
carrying every simulator that consumes that trace — and hands the plan to
a :class:`Backend` for execution:

* :class:`SerialBackend`   — the default; one thread, no pool, plan
  order;
* :class:`ProcessBackend`  — the one parallel path, a process pool for
  many-scenario sweeps: work groups are pickled to workers in contiguous
  chunks (amortizing IPC; one scenario's groups stay in one chunk when
  that loads no worker more), each worker traces the groups it
  simulates through its own :class:`TraceCache` and
  :class:`FrameProvider`, and results come back as plain rows that cost
  kilobytes to ship.

A work group is one (scenario, model), so tracing where it is simulated
traces every unique frame exactly once, with no stage or shared
directory between the workers.  A plan that would fill only one pool
process (one worker, or one chunk) runs serially in-process instead — a
width-1 pool is pure overhead.

Backends are selected by :class:`ExperimentRunner(backend=...)`, by the
``REPRO_ENGINE_BACKEND`` environment variable (``serial`` /
``process``), or per call via ``runner.run(backend=...)``.

Every backend produces the identical :class:`ExperimentTable` — same
rows, same deterministic scenarios x models x simulators order — because
frames are seeded deterministically and traces are content-keyed.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import telemetry
from .cache import TraceCache, counter_delta
from .registry import BACKENDS, register_backend
from .result import mean_result
from .settings import EngineSettings


def _model_name(model) -> str:
    return getattr(model, "name", model)


@dataclass(frozen=True)
class WorkGroup:
    """One trace-sharing unit of a runner plan.

    Attributes:
        scenario: The experiment condition (seeds the frames).
        model: Table I name or :class:`~repro.models.specs.ModelSpec`.
        simulators: The simulators consuming this (scenario, model)'s
            trace(s), in configured order.
    """

    scenario: object
    model: object
    simulators: tuple


def execute_cell(scenario, simulator, traces) -> list:
    """Run one simulator over one group's frame traces.

    Returns the cell's rows in table order: one per frame (labelled with
    its index when the scenario is batched) plus the mean aggregate row
    for batched scenarios.
    """
    batched = scenario.frames > 1
    per_frame = []
    with telemetry.span("simulate", "engine", scenario=scenario.name,
                        simulator=simulator.name):
        for index, trace in enumerate(traces):
            result = simulator.run(trace)
            result.scenario = scenario.name
            if batched:
                result.frame = index
            per_frame.append(result)
    rows = list(per_frame)
    if batched:
        rows.append(mean_result(per_frame))
    return rows


def execute_group(group: WorkGroup, trace_lookup) -> list:
    """Serially execute every cell of one work group.

    ``trace_lookup(scenario, model, frame, prev_trace)`` supplies the
    (cached) trace of each frame; the batch is traced sequentially here —
    each frame's trace is offered to the next lookup as its predecessor,
    which is what lets delta-enabled runners share unchanged rules —
    and every simulator of the group then reuses the in-memory traces.
    Lookups that don't do delta tracing simply ignore the fourth
    argument.
    """
    traces = []
    prev = None
    for frame in range(group.scenario.frames):
        trace = trace_lookup(group.scenario, group.model, frame, prev)
        traces.append(trace)
        prev = trace
    results = []
    for simulator in group.simulators:
        results.extend(execute_cell(group.scenario, simulator, traces))
    return results


def chunk_payload(groups: list, workers: int) -> list:
    """Split a plan's work groups into contiguous chunks for the pool.

    The target size splits the plan roughly twice per worker — large
    enough to amortize per-dispatch IPC, small enough that a straggler
    can be balanced by the other workers.  The plan is cut only where
    the scenario changes, a chunk growing past the target only when one
    scenario alone is larger.  A scenario's groups share its frames, so
    those cuts build each frame in one worker.  They are used only when
    they load the busiest worker with no more groups than fixed cuts of
    the target size do (see :func:`_makespan`).  Otherwise the chunks
    are those fixed cuts and may split a scenario across workers: with
    fewer scenarios than workers, say, or with scenarios that do not
    spread evenly over the workers.
    """
    if not groups:
        return []
    size = max(1, (len(groups) + 2 * workers - 1) // (2 * workers))
    fixed = list(range(0, len(groups), size)) + [len(groups)]
    starts = [
        index for index, group in enumerate(groups)
        if index == 0 or group.scenario != groups[index - 1].scenario
    ]
    aligned = [0]
    for start, end in zip(starts[1:], starts[2:] + [len(groups)]):
        if end - aligned[-1] > size:
            aligned.append(start)
    aligned.append(len(groups))
    bounds = (aligned if _makespan(aligned, workers)
              <= _makespan(fixed, workers) else fixed)
    return [groups[start:end] for start, end in zip(bounds, bounds[1:])]


def _makespan(bounds: list, workers: int) -> int:
    """The busiest worker's group count when ``workers`` processes take
    the chunks between ``bounds`` in order, each going to the worker
    that frees up first (the least-loaded one, counting groups)."""
    loads = [0] * workers
    for start, end in zip(bounds, bounds[1:]):
        loads[loads.index(min(loads))] += end - start
    return max(loads)


class ProgressReporter:
    """Per-group completion ticker for long sweeps (stderr by default).

    Thread-safe, so concurrent completions report in order.  ``sink``
    may be a callable ``(done, total, elapsed_seconds)`` for
    programmatic consumers (tests, dashboards); the default prints
    ``groups done/total (elapsed)`` lines to ``stderr`` — through
    :func:`repro.engine.telemetry.log_line`, the one lock-guarded
    line-buffered stderr writer, so concurrent emitters never
    interleave mid-line — and ``--out -`` tables stay clean.
    """

    def __init__(self, total: int, sink=None, label: str = "groups"):
        self.total = total
        self.done = 0
        self.label = label
        self._sink = sink
        self._lock = threading.Lock()
        self._started = time.monotonic()

    def advance(self, count: int = 1) -> None:
        """Report ``count`` more finished groups to the sink."""
        # The sink runs under the lock so concurrent group completions
        # report in monotone order (and interleaved lines never tear).
        with self._lock:
            self.done += count
            elapsed = time.monotonic() - self._started
            if self._sink is not None:
                self._sink(self.done, self.total, elapsed)
            else:
                telemetry.log_line(
                    f"[repro] {self.label} {self.done}/{self.total} "
                    f"({elapsed:.1f}s)"
                )


def report_group_done(runner, count: int = 1) -> None:
    """Advance the runner's active progress reporter, if any.

    Backends call this after finishing each work group; it is a no-op
    unless the caller asked for progress (``runner.run(progress=...)``),
    so the hot path costs one attribute read.
    """
    reporter = getattr(runner, "_progress", None)
    if reporter is not None:
        reporter.advance(count)


def observer_of(runner):
    """The runner's active :class:`RunObserver`, or None.

    Set by ``runner.run(observer=...)`` for the duration of one run —
    the same seam as progress reporting, so a backend that supports
    progress supports manifests with the same call sites.
    """
    return getattr(runner, "_observer", None)


def journal_of(runner):
    """The runner's active :class:`~repro.engine.journal.RunJournal`.

    Set by ``runner.run(journal=...)`` for the duration of one run —
    the journal rides the same per-group seam as the observer, so every
    backend that streams rows checkpoints them for free.
    """
    return getattr(runner, "_journal", None)


def observe_unit_done(runner, scenario_name: str, model_name: str,
                      seconds: float, results=(),
                      worker: str = None, cache: dict = None) -> None:
    """Report one finished work group to the runner's observer, if any.

    ``results`` are the group's streamed rows (fed to the observer's
    per-layer analyzer); ``worker`` identifies the executing
    process-pool worker (None in-process); ``cache`` is the counter
    delta of the worker-side cache that traced the group (None when it
    was the runner's own cache, whose delta the observer takes itself).
    When a run journal is active the group is also appended to it here —
    durably, before the call returns — which is what makes every backend
    resumable through the one seam.  A no-op without an active observer
    or journal, so the hot path costs two attribute reads.
    """
    journal = journal_of(runner)
    if journal is not None:
        journal.record_unit(scenario_name, model_name, seconds,
                            results=results, worker=worker)
    observer = observer_of(runner)
    if observer is not None:
        observer.record_unit(scenario_name, model_name, seconds,
                             results=results, worker=worker, cache=cache)


class Backend:
    """Interface every execution backend implements.

    ``execute`` receives the runner (for its trace/frame plumbing) and
    the planned work groups, and returns one list of
    :class:`~repro.engine.result.SimResult` rows per group, in plan
    order.  Backends with preconditions on the runner override
    :meth:`incompatibility`; when the backend was only an environment
    default (not an explicit choice) the runner falls back to the serial
    backend instead of failing.
    """

    name: str = "backend"

    @staticmethod
    def incompatibility(runner) -> str:
        """Why this runner cannot use this backend, or ``None``."""
        return None

    def execute(self, runner, groups: list) -> list:
        """Run every group's cells; nested rows in ``groups`` order."""
        raise NotImplementedError


@register_backend("serial")
class SerialBackend(Backend):
    """Everything on the calling thread, in plan order."""

    name = "serial"

    def execute(self, runner, groups: list) -> list:
        """Run each group in turn on the calling thread."""
        nested = []
        for group in groups:
            started = time.monotonic()
            rows = execute_group(group, runner.trace_for)
            observe_unit_done(runner, group.scenario.name,
                              _model_name(group.model),
                              time.monotonic() - started, rows)
            nested.append(rows)
            report_group_done(runner)
        return nested


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------

#: Per-worker state, set once by the pool initializer: the runner's
#: :class:`EngineSettings`, and a :class:`TraceCache` (a worker-local
#: memory tier over the runner's disk tier, if it has one) and a
#: :class:`FrameProvider` of this worker's own — the same plumbing the
#: serial backend uses in-process.
_WORKER_SETTINGS = None
_WORKER_CACHE = None
_WORKER_FRAMES = None


def _init_worker(settings: EngineSettings, traced: bool) -> None:
    """Pool initializer: build this worker's trace plumbing once.

    The settings arrive as an explicit initializer argument — never via
    environment mutation in the parent, which would race when two
    process-backend runs overlap in one process.  ``traced`` says
    whether the parent runs under a tracer: the worker then traces into
    a fresh :class:`~repro.engine.telemetry.SpanTracer` of its own
    (never a forked copy of the parent's, which holds the parent's
    events), and :func:`_run_chunk` ships its spans home.  A daemon
    thread then watches for the run process's death
    (:func:`_exit_with_parent`).
    """
    global _WORKER_SETTINGS, _WORKER_CACHE, _WORKER_FRAMES
    from .runner import FrameProvider

    _WORKER_SETTINGS = settings
    _WORKER_CACHE = TraceCache(maxsize=16, disk_dir=settings.cache_dir)
    _WORKER_FRAMES = FrameProvider()
    telemetry.activate(
        telemetry.SpanTracer(process=_worker_name()) if traced else None)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this pool worker once the run process ``parent`` is gone.

    A run killed outright (``kill_run``, a SIGKILL) never shuts its
    pool down, and its workers would wait on the task queue forever:
    each inherited the queue's write end, so the queue never reports
    end of file.  A worker whose parent died is reparented, so its
    parent pid changes.
    """
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _worker_name() -> str:
    """This pool worker's label in manifests, journals and traces."""
    return f"process-{os.getpid()}"


def _worker_trace(scenario, model, frame, prev_trace=None):
    """This worker's ``trace_lookup`` for :func:`execute_group`."""
    from ..models.specs import ModelSpec, build_model_spec
    from .runner import lookup_trace

    spec = model if isinstance(model, ModelSpec) else build_model_spec(model)
    return lookup_trace(_WORKER_SETTINGS, _WORKER_CACHE, _WORKER_FRAMES,
                        spec, scenario, model, frame, prev_trace)


def _run_chunk(chunk: list) -> dict:
    """Execute one pickled chunk of :class:`WorkGroup`.

    Returns ``{"worker": "process-<pid>", "rows": [row list per group],
    "seconds": [wall seconds per group], "cache": [cache counter delta
    per group]}`` — groups are timed and their trace lookups counted
    *here*, in the worker process, because the parent sees neither this
    worker's clock nor its cache.  A traced worker adds ``"spans"``, the
    chunk's drained span batch.
    """
    nested = []
    seconds = []
    deltas = []
    for group in chunk:
        before = _WORKER_CACHE.stats()
        started = time.monotonic()
        rows = execute_group(group, _worker_trace)
        seconds.append(time.monotonic() - started)
        deltas.append(counter_delta(before, _WORKER_CACHE.stats()))
        nested.append(rows)
    outcome = {"worker": _worker_name(), "rows": nested,
               "seconds": seconds, "cache": deltas}
    tracer = telemetry.active_tracer()
    if tracer is not None:
        outcome["spans"] = tracer.drain()
    return outcome


@register_backend("process")
class ProcessBackend(Backend):
    """Process-pool fan-out for many-scenario sweeps.

    The plan's work groups ship to the pool in contiguous chunks, one
    ``map`` over them.  Each worker traces the groups it simulates,
    through its own :class:`TraceCache` and :class:`FrameProvider` — a
    group is one (scenario, model), so every unique frame is traced
    exactly once, by the worker that simulates it.  The workers' caches
    sit over the runner's disk tier (``runner.settings.cache_dir``) when
    it has one and are memory-only otherwise.  Contiguous chunks keep
    IPC count low, and when it loads no worker more than fixed-size
    chunks would, :func:`chunk_payload` keeps each scenario's groups in
    one chunk: a worker's :class:`FrameProvider` then builds each of the
    scenario's frames once for every model that shares its grid, and no
    other worker builds them again.

    The pool is ``min(workers, chunks)`` processes wide, so tracing fans
    out no wider than the plan has work groups: a few-group sweep of
    many frames traces each group's frames in one process.  When that
    width is 1 (one worker, or one chunk) the pool is skipped entirely
    and the plan runs in-process.

    Each chunk comes back labelled with its worker's ``process-<pid>``
    name, which the parent records as the ``worker`` of every group in
    it (manifest ``units``, run journal).  Under a tracer, each worker
    traces into its own and returns the chunk's span batch with the
    chunk's rows; the parent ingests it, so a traced run records the
    same span counts on every backend.

    Restrictions: the runner must be on the default frame path — a
    custom frame-provider instance cannot be shipped to worker
    processes.  Every returned row is identical to the serial backend's.

    Args:
        max_workers: Pool width; defaults to the runner's
            ``settings.workers``.
    """

    name = "process"

    def __init__(self, max_workers: int = None):
        self.max_workers = max_workers

    @staticmethod
    def incompatibility(runner) -> str:
        """Why this runner cannot go through worker processes (or None).

        Lets the runner fall back to serial when the process backend
        was only an environment default rather than an explicit choice.
        """
        from .runner import FrameProvider

        if type(runner.frame_provider) is not FrameProvider:
            return (
                "ProcessBackend re-creates the default FrameProvider "
                f"inside each worker; a custom "
                f"{type(runner.frame_provider).__name__} instance would "
                "be silently ignored — use the serial backend"
            )
        return None

    def execute(self, runner, groups: list) -> list:
        """Fan the plan's chunks out to a pool; rows in plan order."""
        reason = self.incompatibility(runner)
        if reason is not None:
            raise ValueError(reason)
        if not groups:
            return []
        workers = self.max_workers or runner.settings.workers
        chunks = chunk_payload(groups, workers)
        width = min(workers, len(chunks))
        if width == 1:
            # Pure pool overhead at width 1: run in-process through the
            # runner's own cache.
            return SerialBackend().execute(runner, groups)

        chunk_results = []
        tracer = telemetry.active_tracer()
        with ProcessPoolExecutor(
                max_workers=width, initializer=_init_worker,
                initargs=(runner.settings, tracer is not None)) as pool:
            for chunk, outcome in zip(chunks, pool.map(_run_chunk, chunks)):
                worker = outcome["worker"]
                if "spans" in outcome:
                    tracer.ingest(outcome["spans"], worker=worker)
                chunk_results.append(outcome["rows"])
                for group, rows, seconds, delta in zip(
                        chunk, outcome["rows"], outcome["seconds"],
                        outcome["cache"]):
                    observe_unit_done(runner, group.scenario.name,
                                      _model_name(group.model), seconds,
                                      rows, worker=worker, cache=delta)
                report_group_done(runner, count=len(chunk))
        return [rows for chunk in chunk_results for rows in chunk]


def resolve_backend(spec) -> Backend:
    """Normalize a backend name or instance to a :class:`Backend`.

    Names resolve through the backend registry — ``"serial"`` /
    ``"process"`` built in, case insensitive, plus
    anything third-party code added via
    :func:`~repro.engine.registry.register_backend`.  Instances pass
    through untouched; unknown names raise a
    :class:`~repro.engine.registry.UnknownNameError` listing the
    registered choices.
    """
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        return BACKENDS.create(spec)
    raise TypeError(
        f"expected a Backend instance or name string, got {type(spec)!r}"
    )
