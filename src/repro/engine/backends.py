"""Pluggable execution backends for the :class:`ExperimentRunner`.

The runner plans a grid of *work groups* — one per (scenario, model),
carrying every simulator that consumes that trace — and hands the plan to
a :class:`Backend` for execution:

* :class:`SerialBackend`   — the default; one thread, no pool, plan
  order;
* :class:`ProcessBackend`  — the one parallel path, a process pool for
  many-scenario sweeps: work groups are pickled to workers in contiguous
  chunks (amortizing IPC), each worker process keeps its own
  :class:`TraceCache` and :class:`FrameProvider` seeded on first use,
  and results come back with the heavyweight ``raw`` legacy objects
  stripped so a row costs kilobytes, not megabytes, to ship.

Parallel execution is a **split trace/simulate pipeline**: every unique
(scenario, model, frame) is traced exactly once as a first-class work
unit — fanned out over the pool — before any simulator runs.  The
process backend shares the finished traces across its workers through
the :class:`TraceCache` disk tier (``REPRO_TRACE_CACHE_DIR``, or a
run-scoped temporary directory when unset), so a cold sweep traces
each frame once, not once per worker.  A resolved worker count of 1
falls back to plain serial execution — a width-1 pool is pure overhead.

Backends are selected by :class:`ExperimentRunner(backend=...)`, by the
``REPRO_ENGINE_BACKEND`` environment variable (``serial`` /
``process``), or per call via ``runner.run(backend=...)``.

Every backend produces the identical :class:`ExperimentTable` — same
rows, same deterministic scenarios x models x simulators order — because
frames are seeded deterministically and traces are content-keyed.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from . import telemetry
from .cache import TraceCache
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
    started = time.perf_counter()
    with telemetry.span("simulate", "engine", scenario=scenario.name,
                        simulator=simulator.name):
        for index, trace in enumerate(traces):
            result = simulator.run(trace)
            result.scenario = scenario.name
            if batched:
                result.frame = index
            per_frame.append(result)
    telemetry.metrics().observe(
        "repro_simulate_seconds", time.perf_counter() - started,
        scenario=scenario.name, simulator=simulator.name,
    )
    rows = list(per_frame)
    if batched:
        rows.append(mean_result(per_frame))
    return rows


def execute_group(group: WorkGroup, trace_lookup) -> list:
    """Serially execute every cell of one work group.

    ``trace_lookup(scenario, model, frame, prev_trace)`` supplies the
    (cached) trace of each frame; the batch is traced sequentially here —
    each frame's trace is offered to the next lookup as its predecessor,
    which is what lets delta-enabled runners patch instead of rebuild —
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


def plan_trace_jobs(groups: list, delta_trace: bool) -> list:
    """The deduplicated trace-stage jobs of a plan.

    Each job is ``(scenario, model, frames)``: one frame (a one-element
    ``range``) per unique (scenario, model, frame), or — in delta mode —
    one job per unique (scenario, model) covering its whole frame range,
    a sequential chain in which each frame patches its predecessor.
    Every parallel backend's trace stage fans these jobs out.
    """
    jobs = {}
    for group in groups:
        scenario, model = group.scenario, group.model
        if delta_trace:
            chains = [range(scenario.frames)]
        else:
            chains = [range(frame, frame + 1)
                      for frame in range(scenario.frames)]
        for frames in chains:
            key = (scenario.name, _model_name(model), frames.start)
            jobs.setdefault(key, (scenario, model, frames))
    return list(jobs.values())


@contextlib.contextmanager
def run_scoped_cache_dir(prefix: str = "repro-trace-cache-"):
    """The shared trace-artifact directory of one run, as a context.

    Yields ``(cache_dir, is_run_scoped)``: the configured
    ``REPRO_TRACE_CACHE_DIR`` when one is set (``is_run_scoped=False``,
    nothing is ever deleted), otherwise a freshly created run-scoped
    temporary directory (``is_run_scoped=True``) that is removed on
    exit **whether or not the run succeeded** — the ``try/finally``
    lives here, once, so every backend that shares traces through a
    directory (the process pool, the distributed coordinator) gets
    leak-free cleanup instead of re-implementing it.
    """
    cache_dir = EngineSettings.resolve_one("cache_dir")
    if cache_dir is not None:
        yield cache_dir, False
        return
    temp_dir = tempfile.mkdtemp(prefix=prefix)
    try:
        yield temp_dir, True
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)


def chunk_payload(payload: list, workers: int,
                  chunksize: int = None) -> list:
    """Split work units into contiguous chunks for dispatch.

    The default chunk size splits the payload roughly twice per worker —
    large enough to amortize per-dispatch overhead (IPC for the process
    pool, a protocol round trip for the distributed backend), small
    enough that a straggler can be balanced by the other workers.  This
    is the one chunking policy both backends share.
    """
    if not payload:
        return []
    chunksize = chunksize or max(
        1, (len(payload) + 2 * workers - 1) // (2 * workers)
    )
    return [
        payload[start:start + chunksize]
        for start in range(0, len(payload), chunksize)
    ]


class ProgressReporter:
    """Per-group completion ticker for long sweeps (stderr by default).

    Thread-safe: the distributed coordinator advances it from its
    connection handler threads.  ``sink`` may be a callable
    ``(done, total, elapsed_seconds)`` for programmatic consumers
    (tests, dashboards); the default prints
    ``groups done/total (elapsed)`` lines to ``stderr`` — through
    :func:`repro.engine.telemetry.log_line`, the one lock-guarded
    line-buffered writer worker warnings also use, so concurrent
    emitters never interleave mid-line — and ``--out -`` tables stay
    clean.
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
                      worker: str = None) -> None:
    """Report one finished work group to the runner's observer, if any.

    ``results`` are the group's streamed rows (fed to the observer's
    per-layer analyzer); ``worker`` identifies the executing distributed
    worker.  When a run journal is active the group is also appended to
    it here — durably, before the call returns — which is what makes
    every backend resumable through the one seam.  A no-op without an
    active observer or journal, so the hot path costs two attribute
    reads.
    """
    journal = journal_of(runner)
    if journal is not None:
        journal.record_unit(scenario_name, model_name, seconds,
                            results=results, worker=worker)
    observer = observer_of(runner)
    if observer is not None:
        observer.record_unit(scenario_name, model_name, seconds,
                             results=results, worker=worker)
    telemetry.metrics().observe("repro_unit_seconds", float(seconds),
                                scenario=scenario_name,
                                model=model_name)


def observe_phase(runner, name: str, seconds: float) -> None:
    """Report one named backend stage's wall time to the observer."""
    observer = observer_of(runner)
    if observer is not None:
        observer.record_phase(name, seconds)


class BackendUnavailable(RuntimeError):
    """A backend cannot start at all (as opposed to failing mid-run).

    Raised, for example, by the dist coordinator when no worker
    connects within the start timeout.  When the runner's ``degrade``
    knob is on, :meth:`ExperimentRunner.run` catches this and retries
    the plan on the next backend in :attr:`fallbacks` (the degradation
    ladder) instead of failing the sweep.
    """

    #: Backend names to try next, most capable first.
    fallbacks = ("process", "serial")


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

#: Per-worker state, created lazily on first chunk: each worker process
#: keeps a two-tier :class:`TraceCache` — the memory tier is
#: worker-local, while the disk tier (the directory the parent's
#: :class:`ProcessBackend` hands to :func:`_init_worker`) is shared by
#: every worker of the pool, so a frame traced during the trace stage is
#: loaded, not re-traced, wherever its simulate chunks land.
_WORKER_CACHE = None
_WORKER_FRAMES = None
_WORKER_CACHE_DIR = None


def _init_worker(cache_dir) -> None:
    """Pool initializer: pin this worker to its run's shared disk tier.

    The directory arrives as an explicit initializer argument — never
    via environment mutation in the parent, which would race when two
    process-backend runs overlap in one process.
    """
    global _WORKER_CACHE_DIR
    _WORKER_CACHE_DIR = cache_dir


def _worker_state():
    global _WORKER_CACHE, _WORKER_FRAMES
    if _WORKER_CACHE is None:
        from .runner import FrameProvider

        _WORKER_CACHE = TraceCache(maxsize=16, disk_dir=_WORKER_CACHE_DIR)
        _WORKER_FRAMES = FrameProvider()
    return _WORKER_CACHE, _WORKER_FRAMES


def _worker_trace(cache, frames, scenario, model, frame,
                  rulegen_shards=None, prev_trace=None,
                  delta_threshold=None):
    from ..models.specs import ModelSpec, build_model_spec

    pillar_frame = frames.frame_for(scenario, model, frame)
    spec = model if isinstance(model, ModelSpec) else build_model_spec(model)
    return cache.get_trace(
        spec,
        pillar_frame.coords,
        pillar_frame.point_counts.astype(float),
        rulegen_shards=rulegen_shards,
        prev_trace=prev_trace,
        delta_threshold=delta_threshold,
        label=(scenario.name, _model_name(model)),
    )


def _trace_chunk(chunk: list, rulegen_shards=None,
                 delta_threshold=None) -> None:
    """Trace-stage work unit: warm the shared tiers with unique frames.

    Each job is a :func:`plan_trace_jobs` entry, its frames traced in
    order so each patches its predecessor.  The finished traces land in
    this worker's memory tier *and* the shared disk tier, making them
    available to every simulate-stage worker.
    """
    cache, provider = _worker_state()
    for scenario, model, frames in chunk:
        prev = None
        for frame in frames:
            prev = _worker_trace(
                cache, provider, scenario, model, frame, rulegen_shards,
                prev_trace=prev, delta_threshold=delta_threshold,
            )


def _run_chunk(chunk: list, rulegen_shards=None, delta_trace=False,
               delta_threshold=None) -> dict:
    """Execute one pickled chunk of (scenario, model, simulators) units.

    Returns ``{"rows": [row list per group], "seconds": [wall seconds
    per group]}`` — groups are timed *here*, in the worker process,
    because the parent only observes chunk completions.
    """
    cache, frames = _worker_state()
    nested = []
    seconds = []
    for scenario, model, simulators in chunk:
        group = WorkGroup(scenario, model, tuple(simulators))
        started = time.monotonic()
        rows = execute_group(
            group,
            lambda s, m, f, prev=None: _worker_trace(
                cache, frames, s, m, f, rulegen_shards,
                prev_trace=prev if delta_trace else None,
                delta_threshold=delta_threshold,
            ),
        )
        seconds.append(time.monotonic() - started)
        for row in rows:
            # The legacy result objects retain whole rule arrays; never
            # ship them back over IPC.
            row.raw = None
        nested.append(rows)
    return {"rows": nested, "seconds": seconds}


@register_backend("process")
class ProcessBackend(Backend):
    """Process-pool fan-out for many-scenario sweeps.

    Execution is a two-stage pipeline.  The **trace stage** distributes
    every unique (scenario, model, frame) across the pool exactly once;
    finished traces persist to the :class:`TraceCache` disk tier — the
    ``REPRO_TRACE_CACHE_DIR`` directory, or a run-scoped temporary
    directory the backend creates (and removes) when the variable is
    unset.  The **simulate stage** then ships (scenario, model,
    simulators) work units in contiguous chunks; workers load the shared
    traces from disk instead of each re-tracing its own copy (the cold
    per-worker re-trace was the committed baseline's regression: 1.51 s
    process vs 1.11 s serial).  Contiguous chunks keep IPC count low and
    let a worker's local :class:`FrameProvider` reuse a scenario's
    frames across the models that share a grid.

    A resolved worker count of 1 skips the pool entirely and runs the
    plan in-process (still stripping ``raw``, preserving the backend's
    result contract).

    Restrictions: the runner must be on the default frame path — a
    ``trace_provider`` closure or a custom frame-provider instance cannot
    be shipped to worker processes.  ``SimResult.raw`` is ``None`` on
    every returned row (the legacy objects are worker-local); all other
    fields are bit-identical to the serial backend's.

    Args:
        max_workers: Pool width; defaults to the runner's
            ``max_workers``.
        chunksize: Work-group count per IPC submission; defaults to
            splitting the plan roughly twice per worker for load balance.
    """

    name = "process"

    def __init__(self, max_workers: int = None, chunksize: int = None):
        self.max_workers = max_workers
        self.chunksize = chunksize

    @staticmethod
    def incompatibility(runner) -> str:
        """Why this runner cannot go through worker processes (or None).

        Lets the runner fall back to serial when the process backend
        was only an environment default rather than an explicit choice.
        """
        from .runner import FrameProvider

        if runner.trace_provider is not None:
            return (
                "ProcessBackend cannot ship a trace_provider closure to "
                "worker processes; use the serial backend, or "
                "let workers trace through the default frame path"
            )
        if type(runner.frame_provider) is not FrameProvider:
            return (
                "ProcessBackend re-creates the default FrameProvider "
                f"inside each worker; a custom "
                f"{type(runner.frame_provider).__name__} instance would "
                "be silently ignored — use the serial backend"
            )
        return None

    def execute(self, runner, groups: list) -> list:
        """Trace into the shared store, then fan chunks out to a pool."""
        reason = self.incompatibility(runner)
        if reason is not None:
            raise ValueError(reason)
        if not groups:
            return []
        workers = self.max_workers or runner.max_workers
        if workers == 1:
            # Pure pool overhead at width 1: run in-process through the
            # runner's own cache, keeping the raw-stripping contract.
            nested = SerialBackend().execute(runner, groups)
            for rows in nested:
                for row in rows:
                    row.raw = None
            return nested

        shards = runner.rulegen_shards
        delta = getattr(runner, "delta_trace", False)
        threshold = getattr(runner, "delta_threshold", None)
        payload = [
            (group.scenario, group.model, tuple(group.simulators))
            for group in groups
        ]
        chunks = chunk_payload(payload, workers, self.chunksize)

        # Trace stage: every unique frame (or, in delta mode, every
        # sequential chain) exactly once, round-robin across the pool.
        trace_jobs = plan_trace_jobs(groups, delta)
        trace_width = min(workers, len(trace_jobs))
        trace_chunks = [
            trace_jobs[start::trace_width] for start in range(trace_width)
        ]

        # Workers share traces through the disk tier, handed to each
        # worker by the pool initializer; when the environment names no
        # cache directory, a run-scoped temporary one stands in (and is
        # cleaned up by the context manager even when the run fails).
        with run_scoped_cache_dir() as (cache_dir, _):
            width = min(workers, max(len(chunks), len(trace_chunks)))
            with ProcessPoolExecutor(max_workers=width,
                                     initializer=_init_worker,
                                     initargs=(cache_dir,)) as pool:
                trace_started = time.monotonic()
                list(pool.map(
                    partial(_trace_chunk, rulegen_shards=shards,
                            delta_threshold=threshold),
                    trace_chunks,
                ))
                observe_phase(runner, "trace",
                              time.monotonic() - trace_started)
                chunk_results = []
                for chunk, outcome in zip(
                    chunks,
                    pool.map(
                        partial(_run_chunk, rulegen_shards=shards,
                                delta_trace=delta,
                                delta_threshold=threshold),
                        chunks,
                    ),
                ):
                    chunk_results.append(outcome["rows"])
                    for (scenario, model, _), rows, seconds in zip(
                            chunk, outcome["rows"], outcome["seconds"]):
                        observe_unit_done(runner, scenario.name,
                                          _model_name(model), seconds,
                                          rows)
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
