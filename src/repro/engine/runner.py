"""Parallel multi-scenario experiment runner.

:class:`ExperimentRunner` executes a grid of scenarios x models x
simulators and returns a tidy :class:`~repro.engine.result.ExperimentTable`.
Work is organized so the expensive part — geometric tracing with rule
generation — happens exactly once per (scenario, model, frame) through a
shared :class:`~repro.engine.cache.TraceCache`, no matter how many
simulators consume the trace or how many times the grid re-runs.
Execution then goes through a pluggable
:class:`~repro.engine.backends.Backend` — serial (default) or process
pool — selected per runner, per call (``run(backend=)``), or via the
``REPRO_ENGINE_BACKEND`` environment variable.

A :class:`Scenario` can carry one frame (the default) or a batch of
``frames`` seeded frames: the batch is traced in a single rulegen pass
per model and the result table gains per-frame rows plus a ``"mean"``
aggregate row per cell.

Frames come from a :class:`FrameProvider` — by default the repo's
deterministic synthetic scenes, seeded per (scenario, frame) — or from
any provider subclass the caller supplies; either way every trace is
looked up through :func:`lookup_trace` and the runner's
:class:`~repro.engine.cache.TraceCache`, so a cache another caller
already filled for the same frames turns every lookup into a hit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..analysis.sparsity import ModelTrace
from ..data.pillars import PillarFrame, voxelize
from ..data.synthetic import KITTI_SCENE, SceneGenerator, nuscenes_scene_config
from ..models.specs import ModelSpec, build_model_spec
from ..models.zoo import TABLE1_PAPER, grid_for, scene_config_for
from . import faults as _faults
from . import telemetry
from .backends import (
    ProgressReporter,
    SerialBackend,
    WorkGroup,
    resolve_backend,
)
from .cache import TraceCache, shared_trace_cache
from .journal import RunJournal, unit_key
from .result import ExperimentTable
from .settings import EngineSettings
from .simulators import resolve_simulators


def validate_scenario(name, seed, frames) -> None:
    """The one scenario validator, shared by every construction path.

    :class:`Scenario` calls it from ``__post_init__`` (kwarg-built
    scenarios) and :class:`~repro.engine.spec.ExperimentSpec` builds its
    scenarios through :class:`Scenario`, so a dict in a JSON spec file
    and a keyword argument produce the *same* error for the same
    mistake — no drift between the two paths.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"scenario name must be a non-empty string, got {name!r}"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(
            f"scenario {name!r} needs an integer seed, got {seed!r}"
        )
    if not isinstance(frames, int) or isinstance(frames, bool) \
            or frames < 1:
        raise ValueError(
            f"scenario {name!r} needs frames >= 1, got {frames!r}"
        )


@dataclass(frozen=True)
class Scenario:
    """One experiment condition: which frame(s) feed the models.

    Attributes:
        name: Row label in the result table.
        seed: Scene-generator seed; different seeds are different drives
            through the same synthetic world.
        frames: Number of seeded frames in this scenario's batch.  Frame
            ``i`` uses seed ``seed + i``, so a batch of N frames is
            numerically identical to N single-frame scenarios at
            consecutive seeds.  Batched scenarios produce per-frame rows
            plus one ``"mean"`` aggregate row per grid cell.
    """

    name: str = "default"
    seed: int = 0
    frames: int = 1

    def __post_init__(self):
        validate_scenario(self.name, self.seed, self.frames)


DEFAULT_SCENARIO = Scenario()


class FrameProvider:
    """Builds and caches one pillar frame per (scenario, grid, frame).

    Models sharing a grid within a scenario share the frame — matching
    how the benchmark suite has always fed one KITTI frame to all SPP
    variants and one nuScenes frame to all SCP variants.  Frames are
    keyed by the whole :class:`~repro.data.grids.GridSpec`, not its
    name, so a custom grid that keeps a built-in name (say KITTI with
    a coarser pillar) gets its own frame.  Concurrent callers for one
    key wait on the first builder, so scene synthesis and
    :func:`~repro.data.pillars.voxelize` run once per key.

    A cached frame is a :class:`~repro.data.pillars.PillarFrame`: the
    coords, point counts and grid that tracing reads.  The decorated
    point features ``voxelize`` also builds are dropped as soon as it
    returns, so a sweep holds each frame at the cost of its pillars.
    """

    def __init__(self):
        self._frames = {}
        self._inflight = {}
        self._lock = threading.Lock()

    @staticmethod
    def _grid_and_config(model):
        """(grid, scene config) feeding one model.

        Any :class:`ModelSpec` is keyed by *its own* grid — never the
        zoo's name lookup, which would silently pick the wrong world for
        a custom spec (unknown names default to nuScenes, and a renamed
        spec may carry a different grid than its namesake).  For the
        built-in Table I specs the spec's grid and the zoo pairing are
        identical, so the behaviour matches the published setup.  A bare
        string must be a Table I name; anything else has no grid at all
        and is rejected rather than guessed.
        """
        if isinstance(model, ModelSpec):
            grid = model.grid
            if grid.name == "kitti":
                return grid, replace(KITTI_SCENE, grid=grid)
            return grid, nuscenes_scene_config(grid)
        if model not in TABLE1_PAPER:
            raise KeyError(
                f"unknown model name {model!r}: pass a ModelSpec (its grid "
                f"decides the frame) or one of {sorted(TABLE1_PAPER)}"
            )
        return grid_for(model), scene_config_for(model)

    def frame_for(self, scenario: Scenario, model,
                  frame: int = 0) -> PillarFrame:
        """The (cached) pillar frame for one model under one scenario.

        ``model`` is a Table I name or a :class:`ModelSpec`; ``frame``
        indexes into a batched scenario (frame ``i`` is seeded
        ``scenario.seed + i``, so frame 0 reproduces the single-frame
        path exactly).  Concurrent callers for the same key wait on the
        first builder instead of duplicating the scene synthesis; builds
        for distinct keys run concurrently.
        """
        grid, scene_config = self._grid_and_config(model)
        seed = scenario.seed + frame
        key = (scenario.name, seed, grid)
        while True:
            with self._lock:
                if key in self._frames:
                    return self._frames[key]
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break
            event.wait()
        try:
            generator = SceneGenerator(scene_config, seed=seed)
            batch = voxelize(generator.generate(), grid)
            built = PillarFrame(batch.coords, batch.point_counts, batch.grid)
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        with self._lock:
            self._frames[key] = built
            self._inflight.pop(key).set()
        return built


def lookup_trace(settings: EngineSettings, cache: TraceCache,
                 frames: FrameProvider, spec: ModelSpec, scenario: Scenario,
                 model, frame: int, prev_trace: ModelTrace = None
                 ) -> ModelTrace:
    """The (cached) trace of one frame of one grid cell.

    The one trace-lookup policy: the frame comes from ``frames``, the
    trace from ``cache``; ``prev_trace`` (the previous sequential
    frame's trace) seeds the delta path on a miss only when
    ``settings.delta_trace`` is on.
    :meth:`ExperimentRunner.trace_for` traces through it, and so do the
    process backend's pool workers.
    """
    built = frames.frame_for(scenario, model, frame)
    return cache.get_trace(
        spec,
        built.coords,
        built.point_counts.astype(float),
        prev_trace=prev_trace if settings.delta_trace else None,
        label=(scenario.name, spec.name),
    )


class ExperimentRunner:
    """Run every (scenario, model, simulator) combination of a grid.

    Args:
        simulators: :class:`~repro.engine.simulators.Simulator` instances
            or spec strings accepted by
            :func:`~repro.engine.simulators.build_simulator`.
        models: Table I model names or :class:`ModelSpec` instances.
        scenarios: Experiment conditions; defaults to one seed-0 scenario.
        cache: Trace cache to share; defaults to the process-wide cache.
        frame_provider: Optional :class:`FrameProvider` (subclass)
            instance; defaults to the synthetic scenes.  The process
            backend builds its workers' providers itself, so it rejects
            a custom instance.
        cell_filter: Optional ``(scenario, model_name, simulator) -> bool``
            predicate; cells returning ``False`` are skipped entirely
            (not traced, not simulated, absent from the table).  Use it
            when only some model/simulator pairings of a grid are
            meaningful — e.g. SPADE on sparse models but DenseAcc on
            their dense counterparts.
        backend: Execution backend — a
            :class:`~repro.engine.backends.Backend` instance or one of
            ``"serial"`` / ``"process"``.  Defaults to the
            ``REPRO_ENGINE_BACKEND`` environment variable, else
            ``"serial"``.
        max_workers: Pool width for parallel backends; the
            ``REPRO_ENGINE_WORKERS`` environment variable overrides the
            default when no explicit value is given.
        delta_trace: When True, batched scenarios trace as sequential
            delta chains: frame 0 builds rules in full and frames
            1..N-1 are routed to
            :func:`~repro.sparse.rulegen.build_rules_delta`, which
            shares a predecessor's rules when a layer input is unchanged
            and rebuilds otherwise.  Delta
            rules are bit-identical and the cache keys never change, so
            the table, cache hits and shipped artifacts are unaffected —
            only trace speed.  Defaults to ``REPRO_ENGINE_DELTA_TRACE``,
            else off.

    Every knob resolves once, into :attr:`settings`; the manifest
    records that snapshot.
    """

    def __init__(self, simulators, models, scenarios=None,
                 cache: TraceCache = None,
                 frame_provider: FrameProvider = None,
                 cell_filter=None, backend=None, max_workers: int = None,
                 delta_trace: bool = None,
                 faults: str = None):
        self.simulators = resolve_simulators(simulators)
        self.models = list(models)
        self.scenarios = list(scenarios) if scenarios else [DEFAULT_SCENARIO]
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(
                f"scenario names must be unique (table rows are looked up "
                f"by name), got {names}"
            )
        model_names = [self._model_name(model) for model in self.models]
        if len(set(model_names)) != len(model_names):
            raise ValueError(
                f"model names must be unique (traces and table rows are "
                f"keyed by name), got {model_names}"
            )
        simulator_names = [simulator.name for simulator in self.simulators]
        if len(set(simulator_names)) != len(simulator_names):
            raise ValueError(
                f"simulator names must be unique (table rows are looked "
                f"up by name), got {simulator_names}"
            )
        self.cell_filter = cell_filter
        self.cache = cache if cache is not None else shared_trace_cache()
        self.frame_provider = frame_provider or FrameProvider()
        # Remember whether the backend was chosen by the caller or only
        # inherited from the environment: an explicit incompatible
        # choice is an error, an environment default falls back.
        self._backend_explicit = backend is not None
        #: Every knob of this runner, resolved once (explicit argument >
        #: environment > default); the manifest records this snapshot
        #: and the process backend ships it to its pool workers.
        self.settings = EngineSettings.resolve(
            backend=getattr(backend, "name", backend),
            workers=max_workers,
            cache_dir=getattr(self.cache, "disk_dir", None),
            delta_trace=delta_trace,
            faults=faults,
        )
        self.backend = backend if backend is not None else (
            self.settings.backend
        )
        self._specs = {}
        self._progress = None
        self._observer = None
        self._journal = None
        #: The :class:`~repro.engine.spec.ExperimentSpec` this runner
        #: was built from, set by ``ExperimentSpec.build_runner``; the
        #: manifest and the run journal hash it.
        self.source_spec = None

    def _spec_for(self, model) -> ModelSpec:
        if isinstance(model, ModelSpec):
            return model
        if model not in self._specs:
            self._specs[model] = build_model_spec(model)
        return self._specs[model]

    @staticmethod
    def _model_name(model) -> str:
        return model.name if isinstance(model, ModelSpec) else model

    def trace_for(self, scenario: Scenario, model, frame: int = 0,
                  prev_trace: ModelTrace = None) -> ModelTrace:
        """The (cached) trace feeding one frame of one grid cell.

        ``prev_trace`` may carry the previous sequential frame's trace:
        with ``delta_trace`` enabled a cache miss then routes its layers
        to ``build_rules_delta``, which shares that trace's rules where a
        layer input is unchanged (content keys never change, so hits
        behave identically either way).
        """
        return lookup_trace(self.settings, self.cache, self.frame_provider,
                            self._spec_for(model), scenario, model, frame,
                            prev_trace)

    def trace_chain(self, scenario: Scenario, model) -> list:
        """All frame traces of one (scenario, model), in frame order.

        With ``delta_trace`` enabled this is the sequential delta chain:
        frame 0 full, every later frame seeded by its predecessor's
        trace; otherwise it is a plain per-frame loop.
        """
        traces = []
        prev = None
        for frame in range(scenario.frames):
            trace = self.trace_for(scenario, model, frame, prev_trace=prev)
            traces.append(trace)
            prev = trace if self.settings.delta_trace else None
        return traces

    def plan(self) -> list:
        """The work groups of one sweep, in deterministic table order.

        One :class:`~repro.engine.backends.WorkGroup` per (scenario,
        model) that has at least one simulator surviving the cell
        filter; groups are scenario-major, matching the row order of the
        resulting table.
        """
        groups = []
        for scenario in self.scenarios:
            for model in self.models:
                simulators = tuple(
                    simulator
                    for simulator in self.simulators
                    if self.cell_filter is None
                    or self.cell_filter(scenario, self._model_name(model),
                                        simulator)
                )
                if simulators:
                    groups.append(WorkGroup(scenario, model, simulators))
        return groups

    def run(self, backend=None, progress=False, observer=None,
            journal=None) -> ExperimentTable:
        """Execute the full grid.

        Args:
            backend: Per-call backend override (instance or name),
                taking precedence over the runner's configured backend;
                ``backend="serial"`` runs in-process with identical
                results (useful for debugging and for measuring the
                parallel speedup).
            progress: ``True`` prints per-group completion
                (``done/total``, elapsed) to stderr as the sweep runs;
                a callable receives ``(done, total, elapsed_seconds)``
                instead.  Every backend reports through the same seam.
            observer: Optional
                :class:`~repro.engine.manifest.RunObserver` collecting
                per-unit timings and row counts, phase timings and
                cache statistics for a
                :class:`~repro.engine.manifest.RunManifest`.  Every
                backend reports through the same seam as progress.
            journal: Optional :class:`~repro.engine.journal.RunJournal`
                (or a path for one) checkpointing every completed work
                group.  An existing journal resumes: its spec hash is
                validated, completed units are skipped, and their
                journaled rows are stitched back in plan order, so the
                resumed table is identical to an uninterrupted run.

        Returns:
            An :class:`ExperimentTable` in deterministic
            scenarios x models x simulators order (per-frame rows plus a
            ``"mean"`` row per cell for batched scenarios).
        """
        if backend is not None:
            chosen = resolve_backend(backend)
        else:
            chosen = resolve_backend(self.backend)
            if (not self._backend_explicit
                    and chosen.incompatibility(self) is not None):
                # The backend default came from REPRO_ENGINE_BACKEND but
                # this runner fails its preconditions (the default frame
                # provider for the process pool) — fall back to serial
                # rather than failing a runner the caller never asked to
                # put on that backend.
                chosen = SerialBackend()
        groups = self.plan()
        done = set()
        pending = groups
        if journal is not None:
            if not isinstance(journal, RunJournal):
                journal = RunJournal(journal)
            journal.open_for_run(self, groups)
            done = journal.completed_keys()
            pending = [group for group in groups
                       if self._group_key(group) not in done]
        if progress:
            sink = progress if callable(progress) else None
            self._progress = ProgressReporter(len(pending), sink=sink)
        if observer is not None:
            self._observer = observer
            observer.attach(self)
            # Replay resumed units so the manifest's unit log and row
            # counts cover the whole sweep, not just the groups
            # executed after the resume point.
            for group in groups:
                key = self._group_key(group)
                if key in done:
                    observer.record_unit(
                        group.scenario.name,
                        self._model_name(group.model),
                        journal.seconds_for(key),
                        results=journal.rows_for(key),
                        worker=journal.worker_for(key),
                    )
        self._journal = journal
        try:
            with _faults.scoped(self.settings.faults):
                nested = chosen.execute(self, pending) if pending else []
        finally:
            self._progress = None
            self._journal = None
            if journal is not None:
                journal.close()
            if observer is not None:
                # A traced run snapshots its per-phase span profile
                # into the manifest's `telemetry` key; untraced
                # manifests don't carry the key at all.
                tracer = telemetry.active_tracer()
                if tracer is not None:
                    observer.record_telemetry(
                        {"spans": tracer.phase_profile()})
                observer.finish(self)
                self._observer = None
        if done:
            # Stitch journaled rows back in plan order around the rows
            # the backend just produced for the pending groups.
            live = iter(nested)
            nested = [
                journal.rows_for(key) if key in done else next(live)
                for key in map(self._group_key, groups)
            ]
        return ExperimentTable(
            results=[row for rows in nested for row in rows]
        )

    def _group_key(self, group) -> str:
        """The journal unit key of one work group."""
        return unit_key(group.scenario.name, self._model_name(group.model))
