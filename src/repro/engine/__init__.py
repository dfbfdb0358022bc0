"""Unified simulation engine: one seam for every simulator in the repo.

* :mod:`repro.engine.result`     — the common :class:`SimResult` schema
  and the tidy :class:`ExperimentTable` (CSV/JSON round trip);
* :mod:`repro.engine.simulators` — adapters wrapping SPADE, DenseAcc,
  PointAcc, SpConv2D-Acc and the platform models behind one
  :class:`Simulator` interface;
* :mod:`repro.engine.micro`      — substrate micro-simulators (mapping
  hardware, gather dataflows) behind the same interface;
* :mod:`repro.engine.cache`      — the content-keyed :class:`TraceCache`
  (rulegen once per (model, frame), shared across simulators and runs);
* :mod:`repro.engine.backends`   — the execution backends (serial /
  process) with chunked IPC and per-worker caches;
* :mod:`repro.engine.runner`     — the multi-scenario, multi-backend
  :class:`ExperimentRunner` with frame batching;
* :mod:`repro.engine.registry`   — the simulator registry
  (``@register_simulator``): the plugin seam third-party code extends;
  custom frames and backends are passed as :class:`FrameProvider` /
  :class:`Backend` instances;
* :mod:`repro.engine.settings`   — the settings dataclasses whose
  fields declare every ``REPRO_ENGINE_*`` / ``REPRO_TRACE_CACHE_DIR``
  environment knob (import them from there);
* :mod:`repro.engine.spec`       — :class:`ExperimentSpec`, the
  declarative (JSON-serializable) form of an experiment, which the
  ``repro`` CLI front-end (:mod:`repro.cli`) runs from the shell;
* :mod:`repro.engine.manifest`   — :class:`RunManifest` +
  :class:`RunObserver`: the per-run provenance artifact (spec hash, git
  rev, settings, per-unit/phase timings, cache stats) written
  alongside every ``repro run --out`` sink;
* :mod:`repro.engine.journal`    — :class:`RunJournal`, the per-run
  write-ahead log behind ``repro run --resume`` (checkpoint every
  completed work group, recover torn tails, stitch byte-identical
  output);
* :mod:`repro.engine.faults`     — the deterministic fault-injection
  harness (:class:`FaultPlan` from ``REPRO_ENGINE_FAULTS``) the chaos
  tests drive run kills, torn journal writes and corrupted cache
  entries through;
* :mod:`repro.engine.telemetry`  — the live observability layer:
  :class:`SpanTracer` (Chrome trace-event export, one timeline across
  the pool workers, the per-phase profile a traced run's manifest
  records) and the one lock-guarded stderr writer.
"""

from .backends import (
    Backend,
    ProcessBackend,
)
from .journal import (
    RunJournal,
    read_journal,
)
from .cache import (
    TraceCache,
    clear_disk_tier,
    scan_disk_tier,
    shared_trace_cache,
)
from .manifest import (
    RunManifest,
    RunObserver,
    git_revision,
    manifest_path_for,
    spec_hash,
)
from .micro import GatherDramSim, MappingSim
from .registry import (
    SIMULATORS,
    register_simulator,
)
from .result import (
    RESULT_COLUMNS,
    ExperimentTable,
    SimResult,
)
from .runner import (
    ExperimentRunner,
    FrameProvider,
    Scenario,
)
from .telemetry import (
    SpanTracer,
    log_line,
    tracing,
)
from .simulators import (
    DenseAccSimulator,
    PlatformSim,
    PointAccSim,
    Simulator,
    SpadeNoOverlapSim,
    SpadeSimulator,
    SpConv2DSim,
    build_simulator,
)
from .spec import ExperimentSpec

__all__ = [
    "RESULT_COLUMNS",
    "SIMULATORS",
    "Backend",
    "DenseAccSimulator",
    "ExperimentRunner",
    "ExperimentSpec",
    "ExperimentTable",
    "FrameProvider",
    "GatherDramSim",
    "MappingSim",
    "PlatformSim",
    "PointAccSim",
    "ProcessBackend",
    "RunJournal",
    "RunManifest",
    "RunObserver",
    "Scenario",
    "SimResult",
    "Simulator",
    "SpanTracer",
    "SpConv2DSim",
    "SpadeNoOverlapSim",
    "SpadeSimulator",
    "TraceCache",
    "build_simulator",
    "clear_disk_tier",
    "git_revision",
    "log_line",
    "manifest_path_for",
    "scan_disk_tier",
    "read_journal",
    "spec_hash",
    "register_simulator",
    "shared_trace_cache",
    "tracing",
]
