"""Run manifests: how a result table was produced, as an artifact.

A result sink (``results.json`` / ``results.csv``) records *what* came
out of a sweep; the :class:`RunManifest` written next to it records
*how* — the resolved experiment spec and its content hash, the git
revision of the tree, the resolved engine settings, which backend (and,
for process runs, which pool workers) executed the plan, per-unit and
per-phase timings, trace-cache hit/miss/disk statistics, delta-tracing
utilization, and streaming per-layer sparsity analytics.  Together with
the table it makes a run a self-contained, diffable reproduction
artifact: ``repro report`` renders both, and two manifests can be
compared field-for-field to explain why two tables differ.

The data flows in through a :class:`RunObserver` — a thread-safe hook
the :class:`~repro.engine.runner.ExperimentRunner` carries for the
duration of one ``run()`` call.  Backends report through module helpers
in :mod:`~repro.engine.backends` (the same pattern as progress
reporting): each finished work group contributes one *unit* record
(scenario, model, wall seconds, row count, executing worker), the
whole run contributes one ``"run"`` *phase* timing, and every streamed
row's per-layer detail feeds a
:class:`~repro.analysis.sparsity.SparsityAnalyzer` incrementally, so
observation never retains tables or traces.

Coverage by backend: the serial backend times units in-process; the
process backend times them inside its worker processes and ships the
seconds back with the rows and the worker's ``process-<pid>`` name.
Trace-cache statistics follow the same path: each worker records its
own cache's counter delta per group and ships it next to the group's
seconds, and the manifest's ``cache`` block adds those deltas to the
run's own cache delta — so process manifests count the same lookups,
misses and layers as a serial run of the same plan.  ``entries`` and
``disk_dir`` still describe the run's own cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import subprocess
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from ..analysis.sparsity import SparsityAnalyzer
from .cache import CACHE_DELTA_KEYS, counter_delta

#: Schema identifier stamped into every manifest file.
MANIFEST_SCHEMA = "repro.RunManifest"

#: Manifest layout version; bumped on breaking changes so old files
#: fail loudly instead of misparsing.
MANIFEST_VERSION = 1

def spec_hash(spec_dict: dict) -> str:
    """Content hash of one resolved experiment-spec dict.

    The digest is taken over the canonical JSON form (sorted keys,
    minimal separators), so two specs that serialize to the same
    document hash identically regardless of key order or formatting.
    """
    canonical = json.dumps(spec_dict, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha1(canonical.encode()).hexdigest()


def git_revision(root=None) -> str:
    """The checked-out git revision of ``root`` (or the cwd), or None.

    Best effort by design: a missing ``git`` binary, a non-repository
    directory or any other failure yields ``None`` rather than an
    error — manifests must be writable from deployment environments
    that never see the repository.  The answer (``None`` included) is
    cached per resolved directory for the life of the process, so a
    sweep loop does not spawn ``git`` once per manifest.
    """
    return _git_revision_at(Path(root or ".").resolve())


@functools.lru_cache(maxsize=None)
def _git_revision_at(directory: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(directory),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def manifest_path_for(out) -> Path:
    """The manifest path written alongside one result sink.

    ``results.json`` maps to ``results.manifest.json`` (likewise for
    ``.csv`` or any other suffix); the manifest always lands next to
    the table it describes.
    """
    path = Path(out)
    return path.with_name(path.stem + ".manifest.json")


class RunObserver:
    """Streaming collector of one run's execution statistics.

    Attach one to :meth:`ExperimentRunner.run(observer=...)
    <repro.engine.runner.ExperimentRunner.run>`; every backend then
    reports per-unit timings and streamed rows through it (see
    :func:`~repro.engine.backends.observe_unit_done`).  All methods are
    thread-safe.

    Attributes:
        units: One dict per finished work group: ``{"scenario",
            "model", "seconds", "rows", "worker"}`` (``worker`` is the
            executing process-pool worker's ``process-<pid>``, else
            None).
        phases: ``[{"name": "run", "seconds": ...}]`` — the total run's
            wall time, appended by :meth:`finish`.
        analyzer: The :class:`~repro.analysis.sparsity.SparsityAnalyzer`
            fed every streamed row's per-layer detail.
        cache_stats: Trace-cache statistics delta over the observed run
            — the runner's own cache plus every worker-side delta
            passed to :meth:`record_unit` (populated by :meth:`finish`).
        telemetry: ``{"spans": ...}``, a traced run's per-phase span
            profile (:meth:`SpanTracer.phase_profile
            <repro.engine.telemetry.SpanTracer.phase_profile>`), or
            None (untraced manifests don't carry the key).
    """

    def __init__(self, analyzer: SparsityAnalyzer = None):
        self.units = []
        self.phases = []
        self.analyzer = analyzer if analyzer is not None \
            else SparsityAnalyzer()
        self.cache_stats = {}
        self.telemetry = None
        self._lock = threading.Lock()
        self._started = None
        self._cache_before = None
        self._worker_cache = dict.fromkeys(CACHE_DELTA_KEYS, 0)

    # -- lifecycle (driven by ExperimentRunner.run) ------------------------

    def attach(self, runner) -> None:
        """Snapshot pre-run state; called as the run starts."""
        with self._lock:
            self._started = time.monotonic()
            self._cache_before = runner.cache.stats()

    def finish(self, runner) -> None:
        """Record the total wall time and the cache-stats delta: the
        runner's own cache delta plus the recorded worker deltas."""
        with self._lock:
            if self._started is not None:
                self.phases.append({
                    "name": "run",
                    "seconds": time.monotonic() - self._started,
                })
            after = runner.cache.stats()
            delta = counter_delta(self._cache_before or {}, after)
            for key, count in self._worker_cache.items():
                delta[key] += count
            delta["entries"] = after.get("entries", 0)
            delta["disk_dir"] = after.get("disk_dir")
            self.cache_stats = delta

    # -- streaming hooks (driven by backends) ------------------------------

    def record_unit(self, scenario: str, model: str, seconds: float,
                    results=(), worker: str = None,
                    cache: dict = None) -> None:
        """One finished work group: timing plus its streamed rows.

        ``cache`` is the :func:`~repro.engine.cache.counter_delta` of
        the cache that traced the group when that is not the runner's
        own (a pool worker's); it is added to
        :attr:`cache_stats` at :meth:`finish`.
        """
        rows = 0
        for result in results:
            rows += 1
            self.analyzer.ingest_result(result)
        with self._lock:
            if cache:
                for key in CACHE_DELTA_KEYS:
                    self._worker_cache[key] += int(cache.get(key, 0))
            self.units.append({
                "scenario": str(scenario),
                "model": str(model),
                "seconds": float(seconds),
                "rows": rows,
                "worker": worker,
            })

    def record_telemetry(self, snapshot: dict) -> None:
        """The traced run's telemetry snapshot (its span profile); set
        once by the runner as a traced run finishes."""
        with self._lock:
            self.telemetry = snapshot

    # -- snapshot ----------------------------------------------------------

    def unit_seconds(self) -> float:
        """Total seconds across recorded units (not wall time)."""
        with self._lock:
            return sum(unit["seconds"] for unit in self.units)

    def as_dict(self) -> dict:
        """JSON-safe snapshot of everything observed so far."""
        with self._lock:
            return {
                "units": [dict(unit) for unit in self.units],
                "phases": [dict(phase) for phase in self.phases],
                "cache": dict(self.cache_stats),
                "analysis": self.analyzer.summary(),
                "telemetry": (None if self.telemetry is None
                              else json.loads(
                                  json.dumps(self.telemetry))),
            }


@dataclass
class RunManifest:
    """Everything recorded about how one result table was produced.

    Attributes:
        name: The experiment spec's name (or the runner's description).
        created: ISO-8601 UTC timestamp of manifest assembly.
        spec: The full resolved :class:`~repro.engine.spec.ExperimentSpec`
            dict, or None for hand-built runners without a source spec.
        spec_hash: SHA-1 of the canonical spec JSON (None without one).
        git_rev: Checked-out git revision, when resolvable.
        backend: Name of the backend that executed the plan.
        settings: Resolved engine-knob snapshot (the runner's actual
            values, not just the environment's).
        table: Result-table shape summary: row count and the scenario /
            model / simulator axes.
        phases: The total run's wall timing (``"run"``).
        units: Per-work-group records (scenario, model, seconds, rows,
            executing worker).
        cache: Trace-cache statistics delta over the run, summed over
            the runner's cache and every worker's, including where the
            computed sparse layers got their rules: ``delta_layers``
            routed to ``build_rules_delta`` (shared or rebuilt),
            ``shared_layers`` reusing an earlier layer's rules in the
            same trace, and ``full_layers`` built directly.
        analysis: Streaming per-layer sparsity/overhead aggregates from
            the run's :class:`~repro.analysis.sparsity.SparsityAnalyzer`.
        journal: Run-journal summary (path, spec hash, resumed vs
            appended unit counts, torn/dropped line recovery), or None
            when the run was not journaled.
        telemetry: ``{"spans": ...}``, the per-phase span profile from
            :mod:`repro.engine.telemetry`; only present (in the dict
            form) for traced runs, so untraced manifests are unchanged.
    """

    name: str
    created: str
    spec: dict = None
    spec_hash: str = None
    git_rev: str = None
    backend: str = None
    settings: dict = field(default_factory=dict)
    table: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)
    units: list = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    journal: dict = None
    telemetry: dict = None

    @classmethod
    def collect(cls, runner, table, observer: RunObserver = None,
                backend: str = None, journal=None) -> "RunManifest":
        """Assemble the manifest of one finished run.

        Args:
            runner: The :class:`~repro.engine.runner.ExperimentRunner`
                that executed (its knobs and source spec are recorded).
            table: The resulting
                :class:`~repro.engine.result.ExperimentTable`.
            observer: The :class:`RunObserver` passed to ``run()``;
                None yields a manifest without timings/analytics.
            backend: Override for the recorded backend name; defaults
                to the runner's configured backend.
            journal: The run's
                :class:`~repro.engine.journal.RunJournal` (or its
                ``summary()`` dict); None for unjournaled runs.
        """
        source = getattr(runner, "source_spec", None)
        spec_dict = None
        digest = None
        if source is not None:
            try:
                spec_dict = source.to_dict()
                digest = spec_hash(spec_dict)
            except ValueError:
                spec_dict = None       # unserializable programmatic spec
        settings = runner.settings
        if backend is not None:
            settings = replace(settings, backend=backend)
        observed = observer.as_dict() if observer is not None else {}
        return cls(
            name=(spec_dict or {}).get("name")
                 or getattr(source, "name", None) or "run",
            created=datetime.now(timezone.utc).isoformat(),
            spec=spec_dict,
            spec_hash=digest,
            git_rev=git_revision(),
            backend=settings.backend,
            settings=settings.as_dict(),
            table={
                "rows": len(table),
                "scenarios": list(table.scenarios),
                "models": list(table.models),
                "simulators": list(table.simulators),
            },
            phases=observed.get("phases", []),
            units=observed.get("units", []),
            cache=observed.get("cache", {}),
            analysis=observed.get("analysis", {}),
            journal=(journal.summary()
                     if hasattr(journal, "summary") else journal),
            telemetry=observed.get("telemetry"),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The manifest as a JSON-safe dict (schema-stamped)."""
        out = {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "name": self.name,
            "created": self.created,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "git_rev": self.git_rev,
            "backend": self.backend,
            "settings": self.settings,
            "table": self.table,
            "phases": self.phases,
            "units": self.units,
            "cache": self.cache,
            "analysis": self.analysis,
            "journal": self.journal,
        }
        # Untraced manifests stay byte-compatible with earlier
        # versions: the key exists only when telemetry was recorded.
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from its dict form, validating the schema."""
        if not isinstance(data, dict) \
                or data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"not a {MANIFEST_SCHEMA} document "
                f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
            )
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported {MANIFEST_SCHEMA} version "
                f"{data.get('version')!r} (this build reads "
                f"{MANIFEST_VERSION})"
            )
        return cls(**{
            key: data.get(key)
            for key in ("name", "created", "spec", "spec_hash",
                        "git_rev", "backend", "settings", "table",
                        "phases", "units", "cache", "analysis",
                        "journal", "telemetry")
        })

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON document string."""
        return json.dumps(self.to_dict(), indent=indent, default=str) \
            + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest from its JSON document string."""
        return cls.from_dict(json.loads(text))

    def write(self, path) -> Path:
        """Write the manifest file; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest file back."""
        return cls.from_json(Path(path).read_text())
