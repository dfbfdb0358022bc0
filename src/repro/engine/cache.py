"""Two-tier content-keyed trace cache: rulegen runs once per (model, frame).

Rule generation is the hot path of every experiment in this repo: tracing
a model geometrically (:func:`repro.analysis.sparsity.trace_model`) runs
:func:`repro.sparse.rulegen.build_rules` for every sparse layer, and the
historical benchmarks re-did that work per benchmark file, per repeat,
and per simulator.  :class:`TraceCache` memoizes the finished
:class:`~repro.analysis.sparsity.ModelTrace` under a content key — a
digest of the model's layer graph and the frame's exact active set — so
any number of simulators, sweeps and repeats share one trace.

The cache has two tiers:

* an **in-memory** tier (always on): thread-safe and
  duplicate-suppressing — when parallel workers request the same key
  simultaneously, exactly one computes and the rest wait for its result;
* an optional **persistent on-disk** tier: one pickle file per trace
  under a cache directory, content-addressed by the same key.  Because
  keys are content digests, traces become shippable artifacts — process
  workers and repeated benchmark runs all hit the same files instead of
  re-tracing from scratch.  Enable it by
  passing ``disk_dir`` or by setting the ``REPRO_TRACE_CACHE_DIR``
  environment variable (which every default-constructed cache picks up).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from pathlib import Path

import numpy as np

from ..analysis.sparsity import ModelTrace, trace_model
from ..models.specs import ModelSpec
from . import faults, telemetry
from .settings import UNSET, EngineSettings

#: Sentinel distinguishing "no disk_dir given, use the environment" from
#: an explicit ``disk_dir=None`` (which disables the disk tier even when
#: the environment variable is set).  The environment read itself lives
#: in :mod:`repro.engine.settings` — the one resolver for every engine
#: knob.
_FROM_ENV = UNSET

#: Filename suffix of every persisted trace artifact — the one place
#: the naming scheme lives (path construction, eviction, the
#: ``repro cache`` scans).
TRACE_ARTIFACT_SUFFIX = ".trace.pkl"

#: Layout of a pickled trace, salted into every cache key so artifacts
#: of another layout miss and are rewritten instead of loaded.  "2":
#: rule pairs are int32 (the unsalted keys before it held int64).
TRACE_FORMAT = "2"

#: Filename suffix corrupt artifacts are renamed to when quarantined:
#: they stop being loadable (or clearable as live entries) but stay on
#: disk for forensics.  Deliberately not an extension of
#: TRACE_ARTIFACT_SUFFIX globs.
QUARANTINE_SUFFIX = ".trace.quarantined"

#: The :meth:`TraceCache.stats` counters that accumulate over a run (the
#: remaining keys — entry count, directory, labels — are state).
CACHE_DELTA_KEYS = ("hits", "misses", "disk_hits", "disk_writes",
                    "delta_layers", "shared_layers", "full_layers",
                    "quarantined")


def _rule_sources(trace: ModelTrace) -> tuple:
    """``(delta, shared, full)`` counts of a trace's sparse layers.

    A layer is shared when its ``Rules`` is the same object as an
    earlier layer's in the trace (it built nothing); otherwise it was
    routed to ``build_rules_delta`` (shared with or rebuilt from the
    previous frame) or built in full.  Old pickled traces predate the
    ``via_delta`` flag, hence the getattr default.
    """
    seen = set()
    delta = shared = full = 0
    for layer in trace.layers:
        if layer.rules is None:
            continue
        if id(layer.rules) in seen:
            shared += 1
        elif getattr(layer, "via_delta", False):
            delta += 1
        else:
            full += 1
        seen.add(id(layer.rules))
    return delta, shared, full


def counter_delta(before: dict, after: dict) -> dict:
    """The counter increments between two :meth:`TraceCache.stats`
    snapshots, one per :data:`CACHE_DELTA_KEYS` entry."""
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in CACHE_DELTA_KEYS}


def spec_fingerprint(spec: ModelSpec) -> str:
    """Deterministic digest of a model's layer graph.

    Two specs with the same layers produce the same fingerprint even if
    they are distinct objects; any change to channels, kernel, stride,
    conv type, pruning or ordering changes it.
    """
    parts = [spec.name, spec.base, spec.grid.name, str(spec.grid.shape)]
    for layer in spec.layers:
        parts.append(
            "|".join(
                str(value)
                for value in (
                    layer.name,
                    layer.op.value,
                    layer.conv_type.value if layer.conv_type else "-",
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    layer.stride,
                    layer.upsample,
                    layer.prune_keep,
                    layer.stage,
                )
            )
        )
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()


def frame_fingerprint(coords: np.ndarray, importance: np.ndarray = None,
                      grid_shape: tuple = None) -> str:
    """Digest of one frame's exact active set (+ importance values)."""
    digest = hashlib.sha1()
    coords = np.ascontiguousarray(np.asarray(coords, dtype=np.int32))
    digest.update(coords.tobytes())
    digest.update(str(coords.shape).encode())
    if importance is not None:
        importance = np.ascontiguousarray(
            np.asarray(importance, dtype=np.float64)
        )
        digest.update(importance.tobytes())
    if grid_shape is not None:
        digest.update(str(tuple(grid_shape)).encode())
    return digest.hexdigest()


class TraceCache:
    """Thread-safe, content-keyed memoization of :func:`trace_model`.

    Args:
        maxsize: Optional in-memory entry cap; the oldest entry is
            evicted first (insertion order — traces are immutable once
            built, so plain FIFO keeps the implementation obvious).  The
            disk tier is never evicted by the cache; entries evicted
            from memory reload from disk when requested again.
        disk_dir: Directory of the persistent tier.  Defaults to the
            ``REPRO_TRACE_CACHE_DIR`` environment variable; pass ``None``
            explicitly to keep the cache memory-only regardless of the
            environment.
    """

    def __init__(self, maxsize: int = None, disk_dir=_FROM_ENV):
        self.maxsize = maxsize
        disk_dir = EngineSettings.resolve_one("cache_dir", disk_dir)
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.delta_layers = 0
        self.shared_layers = 0
        self.full_layers = 0
        self.quarantined = 0
        self._entries = {}
        self._inflight = {}
        self._labels = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(self, spec: ModelSpec, coords: np.ndarray,
                importance: np.ndarray = None,
                grid_shape: tuple = None) -> str:
        """The content key of one (model, frame) pair, in the
        :data:`TRACE_FORMAT` layout."""
        return (
            spec_fingerprint(spec)
            + ":"
            + frame_fingerprint(coords, importance, grid_shape)
            + ":v" + TRACE_FORMAT
        )

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}{TRACE_ARTIFACT_SUFFIX}"

    def _disk_load(self, key: str) -> ModelTrace:
        """The persisted trace for ``key``, or None.

        A missing, truncated or otherwise unreadable file is treated as
        a plain miss — the trace is recomputed and rewritten — so a
        crashed writer or a stale library version can never poison the
        cache permanently.  The unreadable artifact itself is
        *quarantined* (renamed aside with :data:`QUARANTINE_SUFFIX` and
        counted in :meth:`stats`), not silently deleted: corruption in
        a shared store is an operational signal, and the bytes stay
        available for forensics.
        """
        if self.disk_dir is None:
            return None
        try:
            with open(self._disk_path(key), "rb") as handle:
                trace = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine(key)
            return None
        if not isinstance(trace, ModelTrace):
            self._quarantine(key)
            return None
        return trace

    def _quarantine(self, key: str) -> None:
        """Move a corrupt artifact aside and count it (the rewrite of a
        fresh trace then lands on the original path)."""
        path = self._disk_path(key)
        try:
            os.replace(path, path.with_name(f"{key}{QUARANTINE_SUFFIX}"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self.quarantined += 1

    def _disk_store(self, key: str, trace: ModelTrace) -> bool:
        """Persist atomically (tmp + rename); failures are non-fatal."""
        if self.disk_dir is None:
            return False
        path = self._disk_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(trace, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        # Chaos harness: corrupt_cache:entry=N garbles the N-th stored
        # artifact after the fact, so the next load must quarantine it.
        if faults.check("cache.store") == "corrupt_cache":
            try:
                with open(path, "wb") as handle:
                    handle.write(b"corrupt trace artifact (injected)")
            except OSError:
                pass
        return True

    # -- lookup ------------------------------------------------------------

    def get_trace(self, spec: ModelSpec, coords: np.ndarray,
                  importance: np.ndarray = None,
                  grid_shape: tuple = None,
                  prev_trace: ModelTrace = None,
                  label: tuple = None) -> ModelTrace:
        """The traced model for this exact (spec, frame), computing once.

        Lookup order: memory tier, disk tier, :func:`trace_model`.
        Concurrent callers with the same key block on the first caller's
        computation instead of duplicating it.  ``prev_trace`` only
        affects how a missing trace is computed (layers routed to
        ``build_rules_delta`` with the previous sequential frame's rules,
        shared or rebuilt) — never the key, because the delta path is
        bit-identical to the full build, so cache hits and
        shipped artifacts stay interchangeable across modes.  ``label``
        is an optional (scenario, model) tag recorded for
        :meth:`stats` — purely observability, also key-neutral.
        """
        key = self.key_for(spec, coords, importance, grid_shape)
        while True:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    if label is not None:
                        self._labels[key] = tuple(label)
                    return self._entries[key]
                event = self._inflight.get(key)
                if event is None:
                    # We are the computing thread.
                    self._inflight[key] = threading.Event()
                    break
            # Another thread is computing this key; wait and re-check.
            event.wait()
        from_disk = True
        try:
            with telemetry.span("cache-get", "cache"):
                trace = self._disk_load(key)
            if trace is None:
                from_disk = False
                span_name = ("delta-patch" if prev_trace is not None
                             else "trace")
                with telemetry.span(span_name, "engine"):
                    trace = trace_model(spec, coords, importance,
                                        grid_shape=grid_shape,
                                        prev_trace=prev_trace)
                with telemetry.span("cache-put", "cache"):
                    stored = self._disk_store(key, trace)
                if stored:
                    with self._lock:
                        self.disk_writes += 1
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        if not from_disk:
            delta_count, shared_count, full_count = _rule_sources(trace)
        with self._lock:
            if from_disk:
                self.disk_hits += 1
            else:
                self.misses += 1
                self.delta_layers += delta_count
                self.shared_layers += shared_count
                self.full_layers += full_count
            self._entries[key] = trace
            if label is not None:
                self._labels[key] = tuple(label)
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self._labels.pop(oldest, None)
            self._inflight.pop(key).set()
        return trace

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the persisted files)."""
        with self._lock:
            self._entries.clear()
            self._labels.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_writes = 0
            self.delta_layers = 0
            self.shared_layers = 0
            self.full_layers = 0
            self.quarantined = 0
        if disk and self.disk_dir is not None:
            for pattern in (f"*{TRACE_ARTIFACT_SUFFIX}",
                            f"*{QUARANTINE_SUFFIX}"):
                for path in self.disk_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def stats(self) -> dict:
        """Hit/miss/disk counters, where computed layers got their rules
        (delta, shared or full), entry count per (scenario, model)
        label, and the disk-tier path."""
        with self._lock:
            by_label = {}
            for key in self._entries:
                tag = self._labels.get(key)
                if tag is not None:
                    by_label[tag] = by_label.get(tag, 0) + 1
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "disk_writes": self.disk_writes,
                "delta_layers": self.delta_layers,
                "shared_layers": self.shared_layers,
                "full_layers": self.full_layers,
                "quarantined": self.quarantined,
                "disk_dir": str(self.disk_dir) if self.disk_dir else None,
                "by_label": by_label,
            }


def scan_disk_tier(directory, detail: bool = False) -> dict:
    """Size up one disk-tier directory without loading everything.

    Returns ``{"dir", "entries", "bytes"}`` for the trace artifacts
    under ``directory`` — what ``repro cache stats`` shows for a trace
    store.  A
    missing directory counts as empty (the tier is created lazily).

    With ``detail=True`` the summary also carries ``"models"``: per
    model-graph group (the spec-fingerprint half of the content key) the
    cached frame count and byte total, with the model name resolved by
    loading *one* representative artifact per group — the frame count of
    a group is exactly the number of distinct traced frames, which is
    how delta-chain cache behavior (one entry per chain frame, keys
    unchanged) is inspected.
    """
    path = Path(directory)
    entries = 0
    total = 0
    quarantined = 0
    groups = {}
    if path.is_dir():
        quarantined = sum(1 for _ in path.glob(f"*{QUARANTINE_SUFFIX}"))
        for artifact in path.glob(f"*{TRACE_ARTIFACT_SUFFIX}"):
            try:
                size = artifact.stat().st_size
            except OSError:
                continue
            entries += 1
            total += size
            if detail:
                prefix = artifact.name.split(":", 1)[0]
                group = groups.setdefault(
                    prefix, {"entries": 0, "bytes": 0, "sample": artifact}
                )
                group["entries"] += 1
                group["bytes"] += size
    summary = {"dir": str(path), "entries": entries, "bytes": total,
               "quarantined": quarantined}
    if detail:
        models = []
        for prefix, group in sorted(groups.items()):
            name = "(unreadable)"
            try:
                with open(group["sample"], "rb") as handle:
                    trace = pickle.load(handle)
                if isinstance(trace, ModelTrace):
                    name = trace.spec.name
            except Exception:
                pass
            models.append({
                "model": name,
                "fingerprint": prefix[:12],
                "entries": group["entries"],
                "bytes": group["bytes"],
            })
        summary["models"] = models
    return summary


def clear_disk_tier(directory) -> dict:
    """Delete every trace artifact under ``directory``.

    Returns the :func:`scan_disk_tier` summary of what was removed.
    Delegates the actual deletion to :meth:`TraceCache.clear` so the
    artifact naming and removal logic live in one place; the directory
    may hold other data, which is never touched.
    """
    summary = scan_disk_tier(directory)
    TraceCache(disk_dir=directory).clear(disk=True)
    return summary


#: The shared cache is bounded: each ModelTrace retains per-layer rule
#: arrays (tens of MB on the fine nuScenes grids), so an open-ended
#: multi-frame sweep through the default cache must not grow forever.
#: Sweeps that want full retention pass their own ``TraceCache()``.
_SHARED = TraceCache(maxsize=32)


def shared_trace_cache() -> TraceCache:
    """The process-wide default cache (used when a runner gets none)."""
    return _SHARED
