"""Per-layer attribution for the traced benchmark run.

Wrappers around each layer's public functions are installed from this
file only, for the traced run only; ``src/`` carries no benchmark
hooks.  Each wrapper records calls, *self* time (its wall time minus
the wall time of the wrapped calls it makes) and a few work counts.
:meth:`LayerProbe.restore` puts the original function objects back and
:meth:`LayerProbe.assert_pristine` proves it before any untraced timing.

Forked process-pool workers inherit the installed wrappers.  A worker
appends its records to ``layers-<pid>.jsonl`` in the probe's spill
directory whenever its outermost wrapped call returns, and the parent
merges those files after each sweep (:meth:`LayerProbe.collect_spills`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


def _pairs(result) -> dict:
    return {"pairs": result.total_pairs}


def _frame_counts(result) -> dict:
    return {"points": len(result)}


def _pillar_counts(result) -> dict:
    return {
        "pillars": len(result.coords),
        "bytes": (result.coords.nbytes + result.point_features.nbytes
                  + result.point_counts.nbytes),
    }


def _tile_counts(result) -> dict:
    return {"tiles": len(result.tiles)}


def _csv_bytes(result) -> dict:
    return {"bytes": len(result.encode())}


#: TraceCache counters read around each ``get_trace`` call: the same
#: numbers ``TraceCache.stats()`` reports, taken as per-call deltas so
#: they also add up inside pool workers whose caches the parent never
#: sees.
CACHE_COUNTERS = ("hits", "misses", "disk_hits", "disk_writes",
                  "delta_layers", "full_layers")


def _targets():
    """(owner, attribute, layer, counter) for every wrapped function.

    Functions imported by name are wrapped where the caller looks them
    up ("as bound in" that module), which is what makes a call site's
    cost visible without editing it.
    """
    from repro.analysis import sparsity
    from repro.baselines import pointacc
    from repro.core import accelerator, dataflow, dense
    from repro.data.synthetic import SceneGenerator
    from repro.engine import backends, cache, runner, simulators
    from repro.engine.manifest import RunManifest, RunObserver
    from repro.engine.result import ExperimentTable

    targets = [
        (SceneGenerator, "generate", "frame-synth", _frame_counts),
        (runner, "voxelize", "voxelize", _pillar_counts),
        (sparsity, "build_rules_sharded", "rulegen", _pairs),
        (sparsity, "build_rules_delta", "rulegen-delta", None),
        (cache, "trace_model", "trace", None),
        (cache.TraceCache, "get_trace", "cache", None),
        (dataflow, "plan_tiles", "plan-tiles", _tile_counts),
        (accelerator, "schedule_sparse_layer", "schedule", None),
        (pointacc, "schedule_sparse_layer", "schedule", None),
        (accelerator, "schedule_dense_layer", "schedule-dense", None),
        (dense, "schedule_dense_layer", "schedule-dense", None),
        (pointacc, "schedule_dense_layer", "schedule-dense", None),
        (pointacc.PointAccSimulator, "run_trace", "pointacc", None),
        (ExperimentTable, "to_csv", "export", _csv_bytes),
        (RunObserver, "record_unit", "manifest", None),
        (RunManifest, "collect", "manifest", None),
        (RunManifest, "write", "manifest", None),
        # The parent's wait on the process pool; the workers report
        # their own layers through the spill files.
        (backends.ProcessBackend, "execute", "pool-wait", None),
    ]
    pending = [simulators.Simulator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in vars(cls) and cls is not simulators.Simulator:
            targets.append((cls, "run", "simulate", None))
    return targets


def _new_entry() -> dict:
    return {"s": 0.0, "calls": 0}


class LayerProbe:
    """Installs, records and removes the per-layer wrappers.

    Args:
        spill_dir: Directory forked workers append their records to.
    """

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.stats = {}
        self._stack = []
        self._stack_pid = self.pid
        self._targets = _targets()
        # Taken before anything is installed: the objects restore() must
        # put back and assert_pristine() compares against.
        self._originals = [vars(owner)[attr]
                           for owner, attr, _, _ in self._targets]

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Replace every target with its recording wrapper."""
        self.assert_pristine()
        for (owner, attr, layer, counter), original in zip(
                self._targets, self._originals):
            setattr(owner, attr, self._wrap(original, layer, counter))

    def restore(self) -> None:
        """Put every original function object back."""
        for (owner, attr, _, _), original in zip(self._targets,
                                                 self._originals):
            setattr(owner, attr, original)

    def assert_pristine(self) -> None:
        """Raise unless every target is its original function object."""
        for (owner, attr, _, _), original in zip(self._targets,
                                                 self._originals):
            if vars(owner)[attr] is not original:
                raise AssertionError(
                    f"{getattr(owner, '__name__', owner)}.{attr} is still "
                    f"wrapped; untraced timing would include the probe"
                )

    # -- recording --------------------------------------------------------

    def _wrap(self, original, layer, counter):
        # staticmethod/classmethod objects sit in the class dict as
        # descriptors: wrap the underlying function, then re-wrap.
        descriptor = type(original) if isinstance(
            original, (staticmethod, classmethod)) else None
        function = original.__func__ if descriptor else original
        stack = self._stack
        is_cache = layer == "cache"

        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != self._stack_pid:
                # First call in a freshly forked worker: drop the
                # parent's open frames and records inherited at fork.
                stack.clear()
                self.stats.clear()
                self._stack_pid = pid
            if is_cache:
                before = [getattr(args[0], name) for name in CACHE_COUNTERS]
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = self.stats.get(layer)
                if entry is None:
                    entry = self.stats[layer] = _new_entry()
                entry["s"] += elapsed - children
                entry["calls"] += 1
            if is_cache:
                for name, old in zip(CACHE_COUNTERS, before):
                    entry[name] = entry.get(name, 0) + (
                        getattr(args[0], name) - old)
            elif counter is not None:
                for name, value in counter(result).items():
                    entry[name] = entry.get(name, 0) + value
            if not stack and pid != self.pid:
                self._spill()
            return result

        wrapper.__wrapped__ = function
        return descriptor(wrapper) if descriptor else wrapper

    def _spill(self) -> None:
        """Worker side: append the records gathered so far, then reset."""
        path = self.spill_dir / f"layers-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(self.stats) + "\n")
        self.stats.clear()

    def collect_spills(self) -> dict:
        """Parent side: the merged records of every worker's spill
        file; the files are deleted."""
        records = {}
        for path in sorted(self.spill_dir.glob("layers-*.jsonl")):
            for line in path.read_text().splitlines():
                merge(records, json.loads(line))
            path.unlink()
        return records

    def take(self) -> dict:
        """The records gathered since the last call, then reset."""
        taken = {layer: dict(entry) for layer, entry in self.stats.items()}
        self.stats.clear()
        return taken


def merge(into: dict, other: dict) -> dict:
    """Add one layer-record dict into another, key by key."""
    for layer, entry in other.items():
        target = into.setdefault(layer, _new_entry())
        for name, value in entry.items():
            target[name] = target.get(name, 0) + value
    return into
