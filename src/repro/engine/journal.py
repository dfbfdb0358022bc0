"""Durable per-run write-ahead journal for resumable sweeps.

A :class:`RunJournal` is a JSONL file: one header line identifying the
run (schema, version, spec hash, spec name), then one line per
*completed work group* — the unit key (``scenario/model``), the wall
seconds the group took, the worker that ran it, and the full row
payload in the engine's record format (the
:func:`~repro.engine.result.ExperimentTable.to_records` encoding).
Records are flushed and fsynced as they land, so the journal is exactly
as durable as the filesystem.

Resume (``repro run spec.json --resume run.journal``) re-opens the
file, drops a torn trailing record (a partial line with no newline —
the signature of a crash mid-write), validates the header's spec hash
against the spec being run, and hands the runner the set of completed
unit keys plus their decoded rows.  The runner executes only the
pending groups and stitches journal rows back in plan order, so the
resumed output is byte-identical to an uninterrupted run: every
journaled row decodes back to the exact row written.

Unit keys are ``f"{scenario.name}/{model_name}"`` — unique within a
run because the runner rejects duplicate scenario and model names.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from . import faults
from .manifest import spec_hash
from .result import _record_to_result, _result_to_record

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "RunJournal",
    "read_journal",
    "unit_key",
]

JOURNAL_SCHEMA = "repro.RunJournal"
JOURNAL_VERSION = 1


def unit_key(scenario_name, model_name):
    """Return the journal key for a work group: ``scenario/model``."""
    return f"{scenario_name}/{model_name}"


def _scan(data):
    """Scan raw journal bytes into (header, units, dropped, valid_end).

    ``units`` maps unit key -> the decoded record dict, first write
    wins.  ``dropped`` counts complete-but-invalid interior lines
    (skipped, not removed).  ``valid_end`` is the byte offset just past
    the last newline — anything beyond it is a torn trailing record
    that a crash left behind, and is safe to truncate away.
    """
    header = None
    units = {}
    dropped = 0
    offset = 0
    valid_end = 0
    while True:
        newline = data.find(b"\n", offset)
        if newline == -1:
            break
        line = data[offset:newline]
        valid_end = newline + 1
        offset = newline + 1
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            dropped += 1
            continue
        if not isinstance(record, dict):
            dropped += 1
            continue
        if record.get("schema") == JOURNAL_SCHEMA:
            if header is None:
                header = record
            continue
        key = record.get("unit")
        if not isinstance(key, str) or not isinstance(record.get("rows"), list):
            dropped += 1
            continue
        if key not in units:
            units[key] = record
    torn = len(data) - valid_end
    return header, units, dropped, valid_end, torn


def read_journal(path):
    """Read a journal file without opening it for writing.

    Returns a dict with ``header``, ``units`` (list of unit records in
    file order), ``dropped`` (invalid interior lines), ``torn_bytes``
    (length of a torn trailing record, 0 for a clean file), and
    ``path``.  Raises :class:`FileNotFoundError` if the file does not
    exist and :class:`ValueError` if it has no recognizable header.
    """
    path = Path(path)
    data = path.read_bytes()
    header, units, dropped, _valid_end, torn = _scan(data)
    if header is None:
        raise ValueError(
            f"{path} is not a run journal (no {JOURNAL_SCHEMA} header line)"
        )
    return {
        "path": str(path),
        "header": header,
        "units": list(units.values()),
        "dropped": dropped,
        "torn_bytes": torn,
    }


class RunJournal:
    """A write-ahead log of completed work groups for one run.

    Create with a path, then :meth:`open_for_run` against a runner and
    its planned groups: an existing journal is validated (spec hash)
    and its completed units become the resume set; a missing or empty
    file starts fresh.  During the run the backend seam calls
    :meth:`record_unit` once per completed group.
    """

    def __init__(self, path):
        """Bind the journal to ``path`` (not opened until a run starts)."""
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        self._completed = {}  # unit key -> raw journal record
        self._decoded = {}  # unit key -> [SimResult], decoded lazily
        self.resumed_units = 0
        self.appended_units = 0
        self.dropped_lines = 0
        self.torn_bytes = 0
        self.spec_hash = None
        self.name = None

    def open_for_run(self, runner, groups):
        """Validate any existing journal against this run and open it.

        The fingerprint is :func:`~repro.engine.manifest.spec_hash` of
        the runner's source spec (or, for spec-less runners, a hash of
        the planned unit keys).  A hash mismatch, a foreign header, or
        completed units that are not in this run's plan all raise
        :class:`ValueError` — resuming the wrong journal must fail
        loudly, not stitch silently-wrong rows.
        """
        fingerprint, name = self._fingerprint(runner, groups)
        plan_keys = {
            unit_key(group.scenario.name, runner._model_name(group.model))
            for group in groups
        }
        data = b""
        if self.path.exists():
            data = self.path.read_bytes()
        if data:
            header, units, dropped, valid_end, torn = _scan(data)
            if header is None:
                raise ValueError(
                    f"--resume: {self.path} is not a run journal "
                    f"(no {JOURNAL_SCHEMA} header line)"
                )
            if header.get("version") != JOURNAL_VERSION:
                raise ValueError(
                    f"--resume: {self.path} has journal version "
                    f"{header.get('version')!r}; this build reads "
                    f"version {JOURNAL_VERSION}"
                )
            if header.get("spec_hash") != fingerprint:
                raise ValueError(
                    f"--resume: {self.path} was written for spec "
                    f"{header.get('name')!r} (hash {header.get('spec_hash')!r}) "
                    f"but this run is {name!r} (hash {fingerprint!r}); "
                    "refusing to stitch rows from a different experiment"
                )
            unknown = sorted(set(units) - plan_keys)
            if unknown:
                raise ValueError(
                    f"--resume: {self.path} holds completed units not in "
                    f"this run's plan: {', '.join(unknown[:5])}"
                    + (" ..." if len(unknown) > 5 else "")
                )
            self._completed = units
            self.resumed_units = len(units)
            self.dropped_lines = dropped
            self.torn_bytes = torn
            handle = open(self.path, "r+b")
            handle.truncate(valid_end)
            handle.seek(0, os.SEEK_END)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(self.path, "wb")
            header = {
                "schema": JOURNAL_SCHEMA,
                "version": JOURNAL_VERSION,
                "spec_hash": fingerprint,
                "name": name,
            }
            handle.write(_encode(header))
            handle.flush()
            os.fsync(handle.fileno())
        self.spec_hash = fingerprint
        self.name = name
        self._handle = handle
        return self

    @staticmethod
    def _fingerprint(runner, groups):
        """Return (hash, name) identifying the run this journal belongs to."""
        spec = getattr(runner, "source_spec", None)
        if spec is not None:
            return spec_hash(spec.to_dict()), spec.name
        keys = sorted(
            unit_key(group.scenario.name, runner._model_name(group.model))
            for group in groups
        )
        return spec_hash({"plan": keys}), "<unnamed run>"

    def completed_keys(self):
        """Return the set of unit keys already recorded (the resume set)."""
        return set(self._completed)

    def rows_for(self, key):
        """Decode and return the journaled :class:`SimResult` rows of a unit."""
        if key not in self._decoded:
            record = self._completed[key]
            self._decoded[key] = [
                _record_to_result(row) for row in record["rows"]
            ]
        return self._decoded[key]

    def seconds_for(self, key):
        """Return the recorded wall seconds of a completed unit."""
        return float(self._completed[key].get("seconds") or 0.0)

    def worker_for(self, key):
        """Return the worker id recorded for a completed unit (or None)."""
        return self._completed[key].get("worker")

    def record_unit(self, scenario_name, model_name, seconds, results, worker=None):
        """Append one completed work group; durable once this returns.

        ``results`` are the group's :class:`SimResult` rows.  The write
        is a single line plus flush + fsync, so a crash leaves at worst
        one torn trailing record, which :meth:`open_for_run` truncates
        on resume.  The ``journal.record`` fault site lives here:
        ``kill_run`` exits after the durable write, ``truncate_journal``
        writes half the line and exits.
        """
        key = unit_key(scenario_name, model_name)
        record = {
            "unit": key,
            "seconds": float(seconds),
            "worker": worker,
            "rows": [_result_to_record(row) for row in results],
        }
        line = _encode(record)
        with self._lock:
            if self._handle is None or key in self._completed:
                return
            action = faults.check("journal.record")
            if action == "truncate_journal":
                self._handle.write(line[: max(1, len(line) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                os._exit(23)
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._completed[key] = record
            self.appended_units += 1
            if action == "kill_run":
                os._exit(137)

    def close(self):
        """Close the file handle; the journal object stays readable."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def summary(self):
        """Return manifest-ready counters for this journal."""
        return {
            "path": str(self.path),
            "spec_hash": self.spec_hash,
            "resumed_units": self.resumed_units,
            "appended_units": self.appended_units,
            "dropped_lines": self.dropped_lines,
            "torn_bytes": self.torn_bytes,
        }


def _encode(record):
    """Serialize one journal record to a compact JSONL line (bytes).

    Keys keep their insertion order — sorting would silently reorder
    the nested row dicts (``per_layer`` detail) and break the resumed
    table's byte-identity with an uninterrupted run's JSON output.
    """
    return (
        json.dumps(record, separators=(",", ":")) + "\n"
    ).encode("utf-8")
