"""The unified simulation result schema.

Every simulator family in the repo — SPADE, DenseAcc, PointAcc,
SpConv2D-Acc, the analytic platform models — historically returned its
own result type.  :class:`SimResult` is the common denominator all of
them adapt to: one flat record per (scenario, model, simulator) run with
the metrics every consumer (benchmarks, reports, sweeps) asks for, plus
a per-layer breakdown and simulator-specific aggregates.  A row holds
plain data only, so it is the same whichever backend produced it and
survives the JSON sink unchanged.

Metrics a simulator cannot produce are ``None`` (e.g. the analytic
platform models have no cycle count; SpConv2D-Acc has no energy model),
never fabricated.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import telemetry

#: Canonical column order for tabular output.  ``frame`` distinguishes
#: the per-frame and ``"mean"`` rows of batched scenarios (``None`` for
#: unbatched rows).
RESULT_COLUMNS = (
    "scenario",
    "frame",
    "model",
    "simulator",
    "cycles",
    "latency_ms",
    "fps",
    "energy_mj",
    "dram_bytes",
    "utilization",
)


@dataclass
class SimResult:
    """One simulator's outcome on one traced model frame.

    Attributes:
        simulator: Simulator display name (``"SPADE.HE"``, ``"A6000"`` ...).
        model: Table I model tag the trace came from.
        scenario: Scenario label the frame came from.
        frame: Frame index within a batched scenario, ``"mean"`` for the
            aggregate row, or ``None`` for an unbatched (single-frame)
            scenario.
        cycles: Total core cycles, or ``None`` for analytic models.
        latency_ms: End-to-end frame latency.
        fps: Frames per second (``0.0`` for an empty frame).
        energy_mj: Frame energy, or ``None`` when the simulator has no
            energy model.
        dram_bytes: Off-chip traffic, or ``None`` when not modelled.
        utilization: PE-array utilization in [0, 1], or ``None``.
        per_layer: One dict per executed layer (keys vary by simulator
            family but always include ``"name"``).
        extras: Simulator-specific aggregates (instruction breakdown,
            phase split, ...).
    """

    simulator: str
    model: str
    scenario: str = "default"
    frame: object = None
    cycles: int = None
    latency_ms: float = None
    fps: float = None
    energy_mj: float = None
    dram_bytes: int = None
    utilization: float = None
    per_layer: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def as_row(self, columns=RESULT_COLUMNS) -> tuple:
        """The record as a tuple in ``columns`` order (for tables)."""
        return tuple(getattr(self, column) for column in columns)

    def as_dict(self, columns=RESULT_COLUMNS) -> dict:
        """The record as a plain dict (for JSON serialization)."""
        return {column: getattr(self, column) for column in columns}


#: Sentinel for values :func:`_jsonable` cannot represent in JSON.
_DROP = object()


def _jsonable(value):
    """Best-effort JSON projection of one value.

    Numpy scalars collapse to native ints/floats, tuples become lists,
    dict keys are stringified; leaves JSON cannot carry (arbitrary
    objects a caller put in ``extras``) return the ``_DROP`` sentinel
    and are elided from their container — never stringified, which
    would silently corrupt a later :meth:`ExperimentTable.from_json`
    round trip.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        # 0-d numpy scalar (int64 cycles, float64 metrics).
        return _jsonable(item())
    if isinstance(value, dict):
        projected = {}
        for key, entry in value.items():
            converted = _jsonable(entry)
            if converted is not _DROP:
                projected[str(key)] = converted
        return projected
    if isinstance(value, (list, tuple)):
        converted = [_jsonable(entry) for entry in value]
        return [entry for entry in converted if entry is not _DROP]
    return _DROP


def _result_to_record(result: SimResult) -> dict:
    """One :class:`SimResult` as a JSON-ready record.

    Scalar columns plus the JSON-safe ``per_layer`` / ``extras`` detail.
    """
    record = {
        column: _jsonable(getattr(result, column))
        for column in RESULT_COLUMNS
    }
    record["per_layer"] = _jsonable(result.per_layer)
    record["extras"] = _jsonable(result.extras)
    return record


def _check_record_keys(record: dict) -> None:
    known = set(RESULT_COLUMNS) | {"per_layer", "extras"}
    unknown = sorted(set(record) - known)
    if unknown:
        raise ValueError(
            f"result record has unknown key(s) {unknown}; "
            f"expected {sorted(known)}"
        )


def _record_to_result(record: dict) -> SimResult:
    _check_record_keys(record)
    return SimResult(
        per_layer=record.get("per_layer") or [],
        extras=record.get("extras") or {},
        **{column: record.get(column) for column in RESULT_COLUMNS},
    )


#: Metric columns: numeric arrays from :meth:`ExperimentTable.column`,
#: averaged across a batch's frames by :func:`mean_result`.
_METRIC_COLUMNS = (
    "cycles",
    "latency_ms",
    "fps",
    "energy_mj",
    "dram_bytes",
    "utilization",
)

#: Ints beyond ±2^53 do not round-trip through float64, so a column
#: holding one stays an object array of exact values.
_EXACT_INT_BOUND = 1 << 53


def _cell(value):
    """One frame or metric cell as the Python value the tabular views
    and the CSV sink show: numpy ints within ±2^53 and numpy floats
    become native ``int``/``float``; bools, larger ints, ``None`` and
    anything else stay exactly as given (150 and 150.0 print
    differently, so the int/float distinction is kept)."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return value
    if isinstance(value, (int, np.integer)):
        return (int(value)
                if -_EXACT_INT_BOUND <= value <= _EXACT_INT_BOUND
                else value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _matches(result: SimResult, scenario, model, simulator,
             frame) -> bool:
    for column, value in (("scenario", scenario), ("model", model),
                          ("simulator", simulator)):
        if value is not None and getattr(result, column) != value:
            return False
    return (isinstance(frame, str) and frame == "any") \
        or result.frame == frame


class ExperimentTable:
    """Tidy collection of :class:`SimResult` rows from one runner sweep.

    Row order is deterministic — scenarios x models x simulators in the
    order the runner was configured — regardless of which parallel worker
    finished first.  The table is a plain list of rows: appended
    :class:`SimResult` objects keep their identity, and every query is a
    walk over that list.
    """

    def __init__(self, results=None):
        self._rows = list(results or [])

    def append(self, result: SimResult) -> None:
        """Add one row."""
        self._rows.append(result)

    def append_record(self, record: dict) -> None:
        """Add one row from a JSON record (:meth:`to_records` shape)."""
        self._rows.append(_record_to_result(record))

    @property
    def results(self) -> list:
        """The rows as a new list of :class:`SimResult` objects."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.results)

    def __eq__(self, other):
        if not isinstance(other, ExperimentTable):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"ExperimentTable(results={self._rows!r})"

    # -- selection ---------------------------------------------------------

    def filter(self, scenario: str = None, model: str = None,
               simulator: str = None, frame: object = "any",
               ) -> "ExperimentTable":
        """Sub-table matching every given label.

        ``frame`` matches a per-frame row index, ``"mean"`` for the
        aggregate row of a batched scenario, or ``None`` for unbatched
        rows; the default (``"any"``) does not filter on frames.
        """
        return ExperimentTable([
            row for row in self._rows
            if _matches(row, scenario, model, simulator, frame)
        ])

    def get(self, scenario: str = None, model: str = None,
            simulator: str = None, frame: object = "any") -> SimResult:
        """The single row matching the given labels.

        Raises:
            KeyError: when zero or more than one row matches.
        """
        found = self.filter(scenario, model, simulator, frame)._rows
        if len(found) != 1:
            raise KeyError(
                f"expected exactly one result for scenario={scenario!r} "
                f"model={model!r} simulator={simulator!r} frame={frame!r}, "
                f"found {len(found)}"
            )
        return found[0]

    # -- tabular views -----------------------------------------------------

    def _values(self, name: str) -> list:
        """One column in row order; frame and metric cells as
        :func:`_cell` shows them."""
        values = [getattr(row, name) for row in self._rows]
        if name == "frame" or name in _METRIC_COLUMNS:
            return [_cell(value) for value in values]
        return values

    def column(self, name: str) -> np.ndarray:
        """All values of one column, in row order, as a numpy array.

        A metric column of ints within ±2^53 comes back as int64, one
        of floats as float64; anything else (mixed kinds, bools, larger
        ints, an empty table or a label column) is an object array of
        the exact values.
        """
        values = self._values(name)
        if name in _METRIC_COLUMNS and values:
            if all(type(value) is int
                   and -_EXACT_INT_BOUND <= value <= _EXACT_INT_BOUND
                   for value in values):
                return np.array(values, dtype=np.int64)
            if all(type(value) is float for value in values):
                return np.array(values, dtype=np.float64)
        # fromiter keeps each value as is; np.array would coerce
        # scalars and nest sequences.
        return np.fromiter(values, dtype=object, count=len(values))

    def rows(self, columns=RESULT_COLUMNS) -> list:
        """Row tuples for :func:`repro.analysis.report.format_table`."""
        return list(zip(*[self._values(name) for name in columns]))

    # -- serialization (backs the `repro run --out` CLI sinks) -------------

    def to_csv(self, path=None, columns=RESULT_COLUMNS) -> str:
        """The table as CSV text (header + one line per row).

        ``None`` metrics render as empty cells.  When ``path`` is given
        the text is also written there; the text is returned either way.
        """
        with telemetry.span("serialize", "engine", sink="csv"):
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(columns)
            for values in self.rows(columns):
                writer.writerow([
                    "" if value is None else value for value in values
                ])
            text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_records(self) -> list:
        """Every row as a JSON-ready record (scalar columns plus the
        JSON-safe ``per_layer`` / ``extras`` detail) — the dist
        backend's wire format, read back by :meth:`append_record`."""
        with telemetry.span("serialize", "engine", sink="records"):
            return [_result_to_record(row) for row in self._rows]

    def to_json(self, path=None, indent: int = 2) -> str:
        """The table as a JSON document that :meth:`from_json` reads back.

        Every row serializes its scalar columns plus the JSON-safe parts
        of ``per_layer`` and ``extras``.  When ``path`` is given the text
        is also written there; the text is returned either way.
        """
        payload = {
            "schema": "repro.ExperimentTable",
            "version": 1,
            "columns": list(RESULT_COLUMNS),
            "results": self.to_records(),
        }
        text = json.dumps(payload, indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_json` output.

        ``source`` may be the JSON text itself, an already-parsed
        payload dict, or a path to a ``.json`` file.
        """
        if isinstance(source, dict):
            payload = source
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                try:
                    text = Path(text).read_text()
                except OSError as error:
                    raise ValueError(
                        f"not an ExperimentTable JSON document or a "
                        f"readable path: {error}"
                    ) from None
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"not an ExperimentTable JSON document: {error}"
                ) from None
        if not isinstance(payload, dict) \
                or payload.get("schema") != "repro.ExperimentTable":
            raise ValueError(
                "not an ExperimentTable JSON document (missing "
                "schema='repro.ExperimentTable')"
            )
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported ExperimentTable version "
                f"{payload.get('version')!r} (this engine reads 1)"
            )
        table = cls()
        for record in payload.get("results", []):
            table.append_record(record)
        return table

    def _first_seen(self, column: str) -> list:
        return list(dict.fromkeys(getattr(row, column)
                                  for row in self._rows))

    @property
    def scenarios(self) -> list:
        """Distinct scenario labels, in first-seen row order."""
        return self._first_seen("scenario")

    @property
    def models(self) -> list:
        """Distinct model labels, in first-seen row order."""
        return self._first_seen("model")

    @property
    def simulators(self) -> list:
        """Distinct simulator labels, in first-seen row order."""
        return self._first_seen("simulator")


def mean_result(per_frame: list) -> SimResult:
    """Aggregate the per-frame rows of one batched cell into a mean row.

    Every metric is the arithmetic mean of the per-frame values (so the
    mean ``fps`` is the mean of the per-frame rates, not the rate of the
    mean latency).  A metric the simulator does not produce stays
    ``None``.  The row carries ``frame="mean"`` and
    ``extras={"frames": N}``; per-layer detail is not aggregated.
    """
    if not per_frame:
        raise ValueError("mean_result needs at least one per-frame result")
    first = per_frame[0]
    values = {}
    for metric in _METRIC_COLUMNS:
        samples = [getattr(result, metric) for result in per_frame]
        if any(sample is None for sample in samples):
            values[metric] = None
        else:
            values[metric] = sum(samples) / len(samples)
    return SimResult(
        simulator=first.simulator,
        model=first.model,
        scenario=first.scenario,
        frame="mean",
        per_layer=[],
        extras={"frames": len(per_frame)},
        **values,
    )
