"""ExperimentTable CSV/JSON serialization round trips."""

import csv
import io

import numpy as np
import pytest

from repro.engine import (
    ExperimentRunner,
    ExperimentTable,
    RESULT_COLUMNS,
    SimResult,
    TraceCache,
)
from repro.engine.result import mean_result


def _row(simulator="S", model="M", scenario="default", frame=None,
         cycles=100, latency_ms=1.5):
    return SimResult(
        simulator=simulator, model=model, scenario=scenario, frame=frame,
        cycles=cycles, latency_ms=latency_ms, fps=1e3 / latency_ms,
        energy_mj=None, dram_bytes=2048, utilization=0.5,
        per_layer=[{"name": "L1", "cycles": 60},
                   {"name": "L2", "cycles": 40}],
        extras={"phases": {"map": 10, "mxu": 90}},
    )


def _batched_table():
    per_frame = [_row(frame=0), _row(frame=1, cycles=200, latency_ms=3.0)]
    return ExperimentTable(
        results=per_frame + [mean_result(per_frame)] + [
            _row(simulator="T", cycles=None, latency_ms=2.0),
        ]
    )


class TestCsv:
    def test_header_and_rows(self):
        text = _batched_table().to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 1 + 4
        # The mean aggregate row is labelled and averaged.
        mean_row = rows[3]
        assert mean_row[rows[0].index("frame")] == "mean"
        assert float(mean_row[rows[0].index("cycles")]) == 150.0
        # None metrics are empty cells.
        assert rows[4][rows[0].index("cycles")] == ""

    def test_writes_path(self, tmp_path):
        path = tmp_path / "table.csv"
        text = _batched_table().to_csv(path=path)
        assert path.read_text() == text


class TestJsonRoundTrip:
    def test_full_round_trip_including_batched_and_mean_rows(self):
        table = _batched_table()
        again = ExperimentTable.from_json(table.to_json())
        assert len(again) == len(table)
        for left, right in zip(table, again):
            assert left == right
        # The mean row survives with its frame label and extras.
        mean = again.get(simulator="S", frame="mean")
        assert mean.extras == {"frames": 2}
        assert mean.cycles == 150.0

    def test_numpy_scalars_serialize_native(self):
        table = ExperimentTable(results=[
            _row(cycles=np.int64(123), latency_ms=float(np.float64(2.0)))
        ])
        again = ExperimentTable.from_json(table.to_json())
        assert again.results[0].cycles == 123
        assert isinstance(again.results[0].cycles, int)

    def test_unserializable_extras_dropped_not_stringified(self):
        row = _row()
        row.extras["legacy"] = object()
        text = ExperimentTable(results=[row]).to_json()
        again = ExperimentTable.from_json(text)
        assert "legacy" not in again.results[0].extras
        assert again.results[0].extras["phases"] == {"map": 10, "mxu": 90}

    def test_from_json_accepts_path(self, tmp_path):
        path = tmp_path / "table.json"
        table = _batched_table()
        table.to_json(path=path)
        assert len(ExperimentTable.from_json(path)) == len(table)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentTable.from_json("{\"results\": []}")
        with pytest.raises(ValueError, match="JSON|document"):
            ExperimentTable.from_json("not json at all {")

    def test_rejects_unknown_record_keys(self):
        payload = {
            "schema": "repro.ExperimentTable",
            "version": 1,
            "results": [{"simulator": "S", "model": "M", "cyclez": 1}],
        }
        with pytest.raises(ValueError, match="cyclez"):
            ExperimentTable.from_json(payload)


class TestLiveTableRoundTrip:
    """A real engine sweep (batched scenario included) survives JSON."""

    def test_batched_sweep(self):
        from repro.engine import Scenario

        runner = ExperimentRunner(
            simulators=["spade-he"],
            models=["SPP3"],
            scenarios=[Scenario("drive", seed=0, frames=2)],
            cache=TraceCache(),
            backend="serial",
        )
        table = runner.run()
        again = ExperimentTable.from_json(table.to_json())
        assert [r.frame for r in again] == [0, 1, "mean"]
        for left, right in zip(table, again):
            assert left.as_dict() == right.as_dict()

    def test_every_family_row_is_plain_data(self):
        """Whole rows, per_layer and extras included, are the same after
        the JSON sink and through the process backend as in a serial
        run: no simulator family leaves an object the sinks drop."""
        from repro.core import SPADE_HE
        from repro.engine import Scenario, SpadeNoOverlapSim

        runner = ExperimentRunner(
            simulators=["spade-he", "spade-he-noopt", "dense-he",
                        "pointacc-he", "spconv2d", "platform:A6000",
                        "stats", SpadeNoOverlapSim(SPADE_HE)],
            models=["SPP3", "PP"],
            scenarios=[Scenario("drive", seed=0, frames=2)],
            cache=TraceCache(),
        )
        serial = runner.run(backend="serial")
        assert len(serial) == 8 * 2 * 3
        assert ExperimentTable.from_json(serial.to_json()).results \
            == serial.results
        assert runner.run(backend="process").results == serial.results


def _pinned_table():
    return ExperimentTable([
        SimResult(simulator="S", model="M", scenario="s", frame=0,
                  cycles=True, latency_ms=150, fps=150.0,
                  energy_mj=np.float64(0.1), dram_bytes=2**60),
        SimResult(simulator="S", model="M", scenario="s",
                  frame=np.int64(1), cycles=np.int64(7), latency_ms=150.0,
                  fps=np.float64(2.5), energy_mj=None,
                  dram_bytes=-(2**60)),
    ])


class TestTableSemantics:
    """What callers of the table rely on: exact sink bytes per value
    kind, column dtypes, frame matching and first-seen label order."""

    def test_csv_bytes_per_value_kind(self):
        assert _pinned_table().to_csv() == (
            "scenario,frame,model,simulator,cycles,latency_ms,fps,"
            "energy_mj,dram_bytes,utilization\n"
            "s,0,M,S,True,150,150.0,0.1,1152921504606846976,\n"
            "s,1,M,S,7,150.0,2.5,,-1152921504606846976,\n"
        )

    def test_json_bytes_per_value_kind(self):
        columns = (
            '"columns": ["scenario", "frame", "model", "simulator", '
            '"cycles", "latency_ms", "fps", "energy_mj", "dram_bytes", '
            '"utilization"]'
        )
        assert _pinned_table().to_json(indent=None) == (
            '{"schema": "repro.ExperimentTable", "version": 1, '
            + columns + ', "results": ['
            '{"scenario": "s", "frame": 0, "model": "M", '
            '"simulator": "S", "cycles": true, "latency_ms": 150, '
            '"fps": 150.0, "energy_mj": 0.1, '
            '"dram_bytes": 1152921504606846976, "utilization": null, '
            '"per_layer": [], "extras": {}}, '
            '{"scenario": "s", "frame": 1, "model": "M", '
            '"simulator": "S", "cycles": 7, "latency_ms": 150.0, '
            '"fps": 2.5, "energy_mj": null, '
            '"dram_bytes": -1152921504606846976, "utilization": null, '
            '"per_layer": [], "extras": {}}]}\n'
        )

    def test_column_dtypes(self):
        def column(*values):
            return ExperimentTable([
                SimResult(simulator="S", model="M", cycles=value)
                for value in values
            ]).column("cycles")

        ints = column(1, np.int64(2), 2**53, -(2**53))
        assert ints.dtype == np.int64
        assert ints.tolist() == [1, 2, 2**53, -(2**53)]
        floats = column(1.5, np.float64(2.5))
        assert floats.dtype == np.float64
        assert floats.tolist() == [1.5, 2.5]
        for values in ((1, 2.5), (1, None), (True, False), (1, 2**53 + 1),
                       (2**60,)):
            exact = column(*values)
            assert exact.dtype == object
            assert exact.tolist() == list(values)
        assert ExperimentTable().column("cycles").dtype == object
        assert _pinned_table().column("scenario").dtype == object
        assert _pinned_table().column("frame").tolist() == [0, 1]

    def test_filter_and_get_by_frame(self):
        table = _batched_table()
        assert len(table.filter(frame="any")) == len(table) == 4
        assert [r.simulator for r in table.filter(frame=None)] == ["T"]
        assert table.get(frame="mean").cycles == 150.0
        assert table.get(simulator="S", frame=1).cycles == 200
        assert len(table.filter(simulator="S")) == 3
        assert len(table.filter(simulator="S", frame=None)) == 0
        with pytest.raises(KeyError, match="found 3"):
            table.get(simulator="S")
        with pytest.raises(KeyError, match="found 0"):
            table.get(frame=7)

    def test_labels_in_first_seen_order(self):
        table = ExperimentTable([
            SimResult(simulator=sim, model=model, scenario=scenario)
            for scenario, model, sim in (
                ("z", "m2", "B"), ("a", "m1", "A"), ("z", "m1", "C"),
                ("a", "m2", "B"))
        ])
        assert table.scenarios == ["z", "a"]
        assert table.models == ["m2", "m1"]
        assert table.simulators == ["B", "A", "C"]
        assert ExperimentTable().scenarios == []
