"""Run journal: write-ahead format, torn-tail recovery, and --resume
stitching that is byte-identical to an uninterrupted run."""

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import (
    ExperimentSpec,
    RunJournal,
    RunManifest,
    manifest_path_for,
    read_journal,
)
from repro.engine.journal import JOURNAL_SCHEMA, _encode, _scan, unit_key
from repro.engine.result import (
    SimResult,
    _record_to_result,
    _result_to_record,
)


def journal_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="journal-test",
        simulators=["spade-he"],
        models=["SPP2", "SPP3"],
        scenarios=[{"name": "a", "seed": 0}, {"name": "b", "seed": 9}],
        backend="serial",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def run_with_journal(spec, path):
    journal = RunJournal(path)
    table = spec.build_runner().run(journal=journal)
    return table, journal


class TestJournalFormat:
    def test_fresh_run_writes_header_then_units(self, tmp_path):
        path = tmp_path / "run.journal"
        table, journal = run_with_journal(journal_spec(), path)
        assert len(table) == 4
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["version"] == 1
        assert header["name"] == "journal-test"
        assert header["spec_hash"]
        units = [json.loads(line)["unit"] for line in lines[1:]]
        assert units == ["a/SPP2", "a/SPP3", "b/SPP2", "b/SPP3"]
        assert journal.summary() == {
            "path": str(path),
            "spec_hash": header["spec_hash"],
            "resumed_units": 0,
            "appended_units": 4,
            "dropped_lines": 0,
            "torn_bytes": 0,
        }

    def test_read_journal_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        run_with_journal(journal_spec(), path)
        info = read_journal(path)
        assert info["header"]["name"] == "journal-test"
        assert [u["unit"] for u in info["units"]] \
            == ["a/SPP2", "a/SPP3", "b/SPP2", "b/SPP3"]
        assert info["dropped"] == 0
        assert info["torn_bytes"] == 0
        for unit in info["units"]:
            assert unit["rows"], "journaled rows must not be empty"
            assert unit["seconds"] >= 0

    def test_read_journal_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_journal(tmp_path / "missing.journal")
        bogus = tmp_path / "not-a-journal"
        bogus.write_text("just text\n")
        with pytest.raises(ValueError, match="header"):
            read_journal(bogus)

    def test_unit_key(self):
        assert unit_key("drive", "SPP3") == "drive/SPP3"


class TestResume:
    def test_fully_journaled_run_executes_nothing(self, tmp_path):
        path = tmp_path / "run.journal"
        spec = journal_spec()
        first, _ = run_with_journal(spec, path)
        second, journal = run_with_journal(spec, path)
        assert journal.summary()["resumed_units"] == 4
        assert journal.summary()["appended_units"] == 0
        assert second.to_csv() == first.to_csv()
        assert second.to_json() == first.to_json()

    def test_partial_resume_is_byte_identical(self, tmp_path):
        """Acceptance: kill a run after two units, resume, and the
        stitched CSV/JSON equals the uninterrupted run's byte for
        byte."""
        path = tmp_path / "run.journal"
        spec = journal_spec()
        uninterrupted = spec.build_runner().run()
        run_with_journal(spec, path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))   # header + 2 units
        table, journal = run_with_journal(spec, path)
        assert journal.summary()["resumed_units"] == 2
        assert journal.summary()["appended_units"] == 2
        assert table.to_csv() == uninterrupted.to_csv()
        assert table.to_json() == uninterrupted.to_json()

    def test_torn_trailing_record_is_truncated(self, tmp_path):
        path = tmp_path / "run.journal"
        spec = journal_spec()
        uninterrupted = spec.build_runner().run()
        run_with_journal(spec, path)
        lines = path.read_bytes().splitlines(keepends=True)
        torn = lines[-1][: len(lines[-1]) // 2]  # half a record, no \n
        path.write_bytes(b"".join(lines[:3]) + torn)
        table, journal = run_with_journal(spec, path)
        assert journal.summary()["torn_bytes"] == len(torn)
        assert journal.summary()["resumed_units"] == 2
        assert table.to_csv() == uninterrupted.to_csv()
        # The torn bytes were physically truncated before appending.
        assert b"".join(path.read_bytes().splitlines(keepends=True)[:3]) \
            == b"".join(lines[:3])

    def test_invalid_interior_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "run.journal"
        spec = journal_spec()
        uninterrupted = spec.build_runner().run()
        run_with_journal(spec, path)
        lines = path.read_bytes().splitlines(keepends=True)
        mangled = lines[:2] + [b"{broken json\n"] + lines[3:]
        path.write_bytes(b"".join(mangled))
        table, journal = run_with_journal(spec, path)
        assert journal.summary()["dropped_lines"] == 1
        assert journal.summary()["resumed_units"] == 3
        assert table.to_csv() == uninterrupted.to_csv()

    def test_resuming_a_different_spec_fails_loudly(self, tmp_path):
        path = tmp_path / "run.journal"
        run_with_journal(journal_spec(), path)
        other = journal_spec(name="other-experiment",
                             scenarios=[{"name": "a", "seed": 1}])
        with pytest.raises(ValueError, match="different experiment"):
            other.build_runner().run(journal=RunJournal(path))

    def test_journal_units_outside_the_plan_fail(self, tmp_path):
        path = tmp_path / "run.journal"
        spec = journal_spec()
        run_with_journal(spec, path)
        with open(path, "ab") as handle:
            handle.write(_encode({"unit": "ghost/SPP9", "seconds": 0.1,
                                  "worker": None, "rows": []}))
        with pytest.raises(ValueError, match="ghost/SPP9"):
            spec.build_runner().run(journal=RunJournal(path))

    def test_resumed_units_feed_the_observer(self, tmp_path):
        from repro.engine import RunObserver

        path = tmp_path / "run.journal"
        spec = journal_spec()
        run_with_journal(spec, path)
        observer = RunObserver()
        runner = spec.build_runner()
        table = runner.run(observer=observer, journal=RunJournal(path))
        manifest = RunManifest.collect(runner, table, observer=observer)
        assert sorted((u["scenario"], u["model"])
                      for u in manifest.units) == [
            ("a", "SPP2"), ("a", "SPP3"), ("b", "SPP2"), ("b", "SPP3"),
        ]
        assert sum(u["rows"] for u in manifest.units) == len(table)


# Finite floats only: byte-identity is defined over JSON, where NaN has
# no interoperable encoding (the engine never emits NaN metrics).
_metric = st.none() | st.floats(allow_nan=False, allow_infinity=False,
                                width=64)
_count = st.none() | st.integers(min_value=0, max_value=2**40)
_name = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"),
                           whitelist_characters="-._"),
    min_size=1, max_size=16,
)


@st.composite
def sim_results(draw):
    return SimResult(
        simulator=draw(_name),
        model=draw(_name),
        scenario=draw(_name),
        frame=draw(st.none() | st.integers(0, 99) | _name),
        cycles=draw(_count),
        latency_ms=draw(_metric),
        fps=draw(_metric),
        energy_mj=draw(_metric),
        dram_bytes=draw(_count),
        utilization=draw(_metric),
        per_layer=draw(st.lists(
            st.dictionaries(_name, _metric | st.integers(0, 9),
                            max_size=3),
            max_size=3,
        )),
        extras=draw(st.dictionaries(_name, _metric | _name, max_size=3)),
    )


class TestJournalProperties:
    @hyp_settings(max_examples=50, deadline=None)
    @given(results=st.lists(sim_results(), min_size=1, max_size=4),
           seconds=st.floats(0, 1e6, allow_nan=False))
    def test_record_round_trip(self, tmp_path_factory, results, seconds):
        """Any journaled unit decodes back to the exact rows written —
        the property byte-identical resume rests on."""
        path = tmp_path_factory.mktemp("journal") / "rt.journal"
        journal = RunJournal(path)
        journal._handle = open(path, "wb")
        try:
            journal.record_unit("s", "m", seconds, results=results)
        finally:
            journal.close()
        line = path.read_bytes()
        assert line.endswith(b"\n")
        record = json.loads(line)
        assert record["unit"] == "s/m"
        assert record["seconds"] == float(seconds)
        decoded = [_record_to_result(row) for row in record["rows"]]
        assert decoded == results
        # And the wire encoding itself is stable under a second trip.
        assert [_result_to_record(row) for row in decoded] \
            == record["rows"]

    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           results=st.lists(sim_results(), min_size=1, max_size=3))
    def test_torn_write_recovery(self, data, results):
        """Cutting a journal at ANY byte offset never corrupts resume:
        the scan keeps exactly the records whose newline survived and
        reports the rest as a torn tail."""
        blob = _encode({"schema": JOURNAL_SCHEMA, "version": 1,
                        "spec_hash": "h", "name": "t"})
        offsets = [len(blob)]
        for index, result in enumerate(results):
            blob += _encode({
                "unit": f"s/m{index}",
                "seconds": 0.5,
                "worker": None,
                "rows": [_result_to_record(result)],
            })
            offsets.append(len(blob))
        cut = data.draw(st.integers(offsets[0], len(blob)), label="cut")
        header, units, dropped, valid_end, torn = _scan(blob[:cut])
        assert header is not None
        complete = sum(1 for end in offsets[1:] if end <= cut)
        assert list(units) == [f"s/m{i}" for i in range(complete)]
        assert dropped == 0
        assert valid_end == offsets[complete]
        assert torn == cut - valid_end
        for index in range(complete):
            decoded = [_record_to_result(row)
                       for row in units[f"s/m{index}"]["rows"]]
            assert decoded == [results[index]]


class TestJournalCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(journal_spec().to_dict()))
        return str(path)

    def test_journal_flag_refuses_an_existing_file(self, capsys,
                                                   tmp_path, spec_path):
        path = tmp_path / "run.journal"
        path.write_text("data")
        assert main(["run", spec_path, "--journal", str(path),
                     "--out", "-"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_journal_and_resume_are_mutually_exclusive(self, capsys,
                                                       spec_path):
        assert main(["run", spec_path, "--journal", "a", "--resume",
                     "b"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_resume_cycle_and_inspect(self, capsys, tmp_path,
                                      spec_path):
        journal = tmp_path / "run.journal"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["run", spec_path, "--resume", str(journal),
                     "--out", str(first)]) == 0
        err = capsys.readouterr().err
        assert "resumed 0 unit(s), appended 4" in err
        assert main(["run", spec_path, "--resume", str(journal),
                     "--out", str(second)]) == 0
        err = capsys.readouterr().err
        assert "resumed 4 unit(s), appended 0" in err
        assert first.read_bytes() == second.read_bytes()
        # The manifest records the journal counters.
        manifest = RunManifest.load(manifest_path_for(second))
        assert manifest.journal["resumed_units"] == 4
        assert manifest.journal["appended_units"] == 0
        assert main(["journal", "inspect", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "journal-test" in out
        assert "a/SPP2" in out and "b/SPP3" in out
        assert "completed   : 4" in out

    def test_inspect_missing_journal_exits_2(self, capsys, tmp_path):
        assert main(["journal", "inspect",
                     str(tmp_path / "nope.journal")]) == 2
        assert "no journal" in capsys.readouterr().err
