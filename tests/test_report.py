"""`repro report`: figure tables recomputed against the result table,
HTML rendering, and the two-run diff mode."""

import json

import pytest

from repro import cli, report
from repro.engine import (
    ExperimentSpec,
    ExperimentTable,
    RunManifest,
    RunObserver,
    manifest_path_for,
)
from repro.engine.cache import TraceCache


def run_spec(**overrides):
    fields = dict(
        name="report-test",
        simulators=["spade-he", "dense-he", "stats"],
        models=["SPP3"],
        scenarios=[{"name": "m", "seed": 0}],
        backend="serial",
    )
    fields.update(overrides)
    spec = ExperimentSpec(**fields)
    runner = spec.build_runner()
    observer = RunObserver()
    table = runner.run(observer=observer)
    return runner, table, observer


def cell_metric(table, metric, scenario, model, simulator):
    """The figures' value for one (scenario, model, simulator) cell."""
    cell = report._group_cells(table).get((scenario, model, simulator), [])
    return report._cell_metric(cell, metric)


@pytest.fixture(scope="module")
def run():
    return run_spec()


@pytest.fixture(scope="module")
def table(run):
    return run[1]


@pytest.fixture(scope="module")
def sink(run, tmp_path_factory):
    """A results.json + manifest pair on disk, as `repro run` leaves."""
    runner, table, observer = run
    root = tmp_path_factory.mktemp("sink")
    results = root / "results.json"
    table.to_json(results)
    manifest = RunManifest.collect(runner, table, observer=observer)
    manifest.write(manifest_path_for(results))
    return results


class TestBaseline:
    def test_prefers_a_dense_simulator(self, table):
        assert report.pick_baseline(table) == "DenseAcc.HE"

    def test_explicit_wins(self, table):
        assert report.pick_baseline(table, "SPADE.HE") == "SPADE.HE"

    def test_unknown_is_an_error(self, table):
        with pytest.raises(ValueError, match="not in this table"):
            report.pick_baseline(table, "dense-he")


class TestFigures:
    def test_speedup_matches_the_table(self, table):
        figure = report.fig_speedup(table)
        assert figure["baseline"] == "DenseAcc.HE"
        base = cell_metric(table, "latency_ms", "m", "SPP3",
                           "DenseAcc.HE")
        by_sim = {row[2]: row for row in figure["rows"]}
        spade = by_sim["SPADE.HE"]
        latency = cell_metric(table, "latency_ms", "m", "SPP3",
                              "SPADE.HE")
        assert spade[3] == pytest.approx(latency)
        assert spade[4] == pytest.approx(base / latency)
        assert spade[4] > 1     # the paper's headline direction

    def test_energy_matches_the_table(self, table):
        figure = report.fig_energy(table)
        for scenario, model, simulator, energy in figure["rows"]:
            assert energy == pytest.approx(cell_metric(
                table, "energy_mj", scenario, model, simulator))

    def test_workload_and_overhead_come_from_layer_aggregates(
            self, table):
        layers = {(e["model"], e["layer"]): e["fields"]
                  for e in report.layer_aggregates(table)}
        workload = report.fig_workload(table)
        assert workload is not None
        for row in workload["rows"]:
            assert (row[0], row[1]) in layers
        overhead = report.fig_overhead(table)
        assert overhead is not None
        for model, layer, mean, low, high in overhead["rows"]:
            stat = layers[(model, layer)]["overhead_fraction"]
            assert (mean, low, high) == (stat["mean"], stat["min"],
                                         stat["max"])
            assert low <= mean <= high

    def test_full_paper_figure_set(self, table):
        figures = report.build_figures(table)
        assert [figure["id"] for figure in figures] \
            == ["fig2", "fig5", "fig9", "fig10", "fig11"]

    def test_figures_lacking_data_are_omitted(self):
        # A stats-only table has no latency/energy columns to chart.
        table = run_spec(simulators=["stats"])[1]
        ids = [figure["id"] for figure in report.build_figures(table)]
        assert "fig9" not in ids and "fig10" not in ids


class TestHtml:
    def test_single_file_with_every_section(self, sink):
        html = report.build_report(sink, as_html=True)
        assert html.lstrip().startswith("<!DOCTYPE html>")
        for section_id in ("manifest", "results", "fig2", "fig5",
                           "fig9", "fig10", "fig11"):
            assert f'<table id="{section_id}"' in html
        assert "<script" not in html
        assert 'href="http' not in html     # self-contained

    def test_figure_cells_match_the_result_table(self, sink, table):
        html = report.build_report(sink, as_html=True)
        latency = cell_metric(table, "latency_ms", "m", "SPP3",
                              "SPADE.HE")
        assert report._format_value(latency) in html

    def test_escapes_markup(self):
        rendered = report._html_table(
            ["<h>"], [("<b>&", 1.0)], table_id="x")
        assert "<b>" not in rendered and "&lt;b&gt;&amp;" in rendered

    def test_bar_column_scales_to_max(self):
        rendered = report._html_table(
            ["name", "value"], [("a", 2.0), ("b", 4.0)],
            table_id="fig9", bar_column=1)
        assert '--w:50.0%' in rendered and '--w:100.0%' in rendered


class TestText:
    def test_manifest_summary_and_figures(self, sink):
        text = report.build_report(sink)
        assert "run manifest" in text
        assert "spec hash" in text
        assert "Speedup over DenseAcc.HE" in text

    def test_layer_rules_row_counts_shared_layers(self):
        # SPP3 on the seed-0 KITTI frame, traced by a fresh cache: 10 of
        # its 19 sparse layers repeat an earlier layer's input and
        # reuse its rules.
        spec = ExperimentSpec(name="shared-rules", simulators=["stats"],
                              models=["SPP3"],
                              scenarios=[{"name": "m", "seed": 0}],
                              backend="serial")
        runner = spec.build_runner(cache=TraceCache())
        observer = RunObserver()
        table = runner.run(observer=observer)
        manifest = RunManifest.collect(runner, table, observer=observer)
        rows = dict(report._manifest_summary_rows(manifest))
        assert rows["layer rules"] == (
            "9 built in full, 10 shared with an earlier layer of their "
            "trace, 0 routed to build_rules_delta (shared or rebuilt)")

    def test_without_a_manifest_says_so(self, tmp_path, table):
        results = tmp_path / "bare.json"
        table.to_json(results)
        text = report.build_report(results)
        assert "run manifest: none found" in text


class TestDiff:
    def test_identical_runs_have_zero_differences(self, sink):
        diff = report.diff_tables(report.load_table(sink),
                                  report.load_table(sink))
        assert diff["rows"] == []
        assert diff["matched"] == len(report.load_table(sink))

    def test_perturbed_metric_shows_ratio(self, table):
        records = table.to_records()
        target = next(r for r in records
                      if isinstance(r["latency_ms"], (int, float)))
        target["latency_ms"] *= 2
        other = ExperimentTable()
        for record in records:
            other.append_record(record)
        diff = report.diff_tables(table, other)
        changed = [row for row in diff["rows"]
                   if row[1] == "latency_ms"]
        assert len(changed) == 1
        assert changed[0][4] == pytest.approx(2.0)

    def test_missing_rows_are_reported_both_ways(self, table):
        shorter = ExperimentTable()
        for record in table.to_records()[:-1]:
            shorter.append_record(record)
        forward = report.diff_tables(table, shorter)
        assert ("present", "missing") in [
            (row[2], row[3]) for row in forward["rows"]]
        backward = report.diff_tables(shorter, table)
        assert ("missing", "present") in [
            (row[2], row[3]) for row in backward["rows"]]

    def test_manifest_diff_flags_changed_settings(self, run):
        runner, table, observer = run
        left = RunManifest.collect(runner, table, observer=observer)
        right = RunManifest.from_dict(
            json.loads(left.to_json()))
        right.backend = "dist"
        right.settings = dict(right.settings,
                              backend="dist", workers=7)
        diff = report.diff_manifests(left, right)
        fields = [row[0] for row in diff["rows"]]
        assert "backend" in fields
        assert "settings.workers" in fields
        assert "settings.cache_dir" not in fields


class TestCli:
    def test_report_end_to_end(self, sink, capsys):
        assert cli.main(["report", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out and "fig9" not in out

    def test_html_out_dir(self, sink, tmp_path, capsys):
        out_dir = tmp_path / "rendered"
        out_dir.mkdir()
        assert cli.main(["report", str(sink), "--html",
                         "--out", str(out_dir) + "/"]) == 0
        artifact = out_dir / (sink.stem + ".report.html")
        assert artifact.exists()
        assert '<table id="fig9"' in artifact.read_text()
        assert "wrote report to" in capsys.readouterr().err

    def test_diff_mode(self, sink, capsys):
        assert cli.main(["report", str(sink), "--diff",
                         str(sink)]) == 0
        out = capsys.readouterr().out
        assert "0 difference(s)" in out

    def test_unknown_baseline_exits_2(self, sink, capsys):
        assert cli.main(["report", str(sink),
                         "--baseline", "nope"]) == 2
        assert "not in this table" in capsys.readouterr().err

    def test_missing_results_exits_2(self, tmp_path, capsys):
        assert cli.main(["report",
                         str(tmp_path / "absent.json")]) == 2
