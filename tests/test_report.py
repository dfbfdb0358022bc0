"""`repro report`: figure tables recomputed against the result table,
HTML rendering, and the two-run diff mode."""

import json
from pathlib import Path

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

SMOKE_SPEC = (Path(__file__).resolve().parent.parent / "examples" / "specs"
              / "smoke.json")

# fig2 / fig5 of the smoke spec's table (SPP3, seed-0 KITTI frame):
# layer order, per-simulator MACs, TraceStats' pillar counts and the
# per-simulator overhead fractions.
SPP3_LAYERS = (
    "B1C1", "B1C2", "B1C3", "B1C4", "B2C1", "B2C2", "B2C3", "B2C4", "B2C5",
    "B2C6", "B3C1", "B3C2", "B3C3", "B3C4", "B3C5", "B3C6", "D1", "D2",
    "D3", "Hfused",
)
SMOKE_SPARSE_MACS = (
    50_720_768, 68_083_712, 68_083_712, 68_083_712, 50_388_992,
    131_596_288, 131_596_288, 131_596_288, 131_596_288,
    131_596_288, 94_240_768, 244_318_208, 244_318_208,
    244_318_208, 244_318_208, 244_318_208, 26_771_456, 98_304_000,
    348_127_232, 1_481_048_064,
)
SMOKE_DENSE_MACS = (
    1_974_730_752, 1_974_730_752, 1_974_730_752, 1_974_730_752,
    987_365_376, 1_974_730_752, 1_974_730_752, 1_974_730_752,
    1_974_730_752, 1_974_730_752, 987_365_376, 1_974_730_752,
    1_974_730_752, 1_974_730_752, 1_974_730_752, 1_974_730_752,
    438_829_056, 877_658_112, 1_755_316_224, 1_481_048_064,
)
SMOKE_TRACE_COUNTS = (
    (6767, 3268), (3268, 3268), (3268, 3268), (3268, 3268), (3268, 1500),
    (1500, 1500), (1500, 1500), (1500, 1500), (1500, 1500), (1500, 1500),
    (1500, 664), (664, 664), (664, 664), (664, 664), (664, 664), (664, 664),
    (3268, 3268), (1500, 6000), (664, 10624), (53568, 53568),
)
SMOKE_SPADE_OVERHEAD = (
    0.41922399311672875, 0.3214022854929305, 0.3214022854929305,
    0.3214022854929305, 0.45015206432529264, 0.2854662534889343,
    0.2854662534889343, 0.2854662534889343, 0.2854662534889343,
    0.2854662534889343, 0.46872586872586874, 0.3542670504155483,
    0.3542670504155483, 0.3542670504155483, 0.3542670504155483,
    0.3542670504155483, 0.21669477234401346, 0.24694376528117357,
    0.26148728255596365, 0.1824715681807778,
)
SMOKE_DENSE_OVERHEAD = (
    0.17610540753979798, 0.17610540753979798, 0.17610540753979798,
    0.17610540753979798, 0.14918611205834664, 0.1330458769651035,
    0.1330458769651035, 0.1330458769651035, 0.1330458769651035,
    0.1330458769651035, 0.14312022779107814, 0.13939288113306048,
    0.13939288113306048, 0.13939288113306048, 0.13939288113306048,
    0.13939288113306048, 0.10370408914195661, 0.11638156693248924,
    0.13574259039745296, 0.1824715681807778,
)


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

    def test_workload_and_overhead_come_from_layer_stats(self, table):
        layers = report._layer_stats(table)
        workload = report.fig_workload(table)
        assert workload is not None
        for row in workload["rows"]:
            assert row[:3] in layers
            assert row[5] == layers[row[:3]]["macs"]["mean"]
        overhead = report.fig_overhead(table)
        assert overhead is not None
        for simulator, model, layer, mean, low, high in overhead["rows"]:
            stat = layers[(simulator, model, layer)]["overhead_fraction"]
            assert (mean, low, high) == (stat["mean"], stat["min"],
                                         stat["max"])
            assert low <= mean <= high

    def test_two_simulators_aggregate_apart(self):
        """One layer of two simulators is two rows.  Booleans count as
        0 / 1; text, NaN and a row without per-layer detail add
        nothing."""
        def row(simulator, macs, overhead, frame):
            return {"simulator": simulator, "model": "M",
                    "scenario": "s", "frame": frame,
                    "per_layer": [{"name": "L", "macs": macs,
                                   "overhead_fraction": overhead,
                                   "gated": True, "kind": "subm"}]}

        table = ExperimentTable()
        for record in (row("A", 10, 0.1, 0), row("A", 30, float("nan"), 1),
                       row("B", 100, 0.5, 0),
                       {"simulator": "B", "model": "M", "frame": "mean"}):
            table.append_record(record)
        assert report.fig_workload(table)["rows"] == [
            ("A", "M", "L", "-", "-", 20.0),
            ("B", "M", "L", "-", "-", 100.0),
        ]
        # NaN never aggregates: A's overhead comes from frame 0 alone.
        assert report.fig_overhead(table)["rows"] == [
            ("A", "M", "L", 0.1, 0.1, 0.1),
            ("B", "M", "L", 0.5, 0.5, 0.5),
        ]
        stats = report._layer_stats(table)
        assert stats[("A", "M", "L")]["macs"] == {
            "count": 2, "mean": 20.0, "min": 10.0, "max": 30.0}
        assert stats[("A", "M", "L")]["gated"]["mean"] == 1.0
        assert "kind" not in stats[("A", "M", "L")]
        assert stats[("B", "M", "L")]["macs"]["count"] == 1

    def test_smoke_table_layer_figures_are_pinned(self):
        table = ExperimentSpec.load(SMOKE_SPEC).build_runner().run()
        workload = report.fig_workload(table)
        assert workload["headers"] == ["simulator", "model", "layer",
                                       "inputs", "outputs", "macs"]
        assert [row[:3] for row in workload["rows"]] == [
            (simulator, "SPP3", layer)
            for simulator in ("SPADE.HE", "DenseAcc.HE", "TraceStats")
            for layer in SPP3_LAYERS]
        columns = {}
        for simulator, _, _, inputs, outputs, macs in workload["rows"]:
            columns.setdefault(simulator, []).append((inputs, outputs,
                                                      macs))
        assert columns["SPADE.HE"] == [("-", "-", float(macs))
                                       for macs in SMOKE_SPARSE_MACS]
        assert columns["DenseAcc.HE"] == [("-", "-", float(macs))
                                          for macs in SMOKE_DENSE_MACS]
        assert columns["TraceStats"] == [
            (float(inputs), float(outputs), float(macs))
            for (inputs, outputs), macs in zip(SMOKE_TRACE_COUNTS,
                                               SMOKE_SPARSE_MACS)]
        overhead = report.fig_overhead(table)
        # 1 - MXU / total: DenseAcc stalls too, so the title names the
        # PE array, not sparsity.
        assert overhead["title"] == ("Per-layer PE-array stall fraction, "
                                     "1 - MXU / total cycles (paper Fig. 5)")
        assert overhead["headers"] == ["simulator", "model", "layer",
                                       "mean", "min", "max"]
        means = {}
        for simulator, model, layer, mean, low, high in overhead["rows"]:
            assert low == mean == high       # one frame per cell
            means.setdefault(simulator, []).append((layer, mean))
        assert means == {
            "SPADE.HE": list(zip(SPP3_LAYERS, SMOKE_SPADE_OVERHEAD)),
            "DenseAcc.HE": list(zip(SPP3_LAYERS, SMOKE_DENSE_OVERHEAD)),
        }

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

    def test_manifest_with_a_dist_block_still_renders(self, run,
                                                      tmp_path):
        """A manifest written while the dist backend existed carries a
        ``dist`` key; it still loads, and `repro report` renders it."""
        runner, table, observer = run
        old = RunManifest.collect(runner, table,
                                  observer=observer).to_dict()
        old["dist"] = {"stats": {"requeues": 0},
                       "workers": [{"worker": "w0"}],
                       "settings": {"port": 7463, "token": False}}
        manifest = RunManifest.from_dict(old)
        assert not hasattr(manifest, "dist")
        assert "dist" not in manifest.to_dict()
        results = tmp_path / "old.json"
        table.to_json(results)
        manifest_path_for(results).write_text(json.dumps(old))
        text = report.build_report(results)
        assert "run manifest" in text and "spec hash" in text
        assert "dist" not in dict(report._manifest_summary_rows(manifest))

    def test_manifest_with_an_analysis_block_still_renders(self, run,
                                                           tmp_path):
        """A manifest written while the run kept streaming per-layer
        aggregates carries an ``analysis`` key; it still loads, and
        `repro report` renders it with its figures from the table."""
        runner, table, observer = run
        old = RunManifest.collect(runner, table,
                                  observer=observer).to_dict()
        old["analysis"] = {
            "rows_ingested": len(table), "layers": 1,
            "per_layer": [{"model": "SPP3", "layer": "B1C1",
                           "fields": {"macs": {"count": 1, "mean": 1.0,
                                               "min": 1.0, "max": 1.0}}}],
        }
        manifest = RunManifest.from_dict(old)
        assert not hasattr(manifest, "analysis")
        assert "analysis" not in manifest.to_dict()
        results = tmp_path / "old.json"
        table.to_json(results)
        manifest_path_for(results).write_text(json.dumps(old))
        text = report.build_report(results)
        assert "run manifest" in text and "spec hash" in text
        assert "Per-layer workload (paper Fig. 2)" in text
        assert "analytics" not in text
        html = report.build_report(results, as_html=True)
        assert '<table id="fig2"' in html and '<table id="fig5"' in html

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
        right.backend = "process"
        right.settings = dict(right.settings,
                              backend="process", workers=7)
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
