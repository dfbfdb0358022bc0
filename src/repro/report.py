"""``repro report`` — render a run's table + manifest as an artifact.

A finished ``repro run --out results.json`` leaves two files behind: the
:class:`~repro.engine.result.ExperimentTable` sink and the
:class:`~repro.engine.manifest.RunManifest` next to it.  This module
turns that pair into something a human reads:

* **text** (the default) — a manifest summary plus the paper-style
  figure tables, through the same
  :func:`~repro.analysis.report.format_table` helpers every benchmark
  prints with;
* **HTML** (``--html``) — one self-contained file (inline CSS, no
  external assets) with the manifest summary, the full result table and
  the figure set; every figure table carries a stable ``id`` (``fig2``,
  ``fig5``, ``fig9``, ``fig10``, ``fig11``) so tests — and anchors —
  can address it;
* **diff** (``--diff other.json``) — two runs joined row-for-row on
  (scenario, frame, model, simulator), metric deltas plus a
  manifest-field comparison, to explain *why* two tables differ.

The figure set mirrors the source paper's evaluation:

====== ==================================================== ==========
id     contents                                             paper fig.
====== ==================================================== ==========
fig2   per-layer workload (inputs / outputs / MACs)         Fig. 2
fig5   per-layer PE-array stall fraction (1 - MXU/total)    Fig. 5
fig9   speedup over the baseline simulator (latency)        Fig. 9
fig10  energy per frame by simulator                        Fig. 10
fig11  PE utilization and DRAM traffic by simulator         Fig. 11
====== ==================================================== ==========

Figures are *derived from the table*, not stored: a figure with no
backing data (e.g. fig10 when no simulator models energy) is simply
omitted.  The per-layer figures (fig2, fig5) group the rows'
``per_layer`` detail by (simulator, model, layer): each row is one
accelerator's layer, never an average over accelerators.
"""

from __future__ import annotations

import html
from pathlib import Path

from .analysis.report import format_table
from .engine.manifest import RunManifest, manifest_path_for
from .engine.result import RESULT_COLUMNS, ExperimentTable

#: Metric columns a diff compares (the non-label RESULT_COLUMNS).
_DIFF_METRICS = (
    "cycles",
    "latency_ms",
    "fps",
    "energy_mj",
    "dram_bytes",
    "utilization",
)

#: Manifest fields the diff compares field-for-field.
_MANIFEST_DIFF_FIELDS = (
    "name", "spec_hash", "git_rev", "backend", "created",
)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_table(path) -> ExperimentTable:
    """Read a ``repro run --out`` JSON sink back as a table."""
    return ExperimentTable.from_json(str(path))


def load_manifest_for(results_path, manifest_path=None):
    """The manifest next to a result sink, or None when absent.

    ``manifest_path`` overrides the ``results.manifest.json``
    convention; an explicit path that does not exist (or does not
    parse) raises instead of silently reporting without provenance.
    """
    if manifest_path is not None:
        return RunManifest.load(manifest_path)
    candidate = manifest_path_for(results_path)
    if not candidate.exists():
        return None
    return RunManifest.load(candidate)


# ---------------------------------------------------------------------------
# figure builders (table -> {"id", "title", "headers", "rows"})
# ---------------------------------------------------------------------------


def _numeric(value):
    return (isinstance(value, (int, float))
            and not isinstance(value, bool))


def _group_cells(table: ExperimentTable) -> dict:
    """The table's rows grouped by (scenario, model, simulator) cell,
    each group in row order."""
    groups = {}
    for row in table.results:
        key = (row.scenario, row.model, row.simulator)
        groups.setdefault(key, []).append(row)
    return groups


def _cell_metric(rows: list, metric: str):
    """One representative value of one (scenario, model, simulator)
    cell's rows.

    Batched scenarios contribute their ``"mean"`` aggregate row;
    otherwise the mean of the cell's per-frame (or single) rows.
    Returns None when the simulator does not model the metric.
    """
    mean_rows = [row for row in rows if row.frame == "mean"]
    pick = ExperimentTable(mean_rows or rows)
    values = [value for value in pick.column(metric).tolist()
              if _numeric(value)]
    if not values:
        return None
    return sum(values) / len(values)


def _cells(table: ExperimentTable, groups: dict):
    """Every (scenario, model) pair that has rows, in table order."""
    present = {(scenario, model) for scenario, model, _ in groups}
    return [(scenario, model)
            for scenario in table.scenarios
            for model in table.models
            if (scenario, model) in present]


def _layer_stats(table: ExperimentTable) -> dict:
    """Count / mean / min / max of every numeric ``per_layer`` field,
    per (simulator, model, layer), in first-seen order.

    Maps each key to ``{field: {"count", "mean", "min", "max"}}``.
    Booleans count as 0 / 1; NaN, non-numeric values and rows without
    per-layer detail (platform models, ``"mean"`` rows) add nothing.
    """
    values = {}
    for row in table.results:
        for entry in row.per_layer or ():
            if not isinstance(entry, dict) or entry.get("name") is None:
                continue
            fields = values.setdefault(
                (str(row.simulator), str(row.model), str(entry["name"])),
                {})
            for name, value in entry.items():
                if not isinstance(value, (int, float)) or value != value:
                    continue
                fields.setdefault(name, []).append(float(value))
    return {
        key: {name: {"count": len(seen), "mean": sum(seen) / len(seen),
                     "min": min(seen), "max": max(seen)}
              for name, seen in sorted(fields.items())}
        for key, fields in values.items()
    }


def fig_workload(table: ExperimentTable) -> dict:
    """fig2: per-layer workload (inputs / outputs / MACs means)."""
    rows = []
    for key, fields in _layer_stats(table).items():
        picked = [fields.get(name) for name in
                  ("inputs", "outputs", "macs")]
        if all(stat is None for stat in picked):
            continue
        rows.append(key + tuple(
            "-" if stat is None else stat["mean"] for stat in picked))
    if not rows:
        return None
    return {
        "id": "fig2",
        "title": "Per-layer workload (paper Fig. 2)",
        "headers": ["simulator", "model", "layer", "inputs", "outputs",
                    "macs"],
        "rows": rows,
    }


def fig_overhead(table: ExperimentTable) -> dict:
    """fig5: per-layer PE-array stall fraction (mean / min / max).

    The rows' ``overhead_fraction`` is ``1 - MXU / total cycles``: the
    time the PE array waits, whatever it waits on.  DenseAcc reports it
    too, so it is not an overhead of sparsity.
    """
    rows = []
    for key, fields in _layer_stats(table).items():
        stat = fields.get("overhead_fraction")
        if stat is not None:
            rows.append(key + (stat["mean"], stat["min"], stat["max"]))
    if not rows:
        return None
    return {
        "id": "fig5",
        "title": ("Per-layer PE-array stall fraction, 1 - MXU / total "
                  "cycles (paper Fig. 5)"),
        "headers": ["simulator", "model", "layer", "mean", "min", "max"],
        "rows": rows,
    }


def pick_baseline(table: ExperimentTable, baseline: str = None) -> str:
    """The speedup baseline: explicit, else a dense-family simulator,
    else the table's first simulator."""
    simulators = table.simulators
    if baseline is not None:
        if baseline not in simulators:
            raise ValueError(
                f"baseline simulator {baseline!r} not in this table "
                f"(has {simulators})"
            )
        return baseline
    for name in simulators:
        if "dense" in str(name).lower():
            return name
    return simulators[0] if simulators else None


def fig_speedup(table: ExperimentTable, baseline: str = None) -> dict:
    """fig9: latency speedup of every simulator over the baseline."""
    baseline = pick_baseline(table, baseline)
    others = [name for name in table.simulators if name != baseline]
    if baseline is None or not others:
        return None
    groups = _group_cells(table)
    rows = []
    for scenario, model in _cells(table, groups):
        base = _cell_metric(groups.get((scenario, model, baseline), []),
                            "latency_ms")
        for simulator in others:
            latency = _cell_metric(
                groups.get((scenario, model, simulator), []),
                "latency_ms")
            speedup = (base / latency
                       if _numeric(base) and _numeric(latency)
                       and latency else None)
            rows.append((scenario, model, simulator,
                         "-" if latency is None else latency,
                         "-" if speedup is None else speedup))
    if not rows:
        return None
    return {
        "id": "fig9",
        "title": f"Speedup over {baseline} (paper Fig. 9)",
        "headers": ["scenario", "model", "simulator", "latency_ms",
                    "speedup"],
        "rows": rows,
        "baseline": baseline,
    }


def fig_energy(table: ExperimentTable) -> dict:
    """fig10: per-frame energy by simulator."""
    groups = _group_cells(table)
    rows = []
    for scenario, model in _cells(table, groups):
        for simulator in table.simulators:
            energy = _cell_metric(
                groups.get((scenario, model, simulator), []),
                "energy_mj")
            if energy is not None:
                rows.append((scenario, model, simulator, energy))
    if not rows:
        return None
    return {
        "id": "fig10",
        "title": "Energy per frame (paper Fig. 10)",
        "headers": ["scenario", "model", "simulator", "energy_mj"],
        "rows": rows,
    }


def fig_utilization(table: ExperimentTable) -> dict:
    """fig11: PE utilization and DRAM traffic by simulator."""
    groups = _group_cells(table)
    rows = []
    for scenario, model in _cells(table, groups):
        for simulator in table.simulators:
            cell = groups.get((scenario, model, simulator), [])
            utilization = _cell_metric(cell, "utilization")
            dram = _cell_metric(cell, "dram_bytes")
            if utilization is None and dram is None:
                continue
            rows.append((scenario, model, simulator,
                         "-" if utilization is None else utilization,
                         "-" if dram is None else dram))
    if not rows:
        return None
    return {
        "id": "fig11",
        "title": "PE utilization and DRAM traffic (paper Fig. 11)",
        "headers": ["scenario", "model", "simulator", "utilization",
                    "dram_bytes"],
        "rows": rows,
    }


def fig_phase_timeline(manifest) -> dict:
    """Phase timeline: where a traced run's time went, per span name.

    Reads the manifest's ``telemetry.spans`` profile (written by runs
    with tracing on — ``repro run --trace-out`` or
    ``REPRO_ENGINE_TELEMETRY=1``); untraced manifests yield no figure.
    The share column drives the HTML bar, mirroring the Perfetto
    timeline the exported Chrome trace gives interactively.
    """
    spans = None
    if manifest is not None and manifest.telemetry:
        spans = manifest.telemetry.get("spans")
    if not spans:
        return None
    total = sum(int(entry.get("micros") or 0) for entry in spans.values())
    rows = []
    for name, entry in sorted(spans.items(),
                              key=lambda item: -int(
                                  item[1].get("micros") or 0)):
        micros = int(entry.get("micros") or 0)
        rows.append((
            name,
            int(entry.get("count") or 0),
            round(micros / 1e6, 6),
            round(100.0 * micros / total, 2) if total else 0.0,
        ))
    return {
        "id": "fig-phases",
        "title": "Phase timeline (traced span totals)",
        "headers": ["phase", "spans", "seconds", "share %"],
        "rows": rows,
    }


def build_figures(table: ExperimentTable, baseline: str = None) -> list:
    """The full figure set for one table (figures lacking data are
    omitted, never emitted empty)."""
    figures = [
        fig_workload(table),
        fig_overhead(table),
        fig_speedup(table, baseline),
        fig_energy(table),
        fig_utilization(table),
    ]
    return [figure for figure in figures if figure is not None]


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def _row_key(record: dict) -> tuple:
    frame = record.get("frame")
    return (record.get("scenario"), str(frame), record.get("model"),
            record.get("simulator"))


def diff_tables(table_a: ExperimentTable,
                table_b: ExperimentTable) -> dict:
    """Metric-level diff of two tables joined on
    (scenario, frame, model, simulator).

    One row per joined cell and metric where the two runs disagree
    (``ratio`` is b/a when both are numeric and a is nonzero); rows
    present in only one table are listed with the other side as
    ``"missing"``.
    """
    records_a = {_row_key(r): r for r in table_a.to_records()}
    records_b = {_row_key(r): r for r in table_b.to_records()}
    rows = []
    matched = 0
    for key, record_a in records_a.items():
        record_b = records_b.get(key)
        label = "/".join(str(part) for part in key)
        if record_b is None:
            rows.append((label, "(row)", "present", "missing", "-"))
            continue
        matched += 1
        for metric in _DIFF_METRICS:
            value_a = record_a.get(metric)
            value_b = record_b.get(metric)
            if value_a == value_b:
                continue
            ratio = (value_b / value_a
                     if _numeric(value_a) and _numeric(value_b)
                     and value_a else "-")
            rows.append((
                label, metric,
                "-" if value_a is None else value_a,
                "-" if value_b is None else value_b,
                ratio,
            ))
    for key in records_b:
        if key not in records_a:
            label = "/".join(str(part) for part in key)
            rows.append((label, "(row)", "missing", "present", "-"))
    return {
        "id": "diff",
        "title": (f"Metric differences ({matched} joined rows, "
                  f"{len(rows)} difference(s))"),
        "headers": ["row", "metric", "a", "b", "ratio b/a"],
        "rows": rows,
        "matched": matched,
    }


def diff_manifests(manifest_a, manifest_b) -> dict:
    """Field-for-field manifest comparison (provenance of a diff)."""
    rows = []
    for side, manifest in (("a", manifest_a), ("b", manifest_b)):
        if manifest is None:
            rows.append(("(manifest)", f"{side}: missing", "", ""))
    if manifest_a is not None and manifest_b is not None:
        for name in _MANIFEST_DIFF_FIELDS:
            value_a = getattr(manifest_a, name)
            value_b = getattr(manifest_b, name)
            if value_a != value_b:
                rows.append((name, value_a, value_b, "differs"))
        settings_a = manifest_a.settings or {}
        settings_b = manifest_b.settings or {}
        for key in sorted(set(settings_a) | set(settings_b)):
            if settings_a.get(key) != settings_b.get(key):
                rows.append((f"settings.{key}", settings_a.get(key),
                             settings_b.get(key), "differs"))
    return {
        "id": "manifest-diff",
        "title": "Manifest differences",
        "headers": ["field", "a", "b", ""],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# manifest summary rows (shared by text and HTML)
# ---------------------------------------------------------------------------


def _manifest_summary_rows(manifest: RunManifest) -> list:
    rows = [
        ("name", manifest.name),
        ("created", manifest.created),
        ("spec hash", manifest.spec_hash or "-"),
        ("git revision", manifest.git_rev or "-"),
        ("backend", manifest.backend or "-"),
    ]
    for key, value in (manifest.settings or {}).items():
        rows.append((f"settings.{key}", value))
    table = manifest.table or {}
    if table:
        rows.append(("table rows", table.get("rows")))
        rows.append(("simulators",
                     ", ".join(str(s) for s in
                               table.get("simulators") or [])))
    for phase in manifest.phases or []:
        rows.append((f"phase {phase.get('name')}",
                     f"{phase.get('seconds', 0):.3f} s"))
    units = manifest.units or []
    if units:
        total = sum(unit.get("seconds", 0) for unit in units)
        workers = sorted({unit.get("worker") for unit in units
                          if unit.get("worker")})
        rows.append(("work units",
                     f"{len(units)} "
                     f"({total:.3f} s total unit time)"))
        if workers:
            rows.append(("workers", ", ".join(workers)))
    cache = manifest.cache or {}
    if cache:
        rows.append(("cache hits/misses",
                     f"{cache.get('hits', 0)}/"
                     f"{cache.get('misses', 0)} "
                     f"(disk {cache.get('disk_hits', 0)} hit / "
                     f"{cache.get('disk_writes', 0)} written)"))
        rows.append(("layer rules",
                     f"{cache.get('full_layers', 0)} built in full, "
                     f"{cache.get('shared_layers', 0)} shared with an "
                     f"earlier layer of their trace, "
                     f"{cache.get('delta_layers', 0)} routed to "
                     f"build_rules_delta (shared or rebuilt)"))
    return rows


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def render_text(table: ExperimentTable, manifest: RunManifest = None,
                figures: list = None, extra_sections: list = None,
                ) -> str:
    """The full report as plain text (manifest summary + figures)."""
    sections = []
    if manifest is not None:
        sections.append(format_table(
            ["field", "value"], _manifest_summary_rows(manifest),
            title="run manifest",
        ))
    elif table is not None:
        sections.append("run manifest: none found next to the table")
    if table is not None:
        sections.append(format_table(
            list(RESULT_COLUMNS),
            [tuple("-" if value is None else value for value in row)
             for row in table.rows()],
            title=f"results ({len(table)} rows)",
        ))
    for figure in (figures or []):
        sections.append(format_table(
            figure["headers"], figure["rows"], title=figure["title"],
        ))
    for section in (extra_sections or []):
        sections.append(format_table(
            section["headers"], section["rows"],
            title=section["title"],
        ))
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# HTML rendering (single file, inline CSS, no external assets)
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #c5c5d5; padding: 0.25rem 0.6rem;
         font-size: 0.85rem; text-align: left; }
th { background: #eaeaf2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { background: linear-gradient(to right, #4a6fa5 var(--w),
       transparent var(--w)); }
.note { color: #555; font-size: 0.85rem; }
"""


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def _html_table(headers, rows, table_id: str = None,
                bar_column: int = None) -> str:
    """One ``<table>``; ``bar_column`` adds an inline-CSS bar scaled to
    the column's maximum (the chart rendering — no script, no assets)."""
    peak = 0.0
    if bar_column is not None:
        for row in rows:
            value = row[bar_column] if bar_column < len(row) else None
            if _numeric(value):
                peak = max(peak, abs(float(value)))
    parts = ["<table" + (f' id="{table_id}"' if table_id else "") + ">"]
    parts.append(
        "<tr>" + "".join(f"<th>{html.escape(str(h))}</th>"
                         for h in headers) + "</tr>"
    )
    for row in rows:
        cells = []
        for position, value in enumerate(row):
            text = html.escape(_format_value(value))
            classes = ["num"] if _numeric(value) else []
            style = ""
            if (bar_column is not None and position == bar_column
                    and _numeric(value) and peak):
                classes.append("bar")
                width = 100.0 * abs(float(value)) / peak
                style = f' style="--w:{width:.1f}%"'
            attrs = (f' class="{" ".join(classes)}"'
                     if classes else "") + style
            cells.append(f"<td{attrs}>{text}</td>")
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</table>")
    return "\n".join(parts)


def render_html(table: ExperimentTable, manifest: RunManifest = None,
                figures: list = None, extra_sections: list = None,
                title: str = "repro report") -> str:
    """The full report as one self-contained HTML document."""
    body = [f"<h1>{html.escape(title)}</h1>"]
    body.append("<h2>Run manifest</h2>")
    if manifest is not None:
        body.append(_html_table(
            ["field", "value"], _manifest_summary_rows(manifest),
            table_id="manifest",
        ))
    else:
        body.append('<p class="note">no manifest found next to the '
                    "table</p>")
    if table is not None:
        body.append(f"<h2>Results ({len(table)} rows)</h2>")
        body.append(_html_table(
            list(RESULT_COLUMNS),
            [tuple("-" if value is None else value
                   for value in row) for row in table.rows()],
            table_id="results",
        ))
    for figure in (figures or []):
        body.append(f"<h2>{html.escape(figure['title'])}</h2>")
        bar_column = len(figure["headers"]) - 1 \
            if figure["id"] in ("fig9", "fig10", "fig-phases") else None
        body.append(_html_table(figure["headers"], figure["rows"],
                                table_id=figure["id"],
                                bar_column=bar_column))
    for section in (extra_sections or []):
        body.append(f"<h2>{html.escape(section['title'])}</h2>")
        body.append(_html_table(section["headers"], section["rows"],
                                table_id=section.get("id")))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


# ---------------------------------------------------------------------------
# the high-level entry the CLI calls
# ---------------------------------------------------------------------------


def build_report(results_path, manifest_path=None, diff_path=None,
                 as_html: bool = False, baseline: str = None) -> str:
    """Assemble a full report (or diff report) as text or HTML.

    Args:
        results_path: The run's ``.json`` result sink.
        manifest_path: Explicit manifest override (default: the
            ``results.manifest.json`` convention, optional).
        diff_path: A second result sink; switches to diff mode.
        as_html: Emit the single-file HTML artifact instead of text.
        baseline: Simulator name for fig9 speedups (default: a
            dense-family simulator, else the table's first).
    """
    table = load_table(results_path)
    manifest = load_manifest_for(results_path,
                                 manifest_path=manifest_path)
    name = Path(results_path).name
    if diff_path is not None:
        other = load_table(diff_path)
        other_manifest = load_manifest_for(diff_path)
        sections = [
            diff_manifests(manifest, other_manifest),
            diff_tables(table, other),
        ]
        title = f"repro diff: {name} vs {Path(diff_path).name}"
        if as_html:
            return render_html(None, manifest=None, figures=None,
                               extra_sections=sections, title=title)
        return render_text(None, manifest=None, figures=None,
                           extra_sections=sections)
    figures = build_figures(table, baseline=baseline)
    timeline = fig_phase_timeline(manifest)
    if timeline is not None:
        figures.append(timeline)
    if as_html:
        return render_html(table, manifest=manifest, figures=figures,
                           title=f"repro report: {name}")
    return render_text(table, manifest=manifest, figures=figures)
