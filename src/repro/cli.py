"""``repro`` — the command-line front-end for the simulation engine.

Experiments are declarative :class:`~repro.engine.spec.ExperimentSpec`
JSON files; this module is the thin shell over the engine that runs
them and inspects what the engine offers:

* ``repro run spec.json [--backend process] [--out results.csv]``
  — load, validate and execute a spec, writing the resulting
  :class:`~repro.engine.ExperimentTable` as CSV/JSON (``--out -`` for
  stdout, no ``--out`` for a formatted text table); file sinks get a
  :class:`~repro.engine.manifest.RunManifest` written next to them
  (``results.manifest.json``), and the manifest path is echoed on
  stderr; ``--journal`` write-ahead-logs each completed work group and
  ``--resume`` restarts an interrupted journaled run, skipping the
  units already on disk (the stitched output is byte-identical to an
  uninterrupted run);
* ``repro journal inspect run.journal``
  — show a run journal's header, completed units, and any recovered
  torn tail;
* ``repro report results.json [--html] [--out PATH]``
  — render a run's table + manifest as text or a single-file HTML
  report (``--diff other.json`` compares two runs); see
  :mod:`repro.report`;
* ``repro list simulators|models|backends``
  — enumerate the simulator registry, the Table I zoo and the
  execution backends;
* ``repro list scenarios spec.json``
  — the scenario axis of one spec file;
* ``repro describe <name>`` — details on a simulator spec string, a
  Table I model, a backend, or a spec file;
* ``repro cache stats|clear``
  — inspect or empty the trace-artifact store
  (``REPRO_TRACE_CACHE_DIR`` or ``--cache-dir``) that runs share traces
  through.

Everything resolves through the same code paths the Python API uses —
the simulator registry, the backend names and the
:class:`~repro.engine.settings.EngineSettings` environment resolver —
so a spec run from the shell is bit-identical to the equivalent
hand-built :class:`~repro.engine.ExperimentRunner` (a tested parity
contract).  Simulator families registered at import time appear in
``repro list simulators`` automatically.

Exit codes: 0 success, 2 usage/validation error (bad spec, unknown
name), 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis.report import format_results, format_table
from .engine.manifest import (
    RunManifest,
    RunObserver,
    manifest_path_for,
)
from .engine.backends import BACKENDS
from .engine.registry import SIMULATORS
from .engine.simulators import build_simulator
from .engine.spec import KNOBS, ExperimentSpec
from .models.specs import build_model_spec
from .models.zoo import TABLE1_PAPER

_LIST_CATEGORIES = ("simulators", "backends", "models", "scenarios")


def _out(text: str = "") -> None:
    print(text)


def _status(text: str) -> None:
    """Progress/summary chatter — stderr, so ``--out -`` stays clean."""
    print(text, file=sys.stderr)


# ---------------------------------------------------------------------------
# repro run
# ---------------------------------------------------------------------------


def _infer_format(out: str, explicit: str) -> str:
    if explicit:
        return explicit
    suffix = Path(out).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise ValueError(
        f"cannot infer output format from {out!r}; use a .csv/.json "
        f"path or pass --format csv|json"
    )


def _check_writable_sink(out) -> None:
    """Reject an unusable output path with an actionable message.

    Run *before* the sweep (and again implicitly by the OSError wrap
    around the writes), so a mistyped ``--out`` directory fails in
    milliseconds instead of after minutes of simulation.
    """
    parent = Path(out).expanduser().resolve().parent
    if not parent.is_dir():
        raise ValueError(
            f"output directory {parent} does not exist; create it or "
            f"pick another --out path"
        )
    if not os.access(parent, os.W_OK):
        raise ValueError(
            f"output directory {parent} is not writable; fix its "
            f"permissions or pick another --out path"
        )


def _emit_table(table, out, fmt: str) -> None:
    if out is None:
        _out(format_results(table.results, title=f"{len(table)} rows"))
        return
    if out == "-":
        text = table.to_csv() if (fmt or "csv") == "csv" \
            else table.to_json()
        sys.stdout.write(text)
        return
    fmt = _infer_format(out, fmt)
    if fmt == "csv":
        table.to_csv(path=out)
    else:
        table.to_json(path=out)
    _status(f"wrote {len(table)} rows to {out} ({fmt})")


def _run_journal(args):
    """Resolve ``--journal``/``--resume`` into a RunJournal (or None).

    ``--journal`` insists on a fresh file (an existing non-empty one is
    almost always a forgotten ``--resume``); ``--resume`` is
    resume-or-create, so retry loops and CI can pass it unconditionally.
    """
    if args.journal is not None and args.resume is not None:
        raise ValueError(
            "pass --journal (fresh run) or --resume (continue one), "
            "not both"
        )
    if args.journal is not None:
        path = Path(args.journal)
        if path.exists() and path.stat().st_size > 0:
            raise ValueError(
                f"journal {args.journal!r} already exists; continue "
                f"that run with --resume {args.journal}, or remove the "
                f"file to start over"
            )
    target = args.resume if args.resume is not None else args.journal
    if target is None:
        return None
    from .engine.journal import RunJournal

    return RunJournal(target)


def _cmd_run(args) -> int:
    spec = ExperimentSpec.load(args.spec)
    overrides = {knob: getattr(args, knob) for knob in KNOBS
                 if getattr(args, knob) is not None}
    journal = _run_journal(args)
    # Fail on an unusable sink *before* the (possibly long) run, not
    # after the table is already computed.
    out = args.out if args.out is not None else spec.out
    to_file = out is not None and out != "-"
    if to_file:
        _infer_format(out, args.format)
        _check_writable_sink(out)
    runner = spec.build_runner(**overrides)
    backend = runner.backend
    backend_name = backend if isinstance(backend, str) else backend.name
    _status(
        f"{spec.name}: {len(runner.scenarios)} scenario(s) x "
        f"{len(runner.models)} model(s) x "
        f"{len(runner.simulators)} simulator(s) "
        f"on the {backend_name} backend"
    )
    observer = RunObserver() if to_file else None
    from .engine import telemetry
    from .engine.settings import TelemetrySettings

    # --trace-out implies tracing on; REPRO_ENGINE_TELEMETRY=1 alone
    # traces (manifest span counts) without writing an export file.
    tracer = (telemetry.SpanTracer(process="runner")
              if args.trace_out is not None
              or TelemetrySettings.resolve_one("enabled") else None)
    with telemetry.tracing(tracer):
        table = runner.run(progress=args.progress, observer=observer,
                           journal=journal)
        if journal is not None:
            done = journal.summary()
            _status(
                f"journal {done['path']}: resumed {done['resumed_units']} "
                f"unit(s), appended {done['appended_units']}"
            )
        try:
            _emit_table(table, out, args.format)
            if to_file:
                manifest = RunManifest.collect(runner, table,
                                               observer=observer,
                                               journal=journal)
                manifest_path = manifest.write(manifest_path_for(out))
                _status(f"wrote run manifest to {manifest_path}")
        except OSError as error:
            raise ValueError(
                f"cannot write results to {out!r}: {error}; pick a "
                f"writable --out path"
            ) from None
    if args.trace_out is not None:
        try:
            _status(f"wrote Chrome trace to {tracer.export(args.trace_out)}")
        except OSError as error:
            raise ValueError(
                f"cannot write trace to {args.trace_out!r}: {error}; "
                f"pick a writable --trace-out path"
            ) from None
    return 0


# ---------------------------------------------------------------------------
# repro report
# ---------------------------------------------------------------------------


def _report_out_path(out: str, results: str, as_html: bool) -> Path:
    """Resolve ``--out``: an existing directory (or a path spelled with
    a trailing separator) gets ``<results-stem>.report.html|txt``
    inside it; anything else is the report file itself."""
    path = Path(out)
    if path.is_dir() or out.endswith(os.sep):
        suffix = ".html" if as_html else ".txt"
        return path / (Path(results).stem + ".report" + suffix)
    return path


def _cmd_report(args) -> int:
    from .report import build_report

    text = build_report(
        args.results,
        manifest_path=args.manifest,
        diff_path=args.diff,
        as_html=args.html,
        baseline=args.baseline,
    )
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        return 0
    path = _report_out_path(args.out, args.results, args.html)
    try:
        path.write_text(text)
    except OSError as error:
        raise ValueError(
            f"cannot write report to {path}: {error}; pick a writable "
            f"--out path"
        ) from None
    _status(f"wrote report to {path}")
    return 0


# ---------------------------------------------------------------------------
# repro journal
# ---------------------------------------------------------------------------


def _cmd_journal(args) -> int:
    from .engine.journal import read_journal

    try:
        info = read_journal(args.path)
    except FileNotFoundError:
        raise ValueError(
            f"no journal at {args.path!r}; journals are written by "
            f"`repro run --journal/--resume`"
        ) from None
    header = info["header"]
    _out(f"run journal {args.path}")
    _out(f"  name        : {header.get('name')}")
    _out(f"  spec_hash   : {header.get('spec_hash')}")
    units = info["units"]
    _out(f"  completed   : {len(units)} unit(s)")
    if args.timings:
        # The seconds column totals to RunObserver.unit_seconds(): the
        # sum over the units the run manifest lists.
        _out(f"  {'unit':<24}  {'rows':>6}  {'seconds':>9}  worker")
        total = 0.0
        for record in units:
            seconds = float(record.get("seconds") or 0.0)
            total += seconds
            _out(f"  {record.get('unit'):<24}  "
                 f"{len(record.get('rows') or []):>6}  "
                 f"{seconds:>9.2f}  {record.get('worker') or '-'}")
        _out(f"  {'total':<24}  {'':>6}  {total:>9.2f}")
    else:
        for record in units:
            rows = record.get("rows") or []
            line = f"  {record.get('unit'):<24}: {len(rows)} row(s)"
            seconds = record.get("seconds")
            if seconds is not None:
                line += f", {seconds:.2f}s"
            worker = record.get("worker")
            if worker:
                line += f" on {worker}"
            _out(line)
    if info["dropped"]:
        _out(f"  dropped     : {info['dropped']} invalid line(s) "
             f"(skipped on resume)")
    if info["torn_bytes"]:
        _out(f"  torn tail   : {info['torn_bytes']} byte(s) of a "
             f"half-written record (truncated on resume)")
    return 0


# ---------------------------------------------------------------------------
# repro cache
# ---------------------------------------------------------------------------


def _format_bytes(count: int) -> str:
    value = float(count)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or suffix == "GiB":
            return (f"{count} B" if suffix == "B"
                    else f"{value:.1f} {suffix}")
        value /= 1024
    return f"{count} B"


def _cmd_cache(args) -> int:
    from .engine.cache import (
        clear_disk_tier,
        scan_disk_tier,
        shared_trace_cache,
    )
    from .engine.settings import EngineSettings

    cache_dir = (args.cache_dir if args.cache_dir is not None
                 else EngineSettings.resolve_one("cache_dir"))
    if args.action == "stats":
        memory = shared_trace_cache().stats()
        _out("memory tier (this process)")
        _out(f"  entries     : {memory['entries']}")
        _out(f"  hits/misses : {memory['hits']}/{memory['misses']}")
        _out(f"  disk hits   : {memory['disk_hits']} "
             f"(writes {memory['disk_writes']})")
        if memory.get("quarantined"):
            _out(f"  quarantined : {memory['quarantined']} corrupt "
                 f"artifact(s) sidelined")
        for (scenario, model), count in sorted(
                memory.get("by_label", {}).items()):
            _out(f"  {scenario}/{model:<12}: {count} entries")
        if cache_dir is None:
            _out("disk tier")
            _out("  disabled    : set REPRO_TRACE_CACHE_DIR or pass "
                 "--cache-dir")
            return 0
        disk = scan_disk_tier(cache_dir, detail=True)
        _out(f"disk tier ({disk['dir']})")
        _out(f"  artifacts   : {disk['entries']}")
        _out(f"  size        : {_format_bytes(disk['bytes'])}")
        if disk.get("quarantined"):
            _out(f"  quarantined : {disk['quarantined']} corrupt "
                 f"artifact(s) awaiting cleanup")
        for group in disk.get("models", []):
            _out(f"  {group['model']:<12}: {group['entries']} frame(s), "
                 f"{_format_bytes(group['bytes'])} "
                 f"[{group['fingerprint']}]")
        return 0
    # clear
    if cache_dir is None:
        raise ValueError(
            "no trace cache directory to clear: set "
            "REPRO_TRACE_CACHE_DIR or pass --cache-dir"
        )
    removed = clear_disk_tier(cache_dir)
    shared_trace_cache().clear()
    _status(
        f"removed {removed['entries']} trace artifact(s) "
        f"({_format_bytes(removed['bytes'])}) from {removed['dir']}"
    )
    return 0


# ---------------------------------------------------------------------------
# repro list
# ---------------------------------------------------------------------------


def _list_names(summaries: dict) -> None:
    for name, summary in sorted(summaries.items()):
        _out(f"{name:16} {summary}" if summary else name)


def _list_models() -> None:
    rows = [
        (row.model, row.backbone, row.head, row.avg_gops,
         row.sparsity_pct)
        for row in TABLE1_PAPER.values()
    ]
    _out(format_table(
        ["model", "backbone", "head", "paper GOPs", "paper savings %"],
        rows,
        title="Table I model zoo",
    ))


def _list_scenarios(spec_path) -> None:
    if spec_path is None:
        raise ValueError(
            "scenarios live in spec files; usage: "
            "repro list scenarios <spec.json>"
        )
    spec = ExperimentSpec.load(spec_path)
    rows = [(s.name, s.seed, s.frames) for s in spec.scenarios]
    _out(format_table(["scenario", "seed", "frames"], rows,
                      title=f"scenarios of {spec.name!r}"))


def _cmd_list(args) -> int:
    if args.category == "models":
        _list_models()
    elif args.category == "scenarios":
        _list_scenarios(args.spec)
    elif args.category == "simulators":
        _list_names({name: SIMULATORS.describe(name)
                     for name in SIMULATORS.names()})
    else:
        _list_names({name: _first_doc_line(backend)
                     for name, backend in BACKENDS.items()})
    return 0


# ---------------------------------------------------------------------------
# repro describe
# ---------------------------------------------------------------------------


def _first_doc_line(obj) -> str:
    doc = (getattr(obj, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else ""


def _describe_simulator(name: str) -> bool:
    try:
        simulator = build_simulator(name)
    except (ValueError, KeyError):
        return False
    _out(f"simulator spec {name!r}")
    _out(f"  resolves to : {type(simulator).__name__} "
         f"(name {simulator.name!r})")
    summary = _first_doc_line(type(simulator))
    if summary:
        _out(f"  about       : {summary}")
    family = name.strip().lower().partition(":")[0].split("-")[0]
    if family in SIMULATORS:
        _out(f"  family      : {family} — {SIMULATORS.describe(family)}")
    return True


def _describe_model(name: str) -> bool:
    if name not in TABLE1_PAPER:
        return False
    row = TABLE1_PAPER[name]
    spec = build_model_spec(name)
    _out(f"model {name!r} (Table I)")
    _out(f"  backbone    : {row.backbone}   head: {row.head}")
    _out(f"  paper       : {row.avg_gops} GOPs, "
         f"{row.sparsity_pct}% savings, "
         f"{row.accuracy} {row.accuracy_metric}")
    _out(f"  grid        : {spec.grid.name} {spec.grid.shape}")
    _out(f"  layers      : {len(spec.layers)}")
    return True


def _describe_backend(name: str) -> bool:
    backend = BACKENDS.get(name.strip().lower())
    if backend is None:
        return False
    _out(f"backend {name!r}")
    summary = _first_doc_line(backend)
    if summary:
        _out(f"  about       : {summary}")
    return True


def _describe_spec_file(name: str) -> bool:
    path = Path(name)
    if path.suffix.lower() != ".json" or not path.exists():
        return False
    spec = ExperimentSpec.load(path)
    settings = spec.settings()
    _out(f"experiment spec {spec.name!r} ({path})")
    _out(f"  simulators  : {[str(s) for s in spec.simulators]}")
    _out(f"  models      : {list(spec.models)}")
    _out(f"  scenarios   : "
         f"{[(s.name, s.seed, s.frames) for s in spec.scenarios]}")
    _out(f"  resolved    : backend={settings.backend} "
         f"workers={settings.workers} "
         f"rulegen_shards={settings.rulegen_shards} "
         f"delta_trace={settings.delta_trace}")
    _out(f"  cache_dir   : {settings.cache_dir}")
    if spec.cells:
        _out(f"  cells       : {spec.cells}")
    return True


def _cmd_describe(args) -> int:
    name = args.name
    for describe in (_describe_spec_file, _describe_model,
                     _describe_simulator, _describe_backend):
        if describe(name):
            return 0
    raise ValueError(
        f"nothing named {name!r}: not a simulator spec string "
        f"(families: {SIMULATORS.names()}), a Table I model "
        f"({sorted(TABLE1_PAPER)}), a backend ({sorted(BACKENDS)}), or a "
        f"spec file"
    )


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run and inspect declarative SPADE-engine "
                    "experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute an experiment spec JSON file"
    )
    run.add_argument("spec", help="path to an ExperimentSpec .json file")
    run.add_argument("--backend",
                     help="override the spec's execution backend")
    run.add_argument("--workers", help="parallel backend pool width")
    run.add_argument("--rulegen-shards", dest="rulegen_shards",
                     help="rulegen row bands")
    run.add_argument("--cache-dir", dest="cache_dir",
                     help="persistent trace-cache directory")
    run.add_argument("--delta-trace", dest="delta_trace",
                     help="trace sequential frames as delta chains "
                          "(1/0, default REPRO_ENGINE_DELTA_TRACE)")
    run.add_argument("--faults", dest="faults",
                     help="deterministic fault-injection plan for chaos "
                          "testing, e.g. 'kill_run:record=2' "
                          "(default REPRO_ENGINE_FAULTS)")
    run.add_argument("--journal", metavar="PATH",
                     help="write-ahead-log each completed work group "
                          "here; the file must not already hold a run "
                          "(continue one with --resume)")
    run.add_argument("--resume", metavar="PATH",
                     help="resume (or start) a journaled run: units "
                          "already in PATH are skipped and their rows "
                          "stitched into the output byte-identically")
    run.add_argument("--out",
                     help="result sink: a .csv/.json path, or '-' for "
                          "stdout (default: the spec's `out`, else a "
                          "formatted table)")
    run.add_argument("--format", choices=("csv", "json"),
                     help="output format for --out (inferred from the "
                          "file suffix when omitted; '-' defaults to "
                          "csv)")
    run.add_argument("--trace-out", dest="trace_out", metavar="PATH",
                     help="trace the run and write a Chrome trace-event "
                          "JSON timeline here (open it in Perfetto); "
                          "implies REPRO_ENGINE_TELEMETRY=1")
    run.add_argument("--progress", action="store_true",
                     help="print per-group completion (done/total, "
                          "elapsed) to stderr while the sweep runs")
    run.set_defaults(func=_cmd_run)

    report = commands.add_parser(
        "report",
        help="render a run's results + manifest as text or a "
             "single-file HTML report",
    )
    report.add_argument("results",
                        help="a `repro run --out` .json result file")
    report.add_argument("--html", action="store_true",
                        help="emit a self-contained HTML report "
                             "instead of text")
    report.add_argument("--out",
                        help="write the report here: a file path, or "
                             "an existing directory (gets "
                             "<results>.report.html/.txt); default "
                             "stdout")
    report.add_argument("--manifest",
                        help="explicit run-manifest path (default: "
                             "the results.manifest.json next to the "
                             "table, when present)")
    report.add_argument("--diff", metavar="OTHER",
                        help="compare against a second result .json: "
                             "metric deltas joined on (scenario, "
                             "frame, model, simulator) plus a "
                             "manifest-field diff")
    report.add_argument("--baseline",
                        help="simulator the fig9 speedups are "
                             "relative to (default: a dense-family "
                             "simulator, else the table's first)")
    report.set_defaults(func=_cmd_report)

    journal = commands.add_parser(
        "journal",
        help="inspect a run journal written by `repro run "
             "--journal/--resume`",
    )
    journal.add_argument("action", choices=("inspect",))
    journal.add_argument("path", help="journal file to inspect")
    journal.add_argument("--timings", action="store_true",
                         help="per-unit rows/seconds/worker columns "
                              "plus a total-seconds row")
    journal.set_defaults(func=_cmd_journal)

    cache = commands.add_parser(
        "cache",
        help="inspect or clear the shared trace-artifact store",
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", dest="cache_dir",
                       help="disk-tier directory (default: "
                            "REPRO_TRACE_CACHE_DIR)")
    cache.set_defaults(func=_cmd_cache)

    lister = commands.add_parser(
        "list", help="enumerate registered names"
    )
    lister.add_argument("category", choices=_LIST_CATEGORIES)
    lister.add_argument("spec", nargs="?",
                        help="spec file (required for 'scenarios')")
    lister.set_defaults(func=_cmd_list)

    describe = commands.add_parser(
        "describe",
        help="details on a simulator / model / backend / spec file",
    )
    describe.add_argument("name")
    describe.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
