"""Benchmark of the SPADE reproduction: closed-loop engine sweeps.

Run from the repository root::

    python3 spadebench/run.py --workload kitti-grid --seed 0 \
        --seconds 25 --trace 0

One client in one process runs the workload's sweep back to back for
``--seconds`` seconds of host time, after set-up and one untimed warm-up
sweep.  The seed picks the workload's input (see ``workloads.py``).
Every result row of every sweep is checked against committed golden
data in ``spadebench/golden/``: the full rows on the default seed,
per-cell digests of the rows on the others.

Timed metrics are host seconds scaled to the reference machine's speed
by a calibration kernel timed around each interval (see
:class:`Kernel`); the raw host seconds are in the record line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sweeps and prints per-layer metrics, per sweep and
in raw host seconds, from the traced ones (see ``layers.py``).  The last
stdout line is the result JSON; the line before it is a
``{"record": ...}`` JSON line with the machine, versions, sweep counts,
the tail percentile used, a digest of the rows and Table I GOPs.

``--write-golden`` records a workload's golden data instead of
measuring; use it only on a commit whose results are known good.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from layers import LayerProbe, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
WORK_ROOT = ROOT / ".spadebench-work"

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Timed sweeps per run at least, however long they take.
MIN_SWEEPS = 3
#: Candidates for ``sweep_s.tail``: the highest with at least
#: ``TAIL_BEYOND`` sweeps beyond it is reported.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
#: Median :class:`Kernel` time on the reference machine (2-CPU Intel
#: Xeon, Python 3.11.7, numpy 2.4.6) when nothing else ran on it.
KERNEL_REF_S = 0.0135
#: Kernel calls at least, and share of the interval they bracket.
KERNEL_CALLS = 3
KERNEL_SHARE = 0.03

FIDELITY = (
    "The cycle model is unvalidated against hardware: the repository "
    "holds no measured-silicon reference, so simulated cycles, energy "
    "and speed-ups carry no error figure.  Results are checked only "
    "against golden rows recorded from this code."
)

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s.p50", "s"),
    ("sweep_s.tail", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "fraction"),
)

#: Per-layer metrics, each per traced sweep.  ``.s`` is self time.
PER_LAYER = (
    ("frame-synth.s", "s"), ("frame-synth.calls", "count"),
    ("frame-synth.points", "count"),
    ("voxelize.s", "s"), ("voxelize.calls", "count"),
    ("voxelize.pillars", "count"), ("voxelize.bytes", "bytes"),
    ("rulegen.s", "s"), ("rulegen.calls", "count"),
    ("rulegen.pairs", "count"),
    ("rulegen-delta.s", "s"), ("rulegen-delta.calls", "count"),
    ("trace.s", "s"), ("trace.calls", "count"),
    ("cache.s", "s"), ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.disk_hits", "count"), ("cache.disk_writes", "count"),
    ("cache.hit_ratio", "fraction"), ("cache.delta_share", "fraction"),
    ("plan-tiles.s", "s"), ("plan-tiles.calls", "count"),
    ("plan-tiles.tiles", "count"), ("plan-tiles.us_per_tile", "us"),
    ("schedule.s", "s"), ("schedule.calls", "count"),
    ("schedule-dense.s", "s"), ("schedule-dense.calls", "count"),
    ("pointacc.s", "s"), ("pointacc.calls", "count"),
    ("simulate.s", "s"), ("simulate.calls", "count"),
    ("export.s", "s"), ("export.bytes", "bytes"),
    ("manifest.s", "s"),
    ("other.s", "s"),
    ("backend.trace_s", "s"), ("backend.simulate_s", "s"),
    ("backend.unit_s", "s"), ("backend.pool_util", "fraction"),
    ("bench.sweep_s", "s"), ("bench.trace_overhead", "fraction"),
)


# -- checking rows ---------------------------------------------------------

def row_lines(table) -> list:
    """One canonical JSON line per result row: every column plus the
    per-layer detail and extras, so a trace that changes shows even
    where the CSV columns are empty (the ``stats`` simulator)."""
    return [json.dumps(record, sort_keys=True)
            for record in table.to_records()]


def cell_digests(lines: list) -> dict:
    """{"scenario|model|simulator": SHA-1 of the cell's row lines}."""
    cells = {}
    for line in lines:
        record = json.loads(line)
        key = "|".join(str(record[name])
                       for name in ("scenario", "model", "simulator"))
        cells.setdefault(key, []).append(json.dumps(record, sort_keys=True))
    return {key: hashlib.sha1("\n".join(rows).encode()).hexdigest()
            for key, rows in cells.items()}


def golden_files(workload, golden_dir: Path = GOLDEN_DIR) -> tuple:
    """(default-seed rows, per-input digests) paths of a workload."""
    stem = Path(golden_dir) / workload.golden
    return (stem.with_name(stem.name + ".jsonl"),
            stem.with_name(stem.name + ".digests.json"))


def expected_cells(workload, golden_dir: Path = GOLDEN_DIR) -> dict:
    """The committed cell digests for the workload's input: from the
    full rows on input 0 (the default seed), else from the digests."""
    rows, digests = golden_files(workload, golden_dir)
    if workload.index == 0:
        return cell_digests(rows.read_text().splitlines())
    return json.loads(digests.read_text())[str(workload.index)]


class Checker:
    """Counts attempted and failed cells over every sweep of a run.

    A cell fails when any of its rows differs from the golden rows, or
    when it is missing or unexpected; a sweep that raised fails all.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def check(self, table) -> None:
        """Check one sweep's table; ``None`` marks a sweep that raised."""
        if table is None:
            self.attempted += len(self.expected)
            self.failed += len(self.expected)
            return
        lines = row_lines(table)
        if self.digest is None:
            self.digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
        cells = cell_digests(lines)
        keys = set(self.expected) | set(cells)
        wrong = sorted(key for key in keys
                       if self.expected.get(key) != cells.get(key))
        if wrong and not self.failed:
            print(f"cells differing from golden: {wrong}", file=sys.stderr)
        self.attempted += len(keys)
        self.failed += len(wrong)


# -- host speed --------------------------------------------------------------

class Kernel:
    """A fixed piece of host work, timed around every timed interval.

    On a shared machine host speed drifts by up to 2x over seconds to
    minutes, and raw sweep times drift with it.  The kernel is timed
    just before and just after each sweep (and each set-up); dividing
    the interval by the mean of those two kernel times and multiplying
    by :data:`KERNEL_REF_S` reports it at the reference machine's speed.
    The kernel mixes the program's kinds of work — scalar
    ``searchsorted`` calls from a Python loop, as in tile planning, and
    sorts and uniques over point arrays, as in voxelize and rulegen —
    but runs no repository code, so no change to the program moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._keys = np.sort(rng.integers(0, 1 << 24, 4096))
        self._queries = rng.integers(0, 1 << 24, 800).tolist()
        self._ints = rng.integers(0, 1 << 20, 60_000)
        self._points = rng.random((30_000, 3))
        self.samples = []

    def _once(self) -> float:
        np = self._np
        started = time.perf_counter()
        for query in self._queries:
            int(np.searchsorted(self._keys, query))
        np.unique(self._ints)
        order = np.argsort(self._points[:, 0], kind="stable")
        cells = np.floor(self._points[order, :2] * 400).astype(np.int64)
        np.unique(cells[:, 0] * 400 + cells[:, 1], return_counts=True)
        return time.perf_counter() - started

    def measure(self, interval: float = 0.0) -> float:
        """Median kernel time over at least :data:`KERNEL_CALLS` calls
        and :data:`KERNEL_SHARE` of ``interval`` (the last one timed),
        so long sweeps get as dense a speed reading as short ones."""
        times = []
        spent = 0.0
        while len(times) < KERNEL_CALLS or spent < KERNEL_SHARE * interval:
            times.append(self._once())
            spent += times[-1]
        self.samples.extend(times)
        return statistics.median(times)


def normalized(intervals: list, speeds: list) -> list:
    """Each interval at the reference speed; ``speeds`` holds one more
    kernel reading than ``intervals``: the ones bracketing each."""
    return [seconds * 2 * KERNEL_REF_S / (before + after)
            for seconds, before, after
            in zip(intervals, speeds, speeds[1:])]


# -- statistics --------------------------------------------------------------

def tail_of(samples: list) -> tuple:
    """(percentile, value): the highest candidate percentile with at
    least :data:`TAIL_BEYOND` samples beyond it, else the median."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (100 - pct) / 100 >= TAIL_BEYOND:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return pct, cuts[pct - 1]
    return 50, statistics.median(samples)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MB (Linux reports KiB); with
    ``children`` the larger of this process and its largest child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def layer_metrics(parent: dict, workers: dict, traced: list,
                  untraced: list, observers: list, workload) -> dict:
    """Per-sweep per-layer values from the summed traced records.

    ``parent`` holds the records made in this process and ``workers``
    those spilled by pool workers.  ``other.s`` is the traced sweep time
    the parent's records do not cover; worker time runs beside the
    parent's and so is not subtracted.
    """
    sweeps = len(traced)
    merged = merge(merge({}, parent), workers)
    cache = merged.get("cache", {})
    found = cache.get("hits", 0) + cache.get("disk_hits", 0)
    lookups = found + cache.get("misses", 0)
    built = cache.get("delta_layers", 0) + cache.get("full_layers", 0)
    plan = merged.get("plan-tiles", {})
    mean_sweep = sum(traced) / sweeps
    values = {
        "cache.hit_ratio": found / lookups if lookups else 0.0,
        "cache.delta_share": (cache.get("delta_layers", 0) / built
                              if built else 0.0),
        "plan-tiles.us_per_tile": (plan["s"] / plan["tiles"] * 1e6
                                   if plan.get("tiles") else 0.0),
        "other.s": mean_sweep - sum(entry["s"]
                                    for entry in parent.values()) / sweeps,
        "bench.sweep_s": mean_sweep,
        "bench.trace_overhead": (statistics.median(traced)
                                 / statistics.median(untraced) - 1),
    }
    values.update(backend_metrics(observers, workload))
    for name, _ in PER_LAYER:
        if name not in values:
            layer, _, field = name.partition(".")
            values[name] = merged.get(layer, {}).get(field, 0) / sweeps
    return values


def backend_metrics(observers: list, workload) -> dict:
    """Pool-stage timings from the observers of untraced sweeps.

    Zero on serial workloads, whose backend has no trace or pool stage.
    """
    names = ("backend.trace_s", "backend.simulate_s", "backend.unit_s",
             "backend.pool_util")
    if workload.workers == 1 or not observers:
        return dict.fromkeys(names, 0.0)
    trace_s = simulate_s = unit_s = 0.0
    for observer in observers:
        phases = {}
        for phase in observer.phases:
            phases[phase["name"]] = (phases.get(phase["name"], 0.0)
                                     + phase["seconds"])
        trace_s += phases.get("trace", 0.0)
        simulate_s += phases.get("run", 0.0) - phases.get("trace", 0.0)
        unit_s += observer.unit_seconds()
    count = len(observers)
    return {
        "backend.trace_s": trace_s / count,
        "backend.simulate_s": simulate_s / count,
        "backend.unit_s": unit_s / count,
        "backend.pool_util": (unit_s / (workload.workers * simulate_s)
                              if simulate_s > 0 else 0.0),
    }


# -- environment -------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """SHA-1 over ``src/``'s Python files: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def table1_gops(workload) -> dict:
    """Measured GOPs of each model on the workload's first frame beside
    the paper's Table I value; for information only, never gated."""
    from repro.engine import TraceCache
    from repro.models.zoo import TABLE1_PAPER

    runner = workload.spec().build_runner(cache=TraceCache(disk_dir=None))
    scenario = runner.scenarios[0]
    return {
        model: {
            "measured": runner.trace_for(scenario, model).total_ops / 1e9,
            "paper": TABLE1_PAPER[model].avg_gops,
        }
        for model in runner.models
    }


def environment(workload) -> dict:
    import numpy

    from repro.engine.manifest import git_revision

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(ROOT),
        "src_sha1": source_digest(),
        "workload": workload.name,
        "seed": workload.seed,
        "input": workload.index,
        "fidelity": FIDELITY,
    }


# -- the run -----------------------------------------------------------------

def guarded_sweep(workload):
    """One sweep; ``(None, None)`` after printing the traceback when it
    raises, so the run goes on and the cells count as failed."""
    try:
        return workload.sweep()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, None


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              work_dir: Path, golden_dir: Path = GOLDEN_DIR,
              import_s: float = 0.0, min_sweeps: int = MIN_SWEEPS,
              setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Measure one workload; returns (result dict, record dict)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, Path(work_dir) / "sweep")
    checker = Checker(expected_cells(workload, golden_dir))
    kernel = Kernel()

    setups = []
    setup_speeds = [kernel.measure()]
    for _ in range(setup_repeats):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        setup_speeds.append(kernel.measure(setups[-1]))

    probe = None
    if trace:
        spill = Path(work_dir) / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        probe = LayerProbe(spill)

    # Warm-up: lazy imports, first-touch costs, allocator growth.
    started = time.perf_counter()
    checker.check(guarded_sweep(workload)[0])
    speeds = [kernel.measure(time.perf_counter() - started)]

    untraced, traced, observers = [], [], []
    parent_records, worker_records = {}, {}
    rows = 0
    began = time.perf_counter()
    while (time.perf_counter() - began < seconds
           or len(untraced) < min_sweeps):
        if probe is not None:
            probe.assert_pristine()
        started = time.perf_counter()
        table, observer = guarded_sweep(workload)
        untraced.append(time.perf_counter() - started)
        speeds.append(kernel.measure(untraced[-1]))
        checker.check(table)
        if table is not None:
            rows += len(table)
            observers.append(observer)
        if probe is None:
            continue
        probe.install()
        try:
            started = time.perf_counter()
            table, _ = guarded_sweep(workload)
            traced.append(time.perf_counter() - started)
        finally:
            probe.restore()
        probe.assert_pristine()
        checker.check(table)
        merge(parent_records, probe.take())
        merge(worker_records, probe.collect_spills())
    rss = peak_rss_mb(children=workload.workers > 1)

    sweeps = normalized(untraced, speeds)
    tail_pct, tail = tail_of(sweeps)
    if trace:
        values = layer_metrics(parent_records, worker_records, traced,
                               untraced, observers, workload)
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": (import_s * KERNEL_REF_S / setup_speeds[0]
                        + statistics.median(normalized(setups,
                                                       setup_speeds))),
            "sweep_s.p50": statistics.median(sweeps),
            "sweep_s.tail": tail,
            "cells_per_s": rows / sum(sweeps),
            "peak_rss_mb": rss,
            "pass_rate": 1 - checker.failed / max(1, checker.attempted),
        }
        units = dict(END_TO_END)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = environment(workload)
    record.update({
        "sweeps": len(untraced),
        "traced_sweeps": len(traced),
        "setup_repeats": setup_repeats,
        "import_s": import_s,
        "kernel_s": statistics.median(kernel.samples),
        "raw": {
            "setup_s": import_s + statistics.median(setups),
            "sweep_s.p50": statistics.median(untraced),
            "sweep_s.tail": tail_of(untraced)[1],
            "cells_per_s": rows / sum(untraced),
        },
        "sweep_s.tail_percentile": tail_pct,
        "error_rate": checker.failed / max(1, checker.attempted),
        "result_digest": checker.digest,
        "table1_gops": table1_gops(workload),
    })
    return result, record


def write_golden(name: str, work_dir: Path) -> list:
    """Record the golden data of ``name``: the rows of input 0 and the
    cell digests of every input.  Returns the paths written."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    rows_path, digests_path = golden_files(cls)
    rows_path.parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for index in range(cls.period):
        workload = cls(index, Path(work_dir) / str(index))
        workload.setup()
        table, _ = workload.sweep()
        lines = row_lines(table)
        digests[str(index)] = cell_digests(lines)
        if index == 0:
            rows_path.write_text("".join(line + "\n" for line in lines))
    digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")
    return [rows_path, digests_path]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # Engine knobs come from the environment; measure the defaults.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # Manifests ask git for the revision; keep it inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    work_dir = WORK_ROOT / str(os.getpid())
    (work_dir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work_dir / "tmp")
    try:
        started = time.perf_counter()
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        from workloads import WORKLOADS

        import_s = time.perf_counter() - started
        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose "
                  f"from {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        if args.write_golden:
            for path in write_golden(args.workload, work_dir / "golden"):
                print(path)
            return 0
        result, record = benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work_dir,
                                   import_s=import_s)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
