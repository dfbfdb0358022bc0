"""The price of span tracing: a cold serial grid sweep traced vs untraced.

Each side of a pair is one cold serial sweep of the bench grid (two
drives x SPP1-3 x four simulators; ``--smoke`` thins it to two models
and two simulators) plus the CSV export, from a fresh memory-only
trace cache.  The traced side runs under an active :class:`SpanTracer`,
so every span site in trace/simulate/serialize/cache is live; the
untraced side runs with no tracer.  Pairs alternate which side goes
first, and the cap is held on the median of the per-pair overhead
``traced / untraced - 1``: single sweeps on a shared machine spread by
several percent, which one ratio (or a min of three) cannot resolve
against a 5% cap.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py -s
      (add --smoke for the small grid)
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.engine import ExperimentRunner, Scenario, TraceCache, telemetry

SIMULATORS = ("spade-he", "spade-le", "dense-he", "pointacc-he")
MODELS = ("SPP1", "SPP2", "SPP3")
SMOKE_SIMULATORS = ("spade-he", "dense-he")
SMOKE_MODELS = ("SPP2", "SPP3")
SCENARIOS = (Scenario("drive-0", seed=0), Scenario("drive-1", seed=1))

#: Traced/untraced pairs per measurement (the median needs >= 10).
PAIRS = 21

#: Cap on the median per-pair overhead of enabled tracing.
OVERHEAD_CAP = 0.05


def _sweep(smoke: bool, traced: bool) -> tuple:
    """One cold serial sweep plus CSV export; (seconds, spans)."""
    runner = ExperimentRunner(
        simulators=list(SMOKE_SIMULATORS if smoke else SIMULATORS),
        models=list(SMOKE_MODELS if smoke else MODELS),
        scenarios=list(SCENARIOS),
        cache=TraceCache(disk_dir=None),
    )
    tracer = telemetry.SpanTracer(process="bench") if traced else None
    gc.collect()
    start = time.perf_counter()
    with telemetry.tracing(tracer):
        runner.run(backend="serial").to_csv()
    elapsed = time.perf_counter() - start
    spans = sum(tracer.counts().values()) if traced else 0
    return elapsed, spans


def measure(smoke: bool, pairs: int = PAIRS) -> dict:
    """Time ``pairs`` alternating traced/untraced sweeps."""
    _sweep(smoke, traced=False)  # warm imports and module caches
    off, on, spans = [], [], []
    for index in range(pairs):
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order:
            elapsed, count = _sweep(smoke, traced)
            if traced:
                on.append(elapsed)
                spans.append(count)
            else:
                off.append(elapsed)
    overheads = [traced / untraced - 1.0 for traced, untraced in zip(on, off)]
    low, _, high = statistics.quantiles(overheads, n=4)
    return {
        "pairs": pairs,
        "spans": min(spans),
        "untraced_s": statistics.median(off),
        "traced_s": statistics.median(on),
        "overhead": statistics.median(overheads),
        "overhead_iqr": (low, high),
    }


def test_telemetry_overhead(benchmark, smoke):
    result = benchmark.pedantic(measure, args=(smoke,), rounds=1, iterations=1)
    low, high = result["overhead_iqr"]
    print()
    print(
        f"telemetry overhead over {result['pairs']} pairs: "
        f"untraced median {result['untraced_s']:.3f} s, "
        f"traced median {result['traced_s']:.3f} s, "
        f"overhead median {result['overhead']:+.2%} "
        f"(IQR {low:+.2%} .. {high:+.2%}), "
        f"{result['spans']} spans per traced sweep"
    )
    assert result["spans"] > 0
    assert result["overhead"] <= OVERHEAD_CAP
