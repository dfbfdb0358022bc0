"""Engine performance: naive vs cached sweeps, backends, batching, tracing.

Times the same scenarios x models x simulators grid several ways —

* **naive**: the pre-engine world — every (scenario, model, simulator)
  cell re-traces the model (rulegen included) before simulating, the
  way the benchmark files looped before the engine existed;
* **cold / cached / parallel**: fresh-cache serial run, warm-cache
  serial re-run, warm-cache ``parallel=True`` run through the runner's
  default backend (serial unless ``REPRO_ENGINE_BACKEND`` says
  otherwise);
* **trace split**: the cold sweep separated into its trace stage
  (rulegen, the hot path) and its simulate stage;
* **backends**: a cold multi-scenario sweep through each execution
  backend — serial, process — each from its own fresh cache;
* **batching**: one batched scenario carrying N seeded frames vs N
  single-frame scenarios — identical numbers, one rulegen pass.
  Variants alternate over two cold rounds and each run releases its
  heavyweight state (the trace cache) before the next is timed, so neither variant is measured under memory pressure
  the other escaped — the asymmetry behind the old 2.72 s vs 2.24 s
  "batching regression";
* **rulegen scaling**: legacy per-offset vs fused vs row-sharded rule
  generation on a nuScenes-scale frame (the trace-layer speedup at the
  heart of this engine's perf trajectory);
* **delta trace**: the same batched scenario traced with full rulegen
  per frame vs delta-traced sequential chains (unchanged layer inputs
  share the previous frame's rules, the rest rebuild) — bit-identical
  rules (asserted pairwise), cold rounds alternating like the batching
  sweep, ``speedup_delta_vs_full`` gated by ``check_regression.py``;
* **telemetry overhead**: the cold sweep with span tracing on vs off
  (alternating cold rounds, min per variant) — the full price of
  ``--trace-out``, capped at 5% by ``check_regression.py``;
* **disk cache**: only when ``REPRO_TRACE_CACHE_DIR`` is set — a cold
  run populating the persistent tier, then a second fresh-cache run
  that must serve every trace from disk (the CI bench-smoke job asserts
  this round trip);
* **dist**: the same grid through the distributed backend with two
  loopback workers — parity is asserted against the serial table and
  the coordinator/protocol overhead is recorded (on a 1-CPU runner
  dist ≈ serial + round trips; real wins need real machines).

and writes the timings as JSON so the perf trajectory of the engine is
tracked across PRs (``check_regression.py`` gates CI on it).

Run directly:  PYTHONPATH=src python benchmarks/bench_engine_runner.py
               (add --smoke for the tiny CI grid)
or via pytest: PYTHONPATH=src python -m pytest benchmarks/bench_engine_runner.py
"""

from __future__ import annotations

import gc
import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

# The naive sweep deliberately bypasses the engine: it reproduces the
# pre-engine re-trace-per-cell loop as the measured baseline.
from repro.analysis import trace_model
from repro.engine import (
    DistBackend,
    ExperimentRunner,
    ExperimentSpec,
    ExperimentTable,
    FrameProvider,
    Scenario,
    TraceCache,
    Worker,
)
from repro.engine.settings import CACHE_DIR_ENV_VAR
from repro.models import build_model_spec, grid_for
from repro.sparse import (
    ConvType,
    build_rules,
    build_rules_reference,
    build_rules_sharded,
)

SIMULATORS = ("spade-he", "spade-le", "dense-he", "pointacc-he")
MODELS = ("SPP1", "SPP2", "SPP3")
SCENARIOS = (Scenario("drive-0", seed=0), Scenario("drive-1", seed=1))

SMOKE_SIMULATORS = ("spade-he", "dense-he")
SMOKE_MODELS = ("SPP2", "SPP3")

BACKENDS = ("serial", "process")
DIST_WORKERS = 2
BATCH_FRAMES = 4
BATCH_ROUNDS = 2
SCALING_MODEL = "SCP1"          # nuScenes 512x512 grid
SCALING_SHARDS = 4
SCALING_REPEATS = 3
DELTA_ROUNDS = 3
DELTA_FRAMES = 8
TELEMETRY_ROUNDS = 3

RESULTS_PATH = Path(__file__).parent / "results" / "engine_runner_timings.json"


def _grid(smoke: bool) -> dict:
    return {
        "simulators": list(SMOKE_SIMULATORS if smoke else SIMULATORS),
        "models": list(SMOKE_MODELS if smoke else MODELS),
        "scenarios": list(SCENARIOS),
    }


def _build_runner(grid: dict, **kwargs) -> ExperimentRunner:
    # The trajectory sweeps are measured memory-only: a populated
    # REPRO_TRACE_CACHE_DIR must not turn "cold" runs into disk-warm
    # ones (the dedicated disk sweep measures that tier explicitly).
    kwargs.setdefault("cache", TraceCache(disk_dir=None))
    return ExperimentRunner(
        simulators=list(grid["simulators"]),
        models=list(grid["models"]),
        scenarios=list(grid["scenarios"]),
        **kwargs,
    )


def _naive_sweep(runner: ExperimentRunner) -> float:
    """Time the pre-engine loop: re-trace per cell, no cache, no pool.

    Frames are reused (frame generation was session-scoped before the
    engine too); the per-simulator re-tracing — rulegen, the hot path —
    is what the engine eliminates.
    """
    frames = {
        (scenario, name): runner.frame_provider.frame_for(scenario, name)
        for scenario in runner.scenarios for name in runner.models
    }
    start = time.perf_counter()
    for scenario in runner.scenarios:
        for name in runner.models:
            frame = frames[scenario, name]
            for simulator in runner.simulators:
                trace = trace_model(
                    build_model_spec(name),
                    frame.coords,
                    frame.point_counts.astype(float),
                )
                simulator.run(trace)
    return time.perf_counter() - start


def _timed_run(runner: ExperimentRunner, **kwargs) -> tuple:
    start = time.perf_counter()
    table = runner.run(**kwargs)
    return table, time.perf_counter() - start


def _release_run_state(runner: ExperimentRunner) -> None:
    """Drop a finished run's heavyweight state before the next timing.

    The trace cache retains every per-layer rule array; keeping it
    alive puts the *next* timed run under allocator pressure the
    previous one escaped.
    """
    runner.cache.clear()
    gc.collect()


def _trace_split(grid: dict) -> dict:
    """One cold sweep separated into trace and simulate stages."""
    runner = _build_runner(grid)
    jobs = [
        (group.scenario, group.model, frame)
        for group in runner.plan()
        for frame in range(group.scenario.frames)
    ]
    start = time.perf_counter()
    for job in jobs:
        runner.trace_for(*job)
    trace_s = time.perf_counter() - start
    table, simulate_s = _timed_run(runner, parallel=False)
    split = {
        "trace_s": trace_s,
        "simulate_s": simulate_s,
        "trace_fraction": trace_s / (trace_s + simulate_s),
    }
    _release_run_state(runner)
    return split


def _backend_sweeps(grid: dict) -> tuple:
    """Cold sweep per backend, each from a fresh cache; returns
    (timings dict, reference table) after asserting result parity."""
    timings = {}
    reference = None
    for backend in BACKENDS:
        runner = _build_runner(grid)
        table, elapsed = _timed_run(runner, backend=backend)
        timings[f"cold_{backend}_s"] = elapsed
        if reference is None:
            reference = table
        else:
            assert len(table) == len(reference)
            for left, right in zip(reference, table):
                assert left == right, f"{backend} backend changed the numbers"
        _release_run_state(runner)
    return timings, reference


def _batching_sweep(grid: dict) -> dict:
    """One batched scenario vs the same frames as single scenarios.

    The variants do identical work (same frames, same rulegen passes,
    same simulations), so they are measured fairly: cold each round,
    alternating order, heavyweight state released between timings, and
    the per-variant minimum over the rounds reported.
    """
    simulators = grid["simulators"]
    models = grid["models"]

    def build_single() -> ExperimentRunner:
        return ExperimentRunner(
            simulators=list(simulators), models=list(models),
            scenarios=[Scenario(f"frame-{index}", seed=index)
                       for index in range(BATCH_FRAMES)],
            cache=TraceCache(disk_dir=None),
        )

    def build_batched() -> ExperimentRunner:
        return ExperimentRunner(
            simulators=list(simulators), models=list(models),
            scenarios=[Scenario("batch", seed=0, frames=BATCH_FRAMES)],
            cache=TraceCache(disk_dir=None),
        )

    times = {"single": [], "batched": []}
    tables = {}
    for _ in range(BATCH_ROUNDS):
        for label, build in (("single", build_single),
                             ("batched", build_batched)):
            runner = build()
            table, elapsed = _timed_run(runner, parallel=False)
            times[label].append(elapsed)
            _release_run_state(runner)
            tables[label] = table

    single_table, batched_table = tables["single"], tables["batched"]
    for model in models:
        for index in range(BATCH_FRAMES):
            for simulator_name in single_table.simulators:
                left = single_table.get(scenario=f"frame-{index}",
                                        model=model,
                                        simulator=simulator_name)
                right = batched_table.get(scenario="batch", model=model,
                                          simulator=simulator_name,
                                          frame=index)
                assert left.cycles == right.cycles, (
                    "batched frames diverged from single-frame runs"
                )
    single_s = min(times["single"])
    batched_s = min(times["batched"])
    return {
        "frames": BATCH_FRAMES,
        "rounds": BATCH_ROUNDS,
        "unbatched_serial_s": single_s,
        "batched_serial_s": batched_s,
        "batched_vs_unbatched": batched_s / single_s,
    }


def _delta_trace_sweep(grid: dict) -> dict:
    """Full per-frame rulegen vs delta-traced sequential chains.

    What is measured: delta-traced chains must cost no more than full
    ones (``build_rules_delta`` shares a layer's previous rules when its
    input is unchanged and rebuilds otherwise, so the ratio sits near
    1).  Same measurement protocol as the batching sweep: both variants
    trace the identical batched scenario cold, alternate over the
    rounds, and report their per-variant minimum.  The chains from the
    last round are compared pair by pair — the delta path's contract is
    bit-identical rules, so any divergence fails the benchmark, not
    just the gate.
    """
    models = grid["models"]
    # Longer than the batching sweep's scenario: frame 0 is a full build
    # for both variants, so the steady-state delta rate only shows once
    # the sequence amortises it (real LiDAR sequences run hundreds of
    # frames).
    scenario = Scenario("delta", seed=0, frames=DELTA_FRAMES)
    # Frames are pre-built outside the timed region: scene synthesis is
    # byte-identical for both variants and would only dilute the traced
    # rulegen ratio under measurement noise.
    provider = FrameProvider()
    for model in models:
        for frame in range(DELTA_FRAMES):
            provider.frame_for(scenario, model, frame)

    def traced_chains(delta: bool) -> tuple:
        runner = ExperimentRunner(
            simulators=list(grid["simulators"]), models=list(models),
            scenarios=[scenario], cache=TraceCache(disk_dir=None),
            frame_provider=provider, delta_trace=delta,
        )
        start = time.perf_counter()
        chains = [runner.trace_chain(scenario, model)
                  for model in models]
        elapsed = time.perf_counter() - start
        runner.cache.clear()
        gc.collect()
        return chains, elapsed

    times = {"full": [], "delta": []}
    kept = {}
    for _ in range(DELTA_ROUNDS):
        for label, delta in (("full", False), ("delta", True)):
            kept[label], elapsed = traced_chains(delta)
            times[label].append(elapsed)
    for full_chain, delta_chain in zip(kept["full"], kept["delta"]):
        for full_trace, patched in zip(full_chain, delta_chain):
            for left, right in zip(full_trace.layers, patched.layers):
                if left.rules is None:
                    assert right.rules is None
                    continue
                for lp, rp in zip(left.rules.pairs, right.rules.pairs):
                    assert (lp.in_idx == rp.in_idx).all(), (
                        "delta trace diverged from full rulegen"
                    )
                    assert (lp.out_idx == rp.out_idx).all(), (
                        "delta trace diverged from full rulegen"
                    )
    full_s = min(times["full"])
    delta_s = min(times["delta"])
    return {
        "frames": DELTA_FRAMES,
        "rounds": DELTA_ROUNDS,
        "full_trace_s": full_s,
        "delta_trace_s": delta_s,
        "speedup_delta_vs_full": full_s / delta_s,
    }


def _rulegen_scaling() -> dict:
    """Legacy vs fused vs sharded rulegen on a nuScenes-scale frame."""
    provider = FrameProvider()
    frame = provider.frame_for(Scenario("scaling", seed=0), SCALING_MODEL)
    shape = grid_for(SCALING_MODEL).shape
    coords = frame.coords

    variants = {
        "legacy": lambda conv: build_rules_reference(coords, shape, conv),
        "fused": lambda conv: build_rules(coords, shape, conv),
        "sharded": lambda conv: build_rules_sharded(
            coords, shape, conv, shards=SCALING_SHARDS
        ),
    }
    conv_types = (ConvType.SUBM, ConvType.SPCONV)
    timings = {}
    for name, builder in variants.items():
        best = float("inf")
        for _ in range(SCALING_REPEATS):
            start = time.perf_counter()
            for conv in conv_types:
                builder(conv)
            best = min(best, time.perf_counter() - start)
        timings[f"{name}_s"] = best
    return {
        "model": SCALING_MODEL,
        "grid": list(shape),
        "pillars": int(len(coords)),
        "conv_types": [conv.value for conv in conv_types],
        "shards": SCALING_SHARDS,
        **timings,
        "speedup_fused_vs_legacy": timings["legacy_s"] / timings["fused_s"],
        "speedup_sharded_vs_legacy": (
            timings["legacy_s"] / timings["sharded_s"]
        ),
    }


def _disk_cache_sweep(grid: dict) -> dict:
    """Persistent-tier round trip (only when the cache dir is set).

    A cold run populates the on-disk tier; a second run with a fresh
    in-memory cache must then serve every unique trace from disk.
    """
    if not os.environ.get(CACHE_DIR_ENV_VAR):
        return None
    cold = _build_runner(grid, cache=TraceCache())
    cold_table, cold_s = _timed_run(cold, parallel=False)
    cold_stats = cold.cache.stats()
    _release_run_state(cold)

    warm = _build_runner(grid, cache=TraceCache())
    warm_table, warm_s = _timed_run(warm, parallel=False)
    warm_stats = warm.cache.stats()
    _release_run_state(warm)
    return {
        "dir": os.environ[CACHE_DIR_ENV_VAR],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_misses": cold_stats["misses"],
        "cold_disk_hits": cold_stats["disk_hits"],
        "warm_misses": warm_stats["misses"],
        "warm_disk_hits": warm_stats["disk_hits"],
    }


def _telemetry_overhead_sweep(grid: dict) -> dict:
    """The cold serial sweep with span tracing on vs off.

    Same measurement protocol as the batching sweep: variants alternate
    over the cold rounds, heavyweight state is released between
    timings, and each variant's minimum is reported.  The traced
    variant runs under an active :class:`SpanTracer` — every span
    site in trace/simulate/serialize/cache is live — so
    ``overhead_fraction`` is the full price of ``--trace-out``;
    ``check_regression.py`` caps it at 5%.
    """
    from repro.engine import telemetry

    times = {"off": [], "on": []}
    spans = 0
    for _ in range(TELEMETRY_ROUNDS):
        for label in ("off", "on"):
            runner = _build_runner(grid)
            tracer = (telemetry.SpanTracer(process="bench")
                      if label == "on" else None)
            with telemetry.tracing(tracer):
                table, elapsed = _timed_run(runner, parallel=False)
                table.to_csv()
            times[label].append(elapsed)
            if tracer is not None:
                spans = sum(tracer.counts().values())
            _release_run_state(runner)
    off_s = min(times["off"])
    on_s = min(times["on"])
    return {
        "rounds": TELEMETRY_ROUNDS,
        "spans_per_run": spans,
        "untraced_s": off_s,
        "traced_s": on_s,
        "overhead_fraction": on_s / off_s - 1.0,
    }


def _dist_sweep(grid: dict) -> dict:
    """The grid through the dist backend: 2 loopback workers, parity
    asserted against the serial table (in its JSON wire projection)."""
    spec = ExperimentSpec(
        name="bench-dist",
        simulators=list(grid["simulators"]),
        models=list(grid["models"]),
        scenarios=list(grid["scenarios"]),
    )
    serial_runner = spec.build_runner(cache=TraceCache(disk_dir=None))
    serial_table, serial_s = _timed_run(serial_runner, backend="serial")

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    for index in range(DIST_WORKERS):
        threading.Thread(
            target=Worker(("127.0.0.1", port),
                          worker_id=f"bench-{index}",
                          retry_seconds=60).run,
            daemon=True,
        ).start()
    dist_runner = spec.build_runner(cache=TraceCache(disk_dir=None))
    backend = DistBackend(port=port, start_timeout=60)
    dist_table, dist_s = _timed_run(dist_runner, backend=backend)

    expected = ExperimentTable.from_json(serial_table.to_json())
    assert len(dist_table) == len(expected)
    for left, right in zip(expected, dist_table):
        assert left == right, "dist backend changed the numbers"
    units = backend.last_coordinator.stats["units"]
    _release_run_state(serial_runner)
    _release_run_state(dist_runner)
    return {
        "workers": DIST_WORKERS,
        "units": units,
        "serial_s": serial_s,
        "dist_s": dist_s,
        "dist_vs_serial": dist_s / serial_s,
    }


def run_sweeps(smoke: bool = False) -> dict:
    """Execute every sweep and return the timing record."""
    grid = _grid(smoke)
    runner = _build_runner(grid)
    naive_s = _naive_sweep(runner)

    cold, cold_s = _timed_run(runner, parallel=False)
    cached, cached_s = _timed_run(runner, parallel=False)
    parallel, parallel_s = _timed_run(runner, parallel=True)

    assert len(cold) == len(cached) == len(parallel)
    for left, right in zip(cold, cached):
        assert left == right, "cached sweep changed the numbers"
    for left, right in zip(cold, parallel):
        assert left == right, "parallel sweep changed the numbers"
    trace_cache_stats = runner.cache.stats()
    # (scenario, model) label keys -> "scenario/model" for the JSON file.
    trace_cache_stats["by_label"] = {
        f"{scenario}/{model}": count
        for (scenario, model), count
        in sorted(trace_cache_stats["by_label"].items())
    }
    max_workers = runner.max_workers
    _release_run_state(runner)

    trace_split = _trace_split(grid)
    backend_timings, _ = _backend_sweeps(grid)
    batch_timings = _batching_sweep(grid)
    delta_timings = _delta_trace_sweep(grid)
    scaling = _rulegen_scaling()
    telemetry_overhead = _telemetry_overhead_sweep(grid)
    disk_cache = _disk_cache_sweep(grid)
    dist = _dist_sweep(grid)

    record = {
        "grid": {
            "scenarios": [scenario.name for scenario in grid["scenarios"]],
            "models": grid["models"],
            "simulators": grid["simulators"],
            "cells": len(cold),
            "smoke": smoke,
        },
        "naive_serial_s": naive_s,
        "cold_serial_s": cold_s,
        "cached_serial_s": cached_s,
        "cached_parallel_s": parallel_s,
        "speedup_cold_vs_naive": naive_s / cold_s,
        "speedup_cached_vs_naive": naive_s / cached_s,
        "speedup_parallel_vs_naive": naive_s / parallel_s,
        "speedup_batched_vs_unbatched": (
            batch_timings["unbatched_serial_s"]
            / batch_timings["batched_serial_s"]
        ),
        "speedup_fused_vs_legacy": scaling["speedup_fused_vs_legacy"],
        "speedup_delta_vs_full": delta_timings["speedup_delta_vs_full"],
        "trace_split": trace_split,
        "backends": backend_timings,
        "batching": batch_timings,
        "delta_trace": delta_timings,
        "rulegen_scaling": scaling,
        "telemetry_overhead": telemetry_overhead,
        "dist": dist,
        "trace_cache": trace_cache_stats,
        "max_workers": max_workers,
        "cpus": os.cpu_count(),
    }
    if disk_cache is not None:
        record["disk_cache"] = disk_cache
    return record


def write_timings(timings: dict, path: Path = RESULTS_PATH) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(timings, indent=2) + "\n")
    return path


def check_sweeps(timings: dict) -> None:
    """The acceptance properties of the engine's perf trajectory."""
    # The cached (and cached+parallel) sweep must be measurably faster
    # than the naive pre-engine loop that re-runs rulegen per simulator.
    assert timings["cached_serial_s"] < timings["naive_serial_s"]
    assert timings["cached_parallel_s"] < timings["naive_serial_s"]
    assert timings["cold_serial_s"] < timings["naive_serial_s"]
    # Rulegen ran once per (scenario, model), not once per simulator.
    grid = timings["grid"]
    assert timings["trace_cache"]["misses"] == (
        len(grid["scenarios"]) * len(grid["models"])
    )
    # The split stages must both have been measured; their *ratios* are
    # protected by check_regression.py's 30%-threshold gate rather than
    # a zero-slack hard assert that would fail on runner noise (or on a
    # legitimate further rulegen speedup flipping the trace fraction).
    split = timings["trace_split"]
    assert split["trace_s"] > 0 and split["simulate_s"] > 0
    # Batched frames do identical work to the same frames as scenarios:
    # a large gap means the batched path itself regressed (the precise
    # ratio is gated against the baseline by check_regression.py).
    batching = timings["batching"]
    assert (batching["batched_serial_s"]
            < 1.25 * batching["unbatched_serial_s"])
    # Fused rulegen must beat the legacy per-offset loop at scale.
    assert timings["speedup_fused_vs_legacy"] > 1.0
    # Delta-traced chains must cost no more than full per-frame
    # rulegen (their bit-identical parity is asserted inside the sweep
    # itself).  The two do nearly the same work, so the hard assert
    # carries a noise floor; the committed baseline's ratio is gated by
    # check_regression.py.
    assert timings["speedup_delta_vs_full"] > 0.9
    # The process pool must beat the serial backend on the cold sweep
    # whenever there is real parallel hardware to use.
    if (timings["cpus"] or 1) > 1:
        backends = timings["backends"]
        assert backends["cold_process_s"] < backends["cold_serial_s"]
    # Tracing must have been measured with live spans; the <5% overhead
    # cap itself is enforced by check_regression.py against the fresh
    # measurement (a hard cap, not a baseline ratio).
    overhead = timings["telemetry_overhead"]
    assert overhead["spans_per_run"] > 0
    assert overhead["untraced_s"] > 0 and overhead["traced_s"] > 0
    # The distributed backend covered the whole plan (parity with the
    # serial table is asserted inside the sweep itself).
    dist = timings["dist"]
    assert dist["units"] == len(grid["scenarios"]) * len(grid["models"])
    # With a persistent tier configured, the second run must serve every
    # unique trace from disk — the round trip the CI bench job asserts.
    disk = timings.get("disk_cache")
    if disk is not None:
        expected = len(grid["scenarios"]) * len(grid["models"])
        assert disk["warm_misses"] == 0, "second run re-traced"
        assert disk["warm_disk_hits"] == expected
        assert disk["cold_misses"] + disk["cold_disk_hits"] == expected


def test_engine_runner_perf(benchmark, smoke):
    timings = benchmark.pedantic(run_sweeps, args=(smoke,), rounds=1,
                                 iterations=1)
    write_timings(timings)
    print()
    print(json.dumps(timings, indent=2))
    check_sweeps(timings)


def main():
    smoke = "--smoke" in sys.argv[1:]
    timings = run_sweeps(smoke)
    path = write_timings(timings)
    print(json.dumps(timings, indent=2))
    check_sweeps(timings)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
