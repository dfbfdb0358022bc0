"""CI perf-regression gate for the engine's timing trajectory.

Compares a freshly-measured ``engine_runner_timings.json`` against the
committed baseline and fails (exit 1) when any gated speedup regresses
by more than the threshold: the cached/parallel sweep speedups, the
batched-vs-unbatched serial ratio (frame batching must never again be
slower than the equivalent single-frame scenarios), the fused-vs-
legacy rulegen speedup (the trace-layer hot path), and the delta-vs-
full trace speedup (delta-traced sequential chains must cost no more
than full per-frame traces).  The ``telemetry_overhead`` section is
additionally held to a hard cap: enabled span tracing must cost under
5% vs the untraced sweep measured in the same run.

The gate compares *speedup ratios* (each measured against its own
counterpart in the same run), not absolute seconds: ratios share the
machine's noise between numerator and denominator, so the gate holds on
shared CI runners where raw wall-clock does not.

Usage:
    python benchmarks/check_regression.py [--fresh PATH]
        [--baseline PATH] [--threshold 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_FRESH = RESULTS_DIR / "engine_runner_timings.json"
DEFAULT_BASELINE = RESULTS_DIR / "baseline_engine_runner_timings.json"

#: Higher-is-better metrics the gate protects.
GATED_METRICS = (
    "speedup_cached_vs_naive",
    "speedup_parallel_vs_naive",
    "speedup_batched_vs_unbatched",
    "speedup_fused_vs_legacy",
    "speedup_delta_vs_full",
)

#: Hard cap on enabled-tracing overhead (``telemetry_overhead``
#: section): traced vs untraced cold sweeps in the *same* run, so the
#: fraction shares the machine's noise and needs no baseline ratio.
TELEMETRY_OVERHEAD_CAP = 0.05


def compare(fresh: dict, baseline: dict, threshold: float) -> list:
    """Return a report row per gated metric; ``row[-1]`` is pass/fail."""
    rows = []
    for metric in GATED_METRICS:
        fresh_value = fresh.get(metric)
        base_value = baseline.get(metric)
        if fresh_value is None or base_value is None:
            rows.append((metric, base_value, fresh_value, None, False))
            continue
        floor = base_value * (1.0 - threshold)
        if base_value:
            ratio = fresh_value / base_value
        else:
            ratio = float("inf")
        ok = fresh_value >= floor
        rows.append((metric, base_value, fresh_value, ratio, ok))
    return rows


def _load(path: Path, label: str) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {label} timings: {error}", file=sys.stderr)
        return None


def _format_speedup(value) -> str:
    if value is None:
        return "missing"
    return f"{value:.2f}x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh",
        type=Path,
        default=DEFAULT_FRESH,
        help="freshly measured timings JSON",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline timings JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional speedup regression",
    )
    args = parser.parse_args(argv)

    fresh = _load(args.fresh, "fresh")
    baseline = _load(args.baseline, "baseline")
    if fresh is None or baseline is None:
        return 2

    # Speedup ratios are only comparable on the same grid: a smoke-grid
    # measurement against the full-grid baseline would be meaningless.
    if fresh.get("grid") != baseline.get("grid"):
        print(
            "grid mismatch between fresh and baseline timings:\n"
            f"  fresh:    {fresh.get('grid')}\n"
            f"  baseline: {baseline.get('grid')}\n"
            "re-measure with benchmarks/bench_engine_runner.py on the "
            "baseline's grid (no --smoke) before gating.",
            file=sys.stderr,
        )
        return 2

    rows = compare(fresh, baseline, args.threshold)
    failed = [row for row in rows if not row[-1]]
    print(f"perf-regression gate (threshold {args.threshold:.0%}):")
    for metric, base_value, fresh_value, ratio, ok in rows:
        status = "ok" if ok else "REGRESSED"
        base_text = _format_speedup(base_value)
        fresh_text = _format_speedup(fresh_value)
        ratio_text = "-" if ratio is None else f"{ratio:.2f}"
        print(
            f"  {metric:30s} baseline {base_text:>9s}  "
            f"fresh {fresh_text:>9s}  ratio {ratio_text:>5s}  {status}"
        )

    section = fresh.get("telemetry_overhead") or {}
    overhead = section.get("overhead_fraction")
    overhead_ok = overhead is not None and overhead <= TELEMETRY_OVERHEAD_CAP
    overhead_text = "missing" if overhead is None else f"{overhead:+.2%}"
    status = "ok" if overhead_ok else "REGRESSED"
    print(
        f"  {'telemetry_overhead':30s} cap "
        f"{TELEMETRY_OVERHEAD_CAP:>8.0%}  "
        f"fresh {overhead_text:>9s}  ratio     -  {status}"
    )
    if not overhead_ok:
        failed.append(("telemetry_overhead",))

    if failed:
        print(
            f"\n{len(failed)} gated metric(s) regressed more than "
            f"{args.threshold:.0%} vs the committed baseline.",
            file=sys.stderr,
        )
        return 1
    print("\nall gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
