"""Fig. 11: sources of SPADE's performance gain.

(a,b) latency breakdown of PP + SPP1-3 across platforms and SPADE (HE and
      LE) — paper shape: platforms drown in mapping, SPADE does not;
(c)   OPs savings vs achieved speedup per sparse-convolution type —
      paper: speedup aligns with OPs savings;
(d)   MXU utilization with / without dataflow optimization per conv type —
      paper: SpConv >90%; SpStConv/SpDeconv <70% without, ~90% with.

All three panels are engine grids; (d) reads the per-layer schedule
detail (overhead fraction) off the optimized / unoptimized SPADE rows.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import dense_counterpart, format_table
from repro.baselines import HIGH_END_PLATFORMS
from repro.core import SPADE_HE, SPADE_LE
from repro.engine import (
    DenseAccSimulator,
    ExperimentRunner,
    PlatformSim,
    SpadeSimulator,
)
from repro.models import SPARSE_MODELS

MODELS = ("PP", "SPP1", "SPP2", "SPP3")


def test_fig11ab_latency_breakdown(benchmark, frame_provider, trace_cache):
    def run():
        runner = ExperimentRunner(
            simulators=[PlatformSim(platform)
                        for platform in HIGH_END_PLATFORMS]
            + [SpadeSimulator(SPADE_HE)],
            models=list(MODELS),
            frame_provider=frame_provider,
            cache=trace_cache,
        )
        table = runner.run()
        rows = []
        for name in MODELS:
            for platform in HIGH_END_PLATFORMS:
                result = table.get(model=name, simulator=platform.name)
                phases = result.extras["phases"]
                rows.append((name, platform.name, phases["conv"],
                             phases["mapping"], phases["gather_scatter"],
                             result.latency_ms))
            spade = table.get(model=name, simulator="SPADE.HE")
            breakdown = spade.extras["breakdown"]
            to_ms = 1.0 / (SPADE_HE.clock_ghz * 1e6)
            rows.append((
                name, "SPADE.HE",
                (breakdown["mxu"] + breakdown["load_wgt"]) * to_ms,
                breakdown["rulegen"] * to_ms,
                (breakdown["gather_inp"] + breakdown["scatter_out"]
                 + breakdown["copy_psum"] + breakdown["gather_wgt"]) * to_ms,
                spade.latency_ms,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["model", "platform", "conv ms", "mapping ms", "data-move ms",
         "total ms"],
        rows,
        title="Fig 11(a) - latency breakdown, high-end (paper: SPADE"
              " spends minimal time on mapping)",
    ))
    spade_rows = [row for row in rows if row[1] == "SPADE.HE"]
    for row in spade_rows:
        assert row[3] < 0.25 * row[5]  # mapping is a small fraction


def test_fig11c_ops_savings_vs_speedup(benchmark, traces, frame_provider,
                                      trace_cache):
    def run():
        models = list(SPARSE_MODELS)
        models += sorted({dense_counterpart(name) for name in SPARSE_MODELS})
        runner = ExperimentRunner(
            simulators=[SpadeSimulator(SPADE_HE), SpadeSimulator(SPADE_LE),
                        DenseAccSimulator(SPADE_HE),
                        DenseAccSimulator(SPADE_LE)],
            models=models,
            frame_provider=frame_provider,
            cache=trace_cache,
            # Only the cells the figure reads: SPADE on sparse models,
            # DenseAcc on their dense counterparts.
            cell_filter=lambda scenario, model, simulator: (
                (model in SPARSE_MODELS)
                == simulator.name.startswith("SPADE")
            ),
        )
        table = runner.run()
        rows = []
        for name in SPARSE_MODELS:
            savings = traces(name).savings_vs(traces(dense_counterpart(name)))
            for config in (SPADE_HE, SPADE_LE):
                spade = table.get(model=name,
                                  simulator=f"SPADE.{config.name}")
                dense = table.get(model=dense_counterpart(name),
                                  simulator=f"DenseAcc.{config.name}")
                speedup = dense.cycles / spade.cycles
                ops_ratio = 1.0 / (1.0 - savings)
                rows.append((config.name, name, ops_ratio, speedup,
                             speedup / ops_ratio))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["config", "model", "OPs-savings x", "speedup x", "alignment"],
        rows,
        title="Fig 11(c) - OPs savings vs speedup (paper: aligned)",
    ))
    alignments = [row[4] for row in rows]
    assert 0.5 < np.mean(alignments) < 1.3


def test_fig11d_mxu_utilization(benchmark, make_runner):
    def run():
        runner = make_runner(
            [SpadeSimulator(SPADE_HE, optimize=False, name="base"),
             SpadeSimulator(SPADE_HE, optimize=True, name="optimized")],
            ["SPP2"],
        )
        table = runner.run()
        layer_rows = {
            name: {
                row["name"]: row
                for row in table.get(simulator=name).per_layer
            }
            for name in ("base", "optimized")
        }
        conv_type_of = {
            "SpConv": "B2C2",
            "SpStConv": "B2C1",
            "SpDeconv": "D3",
        }
        rows = []
        for label, layer_name in conv_type_of.items():
            rows.append((
                label,
                100 * (1 - layer_rows["base"][layer_name]
                       ["overhead_fraction"]),
                100 * (1 - layer_rows["optimized"][layer_name]
                       ["overhead_fraction"]),
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["conv type", "MXU busy % (no opt)", "MXU busy % (optimized)"],
        rows,
        title="Fig 11(d) - utilization from dataflow optimization (paper:"
              " SpConv >90%; strided/deconv <70% -> ~90%)",
    ))
    by_type = {row[0]: row for row in rows}
    assert by_type["SpConv"][1] > 75.0
    assert by_type["SpStConv"][2] > by_type["SpStConv"][1]
    assert by_type["SpDeconv"][2] > by_type["SpDeconv"][1]
