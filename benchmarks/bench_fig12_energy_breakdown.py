"""Fig. 12: per-component energy savings of SPADE vs DenseAcc.

Paper shape: compute and SRAM savings track ops savings; DRAM savings lag
slightly (outputs still move for SpConv-S models); overall savings remain
strongly correlated with ops savings.

The per-component energies are the :class:`~repro.core.EnergyBreakdown`
of SPADE on each sparse model and of DenseAcc on its dense counterpart
(``run_trace(trace).energy``), one pair per configuration.
"""

from __future__ import annotations

from repro.analysis import dense_counterpart, format_table
from repro.core import SPADE_HE, SPADE_LE, DenseAccelerator, SpadeAccelerator
from repro.models import SPARSE_MODELS


def _rows(traces, config):
    spade = SpadeAccelerator(config)
    dense = DenseAccelerator(config)
    rows = []
    for name in SPARSE_MODELS:
        ops_ratio = 1.0 / (
            1.0 - traces(name).savings_vs(traces(dense_counterpart(name)))
        )
        spade_energy = spade.run_trace(traces(name)).energy
        dense_energy = dense.run_trace(
            traces(dense_counterpart(name))).energy
        rows.append((
            config.name,
            name,
            ops_ratio,
            dense_energy.compute_pj / max(spade_energy.compute_pj, 1),
            dense_energy.sram_pj / max(spade_energy.sram_pj, 1),
            dense_energy.dram_pj / max(spade_energy.dram_pj, 1),
            dense_energy.total_pj / max(spade_energy.total_pj, 1),
        ))
    return rows


def test_fig12_energy_breakdown(benchmark, traces):
    def run():
        return _rows(traces, SPADE_HE) + _rows(traces, SPADE_LE)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["config", "model", "ops x", "compute x", "SRAM x", "DRAM x",
         "total x"],
        rows,
        title="Fig 12 - energy savings breakdown (paper: compute/SRAM"
              " track ops; DRAM lags slightly)",
    ))
    for row in rows:
        ops_ratio, compute_ratio, dram_ratio = row[2], row[3], row[5]
        # Compute savings track ops savings tightly.
        assert 0.8 * ops_ratio < compute_ratio < 1.2 * ops_ratio
        # DRAM savings lag behind ops savings.
        assert dram_ratio < 1.15 * ops_ratio
