"""Conventional sparse-Conv2D accelerator baseline (paper Fig. 2(a,b)).

SpConv2D-Acc represents SCNN-style accelerators built for *element-wise*
activation sparsity: they im2col the convolution, condense nonzero
elements, multiply in an output-stationary outer-product fashion and
scatter partial sums into a banked output buffer.

Vector sparsity breaks this design in two ways the model captures:

* **Underutilization** — condensing whole-pillar zeros leaves diagonal
  patterns; the condensed column seldom fills the PE rows, so entire rows
  idle.  Measured here as performed MACs over (rows x occupied cycles).
* **Bank conflicts** — each PE accumulates psums of *different* output
  coordinates; coordinates land in buffer banks irregularly, and two
  simultaneous updates to one bank stall.  Measured from the real rule
  streams of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.rulegen import Rules


@dataclass
class SpConv2DAccReport:
    """Utilization / conflict outcome of one layer (or aggregate)."""

    utilization: float
    bank_conflict_rate: float
    cycles: int
    macs: int


class SpConv2DAccModel:
    """Outer-product element-sparse accelerator running vector-sparse input.

    Args:
        pe_rows: Condensing window (nonzero elements consumed per cycle).
        pe_cols: Output lanes updated per cycle.
        num_banks: Output psum buffer banks.
    """

    def __init__(self, pe_rows: int = 16, pe_cols: int = 16,
                 num_banks: int = 16):
        self.pe_rows = pe_rows
        self.pe_cols = pe_cols
        self.num_banks = num_banks

    def run_rules(self, rules: Rules, in_channels: int,
                  out_channels: int) -> SpConv2DAccReport:
        """Simulate one sparse layer from its rule stream."""
        contributions = np.zeros(rules.num_outputs, dtype=np.int64)
        for pair in rules.pairs:
            contributions += np.bincount(pair.out_idx,
                                         minlength=rules.num_outputs)
        active_outputs = contributions[contributions > 0]
        if len(active_outputs) == 0:
            return SpConv2DAccReport(0.0, 0.0, 0, 0)

        # Utilization: each output needs ceil(k_o / pe_rows) condensed
        # passes; the last pass of each output is partially filled.
        passes = np.ceil(active_outputs / self.pe_rows).astype(np.int64)
        occupied_cycles = int(passes.sum())
        performed = int(active_outputs.sum())
        utilization = performed / (occupied_cycles * self.pe_rows)

        # Bank conflicts: the scatter stage writes pe_cols psum vectors per
        # cycle; the outputs processed concurrently are consecutive in the
        # condensed stream, and their buffer bank is coord % num_banks.
        out_banks = (
            rules.out_coords[:, 0].astype(np.int64) * rules.out_shape[1]
            + rules.out_coords[:, 1]
        ) % self.num_banks
        active_idx = np.nonzero(contributions > 0)[0]
        stream = out_banks[active_idx]
        usable = len(stream) - (len(stream) % self.pe_cols)
        conflicts = 0
        groups = 0
        if usable:
            grouped = stream[:usable].reshape(-1, self.pe_cols)
            groups = len(grouped)
            for row in grouped:
                counts = np.bincount(row, minlength=self.num_banks)
                conflicts += int(counts.max()) - 1
        conflict_rate = conflicts / groups if groups else 0.0

        channel_factor = in_channels * out_channels
        stall_cycles = int(conflicts * (in_channels / self.pe_cols))
        cycles = occupied_cycles * max(1, channel_factor // (
            self.pe_rows * self.pe_cols)) + stall_cycles
        return SpConv2DAccReport(
            utilization=utilization,
            bank_conflict_rate=conflict_rate,
            cycles=cycles,
            macs=performed * channel_factor,
        )

    def sweep_sparsity(self, grid_shape: tuple, sparsity_levels,
                       seed: int = 0) -> list:
        """Fig. 2(b): utilization / conflicts across computation sparsity.

        Random pillar patterns at each density are run through a 3x3
        dilating convolution's rule stream.
        """
        from ..sparse.coords import unflatten
        from ..sparse.rulegen import ConvType, build_rules

        rng = np.random.default_rng(seed)
        total = grid_shape[0] * grid_shape[1]
        results = []
        for sparsity in sparsity_levels:
            active = max(4, int(round(total * (1.0 - sparsity))))
            flat = np.sort(rng.choice(total, active, replace=False))
            coords = unflatten(flat, grid_shape)
            rules = build_rules(coords, grid_shape, ConvType.SPCONV)
            report = self.run_rules(rules, 64, 64)
            results.append((sparsity, report))
        return results
