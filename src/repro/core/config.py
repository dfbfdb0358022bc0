"""SPADE accelerator configurations (high-end and low-end).

The paper tapes out two configurations at 32 nm / 1 GHz:

* **HE** — 64 x 64 systolic MXU (8 TOPS counting 2 ops per MAC), compared
  against server GPUs and Jetson Xavier NX;
* **LE** — 16 x 16 systolic MXU (512 GOPS), compared against a Xeon CPU
  and Jetson Nano.

Both use 32 KB input/output activation buffers (the BUFin size quoted in
the Fig. 6(c) methodology), a weight buffer, and the RGU rule buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpadeConfig:
    """Microarchitecture parameters of one SPADE instance.

    Attributes:
        name: Configuration tag ("HE" / "LE").
        pe_rows: Systolic array rows (input-channel dimension, Tc).
        pe_cols: Systolic array columns (output-channel dimension, Tm).
        clock_ghz: Core clock.
        buf_in_bytes: Input activation buffer (gathered pillar vectors).
        buf_out_bytes: Output partial-sum buffer (int32 accumulators).
        buf_wgt_bytes: Weight buffer capacity.
        rule_buf_entries: Rule buffer capacity (entries per kernel offset).
        dram_bytes_per_cycle: Sustained DRAM bandwidth per core cycle.
        act_bytes: Activation precision (int8).
        wgt_bytes: Weight precision (int8).
        psum_bytes: Accumulator precision (int32).
        mac_energy_pj: Energy of one int8 MAC at 32 nm.
        rgu_energy_per_rule_pj: RGU energy per generated rule entry.
        pruning_energy_per_pillar_pj: SFU pruning energy per output pillar.
    """

    name: str = "HE"
    pe_rows: int = 64
    pe_cols: int = 64
    clock_ghz: float = 1.0
    buf_in_bytes: int = 32 * 1024
    buf_out_bytes: int = 256 * 1024
    buf_wgt_bytes: int = 256 * 1024
    rule_buf_entries: int = 4096
    dram_bytes_per_cycle: int = 32
    act_bytes: int = 1
    wgt_bytes: int = 1
    psum_bytes: int = 4
    mac_energy_pj: float = 0.12
    rgu_energy_per_rule_pj: float = 0.35
    pruning_energy_per_pillar_pj: float = 0.8

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def peak_tops(self) -> float:
        """Peak throughput counting 2 ops (multiply + add) per MAC."""
        return 2 * self.peak_macs_per_cycle * self.clock_ghz / 1000.0

    def buf_in_capacity_pillars(self, channels: int) -> int:
        """Active input pillars (T_a upper bound) fitting in BUFin.

        BUFin holds the current input-channel tile (up to ``pe_rows``
        channels per pillar); wider layers stream channel tiles in turn.
        """
        bytes_per_pillar = max(min(channels, self.pe_rows) * self.act_bytes, 1)
        return max(1, self.buf_in_bytes // bytes_per_pillar)

    def buf_out_capacity_pillars(self, channels: int) -> int:
        """Output pillars fitting in BUFout as int32 partial sums.

        BUFout holds the current output-channel tile (up to ``pe_cols``
        accumulators per pillar).
        """
        bytes_per_pillar = max(
            min(channels, self.pe_cols) * self.psum_bytes, 1
        )
        return max(1, self.buf_out_bytes // bytes_per_pillar)


#: High-end configuration: 64x64 MXU, 8 TOPS.
SPADE_HE = SpadeConfig(name="HE", pe_rows=64, pe_cols=64,
                       dram_bytes_per_cycle=64)

#: Low-end configuration: 16x16 MXU, 512 GOPS.
SPADE_LE = SpadeConfig(
    name="LE",
    pe_rows=16,
    pe_cols=16,
    buf_in_bytes=16 * 1024,
    buf_out_bytes=64 * 1024,
    buf_wgt_bytes=64 * 1024,
    dram_bytes_per_cycle=16,
)

