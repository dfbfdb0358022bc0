"""Energy model: compute, SRAM, DRAM and sparse-management components.

Per-component energies follow the paper's methodology: MAC energy from
the synthesized PE at 32 nm, SRAM energies from the CACTI-substitute
(:mod:`repro.hw.sram`), DRAM energy from the DRAM model's per-byte and
per-activate costs.  Fig. 12 reports savings per component (Compute /
SRAM / DRAM), which is exactly the breakdown this module produces.

:meth:`EnergyModel.price` prices the six components of every layer of
a :class:`~repro.core.dataflow.ScheduleArrays` in one array pass, in
the operation order of the per-layer formula, so each float equals
what pricing the layers one at a time gives;
:meth:`EnergyModel.layer_energy` is its one-layer view.
:func:`model_energy` adds the layers' components up in layer order, as
a running sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.dram import DRAMConfig
from ..hw.sram import SRAMModel
from .config import SpadeConfig
from .dataflow import INSTRUCTIONS, LayerSchedule, ScheduleArrays

#: The fields of :class:`EnergyBreakdown`: the columns of
#: :meth:`EnergyModel.price`.
COMPONENTS = ("compute_pj", "sram_pj", "dram_pj", "rgu_pj", "pruning_pj",
              "static_pj")


def component_total(components):
    """The six components in :data:`COMPONENTS` order, added left to
    right: numbers, or per-layer arrays added elementwise."""
    compute, sram, dram, rgu, pruning, static = components
    return compute + sram + dram + rgu + pruning + static


@dataclass
class EnergyBreakdown:
    """Picojoule totals per component for one layer or one model."""

    compute_pj: float = 0.0
    sram_pj: float = 0.0
    dram_pj: float = 0.0
    rgu_pj: float = 0.0
    pruning_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return component_total((self.compute_pj, self.sram_pj, self.dram_pj,
                                self.rgu_pj, self.pruning_pj,
                                self.static_pj))

    @property
    def total_mj(self) -> float:
        return self.total_pj * 1e-9


class EnergyModel:
    """Maps a :class:`LayerSchedule` to an energy breakdown."""

    def __init__(self, config: SpadeConfig, dram: DRAMConfig = None):
        self.config = config
        self.dram = dram or DRAMConfig()
        self._buf_in = SRAMModel(config.buf_in_bytes, width_bytes=config.pe_rows)
        self._buf_out = SRAMModel(
            config.buf_out_bytes, width_bytes=config.pe_cols * config.psum_bytes
        )
        self._buf_wgt = SRAMModel(config.buf_wgt_bytes, width_bytes=config.pe_rows)
        total_kb = (
            config.buf_in_bytes + config.buf_out_bytes + config.buf_wgt_bytes
        ) / 1024
        self._leakage_pj_per_cycle = 0.012 * total_kb / config.clock_ghz

    def layer_energy(
        self,
        schedule: LayerSchedule,
        in_channels: int,
        out_channels: int,
    ) -> EnergyBreakdown:
        """Energy of one scheduled layer."""
        return EnergyBreakdown(*self.price(
            ScheduleArrays.of([schedule]), [in_channels], [out_channels]
        )[0].tolist())

    def price(self, schedules: ScheduleArrays, in_channels,
              out_channels) -> np.ndarray:
        """(L, 6) picojoules of every scheduled layer, columns in
        :data:`COMPONENTS` order.

        Args:
            schedules: The layers' schedules.
            in_channels / out_channels: (L,) feature depths C and M.
        """
        cfg = self.config
        in_channels = np.asarray(in_channels, dtype=np.int64)
        out_channels = np.asarray(out_channels, dtype=np.int64)
        rule_entries = schedules.rule_entries
        macs = schedules.macs
        n_c = -(-np.maximum(in_channels, 1) // cfg.pe_rows)
        n_m = -(-np.maximum(out_channels, 1) // cfg.pe_cols)

        # Every rule entry streams one input vector through the array once
        # per output-channel tile, and read-modify-writes one psum vector
        # once per input-channel tile.  A dense layer has no rule entries
        # and counts pixels * kernel as its entries.
        entries = np.where(
            rule_entries > 0, rule_entries,
            macs // np.maximum(in_channels * out_channels, 1))
        input_bytes = entries * in_channels * cfg.act_bytes * n_m
        psum_bytes = entries * out_channels * cfg.psum_bytes * 2 * n_c
        weight_bytes = (schedules.table[:, INSTRUCTIONS.index("load_wgt")]
                        * cfg.pe_cols)

        sram_pj = (
            self._buf_in.energy_for_bytes(input_bytes)
            + self._buf_out.energy_for_bytes(psum_bytes // 2)
            + self._buf_out.energy_for_bytes(psum_bytes // 2, is_write=True)
            + self._buf_wgt.energy_for_bytes(weight_bytes)
        )
        dram_pj = schedules.dram_bytes * self.dram.energy_rw_pj_per_byte
        return np.stack([
            macs * cfg.mac_energy_pj,
            sram_pj,
            dram_pj,
            rule_entries * cfg.rgu_energy_per_rule_pj,
            schedules.pruned_outputs * cfg.pruning_energy_per_pillar_pj,
            schedules.cycles * self._leakage_pj_per_cycle,
        ], axis=1)


def model_energy(parts: np.ndarray) -> EnergyBreakdown:
    """Component totals of (L, 6) layer energies.

    Each component is a running sum in layer order (``np.add.accumulate``
    never regroups), the same float as adding :class:`EnergyBreakdown`
    objects one by one; ``sum`` (compensated on Python 3.12) or
    ``np.sum`` (pairwise) could round differently.
    """
    if not len(parts):
        return EnergyBreakdown()
    return EnergyBreakdown(*np.add.accumulate(parts)[-1].tolist())
