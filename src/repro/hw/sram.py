"""SRAM energy and area model (CACTI substitute).

CACTI is a table/analytic model of cache and SRAM arrays; the constants
below are calibrated to published 32 nm numbers (the paper's technology):
a 32 KB SRAM bank reads at roughly 10 pJ per 64-bit word and occupies
about 0.05 mm^2.  Per-access energy scales with the square root of
capacity (bitline/wordline length), the standard first-order CACTI
behaviour; area scales linearly with a fixed per-bit cost plus periphery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Read energy of a 32 KB array per byte accessed, picojoules (32 nm).
_BASE_READ_PJ_PER_BYTE = 1.25
#: Write costs ~10% more than read in small arrays.
_WRITE_FACTOR = 1.1
#: Reference capacity for the sqrt scaling law.
_REFERENCE_BYTES = 32 * 1024
#: SRAM cell area including periphery overhead, mm^2 per KB (32 nm).
_AREA_MM2_PER_KB = 0.0016
#: Fixed periphery area per array instance.
_AREA_PERIPHERY_MM2 = 0.002


@dataclass(frozen=True)
class SRAMModel:
    """Energy/area model of one SRAM array.

    Attributes:
        size_bytes: Array capacity.
        width_bytes: Port width (bytes per access).
    """

    size_bytes: int
    width_bytes: int = 8

    @property
    def _scale(self) -> float:
        return float(np.sqrt(max(self.size_bytes, 1) / _REFERENCE_BYTES))

    # The per-access energies are read on every ``energy_for_bytes``
    # call: computed once per (frozen) array.
    @cached_property
    def read_energy_pj(self) -> float:
        """Energy of one read access (width_bytes wide)."""
        return _BASE_READ_PJ_PER_BYTE * self.width_bytes * self._scale

    @cached_property
    def write_energy_pj(self) -> float:
        """Energy of one write access."""
        return self.read_energy_pj * _WRITE_FACTOR

    @property
    def area_mm2(self) -> float:
        """Silicon area of the array."""
        return _AREA_MM2_PER_KB * self.size_bytes / 1024 + _AREA_PERIPHERY_MM2

    def energy_for_bytes(self, num_bytes: int, is_write: bool = False) -> float:
        """Energy to move ``num_bytes`` through the port, picojoules."""
        accesses = (num_bytes + self.width_bytes - 1) // self.width_bytes
        per_access = self.write_energy_pj if is_write else self.read_energy_pj
        return accesses * per_access
