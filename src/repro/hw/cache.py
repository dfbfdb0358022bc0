"""Direct-mapped cache model.

Used by the cache-based sparse-dataflow baseline the paper compares the
GSU against (Fig. 6(c)) and by the PointAcc performance simulator
(Sec. IV-B4): both employ a direct-mapped cache with 64-byte lines in
front of DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss counters of one simulation."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

class DirectMappedCache:
    """A direct-mapped, write-allocate cache of byte addresses."""

    def __init__(self, size_bytes: int = 32 * 1024, line_bytes: int = 64,
                 hit_cycles: int = 1):
        if size_bytes % line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self.hit_cycles = hit_cycles
        self._tags = np.full(self.num_lines, -1, dtype=np.int64)
        self.stats = CacheStats()

    def reset(self) -> None:
        self._tags[...] = -1
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch one address; returns True on hit (allocates on miss)."""
        line = address // self.line_bytes
        index = line % self.num_lines
        self.stats.accesses += 1
        if self._tags[index] == line:
            self.stats.hits += 1
            return True
        self._tags[index] = line
        self.stats.misses += 1
        return False

    def process_trace(self, addresses) -> np.ndarray:
        """Touch a sequence of addresses; returns the per-access hit mask."""
        addresses = np.asarray(addresses, dtype=np.int64)
        hits = np.zeros(len(addresses), dtype=bool)
        lines = addresses // self.line_bytes
        indexes = lines % self.num_lines
        tags = self._tags
        for position in range(len(addresses)):
            index = indexes[position]
            if tags[index] == lines[position]:
                hits[position] = True
            else:
                tags[index] = lines[position]
        self.stats.accesses += len(addresses)
        num_hits = int(hits.sum())
        self.stats.hits += num_hits
        self.stats.misses += len(addresses) - num_hits
        return hits

    def miss_addresses(self, addresses) -> np.ndarray:
        """Trace helper: addresses (line-aligned) that went to DRAM."""
        addresses = np.asarray(addresses, dtype=np.int64)
        hits = self.process_trace(addresses)
        lines = addresses[~hits] // self.line_bytes
        return lines * self.line_bytes
