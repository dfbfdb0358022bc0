"""Substrate micro-simulators behind the unified engine interface.

The paper's component studies — Fig. 5(b)'s mapping-hardware comparison
and Fig. 6(c)'s DRAM-dataflow comparison — historically ran as bespoke
loops over random active sets.  These adapters put the same substrate
models (hash table, bitonic merge sorter, RGU, cache-based vs streamed
gather) behind the :class:`~repro.engine.simulators.Simulator` interface
so the sweeps run through the :class:`~repro.engine.ExperimentRunner`
like every other experiment: the swept quantity (active pillar count)
becomes the scenario axis, the substrate becomes the simulator axis, and
rule generation for each frame happens once in the shared trace cache no
matter how many substrates consume it.

Both adapters walk the trace's sparse layers, so they compose with full
model workloads too — e.g. mapping cycles of the hash table over an
entire SPP2 frame.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sparsity import ModelTrace
from ..core.config import SPADE_HE, SpadeConfig
from ..core.rgu import RGUModel
from ..hw.bitonic import BitonicMergeRuleGen
from ..hw.cache import DirectMappedCache
from ..hw.dram import DRAMModel, streaming_trace
from ..hw.hashtable import HashTableRuleGen
from .result import SimResult
from .simulators import Simulator, _cycles_to_ms, _fps

#: Mapping substrates of the Fig. 5(b) comparison.
MAPPING_SUBSTRATES = ("hash", "sorter", "rgu")

#: Gather dataflows of the Fig. 6(c) comparison.
GATHER_DATAFLOWS = ("cache", "stream", "ideal")


class MappingSim(Simulator):
    """Mapping-phase (rule building) cycles of one substrate.

    Args:
        substrate: ``"hash"`` (hash-table rule build), ``"sorter"``
            (bitonic merge sort) or ``"rgu"`` (the paper's streaming
            rule generation unit).
        config: SPADE config supplying the RGU parameters and the clock.
        name: Optional row label override.
    """

    def __init__(self, substrate: str, config: SpadeConfig = SPADE_HE,
                 name: str = None):
        if substrate not in MAPPING_SUBSTRATES:
            raise KeyError(
                f"unknown mapping substrate {substrate!r}; "
                f"choices: {MAPPING_SUBSTRATES}"
            )
        self.substrate = substrate
        self.config = config
        self.name = name or {
            "hash": "HashTable",
            "sorter": "MergeSorter",
            "rgu": "RGU",
        }[substrate]

    def _layer_cycles(self, layer) -> int:
        if self.substrate == "hash":
            return HashTableRuleGen().run(layer.in_coords,
                                          layer.in_shape).cycles
        if self.substrate == "sorter":
            return BitonicMergeRuleGen().run(
                layer.in_count, kernel_size=layer.spec.kernel_size
            ).cycles
        return RGUModel(self.config).cycles_for_count(
            layer.in_count, kernel_size=layer.spec.kernel_size
        )

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        per_layer = []
        total = 0
        for layer in trace.layers:
            if layer.rules is None:
                continue
            cycles = self._layer_cycles(layer)
            per_layer.append({
                "name": layer.spec.name,
                "cycles": cycles,
                "inputs": layer.in_count,
            })
            total += cycles
        latency_ms = _cycles_to_ms(total, self.config.clock_ghz)
        return SimResult(
            simulator=self.name,
            model=trace.spec.name,
            cycles=total,
            latency_ms=latency_ms,
            fps=_fps(latency_ms),
            energy_mj=None,
            dram_bytes=None,
            utilization=None,
            per_layer=per_layer,
            extras={"substrate": self.substrate},
        )


class GatherDramSim(Simulator):
    """Input-gather DRAM cycles of one dataflow (paper Fig. 6(c)).

    * ``"cache"``  — hash mapping plus a direct-mapped cache, fetching
      input pillar vectors in output-stationary rule order (inputs are
      re-requested once per consuming kernel offset);
    * ``"stream"`` — the GSU dataflow: each active input streams from
      DRAM exactly once, sequentially;
    * ``"ideal"``  — the all-reuse lower bound, which for input traffic
      equals one sequential pass and therefore matches the GSU by
      construction.

    Args:
        cache_bytes / line_bytes: Geometry of the cache-based baseline.
        name: Optional row label override.
    """

    def __init__(self, dataflow: str, cache_bytes: int = 32 * 1024,
                 line_bytes: int = 64, clock_ghz: float = 1.0,
                 name: str = None):
        if dataflow not in GATHER_DATAFLOWS:
            raise KeyError(
                f"unknown gather dataflow {dataflow!r}; "
                f"choices: {GATHER_DATAFLOWS}"
            )
        self.dataflow = dataflow
        self.cache_bytes = cache_bytes
        self.line_bytes = line_bytes
        self.clock_ghz = clock_ghz
        self.name = name or {
            "cache": "Hash+Cache",
            "stream": "RGU+GSU",
            "ideal": "Ideal",
        }[dataflow]

    def _cache_cycles(self, layer) -> int:
        cache = DirectMappedCache(self.cache_bytes, self.line_bytes)
        dram = DRAMModel()
        channels = layer.spec.in_channels
        for pair in layer.rules.pairs:
            if not len(pair):
                continue
            # Output-stationary visit order: inputs re-requested per
            # kernel offset.
            # int64 before the multiply: int32 row * channels can wrap.
            addresses = pair.in_idx.astype(np.int64) * channels
            dram.process_trace(cache.miss_addresses(addresses))
        return dram.stats.cycles

    def _streamed_cycles(self, layer) -> int:
        dram = DRAMModel()
        dram.process_trace(
            streaming_trace(layer.in_count * layer.spec.in_channels)
        )
        return dram.stats.cycles

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        per_layer = []
        total = 0
        for layer in trace.layers:
            if layer.rules is None:
                continue
            if self.dataflow == "cache":
                cycles = self._cache_cycles(layer)
            else:
                cycles = self._streamed_cycles(layer)
            per_layer.append({
                "name": layer.spec.name,
                "cycles": cycles,
                "inputs": layer.in_count,
            })
            total += cycles
        latency_ms = _cycles_to_ms(total, self.clock_ghz)
        return SimResult(
            simulator=self.name,
            model=trace.spec.name,
            cycles=total,
            latency_ms=latency_ms,
            fps=_fps(latency_ms),
            energy_mj=None,
            dram_bytes=None,
            utilization=None,
            per_layer=per_layer,
            extras={"dataflow": self.dataflow},
        )
