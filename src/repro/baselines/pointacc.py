"""PointAcc performance simulator (paper Sec. IV-B4, Figs. 14-15).

The paper compares SPADE against PointAcc (MICRO'21) by building a
performance simulator "following [52]": a 64-element bitonic merge sorter
performs the input-output mapping, a direct-mapped cache fronts DRAM for
gather/scatter, and the MXU matches SPADE's (64x64, same memory
capacity).  Parameters are chosen to estimate PointAcc *optimistically*,
and no dataflow overlap is applied to either accelerator in this
comparison ("we did not apply dataflow optimization").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.sparsity import LayerTrace, ModelTrace
from ..core.accelerator import dense_layer, sparse_layers
from ..core.config import SpadeConfig
from ..core.dataflow import (
    LayerSchedule,
    schedule_dense_layer,
    schedule_sparse_layer,
    schedule_sparse_layers,
)
from ..core.rgu import RGUModel
from ..hw.bitonic import BitonicMergeRuleGen
from ..hw.cache import DirectMappedCache


@dataclass
class PointAccLayerResult:
    """Latency phases of one layer on the PointAcc-style simulator."""

    name: str
    mapping_cycles: int
    gather_scatter_cycles: int
    mxu_cycles: int
    dram_bytes: int

    @property
    def total_cycles(self) -> int:
        return self.mapping_cycles + self.gather_scatter_cycles + self.mxu_cycles


@dataclass
class PointAccModelResult:
    """Whole-frame outcome."""

    model_name: str
    layers: list = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def total_dram_bytes(self) -> int:
        return sum(layer.dram_bytes for layer in self.layers)

    def phase_totals(self) -> dict:
        return {
            "mapping": sum(l.mapping_cycles for l in self.layers),
            "gather_scatter": sum(l.gather_scatter_cycles for l in self.layers),
            "mxu": sum(l.mxu_cycles for l in self.layers),
        }


class PointAccSimulator:
    """Sort-based mapping + cached gather/scatter + SPADE-matched MXU.

    Args:
        config: MXU/memory form factor to match (HE by default).
        cache_line: Cache block size (64, per the paper's setup).
        miss_penalty: DRAM cycles charged per cache miss (optimistic
            open-page hit latency).
    """

    def __init__(self, config: SpadeConfig, cache_line: int = 64,
                 miss_penalty: int = 8, hit_time: int = 1):
        self.config = config
        self.cache_bytes = config.buf_in_bytes + config.buf_out_bytes
        self.cache_line = cache_line
        self.miss_penalty = miss_penalty
        self.hit_time = hit_time
        self._sorter = BitonicMergeRuleGen(merger_length=64)

    def _gather_scatter(self, trace: LayerTrace, memo: dict = None) -> tuple:
        """Tiled output-stationary gathers with boundary refetches.

        PointAcc processes outputs in cache-capacity tiles; within a tile,
        the contributing inputs of each kernel offset form a contiguous
        range (rule indices ascend), so they are fetched once and mostly
        hit afterwards.  Inputs straddling a tile boundary, however, have
        been evicted by the time the next tile needs them and are fetched
        again — the "multiple input fetches near active output tile
        boundaries" the paper's trace analysis reports.

        The inputs every tile fetches come from :func:`_tile_input_spans`,
        which prices all of a layer's tiles in one array pass.  ``memo``,
        when given, maps ``(id(rules), tile_outputs)`` to that count, so
        layers sharing one ``Rules`` object and tile size within one
        :meth:`run_trace` call price their tiles once; it must not
        outlive the rules it keys.
        """
        rules = trace.rules
        spec = trace.spec
        in_bytes = max(spec.in_channels * self.config.act_bytes, 1)
        out_bytes = max(spec.out_channels * self.config.act_bytes, 1)
        lines_per_input = -(-in_bytes // self.cache_line)

        # Output tile size: half the cache holds psums, half gathered inputs.
        tile_outputs = max(1, (self.cache_bytes // 2) // max(out_bytes, 1))
        num_outputs = rules.num_outputs
        accesses = sum(len(pair) for pair in rules.pairs) + num_outputs
        memo = {} if memo is None else memo
        key = (id(rules), tile_outputs)
        if key not in memo:
            memo[key] = _tile_input_spans(rules, tile_outputs)
        fetched_lines = memo[key] * lines_per_input
        # Output scatter: each output line written back once.
        out_lines = -(-num_outputs * out_bytes // self.cache_line)
        fetched_lines += out_lines

        cycles = accesses * self.hit_time + fetched_lines * self.miss_penalty
        dram_bytes = fetched_lines * self.cache_line
        return cycles, dram_bytes

    def run_layer(self, trace: LayerTrace) -> PointAccLayerResult:
        spec = trace.spec
        if trace.rules is None:
            layer = dense_layer(trace)
            schedule = schedule_dense_layer(*layer[:3], self.config,
                                            *layer[3:])
            return PointAccLayerResult(
                name=spec.name,
                mapping_cycles=0,
                gather_scatter_cycles=schedule.breakdown["gather_inp"]
                + schedule.breakdown["scatter_out"],
                mxu_cycles=schedule.breakdown["mxu"]
                + schedule.breakdown["load_wgt"],
                dram_bytes=schedule.dram_bytes,
            )
        schedule = schedule_sparse_layer(
            trace.rules,
            spec.in_channels,
            spec.out_channels,
            self.config,
            name=spec.name,
            optimize=False,
        )
        return self._sparse_result(trace, schedule)

    def _sparse_result(self, trace: LayerTrace, schedule: LayerSchedule,
                       memo: dict = None) -> PointAccLayerResult:
        mapping = self._sorter.run(trace.rules.num_inputs,
                                   trace.rules.kernel_size).cycles
        # dram_bytes counts activation traffic (the Fig. 14 comparison);
        # weight traffic is identical for both accelerators and omitted.
        gather_scatter, dram_bytes = self._gather_scatter(trace, memo)
        mxu = schedule.breakdown["mxu"] + schedule.breakdown["load_wgt"]
        return PointAccLayerResult(
            name=trace.spec.name,
            mapping_cycles=mapping,
            gather_scatter_cycles=gather_scatter,
            mxu_cycles=mxu,
            dram_bytes=dram_bytes,
        )

    def run_trace(self, model_trace: ModelTrace) -> PointAccModelResult:
        """Every layer of a traced frame; the sparse layers' MXU time
        comes from one unoptimised
        :func:`~repro.core.dataflow.schedule_sparse_layers` pass, and
        layers that share one ``Rules`` object and tile size price their
        tiles once."""
        result = PointAccModelResult(model_name=model_trace.spec.name)
        sparse = iter(schedule_sparse_layers(
            sparse_layers(model_trace), self.config, optimize=False))
        memo = {}
        for trace in model_trace.layers:
            result.layers.append(
                self.run_layer(trace) if trace.rules is None
                else self._sparse_result(trace, next(sparse), memo))
        return result


def _tile_input_spans(rules, tile_outputs: int) -> int:
    """Inputs fetched over all output tiles of ``tile_outputs`` rows.

    Each tile fetches the union input range ``[lo, hi)`` it needs across
    offsets; inputs in the overlap with the next tile's range have been
    evicted in between and are fetched twice — the boundary refetches
    the paper's trace analysis reports.  Every offset's ``out_idx`` and
    ``in_idx`` ascend, so a tile's entries of one offset are the slice
    between two ``searchsorted`` bounds, its first input is ``in_idx``
    at the left bound and its last at the right bound less one.  One
    searchsorted and one ``take`` per non-empty offset fill (K, T)
    matrices of firsts and lasts; a min and a max over the offset axis
    give every tile's range at once.
    """
    num_outputs = rules.num_outputs
    pairs = [pair for pair in rules.pairs if len(pair)]
    if not pairs:
        return 0
    # int32 like the pairs: mixed-dtype needles would make searchsorted
    # copy each out_idx list to int64 first.
    edges = np.append(np.arange(0, num_outputs, tile_outputs),
                      num_outputs).astype(np.int32)
    bounds = np.stack([pair.out_idx.searchsorted(edges) for pair in pairs])
    left, right = bounds[:, :-1], bounds[:, 1:]
    # Row k holds offset k's left bounds, then its right bounds less one;
    # an empty (offset, tile) reads a clipped, masked-out position.
    ends = np.concatenate([left, right - 1], axis=1)
    inputs = np.stack([pair.in_idx.take(row, mode="clip")
                       for pair, row in zip(pairs, ends)])
    tiles = left.shape[1]
    hit = right > left
    lo = np.where(hit, inputs[:, :tiles], np.iinfo(np.int32).max).min(axis=0)
    hi = np.where(hit, inputs[:, tiles:] + 1, 0).max(axis=0)
    touched = hi > 0
    return int((hi[touched] - lo[touched]).sum())


@dataclass
class SpadeNoOverlapResult:
    """SPADE measured in the same phase vocabulary, without overlap."""

    model_name: str
    mapping_cycles: int
    gather_scatter_cycles: int
    mxu_cycles: int
    dram_bytes: int

    @property
    def total_cycles(self) -> int:
        return self.mapping_cycles + self.gather_scatter_cycles + self.mxu_cycles

    def phase_totals(self) -> dict:
        return {
            "mapping": self.mapping_cycles,
            "gather_scatter": self.gather_scatter_cycles,
            "mxu": self.mxu_cycles,
        }


def spade_no_overlap(model_trace: ModelTrace,
                     config: SpadeConfig) -> SpadeNoOverlapResult:
    """SPADE latency for the Fig. 15 comparison (phases fully serialized).

    RuleGen via the streaming RGU, gather/scatter at full streaming
    bandwidth (the GSU's sequential access), MXU identical to PointAcc's.
    """
    rgu = RGUModel(config)
    sparse = iter(schedule_sparse_layers(
        sparse_layers(model_trace), config, optimize=False))
    mapping = 0
    gather_scatter = 0
    mxu = 0
    dram = 0
    for trace in model_trace.layers:
        spec = trace.spec
        if trace.rules is None:
            layer = dense_layer(trace)
            schedule = schedule_dense_layer(*layer[:3], config, *layer[3:])
            gather_scatter += (
                schedule.breakdown["gather_inp"]
                + schedule.breakdown["scatter_out"]
            )
            mxu += schedule.breakdown["mxu"] + schedule.breakdown["load_wgt"]
            dram += schedule.dram_bytes
            continue
        mapping += rgu.cycles_for(trace.rules).cycles
        in_bytes = trace.rules.num_inputs * spec.in_channels * config.act_bytes
        out_bytes = trace.rules.num_outputs * spec.out_channels * config.act_bytes
        gather_scatter += -(-in_bytes // config.dram_bytes_per_cycle)
        gather_scatter += -(-out_bytes // config.dram_bytes_per_cycle)
        schedule = next(sparse)
        mxu += schedule.breakdown["mxu"] + schedule.breakdown["load_wgt"]
        # Activation traffic only, matching the PointAcc accounting.
        dram += in_bytes + out_bytes
    return SpadeNoOverlapResult(
        model_name=model_trace.spec.name,
        mapping_cycles=mapping,
        gather_scatter_cycles=gather_scatter,
        mxu_cycles=mxu,
        dram_bytes=dram,
    )
