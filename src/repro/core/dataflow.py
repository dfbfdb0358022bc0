"""SPADE dataflow: the 7-instruction schedule and its timing model.

The SPADE dataflow (paper Sec. III-D) is built from seven instructions:
``RuleGen``, ``Gather_inp``, ``Gather_wgt``, ``Load_wgt``, ``MXU``,
``Copy_psum`` and ``Scatter_out``.  RuleGen/gathers/scatter are
double-buffered and hide behind MXU computation after the first tile;
``Load_wgt`` (copying weights into PE register files) and ``Copy_psum``
(carrying boundary partial sums between consecutive tiles) cannot be
hidden and show up as PE-array stalls.

The loop nest (Fig. 7(a)): outer, output-stationary over active-pillar
tiles ``T_a`` (BUFout holds the tile's full-depth int32 partial sums);
inner, weight-stationary over output-channel tiles ``T_m``, input-channel
tiles ``T_c`` and kernel offsets, each pass streaming the tile's rule
entries through the PE array at one pillar vector per cycle.

Two dataflow optimizations (Fig. 8) are modeled:

* **weight grouping** (SpStConv): gathering inputs by stride-parity class
  lets every weight load see a full tile of usable inputs, cutting weight
  -load events by ``stride^2``;
* **ganged scatter** (SpDeconv): scattering each kernel offset's outputs
  immediately (no accumulation exists across offsets) frees BUFout from
  holding the ``stride^2``-times-larger output window, restoring a full
  ``T_a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.rulegen import ConvType, Rules
from .config import SpadeConfig
from .gsu import plan_tiles
from .rgu import RGUModel

#: Instruction names used in breakdowns (paper Fig. 7 vocabulary).
INSTRUCTIONS = (
    "rulegen",
    "gather_inp",
    "gather_wgt",
    "load_wgt",
    "mxu",
    "copy_psum",
    "scatter_out",
)


@dataclass
class LayerSchedule:
    """Cycle-level outcome of scheduling one layer.

    ``breakdown`` holds the *non-hidden* cycle contribution of each
    instruction (hidden work costs nothing); ``mxu`` is the PE-array busy
    time.  ``total_cycles`` is their sum.
    """

    name: str
    conv_type: str
    macs: int
    num_tiles: int
    breakdown: dict = field(default_factory=dict)
    dram_bytes: int = 0
    rule_entries: int = 0
    pruned_outputs: int = 0
    weight_grouping: bool = False
    ganged_scatter: bool = False
    effective_ta: float = 0.0

    @property
    def total_cycles(self) -> int:
        return int(sum(self.breakdown.values()))

    @property
    def mxu_cycles(self) -> int:
        return int(self.breakdown.get("mxu", 0))

    def utilization(self, config: SpadeConfig) -> float:
        """Fraction of peak MACs actually performed."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.macs / (config.peak_macs_per_cycle * total)

    @property
    def overhead_fraction(self) -> float:
        """Fraction of time the PE array is stalled (Fig. 8(c) metric)."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return 1.0 - self.mxu_cycles / total


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _group_factor(conv_type: ConvType, stride: int, weight_grouping: bool,
                  kernel_size: int) -> int:
    """Weight-load reduction factor from stride-parity weight grouping."""
    if not weight_grouping or conv_type is not ConvType.STRIDED:
        return 1
    # stride^2 parity classes share inputs ({0,2,6,8},{1,7},{3,5},{4} for
    # a 3x3 / stride-2 kernel).
    return min(stride * stride, kernel_size * kernel_size)


def schedule_sparse_layer(
    rules: Rules,
    in_channels: int,
    out_channels: int,
    config: SpadeConfig,
    name: str = "",
    prune: bool = False,
    optimize: bool = True,
) -> LayerSchedule:
    """Schedule one sparse convolution on SPADE.

    Args:
        rules: Precomputed layer mapping.
        in_channels / out_channels: Feature depths C and M.
        config: Accelerator instance.
        name: Layer label for reports.
        prune: Whether the SFU prunes outputs (SpConv-P layers).
        optimize: Enable weight grouping / ganged scatter / adaptive T_a.

    Returns:
        A :class:`LayerSchedule` with the instruction breakdown.
    """
    pe_r, pe_c = config.pe_rows, config.pe_cols
    n_c = _ceil_div(max(in_channels, 1), pe_r)
    n_m = _ceil_div(max(out_channels, 1), pe_c)
    fill = pe_r + pe_c

    schedule = LayerSchedule(
        name=name,
        conv_type=rules.conv_type.value,
        macs=0,
        num_tiles=0,
        weight_grouping=(
            optimize and rules.conv_type is ConvType.STRIDED and rules.stride > 1
        ),
        ganged_scatter=(optimize and rules.conv_type is ConvType.DECONV),
    )
    if rules.num_inputs == 0:
        schedule.breakdown = {key: 0 for key in INSTRUCTIONS}
        return schedule

    ta_cap = config.buf_in_capacity_pillars(in_channels)
    to_cap = config.buf_out_capacity_pillars(out_channels)
    if schedule.ganged_scatter:
        # Outputs leave the buffer per offset; the window constraint
        # reduces to the per-offset output count (= tile input count).
        to_cap = max(to_cap, ta_cap * rules.stride * rules.stride)
    tiling = plan_tiles(rules, ta_cap, to_cap)
    schedule.num_tiles = tiling.num_tiles
    schedule.effective_ta = rules.num_inputs / max(tiling.num_tiles, 1)

    group = _group_factor(rules.conv_type, rules.stride,
                          schedule.weight_grouping, rules.kernel_size)
    bpc = config.dram_bytes_per_cycle

    weight_tile_bytes = pe_r * pe_c * config.wgt_bytes
    layer_weight_bytes = (
        len(rules.pairs) * in_channels * out_channels * config.wgt_bytes
    )
    weights_fit = layer_weight_bytes <= config.buf_wgt_bytes

    # Per-tile cost vectors; index t is tile t of the plan.
    tile_pairs = tiling.tile_pairs
    passes = tiling.active_offsets * n_c * n_m
    # Passes stream back-to-back (weights preloaded into shadow
    # registers), so the systolic fill/drain is paid once per tile.
    tile_mxu = tile_pairs * n_c * n_m + fill
    tile_loads = _ceil_div(passes, group)
    tile_gather = _ceil_div((tiling.in_end - tiling.in_start) * in_channels
                            * config.act_bytes, bpc)
    tile_scatter = _ceil_div((tiling.out_end - tiling.out_start)
                             * out_channels * config.act_bytes, bpc)
    tile_rulegen = tile_pairs + RGUModel.PIPELINE_FILL
    # Gathers and RuleGen of tile t hide behind the MXU time of tile t-1;
    # nothing precedes the first tile.
    hiding = np.concatenate(([0], tile_mxu[:-1]))

    def stalls(cycles):
        return int(np.maximum(cycles - hiding, 0).sum())

    if weights_fit:
        # One up-front streamed fetch of the layer weights, paid at layer
        # start (nothing of this layer runs yet, so it cannot hide).
        gather_wgt_stall = _ceil_div(layer_weight_bytes, bpc)
    else:
        gather_wgt_stall = stalls(
            _ceil_div(tile_loads * weight_tile_bytes, bpc))

    schedule.rule_entries = int(tile_pairs.sum())
    schedule.macs = schedule.rule_entries * in_channels * out_channels
    schedule.pruned_outputs = rules.num_outputs if prune else 0
    schedule.breakdown = {
        "rulegen": stalls(tile_rulegen),
        "gather_inp": stalls(tile_gather),
        "gather_wgt": gather_wgt_stall,
        "load_wgt": int(tile_loads.sum()) * pe_r,
        "mxu": int(tile_mxu.sum()),
        "copy_psum": int(tiling.overlap.sum()) * n_m,
        "scatter_out": int(np.maximum(tile_scatter - tile_mxu, 0).sum()),
    }
    weight_refetches = 1 if weights_fit else tiling.num_tiles
    schedule.dram_bytes = (
        rules.num_inputs * in_channels * config.act_bytes
        + rules.num_outputs * out_channels * config.act_bytes
        + layer_weight_bytes * weight_refetches
    )
    return schedule


def schedule_dense_layer(
    num_pixels: int,
    in_channels: int,
    out_channels: int,
    config: SpadeConfig,
    kernel_size: int = 3,
    upsample_stride: int = 1,
    out_width: int = 0,
    name: str = "",
) -> LayerSchedule:
    """Analytic schedule of a dense Conv2D / deconv layer.

    Used both for SPADE executing the dense head layers and for the
    DenseAcc baseline executing entire densified models.  The cost model
    mirrors :func:`schedule_sparse_layer` with every pixel active and no
    RuleGen; boundary partial sums between raster tiles contribute a
    two-row ``Copy_psum`` overlap for 3x3 kernels.
    """
    pe_r, pe_c = config.pe_rows, config.pe_cols
    n_c = _ceil_div(max(in_channels, 1), pe_r)
    n_m = _ceil_div(max(out_channels, 1), pe_c)
    fill = pe_r + pe_c
    kernel_elems = (
        kernel_size * kernel_size
        if upsample_stride == 1
        else upsample_stride * upsample_stride
    )
    # num_pixels counts *input* pixels for deconvs.
    macs = num_pixels * kernel_elems * in_channels * out_channels

    ta_cap = config.buf_in_capacity_pillars(in_channels)
    to_cap = config.buf_out_capacity_pillars(out_channels)
    overlap_per_tile = 2 * out_width if kernel_size == 3 else 0
    ta = max(1, min(ta_cap, max(to_cap - overlap_per_tile, to_cap // 2)))
    num_tiles = _ceil_div(num_pixels, ta)
    bpc = config.dram_bytes_per_cycle

    passes_per_tile = kernel_elems * n_c * n_m
    mxu_busy = macs // (min(in_channels, pe_r) * min(out_channels, pe_c))
    mxu_busy += num_tiles * fill
    load_wgt = passes_per_tile * num_tiles * pe_r
    copy_psum = max(0, num_tiles - 1) * min(overlap_per_tile, to_cap) * n_m
    gather = _ceil_div(num_pixels * in_channels * config.act_bytes, bpc)
    out_pixels = (
        num_pixels * upsample_stride * upsample_stride
        if upsample_stride > 1
        else num_pixels
    )
    scatter = _ceil_div(out_pixels * out_channels * config.act_bytes, bpc)
    layer_weight_bytes = kernel_elems * in_channels * out_channels
    weights_fit = layer_weight_bytes <= config.buf_wgt_bytes
    weight_refetches = 1 if weights_fit else num_tiles

    # Gathers/scatters hide behind MXU except for the first tile and any
    # bandwidth-bound residue.
    stall_gather = gather // max(num_tiles, 1) + max(0, gather - mxu_busy)
    stall_scatter = max(0, scatter - mxu_busy)
    gather_wgt = _ceil_div(layer_weight_bytes * weight_refetches, bpc)
    gather_wgt_stall = gather_wgt // max(num_tiles, 1) + max(
        0, gather_wgt - mxu_busy
    )

    schedule = LayerSchedule(
        name=name,
        conv_type="dense",
        macs=macs,
        num_tiles=num_tiles,
        effective_ta=ta,
    )
    schedule.breakdown = {
        "rulegen": 0,
        "gather_inp": stall_gather,
        "gather_wgt": gather_wgt_stall,
        "load_wgt": load_wgt,
        "mxu": mxu_busy,
        "copy_psum": copy_psum,
        "scatter_out": stall_scatter,
    }
    schedule.dram_bytes = (
        num_pixels * in_channels * config.act_bytes
        + out_pixels * out_channels * config.act_bytes
        + layer_weight_bytes * weight_refetches
    )
    return schedule
