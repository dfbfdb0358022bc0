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


#: The :class:`~repro.core.gsu.TileSchedule` vectors the scheduler reads.
_TILE_VECTORS = ("tile_pairs", "active_offsets", "in_start", "in_end",
                 "out_start", "out_end", "overlap")


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
    return schedule_sparse_layers(
        [(rules, in_channels, out_channels, name, prune)], config, optimize
    )[0]


def schedule_sparse_layers(
    layers,
    config: SpadeConfig,
    optimize: bool = True,
) -> list:
    """Schedule a model's sparse convolutions on SPADE in one array pass.

    Tiles are planned per layer (:func:`plan_tiles`, memoized on the
    rules).  Every layer's per-tile cost vectors are then concatenated,
    with the per-layer scalars broadcast over its tiles, so the
    arithmetic costs the same few numpy operations for a whole model as
    for one layer; per-layer sums come from one int64
    ``np.add.reduceat``, which is exact.  Layers without inputs stay out
    of the arrays (``reduceat`` has no empty segment) and get an
    all-zero breakdown.

    Args:
        layers: One ``(rules, in_channels, out_channels, name, prune)``
            tuple per layer, each field as in
            :func:`schedule_sparse_layer`.
        config: Accelerator instance.
        optimize: Enable weight grouping / ganged scatter / adaptive T_a.

    Returns:
        One :class:`LayerSchedule` per layer, in order.
    """
    pe_r, pe_c = config.pe_rows, config.pe_cols
    fill = pe_r + pe_c
    bpc = config.dram_bytes_per_cycle
    weight_tile_bytes = pe_r * pe_c * config.wgt_bytes

    schedules = []
    # Per non-empty layer: its schedule, its rules, its tile plan and
    # its scalars (n_c * n_m, weight group, C, M, n_m, weight bytes).
    planned, tilings, scalars = [], [], []
    for rules, in_channels, out_channels, name, prune in layers:
        schedule = LayerSchedule(
            name=name,
            conv_type=rules.conv_type.value,
            macs=0,
            num_tiles=0,
            weight_grouping=(optimize and rules.conv_type is ConvType.STRIDED
                             and rules.stride > 1),
            ganged_scatter=(optimize and rules.conv_type is ConvType.DECONV),
        )
        schedules.append(schedule)
        if rules.num_inputs == 0:
            schedule.breakdown = dict.fromkeys(INSTRUCTIONS, 0)
            continue
        ta_cap = config.buf_in_capacity_pillars(in_channels)
        to_cap = config.buf_out_capacity_pillars(out_channels)
        if schedule.ganged_scatter:
            # Outputs leave the buffer per offset; the window constraint
            # reduces to the per-offset output count (= tile input count).
            to_cap = max(to_cap, ta_cap * rules.stride * rules.stride)
        tiling = plan_tiles(rules, ta_cap, to_cap)
        schedule.num_tiles = tiling.num_tiles
        schedule.effective_ta = rules.num_inputs / max(tiling.num_tiles, 1)
        schedule.pruned_outputs = rules.num_outputs if prune else 0
        n_c = _ceil_div(max(in_channels, 1), pe_r)
        n_m = _ceil_div(max(out_channels, 1), pe_c)
        group = _group_factor(rules.conv_type, rules.stride,
                              schedule.weight_grouping, rules.kernel_size)
        layer_weight_bytes = (
            len(rules.pairs) * in_channels * out_channels * config.wgt_bytes
        )
        planned.append((schedule, rules))
        tilings.append(tiling)
        scalars.append((n_c * n_m, group, in_channels, out_channels, n_m,
                        layer_weight_bytes))
    if not planned:
        return schedules

    # Per-tile cost vectors over the tiles of every planned layer, layer
    # after layer; ``starts`` indexes each layer's first tile.
    num_tiles = [tiling.num_tiles for tiling in tilings]
    starts = np.cumsum([0] + num_tiles[:-1])
    layer_scalars = np.array(scalars, dtype=np.int64).T
    tile_n_cm, tile_group, tile_in, tile_out = np.repeat(
        layer_scalars[:4], num_tiles, axis=1)
    n_m, weight_bytes = layer_scalars[4:]
    (tile_pairs, active_offsets, in_start, in_end, out_start, out_end,
     overlap) = np.concatenate([
        getattr(tiling, vector) for vector in _TILE_VECTORS
        for tiling in tilings]).reshape(len(_TILE_VECTORS), -1)
    in_width = in_end - in_start
    out_width = out_end - out_start

    # Passes stream back-to-back (weights preloaded into shadow
    # registers), so the systolic fill/drain is paid once per tile.
    tile_mxu = tile_pairs * tile_n_cm + fill
    tile_loads = -(-(active_offsets * tile_n_cm) // tile_group)
    tile_gather = -(-(in_width * tile_in * config.act_bytes) // bpc)
    tile_scatter = -(-(out_width * tile_out * config.act_bytes) // bpc)
    tile_rulegen = tile_pairs + RGUModel.PIPELINE_FILL
    tile_wgt = -(-(tile_loads * weight_tile_bytes) // bpc)
    # Gathers and RuleGen of tile t hide behind the MXU time of tile t-1;
    # nothing precedes a layer's first tile.
    hiding = np.empty_like(tile_mxu)
    hiding[1:] = tile_mxu[:-1]
    hiding[starts] = 0
    stalls = np.maximum(np.stack([tile_rulegen, tile_gather, tile_wgt])
                        - hiding, 0)
    (rulegen, gather_inp, wgt_stalls, loads, mxu, copies, scatter_out,
     entries) = np.add.reduceat(
        np.vstack([stalls, tile_loads, tile_mxu, overlap,
                   np.maximum(tile_scatter - tile_mxu, 0), tile_pairs]),
        starts, axis=1)

    weights_fit = weight_bytes <= config.buf_wgt_bytes
    # Weights that fit take one up-front streamed fetch, paid at layer
    # start (nothing of the layer runs yet, so it cannot hide); weights
    # that do not are refetched per tile and hide like the gathers.
    gather_wgt = np.where(weights_fit, -(-weight_bytes // bpc), wgt_stalls)
    rows = np.stack([rulegen, gather_inp, gather_wgt, loads * pe_r, mxu,
                     copies * n_m, scatter_out, entries], axis=1)
    for (schedule, rules), layer, fits, row in zip(
            planned, scalars, weights_fit.tolist(), rows.tolist()):
        _, _, in_ch, out_ch, _, layer_weight_bytes = layer
        *breakdown, rule_entries = row
        schedule.breakdown = dict(zip(INSTRUCTIONS, breakdown))
        schedule.rule_entries = rule_entries
        schedule.macs = rule_entries * in_ch * out_ch
        weight_refetches = 1 if fits else schedule.num_tiles
        schedule.dram_bytes = (
            rules.num_inputs * in_ch * config.act_bytes
            + rules.num_outputs * out_ch * config.act_bytes
            + layer_weight_bytes * weight_refetches
        )
    return schedules


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
