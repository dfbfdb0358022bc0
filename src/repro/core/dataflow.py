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

A model is priced in one array pass.  :func:`sparse_schedule_arrays`
costs the tiles of every sparse layer together and
:func:`dense_schedule_arrays` every dense layer; both return a
:class:`ScheduleArrays`, one row per layer holding the non-hidden
cycles of each instruction, the rule entries, MACs, DRAM bytes, tiles,
pruned outputs, both optimisation flags and the effective ``T_a``.  The
energy model (:meth:`~repro.core.energy.EnergyModel.price`) and the
result rows read those arrays.  :class:`LayerSchedule` objects are
views built from them on request: :meth:`ScheduleArrays.schedules`,
:func:`schedule_sparse_layers`, :func:`schedule_sparse_layer` and
:func:`schedule_dense_layer` all return rows of the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        return float(overhead_fractions(self.mxu_cycles, self.total_cycles))


def overhead_fractions(mxu, cycles):
    """``1 - mxu / cycles``, the PE-array stall fraction, or 0.0 where
    ``cycles`` is 0; elementwise over arrays."""
    cycles = np.asarray(cycles)
    return np.where(cycles > 0, 1.0 - mxu / np.maximum(cycles, 1), 0.0)


#: Per-layer counts that follow the instruction cycles in a
#: :attr:`ScheduleArrays.table` row; the two flags are stored as 0/1.
COUNTS = ("rule_entries", "macs", "dram_bytes", "num_tiles",
          "pruned_outputs", "weight_grouping", "ganged_scatter")

_COLUMNS = INSTRUCTIONS + COUNTS


def _layer_schedule(name: str, conv_type: str, row, effective_ta
                    ) -> LayerSchedule:
    """The :class:`LayerSchedule` of one table row of Python ints."""
    (*breakdown, rule_entries, macs, dram_bytes, num_tiles,
     pruned_outputs, weight_grouping, ganged_scatter) = row
    return LayerSchedule(
        name=name,
        conv_type=conv_type,
        macs=macs,
        num_tiles=num_tiles,
        breakdown=dict(zip(INSTRUCTIONS, breakdown)),
        dram_bytes=dram_bytes,
        rule_entries=rule_entries,
        pruned_outputs=pruned_outputs,
        weight_grouping=bool(weight_grouping),
        ganged_scatter=bool(ganged_scatter),
        effective_ta=effective_ta,
    )


def _column(name: str) -> property:
    index = _COLUMNS.index(name)
    return property(lambda self: self.table[:, index],
                    doc=f"(L,) int64 ``{name}`` of every layer.")


@dataclass(frozen=True, eq=False)
class ScheduleArrays:
    """The schedules of a sequence of layers, one array row per layer.

    Attributes:
        names: Layer labels.
        conv_types: Each layer's ``ConvType`` value, or ``"dense"``.
        table: (L, 14) int64: the non-hidden cycles of every one of
            :data:`INSTRUCTIONS`, then :data:`COUNTS`.
        effective_ta: (L,) float64 mean inputs per tile; a dense
            layer's holds its integral ``T_a``.
    """

    names: list
    conv_types: list
    table: np.ndarray
    effective_ta: np.ndarray

    rule_entries = _column("rule_entries")
    macs = _column("macs")
    dram_bytes = _column("dram_bytes")
    num_tiles = _column("num_tiles")
    pruned_outputs = _column("pruned_outputs")

    def __len__(self) -> int:
        return len(self.names)

    @property
    def breakdown(self) -> np.ndarray:
        """(L, 7) cycles, columns in :data:`INSTRUCTIONS` order."""
        return self.table[:, :len(INSTRUCTIONS)]

    @cached_property
    def cycles(self) -> np.ndarray:
        """(L,) total cycles of every layer."""
        return self.breakdown.sum(axis=1)

    def overhead_fractions(self) -> np.ndarray:
        """(L,) PE-array stall fraction of every layer."""
        return overhead_fractions(
            self.table[:, INSTRUCTIONS.index("mxu")], self.cycles)

    def effective_ta_values(self) -> list:
        """``effective_ta`` as :class:`LayerSchedule` holds it: an int
        (the planned ``T_a``) for a dense layer, a float otherwise."""
        return [int(ta) if conv_type == "dense" else ta
                for conv_type, ta in zip(self.conv_types,
                                         self.effective_ta.tolist())]

    def schedules(self) -> list:
        """One :class:`LayerSchedule` per row, built now."""
        return [_layer_schedule(*fields) for fields in zip(
            self.names, self.conv_types, self.table.tolist(),
            self.effective_ta_values())]

    @classmethod
    def empty(cls) -> "ScheduleArrays":
        """The arrays of no layers."""
        return cls([], [], np.zeros((0, len(_COLUMNS)), np.int64),
                   np.zeros(0))

    @classmethod
    def of(cls, schedules) -> "ScheduleArrays":
        """The arrays of existing :class:`LayerSchedule` objects."""
        rows = [[schedule.breakdown.get(key, 0) for key in INSTRUCTIONS]
                + [getattr(schedule, key) for key in COUNTS]
                for schedule in schedules]
        return cls(
            [schedule.name for schedule in schedules],
            [schedule.conv_type for schedule in schedules],
            np.array(rows, dtype=np.int64).reshape(-1, len(_COLUMNS)),
            np.array([schedule.effective_ta for schedule in schedules],
                     dtype=np.float64),
        )

    @classmethod
    def join(cls, parts) -> "ScheduleArrays":
        """Interleave ``(arrays, positions)`` parts into one sequence.

        Row ``i`` of a part lands at its ``positions[i]``; the positions
        of all parts together are ``0 .. L-1``, each once.
        """
        parts = [(arrays, positions) for arrays, positions in parts
                 if len(positions)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0][0]
        positions = [index for _, part in parts for index in part]
        names = [name for arrays, _ in parts for name in arrays.names]
        conv_types = [conv_type for arrays, _ in parts
                      for conv_type in arrays.conv_types]
        table = np.concatenate([arrays.table for arrays, _ in parts])
        effective_ta = np.concatenate([arrays.effective_ta
                                       for arrays, _ in parts])
        if positions != sorted(positions):
            order = sorted(range(len(positions)), key=positions.__getitem__)
            names = [names[index] for index in order]
            conv_types = [conv_types[index] for index in order]
            table = table[order]
            effective_ta = effective_ta[order]
        return cls(names, conv_types, table, effective_ta)


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
    """:func:`sparse_schedule_arrays` as one :class:`LayerSchedule` per
    layer, in order."""
    return sparse_schedule_arrays(layers, config, optimize).schedules()


def sparse_schedule_arrays(
    layers,
    config: SpadeConfig,
    optimize: bool = True,
) -> ScheduleArrays:
    """Schedule a model's sparse convolutions on SPADE in one array pass.

    Tiles are planned per layer (:func:`plan_tiles`, memoized on the
    rules).  Every layer's per-tile cost vectors are then concatenated,
    with the per-layer scalars broadcast over its tiles, so the
    arithmetic costs the same few numpy operations for a whole model as
    for one layer; per-layer sums come from one int64
    ``np.add.reduceat``, which is exact.  Layers without inputs stay out
    of the arrays (``reduceat`` has no empty segment) and keep an
    all-zero row.

    Args:
        layers: One ``(rules, in_channels, out_channels, name, prune)``
            tuple per layer, each field as in
            :func:`schedule_sparse_layer`.
        config: Accelerator instance.
        optimize: Enable weight grouping / ganged scatter / adaptive T_a.

    Returns:
        The :class:`ScheduleArrays` of the layers, in order.
    """
    act = config.act_bytes
    names, conv_types, flags = [], [], []
    # The positions and tile plans of the layers with inputs, and the
    # flat per-layer scalars _price_tiles reads; channel pairs repeat
    # across a model, so their buffer sizes are worked out once.
    planned, tilings, scalars, sizes = [], [], [], {}
    for index, (rules, in_channels, out_channels, name, prune) in (
            enumerate(layers)):
        conv_type = rules.conv_type
        weight_grouping = (optimize and conv_type is ConvType.STRIDED
                           and rules.stride > 1)
        ganged_scatter = optimize and conv_type is ConvType.DECONV
        names.append(name)
        conv_types.append(conv_type.value)
        flags += (weight_grouping, ganged_scatter)
        num_inputs = rules.num_inputs
        if num_inputs == 0:
            continue
        channels = (in_channels, out_channels)
        if channels not in sizes:
            sizes[channels] = _layer_sizes(in_channels, out_channels,
                                           config)
        ta_cap, to_cap, n_cm, n_m = sizes[channels]
        if ganged_scatter:
            # Outputs leave the buffer per offset; the window constraint
            # reduces to the per-offset output count (= tile input count).
            to_cap = max(to_cap, ta_cap * rules.stride * rules.stride)
        planned.append(index)
        tilings.append(plan_tiles(rules, ta_cap, to_cap))
        num_outputs = rules.num_outputs
        scalars += (
            n_cm,
            _group_factor(conv_type, rules.stride, weight_grouping,
                          rules.kernel_size),
            n_m,
            in_channels * act,
            out_channels * act,
            len(rules.pairs) * in_channels * out_channels * config.wgt_bytes,
            in_channels * out_channels,
            (num_inputs * in_channels + num_outputs * out_channels) * act,
            num_outputs if prune else 0,
            num_inputs,
        )
    table = np.zeros((len(names), len(_COLUMNS)), np.int64)
    table[:, -2:] = np.array(flags, dtype=np.int64).reshape(-1, 2)
    effective_ta = np.zeros(len(names))
    if planned:
        table[planned, :-2], effective_ta[planned] = _price_tiles(
            tilings, scalars, config)
    return ScheduleArrays(names, conv_types, table, effective_ta)


def _layer_sizes(in_channels: int, out_channels: int,
                 config: SpadeConfig) -> tuple:
    """``(T_a cap, BUFout cap, n_c * n_m, n_m)`` of a C -> M layer."""
    n_m = _ceil_div(max(out_channels, 1), config.pe_cols)
    return (config.buf_in_capacity_pillars(in_channels),
            config.buf_out_capacity_pillars(out_channels),
            _ceil_div(max(in_channels, 1), config.pe_rows) * n_m, n_m)


def _price_tiles(tilings, scalars, config: SpadeConfig) -> tuple:
    """The table rows, less the flags, and the effective ``T_a`` of the
    planned layers of :func:`sparse_schedule_arrays`.

    ``scalars`` holds ten ints per layer: n_c * n_m, weight group, n_m,
    input and output bytes per pillar, layer weight bytes, C * M,
    activation DRAM bytes, pruned outputs and inputs.
    """
    pe_r, pe_c = config.pe_rows, config.pe_cols
    bpc = config.dram_bytes_per_cycle
    num_tiles = [tiling.num_tiles for tiling in tilings]
    tiles = np.array(num_tiles, dtype=np.int64)
    # Each layer's first tile in the concatenated tile vectors.
    starts = np.cumsum(tiles) - tiles
    layer = np.array(scalars, dtype=np.int64).reshape(len(tilings), -1).T
    (weight_bytes, channel_product, activation_bytes, pruned,
     num_inputs) = layer[5:]
    # The per-layer sizes broadcast over each layer's tiles.
    per_tile = np.repeat(layer[:5], num_tiles, axis=1)
    tile_n_cm, tile_group, tile_n_m = per_tile[:3]
    (tile_pairs, active_offsets, in_start, in_end, out_start, out_end,
     overlap) = np.concatenate([
        getattr(tiling, vector) for vector in _TILE_VECTORS
        for tiling in tilings]).reshape(len(_TILE_VECTORS), -1)

    # Passes stream back-to-back (weights preloaded into shadow
    # registers), so the systolic fill/drain is paid once per tile.
    tile_mxu = tile_pairs * tile_n_cm + (pe_r + pe_c)
    tile_loads = -(-(active_offsets * tile_n_cm) // tile_group)
    gather, scatter = -(-(np.stack([in_end - in_start, out_end - out_start])
                          * per_tile[3:]) // bpc)
    # Rows: RuleGen, input gather and per-tile weight fetch (which hide
    # behind the previous tile's MXU time), then the Load_wgt, MXU,
    # Copy_psum and scatter stall cycles and the rule entries.
    cost = np.empty((8, len(tile_mxu)), np.int64)
    np.add(tile_pairs, RGUModel.PIPELINE_FILL, out=cost[0])
    cost[1] = gather
    cost[2] = -(-(tile_loads * (pe_r * pe_c * config.wgt_bytes)) // bpc)
    # Gathers and RuleGen of tile t hide behind the MXU time of tile t-1;
    # nothing precedes a layer's first tile.
    hiding = np.empty_like(tile_mxu)
    hiding[1:] = tile_mxu[:-1]
    hiding[starts] = 0
    cost[:3] -= hiding
    np.maximum(cost[:3], 0, out=cost[:3])
    np.multiply(tile_loads, pe_r, out=cost[3])
    cost[4] = tile_mxu
    np.multiply(overlap, tile_n_m, out=cost[5])
    np.maximum(scatter - tile_mxu, 0, out=cost[6])
    cost[7] = tile_pairs
    sums = np.add.reduceat(cost, starts, axis=1)

    weights_fit = weight_bytes <= config.buf_wgt_bytes
    # Weights that fit take one up-front streamed fetch, paid at layer
    # start (nothing of the layer runs yet, so it cannot hide); weights
    # that do not are refetched per tile and hide like the gathers.
    sums[2] = np.where(weights_fit, -(-weight_bytes // bpc), sums[2])
    rows = np.vstack([
        sums,
        sums[7] * channel_product,
        activation_bytes + weight_bytes * np.where(weights_fit, 1, tiles),
        tiles,
        pruned,
    ])
    return rows.T, num_inputs / tiles


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
    row, ta = _dense_row(num_pixels, in_channels, out_channels,
                         kernel_size, upsample_stride, out_width, config)
    return _layer_schedule(name, "dense", row, ta)


def dense_schedule_arrays(layers, config: SpadeConfig) -> ScheduleArrays:
    """:func:`schedule_dense_layer` of every layer, as arrays.

    Args:
        layers: One ``(num_pixels, in_channels, out_channels,
            kernel_size, upsample_stride, out_width, name)`` tuple per
            layer, each field as in :func:`schedule_dense_layer`.
        config: Accelerator instance.
    """
    priced = [_dense_row(*layer[:-1], config) for layer in layers]
    return ScheduleArrays(
        [layer[-1] for layer in layers],
        ["dense"] * len(layers),
        np.array([row for row, _ in priced],
                 dtype=np.int64).reshape(-1, len(_COLUMNS)),
        np.array([ta for _, ta in priced], dtype=np.float64),
    )


def _dense_row(num_pixels: int, in_channels: int, out_channels: int,
               kernel_size: int, upsample_stride: int, out_width: int,
               config: SpadeConfig) -> tuple:
    """One dense layer's table row (Python ints) and its ``T_a``."""
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
    dram_bytes = (
        num_pixels * in_channels * config.act_bytes
        + out_pixels * out_channels * config.act_bytes
        + layer_weight_bytes * weight_refetches
    )
    # No RuleGen, rule entries, pruning or dataflow optimisation.
    row = (0, stall_gather, gather_wgt_stall, load_wgt, mxu_busy, copy_psum,
           stall_scatter, 0, macs, dram_bytes, num_tiles, 0, 0, 0)
    return row, ta
