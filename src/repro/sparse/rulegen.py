"""Reference rule generation for every sparse-convolution variant.

A *rule* is the explicit input-output mapping of a sparse convolution: for
each kernel offset ``k`` it lists which active-input rows contribute to
which active-output rows.  The paper's RGU (Sec. III-B) produces exactly
this structure in hardware; this module is the functional reference the
hardware model is validated against.

Supported operations (paper Fig. 1(c-e) and Fig. 4(a-d)):

* ``SPCONV``     — standard dilating sparse convolution;
* ``SUBM``       — submanifold convolution (SpConv-S), no dilation;
* ``SPCONV_P``   — dilating convolution whose output will be dynamically
  pruned (rules are identical to SPCONV; pruning is a post-pass);
* ``STRIDED``    — sparse strided convolution (SpStConv, downsampling);
* ``DECONV``     — sparse deconvolution (SpDeconv, non-overlapping
  stride=kernel upsampling).

Because inputs are CPR-sorted and every kernel offset shifts all
coordinates by a constant, the per-offset input and output index lists are
automatically ascending — the monotonicity property the RGU, ATM and
conflict-free scatter all rely on (asserted in tests).

Every entry point returns int32 index lists (:class:`RulePairs`): the
padded table already holds int32 output rows, input rows come from an
int32 ``arange`` (or a parity class's rows), the reference loop casts
its lookups once, and delta shares those arrays unchanged.  The disk
tier's key carries the format (:data:`repro.engine.cache.TRACE_FORMAT`),
so traces pickled with int64 pairs are never loaded as int32 ones.

Entry points:

* :func:`build_rules` — like the RGU's single streaming pass, a layer's
  output set and all of its per-offset pairs come from one halo-padded
  dense grid table (:func:`_padded_table`).  The pad ring holds -1, so
  every offset's lookup is one gather with no bounds mask: over every
  input for stride-1 layers (``table[pflat - d_k]``), and over the one
  parity class that can land on the stride for strided layers, whose
  table is at output resolution.  A dilating layer's output set is one
  scatter of the inputs and a shifted OR per kernel step.  All the
  offsets that every input feeds share one ``arange`` as ``in_idx``.
  The table's numbered output cells and cleared output mask are the
  next stride-1 layer's padded input grid whenever both pad by 1
  (stride-1 kernels up to 3, k3 s2 strided layers), so the rules carry
  them as a transient :class:`PaddedGrid` that
  :func:`repro.analysis.sparsity.trace_model` takes and hands on, and a
  layer given one skips rebuilding its cells and mask from coordinates.
  A grid whose padded table exceeds
  :data:`repro.sparse.coords._DENSE_TABLE_CELLS` is built by
  :func:`build_rules_reference` and hands no grid on;
* :func:`build_rules_delta` — a sequential frame's rules, sharing the
  previous frame's arrays when the active set is unchanged and
  rebuilding otherwise;
* :func:`build_rules_reference` — the original per-offset loop: the
  validation oracle every table build is asserted against, and the
  builder for grids past the table cap.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coords import (
    _dense_table_fits,
    _unique_flat_sorted,
    dilate,
    downsample_coords,
    flatten,
    kernel_offsets,
    unflatten,
    upsample_coords,
)

class ConvType(Enum):
    """Sparse convolution operation kinds."""

    SPCONV = "spconv"
    SUBM = "subm"
    SPCONV_P = "spconv_p"
    STRIDED = "strided"
    STRIDED_SUBM = "strided_subm"
    DECONV = "deconv"


@dataclass
class RulePairs:
    """Input/output row indices for one kernel offset.

    Both lists are int32: a row index counts pillars, which stay far
    below 2**31, and int32 halves a trace's bytes against int64.  Every
    producer in this module and :mod:`repro.core.rgu` keeps that dtype;
    a reader that scales an index (an address, a flat offset) widens it
    to int64 before it multiplies.

    ``in_idx`` may be one array shared by several offsets of a layer
    (every offset that all of the layer's inputs feed holds the same
    ``arange``), so it is read-only: no reader writes to it.
    """

    in_idx: np.ndarray
    out_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.in_idx)


@dataclass
class Rules:
    """Complete mapping for one sparse convolution layer.

    Attributes:
        conv_type: Operation kind.
        kernel_size: Square kernel edge (2 for DECONV with stride 2).
        stride: Convolution stride (1 for SPCONV/SUBM).
        in_shape / out_shape: Dense grid shapes.
        in_coords / out_coords: CPR-sorted active coordinate arrays.
        pairs: One :class:`RulePairs` per kernel offset, weight-index
            order; int32 ``in_idx`` / ``out_idx``, so the pair arrays
            take ``8 * total_pairs`` bytes.

    Nothing writes to a ``Rules`` after RuleGen, but for the one
    :meth:`take_grid` that clears its transient slot before any other
    layer sees it: several layers of one trace may hold the same object
    (see :func:`repro.analysis.sparsity.trace_model`).

    ``_plans`` is the GSU planner's private memo (see
    :func:`repro.core.gsu.plan_tiles`), and ``_grid`` the output
    :class:`PaddedGrid` a padded-table build leaves for the next layer
    (see :meth:`take_grid`).  Neither is state: pickling and copying
    drop both, so a pickled :class:`Rules` holds exactly the fields
    above whether or not it was ever planned or handed its grid on.
    Loading keeps the arrays as pickle restores them: their dtype equals
    ``np.dtype(np.int32)`` but need not be that object, and no reader
    depends on which.
    """

    conv_type: ConvType
    kernel_size: int
    stride: int
    in_shape: tuple
    out_shape: tuple
    in_coords: np.ndarray
    out_coords: np.ndarray
    pairs: list = field(default_factory=list)
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _grid: "PaddedGrid" = field(default=None, init=False, repr=False,
                                compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_plans", None)
        state.pop("_grid", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern the field names as pickle's default restore does: a
        # trace pickles each name once only when every Rules shares it.
        self.__dict__.update((sys.intern(key), value)
                             for key, value in state.items())
        self._plans = {}
        self._grid = None

    def take_grid(self) -> "PaddedGrid":
        """The output grid rulegen left here, or None; the slot is cleared.

        A layer built on the padded table leaves its numbered output
        cells for the next layer to build from (see :class:`PaddedGrid`).
        The caller takes them once, so no kept ``Rules`` holds them.
        """
        grid, self._grid = self._grid, None
        return grid

    @property
    def num_inputs(self) -> int:
        return len(self.in_coords)

    @property
    def num_outputs(self) -> int:
        return len(self.out_coords)

    @property
    def total_pairs(self) -> int:
        """Total number of (input, weight, output) mappings = MAC groups."""
        return sum(len(p) for p in self.pairs)

    def macs(self, in_channels: int, out_channels: int) -> int:
        """Multiply-accumulate count of executing this layer sparsely."""
        return self.total_pairs * in_channels * out_channels

    @property
    def iopr(self) -> float:
        """Input-output pillar ratio (paper Fig. 2(d-f) metric)."""
        if self.num_inputs == 0:
            return 0.0
        return self.num_outputs / self.num_inputs


class PaddedGrid(NamedTuple):
    """A layer's active cells on its halo-padded flat grid.

    ``shape`` is the grid padded by ``pad`` cells on each side.  ``flat``
    holds the active cells' flat indices on it, ascending (CPR order);
    ``mask`` marks the same cells on the flat padded grid with its pad
    ring clear, or is None when the producer built none.  Both arrays
    are read-only: one grid may feed several layers.

    The next stride-1 layer whose padded grid has the same ``shape`` and
    ``pad`` takes ``flat`` as its input cells and ``mask`` as its input
    mask, instead of rebuilding both from the coordinates.
    """

    shape: tuple
    pad: int
    flat: np.ndarray
    mask: np.ndarray = None

    def subset(self, kept: np.ndarray) -> "PaddedGrid":
        """The grid of the active cells at ascending positions ``kept``;
        it has no mask."""
        return PaddedGrid(self.shape, self.pad, _read_only(self.flat[kept]))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only."""
    array.flags.writeable = False
    return array


def _lookup_sorted(haystack_flat: np.ndarray, needles_flat: np.ndarray) -> np.ndarray:
    """Indices of needles in a sorted haystack, -1 when absent."""
    if len(haystack_flat) == 0 or len(needles_flat) == 0:
        return np.full(len(needles_flat), -1, dtype=np.int32)
    pos = np.searchsorted(haystack_flat, needles_flat)
    pos = np.clip(pos, 0, len(haystack_flat) - 1)
    found = haystack_flat[pos] == needles_flat
    return np.where(found, pos, -1).astype(np.int32)


def _layer_geometry(in_shape: tuple, conv_type: ConvType, kernel_size: int,
                    stride: int) -> tuple:
    """(out_shape, effective kernel_size) of one layer; validates stride."""
    if conv_type in (ConvType.SPCONV, ConvType.SPCONV_P):
        if stride != 1:
            raise ValueError("use ConvType.STRIDED for stride > 1")
        return in_shape, kernel_size
    if conv_type is ConvType.SUBM:
        if stride != 1:
            raise ValueError("submanifold convolution requires stride 1")
        return in_shape, kernel_size
    if conv_type in (ConvType.STRIDED, ConvType.STRIDED_SUBM):
        if stride < 2:
            raise ValueError(f"{conv_type.name} requires stride >= 2")
        out_shape = (
            (in_shape[0] + stride - 1) // stride,
            (in_shape[1] + stride - 1) // stride,
        )
        return out_shape, kernel_size
    if conv_type is ConvType.DECONV:
        if stride < 2:
            raise ValueError("DECONV requires stride >= 2")
        return (in_shape[0] * stride, in_shape[1] * stride), stride
    raise ValueError(f"unsupported conv type {conv_type}")  # pragma: no cover


def _resolve_output(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int,
    stride: int,
) -> tuple:
    """(out_coords, out_shape, effective kernel_size) of one layer."""
    out_shape, kernel_size = _layer_geometry(in_shape, conv_type,
                                             kernel_size, stride)
    if conv_type in (ConvType.SPCONV, ConvType.SPCONV_P):
        out_coords = dilate(in_coords, in_shape, kernel_size)
    elif conv_type is ConvType.SUBM:
        out_coords = in_coords.copy()
    elif conv_type is ConvType.STRIDED:
        out_coords, _ = downsample_coords(in_coords, in_shape, stride)
    elif conv_type is ConvType.STRIDED_SUBM:
        # Submanifold-style downsampling (SpConv-S models): an output is
        # active only where an input maps directly under the stride, so
        # no spatial dilation is introduced (paper Fig. 2(f), IOPR ~= 1).
        if len(in_coords):
            direct = _unique_flat_sorted(
                flatten(in_coords // stride, out_shape),
                out_shape[0] * out_shape[1],
            )
            out_coords = unflatten(direct, out_shape)
        else:
            out_coords = np.zeros((0, 2), dtype=np.int32)
    else:
        out_coords, _ = upsample_coords(in_coords, in_shape, stride)
    return out_coords, out_shape, kernel_size


def _empty_rules(rules: Rules) -> Rules:
    empty = np.zeros(0, dtype=np.int32)
    num_offsets = rules.kernel_size * rules.kernel_size
    rules.pairs = [RulePairs(empty, empty) for _ in range(num_offsets)]
    return rules


def _deconv_offsets(stride: int) -> np.ndarray:
    """(dr, dc) of the ``stride x stride`` block one DECONV input fills."""
    return np.array(
        [(dr, dc) for dr in range(stride) for dc in range(stride)],
        dtype=np.int64,
    )


@dataclass
class _GridTable:
    """One layer's flat cell -> output-row table and its input lookups.

    The inputs fall into ``classes``, each ``(rows, cells)``: the
    class's ascending int32 input rows and their flat cells in the
    table's grid.  Kernel offset
    ``k`` reads only its class ``offsets[k][0]``:
    ``table[cells + offsets[k][1]]`` is the output row each member feeds
    at that offset, -1 when it feeds none.
    """

    table: np.ndarray
    classes: list
    offsets: list

    def __post_init__(self):
        # table[cells + shift] is table[shift - low:][cells + low]: with
        # the cells shifted once here, each offset gathers from a view of
        # the table instead of building a shifted copy of the cells.
        low = min(shift for _, shift in self.offsets)
        self.classes = [(rows, cells + low) for rows, cells in self.classes]
        self.offsets = [(index, shift - low) for index, shift in self.offsets]

    def pairs(self) -> list:
        """Per-offset :class:`RulePairs` of every input.

        Each class's rows are one array: an offset that every one of them
        feeds takes it as ``in_idx`` uncopied, so on a one-class table
        every full offset shares one ``arange``.
        """
        pairs = []
        for index, shift in self.offsets:
            rows, cells = self.classes[index]
            idx = self.table[shift:][cells]
            if len(idx) and idx.min() < 0:
                live = idx >= 0
                pairs.append(RulePairs(rows[live], idx[live]))
            else:
                pairs.append(RulePairs(rows, idx))
        return pairs


def _dilate_mask(mask: np.ndarray, steps: range, width: int) -> np.ndarray:
    """A flat padded-grid mask ORed with its shifts by every kernel step.

    A square kernel's dilation separates into one shifted-OR pass over
    the rows, then one over the columns.  A column shift that leaves its
    row lands in the pad ring, which the caller clears.
    """
    for unit in (width, 1):
        out = mask.copy()
        for step in steps:
            shift = step * unit
            if shift > 0:
                out[shift:] |= mask[:-shift]
            elif shift < 0:
                out[:shift] |= mask[-shift:]
        mask = out
    return mask


def _number_outputs(mask: np.ndarray, table: np.ndarray, shape: tuple,
                    pad: int) -> tuple:
    """Number the outputs ``mask`` marks in ``table``.

    Both are flat over the padded ``shape``.  The mask's pad ring is
    cleared first (outputs off the grid), so ``flatnonzero`` yields the
    sorted output set, and its cells are unpadded into coordinates.
    Returns the coordinates and the outputs' :class:`PaddedGrid`: the
    cells and the cleared mask, made read-only.
    """
    grid = mask.reshape(shape)
    grid[:pad] = grid[-pad:] = False
    grid[:, :pad] = grid[:, -pad:] = False
    out_flat = np.flatnonzero(mask)
    table[out_flat] = np.arange(len(out_flat), dtype=np.int32)
    out_coords = unflatten(out_flat, shape)
    out_coords -= pad
    return out_coords, PaddedGrid(shape, pad, _read_only(out_flat),
                                  _read_only(mask))


def _padded_table(in_coords: np.ndarray, in_shape: tuple, out_shape: tuple,
                  conv_type: ConvType, kernel_size: int, stride: int,
                  grid: PaddedGrid = None) -> tuple:
    """``(out_coords, _GridTable, out grid)`` of one non-empty layer, or
    ``None``.

    The table is an int32 grid holding each active output's row number
    and -1 elsewhere, padded by ``pad`` cells on each side so no kernel
    offset's lookup needs a bounds mask.

    * Stride-1 layers (SUBM, SPCONV, SPCONV_P) number their outputs on
      the input grid, padded by the largest kernel offset; offset ``o``
      is one gather ``table[pflat - d_o]`` over every input.  A dilating
      layer's output mask is one scatter of the inputs plus shifted ORs
      along rows and columns (:func:`_dilate_mask`).
    * Strided layers (STRIDED, STRIDED_SUBM) build the table at output
      resolution.  Input ``p`` feeds output ``q`` at offset ``o`` when
      ``stride * q + o = p``, i.e. when ``p`` and ``o`` agree modulo the
      stride, and then ``q = p // stride - o // stride``.  So the inputs
      are split once into ``stride**2`` parity classes, and each offset
      gathers only its own class at ``base - shift``.
    * DECONV's table is unpadded at output resolution: its block offsets
      are non-negative and never leave the grid.

    The out grid is the layer's numbered output cells and mask on its
    padded table (a :class:`PaddedGrid`), or None for DECONV.  A
    stride-1 layer with kernel <= 3 and a k3 s2 strided layer both pad
    by 1, so that grid is the next stride-1 layer's padded input grid.
    Given as ``grid`` with this layer's padded shape, it replaces the
    cells computed from ``in_coords`` and the scattered input mask; SUBM
    passes it on unchanged.

    Returns ``None`` when the table exceeds
    :data:`repro.sparse.coords._DENSE_TABLE_CELLS`.
    """
    if conv_type is ConvType.DECONV:
        rows = in_coords[:, 0].astype(np.int64)
        cols = in_coords[:, 1].astype(np.int64)
        cells = out_shape[0] * out_shape[1]
        if not _dense_table_fits(cells):
            return None
        offsets = _deconv_offsets(stride)
        shifts = (offsets[:, 0] * out_shape[1] + offsets[:, 1]).tolist()
        base = (rows * out_shape[1] + cols) * stride
        mask = np.zeros(cells, dtype=bool)
        for shift in shifts:
            mask[base + shift] = True
        out_flat = np.flatnonzero(mask)
        table = np.full(cells, -1, dtype=np.int32)
        table[out_flat] = np.arange(len(out_flat), dtype=np.int32)
        return (unflatten(out_flat, out_shape),
                _GridTable(table,
                           [(np.arange(len(base), dtype=np.int32), base)],
                           [(0, shift) for shift in shifts]),
                None)

    offsets = kernel_offsets(kernel_size).astype(np.int64)
    if conv_type in (ConvType.STRIDED, ConvType.STRIDED_SUBM):
        return _strided_table(in_coords, out_shape, conv_type, offsets,
                              stride)

    pad = max(int(np.abs(offsets).max()), 1)
    shape = (in_shape[0] + 2 * pad, in_shape[1] + 2 * pad)
    if not _dense_table_fits(shape[0] * shape[1]):
        return None
    if (grid is not None and grid.shape == shape and grid.pad == pad
            and len(grid.flat) == len(in_coords)):
        pflat, mask = grid.flat, grid.mask
    else:
        rows = in_coords[:, 0].astype(np.int64)
        cols = in_coords[:, 1].astype(np.int64)
        pflat = _read_only((rows + pad) * shape[1] + cols + pad)
        mask = None
    every_input = np.arange(len(pflat), dtype=np.int32)
    table = np.full(shape[0] * shape[1], -1, dtype=np.int32)
    if conv_type is ConvType.SUBM:
        table[pflat] = every_input
        out_coords = in_coords.copy()
        out_grid = PaddedGrid(shape, pad, pflat, mask)
    else:
        if mask is None:
            mask = np.zeros(shape[0] * shape[1], dtype=bool)
            mask[pflat] = True
        steps = range(int(offsets[:, 0].min()), int(offsets[:, 0].max()) + 1)
        out_coords, out_grid = _number_outputs(
            _dilate_mask(mask, steps, shape[1]), table, shape, pad)
    # Input p at kernel offset o feeds output q = p - o.
    shifts = (-(offsets[:, 0] * shape[1] + offsets[:, 1])).tolist()
    return (out_coords,
            _GridTable(table, [(every_input, pflat)],
                       [(0, shift) for shift in shifts]),
            out_grid)


def _strided_table(in_coords: np.ndarray, out_shape: tuple,
                   conv_type: ConvType, offsets: np.ndarray,
                   stride: int) -> tuple:
    """:func:`_padded_table` of a STRIDED or STRIDED_SUBM layer."""
    # STRIDED's output set uses the kernel-3 support window regardless
    # of the layer kernel (see downsample_coords).
    window = (kernel_offsets(3).astype(np.int64)
              if conv_type is ConvType.STRIDED else offsets)
    pad = max(int(np.abs(np.concatenate([offsets, window]) // stride).max()),
              1)
    shape = (out_shape[0] + 2 * pad, out_shape[1] + 2 * pad)
    if not _dense_table_fits(shape[0] * shape[1]):
        return None
    # Quotient and parity in one int32 pass per axis; the cells widen
    # to int64 for indexing.
    row_q, row_r = np.divmod(in_coords[:, 0], stride)
    col_q, col_r = np.divmod(in_coords[:, 1], stride)
    base = (row_q.astype(np.int64) + pad) * shape[1] + col_q + pad
    parity = row_r * stride + col_r
    classes = []
    for parity_class in range(stride * stride):
        members = np.flatnonzero(parity == parity_class)
        classes.append((members.astype(np.int32), base[members]))

    def lookup(offset) -> tuple:
        row, col = offset.tolist()
        return ((row % stride) * stride + col % stride,
                -((row // stride) * shape[1] + col // stride))

    mask = np.zeros(shape[0] * shape[1], dtype=bool)
    if conv_type is ConvType.STRIDED_SUBM:
        # Submanifold-style downsampling: an output is active only where
        # an input maps directly under the stride.
        mask[base] = True
    else:
        for parity_class, shift in map(lookup, window):
            mask[classes[parity_class][1] + shift] = True
    table = np.full(shape[0] * shape[1], -1, dtype=np.int32)
    out_coords, out_grid = _number_outputs(mask, table, shape, pad)
    return (out_coords,
            _GridTable(table, classes, [lookup(offset) for offset in offsets]),
            out_grid)


def build_rules(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int = 3,
    stride: int = 1,
    grid: PaddedGrid = None,
) -> Rules:
    """Generate the input-output mapping for one sparse convolution layer.

    One halo-padded grid table per layer gives the output set and every
    offset's pairs (see :func:`_padded_table`).  An empty frame, or a
    grid whose table exceeds the cap, is built by
    :func:`build_rules_reference`.  Bit-identical to the reference, with
    or without ``grid``.

    Args:
        in_coords: (P, 2) CPR-sorted active input coordinates.
        in_shape: Dense input grid shape.
        conv_type: Which sparse convolution variant.
        kernel_size: Kernel edge; DECONV forces ``kernel_size = stride``.
        stride: 1 for SPCONV/SUBM/SPCONV_P; >=2 for STRIDED/DECONV.
        grid: Optional :class:`PaddedGrid` of ``in_coords``, as the
            previous layer's :meth:`Rules.take_grid` returned it; used
            when its padded shape is this layer's.

    Returns:
        A :class:`Rules` with ascending per-offset index lists; on the
        padded-table route its grid slot holds the output's
        :class:`PaddedGrid`.
    """
    in_coords = np.asarray(in_coords, dtype=np.int32)
    out_shape, effective_kernel = _layer_geometry(in_shape, conv_type,
                                                  kernel_size, stride)
    padded = None
    if len(in_coords):
        padded = _padded_table(in_coords, in_shape, out_shape, conv_type,
                               effective_kernel, stride, grid)
    if padded is None:
        return build_rules_reference(in_coords, in_shape, conv_type,
                                     kernel_size, stride)
    out_coords, table, out_grid = padded
    rules = Rules(
        conv_type=conv_type,
        kernel_size=effective_kernel,
        stride=stride,
        in_shape=in_shape,
        out_shape=out_shape,
        in_coords=in_coords,
        out_coords=out_coords,
        pairs=table.pairs(),
    )
    rules._grid = out_grid
    return rules


def build_rules_reference(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int = 3,
    stride: int = 1,
) -> Rules:
    """The original per-offset rule-generation loop (validation oracle).

    K separate lookups, one per kernel offset.  :func:`build_rules` is
    asserted bit-identical to this implementation in the test suite, and
    calls it for empty frames and for grids past the table cap.
    """
    in_coords = np.asarray(in_coords, dtype=np.int32)
    out_coords, out_shape, kernel_size = _resolve_output(
        in_coords, in_shape, conv_type, kernel_size, stride
    )
    rules = Rules(
        conv_type=conv_type,
        kernel_size=kernel_size,
        stride=stride,
        in_shape=in_shape,
        out_shape=out_shape,
        in_coords=in_coords,
        out_coords=out_coords,
    )
    if len(in_coords) == 0:
        return _empty_rules(rules)

    out_flat = flatten(out_coords, out_shape)

    if conv_type is ConvType.DECONV:
        offsets = np.array(
            [(dr, dc) for dr in range(stride) for dc in range(stride)],
            dtype=np.int32,
        )
        for offset in offsets:
            candidates = in_coords * stride + offset
            out_idx = _lookup_sorted(out_flat, flatten(candidates, out_shape))
            # Every upsampled position exists by construction.
            in_idx = np.arange(len(in_coords), dtype=np.int32)
            rules.pairs.append(RulePairs(in_idx, out_idx))
        return rules

    offsets = kernel_offsets(kernel_size)
    all_in_idx = np.arange(len(in_coords), dtype=np.int32)
    for offset in offsets:
        # Input p at kernel offset o feeds output q with stride*q + o = p.
        numerator = in_coords - offset
        if stride == 1:
            candidates = numerator
            exact = np.ones(len(in_coords), dtype=bool)
        else:
            exact = (numerator % stride == 0).all(axis=1)
            candidates = numerator // stride
        in_bounds = (
            (candidates[:, 0] >= 0)
            & (candidates[:, 0] < out_shape[0])
            & (candidates[:, 1] >= 0)
            & (candidates[:, 1] < out_shape[1])
        )
        valid = exact & in_bounds
        out_idx = _lookup_sorted(
            out_flat, flatten(candidates[valid], out_shape)
        )
        found = out_idx >= 0
        rules.pairs.append(
            RulePairs(all_in_idx[valid][found], out_idx[found])
        )
    return rules


def build_rules_delta(
    prev_rules: Rules,
    in_coords: np.ndarray,
    grid: PaddedGrid = None,
) -> Rules:
    """The new sequential frame's rules, seeded by the previous frame's.

    When the new frame's active set equals ``prev_rules.in_coords`` the
    previous structure is reused as-is: Rules are immutable once built,
    so the arrays are shared, not copied.  Any other frame is rebuilt
    through :func:`build_rules` with the previous frame's layer
    geometry — on the padded-table route a rebuild is a handful of
    P-element gathers, cheaper than patching the previous rules at every
    diff size.  Either way the result is bit-identical to
    :func:`build_rules_reference`.

    Args:
        prev_rules: Rules of the predecessor frame (same layer geometry).
        in_coords: (P, 2) CPR-sorted active coordinates of the new frame.
        grid: The input's :class:`PaddedGrid`, used by the rebuild; a
            shared result carries no output grid.

    Returns:
        A :class:`Rules` for the new frame.
    """
    in_coords = np.asarray(in_coords, dtype=np.int32)
    if np.array_equal(prev_rules.in_coords, in_coords):
        return Rules(
            conv_type=prev_rules.conv_type,
            kernel_size=prev_rules.kernel_size,
            stride=prev_rules.stride,
            in_shape=prev_rules.in_shape,
            out_shape=prev_rules.out_shape,
            in_coords=in_coords,
            out_coords=prev_rules.out_coords,
            pairs=[RulePairs(p.in_idx, p.out_idx) for p in prev_rules.pairs],
        )
    return build_rules(
        in_coords, tuple(prev_rules.in_shape), prev_rules.conv_type,
        prev_rules.kernel_size, prev_rules.stride, grid,
    )
