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

Three entry points share one output-set resolution:

* :func:`build_rules` — the **fused** path: all K kernel-offset candidate
  sets are formed as one (K, P) batch and resolved in one pass, instead
  of K separate lookups (rulegen is the repo's hot path; the per-offset
  Python loop was most of its overhead).  Like the RGU's streaming
  match, the pass never searches: on paper-sized grids it is one gather
  from a dense grid table mapping each active output cell to its row
  (:func:`_output_index`); only grids above the table cap
  (:data:`repro.sparse.coords._DENSE_TABLE_CELLS`) fall back to a
  ``searchsorted`` over the sorted output set;
* :func:`build_rules_sharded` — the **row-sharded** path mirroring the
  RGU's row-parallel processing of the CPR encoding: the frame is split
  into row bands along the CPR ``row_pointers``, each band resolves its
  candidates against the one shared output index, bands run
  concurrently (the numpy kernels release the GIL), and the merged
  per-offset lists are bit-identical to the unsharded reference;
* :func:`build_rules_reference` — the original per-offset loop, kept as
  the validation oracle the fused and sharded paths are asserted against
  (and as the "legacy" arm of the trace-scaling benchmark).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .coords import (
    _dense_table_fits,
    _unique_flat_sorted,
    cpr_encode,
    dilate,
    downsample_coords,
    flatten,
    kernel_offsets,
    sorted_set_diff,
    sorted_set_member,
    unflatten,
    upsample_coords,
)

#: Environment variable giving the default shard count for
#: :func:`build_rules_sharded` callers that do not pass one explicitly
#: (the engine's ``ExperimentRunner(rulegen_shards=...)`` knob reads it).
#: The canonical definition lives in :mod:`repro.engine.settings` — the
#: one place every engine knob is read — but the sparse layer cannot
#: import the engine at module level (the engine imports this module),
#: so the literal is mirrored here and pinned equal by a test.
RULEGEN_SHARDS_ENV_VAR = "REPRO_ENGINE_RULEGEN_SHARDS"

#: Fallback fraction for :func:`build_rules_delta`: when the diff against
#: the previous frame touches more than this fraction of the new frame's
#: pillars, patching costs more than rebuilding and the delta path falls
#: back to the fused full build.  Mirrored from
#: :mod:`repro.engine.settings` for the same import-cycle reason as
#: :data:`RULEGEN_SHARDS_ENV_VAR`; pinned equal by a test.
DELTA_THRESHOLD_ENV_VAR = "REPRO_ENGINE_DELTA_THRESHOLD"


def resolve_delta_threshold(value=None) -> float:
    """Validate a delta-fallback fraction; ``None`` reads the environment.

    Delegates to the engine's ``delta_threshold`` knob
    (:meth:`repro.engine.settings.EngineSettings.resolve_one`; lazy
    import, same reason as :func:`resolve_rulegen_shards`).  Values
    outside ``(0, 1]`` raise a :class:`ValueError` naming the source; the
    default is 0.5.
    """
    from ..engine.settings import EngineSettings

    return EngineSettings.resolve_one("delta_threshold", value)


def resolve_rulegen_shards(value=None) -> int:
    """Validate a shard count; ``None`` falls back to the environment.

    Delegates to the engine's ``rulegen_shards`` knob
    (:meth:`repro.engine.settings.EngineSettings.resolve_one`, where
    every engine environment knob is declared) — imported lazily to keep
    the sparse layer free of module-level engine dependencies.
    Non-integer and non-positive values raise a :class:`ValueError`
    naming the offending source; with no explicit value and no
    environment override the result is 1 (unsharded).
    """
    from ..engine.settings import EngineSettings

    return EngineSettings.resolve_one("rulegen_shards", value)


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
    """Input/output row indices for one kernel offset."""

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
        pairs: One :class:`RulePairs` per kernel offset, weight-index order.
    """

    conv_type: ConvType
    kernel_size: int
    stride: int
    in_shape: tuple
    out_shape: tuple
    in_coords: np.ndarray
    out_coords: np.ndarray
    pairs: list = field(default_factory=list)

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


def _lookup_sorted(haystack_flat: np.ndarray, needles_flat: np.ndarray) -> np.ndarray:
    """Indices of needles in a sorted haystack, -1 when absent."""
    if len(haystack_flat) == 0 or len(needles_flat) == 0:
        return np.full(len(needles_flat), -1, dtype=np.int64)
    pos = np.searchsorted(haystack_flat, needles_flat)
    pos = np.clip(pos, 0, len(haystack_flat) - 1)
    found = haystack_flat[pos] == needles_flat
    return np.where(found, pos, -1).astype(np.int64)


def _resolve_output(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int,
    stride: int,
) -> tuple:
    """(out_coords, out_shape, effective kernel_size) of one layer."""
    if conv_type in (ConvType.SPCONV, ConvType.SPCONV_P):
        if stride != 1:
            raise ValueError("use ConvType.STRIDED for stride > 1")
        return dilate(in_coords, in_shape, kernel_size), in_shape, kernel_size
    if conv_type is ConvType.SUBM:
        if stride != 1:
            raise ValueError("submanifold convolution requires stride 1")
        return in_coords.copy(), in_shape, kernel_size
    if conv_type is ConvType.STRIDED:
        if stride < 2:
            raise ValueError("STRIDED requires stride >= 2")
        out_coords, out_shape = downsample_coords(in_coords, in_shape, stride)
        return out_coords, out_shape, kernel_size
    if conv_type is ConvType.STRIDED_SUBM:
        # Submanifold-style downsampling (SpConv-S models): an output is
        # active only where an input maps directly under the stride, so
        # no spatial dilation is introduced (paper Fig. 2(f), IOPR ~= 1).
        if stride < 2:
            raise ValueError("STRIDED_SUBM requires stride >= 2")
        out_shape = (
            (in_shape[0] + stride - 1) // stride,
            (in_shape[1] + stride - 1) // stride,
        )
        if len(in_coords):
            direct = _unique_flat_sorted(
                flatten(in_coords // stride, out_shape),
                out_shape[0] * out_shape[1],
            )
            out_coords = unflatten(direct, out_shape)
        else:
            out_coords = np.zeros((0, 2), dtype=np.int32)
        return out_coords, out_shape, kernel_size
    if conv_type is ConvType.DECONV:
        if stride < 2:
            raise ValueError("DECONV requires stride >= 2")
        out_coords, out_shape = upsample_coords(in_coords, in_shape, stride)
        return out_coords, out_shape, stride
    raise ValueError(f"unsupported conv type {conv_type}")  # pragma: no cover


def _empty_rules(rules: Rules) -> Rules:
    empty = np.zeros(0, dtype=np.int64)
    num_offsets = rules.kernel_size * rules.kernel_size
    rules.pairs = [RulePairs(empty, empty) for _ in range(num_offsets)]
    return rules


def _output_index(out_flat: np.ndarray, out_shape: tuple):
    """Resolver mapping flat output cells to output rows (-1 if inactive).

    On grids within the dense-table cap
    (:data:`repro.sparse.coords._DENSE_TABLE_CELLS`) this is one int32
    grid table (``table[out_flat] = arange``, -1 elsewhere) and every
    lookup is a single gather; larger grids search the sorted
    ``out_flat`` instead.
    """
    cells = out_shape[0] * out_shape[1]
    if not _dense_table_fits(cells):
        return lambda needles: _lookup_sorted(out_flat, needles)
    table = np.full(cells, -1, dtype=np.int32)
    table[out_flat] = np.arange(len(out_flat), dtype=np.int32)
    return table.__getitem__


def _fused_pairs(
    in_block: np.ndarray,
    in_base: int,
    out_index,
    out_shape: tuple,
    conv_type: ConvType,
    kernel_size: int,
    stride: int,
) -> list:
    """Per-offset :class:`RulePairs` for one contiguous CPR input slice.

    All K kernel offsets are resolved in one batch: candidates form a
    (K, P) block, the valid ones are flattened offset-major and resolved
    by one ``out_index`` call (see :func:`_output_index`) instead of the
    K separate lookups of the reference loop.  ``in_base`` lifts
    block-local input rows to global indices for the sharded path.
    """
    rows = in_block[:, 0].astype(np.int64)
    cols = in_block[:, 1].astype(np.int64)

    if conv_type is ConvType.DECONV:
        offsets = np.array(
            [(dr, dc) for dr in range(stride) for dc in range(stride)],
            dtype=np.int64,
        )
        flat = (
            (rows[None, :] * stride + offsets[:, None, 0]) * out_shape[1]
            + cols[None, :] * stride
            + offsets[:, None, 1]
        )
        # Every upsampled position exists by construction, so the lookup
        # needs no found-mask.
        idx = out_index(flat.reshape(-1)).reshape(len(offsets), -1)
        return [
            RulePairs(
                in_base + np.arange(len(in_block), dtype=np.int64),
                idx[index].astype(np.int64),
            )
            for index in range(len(offsets))
        ]

    offsets = kernel_offsets(kernel_size).astype(np.int64)
    # Input p at kernel offset o feeds output q with stride*q + o = p.
    # Rows and columns stay separate planes: the (K, P) arithmetic is
    # materially cheaper than broadcasting a (K, P, 2) block.
    cand_rows = rows[None, :] - offsets[:, None, 0]
    cand_cols = cols[None, :] - offsets[:, None, 1]
    if stride == 1:
        valid = np.ones((len(offsets), len(in_block)), dtype=bool)
    else:
        valid = (cand_rows % stride == 0) & (cand_cols % stride == 0)
        cand_rows = cand_rows // stride
        cand_cols = cand_cols // stride
    valid &= (
        (cand_rows >= 0)
        & (cand_rows < out_shape[0])
        & (cand_cols >= 0)
        & (cand_cols < out_shape[1])
    )
    found = out_index((cand_rows * out_shape[1] + cand_cols)[valid])
    idx = np.full(valid.shape, -1, dtype=found.dtype)
    idx[valid] = found

    pairs = []
    for index in range(len(offsets)):
        hit = np.flatnonzero(idx[index] >= 0)
        pairs.append(RulePairs(in_base + hit,
                               idx[index, hit].astype(np.int64)))
    return pairs


def build_rules(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int = 3,
    stride: int = 1,
) -> Rules:
    """Generate the input-output mapping for one sparse convolution layer.

    This is the fused path: one (K, P) candidate batch, one output-index
    lookup.  Bit-identical to :func:`build_rules_reference`.

    Args:
        in_coords: (P, 2) CPR-sorted active input coordinates.
        in_shape: Dense input grid shape.
        conv_type: Which sparse convolution variant.
        kernel_size: Kernel edge; DECONV forces ``kernel_size = stride``.
        stride: 1 for SPCONV/SUBM/SPCONV_P; >=2 for STRIDED/DECONV.

    Returns:
        A :class:`Rules` with ascending per-offset index lists.
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
    rules.pairs = _fused_pairs(
        in_coords,
        0,
        _output_index(flatten(out_coords, out_shape), out_shape),
        out_shape,
        conv_type,
        kernel_size,
        stride,
    )
    return rules


def _band_bounds(row_pointers: np.ndarray, in_coords: np.ndarray,
                 shards: int) -> list:
    """Row-aligned (start, stop) pillar slices of ~equal population.

    Cut points target equal pillar counts, then snap outward to the CPR
    row boundary so every band is a whole number of rows (a row is the
    RGU's atomic work unit).  Degenerate frames (fewer occupied rows than
    shards) simply yield fewer bands.
    """
    total = len(in_coords)
    targets = (np.arange(1, shards) * total) // shards
    cut_rows = in_coords[targets, 0]
    starts = row_pointers[cut_rows]
    bounds = np.unique(np.concatenate([[0], starts, [total]]))
    return [
        (int(bounds[index]), int(bounds[index + 1]))
        for index in range(len(bounds) - 1)
        if bounds[index + 1] > bounds[index]
    ]


def build_rules_sharded(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int = 3,
    stride: int = 1,
    shards: int = None,
    max_workers: int = None,
) -> Rules:
    """Row-parallel rule generation over CPR row bands.

    The frame is split into ``shards`` contiguous row bands along the CPR
    ``row_pointers`` (the paper's RGU processes the CPR encoding
    row-parallel the same way); each band fuses its candidate lookups
    against one output index shared by all bands, bands run on a thread
    pool (the numpy kernels release the GIL), and the per-offset lists
    are merged in band order — which preserves the ascending-index
    invariant because bands partition the inputs in CPR order.

    The result is bit-identical to :func:`build_rules` /
    :func:`build_rules_reference` for every :class:`ConvType`, any shard
    count (including counts exceeding the occupied-row count) and empty
    frames.

    Args:
        shards: Number of row bands; ``None`` reads
            ``REPRO_ENGINE_RULEGEN_SHARDS`` (default 1).  Values larger
            than the occupied-row count degrade gracefully.
        max_workers: Thread-pool width for the band fan-out; defaults to
            ``min(bands, cpu_count)``.
    """
    shards = resolve_rulegen_shards(shards)
    in_coords = np.asarray(in_coords, dtype=np.int32)
    if shards <= 1 or len(in_coords) == 0:
        return build_rules(in_coords, in_shape, conv_type, kernel_size,
                           stride)

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

    row_pointers, _ = cpr_encode(in_coords, in_shape)
    bands = _band_bounds(row_pointers, in_coords, shards)
    # Every band resolves against the one shared output index.
    out_index = _output_index(flatten(out_coords, out_shape), out_shape)

    def band_pairs(bounds: tuple) -> list:
        start, stop = bounds
        return _fused_pairs(
            in_coords[start:stop],
            start,
            out_index,
            out_shape,
            conv_type,
            kernel_size,
            stride,
        )

    if len(bands) > 1:
        workers = max_workers or min(len(bands), os.cpu_count() or 1)
    else:
        workers = 1
    if workers > 1:
        with ThreadPoolExecutor(min(workers, len(bands))) as pool:
            per_band = list(pool.map(band_pairs, bands))
    else:
        per_band = [band_pairs(bounds) for bounds in bands]

    num_offsets = len(per_band[0])
    rules.pairs = [
        RulePairs(
            np.concatenate([band[index].in_idx for band in per_band]),
            np.concatenate([band[index].out_idx for band in per_band]),
        )
        for index in range(num_offsets)
    ]
    return rules


def build_rules_reference(
    in_coords: np.ndarray,
    in_shape: tuple,
    conv_type: ConvType,
    kernel_size: int = 3,
    stride: int = 1,
) -> Rules:
    """The original per-offset rule-generation loop (validation oracle).

    K separate lookups, one per kernel offset — the pre-fusion hot path.
    :func:`build_rules` and :func:`build_rules_sharded` are asserted
    bit-identical to this implementation in the test suite, and the
    trace-scaling benchmark measures the fused speedup against it.
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
            in_idx = np.arange(len(in_coords), dtype=np.int64)
            rules.pairs.append(RulePairs(in_idx, out_idx))
        return rules

    offsets = kernel_offsets(kernel_size)
    all_in_idx = np.arange(len(in_coords), dtype=np.int64)
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


def _any_active(rows: np.ndarray, cols: np.ndarray, shape: tuple,
                active_flat: np.ndarray,
                active_mask: np.ndarray = None) -> np.ndarray:
    """Column-wise "any candidate is active": rows/cols are (K, B) planes.

    Out-of-bounds candidates count as inactive; membership resolves
    against the sorted ``active_flat`` set, or — when the caller has a
    dense cell mask of the same set — as one ``active_mask`` gather.
    """
    valid = (
        (rows >= 0) & (rows < shape[0]) & (cols >= 0) & (cols < shape[1])
    )
    hit = np.zeros(rows.shape, dtype=bool)
    if valid.any() and len(active_flat):
        flat = rows * shape[1] + cols
        if active_mask is not None:
            hit[valid] = active_mask[flat[valid]]
        else:
            hit[valid] = sorted_set_member(active_flat, flat[valid])
    return hit.any(axis=0)


def _forward_out_flat(coords: np.ndarray, in_shape: tuple, out_shape: tuple,
                      conv_type: ConvType, kernel_size: int,
                      stride: int) -> np.ndarray:
    """Sorted flat output positions a coordinate subset can activate.

    This is the per-type out-set map restricted to ``coords`` — exactly
    the construction :func:`_resolve_output` applies to the full frame,
    so born/dead output candidates of a frame diff are its image of the
    added/removed inputs.
    """
    coords = np.asarray(coords, dtype=np.int32)
    if len(coords) == 0:
        return np.zeros(0, dtype=np.int64)
    if conv_type in (ConvType.SPCONV, ConvType.SPCONV_P):
        return flatten(dilate(coords, in_shape, kernel_size), out_shape)
    if conv_type is ConvType.SUBM:
        return flatten(coords, out_shape)
    if conv_type is ConvType.STRIDED:
        image, _ = downsample_coords(coords, in_shape, stride)
        return flatten(image, out_shape)
    if conv_type is ConvType.STRIDED_SUBM:
        return _unique_flat_sorted(
            flatten(coords // stride, out_shape),
            out_shape[0] * out_shape[1],
        )
    if conv_type is ConvType.DECONV:
        image, _ = upsample_coords(coords, in_shape, stride)
        return flatten(image, out_shape)
    raise ValueError(f"unsupported conv type {conv_type}")  # pragma: no cover


def _supported_mask(out_cand: np.ndarray, new_in_flat: np.ndarray,
                    in_shape: tuple, conv_type: ConvType, kernel_size: int,
                    stride: int,
                    active_mask: np.ndarray = None) -> np.ndarray:
    """Which dead-output candidates still have support in the new frame.

    An output position stays active when any input of its receptive
    window survives; the window inverse per type mirrors the out-set
    definitions in :mod:`repro.sparse.coords` (note STRIDED's window is
    ``kernel_offsets(3)`` — :func:`downsample_coords` fixes the support
    window at the usual kernel-3/pad-1 geometry regardless of the layer
    kernel, and the delta path must match it exactly).
    """
    q_rows = out_cand[:, 0].astype(np.int64)
    q_cols = out_cand[:, 1].astype(np.int64)
    if conv_type in (ConvType.SPCONV, ConvType.SPCONV_P):
        offsets = kernel_offsets(kernel_size).astype(np.int64)
        rows = q_rows[None, :] - offsets[:, None, 0]
        cols = q_cols[None, :] - offsets[:, None, 1]
    elif conv_type is ConvType.STRIDED:
        offsets = kernel_offsets(3).astype(np.int64)
        rows = q_rows[None, :] * stride + offsets[:, None, 0]
        cols = q_cols[None, :] * stride + offsets[:, None, 1]
    elif conv_type is ConvType.STRIDED_SUBM:
        offsets = np.array(
            [(dr, dc) for dr in range(stride) for dc in range(stride)],
            dtype=np.int64,
        )
        rows = q_rows[None, :] * stride + offsets[:, None, 0]
        cols = q_cols[None, :] * stride + offsets[:, None, 1]
    else:  # pragma: no cover - DECONV outputs die with their input
        raise ValueError(f"no support window for {conv_type}")
    return _any_active(rows, cols, in_shape, new_in_flat,
                       active_mask=active_mask)


def build_rules_delta(
    prev_rules: Rules,
    in_coords: np.ndarray,
    added: np.ndarray = None,
    removed: np.ndarray = None,
    threshold: float = None,
    shards: int = None,
) -> Rules:
    """Patch the previous frame's rules into the new frame's rules.

    Sequential point-cloud frames share most of their active pillars, so
    instead of rebuilding the CPR structure and per-offset rule lists
    from scratch this diffs frame N against frame N-1
    (:func:`repro.sparse.coords.sorted_set_diff`), derives the born/dead
    output positions from the images of the added/removed inputs, renames
    the surviving indices with cumulative-shift arithmetic and only
    resolves candidate windows for the *delta*: pairs of added inputs and
    pairs of surviving inputs landing on born outputs.  The result is
    bit-identical to :func:`build_rules_reference` — the same parity
    contract the fused and sharded paths honor.

    Args:
        prev_rules: Rules of the predecessor frame (same layer geometry).
        in_coords: (P, 2) CPR-sorted active coordinates of the new frame.
        added / removed: Optional pre-computed (A, 2) / (R, 2) coordinate
            diffs; derived from ``prev_rules.in_coords`` when omitted.
        threshold: Fallback fraction in ``(0, 1]``; when the diff exceeds
            ``threshold * len(in_coords)`` the patch would cost more than
            a rebuild and the full fused path runs instead.  ``None``
            reads ``REPRO_ENGINE_DELTA_THRESHOLD`` (default 0.5).
        shards: Row-shard count used by the full-rebuild fallback.

    Returns:
        A :class:`Rules` for the new frame.
    """
    conv_type = prev_rules.conv_type
    kernel_size = prev_rules.kernel_size
    stride = prev_rules.stride
    in_shape = tuple(prev_rules.in_shape)
    out_shape = tuple(prev_rules.out_shape)
    in_coords = np.asarray(in_coords, dtype=np.int32)

    def full_build() -> Rules:
        return build_rules_sharded(
            in_coords, in_shape, conv_type, kernel_size, stride,
            shards=shards,
        )

    old_in = prev_rules.in_coords
    if len(old_in) == 0 or len(in_coords) == 0:
        return full_build()

    old_in_flat = flatten(old_in, in_shape)
    new_in_flat = flatten(in_coords, in_shape)
    # On paper-sized grids every membership / rank query resolves as an
    # O(1) gather against dense cell masks instead of a log-time
    # searchsorted — the same dense-vs-sort crossover
    # :data:`repro.sparse.coords._DENSE_TABLE_CELLS` encodes.
    in_cells = in_shape[0] * in_shape[1]
    out_cells = out_shape[0] * out_shape[1]
    dense = _dense_table_fits(max(in_cells, out_cells))
    new_in_mask = None
    if dense:
        new_in_mask = np.zeros(in_cells, dtype=bool)
        new_in_mask[new_in_flat] = True
    if added is None or removed is None:
        if dense:
            old_in_mask = np.zeros(in_cells, dtype=bool)
            old_in_mask[old_in_flat] = True
            added_flat = new_in_flat[~old_in_mask[new_in_flat]]
            removed_flat = old_in_flat[~new_in_mask[old_in_flat]]
        else:
            added_flat, removed_flat = sorted_set_diff(old_in_flat,
                                                       new_in_flat)
    else:
        added_flat = flatten(
            np.asarray(added, dtype=np.int32).reshape(-1, 2), in_shape
        )
        removed_flat = flatten(
            np.asarray(removed, dtype=np.int32).reshape(-1, 2), in_shape
        )

    delta = len(added_flat) + len(removed_flat)
    if delta == 0:
        # Identical frame: the previous structure is reusable as-is
        # (Rules are immutable once built; arrays are shared, not copied).
        return Rules(
            conv_type=conv_type,
            kernel_size=kernel_size,
            stride=stride,
            in_shape=prev_rules.in_shape,
            out_shape=prev_rules.out_shape,
            in_coords=in_coords,
            out_coords=prev_rules.out_coords,
            pairs=[RulePairs(p.in_idx, p.out_idx) for p in prev_rules.pairs],
        )
    if delta > resolve_delta_threshold(threshold) * len(in_coords):
        return full_build()
    if conv_type is ConvType.DECONV:
        # Non-overlapping upsampling has no candidate windows to skip:
        # the full build is one unfiltered lookup per offset and
        # measures faster than any patch, so a non-identical DECONV
        # frame always rebuilds.
        return full_build()

    added_coords = unflatten(added_flat, in_shape)
    removed_coords = unflatten(removed_flat, in_shape)
    old_out_flat = flatten(prev_rules.out_coords, out_shape)
    if dense:
        removed_in_mask = ~new_in_mask[old_in_flat]
    else:
        removed_in_mask = sorted_set_member(removed_flat, old_in_flat)
    # Per-offset "this pair's input survives" masks; the pair-liveness
    # branch below fills them and the merge loop reuses them.
    keep_in_masks = None

    # --- output-set delta -------------------------------------------------
    if conv_type is ConvType.SUBM:
        # Output set == input set: the diff carries over verbatim (the
        # old output set is the old input set, so its removal mask is
        # the input one).
        added_out_flat = added_flat
        removed_out_mask = removed_in_mask
        new_out_flat = new_in_flat
        out_coords = in_coords.copy()
    else:
        born_cand = _forward_out_flat(
            added_coords, in_shape, out_shape, conv_type, kernel_size,
            stride,
        )
        if dense:
            old_out_mask = np.zeros(out_cells, dtype=bool)
            old_out_mask[old_out_flat] = True
            added_out_flat = born_cand[~old_out_mask[born_cand]]
        else:
            added_out_flat = born_cand[~sorted_set_member(old_out_flat,
                                                          born_cand)]
        if (conv_type in (ConvType.SPCONV, ConvType.SPCONV_P)
                and kernel_size % 2 == 1):
            # Stride-1 dilation with a symmetric offset set: the pair
            # window equals the support window, so an old output
            # survives exactly when it keeps a pair with a surviving
            # input or an added input dilates onto it — liveness falls
            # out of the pairs we must scan anyway, with no
            # candidate-window resolution at all.  (Even kernels break
            # the symmetry: pairs probe ``q + o`` while dilation
            # support is ``q - o``, so they take the window path.)
            if dense:
                born_mask = np.zeros(out_cells, dtype=bool)
                born_mask[born_cand] = True
                alive = born_mask[old_out_flat]
            else:
                alive = sorted_set_member(born_cand, old_out_flat)
            keep_in_masks = []
            for prev_pair in prev_rules.pairs:
                keep_in = ~removed_in_mask[prev_pair.in_idx]
                keep_in_masks.append(keep_in)
                alive[prev_pair.out_idx[keep_in]] = True
            removed_out_mask = ~alive
        else:
            dead_cand = _forward_out_flat(
                removed_coords, in_shape, out_shape, conv_type,
                kernel_size, stride,
            )
            if dense:
                dead_cand = dead_cand[old_out_mask[dead_cand]]
            else:
                dead_cand = dead_cand[sorted_set_member(old_out_flat,
                                                        dead_cand)]
            if conv_type is ConvType.DECONV:
                # Upsampled blocks are disjoint per input: outputs of a
                # removed input cannot be supported by any other input.
                removed_out_flat = dead_cand
            elif len(dead_cand):
                supported = _supported_mask(
                    unflatten(dead_cand, out_shape), new_in_flat,
                    in_shape, conv_type, kernel_size, stride,
                    active_mask=new_in_mask,
                )
                removed_out_flat = dead_cand[~supported]
            else:
                removed_out_flat = dead_cand
            if dense:
                dead_mask = np.zeros(out_cells, dtype=bool)
                dead_mask[removed_out_flat] = True
                removed_out_mask = dead_mask[old_out_flat]
            else:
                removed_out_mask = sorted_set_member(removed_out_flat,
                                                     old_out_flat)
        survivors_out = old_out_flat[~removed_out_mask]
        new_out_flat = np.insert(
            survivors_out,
            np.searchsorted(survivors_out, added_out_flat),
            added_out_flat,
        )
        out_coords = unflatten(new_out_flat, out_shape)

    # --- index renumbering ------------------------------------------------
    # New index of a surviving old entry = old index minus removals below
    # it plus additions below it (garbage for removed entries, which the
    # keep masks never select).  These stay O(P) sorted-set arithmetic
    # even on the dense route: a dense cumulative-rank table would cost
    # a grid-sized ``cumsum``, which measures an order of magnitude
    # slower than these P-sized passes.
    new_idx_of_old_in = (
        np.arange(len(old_in_flat), dtype=np.int64)
        - np.cumsum(removed_in_mask, dtype=np.int64)
        + np.searchsorted(added_flat, old_in_flat)
    )
    added_in_new_idx = np.searchsorted(new_in_flat, added_flat)
    if conv_type is ConvType.SUBM:
        # Identical in/out sets: the renumber tables carry over.
        new_idx_of_old_out = new_idx_of_old_in
        added_out_new_idx = added_in_new_idx
    else:
        new_idx_of_old_out = (
            np.arange(len(old_out_flat), dtype=np.int64)
            - np.cumsum(removed_out_mask, dtype=np.int64)
            + np.searchsorted(added_out_flat, old_out_flat)
        )
        added_out_new_idx = np.searchsorted(new_out_flat, added_out_flat)

    # --- pair sources -----------------------------------------------------
    empty = np.zeros(0, dtype=np.int64)
    num_offsets = len(prev_rules.pairs)

    # (b) added inputs against the full new output set: one fused batch.
    if len(added_flat):
        added_pairs = _fused_pairs(
            added_coords, 0, _output_index(new_out_flat, out_shape),
            out_shape, conv_type, kernel_size, stride,
        )
    else:
        added_pairs = [RulePairs(empty, empty)] * num_offsets

    # (c) surviving inputs feeding born outputs: invert the pair geometry
    # per offset (input p feeds q at offset o with p = stride*q + o) and
    # keep candidates that are surviving members of the old input set.
    born_in_idx = [empty] * num_offsets
    born_out_idx = [empty] * num_offsets
    if len(added_out_flat) and conv_type is not ConvType.DECONV:
        born = unflatten(added_out_flat, out_shape)
        offsets = kernel_offsets(kernel_size).astype(np.int64)
        rows = born[:, 0].astype(np.int64)[None, :] * stride \
            + offsets[:, None, 0]
        cols = born[:, 1].astype(np.int64)[None, :] * stride \
            + offsets[:, None, 1]
        valid = (
            (rows >= 0) & (rows < in_shape[0])
            & (cols >= 0) & (cols < in_shape[1])
        )
        if dense:
            # Dense survivor table: a cell's *new* input index, or -1
            # when no surviving input occupies it — one gather resolves
            # window membership and renumbering together.
            surviving = ~removed_in_mask
            surv_new_idx = np.full(in_cells, -1, dtype=np.int64)
            surv_new_idx[old_in_flat[surviving]] = (
                new_idx_of_old_in[surviving]
            )
            vals = np.full(rows.shape, -1, dtype=np.int64)
            if valid.any():
                vals[valid] = surv_new_idx[
                    (rows * in_shape[1] + cols)[valid]
                ]
            hit = vals >= 0
            for index in range(num_offsets):
                cols_k = np.flatnonzero(hit[index])
                if len(cols_k):
                    born_in_idx[index] = vals[index, cols_k]
                    born_out_idx[index] = added_out_new_idx[cols_k]
        else:
            pos = np.full(rows.shape, -1, dtype=np.int64)
            if valid.any():
                pos[valid] = _lookup_sorted(
                    old_in_flat, (rows * in_shape[1] + cols)[valid]
                )
            hit = pos >= 0
            hit[hit] = ~removed_in_mask[pos[hit]]
            for index in range(num_offsets):
                cols_k = np.flatnonzero(hit[index])
                if len(cols_k):
                    born_in_idx[index] = (
                        new_idx_of_old_in[pos[index, cols_k]]
                    )
                    born_out_idx[index] = added_out_new_idx[cols_k]

    # (a) surviving old pairs, renumbered, merged with (b) and (c).  The
    # three sources partition the new pairs by (input, output) membership
    # in {survivor, added/born}, so their input indices are disjoint
    # within an offset and one sort restores the ascending invariant.
    pairs = []
    for index, prev_pair in enumerate(prev_rules.pairs):
        keep_in = (keep_in_masks[index] if keep_in_masks is not None
                   else ~removed_in_mask[prev_pair.in_idx])
        keep = keep_in & ~removed_out_mask[prev_pair.out_idx]
        surv_in = new_idx_of_old_in[prev_pair.in_idx[keep]]
        surv_out = new_idx_of_old_out[prev_pair.out_idx[keep]]
        fresh_in = np.concatenate([
            added_in_new_idx[added_pairs[index].in_idx],
            born_in_idx[index],
        ])
        if len(fresh_in) == 0:
            pairs.append(RulePairs(surv_in, surv_out))
            continue
        fresh_out = np.concatenate([
            added_pairs[index].out_idx,
            born_out_idx[index],
        ])
        order = np.argsort(fresh_in, kind="stable")
        fresh_in = fresh_in[order]
        fresh_out = fresh_out[order]
        # Input indices are unique within an offset (input p feeds
        # exactly one output per offset) and the survivors are already
        # ascending, so a linear scatter merge of the two sorted runs
        # restores the invariant without argsorting the whole offset.
        slots = (np.searchsorted(surv_in, fresh_in)
                 + np.arange(len(fresh_in), dtype=np.int64))
        total = len(surv_in) + len(fresh_in)
        in_all = np.empty(total, dtype=np.int64)
        out_all = np.empty(total, dtype=np.int64)
        surv_slots = np.ones(total, dtype=bool)
        surv_slots[slots] = False
        in_all[slots] = fresh_in
        out_all[slots] = fresh_out
        in_all[surv_slots] = surv_in
        out_all[surv_slots] = surv_out
        pairs.append(RulePairs(in_all, out_all))

    return Rules(
        conv_type=conv_type,
        kernel_size=kernel_size,
        stride=stride,
        in_shape=prev_rules.in_shape,
        out_shape=prev_rules.out_shape,
        in_coords=in_coords,
        out_coords=out_coords,
        pairs=pairs,
    )
