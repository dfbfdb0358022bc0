"""Compressed-pillar-row (CPR) coordinate handling.

CPR is the paper's sparse row-wise encoding of active pillar coordinates:
pillars are stored sorted by (row, col), so indices increase monotonically
within each row and across rows.  Every algorithm in SPADE — rule
generation, active-tile management, conflict-free scatter — relies on this
monotonicity, so this module is the single source of truth for coordinate
ordering and conversion.

Coordinates are ``(row, col)`` int32 pairs throughout the library.
"""

from __future__ import annotations

import numpy as np


def cpr_encode(coords: np.ndarray, shape: tuple) -> tuple:
    """Encode CPR-sorted coordinates as (row_pointers, column_indices).

    This is the compressed-pillar-row format the paper names: like
    compressed sparse row, ``row_pointers`` has ``shape[0] + 1`` entries
    and ``column_indices[row_pointers[r]:row_pointers[r+1]]`` lists the
    active columns of row ``r`` in ascending order.  The RGU's alignment
    stage consumes exactly this representation.
    """
    coords = np.asarray(coords, dtype=np.int32)
    validate_coords(coords, shape)
    row_pointers = np.searchsorted(
        coords[:, 0], np.arange(shape[0] + 1)
    ).astype(np.int64)
    return row_pointers, coords[:, 1].copy()


def cpr_decode(row_pointers: np.ndarray, column_indices: np.ndarray) -> np.ndarray:
    """Inverse of :func:`cpr_encode`: reconstruct (row, col) pairs."""
    row_pointers = np.asarray(row_pointers, dtype=np.int64)
    column_indices = np.asarray(column_indices, dtype=np.int32)
    counts = np.diff(row_pointers)
    rows = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return np.stack([rows, column_indices], axis=1)


def flatten(coords: np.ndarray, shape: tuple) -> np.ndarray:
    """Convert (row, col) pairs to flat row-major indices."""
    coords = np.asarray(coords)
    return coords[:, 0].astype(np.int64) * shape[1] + coords[:, 1]


def unflatten(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """Convert flat row-major indices back to (row, col) pairs.

    Grids whose cell count fits int32 divide in int32, about 3x faster
    than int64 ``//`` and ``%``; larger grids keep int64 arithmetic.
    """
    width = shape[1]
    fits = shape[0] * width <= np.iinfo(np.int32).max
    flat = np.asarray(flat).astype(np.int32 if fits else np.int64,
                                   copy=False)
    out = np.empty((len(flat), 2), dtype=np.int32)
    rows = flat // width
    out[:, 0] = rows
    out[:, 1] = flat - rows * width
    return out


def cpr_sort(coords: np.ndarray, shape: tuple) -> tuple:
    """Sort coordinates into CPR order.

    Returns:
        (sorted_coords, permutation) where ``sorted_coords = coords[permutation]``.
    """
    coords = np.asarray(coords, dtype=np.int32)
    if len(coords) == 0:
        return coords.reshape(0, 2), np.zeros(0, dtype=np.int64)
    order = np.argsort(flatten(coords, shape), kind="stable")
    return coords[order], order


def is_cpr_sorted(coords: np.ndarray, shape: tuple) -> bool:
    """Check that coordinates are unique and strictly CPR-ordered."""
    coords = np.asarray(coords)
    if len(coords) <= 1:
        return True
    flat = flatten(coords, shape)
    return bool(np.all(np.diff(flat) > 0))


def validate_coords(coords: np.ndarray, shape: tuple) -> None:
    """Raise ValueError unless coords are in-bounds, unique and CPR-sorted."""
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (P, 2), got {coords.shape}")
    if len(coords) == 0:
        return
    if coords.min() < 0:
        raise ValueError("negative coordinate")
    if coords[:, 0].max() >= shape[0] or coords[:, 1].max() >= shape[1]:
        raise ValueError(f"coordinate out of bounds for grid {shape}")
    if not is_cpr_sorted(coords, shape):
        raise ValueError("coords not unique/CPR-sorted")


def kernel_offsets(kernel_size: int) -> np.ndarray:
    """Enumerate kernel offsets in row-major weight-index order.

    For a 3x3 kernel the offsets run (-1,-1), (-1,0), ..., (1,1), matching
    weight indices 0..8 used by the paper's weight-grouping discussion
    (Fig. 8(a) numbers weights 0..8 in this order).
    """
    half = (kernel_size - 1) // 2
    offs = [
        (dr, dc)
        for dr in range(-half, kernel_size - half)
        for dc in range(-half, kernel_size - half)
    ]
    return np.array(offs, dtype=np.int32)


#: Grids up to this many cells resolve trace-stage set operations through
#: dense grid tables indexed by flat cell — a boolean mask for unique
#: sets, a halo-padded int32 index table for rule generation, a float64
#: table for the branch-union importance — each one linear pass instead
#: of a hash ``np.unique`` or a log-time ``searchsorted``.  The paper's
#: BEV grids are at most 1024x1024 (2**20 cells), where the tables win
#: by an order of magnitude; the cap bounds the largest table at 32 MB
#: (float64) and larger virtual grids keep the sorted / hashed code.
_DENSE_TABLE_CELLS = 1 << 22


def _dense_table_fits(cells: int) -> bool:
    """Whether a grid of ``cells`` cells takes the dense-table route."""
    return cells <= _DENSE_TABLE_CELLS


def _unique_flat_sorted(flat: np.ndarray, total: int) -> np.ndarray:
    """Ascending unique flat indices (all in ``[0, total)``)."""
    if _dense_table_fits(total):
        mask = np.zeros(total, dtype=bool)
        mask[flat] = True
        return np.flatnonzero(mask)
    return np.unique(flat)


def dilate(coords: np.ndarray, shape: tuple, kernel_size: int = 3) -> np.ndarray:
    """Return the CPR-sorted dilation of an active set by a kernel footprint.

    The dilation is the set of output positions whose receptive field
    touches at least one active input — the active output set of a
    standard (dilating) sparse convolution.
    """
    coords = np.asarray(coords, dtype=np.int32)
    if len(coords) == 0:
        return coords.reshape(0, 2)
    offsets = kernel_offsets(kernel_size).astype(np.int64)
    rows = coords[:, 0].astype(np.int64)[None, :] + offsets[:, None, 0]
    cols = coords[:, 1].astype(np.int64)[None, :] + offsets[:, None, 1]
    in_bounds = (
        (rows >= 0) & (rows < shape[0]) & (cols >= 0) & (cols < shape[1])
    )
    flat = (rows * shape[1] + cols)[in_bounds]
    return unflatten(_unique_flat_sorted(flat, shape[0] * shape[1]), shape)


def downsample_coords(coords: np.ndarray, shape: tuple, stride: int) -> tuple:
    """Active output set of a strided (stride>=2) dilating sparse conv.

    Output position ``q`` covers input window ``stride*q + [-1, ks-2]`` for
    the usual kernel=3 / pad=1 convolution; an output is active when any
    input in its window is active.  Returns ``(out_coords, out_shape)``:
    every (offset, input) candidate is formed in separate int64 row and
    column (9, P) planes — materially cheaper than one (9, P, 2) block —
    and the exact, in-bounds quotients are de-duplicated by
    :func:`_unique_flat_sorted`.
    """
    out_shape = ((shape[0] + stride - 1) // stride, (shape[1] + stride - 1) // stride)
    if len(coords) == 0:
        return np.zeros((0, 2), dtype=np.int32), out_shape
    offsets = kernel_offsets(3).astype(np.int64)
    # q is active iff exists offset o with stride*q + o active  <=>
    # q = (p - o) / stride for some active p and offset o, exactly divisible.
    rows = coords[:, 0].astype(np.int64)[None, :] - offsets[:, None, 0]
    cols = coords[:, 1].astype(np.int64)[None, :] - offsets[:, None, 1]
    valid = (rows % stride == 0) & (cols % stride == 0)
    rows //= stride
    cols //= stride
    valid &= (
        (rows >= 0) & (rows < out_shape[0]) & (cols >= 0) & (cols < out_shape[1])
    )
    flat = (rows * out_shape[1] + cols)[valid]
    if len(flat) == 0:
        return np.zeros((0, 2), dtype=np.int32), out_shape
    unique_flat = _unique_flat_sorted(flat, out_shape[0] * out_shape[1])
    return unflatten(unique_flat, out_shape), out_shape


def upsample_coords(coords: np.ndarray, shape: tuple, stride: int) -> tuple:
    """Active output set of a non-overlapping sparse deconvolution.

    Each input pillar ``p`` produces the ``stride x stride`` output block at
    ``stride*p``; blocks of distinct inputs never overlap, which is the
    property the paper's ganged-scatter optimization exploits.
    """
    out_shape = (shape[0] * stride, shape[1] * stride)
    if len(coords) == 0:
        return np.zeros((0, 2), dtype=np.int32), out_shape
    offsets = np.array(
        [(dr, dc) for dr in range(stride) for dc in range(stride)], dtype=np.int32
    )
    outputs = (coords[:, None, :] * stride + offsets[None, :, :]).reshape(-1, 2)
    unique_flat = _unique_flat_sorted(
        flatten(outputs, out_shape), out_shape[0] * out_shape[1]
    )
    return unflatten(unique_flat, out_shape), out_shape
