"""Pillar encoding: point cloud -> sparse BEV pillars -> pseudo-image.

PointPillars aggregates the points falling into each BEV cell (a *pillar*)
into a C-element feature vector via a small PointNet, then scatters the
active pillar vectors into a dense ``C x H x W`` pseudo-image.  This module
implements the voxelization / decoration / scatter steps; the learned
PointNet lives in :mod:`repro.nn.pointnet`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .pointcloud import PointCloud

#: Per-point decorated feature layout used by PointPillars:
#: (x, y, z, intensity, xc, yc, zc, xp, yp) where *c is the offset from the
#: pillar's point centroid and *p the offset from the pillar center.
DECORATED_DIM = 9


@dataclass
class PillarFrame:
    """The active pillars of one sweep, as the accelerator reads them.

    RuleGen, the GSU planner and the simulators see a sweep only through
    where its valid pillars are and how many points each holds.
    :class:`~repro.engine.runner.FrameProvider` caches frames of this
    type, so a cached frame costs its pillars and not the decorated
    point features that only the learned encoders read.

    Attributes:
        coords: (P, 2) int32 array of (row, col) pillar coordinates sorted
            in CPR (row-major) order.
        point_counts: (P,) int32 number of real points per pillar.
        grid: The grid the coordinates refer to.
    """

    coords: np.ndarray
    point_counts: np.ndarray
    grid: GridSpec

    @property
    def num_active(self) -> int:
        """Number of active (non-empty) pillars."""
        return len(self.coords)

    @property
    def occupancy(self) -> float:
        """Fraction of grid cells that are active."""
        return self.num_active / self.grid.num_pillars


@dataclass
class PillarBatch(PillarFrame):
    """A :class:`PillarFrame` with the decorated point features.

    :func:`voxelize` returns this type; the PointNet encoders of
    :mod:`repro.models` read ``point_features``.

    Attributes:
        point_features: (P, max_points, 9) float32 decorated point features,
            zero padded.
    """

    point_features: np.ndarray


def voxelize(
    cloud: PointCloud,
    grid: GridSpec,
    max_points_per_pillar: int = 32,
    max_pillars: int = None,
) -> PillarBatch:
    """Bin a point cloud into active pillars with decorated point features.

    Binning is one stable sort of the flat cell indices, and a pillar
    starts wherever the sorted cells change (``sorted[1:] !=
    sorted[:-1]``), so the cells are not sorted a second time.
    Decoration is array-wide: a segment sum per pillar for the centroid,
    then one (K, 9) row block for the K kept points, written with a
    single row scatter into the ``(P * max_points, 9)`` view of the
    features.  Each point keeps its position in the sorted order, so a
    pillar's first ``max_points_per_pillar`` points fill its slots and
    the rest only move its centroid.

    Args:
        cloud: Input sweep.  Points outside the grid's range are left
            out; a cloud already cropped to it (as
            :meth:`~repro.data.synthetic.SceneGenerator.generate` makes
            them) is read without a copy.  The cloud is not modified.
        grid: Target BEV grid.
        max_points_per_pillar: Points beyond this per pillar are dropped
            (random subsampling would need an RNG; we keep the first K,
            which matches the deterministic OpenPCDet fast path).
        max_pillars: Optional cap on the number of pillars (densest first
            is *not* used; we keep CPR order and truncate, as the CUDA
            voxelizer does).

    Returns:
        A :class:`PillarBatch` with coordinates in CPR order.
    """
    points, intensity = cloud.points, cloud.intensity
    inside = cloud.in_range(grid)
    if not inside.all():
        points, intensity = points[inside], intensity[inside]
    cols = ((points[:, 0] - grid.x_range[0]) / grid.pillar_size).astype(np.int64)
    rows = ((points[:, 1] - grid.y_range[0]) / grid.pillar_size).astype(np.int64)
    np.clip(cols, 0, grid.nx - 1, out=cols)
    np.clip(rows, 0, grid.ny - 1, out=rows)
    flat = rows * grid.nx + cols

    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.empty(len(flat), dtype=bool)
    starts[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    first_index = np.flatnonzero(starts)
    counts = np.diff(first_index, append=len(flat))
    if max_pillars is not None and len(first_index) > max_pillars:
        first_index = first_index[:max_pillars]
        counts = counts[:max_pillars]

    num_pillars = len(first_index)
    cells = flat[first_index]
    coords = np.stack(
        [cells // grid.nx, cells % grid.nx], axis=1
    ).astype(np.int32)
    kept_counts = np.minimum(counts, max_points_per_pillar).astype(np.int32)

    # Points sorted by pillar; those past a max_pillars cap are dropped.
    order = order[: counts.sum()]
    points = points[order]
    pillar = np.repeat(np.arange(num_pillars), counts)
    slot = np.arange(len(order)) - first_index[pillar]

    # Centroids over all of a pillar's points, truncated ones included.
    # float32 sums from 0.0 in point order reproduce ``mean(axis=0)``
    # bit for bit (``np.add.reduceat`` rounds differently); one 1-D
    # ``np.add.at`` per axis is ~9x faster than one over (P, 3) rows.
    sums = np.zeros((3, num_pillars), dtype=np.float32)
    for axis in range(3):
        np.add.at(sums[axis], pillar, points[:, axis])
    centroid = (sums.T / counts[:, None]).astype(np.float32)
    center_x = grid.x_range[0] + (coords[:, 1] + 0.5) * grid.pillar_size
    center_y = grid.y_range[0] + (coords[:, 0] + 0.5) * grid.pillar_size

    keep = slot < max_points_per_pillar
    pillar, slot, points = pillar[keep], slot[keep], points[keep]
    block = np.empty((len(points), DECORATED_DIM), dtype=np.float32)
    block[:, 0:3] = points
    block[:, 3] = intensity[order[keep]]
    block[:, 4:7] = points - centroid[pillar]
    block[:, 7] = points[:, 0] - center_x[pillar]
    block[:, 8] = points[:, 1] - center_y[pillar]
    features = np.zeros(
        (num_pillars, max_points_per_pillar, DECORATED_DIM), dtype=np.float32
    )
    rows = pillar * max_points_per_pillar + slot
    features.reshape(-1, DECORATED_DIM)[rows] = block

    return PillarBatch(
        coords=coords,
        point_counts=kept_counts,
        grid=grid,
        point_features=features,
    )


def scatter_to_dense(
    coords: np.ndarray, features: np.ndarray, grid_shape: tuple
) -> np.ndarray:
    """Scatter per-pillar feature vectors into a dense pseudo-image.

    Args:
        coords: (P, 2) (row, col) active pillar coordinates.
        features: (P, C) pillar feature vectors.
        grid_shape: (rows, cols) of the dense grid.

    Returns:
        (C, rows, cols) float32 pseudo-image with zeros at inactive cells.
    """
    rows, cols = grid_shape
    channels = features.shape[1]
    dense = np.zeros((channels, rows, cols), dtype=features.dtype)
    dense[:, coords[:, 0], coords[:, 1]] = features.T
    return dense


def gather_from_dense(dense: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gather pillar vectors back out of a dense pseudo-image.

    Inverse of :func:`scatter_to_dense` restricted to ``coords``.
    """
    return dense[:, coords[:, 0], coords[:, 1]].T
