"""Point cloud containers and ground-truth box structures.

A point cloud is a set of points ``(x, y, z)`` with per-point features
(LiDAR intensity here).  Ground-truth boxes are axis-aligned in BEV with a
yaw angle, matching the KITTI/nuScenes annotation convention the paper's
benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class BoundingBox3D:
    """An oriented 3D bounding box in world coordinates.

    Attributes:
        center: (x, y, z) of the box center, meters.
        size: (length, width, height), meters.
        yaw: Rotation around the z axis, radians.
        label: Class name, e.g. ``"car"``.
        score: Detection confidence (1.0 for ground truth).
    """

    center: tuple
    size: tuple
    yaw: float
    label: str = "car"
    score: float = 1.0

    def bev_corners(self) -> np.ndarray:
        """Return the four BEV corners as a (4, 2) array of (x, y)."""
        length, width, _ = self.size
        dx, dy = length / 2.0, width / 2.0
        corners = np.array(
            [[dx, dy], [dx, -dy], [-dx, -dy], [-dx, dy]], dtype=np.float64
        )
        cos_yaw, sin_yaw = np.cos(self.yaw), np.sin(self.yaw)
        rotation = np.array([[cos_yaw, -sin_yaw], [sin_yaw, cos_yaw]])
        return corners @ rotation.T + np.array(self.center[:2])

    def bev_aabb(self) -> tuple:
        """Return the axis-aligned BEV bounds (xmin, ymin, xmax, ymax)."""
        corners = self.bev_corners()
        xmin, ymin = corners.min(axis=0)
        xmax, ymax = corners.max(axis=0)
        return (xmin, ymin, xmax, ymax)

    def contains_bev(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized BEV point-in-box test.

        Args:
            xy: (N, 2) array of (x, y) positions.

        Returns:
            Boolean mask of shape (N,).
        """
        rel = xy - np.array(self.center[:2])
        cos_yaw, sin_yaw = np.cos(-self.yaw), np.sin(-self.yaw)
        local_x = rel[:, 0] * cos_yaw - rel[:, 1] * sin_yaw
        local_y = rel[:, 0] * sin_yaw + rel[:, 1] * cos_yaw
        length, width, _ = self.size
        return (np.abs(local_x) <= length / 2.0) & (np.abs(local_y) <= width / 2.0)


@dataclass
class PointCloud:
    """A LiDAR sweep: point positions plus per-point intensity.

    Attributes:
        points: (N, 3) float32 array of (x, y, z).
        intensity: (N,) float32 array of reflectance in [0, 1].
        boxes: Ground-truth boxes attached to the sweep (may be empty).
    """

    points: np.ndarray
    intensity: np.ndarray
    boxes: list = field(default_factory=list)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")
        self.intensity = np.asarray(self.intensity, dtype=np.float32)
        if self.intensity.shape != (len(self.points),):
            raise ValueError("intensity must be one value per point")

    def __len__(self) -> int:
        return len(self.points)

    def in_range(self, grid) -> np.ndarray:
        """Boolean mask of the points inside ``grid``'s 3D range."""
        x, y, z = self.points[:, 0], self.points[:, 1], self.points[:, 2]
        return (
            (x >= grid.x_range[0])
            & (x < grid.x_range[1])
            & (y >= grid.y_range[0])
            & (y < grid.y_range[1])
            & (z >= grid.z_range[0])
            & (z < grid.z_range[1])
        )

    def crop(self, grid) -> "PointCloud":
        """Return a copy keeping only points inside ``grid``'s 3D range."""
        mask = self.in_range(grid)
        return PointCloud(self.points[mask], self.intensity[mask], list(self.boxes))

    def concat(self, other: "PointCloud") -> "PointCloud":
        """Merge two sweeps, keeping both boxes lists."""
        return PointCloud(
            np.concatenate([self.points, other.points]),
            np.concatenate([self.intensity, other.intensity]),
            list(self.boxes) + list(other.boxes),
        )
