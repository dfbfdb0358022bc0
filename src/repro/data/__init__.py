"""Point cloud data substrate: grids, sweeps, synthetic scenes, pillars."""

from .grids import (
    GRIDS,
    KITTI_GRID,
    MINI_GRID,
    NUSCENES_FINE_GRID,
    NUSCENES_GRID,
    GridSpec,
    get_grid,
)
from .pillars import (
    PillarBatch,
    PillarFrame,
    gather_from_dense,
    scatter_to_dense,
    voxelize,
)
from .pointcloud import BoundingBox3D, PointCloud
from .synthetic import (
    KITTI_SCENE,
    OBJECT_TEMPLATES,
    SceneConfig,
    SceneGenerator,
    nuscenes_scene_config,
)

__all__ = [
    "GRIDS",
    "KITTI_GRID",
    "KITTI_SCENE",
    "MINI_GRID",
    "NUSCENES_FINE_GRID",
    "NUSCENES_GRID",
    "OBJECT_TEMPLATES",
    "BoundingBox3D",
    "GridSpec",
    "PillarBatch",
    "PillarFrame",
    "PointCloud",
    "SceneConfig",
    "SceneGenerator",
    "gather_from_dense",
    "get_grid",
    "nuscenes_scene_config",
    "scatter_to_dense",
    "voxelize",
]
