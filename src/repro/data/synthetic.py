"""Synthetic LiDAR scene generator.

The paper evaluates on KITTI and nuScenes sweeps.  Those datasets are not
available offline, so this module generates sweeps with the same *structural*
properties that drive every architecture result:

* ring-structured ground returns whose density falls off with range (a
  spinning multi-beam LiDAR sampled on a regular elevation/azimuth lattice),
  giving the characteristic 3-10 % active-pillar occupancy on KITTI-size
  grids and lower occupancy on the larger nuScenes grid;
* clustered object returns on the sensor-facing surfaces of parked/moving
  vehicles, pedestrians and cyclists, giving the locally-dense blobs whose
  dilation behaviour Fig. 2(d-f) characterizes;
* occlusion shadows behind objects (a blocked beam produces no ground
  return), which keeps clusters isolated the way real sweeps are.

The generator is deterministic given a seed, so every benchmark and test is
reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grids import GridSpec, KITTI_GRID
from .pointcloud import BoundingBox3D, PointCloud

#: Radians added to each side of a box's shadow window in
#: :meth:`SceneGenerator._shadowed`: far above the few-ulp error of the
#: angle wrap, far below the scanner's azimuth step.
_WINDOW_SLACK = 1e-9

#: Object class templates: (length, width, height) means and std-devs.
OBJECT_TEMPLATES = {
    "car": ((4.2, 1.8, 1.6), (0.4, 0.15, 0.1)),
    "pedestrian": ((0.6, 0.6, 1.7), (0.1, 0.1, 0.1)),
    "cyclist": ((1.8, 0.6, 1.7), (0.2, 0.1, 0.1)),
}


@dataclass
class SceneConfig:
    """Parameters controlling synthetic sweep generation.

    Attributes:
        grid: BEV grid defining the detection range.
        num_beams: LiDAR elevation channels (64 for KITTI, 32 for nuScenes).
        azimuth_fov: Horizontal field of view in degrees (90 front-facing
            for KITTI crops, 360 for nuScenes).
        azimuth_resolution: Angular step between consecutive firings, degrees.
        sensor_height: LiDAR mount height above ground, meters.
        num_objects: (min, max) objects per scene.
        class_mix: Sampling weights per object class.
        dropout: Fraction of returns randomly dropped (sensor noise).
    """

    grid: GridSpec = field(default_factory=lambda: KITTI_GRID)
    num_beams: int = 64
    azimuth_fov: float = 90.0
    azimuth_resolution: float = 0.16
    sensor_height: float = 1.73
    num_objects: tuple = (4, 12)
    class_mix: dict = field(
        default_factory=lambda: {"car": 0.6, "pedestrian": 0.25, "cyclist": 0.15}
    )
    dropout: float = 0.05


#: KITTI-like front-facing 64-beam sweep.
KITTI_SCENE = SceneConfig()

#: nuScenes-like 360-degree 32-beam sweep over the larger grid.
def nuscenes_scene_config(grid: GridSpec = None) -> SceneConfig:
    """Build the nuScenes-style scene configuration."""
    from .grids import NUSCENES_GRID

    return SceneConfig(
        grid=grid or NUSCENES_GRID,
        num_beams=32,
        azimuth_fov=360.0,
        azimuth_resolution=0.33,
        sensor_height=1.84,
        num_objects=(8, 24),
    )


class SceneGenerator:
    """Deterministic synthetic LiDAR sweep generator.

    Example:
        >>> gen = SceneGenerator(KITTI_SCENE, seed=0)
        >>> sweep = gen.generate()
        >>> len(sweep) > 10000
        True
    """

    def __init__(self, config: SceneConfig = None, seed: int = 0):
        self.config = config or SceneConfig()
        self._rng = np.random.default_rng(seed)

    def generate(self) -> PointCloud:
        """Generate one sweep with ground, objects and occlusion shadows."""
        boxes = self._sample_boxes()
        ground = self._ground_returns(boxes)
        object_points = [self._object_returns(box) for box in boxes]
        parts = [ground] + [pts for pts in object_points if len(pts)]
        points = np.concatenate(parts, axis=0)
        keep = self._rng.random(len(points)) >= self.config.dropout
        points = points[keep]
        intensity = self._rng.uniform(0.05, 0.95, size=len(points)).astype(np.float32)
        cloud = PointCloud(points.astype(np.float32), intensity, boxes)
        return cloud.crop(self.config.grid)

    def generate_batch(self, count: int) -> list:
        """Generate ``count`` independent sweeps."""
        return [self.generate() for _ in range(count)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _sample_boxes(self) -> list:
        grid = self.config.grid
        lo, hi = self.config.num_objects
        count = int(self._rng.integers(lo, hi + 1))
        labels = list(self.config.class_mix)
        weights = np.array([self.config.class_mix[label] for label in labels])
        weights = weights / weights.sum()
        boxes = []
        for _ in range(count):
            label = labels[int(self._rng.choice(len(labels), p=weights))]
            (mean_size, std_size) = OBJECT_TEMPLATES[label]
            size = tuple(
                max(0.3, self._rng.normal(mu, sd)) for mu, sd in zip(mean_size, std_size)
            )
            # Keep objects at a plausible range: not on top of the sensor.
            margin = max(size[0], size[1])
            x = self._rng.uniform(
                grid.x_range[0] + margin + 3.0, grid.x_range[1] - margin
            )
            y = self._rng.uniform(grid.y_range[0] + margin, grid.y_range[1] - margin)
            z = -self.config.sensor_height + size[2] / 2.0
            yaw = self._rng.uniform(-np.pi, np.pi)
            boxes.append(BoundingBox3D((x, y, z), size, yaw, label=label))
        return boxes

    def _beam_grid(self) -> tuple:
        """Elevation and azimuth sample angles of the scanner, radians."""
        cfg = self.config
        return _beam_grid(
            cfg.num_beams, cfg.azimuth_fov, cfg.azimuth_resolution
        )

    def _ground_returns(self, boxes: list) -> np.ndarray:
        """Ray-cast every beam to the ground plane, honoring occlusions.

        The lattice's in-range x, y and polar coordinates come from
        :func:`_ground_lattice`, computed once per scan geometry; only
        the height jitter is drawn per frame, at the whole lattice's
        shape so the RNG stream is the same as a full recompute's.
        """
        cfg = self.config
        lattice = _ground_lattice(
            cfg.num_beams, cfg.azimuth_fov, cfg.azimuth_resolution,
            cfg.sensor_height,
            tuple(cfg.grid.x_range), tuple(cfg.grid.y_range),
        )
        # Small height jitter models road roughness / grass.
        jitter = self._rng.normal(0.0, 0.03, size=lattice.shape)
        z = -cfg.sensor_height + jitter.ravel()[lattice.in_range]
        points = np.column_stack([lattice.xy, z])
        return points[~_shadow_mask(lattice.polar, boxes)]

    def _shadowed(self, points: np.ndarray, boxes: list) -> np.ndarray:
        """Mask ground points whose beam passes through an object footprint.

        See :func:`_shadow_mask`, which this calls on the points' polar
        coordinates.
        """
        return _shadow_mask(_polar(points[:, :2]), boxes)

    def _object_returns(self, box: BoundingBox3D) -> np.ndarray:
        """Sample returns on the sensor-facing surfaces of an object.

        Point count scales with the solid angle the object subtends, so
        near objects are dense and far objects sparse, as in real sweeps.
        """
        center_range = float(np.linalg.norm(box.center[:2]))
        if center_range < 1.0:
            center_range = 1.0
        visible_area = box.size[1] * box.size[2] + box.size[0] * box.size[2]
        density = 4000.0 / (center_range**2)
        count = int(min(2000, max(5, visible_area * density)))
        # Sample on the two sensor-facing faces in the box's local frame.
        length, width, height = box.size
        face = self._rng.random(count) < 0.5
        local = np.empty((count, 3))
        local[face, 0] = self._rng.uniform(-length / 2, length / 2, face.sum())
        local[face, 1] = -width / 2.0
        local[~face, 0] = -length / 2.0
        local[~face, 1] = self._rng.uniform(-width / 2, width / 2, (~face).sum())
        local[:, 2] = self._rng.uniform(-height / 2, height / 2, count)
        local[:, :2] += self._rng.normal(0.0, 0.02, size=(count, 2))
        cos_yaw, sin_yaw = np.cos(box.yaw), np.sin(box.yaw)
        world_x = local[:, 0] * cos_yaw - local[:, 1] * sin_yaw + box.center[0]
        world_y = local[:, 0] * sin_yaw + local[:, 1] * cos_yaw + box.center[1]
        world_z = local[:, 2] + box.center[2]
        return np.stack([world_x, world_y, world_z], axis=1)


def _beam_grid(num_beams: int, azimuth_fov: float,
               azimuth_resolution: float) -> tuple:
    """Elevation and azimuth sample angles of a scanner, radians."""
    elevations = np.deg2rad(np.linspace(-24.8, 2.0, num_beams))
    if azimuth_fov >= 360.0:
        azimuths = np.deg2rad(np.arange(-180.0, 180.0, azimuth_resolution))
    else:
        half = azimuth_fov / 2.0
        azimuths = np.deg2rad(np.arange(-half, half, azimuth_resolution))
    return elevations, azimuths


class _Polar(NamedTuple):
    """Ground points' ranges and azimuths, and the azimuths' stable sort."""

    ranges: np.ndarray
    azimuths: np.ndarray
    order: np.ndarray
    sorted_azimuths: np.ndarray


def _polar(xy: np.ndarray) -> _Polar:
    ranges = np.linalg.norm(xy, axis=1)
    azimuths = np.arctan2(xy[:, 1], xy[:, 0])
    order = np.argsort(azimuths, kind="stable")
    return _Polar(ranges, azimuths, order, azimuths[order])


class _GroundLattice(NamedTuple):
    """The ground returns a scanner's beam lattice lands inside a grid.

    Attributes:
        shape: (downward beams, azimuths) of the whole lattice.
        in_range: Flat mask of the lattice returns inside the grid's
            x and y range.
        xy: (N, 2) x and y of those returns.
        polar: Their :class:`_Polar` coordinates.
    """

    shape: tuple
    in_range: np.ndarray
    xy: np.ndarray
    polar: _Polar


@functools.lru_cache(maxsize=16)
def _ground_lattice(num_beams: int, azimuth_fov: float,
                    azimuth_resolution: float, sensor_height: float,
                    x_range: tuple, y_range: tuple) -> _GroundLattice:
    """The in-range ground lattice of one scan geometry, computed once.

    Keyed on the values it depends on, not on a :class:`SceneConfig`
    (configs are mutable, and :func:`nuscenes_scene_config` builds a new
    one per call).  The arrays are shared by every generator with the
    same geometry, so they are made read-only.
    """
    elevations, azimuths = _beam_grid(
        num_beams, azimuth_fov, azimuth_resolution
    )
    down = elevations[elevations < np.deg2rad(-0.5)]
    elev_grid, azim_grid = np.meshgrid(down, azimuths, indexing="ij")
    ranges = sensor_height / np.tan(-elev_grid)
    x = (ranges * np.cos(azim_grid)).ravel()
    y = (ranges * np.sin(azim_grid)).ravel()
    in_range = (
        (x >= x_range[0]) & (x < x_range[1])
        & (y >= y_range[0]) & (y < y_range[1])
    )
    xy = np.column_stack([x[in_range], y[in_range]])
    lattice = _GroundLattice(elev_grid.shape, in_range, xy, _polar(xy))
    for array in (in_range, xy, *lattice.polar):
        array.flags.writeable = False
    return lattice


def _shadow_mask(polar: _Polar, boxes: list) -> np.ndarray:
    """Mask ground points whose beam passes through an object footprint.

    A point is shadowed by a box when it lies beyond the box's range
    and its azimuth is within ``angular_half`` of the box's, the
    difference wrapped by ``np.angle(np.exp(1j * delta))``.  Each box
    evaluates that test only on the points whose azimuth falls in the
    window ``[c - h - _WINDOW_SLACK, c + h + _WINDOW_SLACK]``, found
    by two ``searchsorted`` calls on the once-sorted azimuths and split
    in two spans where it crosses +-pi.  The wrap's float error is a
    few ulps against the 1e-9 rad slack, so the window is a superset
    of every point the test accepts; the test itself is evaluated
    unchanged on that superset, so the mask equals a full scan's bit
    for bit, boundary ties included.
    """
    ranges, azimuths, order, sorted_azimuths = polar
    shadow = np.zeros(len(ranges), dtype=bool)
    for box in boxes:
        center_range = float(np.linalg.norm(box.center[:2]))
        if center_range < 1e-3:
            continue
        center_azimuth = float(np.arctan2(box.center[1], box.center[0]))
        half_width = max(box.size[0], box.size[1]) / 2.0
        angular_half = np.arctan2(half_width, center_range)
        lo = center_azimuth - angular_half - _WINDOW_SLACK
        hi = center_azimuth + angular_half + _WINDOW_SLACK
        # angular_half < pi/2, so at most one end crosses the seam.
        if lo < -np.pi:
            spans = ((-np.inf, hi), (lo + 2 * np.pi, np.inf))
        elif hi > np.pi:
            spans = ((lo, np.inf), (-np.inf, hi - 2 * np.pi))
        else:
            spans = ((lo, hi),)
        candidates = np.concatenate([
            order[
                np.searchsorted(sorted_azimuths, start, side="left"):
                np.searchsorted(sorted_azimuths, stop, side="right")
            ]
            for start, stop in spans
        ])
        candidates = candidates[ranges[candidates] > center_range]
        delta = np.abs(
            np.angle(np.exp(1j * (azimuths[candidates] - center_azimuth)))
        )
        shadow[candidates[delta < angular_half]] = True
    return shadow
