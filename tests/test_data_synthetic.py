"""Synthetic scene generator tests: the structural properties every
architecture experiment relies on."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    BoundingBox3D,
    KITTI_GRID,
    KITTI_SCENE,
    NUSCENES_GRID,
    SceneGenerator,
    nuscenes_scene_config,
    voxelize,
)


class TestDeterminism:
    def test_same_seed_same_sweep(self):
        a = SceneGenerator(KITTI_SCENE, seed=5).generate()
        b = SceneGenerator(KITTI_SCENE, seed=5).generate()
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = SceneGenerator(KITTI_SCENE, seed=1).generate()
        b = SceneGenerator(KITTI_SCENE, seed=2).generate()
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)


class TestSweepStructure:
    def test_point_count_is_lidar_scale(self, kitti_sweep):
        # A 64-beam front-facing sweep lands tens of thousands of returns.
        assert 10_000 < len(kitti_sweep) < 200_000

    def test_all_points_in_grid_range(self, kitti_sweep):
        x, y = kitti_sweep.points[:, 0], kitti_sweep.points[:, 1]
        assert x.min() >= KITTI_GRID.x_range[0]
        assert x.max() < KITTI_GRID.x_range[1]
        assert y.min() >= KITTI_GRID.y_range[0]

    def test_occupancy_matches_paper_regime(self, kitti_batch):
        # Paper: ~97% of densified pillars are zero (3-10% active).
        assert 0.01 < kitti_batch.occupancy < 0.10

    def test_boxes_present(self, kitti_sweep):
        assert len(kitti_sweep.boxes) >= KITTI_SCENE.num_objects[0]

    def test_density_falls_with_range(self, kitti_sweep):
        ranges = np.linalg.norm(kitti_sweep.points[:, :2], axis=1)
        near = ((ranges > 5) & (ranges < 20)).sum() / 15.0
        far = ((ranges > 40) & (ranges < 55)).sum() / 15.0
        assert near > 2 * far

    def test_objects_create_local_clusters(self, kitti_sweep):
        # Points inside a GT box should be denser than the global average.
        box = max(
            kitti_sweep.boxes,
            key=lambda b: -np.linalg.norm(np.asarray(b.center[:2])),
        )
        inside = box.contains_bev(kitti_sweep.points[:, :2])
        if inside.sum() == 0:
            return  # fully occluded object: acceptable
        box_area = box.size[0] * box.size[1]
        grid_area = 69.12 * 79.36
        global_density = len(kitti_sweep) / grid_area
        assert inside.sum() / box_area > global_density


class TestNuscenesConfig:
    def test_360_fov_covers_rear(self):
        sweep = SceneGenerator(nuscenes_scene_config(), seed=2).generate()
        assert (sweep.points[:, 0] < -5).any()

    def test_occupancy_lower_than_kitti(self, kitti_batch):
        sweep = SceneGenerator(nuscenes_scene_config(), seed=2).generate()
        batch = voxelize(sweep, NUSCENES_GRID)
        assert batch.occupancy < 1.5 * kitti_batch.occupancy


def full_scan_shadowed(points, boxes):
    """The full-scan shadow mask: every box tests every ground point."""
    shadow = np.zeros(len(points), dtype=bool)
    ranges = np.linalg.norm(points[:, :2], axis=1)
    azimuths = np.arctan2(points[:, 1], points[:, 0])
    for box in boxes:
        center_range = float(np.linalg.norm(box.center[:2]))
        if center_range < 1e-3:
            continue
        center_azimuth = float(np.arctan2(box.center[1], box.center[0]))
        half_width = max(box.size[0], box.size[1]) / 2.0
        angular_half = np.arctan2(half_width, center_range)
        delta = np.abs(
            np.angle(np.exp(1j * (azimuths - center_azimuth)))
        )
        shadow |= (delta < angular_half) & (ranges > center_range)
    return shadow


SCENES = {"kitti": KITTI_SCENE, "nuscenes": nuscenes_scene_config()}


@functools.lru_cache(maxsize=None)
def lattice(scene):
    """(generator, every ground return of the scanner's lattice, uncropped)."""
    generator = SceneGenerator(SCENES[scene], seed=0)
    elevations, azimuths = generator._beam_grid()
    down = elevations[elevations < np.deg2rad(-0.5)]
    elev_grid, azim_grid = np.meshgrid(down, azimuths, indexing="ij")
    ranges = generator.config.sensor_height / np.tan(-elev_grid)
    points = np.stack([
        (ranges * np.cos(azim_grid)).ravel(),
        (ranges * np.sin(azim_grid)).ravel(),
        np.full(ranges.size, -generator.config.sensor_height),
    ], axis=1)
    return generator, points


def box_at(x, y, half_width=1.0):
    return BoundingBox3D((x, y, -1.0), (2 * half_width, 0.5, 1.5), 0.0)


def window(box):
    """(center azimuth, angular half-width) of a box's shadow."""
    center_range = float(np.linalg.norm(box.center[:2]))
    half_width = max(box.size[0], box.size[1]) / 2.0
    return (
        float(np.arctan2(box.center[1], box.center[0])),
        np.arctan2(half_width, center_range),
    )


def assert_matches_full_scan(scene, boxes):
    generator, points = lattice(scene)
    mask = generator._shadowed(points, boxes)
    np.testing.assert_array_equal(mask, full_scan_shadowed(points, boxes))
    return mask


class TestShadowWindow:
    """The windowed shadow test equals the full scan, bit for bit."""

    coordinate = st.floats(-90.0, 90.0, allow_nan=False)

    @settings(max_examples=150, deadline=None)
    @given(
        scene=st.sampled_from(sorted(SCENES)),
        boxes=st.lists(
            st.builds(
                box_at, coordinate, coordinate,
                st.floats(0.05, 8.0, allow_nan=False),
            ),
            max_size=6,
        ),
    )
    def test_matches_full_scan(self, scene, boxes):
        assert_matches_full_scan(scene, boxes)

    @pytest.mark.parametrize("y", [0.0, 1e-6, -1e-6, 0.5, -0.5])
    def test_box_straddling_the_seam_behind_the_sensor(self, y):
        box = box_at(-20.0, y, half_width=2.0)
        center, half = window(box)
        assert center - half < -np.pi or center + half > np.pi
        mask = assert_matches_full_scan("nuscenes", [box])
        points = lattice("nuscenes")[1][mask]
        assert (points[:, 1] > 0).any() and (points[:, 1] < 0).any()

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_window_edge_on_a_lattice_azimuth(self, scene):
        # Size the box so its angular half-width equals, in float, the
        # wrapped azimuth difference to one lattice point beyond it: the
        # strict test must leave exactly that point unshadowed.
        _, points = lattice(scene)
        ranges = np.linalg.norm(points[:, :2], axis=1)
        azimuths = np.arctan2(points[:, 1], points[:, 0])
        cx, cy = 10.0 * np.cos(0.3), 10.0 * np.sin(0.3)
        center = float(np.arctan2(cy, cx))
        center_range = float(np.linalg.norm((cx, cy)))
        far = np.flatnonzero(ranges > 2 * center_range)
        edge = far[np.argmin(np.abs(azimuths[far] - (center + 0.05)))]
        delta = float(np.abs(np.angle(np.exp(1j * (azimuths[edge] - center)))))
        half_width = center_range * np.tan(delta)
        for _ in range(64):
            if np.arctan2(half_width, center_range) == delta:
                break
            half_width = np.nextafter(half_width, np.inf)
        assert np.arctan2(half_width, center_range) == delta
        box = BoundingBox3D((cx, cy, -1.0), (2 * half_width, 0.5, 1.5), 0.0)
        mask = assert_matches_full_scan(scene, [box])
        inside = far[np.abs(azimuths[far] - center) < delta / 2]
        assert not mask[edge] and len(inside) and mask[inside].all()

    def test_box_at_the_origin_casts_no_shadow(self):
        mask = assert_matches_full_scan("nuscenes", [box_at(0.0, 0.0)])
        assert not mask.any()

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_no_boxes(self, scene):
        assert not assert_matches_full_scan(scene, []).any()

    def test_kitti_box_outside_the_field_of_view(self):
        # Behind the sensor, the window misses the 90-degree lattice.
        box = box_at(-20.0, 3.0)
        center, half = window(box)
        points = lattice("kitti")[1]
        azimuths = np.arctan2(points[:, 1], points[:, 0])
        assert azimuths.max() < center - half - 0.1
        assert not assert_matches_full_scan("kitti", [box]).any()


#: SHA-256 over ``points`` then ``intensity`` of ``generate()`` for seeds
#: 0-39, recorded with the full-scan shadow test.
FORTY_SEED_DIGESTS = {
    "kitti": "8eaa32e026e2d78f46b4a9e16df1bb217c116e77f9f354c0670465be631ae6e1",
    "nuscenes": "4ef093e1d05bb81a041c55dcad82c652f10ef6bf2256fde3fb9252ae6535ddd4",
}


@pytest.mark.parametrize("scene", sorted(FORTY_SEED_DIGESTS))
def test_forty_seed_frames_are_pinned(scene):
    digest = hashlib.sha256()
    seam_boxes = 0
    for seed in range(40):
        cloud = SceneGenerator(SCENES[scene], seed=seed).generate()
        digest.update(cloud.points.tobytes())
        digest.update(cloud.intensity.tobytes())
        for box in cloud.boxes:
            center, half = window(box)
            seam_boxes += bool(abs(center) + half > np.pi)
    assert digest.hexdigest() == FORTY_SEED_DIGESTS[scene]
    if scene == "nuscenes":
        assert seam_boxes >= 1
