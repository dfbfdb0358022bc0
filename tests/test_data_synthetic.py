"""Synthetic scene generator tests: the structural properties every
architecture experiment relies on."""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    BoundingBox3D,
    KITTI_GRID,
    KITTI_SCENE,
    NUSCENES_FINE_GRID,
    NUSCENES_GRID,
    SceneGenerator,
    nuscenes_scene_config,
    voxelize,
)
from repro.data.synthetic import _ground_lattice


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


#: The grid of a KITTI-named model widened past KITTI's range.
WIDE_KITTI_GRID = replace(KITTI_GRID, x_range=(0, 80), y_range=(-40, 40))

#: Every scene the memoized ground lattice is checked on: the two default
#: scenes, nuScenes-fine (same scan geometry and ranges as nuScenes) and a
#: widened KITTI (same scanner as KITTI over a wider range).
PINNED_SCENES = {
    **SCENES,
    "nuscenes-fine": nuscenes_scene_config(NUSCENES_FINE_GRID),
    "kitti-wide": replace(KITTI_SCENE, grid=WIDE_KITTI_GRID),
}

#: SHA-256 over ``points`` then ``intensity`` of ``generate()`` for seeds
#: 0-39, recorded with the full-scan shadow test and the ground lattice
#: recomputed on every frame.
FORTY_SEED_DIGESTS = {
    "kitti": "8eaa32e026e2d78f46b4a9e16df1bb217c116e77f9f354c0670465be631ae6e1",
    "kitti-wide": "4c319d91024445043ac843798769edc34a4e3e9b287596ee7b105b47b61999fe",
    "nuscenes": "4ef093e1d05bb81a041c55dcad82c652f10ef6bf2256fde3fb9252ae6535ddd4",
    "nuscenes-fine": "4ef093e1d05bb81a041c55dcad82c652f10ef6bf2256fde3fb9252ae6535ddd4",
}


def update_digest(digest, cloud):
    digest.update(cloud.points.tobytes())
    digest.update(cloud.intensity.tobytes())


@pytest.mark.parametrize("scene", sorted(FORTY_SEED_DIGESTS))
def test_forty_seed_frames_are_pinned(scene):
    digest = hashlib.sha256()
    seam_boxes = 0
    for seed in range(40):
        cloud = SceneGenerator(PINNED_SCENES[scene], seed=seed).generate()
        update_digest(digest, cloud)
        for box in cloud.boxes:
            center, half = window(box)
            seam_boxes += bool(abs(center) + half > np.pi)
    assert digest.hexdigest() == FORTY_SEED_DIGESTS[scene]
    if scene == "nuscenes":
        assert seam_boxes >= 1


@pytest.mark.parametrize("reverse", [False, True])
def test_interleaved_scenes_keep_their_pins(reverse):
    # Scenes sharing a scanner or a range alternate frame by frame, in
    # both orders, so a ground-lattice memo keyed too loosely hands one
    # of them the other's lattice whichever was built first.
    names = sorted(FORTY_SEED_DIGESTS, reverse=reverse)
    digests = {name: hashlib.sha256() for name in names}
    for seed in range(40):
        for name in names:
            cloud = SceneGenerator(PINNED_SCENES[name], seed=seed).generate()
            update_digest(digests[name], cloud)
    got = {name: digest.hexdigest() for name, digest in digests.items()}
    assert got == FORTY_SEED_DIGESTS


def reference_ground_returns(generator, boxes):
    """The per-frame ground ray-cast the memoized lattice replaced."""
    cfg = generator.config
    elevations, azimuths = generator._beam_grid()
    down = elevations[elevations < np.deg2rad(-0.5)]
    elev_grid, azim_grid = np.meshgrid(down, azimuths, indexing="ij")
    ranges = cfg.sensor_height / np.tan(-elev_grid)
    x = ranges * np.cos(azim_grid)
    y = ranges * np.sin(azim_grid)
    z = np.full_like(x, -cfg.sensor_height)
    z = z + generator._rng.normal(0.0, 0.03, size=z.shape)
    points = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    in_range = (
        (points[:, 0] >= cfg.grid.x_range[0])
        & (points[:, 0] < cfg.grid.x_range[1])
        & (points[:, 1] >= cfg.grid.y_range[0])
        & (points[:, 1] < cfg.grid.y_range[1])
    )
    points = points[in_range]
    return points[~full_scan_shadowed(points, boxes)]


#: One variant per value the ground lattice depends on, each differing
#: from KITTI_SCENE in that value alone.
LATTICE_VARIANTS = {
    "kitti": KITTI_SCENE,
    "num_beams": replace(KITTI_SCENE, num_beams=32),
    "azimuth_fov": replace(KITTI_SCENE, azimuth_fov=120.0),
    "azimuth_resolution": replace(KITTI_SCENE, azimuth_resolution=0.2),
    "sensor_height": replace(KITTI_SCENE, sensor_height=2.0),
    "x_range": replace(
        KITTI_SCENE, grid=replace(KITTI_GRID, x_range=(0.0, 40.0))),
    "y_range": replace(
        KITTI_SCENE, grid=replace(KITTI_GRID, y_range=(-20.0, 39.68))),
}


@pytest.mark.parametrize("reverse", [False, True])
def test_ground_lattice_is_keyed_on_every_value_it_reads(reverse):
    names = sorted(LATTICE_VARIANTS, reverse=reverse)
    for seed in range(3):
        for name in names:
            config = LATTICE_VARIANTS[name]
            boxes = SceneGenerator(config, seed=seed)._sample_boxes()
            got = SceneGenerator(config, seed=seed)._ground_returns(boxes)
            want = reference_ground_returns(
                SceneGenerator(config, seed=seed), boxes)
            assert got.tobytes() == want.tobytes(), name


def test_ground_lattice_is_read_only():
    cfg = KITTI_SCENE
    lattice = _ground_lattice(
        cfg.num_beams, cfg.azimuth_fov, cfg.azimuth_resolution,
        cfg.sensor_height, cfg.grid.x_range, cfg.grid.y_range,
    )
    with pytest.raises(ValueError):
        lattice.xy[0, 0] = 0.0
    with pytest.raises(ValueError):
        lattice.polar.order[0] = 0
