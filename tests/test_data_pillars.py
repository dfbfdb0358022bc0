"""Pillar encoding (voxelization / scatter / gather) tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    KITTI_GRID,
    MINI_GRID,
    PointCloud,
    SceneGenerator,
    gather_from_dense,
    scatter_to_dense,
    voxelize,
)
from repro.data.pillars import DECORATED_DIM, PillarBatch
from repro.engine import FrameProvider, Scenario
from repro.models.zoo import grid_for, scene_config_for
from repro.sparse import is_cpr_sorted


def cloud_at(points):
    points = np.asarray(points, dtype=np.float32)
    return PointCloud(points, np.full(len(points), 0.5, dtype=np.float32))


def _voxelize_reference(cloud, grid, max_points_per_pillar=32,
                        max_pillars=None):
    """The per-pillar loop :func:`voxelize` replaced, kept as its oracle."""
    cloud = cloud.crop(grid)
    if len(cloud) == 0:
        empty = np.zeros((0, 2), dtype=np.int32)
        return PillarBatch(
            coords=empty,
            point_features=np.zeros(
                (0, max_points_per_pillar, DECORATED_DIM), dtype=np.float32
            ),
            point_counts=np.zeros(0, dtype=np.int32),
            grid=grid,
        )

    cols = ((cloud.points[:, 0] - grid.x_range[0]) / grid.pillar_size).astype(np.int64)
    rows = ((cloud.points[:, 1] - grid.y_range[0]) / grid.pillar_size).astype(np.int64)
    cols = np.clip(cols, 0, grid.nx - 1)
    rows = np.clip(rows, 0, grid.ny - 1)
    flat = rows * grid.nx + cols

    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    unique_flat, first_index, counts = np.unique(
        flat_sorted, return_index=True, return_counts=True
    )
    if max_pillars is not None and len(unique_flat) > max_pillars:
        unique_flat = unique_flat[:max_pillars]
        first_index = first_index[:max_pillars]
        counts = counts[:max_pillars]

    num_pillars = len(unique_flat)
    coords = np.stack(
        [unique_flat // grid.nx, unique_flat % grid.nx], axis=1
    ).astype(np.int32)

    features = np.zeros(
        (num_pillars, max_points_per_pillar, DECORATED_DIM), dtype=np.float32
    )
    kept_counts = np.minimum(counts, max_points_per_pillar).astype(np.int32)

    points_sorted = cloud.points[order]
    intensity_sorted = cloud.intensity[order]
    for i in range(num_pillars):
        start = first_index[i]
        keep = int(kept_counts[i])
        pts = points_sorted[start : start + keep]
        inten = intensity_sorted[start : start + keep]
        centroid = points_sorted[start : start + counts[i]].mean(axis=0)
        center_x = grid.x_range[0] + (coords[i, 1] + 0.5) * grid.pillar_size
        center_y = grid.y_range[0] + (coords[i, 0] + 0.5) * grid.pillar_size
        features[i, :keep, 0:3] = pts
        features[i, :keep, 3] = inten
        features[i, :keep, 4:7] = pts - centroid
        features[i, :keep, 7] = pts[:, 0] - center_x
        features[i, :keep, 8] = pts[:, 1] - center_y

    return PillarBatch(
        coords=coords,
        point_features=features,
        point_counts=kept_counts,
        grid=grid,
    )


def assert_same_bytes(cloud, grid=MINI_GRID, **options):
    got = voxelize(cloud, grid, **options)
    want = _voxelize_reference(cloud, grid, **options)
    for name in ("coords", "point_counts", "point_features"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, name
        assert got_array.shape == want_array.shape, name
        assert got_array.tobytes() == want_array.tobytes(), name
    return got


@st.composite
def clouds(draw):
    """Random sweeps around MINI_GRID: some points fall outside it, and
    clustered points stack many to a pillar."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_points = draw(st.integers(0, 400))
    clusters = draw(st.integers(1, 12))
    spread = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    low = np.array([MINI_GRID.x_range[0], MINI_GRID.y_range[0],
                    MINI_GRID.z_range[0]]) - 1.0
    high = np.array([MINI_GRID.x_range[1], MINI_GRID.y_range[1],
                     MINI_GRID.z_range[1]]) + 1.0
    centers = rng.uniform(low, high, size=(clusters, 3))
    which = rng.integers(0, clusters, size=num_points)
    points = centers[which] + rng.normal(scale=spread, size=(num_points, 3))
    return PointCloud(points, rng.random(num_points))


class TestVoxelize:
    def test_coords_are_cpr_sorted(self, kitti_batch):
        assert is_cpr_sorted(kitti_batch.coords, KITTI_GRID.shape)

    def test_counts_match_points(self):
        # Two points in one pillar, one in another.
        cloud = cloud_at([[1.0, 0.0, -1.0], [1.01, 0.02, -1.0],
                          [30.0, 5.0, -1.0]])
        batch = voxelize(cloud, KITTI_GRID)
        assert batch.num_active == 2
        assert sorted(batch.point_counts.tolist()) == [1, 2]

    def test_empty_cloud(self):
        batch = voxelize(cloud_at(np.zeros((0, 3))), KITTI_GRID)
        assert batch.num_active == 0
        assert batch.occupancy == 0.0

    def test_max_points_per_pillar_truncates(self):
        points = [[1.0 + 0.001 * i, 0.0, -1.0] for i in range(50)]
        batch = voxelize(cloud_at(points), KITTI_GRID,
                         max_points_per_pillar=8)
        assert batch.point_counts.max() <= 8

    def test_max_pillars_caps(self, kitti_sweep):
        batch = voxelize(kitti_sweep, KITTI_GRID, max_pillars=100)
        assert batch.num_active == 100

    def test_decorated_features_center_offsets_bounded(self, mini_batch):
        # xp/yp offsets are within half a pillar of the center.
        for pillar in range(min(20, mini_batch.num_active)):
            count = mini_batch.point_counts[pillar]
            offsets = mini_batch.point_features[pillar, :count, 7:9]
            assert np.abs(offsets).max() <= MINI_GRID.pillar_size

    def test_centroid_offsets_sum_near_zero(self, mini_batch):
        # xc offsets are relative to the pillar centroid (over all points,
        # before truncation); for untruncated pillars they sum to ~0.
        for pillar in range(mini_batch.num_active):
            count = int(mini_batch.point_counts[pillar])
            if count == 0 or count == 32:
                continue
            offsets = mini_batch.point_features[pillar, :count, 4:7]
            assert np.abs(offsets.mean(axis=0)).max() < 1.0

    @pytest.mark.parametrize("outside", [False, True],
                             ids=["cropped", "with-points-outside"])
    def test_leaves_its_input_unchanged(self, kitti_sweep, outside):
        # A generated sweep is cropped already, so voxelize reads its
        # arrays without a copy; with points outside, it crops a copy.
        cloud = kitti_sweep
        if outside:
            cloud = cloud.concat(cloud_at([[-5.0, 0.0, -1.0],
                                           [1.0, 0.0, 9.0]]))
        assert cloud.in_range(KITTI_GRID).all() != outside
        points, intensity = cloud.points.copy(), cloud.intensity.copy()
        batch = voxelize(cloud, KITTI_GRID)
        assert np.array_equal(cloud.points, points)
        assert np.array_equal(cloud.intensity, intensity)
        expected = voxelize(kitti_sweep.crop(KITTI_GRID), KITTI_GRID)
        for name in ("coords", "point_counts", "point_features"):
            assert np.array_equal(getattr(batch, name),
                                  getattr(expected, name)), name


class TestVoxelizeMatchesReferenceLoop:
    """voxelize's array decoration is byte-identical to the loop it replaced."""

    @given(
        clouds(),
        st.integers(1, 40),
        st.one_of(st.none(), st.integers(0, 300)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_clouds(self, cloud, max_points, max_pillars):
        assert_same_bytes(cloud, max_points_per_pillar=max_points,
                          max_pillars=max_pillars)

    @pytest.mark.parametrize("points", [
        np.zeros((0, 3)),
        [[-5.0, 0.0, -1.0], [1.0, 0.0, 9.0], [30.0, 0.0, 0.0]],
    ])
    def test_every_point_cropped_away(self, points):
        batch = assert_same_bytes(cloud_at(points))
        assert batch.num_active == 0

    def test_single_point(self):
        batch = assert_same_bytes(cloud_at([[3.3, -2.1, -0.5]]))
        assert batch.point_counts.tolist() == [1]

    @pytest.mark.parametrize("max_points", [1, 4, 32])
    def test_one_pillar_over_max_points(self, max_points):
        # The centroid counts the dropped points too.
        rng = np.random.default_rng(3)
        corner = np.array([4.8, 0.96, -1.0])  # pillar (row 35, col 15)
        points = corner + rng.uniform(0.01, 0.3, (77, 3))
        batch = assert_same_bytes(cloud_at(points),
                                  max_points_per_pillar=max_points)
        assert batch.point_counts.tolist() == [max_points]

    def test_every_cell_occupied(self):
        rows, cols = np.meshgrid(np.arange(MINI_GRID.ny),
                                 np.arange(MINI_GRID.nx), indexing="ij")
        size = MINI_GRID.pillar_size
        centers = np.stack([
            MINI_GRID.x_range[0] + (cols.ravel() + 0.5) * size,
            MINI_GRID.y_range[0] + (rows.ravel() + 0.5) * size,
            np.zeros(rows.size),
        ], axis=1)
        points = np.concatenate([centers, centers + 0.05 * size])
        batch = assert_same_bytes(cloud_at(points))
        assert batch.num_active == MINI_GRID.num_pillars
        assert (batch.point_counts == 2).all()

    @pytest.mark.parametrize("max_pillars", [0, 1])
    def test_tiny_max_pillars(self, max_pillars, mini_scene):
        batch = assert_same_bytes(mini_scene, max_pillars=max_pillars)
        assert batch.num_active == max_pillars

    def test_negative_zero_coordinates(self):
        # A pillar whose points all sit at y == -0.0 has a -0.0 centroid
        # sum; the yc offset must keep the loop's sign of zero.
        batch = assert_same_bytes(
            cloud_at([[2.0, -0.0, -1.0], [2.01, -0.0, -0.5]])
        )
        assert batch.num_active == 1

    @pytest.mark.parametrize("options", [
        {},
        {"max_pillars": 500},
        {"max_points_per_pillar": 4},
        {"max_points_per_pillar": 1, "max_pillars": 1},
    ])
    def test_kitti_sweep(self, kitti_sweep, options):
        assert_same_bytes(kitti_sweep, KITTI_GRID, **options)


#: SHA-256 of the seed-0 frame per grid, recorded from the per-pillar
#: loop before decoration was vectorised: coords and counts as
#: ``FrameProvider`` caches them, point features as ``voxelize`` builds
#: them from the same sweep.
PINNED_FRAMES = {
    "SPP1": ("kitti", 6767, {
        "coords": "933c3729e979634fe98f1ca7169cf0dc12083a25d896f99d5b356a5ef70fcd18",
        "point_counts": "5712aa659c7d8923cf39698e392c92f8ef413edb39abc4bc47b34aa4358b6960",
        "point_features": "82ea739c533a945c87f75d5e0ca5d062cec0c41b8d06e86fcc47f12a25828a7d",
    }),
    "SCP1": ("nuscenes", 9383, {
        "coords": "24aee8360f0de6b60175ed41b966f057acad02f887069dd5428e57710ed01d26",
        "point_counts": "3ff3162a4d6fe64c5e91b6be1a30e2a3c9fb67d0619c1ef197ec1bd7aae6820b",
        "point_features": "6ec84489736fcef4d78409662c1ba07dc209fb59a4008af96910d5e4e4dbecc9",
    }),
    "PN": ("nuscenes-fine", 15526, {
        "coords": "5d6e60a29e0263ffb7ba5d3317ea77b0e3c4e794b86cf8f0bfdf61b5c42892e8",
        "point_counts": "b13f40647490691720f0978469a5fb11094a70409e8399763f392bb883d49f3e",
        "point_features": "042f428f5b2a618821ebbeb8e6c1f53360d87441cf514ee1e131493c44f075a3",
    }),
}


@pytest.mark.parametrize("model", sorted(PINNED_FRAMES))
def test_pinned_frame_digests(model):
    grid_name, pillars, digests = PINNED_FRAMES[model]
    frame = FrameProvider().frame_for(Scenario(seed=0), model)
    assert frame.grid.name == grid_name
    assert frame.num_active == pillars
    # A cached frame holds what tracing reads, not the decorated features.
    assert not hasattr(frame, "point_features")
    cloud = SceneGenerator(scene_config_for(model), seed=0).generate()
    batch = voxelize(cloud, grid_for(model))
    for name, digest in digests.items():
        source = batch if name == "point_features" else frame
        data = getattr(source, name).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


class TestScatterGather:
    def test_roundtrip(self, mini_batch):
        rng = np.random.default_rng(0)
        features = rng.normal(
            size=(mini_batch.num_active, 16)
        ).astype(np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        recovered = gather_from_dense(dense, mini_batch.coords)
        np.testing.assert_allclose(recovered, features)

    def test_inactive_cells_zero(self, mini_batch):
        features = np.ones((mini_batch.num_active, 4), dtype=np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        assert dense.sum() == pytest.approx(4 * mini_batch.num_active)

    def test_dense_shape(self, mini_batch):
        features = np.ones((mini_batch.num_active, 7), dtype=np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        assert dense.shape == (7, 64, 64)
