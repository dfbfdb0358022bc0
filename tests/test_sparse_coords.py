"""CPR coordinate handling: property-based and unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    cpr_sort,
    dilate,
    downsample_coords,
    flatten,
    is_cpr_sorted,
    kernel_offsets,
    unflatten,
    upsample_coords,
    validate_coords,
)

SHAPE = (24, 31)


@st.composite
def coord_sets(draw, shape=SHAPE, max_count=60):
    total = shape[0] * shape[1]
    count = draw(st.integers(min_value=0, max_value=min(max_count, total)))
    flat = draw(
        st.lists(st.integers(0, total - 1), min_size=count, max_size=count,
                 unique=True)
    )
    return unflatten(np.sort(np.array(flat, dtype=np.int64)), shape)


class TestFlattenRoundtrip:
    @given(coord_sets())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, coords):
        flat = flatten(coords, SHAPE)
        np.testing.assert_array_equal(unflatten(flat, SHAPE), coords)

    @given(coord_sets())
    @settings(max_examples=50, deadline=None)
    def test_sorted_flat_means_cpr(self, coords):
        assert is_cpr_sorted(coords, SHAPE)


def unflatten_reference(flat, shape):
    """Int64 divide and modulo, then the int32 cast."""
    flat = np.asarray(flat, dtype=np.int64)
    return np.stack([flat // shape[1], flat % shape[1]], 1).astype(np.int32)


@st.composite
def shapes_and_flats(draw):
    """A grid of up to 2**32 cells (both unflatten branches) and a few
    in-range flat indices, the last cell included."""
    shape = (draw(st.integers(1, 1 << 16)), draw(st.integers(1, 1 << 16)))
    total = shape[0] * shape[1]
    flat = draw(st.lists(st.integers(0, total - 1), max_size=40))
    flat.append(total - 1)
    return shape, np.array(flat, dtype=np.int64)


class TestUnflatten:
    @given(shapes_and_flats())
    @settings(max_examples=100, deadline=None)
    def test_matches_int64_reference(self, case):
        shape, flat = case
        got = unflatten(flat, shape)
        assert got.dtype == np.int32 and got.shape == (len(flat), 2)
        np.testing.assert_array_equal(got, unflatten_reference(flat, shape))

    @pytest.mark.parametrize("shape", [SHAPE, (1 << 16, 1 << 16)])
    def test_empty(self, shape):
        for flat in (np.zeros(0, np.int64), np.zeros(0, np.int32), []):
            got = unflatten(flat, shape)
            assert got.dtype == np.int32 and got.shape == (0, 2)

    @pytest.mark.parametrize("shape", [
        (1, (1 << 31) - 1),         # the largest int32 grid, one row
        ((1 << 31) - 1, 1),         # ... and one column
        (1 << 16, 1 << 15),         # 2**31 cells: the int64 branch
        (3, 1 << 31),               # int64 branch, one row is 2**31
        ((1 << 20) + 7, 4099),
    ])
    def test_grids_at_and_past_int32(self, shape):
        total = shape[0] * shape[1]
        flat = np.array([0, shape[1] - 1, shape[1], total // 2,
                         total - shape[1], total - 1], dtype=np.int64)
        flat = flat[flat < total]
        np.testing.assert_array_equal(unflatten(flat, shape),
                                      unflatten_reference(flat, shape))


class TestCprSort:
    def test_sorts_shuffled(self):
        rng = np.random.default_rng(0)
        flat = rng.choice(SHAPE[0] * SHAPE[1], 40, replace=False)
        coords = unflatten(flat, SHAPE)
        sorted_coords, perm = cpr_sort(coords, SHAPE)
        assert is_cpr_sorted(sorted_coords, SHAPE)
        np.testing.assert_array_equal(coords[perm], sorted_coords)

    def test_empty(self):
        sorted_coords, perm = cpr_sort(np.zeros((0, 2), np.int32), SHAPE)
        assert len(sorted_coords) == 0


class TestValidate:
    def test_accepts_valid(self):
        validate_coords(np.array([[0, 0], [0, 5], [3, 2]], np.int32), SHAPE)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_coords(np.array([[1, 1], [1, 1]], np.int32), SHAPE)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            validate_coords(np.array([[2, 0], [1, 0]], np.int32), SHAPE)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            validate_coords(np.array([[0, SHAPE[1]]], np.int32), SHAPE)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_coords(np.array([[-1, 0]], np.int32), SHAPE)


class TestKernelOffsets:
    def test_3x3_order_matches_weight_indices(self):
        offsets = kernel_offsets(3)
        assert offsets.tolist()[0] == [-1, -1]
        assert offsets.tolist()[4] == [0, 0]
        assert offsets.tolist()[8] == [1, 1]

    def test_count(self):
        assert len(kernel_offsets(5)) == 25


class TestDilate:
    @given(coord_sets())
    @settings(max_examples=30, deadline=None)
    def test_dilation_is_superset(self, coords):
        out = dilate(coords, SHAPE)
        in_flat = set(flatten(coords, SHAPE).tolist())
        out_flat = set(flatten(out, SHAPE).tolist())
        assert in_flat <= out_flat

    @given(coord_sets())
    @settings(max_examples=30, deadline=None)
    def test_dilation_bounded_by_9x(self, coords):
        out = dilate(coords, SHAPE)
        assert len(out) <= 9 * max(len(coords), 1)

    def test_dilation_matches_dense_binary(self):
        coords = np.array([[5, 5], [5, 6], [10, 20]], np.int32)
        dense = np.zeros(SHAPE, bool)
        dense[coords[:, 0], coords[:, 1]] = True
        expected = np.zeros(SHAPE, bool)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                shifted = np.roll(np.roll(dense, dr, 0), dc, 1)
                if dr == -1:
                    shifted[-1] = False
                if dr == 1:
                    shifted[0] = False
                if dc == -1:
                    shifted[:, -1] = False
                if dc == 1:
                    shifted[:, 0] = False
                expected |= shifted
        out = dilate(coords, SHAPE)
        got = np.zeros(SHAPE, bool)
        got[out[:, 0], out[:, 1]] = True
        np.testing.assert_array_equal(got, expected)

    def test_empty(self):
        assert len(dilate(np.zeros((0, 2), np.int32), SHAPE)) == 0


class TestResample:
    @given(coord_sets())
    @settings(max_examples=30, deadline=None)
    def test_downsample_in_bounds_and_sorted(self, coords):
        out, out_shape = downsample_coords(coords, SHAPE, 2)
        assert out_shape == (12, 16)
        assert is_cpr_sorted(out, out_shape)

    @given(coord_sets())
    @settings(max_examples=30, deadline=None)
    def test_upsample_count_is_exactly_s2(self, coords):
        out, out_shape = upsample_coords(coords, SHAPE, 2)
        assert len(out) == 4 * len(coords)
        assert is_cpr_sorted(out, out_shape)

    def test_downsample_covers_halved_inputs(self):
        coords = np.array([[4, 6], [11, 21]], np.int32)
        out, out_shape = downsample_coords(coords, SHAPE, 2)
        out_set = set(map(tuple, out.tolist()))
        assert (2, 3) in out_set
        assert (5, 10) in out_set
