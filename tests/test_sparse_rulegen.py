"""Rule generation: every conv variant validated against dense references,
plus the monotonicity invariants the whole accelerator depends on, and
every route against the reference loop on frames that touch the border,
with the offsets that cover every input sharing one row index."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    ConvType,
    RulePairs,
    SparseTensor,
    build_rules,
    build_rules_reference,
    build_rules_sharded,
    dense_conv2d_reference,
    dense_deconv2d_reference,
    init_conv_weight,
    sparse_conv,
    unflatten,
)

SHAPE = (26, 34)


def tensor_from_flat(flat, channels=6, seed=0):
    coords = unflatten(np.sort(np.asarray(flat, np.int64)), SHAPE)
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(len(coords), channels)).astype(np.float32)
    return SparseTensor(coords, features, SHAPE)


@st.composite
def sparse_tensors(draw):
    total = SHAPE[0] * SHAPE[1]
    count = draw(st.integers(min_value=1, max_value=80))
    flat = draw(st.lists(st.integers(0, total - 1), min_size=count,
                         max_size=count, unique=True))
    return tensor_from_flat(flat)


def restrict_to_active(dense, coords):
    mask = np.zeros(dense.shape[1:], bool)
    mask[coords[:, 0], coords[:, 1]] = True
    return dense * mask


class TestRuleInvariants:
    @pytest.mark.parametrize("conv_type,stride", [
        (ConvType.SPCONV, 1),
        (ConvType.SUBM, 1),
        (ConvType.SPCONV_P, 1),
        (ConvType.STRIDED, 2),
        (ConvType.STRIDED_SUBM, 2),
        (ConvType.DECONV, 2),
    ])
    def test_indices_monotone_ascending(self, conv_type, stride):
        tensor = tensor_from_flat(np.arange(0, 800, 13))
        rules = build_rules(tensor.coords, SHAPE, conv_type, stride=stride)
        for pair in rules.pairs:
            if len(pair) > 1:
                assert (np.diff(pair.in_idx) > 0).all()
                assert (np.diff(pair.out_idx) > 0).all()

    def test_center_offset_covers_all_inputs_for_subm(self):
        tensor = tensor_from_flat(np.arange(0, 500, 7))
        rules = build_rules(tensor.coords, SHAPE, ConvType.SUBM)
        center = rules.pairs[4]
        assert len(center) == tensor.num_active

    def test_iopr_one_for_subm(self):
        tensor = tensor_from_flat(np.arange(0, 500, 7))
        rules = build_rules(tensor.coords, SHAPE, ConvType.SUBM)
        assert rules.iopr == 1.0

    def test_iopr_at_most_one_for_strided_subm(self):
        tensor = tensor_from_flat(np.arange(0, 500, 7))
        rules = build_rules(tensor.coords, SHAPE, ConvType.STRIDED_SUBM,
                            stride=2)
        assert rules.iopr <= 1.0

    def test_deconv_pairs_cover_every_input_per_offset(self):
        tensor = tensor_from_flat(np.arange(0, 300, 11))
        rules = build_rules(tensor.coords, SHAPE, ConvType.DECONV, stride=2)
        assert len(rules.pairs) == 4
        for pair in rules.pairs:
            assert len(pair) == tensor.num_active

    def test_macs_counts_pairs_times_channels(self):
        tensor = tensor_from_flat(np.arange(0, 300, 11))
        rules = build_rules(tensor.coords, SHAPE, ConvType.SPCONV)
        assert rules.macs(8, 16) == rules.total_pairs * 128

    def test_empty_input(self):
        rules = build_rules(np.zeros((0, 2), np.int32), SHAPE, ConvType.SPCONV)
        assert rules.num_outputs == 0
        assert rules.total_pairs == 0
        assert len(rules.pairs) == 9

    def test_invalid_stride_combinations(self):
        coords = np.array([[1, 1]], np.int32)
        with pytest.raises(ValueError):
            build_rules(coords, SHAPE, ConvType.SPCONV, stride=2)
        with pytest.raises(ValueError):
            build_rules(coords, SHAPE, ConvType.SUBM, stride=2)
        with pytest.raises(ValueError):
            build_rules(coords, SHAPE, ConvType.STRIDED, stride=1)
        with pytest.raises(ValueError):
            build_rules(coords, SHAPE, ConvType.DECONV, stride=1)


class TestAgainstDenseReference:
    @given(sparse_tensors())
    @settings(max_examples=20, deadline=None)
    def test_spconv_matches_dense(self, tensor):
        weight = init_conv_weight(3, tensor.num_channels, 5)
        out, _ = sparse_conv(tensor, weight, ConvType.SPCONV)
        reference = dense_conv2d_reference(tensor.to_dense(), weight)
        np.testing.assert_allclose(out.to_dense(), reference, atol=1e-4)

    @given(sparse_tensors())
    @settings(max_examples=20, deadline=None)
    def test_subm_matches_dense_restricted(self, tensor):
        weight = init_conv_weight(3, tensor.num_channels, 5)
        out, _ = sparse_conv(tensor, weight, ConvType.SUBM)
        reference = restrict_to_active(
            dense_conv2d_reference(tensor.to_dense(), weight), tensor.coords
        )
        np.testing.assert_allclose(out.to_dense(), reference, atol=1e-4)

    @given(sparse_tensors())
    @settings(max_examples=20, deadline=None)
    def test_strided_matches_dense_restricted(self, tensor):
        weight = init_conv_weight(3, tensor.num_channels, 4)
        out, rules = sparse_conv(tensor, weight, ConvType.STRIDED, stride=2)
        reference = restrict_to_active(
            dense_conv2d_reference(tensor.to_dense(), weight, stride=2),
            out.coords,
        )
        np.testing.assert_allclose(out.to_dense(), reference, atol=1e-4)

    @given(sparse_tensors())
    @settings(max_examples=20, deadline=None)
    def test_deconv_matches_dense(self, tensor):
        weight = init_conv_weight(2, tensor.num_channels, 4)
        out, _ = sparse_conv(tensor, weight, ConvType.DECONV, stride=2)
        reference = dense_deconv2d_reference(tensor.to_dense(), weight, 2)
        np.testing.assert_allclose(out.to_dense(), reference, atol=1e-4)

    def test_spconv_p_rules_equal_spconv(self):
        tensor = tensor_from_flat(np.arange(0, 700, 9))
        rules_p = build_rules(tensor.coords, SHAPE, ConvType.SPCONV_P)
        rules_s = build_rules(tensor.coords, SHAPE, ConvType.SPCONV)
        np.testing.assert_array_equal(rules_p.out_coords, rules_s.out_coords)
        assert rules_p.total_pairs == rules_s.total_pairs


#: (conv type, stride) of every variant: the stride-1 types, and the
#: strided and deconv types at strides 2 and 3.
ROUTE_VARIANTS = [(ConvType.SPCONV, 1), (ConvType.SUBM, 1),
                  (ConvType.SPCONV_P, 1)] + [
    (conv_type, stride)
    for conv_type in (ConvType.STRIDED, ConvType.STRIDED_SUBM,
                      ConvType.DECONV)
    for stride in (2, 3)
]


@st.composite
def border_frames(draw):
    """A grid with odd or even sides, and a frame with a pillar on each
    of its border rows and columns (or the whole border ring)."""
    rows = 2 * draw(st.integers(0, 6)) + draw(st.integers(1, 2))
    cols = 2 * draw(st.integers(0, 6)) + draw(st.integers(1, 2))
    every = np.arange(rows * cols).reshape(rows, cols)
    border = [every[0], every[-1], every[:, 0], every[:, -1]]
    flat = set(draw(st.lists(st.integers(0, rows * cols - 1),
                             max_size=rows * cols)))
    if draw(st.booleans()):
        for line in border:
            flat.update(line.tolist())
    else:
        flat.update(int(draw(st.sampled_from(line.tolist())))
                    for line in border)
    shape = (rows, cols)
    return shape, unflatten(np.array(sorted(flat)), shape)


def assert_same_rules(expect, got, label):
    assert (got.out_shape, got.kernel_size) == (expect.out_shape,
                                                expect.kernel_size), label
    assert got.out_coords.dtype == expect.out_coords.dtype, label
    np.testing.assert_array_equal(got.out_coords, expect.out_coords,
                                  err_msg=label)
    assert len(got.pairs) == len(expect.pairs), label
    for index, (want, have) in enumerate(zip(expect.pairs, got.pairs)):
        where = f"{label} offset {index}"
        for name in ("in_idx", "out_idx"):
            have_idx, want_idx = getattr(have, name), getattr(want, name)
            assert have_idx.dtype == want_idx.dtype == np.int32, where
            np.testing.assert_array_equal(have_idx, want_idx,
                                          err_msg=f"{where} {name}")


def full_rows(rules):
    """The in_idx arrays of the offsets that cover every input."""
    return [pair.in_idx for pair in rules.pairs
            if len(pair) == rules.num_inputs]


def assert_full_offsets_share_rows(rules, label):
    full = full_rows(rules)
    assert all(in_idx is full[0] for in_idx in full), label
    if full:
        np.testing.assert_array_equal(
            full[0], np.arange(rules.num_inputs), err_msg=label)


def unshared_copy(rules):
    return dataclasses.replace(rules, pairs=[
        RulePairs(pair.in_idx.copy(), pair.out_idx.copy())
        for pair in rules.pairs])


class TestRoutesOnBorderFrames:
    @given(border_frames(), st.sampled_from(ROUTE_VARIANTS),
           st.sampled_from([1, 3]))
    @settings(max_examples=300, deadline=None)
    def test_routes_equal_reference(self, frame, variant, kernel):
        shape, coords = frame
        conv_type, stride = variant
        args = (coords, shape, conv_type, kernel, stride)
        reference = build_rules_reference(*args)
        built = {"build_rules": build_rules(*args)}
        for shards in (1, 2, 3, 4):
            built[f"shards={shards}"] = build_rules_sharded(
                *args, shards=shards, max_workers=2)
        for label, rules in built.items():
            assert_same_rules(reference, rules, label)
            assert_full_offsets_share_rows(rules, label)

        rules = built["build_rules"]
        data = pickle.dumps(rules)
        assert len(data) <= len(pickle.dumps(unshared_copy(rules)))
        loaded = pickle.loads(data)
        assert_same_rules(rules, loaded, "loaded")
        assert_full_offsets_share_rows(loaded, "loaded")

    def test_full_offsets_share_one_array(self):
        """DECONV feeds every input at every offset: all four share it."""
        coords = unflatten(np.arange(0, 300, 11), SHAPE)
        rules = build_rules(coords, SHAPE, ConvType.DECONV, stride=2)
        assert len(full_rows(rules)) == 4
        assert_full_offsets_share_rows(rules, "deconv")
        unshared = len(pickle.dumps(unshared_copy(rules)))
        assert len(pickle.dumps(rules)) < unshared
