"""Fused and row-sharded rule generation: bit-identical parity against
the per-offset reference loop for every ConvType, every frame shape
(empty, single-row, dense) and shard counts beyond the row count, plus
the monotonicity invariant on the merged per-offset index lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    RULEGEN_SHARDS_ENV_VAR,
    ConvType,
    build_rules,
    build_rules_reference,
    build_rules_sharded,
    resolve_rulegen_shards,
    unflatten,
)

SHAPE = (26, 34)

#: Every variant at its canonical configuration plus off-nominal kernel
#: sizes and strides (even kernels reach asymmetrically).
CASES = [
    (ConvType.SPCONV, 1, 3),
    (ConvType.SPCONV, 1, 2),
    (ConvType.SPCONV, 1, 5),
    (ConvType.SUBM, 1, 3),
    (ConvType.SPCONV_P, 1, 3),
    (ConvType.STRIDED, 2, 3),
    (ConvType.STRIDED, 3, 3),
    (ConvType.STRIDED_SUBM, 2, 3),
    (ConvType.DECONV, 2, 2),
    (ConvType.DECONV, 3, 3),
]

CASE_IDS = [f"{ct.value}-s{stride}-k{ks}" for ct, stride, ks in CASES]


def frame_from_flat(flat):
    return unflatten(np.sort(np.asarray(flat, np.int64)), SHAPE)


def random_frame(count, seed=0):
    rng = np.random.default_rng(seed)
    total = SHAPE[0] * SHAPE[1]
    return frame_from_flat(rng.choice(total, count, replace=False))


FRAMES = {
    "typical": random_frame(120),
    "sparse": random_frame(7, seed=3),
    "empty": np.zeros((0, 2), np.int32),
    "single-row": frame_from_flat(5 * SHAPE[1] + np.arange(0, 30, 3)),
    "single-pillar": frame_from_flat([8 * SHAPE[1] + 17]),
    "half-dense": random_frame(SHAPE[0] * SHAPE[1] // 2, seed=7),
}


def assert_rules_identical(reference, candidate, label=""):
    assert candidate.out_shape == reference.out_shape, label
    np.testing.assert_array_equal(
        candidate.out_coords, reference.out_coords, err_msg=label
    )
    assert len(candidate.pairs) == len(reference.pairs), label
    for index, (expect, got) in enumerate(
        zip(reference.pairs, candidate.pairs)
    ):
        np.testing.assert_array_equal(
            got.in_idx, expect.in_idx, err_msg=f"{label} offset {index}"
        )
        np.testing.assert_array_equal(
            got.out_idx, expect.out_idx, err_msg=f"{label} offset {index}"
        )


class TestFusedParity:
    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_fused_matches_reference(self, conv_type, stride, kernel, frame):
        coords = FRAMES[frame]
        reference = build_rules_reference(
            coords, SHAPE, conv_type, kernel_size=kernel, stride=stride
        )
        fused = build_rules(
            coords, SHAPE, conv_type, kernel_size=kernel, stride=stride
        )
        assert_rules_identical(reference, fused, f"{frame}")

    def test_index_dtypes_are_int32(self):
        rules = build_rules(FRAMES["typical"], SHAPE, ConvType.SPCONV)
        for pair in rules.pairs:
            assert pair.in_idx.dtype == np.int32
            assert pair.out_idx.dtype == np.int32


class TestShardedParity:
    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 64])
    def test_sharded_matches_reference(self, conv_type, stride, kernel,
                                       shards):
        coords = FRAMES["typical"]
        reference = build_rules_reference(
            coords, SHAPE, conv_type, kernel_size=kernel, stride=stride
        )
        sharded = build_rules_sharded(
            coords, SHAPE, conv_type, kernel_size=kernel, stride=stride,
            shards=shards, max_workers=2,
        )
        assert_rules_identical(reference, sharded, f"shards={shards}")

    @pytest.mark.parametrize(
        "frame", ["empty", "single-row", "single-pillar", "half-dense"]
    )
    def test_degenerate_frames(self, frame):
        """Shard counts exceeding the occupied-row count must degrade to
        fewer bands, and an empty frame to the empty-rules shape."""
        coords = FRAMES[frame]
        for conv_type, stride, kernel in CASES:
            reference = build_rules_reference(
                coords, SHAPE, conv_type, kernel_size=kernel, stride=stride
            )
            sharded = build_rules_sharded(
                coords, SHAPE, conv_type, kernel_size=kernel, stride=stride,
                shards=16, max_workers=2,
            )
            assert_rules_identical(
                reference, sharded, f"{frame} {conv_type.value}"
            )

    def test_serial_and_threaded_bands_identical(self):
        coords = FRAMES["half-dense"]
        threaded = build_rules_sharded(
            coords, SHAPE, ConvType.SPCONV, shards=4, max_workers=4
        )
        serial = build_rules_sharded(
            coords, SHAPE, ConvType.SPCONV, shards=4, max_workers=1
        )
        assert_rules_identical(serial, threaded)


class TestMergedMonotonicity:
    @given(
        flat=st.lists(
            st.integers(0, SHAPE[0] * SHAPE[1] - 1),
            min_size=1, max_size=90, unique=True,
        ),
        shards=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_merged_per_offset_lists_strictly_ascend(self, flat, shards):
        """The band merge must preserve the invariant the RGU, ATM and
        conflict-free scatter depend on: per-offset in/out index lists
        strictly ascend."""
        coords = frame_from_flat(flat)
        for conv_type, stride in [
            (ConvType.SPCONV, 1),
            (ConvType.SUBM, 1),
            (ConvType.STRIDED, 2),
            (ConvType.DECONV, 2),
        ]:
            rules = build_rules_sharded(
                coords, SHAPE, conv_type, stride=stride, shards=shards,
                max_workers=2,
            )
            for pair in rules.pairs:
                if len(pair) > 1:
                    assert (np.diff(pair.in_idx) > 0).all()
                    assert (np.diff(pair.out_idx) > 0).all()


class TestShardResolution:
    def test_explicit_value_validated(self):
        assert resolve_rulegen_shards(4) == 4
        assert resolve_rulegen_shards("2") == 2
        for bad in (0, -3, "two", 1.5, ""):
            with pytest.raises(ValueError, match="rulegen_shards"):
                resolve_rulegen_shards(bad)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(RULEGEN_SHARDS_ENV_VAR, raising=False)
        assert resolve_rulegen_shards() == 1
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "3")
        assert resolve_rulegen_shards() == 3
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "zero")
        with pytest.raises(ValueError, match=RULEGEN_SHARDS_ENV_VAR):
            resolve_rulegen_shards()

    def test_env_feeds_sharded_builder(self, monkeypatch):
        monkeypatch.setenv(RULEGEN_SHARDS_ENV_VAR, "3")
        coords = FRAMES["typical"]
        from_env = build_rules_sharded(coords, SHAPE, ConvType.SPCONV)
        reference = build_rules_reference(coords, SHAPE, ConvType.SPCONV)
        assert_rules_identical(reference, from_env)
