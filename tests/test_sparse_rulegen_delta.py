"""Delta rule generation: bit-identical parity against the per-offset
reference loop when frame N's rules are derived from frame N-1's, for
every ConvType — empty transitions, identical frames (arrays shared),
100%-changed frames, random toggles (hypothesis) and multi-frame delta
chains through the full rebuild."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    ConvType,
    build_rules_delta,
    build_rules_reference,
    unflatten,
)

SHAPE = (26, 34)
TOTAL = SHAPE[0] * SHAPE[1]

#: Every variant at its canonical configuration plus off-nominal kernel
#: sizes and strides — the same grid the fused parity suite pins, so
#: the delta path honors the identical contract.
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

EMPTY = np.zeros((0, 2), np.int32)


def frame_from_flat(flat):
    return unflatten(np.sort(np.asarray(flat, np.int64)), SHAPE)


def random_frame(count, seed=0):
    rng = np.random.default_rng(seed)
    return frame_from_flat(rng.choice(TOTAL, count, replace=False))


def toggled(flat, toggles):
    """Symmetric difference: each toggle flips one cell's membership."""
    base = set(int(value) for value in flat)
    for cell in toggles:
        cell = int(cell)
        if cell in base:
            base.remove(cell)
        else:
            base.add(cell)
    return frame_from_flat(sorted(base))


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


def reference_for(coords, conv_type, stride, kernel):
    return build_rules_reference(
        coords, SHAPE, conv_type, kernel_size=kernel, stride=stride
    )


class TestDeltaParity:
    @given(
        base=st.lists(st.integers(0, TOTAL - 1),
                      min_size=20, max_size=120, unique=True),
        toggles=st.lists(st.integers(0, TOTAL - 1),
                         min_size=0, max_size=10, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_toggles_match_reference(self, base, toggles):
        """The core property: for every ConvType, deriving frame N's
        rules from frame N-1's after a random membership toggle is
        bit-identical to building frame N from scratch."""
        prev_coords = frame_from_flat(base)
        new_coords = toggled(base, toggles)
        for conv_type, stride, kernel in CASES:
            prev = reference_for(prev_coords, conv_type, stride, kernel)
            delta = build_rules_delta(prev, new_coords)
            expect = reference_for(new_coords, conv_type, stride, kernel)
            assert_rules_identical(
                expect, delta, f"{conv_type.value}-s{stride}-k{kernel}"
            )

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES,
                             ids=CASE_IDS)
    def test_identical_frame_shares_previous_rules(self, conv_type,
                                                   stride, kernel):
        coords = random_frame(90, seed=11)
        prev = reference_for(coords, conv_type, stride, kernel)
        delta = build_rules_delta(prev, coords.copy())
        assert_rules_identical(prev, delta)
        # Zero delta: the previous structure is reused outright.
        for before, after in zip(prev.pairs, delta.pairs):
            assert after.in_idx is before.in_idx
            assert after.out_idx is before.out_idx

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES,
                             ids=CASE_IDS)
    def test_empty_transitions(self, conv_type, stride, kernel):
        frame = random_frame(40, seed=5)
        for prev_coords, new_coords, label in (
            (EMPTY, frame, "empty->frame"),
            (frame, EMPTY, "frame->empty"),
            (EMPTY, EMPTY, "empty->empty"),
        ):
            prev = reference_for(prev_coords, conv_type, stride, kernel)
            delta = build_rules_delta(prev, new_coords)
            expect = reference_for(new_coords, conv_type, stride, kernel)
            assert_rules_identical(expect, delta, label)

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES,
                             ids=CASE_IDS)
    def test_fully_changed_frame_falls_back(self, conv_type, stride,
                                            kernel):
        """A 100%-changed frame routes through the full rebuild — and
        matches."""
        rng = np.random.default_rng(17)
        cells = rng.choice(TOTAL, 160, replace=False)
        prev_coords = frame_from_flat(cells[:80])
        new_coords = frame_from_flat(cells[80:])
        prev = reference_for(prev_coords, conv_type, stride, kernel)
        delta = build_rules_delta(prev, new_coords)
        expect = reference_for(new_coords, conv_type, stride, kernel)
        assert_rules_identical(expect, delta)


class TestDeltaChains:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_chained_deltas_do_not_drift(self, seed):
        """Frames 1..N patch from the *previous delta result*, so any
        drift would compound — parity must hold at every link, for a
        random walk of toggles, through the full rebuild."""
        rng = np.random.default_rng(seed)
        flat = set(rng.choice(TOTAL, 100, replace=False).tolist())
        for conv_type, stride, kernel in (
            (ConvType.SPCONV, 1, 3),
            (ConvType.SUBM, 1, 3),
            (ConvType.STRIDED, 2, 3),
            (ConvType.DECONV, 2, 2),
        ):
            coords = frame_from_flat(sorted(flat))
            rules = build_rules_reference(
                coords, SHAPE, conv_type, kernel_size=kernel,
                stride=stride,
            )
            walk = set(flat)
            for frame in range(1, 4):
                for cell in rng.choice(TOTAL, 8, replace=False):
                    cell = int(cell)
                    if cell in walk:
                        walk.remove(cell)
                    else:
                        walk.add(cell)
                coords = frame_from_flat(sorted(walk))
                rules = build_rules_delta(rules, coords)
                expect = build_rules_reference(
                    coords, SHAPE, conv_type, kernel_size=kernel,
                    stride=stride,
                )
                assert_rules_identical(
                    expect, rules, f"{conv_type.value} frame {frame}"
                )
