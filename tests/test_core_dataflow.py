"""Dataflow scheduler: instruction breakdowns, optimizations, dense path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    INSTRUCTIONS,
    SPADE_HE,
    SPADE_LE,
    SpadeConfig,
    schedule_dense_layer,
    schedule_sparse_layer,
)
from repro.sparse import ConvType, build_rules, unflatten

SHAPE = (96, 104)


def make_rules(count=600, conv_type=ConvType.SPCONV, stride=1, seed=0):
    rng = np.random.default_rng(seed)
    total = SHAPE[0] * SHAPE[1]
    flat = np.sort(rng.choice(total, count, replace=False))
    return build_rules(unflatten(flat, SHAPE), SHAPE, conv_type,
                       stride=stride)


class TestSparseSchedule:
    def test_breakdown_has_all_instructions(self):
        schedule = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE)
        assert set(schedule.breakdown) == set(INSTRUCTIONS)

    def test_total_is_breakdown_sum(self):
        schedule = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE)
        assert schedule.total_cycles == sum(schedule.breakdown.values())

    def test_mxu_cycles_at_least_ideal(self):
        schedule = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE)
        ideal = schedule.macs / SPADE_HE.peak_macs_per_cycle
        assert schedule.mxu_cycles >= ideal

    def test_utilization_bounded(self):
        schedule = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE)
        assert 0.0 < schedule.utilization(SPADE_HE) <= 1.0

    def test_wider_channels_increase_macs_not_tiles(self):
        narrow = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE)
        wide = schedule_sparse_layer(make_rules(), 64, 256, SPADE_HE)
        assert wide.macs == 4 * narrow.macs

    def test_empty_rules_zero_cycles(self):
        rules = build_rules(np.zeros((0, 2), np.int32), SHAPE,
                            ConvType.SPCONV)
        schedule = schedule_sparse_layer(rules, 64, 64, SPADE_HE)
        assert schedule.total_cycles == 0

    def test_dram_bytes_cover_activations(self):
        rules = make_rules()
        schedule = schedule_sparse_layer(rules, 64, 64, SPADE_HE)
        minimum = rules.num_inputs * 64 + rules.num_outputs * 64
        assert schedule.dram_bytes >= minimum

    def test_prune_flag_counts_outputs(self):
        rules = make_rules()
        schedule = schedule_sparse_layer(rules, 64, 64, SPADE_HE, prune=True)
        assert schedule.pruned_outputs == rules.num_outputs

    def test_le_slower_than_he(self):
        rules = make_rules(count=2000)
        he = schedule_sparse_layer(rules, 64, 64, SPADE_HE)
        le = schedule_sparse_layer(rules, 64, 64, SPADE_LE)
        assert le.total_cycles > 2 * he.total_cycles


class TestWeightGrouping:
    def test_grouping_reduces_weight_loads(self):
        rules = make_rules(count=3000, conv_type=ConvType.STRIDED, stride=2)
        base = schedule_sparse_layer(rules, 64, 64, SPADE_HE, optimize=False)
        opt = schedule_sparse_layer(rules, 64, 64, SPADE_HE, optimize=True)
        assert opt.weight_grouping
        assert not base.weight_grouping
        assert opt.breakdown["load_wgt"] < base.breakdown["load_wgt"]

    def test_grouping_reduces_overhead_fraction(self):
        # Fig. 8(c) left: weight grouping cuts SpStConv overhead ~2x.
        rules = make_rules(count=3000, conv_type=ConvType.STRIDED, stride=2)
        base = schedule_sparse_layer(rules, 64, 64, SPADE_HE, optimize=False)
        opt = schedule_sparse_layer(rules, 64, 64, SPADE_HE, optimize=True)
        assert opt.overhead_fraction < base.overhead_fraction

    def test_grouping_not_applied_to_plain_spconv(self):
        schedule = schedule_sparse_layer(make_rules(), 64, 64, SPADE_HE,
                                         optimize=True)
        assert not schedule.weight_grouping


class TestGangedScatter:
    def test_ganged_scatter_increases_effective_ta(self):
        rules = make_rules(count=3000, conv_type=ConvType.DECONV, stride=4)
        base = schedule_sparse_layer(rules, 256, 128, SPADE_HE,
                                     optimize=False)
        opt = schedule_sparse_layer(rules, 256, 128, SPADE_HE, optimize=True)
        assert opt.ganged_scatter
        assert opt.effective_ta > base.effective_ta

    def test_ganged_scatter_reduces_cycles(self):
        rules = make_rules(count=3000, conv_type=ConvType.DECONV, stride=4)
        base = schedule_sparse_layer(rules, 256, 128, SPADE_HE,
                                     optimize=False)
        opt = schedule_sparse_layer(rules, 256, 128, SPADE_HE, optimize=True)
        assert opt.total_cycles < base.total_cycles


#: (conv type, stride) of every sparse convolution variant.
VARIANTS = [
    (ConvType.SPCONV, 1),
    (ConvType.SUBM, 1),
    (ConvType.SPCONV_P, 1),
    (ConvType.STRIDED, 2),
    (ConvType.STRIDED, 3),
    (ConvType.STRIDED_SUBM, 2),
    (ConvType.DECONV, 2),
    (ConvType.DECONV, 3),
]


@st.composite
def layers(draw):
    """(build, in_channels, out_channels): ``build()`` makes the layer's
    Rules afresh from one random small frame."""
    conv_type, stride = draw(st.sampled_from(VARIANTS))
    shape = (draw(st.integers(1, 14)), draw(st.integers(1, 16)))
    total = shape[0] * shape[1]
    flat = draw(st.lists(st.integers(0, total - 1), max_size=total,
                         unique=True))
    coords = unflatten(np.sort(np.asarray(flat, np.int64)), shape)

    def build():
        return build_rules(coords, shape, conv_type, stride=stride)

    return build, draw(st.integers(1, 160)), draw(st.integers(1, 160))


#: Accelerator instances with small, random buffers, so layers of a few
#: dozen pillars still split into many tiles (and weights may not fit).
#: BUFin sizes come from a short list, so that points of one draw often
#: share a tile length and differ only in their BUFout capacity.
configs = st.builds(
    SpadeConfig,
    pe_rows=st.sampled_from([4, 8, 16]),
    pe_cols=st.sampled_from([4, 8, 16]),
    buf_in_bytes=st.sampled_from([16, 64, 128, 2048]),
    buf_out_bytes=st.integers(1, 4096),
    buf_wgt_bytes=st.integers(1, 1 << 16),
    dram_bytes_per_cycle=st.integers(1, 64),
)


class TestSparseScheduleProperties:
    @given(layers(), configs, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_breakdown_and_counts(self, layer, config, optimize, prune):
        build, in_channels, out_channels = layer
        rules = build()
        schedule = schedule_sparse_layer(rules, in_channels, out_channels,
                                         config, prune=prune,
                                         optimize=optimize)
        assert set(schedule.breakdown) == set(INSTRUCTIONS)
        for cycles in schedule.breakdown.values():
            assert type(cycles) is int and cycles >= 0
        n_c = -(-in_channels // config.pe_rows)
        n_m = -(-out_channels // config.pe_cols)
        assert schedule.breakdown["mxu"] == (
            rules.total_pairs * n_c * n_m
            + schedule.num_tiles * (config.pe_rows + config.pe_cols))
        assert schedule.rule_entries == rules.total_pairs
        assert schedule.macs == rules.macs(in_channels, out_channels)
        assert type(schedule.macs) is type(schedule.rule_entries) is int

    @given(layers(), st.lists(st.tuples(configs, st.booleans()),
                              min_size=1, max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_shared_rules_schedule_like_fresh_ones(self, layer, points,
                                                   random):
        build, in_channels, out_channels = layer
        # Repeat points so that some plans are served from the memo.
        points = points + points[: len(points) // 2]
        random.shuffle(points)
        shared = build()
        for config, optimize in points:
            assert schedule_sparse_layer(
                shared, in_channels, out_channels, config,
                optimize=optimize,
            ) == schedule_sparse_layer(
                build(), in_channels, out_channels, config,
                optimize=optimize,
            )


class TestDenseSchedule:
    def test_dense_utilization_high_for_big_layers(self):
        schedule = schedule_dense_layer(128 * 128, 128, 128, SPADE_HE,
                                        out_width=128)
        assert schedule.utilization(SPADE_HE) > 0.6

    def test_dense_macs_formula(self):
        schedule = schedule_dense_layer(1000, 64, 64, SPADE_HE, out_width=50)
        assert schedule.macs == 1000 * 9 * 64 * 64

    def test_deconv_counts_input_pixels(self):
        schedule = schedule_dense_layer(1000, 64, 64, SPADE_HE,
                                        kernel_size=2, upsample_stride=2,
                                        out_width=100)
        assert schedule.macs == 1000 * 4 * 64 * 64

    def test_1x1_has_no_copy_psum(self):
        schedule = schedule_dense_layer(1000, 384, 72, SPADE_HE,
                                        kernel_size=1, out_width=100)
        assert schedule.breakdown["copy_psum"] == 0
