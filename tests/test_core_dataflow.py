"""Dataflow scheduler: instruction breakdowns, optimizations, dense path."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import trace_model
from repro.baselines.pointacc import PointAccSimulator
from repro.core import (
    INSTRUCTIONS,
    SPADE_HE,
    SPADE_LE,
    LayerSchedule,
    SpadeAccelerator,
    SpadeConfig,
    dataflow,
    schedule_dense_layer,
    schedule_sparse_layer,
    schedule_sparse_layers,
)
from repro.core.dataflow import _ceil_div, _group_factor
from repro.core.gsu import plan_tiles
from repro.core.rgu import RGUModel
from repro.models import build_model_spec
from repro.sparse import ConvType, Rules, build_rules, unflatten

SHAPE = (96, 104)


def make_rules(count=600, conv_type=ConvType.SPCONV, stride=1, seed=0):
    rng = np.random.default_rng(seed)
    total = SHAPE[0] * SHAPE[1]
    flat = np.sort(rng.choice(total, count, replace=False))
    return build_rules(unflatten(flat, SHAPE), SHAPE, conv_type,
                       stride=stride)


def schedule_sparse_layer_oracle(
    rules: Rules,
    in_channels: int,
    out_channels: int,
    config: SpadeConfig,
    name: str = "",
    prune: bool = False,
    optimize: bool = True,
) -> LayerSchedule:
    """Schedule one sparse convolution on SPADE, one layer at a time.

    The per-layer scheduler that :func:`schedule_sparse_layers` replaced,
    kept as the definition the batch is tested against.

    Args:
        rules: Precomputed layer mapping.
        in_channels / out_channels: Feature depths C and M.
        config: Accelerator instance.
        name: Layer label for reports.
        prune: Whether the SFU prunes outputs (SpConv-P layers).
        optimize: Enable weight grouping / ganged scatter / adaptive T_a.

    Returns:
        A :class:`LayerSchedule` with the instruction breakdown.
    """
    pe_r, pe_c = config.pe_rows, config.pe_cols
    n_c = _ceil_div(max(in_channels, 1), pe_r)
    n_m = _ceil_div(max(out_channels, 1), pe_c)
    fill = pe_r + pe_c

    schedule = LayerSchedule(
        name=name,
        conv_type=rules.conv_type.value,
        macs=0,
        num_tiles=0,
        weight_grouping=(
            optimize and rules.conv_type is ConvType.STRIDED and rules.stride > 1
        ),
        ganged_scatter=(optimize and rules.conv_type is ConvType.DECONV),
    )
    if rules.num_inputs == 0:
        schedule.breakdown = {key: 0 for key in INSTRUCTIONS}
        return schedule

    ta_cap = config.buf_in_capacity_pillars(in_channels)
    to_cap = config.buf_out_capacity_pillars(out_channels)
    if schedule.ganged_scatter:
        # Outputs leave the buffer per offset; the window constraint
        # reduces to the per-offset output count (= tile input count).
        to_cap = max(to_cap, ta_cap * rules.stride * rules.stride)
    tiling = plan_tiles(rules, ta_cap, to_cap)
    schedule.num_tiles = tiling.num_tiles
    schedule.effective_ta = rules.num_inputs / max(tiling.num_tiles, 1)

    group = _group_factor(rules.conv_type, rules.stride,
                          schedule.weight_grouping, rules.kernel_size)
    bpc = config.dram_bytes_per_cycle

    weight_tile_bytes = pe_r * pe_c * config.wgt_bytes
    layer_weight_bytes = (
        len(rules.pairs) * in_channels * out_channels * config.wgt_bytes
    )
    weights_fit = layer_weight_bytes <= config.buf_wgt_bytes

    # Per-tile cost vectors; index t is tile t of the plan.
    tile_pairs = tiling.tile_pairs
    passes = tiling.active_offsets * n_c * n_m
    # Passes stream back-to-back (weights preloaded into shadow
    # registers), so the systolic fill/drain is paid once per tile.
    tile_mxu = tile_pairs * n_c * n_m + fill
    tile_loads = _ceil_div(passes, group)
    tile_gather = _ceil_div((tiling.in_end - tiling.in_start) * in_channels
                            * config.act_bytes, bpc)
    tile_scatter = _ceil_div((tiling.out_end - tiling.out_start)
                             * out_channels * config.act_bytes, bpc)
    tile_rulegen = tile_pairs + RGUModel.PIPELINE_FILL
    # Gathers and RuleGen of tile t hide behind the MXU time of tile t-1;
    # nothing precedes the first tile.
    hiding = np.concatenate(([0], tile_mxu[:-1]))

    def stalls(cycles):
        return int(np.maximum(cycles - hiding, 0).sum())

    if weights_fit:
        # One up-front streamed fetch of the layer weights, paid at layer
        # start (nothing of this layer runs yet, so it cannot hide).
        gather_wgt_stall = _ceil_div(layer_weight_bytes, bpc)
    else:
        gather_wgt_stall = stalls(
            _ceil_div(tile_loads * weight_tile_bytes, bpc))

    schedule.rule_entries = int(tile_pairs.sum())
    schedule.macs = schedule.rule_entries * in_channels * out_channels
    schedule.pruned_outputs = rules.num_outputs if prune else 0
    schedule.breakdown = {
        "rulegen": stalls(tile_rulegen),
        "gather_inp": stalls(tile_gather),
        "gather_wgt": gather_wgt_stall,
        "load_wgt": int(tile_loads.sum()) * pe_r,
        "mxu": int(tile_mxu.sum()),
        "copy_psum": int(tiling.overlap.sum()) * n_m,
        "scatter_out": int(np.maximum(tile_scatter - tile_mxu, 0).sum()),
    }
    weight_refetches = 1 if weights_fit else tiling.num_tiles
    schedule.dram_bytes = (
        rules.num_inputs * in_channels * config.act_bytes
        + rules.num_outputs * out_channels * config.act_bytes
        + layer_weight_bytes * weight_refetches
    )
    return schedule


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


#: The design points of the pinned schedules: HE, LE and HE small-buffer.
PAPER_CONFIGS = [
    SPADE_HE,
    SPADE_LE,
    replace(SPADE_HE, buf_in_bytes=8 * 1024, buf_out_bytes=64 * 1024),
]

#: Channel depths from 1 to 512: 3x3 layers of 256 or more channels
#: overflow every paper config's weight buffer, narrow ones fit.
channels = st.sampled_from([1, 3, 16, 64, 100, 128, 256, 512])


def random_rules(conv_type, stride, shape, count, seed) -> Rules:
    """Rules of ``count`` random active pillars on a ``shape`` grid."""
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(shape[0] * shape[1], count, replace=False))
    return build_rules(unflatten(flat, shape), shape, conv_type,
                       stride=stride)


@st.composite
def sparse_models(draw):
    """One random model: 1-6 sparse layers of every conv type, each on
    its own frame of 0 (empty), 1 or up to ~1,600 pillars, so layers
    split into one tile or dozens."""
    model = []
    for index in range(draw(st.integers(1, 6))):
        conv_type, stride = draw(st.sampled_from(VARIANTS))
        shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
        total = shape[0] * shape[1]
        count = draw(st.one_of(st.just(0), st.just(1),
                               st.integers(0, total)))
        rules = random_rules(conv_type, stride, shape, count,
                             draw(st.integers(0, 2**16)))
        model.append((rules, draw(channels), draw(channels), f"L{index}"))
    return model


def assert_batch_matches_oracle(model, config):
    """Every field of every layer's schedule, for both settings of
    ``prune`` and ``optimize``."""
    for prune in (False, True):
        for optimize in (False, True):
            batch = schedule_sparse_layers(
                [(*layer, prune) for layer in model], config, optimize)
            expected = [
                schedule_sparse_layer_oracle(
                    rules, in_channels, out_channels, config, name=name,
                    prune=prune, optimize=optimize)
                for rules, in_channels, out_channels, name in model
            ]
            assert len(batch) == len(expected)
            for got, want in zip(batch, expected):
                # Dataclass equality covers breakdown, num_tiles, macs,
                # dram_bytes, rule_entries, pruned_outputs, effective_ta
                # and both optimisation flags; the key order and int
                # types are checked on top.
                assert got == want, (got.name, prune, optimize)
                assert list(got.breakdown) == list(INSTRUCTIONS)
                for value in (*got.breakdown.values(), got.macs,
                              got.dram_bytes, got.rule_entries):
                    assert type(value) is int


class TestBatchMatchesOracle:
    @given(sparse_models(), st.one_of(st.sampled_from(PAPER_CONFIGS),
                                      configs))
    @settings(max_examples=150, deadline=None)
    def test_random_models(self, model, config):
        assert_batch_matches_oracle(model, config)

    @pytest.mark.parametrize("config", PAPER_CONFIGS,
                             ids=["he", "le", "he-smallbuf"])
    def test_mixed_model(self, config):
        # An empty layer between non-empty ones, a single-pillar layer,
        # and layers whose weights fit (64 channels) or do not (512).
        model = [
            (make_rules(2000), 512, 512, "wide"),
            (random_rules(ConvType.SUBM, 1, SHAPE, 0, 0), 64, 64, "empty"),
            (make_rules(3000, ConvType.STRIDED, stride=2), 64, 128,
             "strided"),
            (random_rules(ConvType.SPCONV, 1, SHAPE, 1, 0), 64, 64, "one"),
            (make_rules(1500, ConvType.DECONV, stride=2), 256, 128,
             "deconv"),
        ]
        weights_fit = {
            name: len(rules.pairs) * c * m * config.wgt_bytes
            <= config.buf_wgt_bytes
            for rules, c, m, name in model
        }
        assert not weights_fit["wide"] and weights_fit["one"]
        assert_batch_matches_oracle(model, config)

    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_one_layer_model(self, count):
        rules = random_rules(ConvType.SPCONV_P, 1, SHAPE, count, 3)
        assert_batch_matches_oracle([(rules, 64, 64, "only")], SPADE_HE)

    def test_no_layers(self):
        assert schedule_sparse_layers([], SPADE_HE) == []


class TestPlanningCalls:
    """Model-level runs plan each non-empty sparse layer once, through
    ``repro.core.dataflow.plan_tiles`` (the name the repo benchmark
    counts), with the capacities the per-layer oracle asks for."""

    @pytest.fixture(scope="class")
    def spp2_trace(self, kitti_batch):
        return trace_model(build_model_spec("SPP2"), kitti_batch.coords,
                           kitti_batch.point_counts.astype(float))

    @staticmethod
    def counting(monkeypatch, owner):
        calls = []
        original = owner.plan_tiles

        def recording(rules, max_inputs, max_outputs):
            calls.append((id(rules), max_inputs, max_outputs))
            return original(rules, max_inputs, max_outputs)

        monkeypatch.setattr(owner, "plan_tiles", recording)
        return calls

    def oracle_plans(self, monkeypatch, trace, config, optimize):
        calls = self.counting(monkeypatch, sys.modules[__name__])
        for layer in trace.layers:
            if layer.rules is not None:
                spec = layer.spec
                schedule_sparse_layer_oracle(
                    layer.rules, spec.in_channels, spec.out_channels,
                    config, optimize=optimize)
        return calls

    @pytest.mark.parametrize("optimize", [True, False])
    def test_spade_run_trace(self, monkeypatch, spp2_trace, optimize):
        expected = self.oracle_plans(monkeypatch, spp2_trace, SPADE_HE,
                                     optimize)
        calls = self.counting(monkeypatch, dataflow)
        SpadeAccelerator(SPADE_HE, optimize=optimize).run_trace(spp2_trace)
        non_empty = [layer for layer in spp2_trace.layers
                     if layer.rules is not None and layer.rules.num_inputs]
        assert len(calls) == len(non_empty) > 0
        assert calls == expected

    def test_pointacc_run_trace(self, monkeypatch, spp2_trace):
        expected = self.oracle_plans(monkeypatch, spp2_trace, SPADE_HE,
                                     False)
        calls = self.counting(monkeypatch, dataflow)
        PointAccSimulator(SPADE_HE).run_trace(spp2_trace)
        non_empty = [layer for layer in spp2_trace.layers
                     if layer.rules is not None and layer.rules.num_inputs]
        assert len(calls) == len(non_empty) > 0
        assert calls == expected


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
