"""The array pricing pass against the per-layer object path it replaced.

The reference below is that object path: the batch scheduler writing
one :class:`LayerSchedule` back per layer, the dense scheduler, the
per-layer energy formula, model aggregates summed over
:class:`LayerResult` objects, and the engine row built from them.  The
array path must give the same value of the same type at every step:
schedules, energies, the lazily built ``layers`` and the
:class:`SimResult` row.  Floats are compared bit for bit.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sparsity import LayerTrace, ModelTrace
from repro.core import (
    INSTRUCTIONS,
    SPADE_HE,
    SPADE_LE,
    DenseAccelerator,
    EnergyModel,
    LayerResult,
    LayerSchedule,
    ModelResult,
    SpadeAccelerator,
    SpadeConfig,
)
from repro.core.accelerator import dense_layer, sparse_layers
from repro.core.dataflow import _TILE_VECTORS, _ceil_div, _group_factor
from repro.core.energy import EnergyBreakdown, model_energy
from repro.core.gsu import plan_tiles
from repro.core.rgu import RGUModel
from repro.engine import DenseAccSimulator, SimResult, SpadeSimulator
from repro.models.specs import LayerOp, LayerSpec, ModelSpec
from repro.sparse import ConvType, build_rules, unflatten

#: HE, LE, HE small-buffer and 128x128: the design points of the
#: design-space example.
CONFIGS = [
    SPADE_HE,
    SPADE_LE,
    replace(SPADE_HE, buf_in_bytes=8 * 1024, buf_out_bytes=64 * 1024),
    SpadeConfig(name="128x128", pe_rows=128, pe_cols=128,
                buf_in_bytes=64 * 1024, buf_out_bytes=512 * 1024,
                dram_bytes_per_cycle=128),
]
CONFIG_IDS = ["he", "le", "he-smallbuf", "128x128"]


# -- the reference: the per-layer object path --------------------------------

def reference_sparse_schedules(layers, config, optimize):
    """The batch scheduler with its per-layer write-back."""
    pe_r, pe_c = config.pe_rows, config.pe_cols
    fill = pe_r + pe_c
    bpc = config.dram_bytes_per_cycle
    weight_tile_bytes = pe_r * pe_c * config.wgt_bytes

    schedules = []
    planned, tilings, scalars = [], [], []
    for rules, in_channels, out_channels, name, prune in layers:
        schedule = LayerSchedule(
            name=name,
            conv_type=rules.conv_type.value,
            macs=0,
            num_tiles=0,
            weight_grouping=(optimize and rules.conv_type is ConvType.STRIDED
                             and rules.stride > 1),
            ganged_scatter=(optimize and rules.conv_type is ConvType.DECONV),
        )
        schedules.append(schedule)
        if rules.num_inputs == 0:
            schedule.breakdown = dict.fromkeys(INSTRUCTIONS, 0)
            continue
        ta_cap = config.buf_in_capacity_pillars(in_channels)
        to_cap = config.buf_out_capacity_pillars(out_channels)
        if schedule.ganged_scatter:
            to_cap = max(to_cap, ta_cap * rules.stride * rules.stride)
        tiling = plan_tiles(rules, ta_cap, to_cap)
        schedule.num_tiles = tiling.num_tiles
        schedule.effective_ta = rules.num_inputs / max(tiling.num_tiles, 1)
        schedule.pruned_outputs = rules.num_outputs if prune else 0
        n_c = _ceil_div(max(in_channels, 1), pe_r)
        n_m = _ceil_div(max(out_channels, 1), pe_c)
        group = _group_factor(rules.conv_type, rules.stride,
                              schedule.weight_grouping, rules.kernel_size)
        layer_weight_bytes = (
            len(rules.pairs) * in_channels * out_channels * config.wgt_bytes
        )
        planned.append((schedule, rules))
        tilings.append(tiling)
        scalars.append((n_c * n_m, group, in_channels, out_channels, n_m,
                        layer_weight_bytes))
    if not planned:
        return schedules

    num_tiles = [tiling.num_tiles for tiling in tilings]
    starts = np.cumsum([0] + num_tiles[:-1])
    layer_scalars = np.array(scalars, dtype=np.int64).T
    tile_n_cm, tile_group, tile_in, tile_out = np.repeat(
        layer_scalars[:4], num_tiles, axis=1)
    n_m, weight_bytes = layer_scalars[4:]
    (tile_pairs, active_offsets, in_start, in_end, out_start, out_end,
     overlap) = np.concatenate([
        getattr(tiling, vector) for vector in _TILE_VECTORS
        for tiling in tilings]).reshape(len(_TILE_VECTORS), -1)
    in_width = in_end - in_start
    out_width = out_end - out_start

    tile_mxu = tile_pairs * tile_n_cm + fill
    tile_loads = -(-(active_offsets * tile_n_cm) // tile_group)
    tile_gather = -(-(in_width * tile_in * config.act_bytes) // bpc)
    tile_scatter = -(-(out_width * tile_out * config.act_bytes) // bpc)
    tile_rulegen = tile_pairs + RGUModel.PIPELINE_FILL
    tile_wgt = -(-(tile_loads * weight_tile_bytes) // bpc)
    hiding = np.empty_like(tile_mxu)
    hiding[1:] = tile_mxu[:-1]
    hiding[starts] = 0
    stalls = np.maximum(np.stack([tile_rulegen, tile_gather, tile_wgt])
                        - hiding, 0)
    (rulegen, gather_inp, wgt_stalls, loads, mxu, copies, scatter_out,
     entries) = np.add.reduceat(
        np.vstack([stalls, tile_loads, tile_mxu, overlap,
                   np.maximum(tile_scatter - tile_mxu, 0), tile_pairs]),
        starts, axis=1)

    weights_fit = weight_bytes <= config.buf_wgt_bytes
    gather_wgt = np.where(weights_fit, -(-weight_bytes // bpc), wgt_stalls)
    rows = np.stack([rulegen, gather_inp, gather_wgt, loads * pe_r, mxu,
                     copies * n_m, scatter_out, entries], axis=1)
    for (schedule, rules), layer, fits, row in zip(
            planned, scalars, weights_fit.tolist(), rows.tolist()):
        _, _, in_ch, out_ch, _, layer_weight_bytes = layer
        *breakdown, rule_entries = row
        schedule.breakdown = dict(zip(INSTRUCTIONS, breakdown))
        schedule.rule_entries = rule_entries
        schedule.macs = rule_entries * in_ch * out_ch
        weight_refetches = 1 if fits else schedule.num_tiles
        schedule.dram_bytes = (
            rules.num_inputs * in_ch * config.act_bytes
            + rules.num_outputs * out_ch * config.act_bytes
            + layer_weight_bytes * weight_refetches
        )
    return schedules


def reference_dense_schedule(num_pixels, in_channels, out_channels,
                             kernel_size, upsample_stride, out_width, name,
                             config):
    """The dense-layer scheduler, building its LayerSchedule."""
    pe_r, pe_c = config.pe_rows, config.pe_cols
    n_c = _ceil_div(max(in_channels, 1), pe_r)
    n_m = _ceil_div(max(out_channels, 1), pe_c)
    fill = pe_r + pe_c
    kernel_elems = (kernel_size * kernel_size if upsample_stride == 1
                    else upsample_stride * upsample_stride)
    macs = num_pixels * kernel_elems * in_channels * out_channels
    ta_cap = config.buf_in_capacity_pillars(in_channels)
    to_cap = config.buf_out_capacity_pillars(out_channels)
    overlap_per_tile = 2 * out_width if kernel_size == 3 else 0
    ta = max(1, min(ta_cap, max(to_cap - overlap_per_tile, to_cap // 2)))
    num_tiles = _ceil_div(num_pixels, ta)
    bpc = config.dram_bytes_per_cycle
    passes_per_tile = kernel_elems * n_c * n_m
    mxu_busy = macs // (min(in_channels, pe_r) * min(out_channels, pe_c))
    mxu_busy += num_tiles * fill
    load_wgt = passes_per_tile * num_tiles * pe_r
    copy_psum = max(0, num_tiles - 1) * min(overlap_per_tile, to_cap) * n_m
    gather = _ceil_div(num_pixels * in_channels * config.act_bytes, bpc)
    out_pixels = (num_pixels * upsample_stride * upsample_stride
                  if upsample_stride > 1 else num_pixels)
    scatter = _ceil_div(out_pixels * out_channels * config.act_bytes, bpc)
    layer_weight_bytes = kernel_elems * in_channels * out_channels
    weights_fit = layer_weight_bytes <= config.buf_wgt_bytes
    weight_refetches = 1 if weights_fit else num_tiles
    stall_gather = gather // max(num_tiles, 1) + max(0, gather - mxu_busy)
    stall_scatter = max(0, scatter - mxu_busy)
    gather_wgt = _ceil_div(layer_weight_bytes * weight_refetches, bpc)
    gather_wgt_stall = gather_wgt // max(num_tiles, 1) + max(
        0, gather_wgt - mxu_busy)
    schedule = LayerSchedule(name=name, conv_type="dense", macs=macs,
                             num_tiles=num_tiles, effective_ta=ta)
    schedule.breakdown = {
        "rulegen": 0,
        "gather_inp": stall_gather,
        "gather_wgt": gather_wgt_stall,
        "load_wgt": load_wgt,
        "mxu": mxu_busy,
        "copy_psum": copy_psum,
        "scatter_out": stall_scatter,
    }
    schedule.dram_bytes = (
        num_pixels * in_channels * config.act_bytes
        + out_pixels * out_channels * config.act_bytes
        + layer_weight_bytes * weight_refetches
    )
    return schedule


def reference_total_cycles(schedule):
    return int(sum(schedule.breakdown.values()))


def reference_layer_energy(model, schedule, in_channels, out_channels):
    """The per-layer energy formula, one LayerSchedule at a time."""
    cfg = model.config
    macs = schedule.macs
    n_c = -(-max(in_channels, 1) // cfg.pe_rows)
    n_m = -(-max(out_channels, 1) // cfg.pe_cols)
    if schedule.rule_entries:
        input_bytes = schedule.rule_entries * in_channels * cfg.act_bytes * n_m
        psum_bytes = (
            schedule.rule_entries * out_channels * cfg.psum_bytes * 2 * n_c)
    else:
        entries = macs // max(in_channels * out_channels, 1)
        input_bytes = entries * in_channels * cfg.act_bytes * n_m
        psum_bytes = entries * out_channels * cfg.psum_bytes * 2 * n_c
    weight_bytes = schedule.breakdown.get("load_wgt", 0) * cfg.pe_cols
    sram_pj = (
        model._buf_in.energy_for_bytes(input_bytes)
        + model._buf_out.energy_for_bytes(psum_bytes // 2)
        + model._buf_out.energy_for_bytes(psum_bytes // 2, is_write=True)
        + model._buf_wgt.energy_for_bytes(weight_bytes)
    )
    return EnergyBreakdown(
        compute_pj=macs * cfg.mac_energy_pj,
        sram_pj=sram_pj,
        dram_pj=schedule.dram_bytes * model.dram.energy_rw_pj_per_byte,
        rgu_pj=schedule.rule_entries * cfg.rgu_energy_per_rule_pj,
        pruning_pj=schedule.pruned_outputs * cfg.pruning_energy_per_pillar_pj,
        static_pj=(reference_total_cycles(schedule)
                   * model._leakage_pj_per_cycle),
    )


def reference_energy_total(energy):
    return (energy.compute_pj + energy.sram_pj + energy.dram_pj
            + energy.rgu_pj + energy.pruning_pj + energy.static_pj)


def reference_layers(model_trace, config, optimize=True, dense=False):
    """One LayerResult per layer: SPADE, or DenseAcc with ``dense``."""
    def dense_schedule(trace):
        return reference_dense_schedule(*dense_layer(trace), config)

    if dense:
        schedules = [dense_schedule(trace) for trace in model_trace.layers]
    else:
        sparse = iter(reference_sparse_schedules(
            sparse_layers(model_trace), config, optimize))
        schedules = [next(sparse) if trace.rules is not None
                     else dense_schedule(trace)
                     for trace in model_trace.layers]
    energy_model = EnergyModel(config)
    return [
        LayerResult(trace, schedule, reference_layer_energy(
            energy_model, schedule, trace.spec.in_channels,
            trace.spec.out_channels))
        for trace, schedule in zip(model_trace.layers, schedules)
    ]


def reference_row(simulator, model_name, layers, config):
    """The engine row, aggregated over LayerResult objects."""
    total_cycles = sum(reference_total_cycles(layer.schedule)
                       for layer in layers)
    total_macs = sum(layer.schedule.macs for layer in layers)
    energy = EnergyBreakdown()
    for layer in layers:
        energy.compute_pj += layer.energy.compute_pj
        energy.sram_pj += layer.energy.sram_pj
        energy.dram_pj += layer.energy.dram_pj
        energy.rgu_pj += layer.energy.rgu_pj
        energy.pruning_pj += layer.energy.pruning_pj
        energy.static_pj += layer.energy.static_pj
    breakdown = Counter()
    for layer in layers:
        breakdown.update(layer.schedule.breakdown)
    latency_ms = total_cycles / (config.clock_ghz * 1e9) * 1e3
    per_layer = []
    for layer in layers:
        cycles = reference_total_cycles(layer.schedule)
        per_layer.append({
            "name": layer.trace.spec.name,
            "cycles": cycles,
            "macs": layer.schedule.macs,
            "dram_bytes": layer.schedule.dram_bytes,
            "energy_pj": reference_energy_total(layer.energy),
            "overhead_fraction": (
                1.0 - layer.schedule.breakdown["mxu"] / cycles
                if cycles else 0.0),
            "effective_ta": layer.schedule.effective_ta,
        })
    return SimResult(
        simulator=simulator,
        model=model_name,
        cycles=total_cycles,
        latency_ms=latency_ms,
        fps=1e3 / latency_ms if total_cycles else 0.0,
        energy_mj=reference_energy_total(energy) * 1e-9,
        dram_bytes=sum(layer.schedule.dram_bytes for layer in layers),
        utilization=(total_macs / (config.peak_macs_per_cycle * total_cycles)
                     if total_cycles else 0.0),
        per_layer=per_layer,
        extras={"breakdown": dict(breakdown), "total_macs": total_macs},
    )


# -- strict comparison --------------------------------------------------------

def assert_identical(got, want, path="value"):
    """Equal values of identical types, floats bit for bit, dict keys in
    the same order."""
    assert type(got) is type(want), (path, type(got), type(want))
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_identical(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for index, (left, right) in enumerate(zip(got, want)):
            assert_identical(left, right, f"{path}[{index}]")
    elif isinstance(want, float):
        assert got.hex() == want.hex(), (path, got, want)
    else:
        assert got == want, (path, got, want)


def schedule_fields(schedule):
    return {name: getattr(schedule, name) for name in (
        "name", "conv_type", "macs", "num_tiles", "breakdown", "dram_bytes",
        "rule_entries", "pruned_outputs", "weight_grouping",
        "ganged_scatter", "effective_ta")}


def energy_fields(energy):
    return {name: getattr(energy, name) for name in (
        "compute_pj", "sram_pj", "dram_pj", "rgu_pj", "pruning_pj",
        "static_pj")}


def assert_layers_identical(got, want):
    assert got == tuple(want)         # LayerResult dataclass equality
    for index, (left, right) in enumerate(zip(got, want)):
        assert left.trace is right.trace
        assert_identical(schedule_fields(left.schedule),
                         schedule_fields(right.schedule), f"schedule {index}")
        assert_identical(energy_fields(left.energy),
                         energy_fields(right.energy), f"energy {index}")


def assert_model_matches(model_trace, config, optimize=True, dense=False):
    """Schedules, energies, aggregates, lazy layers and the engine row."""
    want = reference_layers(model_trace, config, optimize, dense)
    if dense:
        result = DenseAccelerator(config).run_trace(model_trace)
        simulator = DenseAccSimulator(config)
    else:
        result = SpadeAccelerator(config, optimize).run_trace(model_trace)
        simulator = SpadeSimulator(config, optimize=optimize)
    # The row is built from the arrays alone, before any layer object.
    row = simulator.run(model_trace)
    assert "layers" not in vars(result)
    assert_identical(vars(row), vars(reference_row(
        simulator.name, model_trace.spec.name, want, config)))
    assert_layers_identical(result.layers, want)
    assert result.layers is result.layers
    # run_layer, the one-layer view, agrees with the model pass.
    accelerator = (DenseAccelerator(config) if dense
                   else SpadeAccelerator(config, optimize))
    for trace, layer in zip(model_trace.layers, want):
        if dense or trace.rules is None:
            assert_layers_identical((accelerator.run_layer(trace),), [layer])


# -- random models ------------------------------------------------------------

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

#: Channel depths: 3x3 layers of 256 or more channels overflow the
#: weight buffer of every config here, narrow ones fit.
channels = st.sampled_from([1, 3, 16, 64, 100, 128, 256, 512])


@st.composite
def sparse_layer(draw, index):
    """A sparse layer of any variant on its own random frame of 0
    (empty), 1 or up to 1,600 pillars."""
    conv_type, stride = draw(st.sampled_from(VARIANTS))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    total = shape[0] * shape[1]
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(0, total)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    flat = np.sort(rng.choice(total, count, replace=False))
    rules = build_rules(unflatten(flat, shape), shape, conv_type,
                        stride=stride)
    kernel = stride if conv_type is ConvType.DECONV else 3
    spec = LayerSpec(f"S{index}", LayerOp.SPARSE, draw(channels),
                     draw(channels), kernel_size=kernel, stride=stride,
                     conv_type=conv_type,
                     upsample=conv_type is ConvType.DECONV)
    return spec, rules


@st.composite
def dense_layer_spec(draw, index):
    """A dense Conv2D (1x1 or 3x3) or deconvolution on a small grid."""
    shape = (draw(st.integers(1, 48)), draw(st.integers(1, 48)))
    upsample = draw(st.booleans())
    if upsample:
        stride = draw(st.sampled_from([2, 4]))
        spec = LayerSpec(f"D{index}", LayerOp.DENSE_DECONV, draw(channels),
                         draw(channels), kernel_size=stride, stride=stride,
                         upsample=True)
        return spec, shape, (shape[0] * stride, shape[1] * stride)
    spec = LayerSpec(f"D{index}", LayerOp.DENSE, draw(channels),
                     draw(channels), kernel_size=draw(st.sampled_from([1, 3])))
    return spec, shape, shape


def make_trace(layers, prune: bool) -> ModelTrace:
    """A ModelTrace of drawn layers; with ``prune`` every sparse layer
    prunes its outputs."""
    traces = []
    for spec, *rest in layers:
        if spec.op is LayerOp.SPARSE:
            (rules,) = rest
            spec = replace(spec, prune_keep=0.5 if prune else None)
            traces.append(LayerTrace(
                spec=spec, in_shape=rules.in_shape,
                out_shape=rules.out_shape, in_count=rules.num_inputs,
                out_count=rules.num_outputs,
                out_count_after_prune=rules.num_outputs,
                sparse_macs=rules.macs(spec.in_channels, spec.out_channels),
                rules=rules))
        else:
            in_shape, out_shape = rest
            traces.append(LayerTrace(
                spec=spec, in_shape=in_shape, out_shape=out_shape,
                in_count=in_shape[0] * in_shape[1],
                out_count=out_shape[0] * out_shape[1],
                out_count_after_prune=out_shape[0] * out_shape[1],
                sparse_macs=0))
    spec = ModelSpec(name="random", base="test", grid=None,
                     pillar_channels=64, layers=[t.spec for t in traces])
    return ModelTrace(spec=spec, layers=traces)


@st.composite
def models(draw):
    """0-6 layers, each sparse or dense: so models may be empty, all
    dense, all sparse, or hold empty sparse layers."""
    layers = []
    for index in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            layers.append(draw(sparse_layer(index)))
        else:
            layers.append(draw(dense_layer_spec(index)))
    return layers


class TestArrayPassMatchesObjectPath:
    @given(models())
    @settings(max_examples=60, deadline=None)
    def test_random_models(self, layers):
        for prune in (False, True):
            trace = make_trace(layers, prune)
            for config in CONFIGS:
                for optimize in (False, True):
                    assert_model_matches(trace, config, optimize)
                assert_model_matches(trace, config, dense=True)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_kitti_models(self, config, kitti_batch):
        from repro.analysis import compute_savings

        importance = kitti_batch.point_counts.astype(float)
        for name in ("SPP1", "SPP3"):
            model, dense, _ = compute_savings(name, kitti_batch.coords,
                                              importance)
            for optimize in (False, True):
                assert_model_matches(model, config, optimize)
            assert_model_matches(dense, config, dense=True)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_empty_and_all_dense_models(self, config):
        empty = [(LayerSpec(f"S{i}", LayerOp.SPARSE, 64, 64,
                            conv_type=ConvType.SUBM),
                  build_rules(np.zeros((0, 2), np.int32), (8, 8),
                              ConvType.SUBM))
                 for i in range(3)]
        dense = [(LayerSpec("D0", LayerOp.DENSE, 256, 64), (20, 30),
                  (20, 30)),
                 (LayerSpec("D1", LayerOp.DENSE_DECONV, 64, 20,
                            kernel_size=2, stride=2, upsample=True),
                  (20, 30), (40, 60))]
        for layers in ([], empty, dense, empty + dense):
            for prune in (False, True):
                trace = make_trace(layers, prune)
                for optimize in (False, True):
                    assert_model_matches(trace, config, optimize)
                assert_model_matches(trace, config, dense=True)


class TestTypeAndBitGuards:
    def test_effective_ta_types(self, kitti_batch):
        from repro.analysis import compute_savings

        model, _, _ = compute_savings(
            "SPP2", kitti_batch.coords,
            kitti_batch.point_counts.astype(float))
        row = SpadeSimulator(SPADE_HE).run(model)
        kinds = {type(layer["effective_ta"]) for layer in row.per_layer}
        # Sparse layers report a mean (float); the dense head its T_a.
        assert kinds == {int, float}
        for layer, trace in zip(row.per_layer, model.layers):
            expected = float if trace.rules is not None else int
            assert type(layer["effective_ta"]) is expected

    def test_model_energy_is_a_running_sum_in_layer_order(self):
        # One large component then many small ones: a running sum drops
        # every small addend, a compensated sum (``sum`` on Python 3.12,
        # ``math.fsum``) or a pairwise one (``np.sum``) keeps them.
        column = np.array([1e16] + [1.0] * 40)
        parts = np.tile(column[:, None], (1, 6))
        running = 0.0
        for value in column.tolist():
            running += value
        assert running == 1e16
        assert math.fsum(column) != running
        assert np.sum(column) != running
        energy = model_energy(parts)
        for value in energy_fields(energy).values():
            assert type(value) is float and value == running

    def test_empty_result(self):
        empty = ModelResult(model_name="SPP2", accelerator="SPADE.HE")
        assert_identical(
            [empty.total_cycles, empty.total_macs, empty.total_dram_bytes,
             empty.latency_ms, empty.fps, empty.energy_mj,
             empty.breakdown(), empty.layers],
            [0, 0, 0, 0.0, 0.0, 0.0, {}, ()])
