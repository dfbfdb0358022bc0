"""PointAcc's tile pricing against the per-offset loop it replaced.

``PointAccSimulator._gather_scatter`` prices all of a layer's output
tiles in one array pass (:func:`repro.baselines.pointacc._tile_input_spans`).
The loop below is the earlier body, one ``searchsorted`` and a masked
min/max per kernel offset, kept as the oracle: its integer
``(cycles, dram_bytes)`` must equal the new ones on the Table I frames
on HE and LE, on random frames, and on degenerate layers.  Within one
``run_trace`` call, layers sharing one ``Rules`` object price their
tiles once and get what they would get alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sparsity import LayerTrace, ModelTrace, trace_model
from repro.baselines import pointacc
from repro.baselines.pointacc import PointAccSimulator
from repro.core import SPADE_HE, SPADE_LE
from repro.engine.runner import FrameProvider, Scenario
from repro.models import TABLE1_PAPER, LayerOp, LayerSpec, build_model_spec
from repro.sparse import ConvType, RulePairs, build_rules, unflatten

CONFIGS = {"HE": SPADE_HE, "LE": SPADE_LE}


def gather_scatter_oracle(sim, trace):
    """The per-offset loop ``_gather_scatter`` ran before."""
    rules = trace.rules
    spec = trace.spec
    in_bytes = max(spec.in_channels * sim.config.act_bytes, 1)
    out_bytes = max(spec.out_channels * sim.config.act_bytes, 1)
    lines_per_input = -(-in_bytes // sim.cache_line)
    tile_outputs = max(1, (sim.cache_bytes // 2) // max(out_bytes, 1))
    num_outputs = rules.num_outputs
    accesses = sum(len(pair) for pair in rules.pairs) + num_outputs
    edges = np.append(np.arange(0, num_outputs, tile_outputs),
                      num_outputs).astype(np.int32)
    lo = np.full(len(edges) - 1, np.iinfo(np.int32).max, np.int32)
    hi = np.zeros(len(edges) - 1, dtype=np.int32)
    for pair in rules.pairs:
        bounds = np.searchsorted(pair.out_idx, edges)
        left, right = bounds[:-1], bounds[1:]
        hit = np.flatnonzero(right > left)
        lo[hit] = np.minimum(lo[hit], pair.in_idx[left[hit]])
        hi[hit] = np.maximum(hi[hit], pair.in_idx[right[hit] - 1] + 1)
    touched = hi > 0
    fetched_lines = (int((hi[touched] - lo[touched]).sum())
                     * lines_per_input)
    fetched_lines += -(-num_outputs * out_bytes // sim.cache_line)
    cycles = accesses * sim.hit_time + fetched_lines * sim.miss_penalty
    return cycles, fetched_lines * sim.cache_line


def layer_trace(rules, in_channels=64, out_channels=64):
    spec = LayerSpec("L", LayerOp.SPARSE, in_channels, out_channels,
                     kernel_size=rules.kernel_size, stride=rules.stride,
                     conv_type=rules.conv_type)
    return LayerTrace(spec=spec, in_shape=rules.in_shape,
                      out_shape=rules.out_shape, in_count=rules.num_inputs,
                      out_count=rules.num_outputs,
                      out_count_after_prune=rules.num_outputs,
                      sparse_macs=rules.macs(in_channels, out_channels),
                      rules=rules, in_coords=rules.in_coords)


def assert_matches_oracle(sim, trace):
    got = sim._gather_scatter(trace)
    assert all(type(value) is int for value in got)
    assert got == gather_scatter_oracle(sim, trace), trace.spec.name


def random_frame(shape, count, seed):
    rng = np.random.default_rng(seed)
    cells = shape[0] * shape[1]
    flat = np.sort(rng.choice(cells, min(count, cells), replace=False))
    return unflatten(flat, shape)


@pytest.fixture(scope="module")
def table1_traces():
    provider = FrameProvider()
    traces = {}
    for name in sorted(TABLE1_PAPER):
        frame = provider.frame_for(Scenario(seed=0), name)
        traces[name] = trace_model(build_model_spec(name), frame.coords,
                                   frame.point_counts.astype(np.float64))
    return traces


class TestMatchesPerOffsetLoop:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_table1_frames(self, config, table1_traces):
        sim = PointAccSimulator(CONFIGS[config])
        checked = 0
        for trace in table1_traces.values():
            for layer in trace.layers:
                if layer.rules is not None:
                    assert_matches_oracle(sim, layer)
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @settings(max_examples=40, deadline=None)
    @given(side=st.tuples(st.integers(1, 40), st.integers(1, 40)),
           density=st.floats(0, 1),
           seed=st.integers(0, 999),
           layer=st.sampled_from([(ConvType.SPCONV, 3, 1),
                                  (ConvType.SUBM, 3, 1),
                                  (ConvType.STRIDED, 3, 2),
                                  (ConvType.DECONV, 2, 2)]),
           channels=st.sampled_from([(64, 64), (64, 4096), (8, 16384),
                                     (256, 128)]))
    def test_random_frames(self, config, side, density, seed, layer,
                           channels):
        """Channel counts range from one tile per layer to a tile per
        output."""
        conv_type, kernel, stride = layer
        coords = random_frame(side, round(density * side[0] * side[1]), seed)
        rules = build_rules(coords, side, conv_type, kernel_size=kernel,
                            stride=stride)
        assert_matches_oracle(PointAccSimulator(CONFIGS[config]),
                              layer_trace(rules, *channels))

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_degenerate_layers(self, config):
        sim = PointAccSimulator(CONFIGS[config])
        shape = (20, 24)
        empty = build_rules(np.zeros((0, 2), np.int32), shape,
                            ConvType.SPCONV)
        one = build_rules(np.array([[3, 4]], np.int32), shape,
                          ConvType.SPCONV)
        corner = build_rules(np.array([[0, 0]], np.int32), shape,
                             ConvType.SUBM)
        dense = build_rules(random_frame(shape, 400, 1), shape,
                            ConvType.SPCONV)
        # Offsets with no pairs: a corner pillar feeds only its own
        # cell under SUBM, so eight of nine offsets are empty.
        assert sum(len(pair) == 0 for pair in corner.pairs) == 8
        # Drop every pair of some offsets of a dense layer.
        sparse_offsets = build_rules(random_frame(shape, 400, 1), shape,
                                     ConvType.SPCONV)
        empty_pair = RulePairs(np.zeros(0, np.int32), np.zeros(0, np.int32))
        sparse_offsets.pairs = [pair if index % 3 else empty_pair
                                for index, pair in
                                enumerate(sparse_offsets.pairs)]
        for rules in (empty, one, corner, dense, sparse_offsets):
            # One output tile (narrow outputs) and one tile per output.
            for channels in ((64, 1), (64, 64), (64, 1 << 16)):
                assert_matches_oracle(sim, layer_trace(rules, *channels))
        assert sim._gather_scatter(layer_trace(empty)) == (0, 0)


class TestPerCallMemo:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("model", ["SPP3", "SCP3", "SPN"])
    def test_shared_rules_priced_once(self, config, model, table1_traces,
                                      monkeypatch):
        trace = table1_traces[model]
        sim = PointAccSimulator(CONFIGS[config])
        alone = sim.run_trace(trace)
        calls = []
        spans = pointacc._tile_input_spans

        def counting(rules, tile_outputs):
            calls.append((id(rules), tile_outputs))
            return spans(rules, tile_outputs)

        monkeypatch.setattr(pointacc, "_tile_input_spans", counting)
        result = sim.run_trace(trace)
        sparse = [layer for layer in trace.layers if layer.rules is not None]
        assert len(calls) == len(set(calls))
        assert len(calls) < len(sparse)
        assert result.layers == alone.layers
        by_name = {layer.name: layer for layer in result.layers}
        for layer in sparse:
            cycles, dram = gather_scatter_oracle(sim, layer)
            got = by_name[layer.spec.name]
            assert got.gather_scatter_cycles == cycles, layer.spec.name
            assert got.dram_bytes == dram, layer.spec.name
        # The memo lives in one call: a second call prices again.
        calls.clear()
        sim.run_trace(trace)
        assert len(calls) == len(set(calls)) > 0

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_one_rules_object_at_several_tile_sizes(self, config,
                                                    monkeypatch):
        """The memo keys the tile size too: one ``Rules`` object read by
        layers of different output widths is priced once per width."""
        rules = build_rules(random_frame((30, 34), 400, 2), (30, 34),
                            ConvType.SPCONV)
        layers = [layer_trace(rules, 64, width)
                  for width in (64, 4096, 64, 1 << 14)]
        for index, layer in enumerate(layers):
            layer.spec.name = f"L{index}"
        trace = ModelTrace(spec=build_model_spec("SPP1"), layers=layers)
        sim = PointAccSimulator(CONFIGS[config])
        calls = []
        spans = pointacc._tile_input_spans

        def counting(rules, tile_outputs):
            calls.append(tile_outputs)
            return spans(rules, tile_outputs)

        monkeypatch.setattr(pointacc, "_tile_input_spans", counting)
        result = sim.run_trace(trace)
        for layer, got in zip(layers, result.layers):
            cycles, dram = gather_scatter_oracle(sim, layer)
            assert (got.gather_scatter_cycles, got.dram_bytes) == (cycles,
                                                                   dram)
        assert len(calls) == len(set(calls)) == 3
