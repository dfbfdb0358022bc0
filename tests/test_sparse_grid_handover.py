"""The padded-grid hand-over between traced layers.

A layer on the padded-table route leaves its numbered output cells (and
its cleared output mask) as a :class:`PaddedGrid` on its ``Rules``;
``trace_model`` takes it at once and gives it to the next layer, whose
stride-1 table then skips rebuilding its input cells and mask from the
coordinates.  Every rule built from a handed-over grid must equal
:func:`build_rules_reference` bit for bit: over random chains of every
stride-1 and k3 s2 layer kind with pruning between them, through shared
rules and the delta route, and past the table cap, where the reference
loop builds the rules.  No traced
``Rules`` keeps a grid, a traced trace pickles to the bytes it had
without the hand-over, and handed-over arrays are read-only.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sparsity
from repro.analysis.sparsity import trace_model
from repro.engine.runner import FrameProvider, Scenario
from repro.models import TABLE1_PAPER, build_model_spec
from repro.sparse import (
    ConvType,
    PaddedGrid,
    Rules,
    build_rules,
    build_rules_delta,
    build_rules_reference,
    unflatten,
)
from repro.sparse import coords as coords_module
from repro.sparse import rulegen

#: (conv type, kernel, stride) of every layer kind a chain may hold.
LAYERS = [
    (ConvType.SUBM, 1, 1),
    (ConvType.SUBM, 3, 1),
    (ConvType.SPCONV, 3, 1),
    (ConvType.SPCONV_P, 3, 1),
    (ConvType.SPCONV, 5, 1),
    (ConvType.STRIDED, 3, 2),
    (ConvType.STRIDED_SUBM, 3, 2),
]


def random_frame(shape, count, seed):
    rng = np.random.default_rng(seed)
    cells = shape[0] * shape[1]
    flat = np.sort(rng.choice(cells, min(count, cells), replace=False))
    return unflatten(flat, shape)


def assert_rules_identical(expect, got, label=""):
    assert got.out_shape == expect.out_shape, label
    assert got.kernel_size == expect.kernel_size, label
    assert got.out_coords.dtype == expect.out_coords.dtype, label
    np.testing.assert_array_equal(got.out_coords, expect.out_coords,
                                  err_msg=label)
    assert len(got.pairs) == len(expect.pairs), label
    for index, (want, have) in enumerate(zip(expect.pairs, got.pairs)):
        where = f"{label} offset {index}"
        assert have.in_idx.dtype == want.in_idx.dtype == np.int32, where
        assert have.out_idx.dtype == want.out_idx.dtype == np.int32, where
        np.testing.assert_array_equal(have.in_idx, want.in_idx,
                                      err_msg=where)
        np.testing.assert_array_equal(have.out_idx, want.out_idx,
                                      err_msg=where)


def assert_grid_describes(grid, coords, shape):
    """``grid`` holds exactly ``coords`` on ``shape`` padded by its pad,
    and its arrays are read-only."""
    pad = grid.pad
    assert grid.shape == (shape[0] + 2 * pad, shape[1] + 2 * pad)
    expect = ((coords[:, 0].astype(np.int64) + pad) * grid.shape[1]
              + coords[:, 1] + pad)
    np.testing.assert_array_equal(grid.flat, expect)
    assert not grid.flat.flags.writeable
    if grid.mask is not None:
        assert not grid.mask.flags.writeable
        np.testing.assert_array_equal(np.flatnonzero(grid.mask), expect)


def run_chain(coords, shape, chain, build):
    """Build each layer of ``chain`` from the previous layer's output,
    handing its grid on; checks every layer against the reference.

    ``chain`` holds ``(layer index, keep)``: ``keep`` below 1 prunes the
    output to that fraction of randomly chosen pillars.  Returns how many
    layers were given a grid their padded shape matched.
    """
    grid = None
    used = 0
    rng = np.random.default_rng(len(coords))
    for step, (index, keep) in enumerate(chain):
        conv_type, kernel, stride = LAYERS[index]
        label = f"step {step} {conv_type.name} k{kernel} s{stride}"
        rules = build(coords, shape, conv_type, kernel, stride, grid)
        expect = build_rules_reference(coords, shape, conv_type,
                                       kernel_size=kernel, stride=stride)
        assert_rules_identical(expect, rules, label)
        out_grid = rules.take_grid()
        assert rules.take_grid() is None, label
        pad = 1 if kernel <= 3 else kernel // 2
        matched = (grid is not None and stride == 1 and len(coords) > 0
                   and grid.shape == (shape[0] + 2 * pad, shape[1] + 2 * pad))
        if matched and conv_type is ConvType.SUBM:
            # SUBM hands its input grid on unchanged.
            assert out_grid.flat is grid.flat, label
            assert out_grid.mask is grid.mask, label
        used += matched
        coords, shape = rules.out_coords, rules.out_shape
        if out_grid is not None:
            assert_grid_describes(out_grid, coords, shape)
        if keep < 1 and len(coords):
            count = int(round(len(coords) * keep))
            kept = np.sort(rng.choice(len(coords), count, replace=False))
            coords = coords[kept]
            if out_grid is not None:
                out_grid = out_grid.subset(kept)
                assert out_grid.mask is None
                assert_grid_describes(out_grid, coords, shape)
        grid = out_grid
    return used


def build_plain(coords, shape, conv_type, kernel, stride, grid):
    return build_rules(coords, shape, conv_type, kernel_size=kernel,
                       stride=stride, grid=grid)


def build_delta(coords, shape, conv_type, kernel, stride, grid):
    """The delta route, seeded by rules of a different frame, so it
    rebuilds (with the grid)."""
    seed = build_rules(coords[::2], shape, conv_type, kernel_size=kernel,
                       stride=stride)
    if len(coords) < 2:
        seed = build_rules(np.zeros((0, 2), np.int32), shape, conv_type,
                           kernel_size=kernel, stride=stride)
    return build_rules_delta(seed, coords, grid=grid)


BUILDERS = {"plain": build_plain, "delta": build_delta}


@st.composite
def chains(draw):
    side = st.integers(1, 40)
    shape = (draw(side), draw(side))
    density = draw(st.floats(0, 1))
    count = int(round(density * shape[0] * shape[1]))
    layer = st.tuples(st.integers(0, len(LAYERS) - 1),
                      st.sampled_from([1.0, 1.0, 0.5, 0.0]))
    chain = draw(st.lists(layer, min_size=1, max_size=6))
    return random_frame(shape, count, draw(st.integers(0, 999))), shape, chain


class TestHandedOverGridsMatchReference:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @settings(max_examples=60, deadline=None)
    @given(case=chains())
    def test_random_chains(self, builder, case):
        coords, shape, chain = case
        run_chain(coords, shape, chain, BUILDERS[builder])

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_kind_feeds_every_stride_1_kind(self, builder):
        """Each layer kind followed by each stride-1 kind, unpruned and
        pruned; every k <= 3 stride-1 layer gets a matching grid."""
        coords = random_frame((30, 34), 300, seed=1)
        stride_1 = [index for index, (_, kernel, stride) in enumerate(LAYERS)
                    if stride == 1 and kernel <= 3]
        for first in range(len(LAYERS)):
            if LAYERS[first][1] > 3:
                continue
            for second in stride_1:
                for keep in (1.0, 0.5):
                    used = run_chain(coords, (30, 34),
                                     [(first, keep), (second, 1.0)],
                                     BUILDERS[builder])
                    assert used == 1, (first, second, keep)

    def test_mismatched_grid_is_ignored(self):
        """A grid of another padded shape or pillar count is not read."""
        coords = random_frame((20, 24), 90, seed=2)
        rules = build_rules(coords, (20, 24), ConvType.SPCONV)
        grid = rules.take_grid()
        for conv_type, kernel in [(ConvType.SPCONV, 5), (ConvType.SUBM, 5)]:
            got = build_rules(rules.out_coords, (20, 24), conv_type,
                              kernel_size=kernel, grid=grid)
            expect = build_rules_reference(rules.out_coords, (20, 24),
                                           conv_type, kernel_size=kernel)
            assert_rules_identical(expect, got, conv_type.name)
        wrong = grid.subset(np.arange(len(grid.flat) - 1))
        got = build_rules(rules.out_coords, (20, 24), ConvType.SUBM,
                          grid=wrong)
        assert_rules_identical(
            build_rules_reference(rules.out_coords, (20, 24), ConvType.SUBM),
            got)

    def test_deconv_takes_and_leaves_no_grid(self):
        coords = random_frame((12, 16), 60, seed=3)
        grid = build_rules(coords, (12, 16), ConvType.SUBM).take_grid()
        rules = build_rules(coords, (12, 16), ConvType.DECONV, kernel_size=2,
                            stride=2, grid=grid)
        assert rules.take_grid() is None
        assert_rules_identical(
            build_rules_reference(coords, (12, 16), ConvType.DECONV,
                                  kernel_size=2, stride=2), rules)

    def test_unchanged_delta_input_shares_and_leaves_no_grid(self):
        coords = random_frame((20, 24), 90, seed=4)
        prev = build_rules(coords, (20, 24), ConvType.SPCONV)
        grid = prev.take_grid()
        rules = build_rules_delta(prev, coords, grid=grid)
        assert rules.pairs[0].out_idx is prev.pairs[0].out_idx
        assert rules.take_grid() is None


class TestOverCapRoute:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @settings(max_examples=20, deadline=None)
    @given(case=chains())
    def test_over_cap_matches_and_hands_nothing_on(self, builder, case):
        coords, shape, chain = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coords_module, "_DENSE_TABLE_CELLS", 0)
            assert run_chain(coords, shape, chain, BUILDERS[builder]) == 0

    def test_given_grid_past_the_cap(self, monkeypatch):
        coords = random_frame((20, 24), 90, seed=5)
        grid = build_rules(coords, (20, 24), ConvType.SUBM).take_grid()
        monkeypatch.setattr(coords_module, "_DENSE_TABLE_CELLS", 0)
        rules = build_rules(coords, (20, 24), ConvType.SPCONV, grid=grid)
        assert rules.take_grid() is None
        assert_rules_identical(
            build_rules_reference(coords, (20, 24), ConvType.SPCONV), rules)

    @pytest.mark.parametrize("model", ["SPP1", "SPP2", "SPP3", "SCP2"])
    def test_trace_across_the_cap(self, model, monkeypatch):
        """The cap admits the stage-2 and stage-3 tables but not the
        stage-1 ones: layers on either side of it trace as without the
        cap, whichever route built the layer before them."""
        spec = build_model_spec(model)
        shape = (48, 64)
        coords = random_frame(shape, 700, seed=6)
        expect = trace_model(spec, coords, grid_shape=shape)
        monkeypatch.setattr(coords_module, "_DENSE_TABLE_CELLS",
                            (shape[0] // 4 + 2) * (shape[1] // 4 + 2))
        got = trace_model(spec, coords, grid_shape=shape)
        assert_traces_identical(expect, got)


def assert_traces_identical(expect, got):
    assert len(got.layers) == len(expect.layers)
    for want, have in zip(expect.layers, got.layers):
        name = want.spec.name
        assert have.out_count_after_prune == want.out_count_after_prune, \
            name
        assert have.sparse_macs == want.sparse_macs, name
        if want.rules is None:
            assert have.rules is None, name
            continue
        np.testing.assert_array_equal(have.in_coords, want.in_coords,
                                      err_msg=name)
        assert_rules_identical(want.rules, have.rules, name)


def count_matched_grids(monkeypatch):
    """Count the stride-1 tables that were given a grid of their shape."""
    table = rulegen._padded_table
    matched = []

    def counting(in_coords, in_shape, out_shape, conv_type, kernel_size,
                 stride, grid=None):
        pad = max(kernel_size // 2, 1)
        if (grid is not None and conv_type is not ConvType.DECONV
                and stride == 1
                and grid.shape == (in_shape[0] + 2 * pad,
                                   in_shape[1] + 2 * pad)):
            matched.append(conv_type)
        return table(in_coords, in_shape, out_shape, conv_type,
                     kernel_size, stride, grid)

    monkeypatch.setattr(rulegen, "_padded_table", counting)
    return matched


@pytest.fixture(scope="module")
def frames():
    return FrameProvider()


class TestTracedRules:
    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    def test_trace_matches_reference_and_pickles_as_before(
            self, model, frames, monkeypatch):
        spec = build_model_spec(model)
        frame = frames.frame_for(Scenario(seed=0), model)
        importance = frame.point_counts.astype(np.float64)
        matched = count_matched_grids(monkeypatch)
        trace = trace_model(spec, frame.coords, importance)
        if any(layer.rules is not None for layer in trace.layers):
            assert matched, model
        for layer in trace.layers:
            if layer.rules is None:
                continue
            assert layer.rules._grid is None, layer.spec.name
            expect = build_rules_reference(
                layer.in_coords, layer.in_shape, layer.spec.conv_type,
                kernel_size=layer.spec.kernel_size, stride=layer.spec.stride)
            assert_rules_identical(expect, layer.rules, layer.spec.name)
        with monkeypatch.context() as patch:
            # Every grid dropped: each layer builds its table from
            # coordinates, as before the hand-over.
            patch.setattr(Rules, "take_grid",
                          lambda self: setattr(self, "_grid", None))
            before = trace_model(spec, frame.coords, importance)
        assert pickle.dumps(trace) == pickle.dumps(before)

    def test_delta_traces_match_reference(self):
        """Sequential frames through the delta route, grids handed on."""
        spec = build_model_spec("SCP1")
        shape = (192, 192)
        prev = None
        for seed in range(3):
            coords = random_frame(shape, 12000 + 100 * seed, seed=seed)
            trace = trace_model(spec, coords, grid_shape=shape,
                                prev_trace=prev)
            delta = [layer.spec.name for layer in trace.layers
                     if layer.via_delta]
            assert len(delta) > 4 if prev else not delta, delta
            for layer in trace.layers:
                if layer.rules is None:
                    continue
                assert layer.rules._grid is None
                expect = build_rules_reference(
                    layer.in_coords, layer.in_shape, layer.spec.conv_type,
                    kernel_size=layer.spec.kernel_size,
                    stride=layer.spec.stride)
                assert_rules_identical(expect, layer.rules, layer.spec.name)
            prev = trace

    def test_shared_layers_hand_nothing_on(self, monkeypatch):
        """A layer that reuses an earlier layer's rules passes no grid,
        so the layer after it builds from coordinates."""
        spec = build_model_spec("SPP3")
        coords = random_frame((48, 64), 800, seed=7)
        states = []
        execute = sparsity._execute_sparse_layer

        def recording(layer, state, *args, rules=None, **kwargs):
            layer_trace, out_state = execute(layer, state, *args,
                                             rules=rules, **kwargs)
            states.append((layer.name, rules is not None, out_state))
            return layer_trace, out_state

        monkeypatch.setattr(sparsity, "_execute_sparse_layer", recording)
        trace = trace_model(spec, coords, grid_shape=(48, 64))
        shared = [name for name, was_shared, _ in states if was_shared]
        assert shared
        for name, was_shared, state in states:
            if was_shared:
                assert state.grid is None, name
        for layer in trace.layers:
            if layer.rules is not None:
                assert layer.rules._grid is None

    def test_pruned_stream_hands_on_kept_cells_without_mask(self,
                                                            monkeypatch):
        spec = build_model_spec("SPP2")
        coords = random_frame((48, 64), 900, seed=8)
        states = {}
        execute = sparsity._execute_sparse_layer

        def recording(layer, *args, **kwargs):
            layer_trace, out_state = execute(layer, *args, **kwargs)
            states[layer.name] = (layer, out_state)
            return layer_trace, out_state

        monkeypatch.setattr(sparsity, "_execute_sparse_layer", recording)
        trace_model(spec, coords, grid_shape=(48, 64))
        pruned = [state for layer, state in states.values()
                  if layer.prune_keep is not None]
        assert pruned
        for state in pruned:
            assert state.grid is not None and state.grid.mask is None
            assert_grid_describes(state.grid, state.coords, state.shape)


class TestGridSlot:
    def rules_with_grid(self):
        coords = random_frame((20, 24), 90, seed=9)
        rules = build_rules(coords, (20, 24), ConvType.SPCONV)
        assert isinstance(rules._grid, PaddedGrid)
        return rules

    def test_pickle_and_copy_drop_the_slot(self):
        rules = self.rules_with_grid()
        data = pickle.dumps(rules)
        grid = rules.take_grid()
        assert pickle.dumps(rules) == data
        rules._grid = grid
        assert pickle.loads(data)._grid is None
        assert copy.copy(rules)._grid is None
        assert copy.deepcopy(rules)._grid is None
        assert rules._grid is grid
        assert "_grid" not in repr(rules)

    def test_handed_over_arrays_are_read_only(self):
        grid = self.rules_with_grid().take_grid()
        for array in (grid.flat, grid.mask, grid.subset([0, 2]).flat):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        subm = build_rules(random_frame((20, 24), 50, seed=10), (20, 24),
                           ConvType.SUBM).take_grid()
        assert subm.mask is None
        with pytest.raises(ValueError, match="read-only"):
            subm.flat[0] = 0
