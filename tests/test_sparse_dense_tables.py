"""Dense-table and sorted lookup routes of the trace stage.

Grids within :data:`repro.sparse.coords._DENSE_TABLE_CELLS` build each
layer's output set and pairs from one halo-padded grid table and resolve
branch unions and strided output sets through dense tables; larger grids
build their rules with :func:`build_rules_reference` and keep the sorted
/ hashed code for the rest.  Setting the cap to 0 forces that sorted
route on the small grids used here, so both routes are checked against
:func:`build_rules_reference` and against each other, bit for bit and
dtype for dtype, and both reproduce one pinned digest of every conv
variant's rules — including frames whose pillars sit on the halo edges
(corners, full grids, 1xN and Nx1 grids).  Direct oracles pin
``_union_states`` and ``downsample_coords``, and degenerate frames run
through ``trace_model`` for every Table I model.  An oracle that
propagates pillar importance through every layer checks that tracking
it only up to the last pruned layer changes no trace, and one that
builds every layer's rules checks that layers sharing one ``Rules``
change no trace either; simulators and pickling leave shared rules as
they were.  Grids whose deconv branches would end on different grids
are refused; every other small grid traces as the sorted route does.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import math
import numbers
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sparsity
from repro.analysis.sparsity import StreamState, _union_states, trace_model
from repro.engine.registry import SIMULATORS
from repro.engine.runner import DEFAULT_SCENARIO, FrameProvider
from repro.engine.simulators import _PLATFORMS, build_simulator
from repro.models import TABLE1_PAPER, LayerOp, LayerSpec, build_model_spec
from repro.sparse import (
    ConvType,
    build_rules,
    build_rules_delta,
    build_rules_reference,
    downsample_coords,
    flatten,
    kernel_offsets,
    unflatten,
)
from repro.sparse import coords as coords_module
from repro.sparse import rulegen

SHAPE = (26, 34)
TOTAL = SHAPE[0] * SHAPE[1]
ROUTES = ("table", "sorted")

CASES = [
    (ConvType.SPCONV, 1, 3),
    (ConvType.SPCONV, 1, 2),
    (ConvType.SPCONV, 1, 5),
    (ConvType.SUBM, 1, 3),
    (ConvType.SUBM, 1, 2),
    (ConvType.SPCONV_P, 1, 3),
    (ConvType.STRIDED, 2, 3),
    (ConvType.STRIDED, 3, 3),
    (ConvType.STRIDED, 2, 2),
    (ConvType.STRIDED, 2, 5),
    (ConvType.STRIDED_SUBM, 2, 3),
    (ConvType.STRIDED_SUBM, 3, 3),
    (ConvType.DECONV, 2, 2),
    (ConvType.DECONV, 3, 3),
]
CASE_IDS = [f"{ct.value}-s{stride}-k{ks}" for ct, stride, ks in CASES]


@contextlib.contextmanager
def route(name: str):
    """Run the body on the named lookup route."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "sorted":
            patch.setattr(coords_module, "_DENSE_TABLE_CELLS", 0)
        yield


def random_frame(count, shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    flat = rng.choice(shape[0] * shape[1], count, replace=False)
    return unflatten(np.sort(flat), shape)


def corner_pillars(shape):
    """The (deduplicated) four corner cells of a grid."""
    last = shape[0] * shape[1] - 1
    flat = [0, shape[1] - 1, last - shape[1] + 1, last]
    return unflatten(np.unique(flat), shape)


def full_grid(shape):
    return unflatten(np.arange(shape[0] * shape[1]), shape)


#: name -> (grid shape, CPR-sorted frame).
FRAMES = {
    "typical": (SHAPE, random_frame(120)),
    "empty": (SHAPE, np.zeros((0, 2), np.int32)),
    "single-row": (SHAPE,
                   unflatten(5 * SHAPE[1] + np.arange(0, 30, 3), SHAPE)),
    "half-dense": (SHAPE, random_frame(TOTAL // 2, seed=7)),
    "corners": (SHAPE, corner_pillars(SHAPE)),
    "full-grid": (SHAPE, full_grid(SHAPE)),
    "1xN-strip": ((1, 37), random_frame(20, (1, 37), seed=3)),
    "1xN-full": ((1, 37), full_grid((1, 37))),
    "Nx1-strip": ((29, 1), random_frame(15, (29, 1), seed=5)),
    "Nx1-corners": ((29, 1), corner_pillars((29, 1))),
    "1x1": ((1, 1), full_grid((1, 1))),
}


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


def assert_routes_match_reference(coords, shape, conv_type, stride, kernel):
    """build_rules on both routes equals the reference loop."""
    args = (coords, shape, conv_type)
    params = dict(kernel_size=kernel, stride=stride)
    reference = build_rules_reference(*args, **params)
    for name in ROUTES:
        with route(name):
            assert_rules_identical(
                reference, build_rules(*args, **params), name)


#: Grids of the digest: one with even sides, one with odd sides.
DIGEST_SHAPES = ((26, 34), (17, 23))

#: sha256 of :func:`rules_digest` over :func:`build_rules`, recorded
#: when grids past the cap still took a sorted route of their own
#: (``searchsorted`` over a (K, P) candidate batch); that route, the
#: padded table and the reference loop all gave these bytes.
RULES_DIGEST = (
    "3a19b48d8096ff2874b161ffb2cc6f9c639ac2a33a17e0cf1c64bb41e7b7ff96")


def digest_cases():
    """Every conv type at each stride it takes, with kernels 1, 2, 3 and
    5 (DECONV's kernel is its stride)."""
    stride_one = (ConvType.SPCONV, ConvType.SUBM, ConvType.SPCONV_P)
    for conv_type in ConvType:
        if conv_type is ConvType.DECONV:
            for stride in (2, 3):
                yield conv_type, stride, stride
            continue
        for stride in ((1,) if conv_type in stride_one else (2, 3)):
            for kernel in (1, 2, 3, 5):
                yield conv_type, stride, kernel


def digest_frames(shape):
    """Random frames at three densities, then the empty, single-pillar
    and full-grid frames."""
    total = shape[0] * shape[1]
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    frames = {}
    for count in (total // 20, total // 4, 3 * total // 4):
        flat = np.sort(rng.choice(total, count, replace=False))
        frames[f"random-{count}"] = unflatten(flat, shape)
    frames["empty"] = np.zeros((0, 2), np.int32)
    frames["single-pillar"] = unflatten(np.array([total // 2 + 3]), shape)
    frames["full-grid"] = unflatten(np.arange(total), shape)
    return frames


def rules_digest(build) -> str:
    """sha256 over ``build``'s rules for every digest case and frame:
    shapes, kernel, dtypes and the bytes of every index array."""
    digest = hashlib.sha256()
    for shape in DIGEST_SHAPES:
        for name, coords in digest_frames(shape).items():
            for conv_type, stride, kernel in digest_cases():
                rules = build(coords, shape, conv_type, kernel, stride)
                out = rules.out_coords
                digest.update(
                    f"{shape}{name}{conv_type.value}{stride}{kernel}"
                    f"|{rules.out_shape}|{rules.kernel_size}"
                    f"|{out.dtype}{out.shape}".encode())
                digest.update(out.tobytes())
                for pair in rules.pairs:
                    digest.update(f"|{len(pair)}{pair.in_idx.dtype}"
                                  f"{pair.out_idx.dtype}".encode())
                    digest.update(pair.in_idx.tobytes())
                    digest.update(pair.out_idx.tobytes())
    return digest.hexdigest()


class TestRouteSelection:
    @staticmethod
    def count_reference_calls(monkeypatch) -> list:
        calls = []
        reference = rulegen.build_rules_reference

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return reference(*args, **kwargs)

        monkeypatch.setattr(rulegen, "build_rules_reference", counting)
        return calls

    def test_table_route_neither_searches_nor_calls_reference(
            self, monkeypatch):
        calls = self.count_reference_calls(monkeypatch)
        lookups = []
        lookup = rulegen._lookup_sorted

        def counting(haystack, needles):
            lookups.append(len(needles))
            return lookup(haystack, needles)

        monkeypatch.setattr(rulegen, "_lookup_sorted", counting)
        coords = FRAMES["typical"][1]
        rules = build_rules(coords, SHAPE, ConvType.SPCONV)
        assert (calls, lookups) == ([], [])
        assert rules.take_grid() is not None

    def test_cap_admits_paper_grids(self):
        # The padded table adds a halo of up to 2 cells per side.
        assert coords_module._dense_table_fits(1028 * 1028)

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("frame", ["typical", "empty", "corners",
                                       "full-grid", "1x1"])
    def test_over_cap_grid_takes_reference_and_leaves_no_grid(
            self, monkeypatch, conv_type, stride, kernel, frame):
        """Past the cap, build_rules returns the reference loop's rules
        and hands no grid on, even when given the input's grid."""
        shape, coords = FRAMES[frame]
        params = dict(kernel_size=kernel, stride=stride)
        grid = build_rules(coords, shape, ConvType.SUBM).take_grid()
        expect = build_rules_reference(coords, shape, conv_type, **params)
        calls = self.count_reference_calls(monkeypatch)
        monkeypatch.setattr(coords_module, "_DENSE_TABLE_CELLS", 0)
        got = build_rules(coords, shape, conv_type, grid=grid, **params)
        assert calls == [len(coords)]
        assert got.take_grid() is None
        assert_rules_identical(expect, got)

    def test_oversized_padded_table_takes_reference(self, monkeypatch):
        """A grid that fits unpadded but not with its halo."""
        _, coords = FRAMES["typical"]
        expect = build_rules_reference(coords, SHAPE, ConvType.SPCONV)
        calls = self.count_reference_calls(monkeypatch)
        monkeypatch.setattr(coords_module, "_DENSE_TABLE_CELLS", TOTAL)
        got = build_rules(coords, SHAPE, ConvType.SPCONV)
        assert calls == [len(coords)]
        assert got.take_grid() is None
        assert_rules_identical(expect, got)

    @pytest.mark.parametrize("name", ROUTES)
    def test_routes_reproduce_pinned_digest(self, name):
        with route(name):
            assert rules_digest(build_rules) == RULES_DIGEST

    def test_reference_reproduces_pinned_digest(self):
        assert rules_digest(build_rules_reference) == RULES_DIGEST


class TestRulegenRoutes:
    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_build_rules_matches_reference(self, conv_type, stride,
                                           kernel, frame):
        shape, coords = FRAMES[frame]
        assert_routes_match_reference(coords, shape, conv_type, stride,
                                      kernel)

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_grids_match_reference(self, conv_type, stride, kernel,
                                          data):
        shape = (data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        total = shape[0] * shape[1]
        flat = data.draw(st.lists(st.integers(0, total - 1),
                                  max_size=total, unique=True))
        coords = unflatten(np.sort(np.array(flat, np.int64)), shape)
        assert_routes_match_reference(coords, shape, conv_type, stride,
                                      kernel)

    @pytest.mark.parametrize("conv_type,stride,kernel", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_matches_reference(self, conv_type, stride, kernel,
                                     seed):
        rng = np.random.default_rng(seed)
        base = rng.choice(TOTAL, 150, replace=False)
        toggles = rng.choice(TOTAL, 12, replace=False)
        new_flat = np.setxor1d(base, toggles)
        prev_coords = unflatten(np.sort(base), SHAPE)
        new_coords = unflatten(new_flat, SHAPE)
        params = dict(kernel_size=kernel, stride=stride)
        expect = build_rules_reference(new_coords, SHAPE, conv_type,
                                       **params)
        for name in ROUTES:
            with route(name):
                prev = build_rules(prev_coords, SHAPE, conv_type, **params)
                delta = build_rules_delta(prev, new_coords)
            assert_rules_identical(expect, delta, name)


def assert_layers_match_reference(trace):
    """Each sparse layer's rules equal the reference on its own input."""
    for layer in trace.layers:
        if layer.spec.op is not LayerOp.SPARSE:
            continue
        reference = build_rules_reference(
            layer.in_coords, layer.in_shape, layer.spec.conv_type,
            kernel_size=layer.spec.kernel_size, stride=layer.spec.stride,
        )
        assert_rules_identical(reference, layer.rules, layer.spec.name)


def assert_traces_identical(expect, got):
    """Layer by layer: counts, MACs, input sets and rules."""
    assert len(got.layers) == len(expect.layers)
    for want, have in zip(expect.layers, got.layers):
        name = want.spec.name
        assert have.out_count == want.out_count, name
        assert have.out_count_after_prune == want.out_count_after_prune, \
            name
        assert have.sparse_macs == want.sparse_macs, name
        if want.rules is None:
            assert have.rules is None, name
            continue
        # A layer's input set is the (pruned) output set it was fed.
        np.testing.assert_array_equal(have.in_coords, want.in_coords,
                                      err_msg=name)
        assert_rules_identical(want.rules, have.rules, name)


def capture_importances(monkeypatch):
    """Record ``(layer name, importance)`` for every stream state
    trace_model makes; the branch union is recorded as ``"union"``."""
    seen = []
    execute = sparsity._execute_sparse_layer
    union = sparsity._union_states

    def executing(spec, *args, **kwargs):
        layer_trace, state = execute(spec, *args, **kwargs)
        seen.append((spec.name, state.importance))
        return layer_trace, state

    def uniting(states):
        state = union(states)
        if not state.is_dense:
            seen.append(("union", state.importance))
        return state

    monkeypatch.setattr(sparsity, "_execute_sparse_layer", executing)
    monkeypatch.setattr(sparsity, "_union_states", uniting)
    return seen


def last_pruned(spec):
    """Index of the last layer with ``prune_keep``, or -1."""
    pruned = [index for index, layer in enumerate(spec.layers)
              if layer.prune_keep is not None]
    return pruned[-1] if pruned else -1


def assert_tracked_up_to_last_prune(spec, seen):
    """Importance is None exactly past the last pruned layer, and finite
    and non-negative float64 up to it.  The union of the deconv
    branches tracks it only when every deconv is within the boundary.
    Returns the names whose importance was tracked."""
    position = {layer.name: index for index, layer in enumerate(spec.layers)}
    last_deconv = max(index for index, layer in enumerate(spec.layers)
                      if layer.name.startswith("D"))
    boundary = last_pruned(spec)
    tracked = []
    for name, importance in seen:
        index = last_deconv if name == "union" else position[name]
        if index > boundary:
            assert importance is None, name
            continue
        assert importance is not None, name
        assert importance.dtype == np.float64, name
        assert np.isfinite(importance).all(), name
        assert (importance >= 0).all(), name
        tracked.append(name)
    return tracked


#: The sparse layers that carry importance in the pruned Table I models.
PRE_PRUNE_LAYERS = ["B1C1", "B1C2", "B1C3", "B1C4", "B2C1", "B2C2", "B2C3",
                    "B2C4", "B2C5", "B2C6", "B3C1"]


class TestTraceModelRoutes:
    @pytest.mark.parametrize("model", ["SPP1", "SPP2", "SCP2", "SCP3"])
    def test_routes_trace_identically(self, model, monkeypatch):
        spec = build_model_spec(model)
        shape = (40, 48)
        coords = random_frame(500, shape, seed=4)
        importance = np.random.default_rng(4).uniform(0, 9, len(coords))
        traces, importances = {}, {}
        for name in ROUTES:
            with monkeypatch.context() as patch:
                seen = capture_importances(patch)
                with route(name):
                    traces[name] = trace_model(spec, coords, importance,
                                               grid_shape=shape)
            importances[name] = seen
        assert_layers_match_reference(traces["sorted"])
        assert_traces_identical(traces["table"], traces["sorted"])
        tracked = assert_tracked_up_to_last_prune(spec, importances["table"])
        assert tracked == (PRE_PRUNE_LAYERS if last_pruned(spec) >= 0
                           else [])
        assert len(importances["table"]) == len(importances["sorted"])
        for (name, left), (other, right) in zip(importances["table"],
                                                importances["sorted"]):
            assert name == other
            if left is None:
                assert right is None, name
            else:
                assert right.dtype == np.float64, name
                np.testing.assert_array_equal(left, right, err_msg=name)


def union_oracle(states, shape):
    """Set union with per-cell max importance, via a Python dict."""
    best = {}
    for state in states:
        for (row, col), value in zip(state.coords.tolist(),
                                     state.importance.tolist()):
            cell = row * shape[1] + col
            best[cell] = max(best.get(cell, 0.0), value)
    cells = sorted(best)
    return unflatten(np.array(cells, np.int64), shape), \
        np.array([best[cell] for cell in cells], np.float64)


@st.composite
def branch_states(draw, shape=(11, 13)):
    total = shape[0] * shape[1]
    branches = draw(st.integers(1, 4))
    states = []
    for _ in range(branches):
        flat = draw(st.lists(st.integers(0, total - 1), max_size=60,
                             unique=True))
        flat = np.sort(np.array(flat, np.int64))
        importance = draw(st.lists(
            st.floats(0, 100, allow_nan=False), min_size=len(flat),
            max_size=len(flat)))
        states.append(StreamState(shape=shape,
                                  coords=unflatten(flat, shape),
                                  importance=np.array(importance,
                                                      np.float64)))
    return states


class TestUnionStates:
    @pytest.mark.parametrize("name", ROUTES)
    @given(states=branch_states())
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, name, states):
        shape = states[0].shape
        want_coords, want_importance = union_oracle(states, shape)
        with route(name):
            merged = _union_states(states)
        assert merged.shape == shape
        assert merged.coords.dtype == np.int32
        np.testing.assert_array_equal(merged.coords, want_coords)
        assert merged.importance.dtype == np.float64
        np.testing.assert_array_equal(merged.importance, want_importance)

    @pytest.mark.parametrize("name", ROUTES)
    def test_overlapping_branches_keep_the_max(self, name):
        shape = (4, 5)
        first = StreamState(shape, np.array([[0, 0], [1, 2], [3, 4]],
                                            np.int32),
                            np.array([5.0, 6.0, 2.0]))
        second = StreamState(shape, np.array([[1, 2], [2, 0], [3, 4]],
                                             np.int32),
                             np.array([3.0, 4.0, 7.0]))
        with route(name):
            merged = _union_states([first, second])
        np.testing.assert_array_equal(
            merged.coords, [[0, 0], [1, 2], [2, 0], [3, 4]])
        np.testing.assert_array_equal(merged.importance,
                                      [5.0, 6.0, 4.0, 7.0])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_any_dense_branch_makes_the_union_dense(self, position):
        shape = (6, 6)
        sparse = StreamState(shape, np.array([[1, 1]], np.int32),
                             np.array([2.0]))
        states = [sparse, sparse, sparse]
        states[position] = StreamState(shape, coords=None)
        assert _union_states(states).is_dense

    @pytest.mark.parametrize("name", ROUTES)
    @given(states=branch_states(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_untracked_branch_leaves_importance_untracked(self, name,
                                                          states, data):
        shape = states[0].shape
        want_coords, _ = union_oracle(states, shape)
        position = data.draw(st.integers(0, len(states) - 1))
        states[position] = StreamState(shape, states[position].coords)
        with route(name):
            merged = _union_states(states)
        assert merged.importance is None
        np.testing.assert_array_equal(merged.coords, want_coords)


def downsample_oracle(coords, shape, stride):
    """Brute force: q is active when any cell of its window
    ``stride*q + kernel_offsets(3)`` is an active input."""
    out_shape = (-(-shape[0] // stride), -(-shape[1] // stride))
    active = {tuple(pair) for pair in coords.tolist()}
    hits = []
    for row in range(out_shape[0]):
        for col in range(out_shape[1]):
            if any((stride * row + dr, stride * col + dc) in active
                   for dr, dc in kernel_offsets(3).tolist()):
                hits.append((row, col))
    return np.array(hits, np.int32).reshape(-1, 2), out_shape


ODD_SHAPES = [(7, 9), (11, 5), (13, 13), (1, 9)]


@st.composite
def strided_frames(draw):
    shape = draw(st.sampled_from(ODD_SHAPES))
    total = shape[0] * shape[1]
    flat = draw(st.lists(st.integers(0, total - 1), max_size=total,
                         unique=True))
    return shape, unflatten(np.sort(np.array(flat, np.int64)), shape)


def corner_and_edge_frames(shape):
    last_row, last_col = shape[0] - 1, shape[1] - 1
    corners = [(0, 0), (0, last_col), (last_row, 0), (last_row, last_col)]
    edges = [(0, last_col // 2), (last_row, last_col // 2),
             (last_row // 2, 0), (last_row // 2, last_col)]
    frames = [[cell] for cell in corners + edges] + [corners + edges]
    return [unflatten(np.unique(flatten(np.array(cells, np.int32), shape)),
                      shape) for cells in frames]


class TestDownsampleCoords:
    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("stride", [2, 3, 4])
    @given(frame=strided_frames())
    @settings(max_examples=25, deadline=None)
    def test_matches_window_oracle(self, name, stride, frame):
        shape, coords = frame
        want, want_shape = downsample_oracle(coords, shape, stride)
        with route(name):
            got, got_shape = downsample_coords(coords, shape, stride)
        assert got_shape == want_shape
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("stride", [2, 3, 4])
    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_corner_and_edge_pillars(self, name, stride, shape):
        for coords in corner_and_edge_frames(shape):
            want, want_shape = downsample_oracle(coords, shape, stride)
            with route(name):
                got, got_shape = downsample_coords(coords, shape, stride)
            assert got_shape == want_shape
            np.testing.assert_array_equal(got, want)


GRID = (32, 32)


def degenerate_frames():
    rows, cols = GRID
    every = np.arange(rows * cols)
    return {
        "empty": np.zeros((0, 2), np.int32),
        "corner-pillar": unflatten(np.array([0]), GRID),
        "centre-pillar": unflatten(
            np.array([(rows // 2) * cols + cols // 2]), GRID),
        "full-grid": unflatten(every, GRID),
        "row-strip": unflatten(every[:cols], GRID),
        "column-strip": unflatten(every[::cols], GRID),
    }


class TestDegenerateFrames:
    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    @pytest.mark.parametrize("frame", sorted(degenerate_frames()))
    def test_trace_matches_reference(self, model, frame, monkeypatch):
        coords = degenerate_frames()[frame]
        spec = build_model_spec(model)
        seen = capture_importances(monkeypatch)
        trace = trace_model(spec, coords, grid_shape=GRID)
        assert len(trace.layers) == len(spec.layers)
        assert_layers_match_reference(trace)
        assert_tracked_up_to_last_prune(spec, seen)


@contextlib.contextmanager
def importance_everywhere():
    """The oracle: trace_model with importance max-propagated through
    every sparse layer and the branch union, whatever the model prunes."""
    execute = sparsity._execute_sparse_layer

    def executing(*args, track_importance=True, **kwargs):
        return execute(*args, track_importance=True, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparsity, "_execute_sparse_layer", executing)
        yield


#: name -> (grid shape, frame) for the full-propagation oracle.  The
#: random grids' sides are multiples of 16, so every model's deconv
#: branches meet on one grid.
ORACLE_FRAMES = {
    **{name: (GRID, frame) for name, frame in degenerate_frames().items()},
    "random-sparse": ((48, 64), random_frame(300, (48, 64), seed=11)),
    "random-dense": ((48, 64), random_frame(1900, (48, 64), seed=12)),
}


def head_pruned_spec():
    """SCP3 with its only ``prune_keep`` on the sparse shared head, after
    the deconvs and the branch union."""
    spec = build_model_spec("SCP3")
    layers = [dataclasses.replace(layer, prune_keep=0.5)
              if layer.name == "Hshared" else layer
              for layer in spec.layers]
    return dataclasses.replace(spec, name="SCP3-head-pruned", layers=layers)


class TestImportanceBoundary:
    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    @pytest.mark.parametrize("frame", sorted(ORACLE_FRAMES))
    def test_matches_full_propagation(self, model, frame):
        shape, coords = ORACLE_FRAMES[frame]
        importance = np.random.default_rng(len(coords)).uniform(
            0, 9, len(coords))
        spec = build_model_spec(model)
        with importance_everywhere():
            expect = trace_model(spec, coords, importance, grid_shape=shape)
        got = trace_model(spec, coords, importance, grid_shape=shape)
        assert_traces_identical(expect, got)

    def test_boundary_is_the_last_pruned_layer(self, monkeypatch):
        spec = head_pruned_spec()
        shape, coords = ORACLE_FRAMES["random-dense"]
        importance = np.random.default_rng(5).uniform(0, 9, len(coords))
        with importance_everywhere():
            expect = trace_model(spec, coords, importance, grid_shape=shape)
        seen = capture_importances(monkeypatch)
        got = trace_model(spec, coords, importance, grid_shape=shape)
        assert_traces_identical(expect, got)
        head = got.layer("Hshared")
        assert 0 < head.out_count_after_prune < head.out_count
        tracked = assert_tracked_up_to_last_prune(spec, seen)
        sparse = [layer.name for layer in spec.layers
                  if layer.op is LayerOp.SPARSE and layer.name != "Hfused"]
        assert sorted(tracked) == sorted(sparse + ["union"])
        assert seen[-1][0] == "Hfused"


#: Every built-in simulator spec string, one per configuration.
SIMULATOR_NAMES = [
    "spade-he", "spade-le", "spade-he-noopt", "spade-le-noopt",
    "dense-he", "dense-le", "pointacc-he", "pointacc-le", "spconv2d",
    "stats",
] + [f"platform:{name}" for name in sorted(_PLATFORMS)]

#: The sparse models whose layer graphs cover every ConvType.
SIMULATED_MODELS = ["SPP1", "SPP3", "SCP1", "SCP3", "SPN"]

_TRACES = {}


def degenerate_trace(model, frame):
    """trace_model of one degenerate frame, built once per module."""
    key = (model, frame)
    if key not in _TRACES:
        _TRACES[key] = trace_model(build_model_spec(model),
                                   degenerate_frames()[frame],
                                   grid_shape=GRID)
    return _TRACES[key]


def reported_numbers(value, path="result"):
    """(path, number) for every number nested in a simulator result."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        for key, item in value.items():
            yield from reported_numbers(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from reported_numbers(item, f"{path}[{index}]")
    elif isinstance(value, numbers.Number) and not isinstance(value, bool):
        yield path, value


class TestDegenerateFramesThroughSimulators:
    def test_names_cover_every_built_in_family(self):
        families = {name.split("-")[0].split(":")[0]
                    for name in SIMULATOR_NAMES}
        assert families == {"spade", "dense", "pointacc", "spconv2d",
                            "stats", "platform"}
        assert families <= set(SIMULATORS.names())

    @pytest.mark.parametrize("simulator", SIMULATOR_NAMES)
    @pytest.mark.parametrize("frame", ["empty", "corner-pillar",
                                       "full-grid", "row-strip",
                                       "column-strip"])
    def test_costs_are_finite_and_non_negative(self, simulator, frame):
        sim = build_simulator(simulator)
        for model in SIMULATED_MODELS:
            result = sim.run(degenerate_trace(model, frame))
            reported = {
                "cycles": result.cycles,
                "latency_ms": result.latency_ms,
                "fps": result.fps,
                "energy_mj": result.energy_mj,
                "dram_bytes": result.dram_bytes,
                "utilization": result.utilization,
                "per_layer": result.per_layer,
                "extras": result.extras,
            }
            values = list(reported_numbers(reported, model))
            assert values, model
            for path, value in values:
                assert math.isfinite(value), (path, value)
                assert value >= 0, (path, value)
            if result.cycles is not None and frame != "empty":
                assert result.cycles > 0, model


@contextlib.contextmanager
def unshared():
    """The oracle: trace_model with the rule-sharing lookup taken out, so
    every sparse layer builds its own rules."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparsity, "_shared_rules",
                      lambda built, geometry, coords: None)
        yield


def layer_geometry(layer):
    """Every argument rule generation reads for one traced layer."""
    return (layer.spec.conv_type, layer.spec.kernel_size, layer.spec.stride,
            tuple(layer.in_shape))


def shared_layer_names(trace):
    """Sparse layers whose rules are an earlier layer's object."""
    seen, shared = set(), []
    for layer in trace.layers:
        if layer.rules is None:
            continue
        if id(layer.rules) in seen:
            shared.append(layer.spec.name)
        seen.add(id(layer.rules))
    return shared


def sharing_probe_spec():
    """Layers that see one input set and differ in one geometry field
    each, so a lookup key missing any field shares wrong rules:
    kernel (B1C2, D1b vs B1C1), conv type (B1C3), stride (D1c vs D1b)
    and input grid (B2C2 on the strided grid, whose input equals B1C1's
    on the empty and corner frames).  D1a repeats B1C1 exactly.  There
    is no head, so the deconv branches are never merged."""
    def sparse(name, conv_type, kernel=3, stride=1, stage=1):
        return LayerSpec(name, LayerOp.SPARSE, 8, 8, kernel_size=kernel,
                         stride=stride, conv_type=conv_type, stage=stage)

    layers = [
        sparse("B1C1", ConvType.SUBM),
        sparse("B1C2", ConvType.SUBM, kernel=5),
        sparse("B1C3", ConvType.SPCONV, stage=2),
        sparse("B2C1", ConvType.STRIDED_SUBM, stride=2, stage=3),
        sparse("B2C2", ConvType.SUBM, stage=3),
        sparse("D1a", ConvType.SUBM),
        sparse("D1b", ConvType.DECONV, kernel=2, stride=2),
        sparse("D1c", ConvType.DECONV, kernel=2, stride=3),
    ]
    return dataclasses.replace(build_model_spec("SPP1"),
                               name="sharing-probe", layers=layers)


def spec_named(name):
    return sharing_probe_spec() if name == "sharing-probe" \
        else build_model_spec(name)


SHARING_MODELS = sorted(TABLE1_PAPER) + ["sharing-probe"]


class TestSharedRules:
    """Layers of one trace that see the same input with the same
    geometry share one Rules object, and the trace equals one whose
    every layer built its own rules."""

    @pytest.mark.parametrize("model", SHARING_MODELS)
    @pytest.mark.parametrize("frame", sorted(ORACLE_FRAMES))
    def test_matches_unshared_oracle(self, model, frame):
        shape, coords = ORACLE_FRAMES[frame]
        importance = np.random.default_rng(len(coords)).uniform(
            0, 9, len(coords))
        spec = spec_named(model)
        with unshared():
            expect = trace_model(spec, coords, importance, grid_shape=shape)
        got = trace_model(spec, coords, importance, grid_shape=shape)
        assert shared_layer_names(expect) == []
        assert_traces_identical(expect, got)
        assert not any(layer.via_delta for layer in got.layers)

    @pytest.mark.parametrize("model", SHARING_MODELS)
    @pytest.mark.parametrize("frame", sorted(ORACLE_FRAMES))
    def test_shared_exactly_where_geometry_and_input_match(self, model,
                                                           frame):
        shape, coords = ORACLE_FRAMES[frame]
        trace = trace_model(spec_named(model), coords, grid_shape=shape)
        earlier = []
        for layer in trace.layers:
            if layer.rules is None:
                continue
            matches = [other for other in earlier
                       if layer_geometry(other) == layer_geometry(layer)
                       and np.array_equal(other.in_coords, layer.in_coords)]
            name = layer.spec.name
            if matches:
                assert layer.rules is matches[0].rules, name
            else:
                assert all(layer.rules is not other.rules
                           for other in earlier), name
                earlier.append(layer)

    @pytest.mark.parametrize("model, count", [
        ("SPP1", 0), ("SPP2", 0), ("SPP3", 10), ("SCP1", 0), ("SCP2", 0),
        ("SCP3", 10), ("PN", 4), ("SPN", 10), ("PP", 0), ("CP", 0),
        ("PN-Dense", 0),
    ])
    def test_shared_layer_counts_on_seed_0_frames(self, model, count,
                                                  seed0_frames):
        frame = seed0_frames.frame_for(DEFAULT_SCENARIO, model)
        trace = trace_model(build_model_spec(model), frame.coords,
                            frame.point_counts.astype(np.float64))
        assert len(shared_layer_names(trace)) == count


@pytest.fixture(scope="module")
def seed0_frames():
    return FrameProvider()


def rule_array_bytes(trace):
    """Bytes of every coordinate and pair array of each distinct Rules
    and of every layer's input set."""
    snapshot = {}
    for index, layer in enumerate(trace.layers):
        if layer.rules is None:
            continue
        snapshot[("in_coords", index)] = layer.in_coords.tobytes()
        rules = layer.rules
        arrays = {"in": rules.in_coords, "out": rules.out_coords}
        for offset, pair in enumerate(rules.pairs):
            arrays[f"in_idx{offset}"] = pair.in_idx
            arrays[f"out_idx{offset}"] = pair.out_idx
        for name, array in arrays.items():
            snapshot[(id(rules), name)] = (array.dtype.str, array.shape,
                                           array.tobytes())
    return snapshot


#: Models whose seed-0 traces share rules, traced on a small frame.
SHARING_TRACE_MODELS = ["SPP3", "SCP3", "PN", "SPN"]


class TestSharedRulesStayUnwritten:
    @pytest.mark.parametrize("model", SHARING_TRACE_MODELS)
    def test_simulators_write_no_rule_array(self, model):
        shape, coords = ORACLE_FRAMES["random-dense"]
        trace = trace_model(build_model_spec(model), coords,
                            grid_shape=shape)
        assert shared_layer_names(trace)
        before = rule_array_bytes(trace)
        for name in SIMULATOR_NAMES:
            build_simulator(name).run(trace)
        assert rule_array_bytes(trace) == before

    @pytest.mark.parametrize("model", SHARING_TRACE_MODELS)
    def test_pickle_keeps_sharing(self, model):
        shape, coords = ORACLE_FRAMES["random-dense"]
        spec = build_model_spec(model)
        trace = trace_model(spec, coords, grid_shape=shape)
        with unshared():
            oracle = trace_model(spec, coords, grid_shape=shape)
        data, oracle_data = pickle.dumps(trace), pickle.dumps(oracle)
        assert len(data) < len(oracle_data)
        # Loading fixes every array's dtype object in place; a numpy
        # that deprecates that assignment makes this fail loudly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = pickle.loads(data)
            # A trace pickled before layers shared rules still loads,
            # unshared and with equal content.
            unshared_loaded = pickle.loads(oracle_data)
        assert shared_layer_names(loaded) == shared_layer_names(trace)
        for (first, first_copy), (second, second_copy) in \
                itertools.combinations(zip(trace.layers, loaded.layers), 2):
            assert ((first_copy.rules is second_copy.rules)
                    == (first.rules is second.rules)), second.spec.name
        assert_traces_identical(trace, loaded)
        assert shared_layer_names(unshared_loaded) == []
        assert_traces_identical(trace, unshared_loaded)
        for layer in loaded.layers:
            if layer.rules is not None:
                for pair in layer.rules.pairs:
                    assert pair.in_idx.dtype is np.dtype(np.int32)


#: Each Table I family's total backbone stride.
TOTAL_STRIDE = {"pointpillars": 8, "centerpoint": 8, "pillarnet": 16}


@st.composite
def small_grid_frames(draw):
    """A small grid and a random frame of any density.  Sides that are
    multiples of 16 are drawn often, so traced grids are common."""
    side = st.one_of(st.integers(1, 40), st.sampled_from([16, 32, 48]))
    shape = (draw(side), draw(side))
    cells = shape[0] * shape[1]
    count = round(draw(st.floats(0, 1)) * cells)
    return shape, random_frame(count, shape, seed=draw(st.integers(0, 99)))


class TestGridShapes:
    """Grids the backbone stride does not divide: trace_model refuses
    them when the deconv branches would end on different grids, and
    traces every other grid correctly."""

    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    @settings(max_examples=12, deadline=None)
    @given(case=small_grid_frames())
    def test_refused_or_traced_correctly(self, model, case):
        shape, coords = case
        spec = build_model_spec(model)
        stride = TOTAL_STRIDE[spec.base]
        try:
            trace = trace_model(spec, coords, grid_shape=shape)
        except ValueError as error:
            assert f"{shape[0]}x{shape[1]} grid" in str(error)
            assert f"total stride {stride}" in str(error)
            assert shape[0] % stride or shape[1] % stride
            return
        with route("sorted"):
            reference = trace_model(spec, coords, grid_shape=shape)
        assert_traces_identical(reference, trace)
        assert_layers_match_reference(trace)
        for name in SIMULATOR_NAMES:
            build_simulator(name).run(trace)

    @pytest.mark.parametrize("model, shape", [
        ("SPN", (40, 48)), ("SPP1", (36, 36)), ("SCP1", (33, 40)),
        ("PP", (36, 36)), ("PN-Dense", (40, 48)),
    ])
    def test_branches_are_checked_before_any_merge(self, model, shape,
                                                   monkeypatch):
        merged = []
        monkeypatch.setattr(sparsity, "_union_states", merged.append)
        with pytest.raises(ValueError, match="deconv branches end on"):
            trace_model(build_model_spec(model),
                        random_frame(shape[0] * shape[1] // 5, shape),
                        grid_shape=shape)
        assert merged == []
