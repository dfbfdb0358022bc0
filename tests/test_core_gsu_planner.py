"""GSU tile planner against the scalar greedy it replaced.

:func:`reference_plan` is the original planner: every halving candidate
of a tile priced by :func:`repro.core.gsu._output_window` (two scalar
``searchsorted`` calls per kernel offset).  :func:`plan_tiles` must
return the same tiles on random frames of every :class:`ConvType`, on
degenerate frames and on capacities that force one-input tiles.  The
per-input output extents it plans from equal their ``ufunc.at``
definition on every Table I model's layers.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import trace_model
from repro.core import TilePlan, plan_tiles
from repro.core.gsu import (
    _NO_OUTPUT,
    _output_extents,
    _output_window,
    _plan_tiles,
)
from repro.engine import TraceCache
from repro.models import TABLE1_PAPER, build_model_spec
from repro.sparse import ConvType, Rules, RulePairs, build_rules, unflatten

#: (conv type, stride) of every sparse convolution variant.
VARIANTS = [
    (ConvType.SPCONV, 1),
    (ConvType.SUBM, 1),
    (ConvType.SPCONV_P, 1),
    (ConvType.STRIDED, 2),
    (ConvType.STRIDED_SUBM, 2),
    (ConvType.DECONV, 2),
]


def reference_plan(rules, max_inputs, max_outputs):
    """The scalar greedy: halve each tile until its window fits."""
    tiles = []
    in_start = 0
    prev = None
    while in_start < rules.num_inputs:
        in_end = min(in_start + max_inputs, rules.num_inputs)
        out_start, out_end, counts = _output_window(rules, in_start, in_end)
        while out_end - out_start > max_outputs and in_end - in_start > 1:
            in_end = in_start + max(1, (in_end - in_start) // 2)
            out_start, out_end, counts = _output_window(rules, in_start,
                                                        in_end)
        overlap = 0
        if out_end > out_start:
            if prev is not None:
                overlap = max(0, min(prev[1], out_end)
                              - max(prev[0], out_start))
            prev = (out_start, out_end)
        tiles.append(TilePlan(in_start, in_end, out_start, out_end, counts,
                              overlap))
        in_start = in_end
    return tiles


def without_pairs(rules, dropped):
    """``rules`` with every pair of the ``dropped`` inputs removed."""
    pairs = []
    for pair in rules.pairs:
        keep = ~np.isin(pair.in_idx, dropped)
        pairs.append(RulePairs(pair.in_idx[keep], pair.out_idx[keep]))
    return Rules(rules.conv_type, rules.kernel_size, rules.stride,
                 rules.in_shape, rules.out_shape, rules.in_coords,
                 rules.out_coords, pairs)


def check_plan(rules, max_inputs, max_outputs):
    """Assert the planner matches the reference and its invariants."""
    schedule = plan_tiles(rules, max_inputs, max_outputs)
    tiles = list(schedule.tiles)
    assert tiles == reference_plan(rules, max_inputs, max_outputs)
    assert len(schedule.tiles) == schedule.num_tiles == len(tiles)
    # Tiles partition [0, n).
    edges = [0] + [tile.in_end for tile in tiles]
    assert [tile.in_start for tile in tiles] == edges[:-1]
    assert edges[-1] == rules.num_inputs
    for tile in tiles:
        assert 1 <= tile.num_inputs <= max_inputs
        # A window may exceed BUFout only when it holds one input.
        assert tile.num_outputs <= max_outputs or tile.num_inputs == 1
    # Per-offset counts sum to each offset's pairs, and every pair's
    # output lies in its tile's window.
    for index, pair in enumerate(rules.pairs):
        assert sum(tile.pairs_per_offset[index] for tile in tiles) == len(pair)
    for tile in tiles:
        for pair in rules.pairs:
            inside = (pair.in_idx >= tile.in_start) & (
                pair.in_idx < tile.in_end)
            outs = pair.out_idx[inside]
            assert ((outs >= tile.out_start) & (outs < tile.out_end)).all()
    assert schedule.total_copy_psum == sum(
        tile.overlap_with_prev for tile in tiles)
    return schedule


@st.composite
def frames(draw):
    """(rules, max_inputs, max_outputs) on a random small frame."""
    conv_type, stride = draw(st.sampled_from(VARIANTS))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 14)))
    total = shape[0] * shape[1]
    flat = draw(st.lists(st.integers(0, total - 1), max_size=total,
                         unique=True))
    coords = unflatten(np.sort(np.asarray(flat, np.int64)), shape)
    rules = build_rules(coords, shape, conv_type, stride=stride)
    if draw(st.booleans()) and rules.num_inputs:
        dropped = draw(st.lists(st.integers(0, rules.num_inputs - 1),
                                unique=True))
        rules = without_pairs(rules, np.asarray(dropped, np.int64))
    max_inputs = draw(st.integers(1, 40))
    # Small BUFout capacities force halving down to one-input tiles.
    max_outputs = draw(st.one_of(st.integers(1, 4), st.integers(1, 80)))
    return rules, max_inputs, max_outputs


class TestPlannerMatchesReference:
    @given(frames())
    @settings(max_examples=300, deadline=None)
    def test_random_frames(self, case):
        check_plan(*case)

    @pytest.mark.parametrize("conv_type,stride", VARIANTS)
    @pytest.mark.parametrize("shape,flat", [
        ((6, 7), []),                        # empty
        ((6, 7), [17]),                      # one pillar
        ((1, 23), list(range(0, 23, 2))),    # 1xN strip
        ((6, 7), list(range(42))),           # fully occupied grid
    ], ids=["empty", "single", "strip", "full"])
    @pytest.mark.parametrize("caps", [(1, 1), (4, 2), (8, 64), (64, 1000)])
    def test_degenerate_frames(self, conv_type, stride, shape, flat, caps):
        coords = unflatten(np.asarray(flat, np.int64), shape)
        rules = build_rules(coords, shape, conv_type, stride=stride)
        check_plan(rules, *caps)

    @pytest.mark.parametrize("conv_type,stride", VARIANTS)
    def test_inputs_without_pairs(self, conv_type, stride):
        shape = (8, 9)
        coords = unflatten(np.arange(0, 72, 3, dtype=np.int64), shape)
        rules = build_rules(coords, shape, conv_type, stride=stride)
        for dropped in (np.arange(0, rules.num_inputs, 2),
                        np.arange(rules.num_inputs)):
            stripped = without_pairs(rules, dropped)
            for caps in ((1, 1), (3, 5), (16, 16)):
                check_plan(stripped, *caps)
        # With no pairs at all every window is empty and fits.
        schedule = check_plan(without_pairs(rules, np.arange(
            rules.num_inputs)), 5, 1)
        assert all(tile.num_outputs == 0 for tile in schedule.tiles)
        assert schedule.total_copy_psum == 0

    def test_one_input_tiles(self):
        coords = unflatten(np.arange(0, 120, 2, dtype=np.int64), (10, 12))
        rules = build_rules(coords, (10, 12), ConvType.SPCONV)
        schedule = check_plan(rules, 32, 1)
        assert {tile.num_inputs for tile in schedule.tiles} == {1}


class TestPlanningLeavesTracesAlone:
    """Planning must not change what the trace cache pickles."""

    def test_pickled_rules_unchanged_by_planning(self):
        coords = unflatten(np.arange(0, 200, 3, dtype=np.int64), (12, 20))
        rules = build_rules(coords, (12, 20), ConvType.SPCONV)
        before = pickle.dumps(rules, protocol=pickle.HIGHEST_PROTOCOL)
        plan_tiles(rules, 8, 24)
        plan_tiles(rules, 16, 40)
        assert pickle.dumps(rules, protocol=pickle.HIGHEST_PROTOCOL) == before

    def test_disk_tier_round_trip_plans_same_tiles(self, tmp_path,
                                                   kitti_batch):
        spec = build_model_spec("SPP2")
        coords = kitti_batch.coords
        memory = trace_model(spec, coords)
        caps = [(512, 1024), (128, 256)]
        planned = [[list(plan_tiles(layer.rules, *cap).tiles)
                    for cap in caps]
                   for layer in memory.layers if layer.rules is not None]
        before = pickle.dumps(memory, protocol=pickle.HIGHEST_PROTOCOL)

        writer = TraceCache(disk_dir=tmp_path)
        stored = writer.get_trace(spec, coords)
        for layer in stored.layers:
            if layer.rules is not None:
                plan_tiles(layer.rules, *caps[0])
        reader = TraceCache(disk_dir=tmp_path)
        loaded = reader.get_trace(spec, coords)
        assert (writer.disk_writes, reader.disk_hits) == (1, 1)
        assert pickle.dumps(memory, protocol=pickle.HIGHEST_PROTOCOL) == before
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == before
        assert [[list(plan_tiles(layer.rules, *cap).tiles) for cap in caps]
                for layer in loaded.layers
                if layer.rules is not None] == planned


def fresh_copy(rules):
    """An unplanned :class:`Rules` with ``rules``' fields."""
    return Rules(rules.conv_type, rules.kernel_size, rules.stride,
                 rules.in_shape, rules.out_shape, rules.in_coords,
                 rules.out_coords, rules.pairs)


def same_schedule(a, b):
    return a.num_tiles == b.num_tiles and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("in_start", "in_end", "out_start", "out_end",
                     "pairs_per_offset", "overlap", "tile_pairs",
                     "active_offsets"))


class TestPlanMemo:
    """Planning is memoized per (Rules, max_inputs, max_outputs)."""

    @pytest.fixture
    def rules(self):
        coords = unflatten(np.arange(0, 200, 3, dtype=np.int64), (12, 20))
        return build_rules(coords, (12, 20), ConvType.SPCONV)

    def test_same_caps_same_object(self, rules):
        schedule = plan_tiles(rules, 8, 24)
        assert plan_tiles(rules, 8, 24) is schedule
        assert plan_tiles(rules, np.int64(8), 24) is schedule
        assert plan_tiles(rules, 16, 24) is not schedule
        assert plan_tiles(rules, 8, 12) is not schedule

    def test_shared_arrays_are_read_only(self, rules):
        schedule = plan_tiles(rules, 8, 24)
        for name in ("in_start", "in_end", "out_start", "out_end",
                     "pairs_per_offset", "overlap", "tile_pairs",
                     "active_offsets"):
            array = getattr(schedule, name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            schedule.pairs_per_offset[0, 0] += 1

    def test_derived_vectors(self, rules):
        schedule = plan_tiles(rules, 8, 24)
        assert schedule.tile_pairs.tolist() == [
            tile.total_pairs for tile in schedule.tiles]
        assert schedule.active_offsets.tolist() == [
            sum(1 for count in tile.pairs_per_offset if count)
            for tile in schedule.tiles]
        assert schedule.tile_pairs.sum() == rules.total_pairs

    @pytest.mark.parametrize("conv_type,stride", VARIANTS)
    def test_alternating_caps_match_fresh_plans(self, conv_type, stride):
        coords = unflatten(np.arange(0, 160, 3, dtype=np.int64), (10, 16))
        rules = build_rules(coords, (10, 16), conv_type, stride=stride)
        for caps in ((8, 24), (3, 5), (8, 24), (8, 5), (3, 24), (3, 5)):
            memoized = plan_tiles(rules, *caps)
            assert same_schedule(memoized,
                                 _plan_tiles(fresh_copy(rules), *caps))
            assert list(memoized.tiles) == reference_plan(rules, *caps)

    @pytest.mark.parametrize("clone", [
        lambda rules: pickle.loads(pickle.dumps(rules)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_drop_the_memo(self, rules, clone):
        planned = plan_tiles(rules, 8, 24)
        assert rules._plans
        cloned = clone(rules)
        assert cloned._plans == {}
        replanned = plan_tiles(cloned, 8, 24)
        assert replanned is not planned
        assert same_schedule(replanned, planned)

    def test_unpickles_a_trace_stored_without_the_slot(self, rules):
        state = {key: value for key, value in vars(rules).items()
                 if key != "_plans"}
        loaded = Rules.__new__(Rules)
        loaded.__setstate__(state)
        assert loaded._plans == {}
        assert same_schedule(plan_tiles(loaded, 8, 24),
                             plan_tiles(rules, 8, 24))

    def test_threads_planning_one_rules(self, rules):
        caps = [(8, 24), (3, 5), (16, 40), (8, 5)]
        expected = {cap: _plan_tiles(fresh_copy(rules), *cap) for cap in caps}
        results, barrier = [], threading.Barrier(8)

        def plan(offset):
            barrier.wait(timeout=10)
            for index in range(40):
                cap = caps[(offset + index) % len(caps)]
                results.append((cap, plan_tiles(rules, *cap)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 * 40
        for cap, schedule in results:
            assert same_schedule(schedule, expected[cap])
        for cap in caps:
            assert plan_tiles(rules, *cap) is rules._plans[cap]


EXTENT_GRID = (32, 32)


def extent_frames():
    """Degenerate frames and frames that touch the grid's border."""
    rows, cols = EXTENT_GRID
    every = np.arange(rows * cols).reshape(EXTENT_GRID)
    ring = np.unique(np.concatenate(
        [every[0], every[-1], every[:, 0], every[:, -1]]))
    rng = np.random.default_rng(3)
    scattered = rng.choice(rows * cols, 200, replace=False)
    flats = {
        "empty": np.zeros(0, np.int64),
        "corner-pillar": np.array([0]),
        "far-corner-pillar": np.array([rows * cols - 1]),
        "centre-pillar": np.array([(rows // 2) * cols + cols // 2]),
        "full-grid": every.reshape(-1),
        "row-strip": every[0],
        "last-row-strip": every[-1],
        "column-strip": every[:, 0],
        "last-column-strip": every[:, -1],
        "border-ring": ring,
        "random-and-ring": np.union1d(scattered, ring),
    }
    return {name: unflatten(np.sort(flat), EXTENT_GRID)
            for name, flat in flats.items()}


def extents_by_ufunc_at(rules):
    """The definition: per input, the min and max output it feeds."""
    first = np.full(rules.num_inputs, _NO_OUTPUT, dtype=np.int32)
    last = np.full(rules.num_inputs, -1, dtype=np.int32)
    for pair in rules.pairs:
        np.minimum.at(first, pair.in_idx, pair.out_idx)
        np.maximum.at(last, pair.in_idx, pair.out_idx)
    return first, last


class TestOutputExtents:
    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    @pytest.mark.parametrize("frame", sorted(extent_frames()))
    def test_equal_ufunc_at_definition(self, model, frame):
        coords = extent_frames()[frame]
        trace = trace_model(build_model_spec(model), coords,
                            grid_shape=EXTENT_GRID)
        for layer in trace.layers:
            if layer.rules is None:
                continue
            got = _output_extents(layer.rules)
            want = extents_by_ufunc_at(layer.rules)
            for have, expect in zip(got, want):
                assert have.dtype == expect.dtype == np.int32
                np.testing.assert_array_equal(have, expect,
                                              err_msg=layer.spec.name)

    def test_full_and_partial_offsets_mixed(self):
        coords = extent_frames()["random-and-ring"]
        full = build_rules(coords, EXTENT_GRID, ConvType.DECONV, stride=2)
        rules = without_pairs(full, np.arange(0, full.num_inputs, 3))
        rules.pairs[0] = full.pairs[0]
        assert [len(pair) == rules.num_inputs
                for pair in rules.pairs] == [True, False, False, False]
        for have, expect in zip(_output_extents(rules),
                                extents_by_ufunc_at(rules)):
            np.testing.assert_array_equal(have, expect)
