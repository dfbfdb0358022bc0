"""GSU tile planner against the scalar greedy it replaced.

:func:`reference_plan` is the original planner: every halving candidate
of a tile priced by :func:`repro.core.gsu._output_window` (two scalar
``searchsorted`` calls per kernel offset).  :func:`plan_tiles` must
return the same tiles on random frames of every :class:`ConvType`, on
degenerate frames and on capacities that force one-input tiles.  The
per-input output extents it plans from (one scatter and two folds per
offset) equal :func:`extents_by_ufunc_at`, their ``ufunc.at``
definition, value for value and dtype for dtype: on random frames of
every :class:`ConvType` with and without pair-less inputs, on
degenerate frames, on every Table I model's layers, and on pickled and
loaded rules, whose arrays keep the dtype object pickle restores.

The planner prices candidates by prefix-max / suffix-min bounds and
trusts them only under two certificates.  :class:`TestBoundCertificates`
builds rules from arbitrary per-input extents, so either certificate,
or both, fails, and checks the tiles against :func:`reference_plan` and
the number of tiles the planner leaves to its slow paths against
:func:`slow_paths`, an independent restatement of when they are needed.
"""

import copy
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import trace_model
from repro.core import SpadeAccelerator, TilePlan, plan_tiles
from repro.core import gsu
from repro.core.config import SPADE_HE, SPADE_LE
from repro.core.gsu import (
    _NO_OUTPUT,
    _output_extents,
    _output_window,
    _plan_tiles,
)
from repro.engine import FrameProvider, Scenario, TraceCache
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


def check_extents(rules, label=""):
    """:func:`_output_extents` equals the definition, as int32."""
    for have, expect in zip(_output_extents(rules),
                            extents_by_ufunc_at(rules)):
        assert have.dtype == expect.dtype == np.int32, label
        np.testing.assert_array_equal(have, expect, err_msg=label)


def pickled_and_loaded(rules):
    """``rules`` through pickle; asserts its pair arrays came back with
    an int32 dtype that is not the canonical object."""
    loaded = pickle.loads(pickle.dumps(rules))
    for pair in loaded.pairs:
        if len(pair):
            assert pair.out_idx.dtype == np.int32
            assert pair.out_idx.dtype is not np.dtype(np.int32)
    return loaded


class TestOutputExtents:
    @given(frames(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_frames(self, case, loaded):
        rules = case[0]
        check_extents(pickled_and_loaded(rules) if loaded else rules)

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("conv_type,stride", VARIANTS)
    @pytest.mark.parametrize("flat", [[], [17], list(range(42))],
                             ids=["empty", "single", "full"])
    def test_degenerate_frames(self, conv_type, stride, flat, loaded):
        coords = unflatten(np.asarray(flat, np.int64), (6, 7))
        rules = build_rules(coords, (6, 7), conv_type, stride=stride)
        for each in (rules, without_pairs(rules, np.arange(0, 42, 2))):
            check_extents(pickled_and_loaded(each) if loaded else each)

    @pytest.mark.parametrize("model", sorted(TABLE1_PAPER))
    @pytest.mark.parametrize("frame", sorted(extent_frames()))
    def test_equal_ufunc_at_definition(self, model, frame):
        coords = extent_frames()[frame]
        trace = trace_model(build_model_spec(model), coords,
                            grid_shape=EXTENT_GRID)
        for layer in trace.layers:
            if layer.rules is None:
                continue
            check_extents(layer.rules, layer.spec.name)

    def test_full_and_partial_offsets_mixed(self):
        coords = extent_frames()["random-and-ring"]
        full = build_rules(coords, EXTENT_GRID, ConvType.DECONV, stride=2)
        rules = without_pairs(full, np.arange(0, full.num_inputs, 3))
        rules.pairs[0] = full.pairs[0]
        assert [len(pair) == rules.num_inputs
                for pair in rules.pairs] == [True, False, False, False]
        check_extents(rules)
        check_extents(pickled_and_loaded(rules))


def rules_from_extents(extents):
    """Rules whose inputs have the given output extents.

    ``extents`` holds one ``(first, last)`` pair per input, or ``None``
    for an input without pairs.  Each input feeds its two extremes; the
    pairs are dealt, in input order, to the first offset whose list they
    keep ascending in ``in_idx`` and non-decreasing in ``out_idx`` (the
    property :func:`reference_plan` relies on), so any extents can be
    built, however far from monotone.
    """
    chains = []
    for index, extent in enumerate(extents):
        for output in sorted(set(extent or ())):
            for chain in chains:
                if chain[-1][0] < index and chain[-1][1] <= output:
                    chain.append((index, output))
                    break
            else:
                chains.append([(index, output)])
    pairs = [RulePairs(np.array([i for i, _ in chain], np.int32),
                       np.array([o for _, o in chain], np.int32))
             for chain in chains or [[]]]
    num_inputs = len(extents)
    num_outputs = 1 + max((max(e) for e in extents if e), default=0)
    return Rules(ConvType.SPCONV, 3, 1, (1, num_inputs), (1, num_outputs),
                 unflatten(np.arange(num_inputs), (1, num_inputs)),
                 unflatten(np.arange(num_outputs), (1, num_outputs)), pairs)


def extent_lists(extents):
    """``(first, last)`` as lists, with the planner's values for an
    input without pairs."""
    return ([extent[0] if extent else _NO_OUTPUT for extent in extents],
            [extent[1] if extent else -1 for extent in extents])


def slow_paths(extents, max_inputs, max_outputs):
    """Per tile of the reference plan: how the planner must price it.

    The bounds of inputs ``[s, e)`` are ``max(last[:e])`` and
    ``min(first[s:])``.  They are exact when no input before ``s``
    reaches the first (the prefix certificate) and no input from ``e``
    on reaches the second (the suffix certificate).  A tile is halved on
    the bounds until they fit; the rejection is trusted when both
    certificates hold at the smallest rejected candidate, else the tile
    falls back ("prefix", "suffix" or "both" name the failures).  A
    trusted tile's window needs an exact pass ("window") unless both
    certificates hold at the tile itself ("fast").
    """
    firsts, lasts = extent_lists(extents)
    num_inputs = len(extents)

    def prefix_ok(start, end):
        return start == 0 or max(lasts[:start]) < max(lasts[:end])

    def suffix_ok(start, end):
        return end == num_inputs or min(firsts[end:]) > min(firsts[start:])

    kinds = []
    for tile in reference_plan(rules_from_extents(extents), max_inputs,
                               max_outputs):
        start = tile.in_start
        size = min(max_inputs, num_inputs - start)
        rejected = None
        while (max(lasts[:start + size]) - min(firsts[start:])
               >= max_outputs and size > 1):
            rejected = start + size
            size //= 2
        failed = ([] if rejected is None else
                  [name for name, ok in (("prefix", prefix_ok),
                                         ("suffix", suffix_ok))
                   if not ok(start, rejected)])
        if failed:
            kinds.append("both" if len(failed) == 2 else failed[0])
        elif prefix_ok(start, start + size) and suffix_ok(start,
                                                           start + size):
            kinds.append("fast")
        else:
            kinds.append("window")
    return kinds


def count_slow_paths(monkeypatch):
    """Counts of the planner's two slow paths, by name."""
    calls = {"fallback": 0, "window": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(gsu, "_running_window",
                        counted("fallback", gsu._running_window))
    monkeypatch.setattr(gsu, "_exact_window",
                        counted("window", gsu._exact_window))
    return calls


@pytest.fixture
def slow_path_calls(monkeypatch):
    return count_slow_paths(monkeypatch)


def check_slow_paths(calls, extents, max_inputs, max_outputs):
    """Plan ``extents`` afresh: the reference tiles, and the slow paths
    taken exactly where :func:`slow_paths` needs them."""
    rules = rules_from_extents(extents)
    assert [array.tolist() for array in _output_extents(rules)] == list(
        extent_lists(extents))
    check_plan(rules, max_inputs, max_outputs)
    kinds = slow_paths(extents, max_inputs, max_outputs)
    assert calls == {
        "fallback": sum(kind in ("prefix", "suffix", "both")
                        for kind in kinds),
        "window": kinds.count("window"),
    }, kinds
    return kinds


#: Hand-built extents and capacities, and how each tile is priced.
CERTIFICATE_CASES = {
    # An earlier input's output reaches past the tile's own.
    "prefix-fails": ([(0, 30), (1, 2), (2, 3), (3, 4), (4, 5)], 2, 5,
                     ["fast", "prefix", "prefix"]),
    # A later input's output reaches below the tile's own.
    "suffix-fails": ([(10, 11), (11, 12), (0, 13)], 2, 3,
                     ["suffix", "fast"]),
    "both-fail": ([(0, 30), (5, 6), (6, 7), (0, 8)], 2, 5,
                  ["suffix", "both", "window"]),
    # Certified at the smallest rejected candidate (5 inputs) but not at
    # the accepted one (2 inputs): no fallback, one exact window.
    "certified-rejection-inexact-tile": (
        [(3, 4), (3, 5), (0, 9), (9, 10), (10, 11)], 4, 6,
        ["window", "fast", "fast"]),
    # The second tile's rejected candidate has its largest output at its
    # first input and its smallest at its last: still certified.
    "extremes-at-the-edges": (
        [(0, 1), (5, 20), (2, 6), (7, 8), (8, 9)], 2, 10,
        ["fast", "window", "prefix", "window"]),
    "no-pairs-start-middle-end": (
        [None, None, (2, 3), None, (0, 9), None, (5, 6), None, None],
        3, 4, ["window", "window", "fast", "prefix", "window"]),
    "one-input-tiles": ([(i, i + 3) for i in range(7)], 5, 1,
                        ["fast"] * 7),
}


class TestBoundCertificates:
    @pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
    def test_hand_built_cases(self, slow_path_calls, name):
        extents, max_inputs, max_outputs, kinds = CERTIFICATE_CASES[name]
        assert check_slow_paths(slow_path_calls, extents, max_inputs,
                                max_outputs) == kinds

    def test_cases_cover_every_failure(self):
        kinds = set(itertools.chain.from_iterable(
            slow_paths(*case[:3]) for case in CERTIFICATE_CASES.values()))
        assert kinds == {"fast", "window", "prefix", "suffix", "both"}

    @given(
        st.lists(st.one_of(st.none(), st.tuples(
            st.integers(0, 40), st.integers(0, 40)).map(sorted)),
            min_size=1, max_size=24),
        st.integers(1, 30),
        st.one_of(st.integers(1, 3), st.integers(1, 45)),
    )
    @example([None, (0, 30), (1, 2), None, (0, 3), (8, 9), None], 3, 4)
    @example([None] * 5, 3, 1)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_extents(self, extents, max_inputs, max_outputs):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_slow_paths(count_slow_paths(monkeypatch), extents,
                             max_inputs, max_outputs)

    def test_table1_frames_take_the_fast_path(self, slow_path_calls):
        """Seed-0 frames of every Table I model, HE and LE, with and
        without the dataflow optimisations: the bounds alone plan all
        but a handful of tiles."""
        provider = FrameProvider()
        tiles = 0
        for model in sorted(TABLE1_PAPER):
            frame = provider.frame_for(Scenario(seed=0), model)
            trace = trace_model(build_model_spec(model), frame.coords,
                                grid_shape=frame.grid.shape)
            for config, optimize in itertools.product(
                    (SPADE_HE, SPADE_LE), (True, False)):
                SpadeAccelerator(config, optimize).run_trace(trace)
            # Tiles of every distinct plan: memoized ones plan once.
            rules = {id(layer.rules): layer.rules for layer in trace.layers
                     if layer.rules is not None}
            tiles += sum(schedule.num_tiles for each in rules.values()
                         for key, schedule in each._plans.items()
                         if key != "bounds")
        assert tiles > 4000
        assert slow_path_calls["fallback"] == 0, slow_path_calls
        assert slow_path_calls["window"] <= tiles // 500, slow_path_calls
