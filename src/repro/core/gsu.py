"""Gather-Scatter Unit: active tile management (paper Sec. III-C).

The ATM exploits the monotonicity of CPR rule indices: as the input index
range of a tile advances, every per-offset output index range advances
too, so the outputs touched by a contiguous input tile form one
contiguous window.  Loading that window into BUFout guarantees *full
reuse* — each input and each output travels on/off chip exactly once —
which is why GSU traffic matches the ideal all-reuse DRAM latency in
Fig. 6(c).

Outputs whose accumulation spans two consecutive input tiles are the
``Copy_psum`` overlap the dataflow has to pay for (Fig. 7(b)).

The planner never searches the rule lists per candidate tile.  It first
reduces each layer to two per-input *output extents*: ``first[i]`` and
``last[i]``, the smallest and largest output index over every pair of
input ``i``.  The window of inputs ``[s, e)`` is then
``(min(first[s:e]), max(last[s:e]) + 1)``.  This is exact because every
per-offset ``in_idx`` list is unique and ascending and its ``out_idx``
non-decreasing (:mod:`repro.sparse.rulegen` guarantees it): the pairs of
a contiguous input range are then a contiguous slice of each offset's
list whose first and last outputs are its extremes — what the scalar
search reads, and what the extents summarize.

The extents take one element-wise fold per offset.  An offset that
every input feeds has ``in_idx = arange``, so its ``out_idx`` already
holds one output per input.  Any other offset is first scattered into
one reused per-input buffer (``spread``), one write per pair; this is
exact because ``in_idx`` is unique within an offset.  An input the
offset misses keeps the row an earlier offset left there, which is
already folded in, or -1 before any.  ``last`` folds with a signed
maximum, where -1 is the smallest value, and ``first`` with a minimum
over ``uint32`` views, where -1 is the largest, so neither needs a
second pass for the inputs an offset misses.

The extents are folded once more, into a running maximum of ``last``
(``PM[i] = max(last[:i + 1])``) and a suffix minimum of ``first``
(``SM[i] = min(first[i:])``; ``prefix_max`` and ``suffix_min`` in the
code).  ``PM[e - 1] - SM[s]`` bounds the span of ``[s, e)`` from above,
so each halving candidate of the greedy (``L, L // 2, ...``) is priced
by two scalar reads and no array pass; a candidate that fits on the
bound fits.  The bound is exact when two certificates hold:
``s == 0 or PM[s - 1] < PM[e - 1]`` (no input before the tile reaches
its largest output) and ``e == n or SM[e] > SM[s]`` (no input after it
reaches its smallest).  A rejection is trusted only when both hold at
the smallest rejected candidate; as ``PM`` and ``SM`` are monotone, they
then hold at every larger candidate too.  An accepted tile's window is
``(SM[s], PM[e - 1] + 1)`` when both hold at the tile, else an exact
min/max over its extents.  A tile whose rejection is not certified falls
back to a running min/max over the extents of ``[s, s + max_inputs)``,
which prices every candidate exactly.  Either slow path recomputes the
extents, once per plan; on real frames they are rare (a few exact
windows in thousands of tiles, no fallbacks).  Unlike a ``searchsorted``
over per-tile spans, nothing here builds an array per tile.  Per-tile
pair counts come last, from one ``searchsorted`` per offset over all
tile edges.  :func:`_output_window` keeps the scalar per-offset search
as the definition the planner is tested against.

Planning is memoized on the :class:`~repro.sparse.rulegen.Rules` it
reads, in the private ``Rules._plans`` dict: ``PM`` and ``SM`` (not the
extents they are folded from) once per ``Rules``, and the schedule once
per ``(max_inputs, max_outputs)``.  A layer's tiles depend on nothing
else and its rules never change after RuleGen, so every design point,
simulator and ``optimize`` setting that schedules the same traced layer
with the same buffer capacities shares one :class:`TileSchedule`.
Layers of one trace that see the same input with the same geometry share
one ``Rules`` object (see :func:`~repro.analysis.sparsity.trace_model`),
so such layers are planned once between them, too.  The memo lives
exactly as long as its ``Rules`` (the trace cache's memory tier decides
that) and has no eviction.  It never reaches a pickle: ``Rules`` drops
it on ``__getstate__``, so a planned and an unplanned ``Rules`` pickle
to the same bytes, and a loaded or copied ``Rules`` plans afresh.
Because callers share them, memoized schedules are read-only: writing to
any of their arrays raises.  Two threads planning one ``Rules`` at once
may both compute a value; both results are equal, so no lock is needed.

Rule pairs arrive as int32 (see
:class:`~repro.sparse.rulegen.RulePairs`), and the planner keeps them
so.  The extents, ``PM`` and ``SM`` are int32 too, and tile edges are
searched as int32 needles: ``searchsorted`` with needles of another
dtype first copies the whole list to the common one.  Nothing here
needs more than the dtype's value: an array loaded from the disk tier
carries a dtype equal to ``np.dtype(np.int32)`` but not that object,
and the scatter and folds run as fast on it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..sparse.rulegen import Rules
from .config import SpadeConfig

#: ``first`` extent of an input without pairs: larger than any output.
_NO_OUTPUT = np.iinfo(np.int32).max
#: Stand-ins for the prefix max before input 0 and the suffix min past
#: the last input: below and above every bound, empty inputs' included.
_BEFORE_START = -2
_PAST_END = _NO_OUTPUT + 1


@dataclass
class TilePlan:
    """One active input tile and its output window.

    Attributes:
        in_start / in_end: Input index range [start, end).
        out_start / out_end: Output window the tile's partial sums touch.
        pairs_per_offset: Rule entries of this tile per kernel offset.
        overlap_with_prev: Outputs shared with the previous tile's window
            (they require a partial-sum copy).
    """

    in_start: int
    in_end: int
    out_start: int
    out_end: int
    pairs_per_offset: list
    overlap_with_prev: int = 0

    @property
    def num_inputs(self) -> int:
        return self.in_end - self.in_start

    @property
    def num_outputs(self) -> int:
        return self.out_end - self.out_start

    @property
    def total_pairs(self) -> int:
        return int(sum(self.pairs_per_offset))


@dataclass(eq=False)
class TileSchedule:
    """All tiles of one layer as per-tile vectors.

    Attributes:
        in_start / in_end: (T,) input ranges [start, end).
        out_start / out_end: (T,) output windows; (0, 0) for a tile
            whose inputs have no pairs.
        pairs_per_offset: (K, T) rule entries of each tile per offset.
        overlap: (T,) outputs shared with the previous non-empty window.
        tile_pairs: (T,) rule entries of each tile over all offsets
            (the column sums of ``pairs_per_offset``).
        active_offsets: (T,) kernel offsets with at least one rule entry
            in each tile (the nonzero count of each column).

    The last two are derived on construction.  Every array is read-only:
    :func:`plan_tiles` hands one schedule to every caller that plans the
    same :class:`Rules` with the same capacities.
    """

    in_start: np.ndarray
    in_end: np.ndarray
    out_start: np.ndarray
    out_end: np.ndarray
    pairs_per_offset: np.ndarray
    overlap: np.ndarray
    tile_pairs: np.ndarray = field(init=False)
    active_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.tile_pairs = self.pairs_per_offset.sum(axis=0)
        self.active_offsets = np.count_nonzero(self.pairs_per_offset, axis=0)
        for value in vars(self).values():
            value.setflags(write=False)

    @property
    def num_tiles(self) -> int:
        return len(self.in_start)

    @property
    def total_copy_psum(self) -> int:
        return int(self.overlap.sum())

    @property
    def tiles(self) -> "_Tiles":
        """The tiles as :class:`TilePlan` objects, built on access."""
        return _Tiles(self)


class _Tiles(Sequence):
    """Read-only :class:`TilePlan` view of a :class:`TileSchedule`."""

    def __init__(self, schedule: TileSchedule):
        self._schedule = schedule

    def __len__(self) -> int:
        return self._schedule.num_tiles

    def __getitem__(self, index: int) -> TilePlan:
        s = self._schedule
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        return TilePlan(
            in_start=int(s.in_start[index]),
            in_end=int(s.in_end[index]),
            out_start=int(s.out_start[index]),
            out_end=int(s.out_end[index]),
            pairs_per_offset=s.pairs_per_offset[:, index].tolist(),
            overlap_with_prev=int(s.overlap[index]),
        )


def _output_window(rules: Rules, in_start: int, in_end: int) -> tuple:
    """Output index window touched by inputs [in_start, in_end).

    The scalar definition: two ``searchsorted`` calls per offset.  Relies
    on per-offset in_idx/out_idx being ascending (CPR property).
    """
    lo, hi = None, None
    counts = []
    for pair in rules.pairs:
        left = np.searchsorted(pair.in_idx, in_start, side="left")
        right = np.searchsorted(pair.in_idx, in_end, side="left")
        counts.append(int(right - left))
        if right > left:
            first, last = int(pair.out_idx[left]), int(pair.out_idx[right - 1])
            lo = first if lo is None else min(lo, first)
            hi = last if hi is None else max(hi, last)
    if lo is None:
        return 0, 0, counts
    return lo, hi + 1, counts


def _output_extents(rules: Rules) -> tuple:
    """(first, last): per input, its smallest and largest output index.

    Inputs without pairs get ``first = _NO_OUTPUT`` and ``last = -1``, so
    they never widen a window.  One element-wise fold per offset (see
    the module docstring).
    """
    num_inputs = rules.num_inputs
    first = np.full(num_inputs, _NO_OUTPUT, dtype=np.int32)
    last = np.full(num_inputs, -1, dtype=np.int32)
    # -1 is the largest uint32, so a missed input never lowers first;
    # _NO_OUTPUT is below it, so inputs without pairs keep it.
    lowest = first.view(np.uint32)
    spread = None
    for pair in rules.pairs:
        if len(pair) == num_inputs:
            # Ascending, unique and covering every input: in_idx is
            # arange, so out_idx is already one row per input.
            row = pair.out_idx
        else:
            if spread is None:
                spread = np.full(num_inputs, -1, dtype=np.int32)
            spread[pair.in_idx.astype(np.intp)] = pair.out_idx
            row = spread
        np.maximum(last, row, out=last)
        np.minimum(lowest, row.view(np.uint32), out=lowest)
    return first, last


def plan_tiles(
    rules: Rules, max_inputs: int, max_outputs: int
) -> TileSchedule:
    """Greedy ATM tiling: largest input tile whose output window fits.

    Each tile starts at ``max_inputs`` inputs and halves until its output
    window fits BUFout (or it holds one input).  Candidates are priced
    by the prefix-max / suffix-min bound of the module docstring; a
    rejection on the bound is trusted only under both exactness
    certificates at the smallest rejected candidate, and a tile without
    them is replanned by a running min/max over its extents, so the
    tiles are exactly those of the scalar greedy.  Memoized on ``rules``
    per ``(max_inputs, max_outputs)``: a repeat call returns the same
    read-only schedule.

    Args:
        rules: Layer mapping (indices ascending per offset).
        max_inputs: BUFin capacity in pillars (T_a bound).
        max_outputs: BUFout capacity in pillars.

    Returns:
        A :class:`TileSchedule` covering all inputs.
    """
    key = (int(max_inputs), int(max_outputs))
    schedule = rules._plans.get(key)
    if schedule is None:
        schedule = rules._plans[key] = _plan_tiles(rules, *key)
    return schedule


def _window_bounds(rules: Rules) -> tuple:
    """(prefix_max, suffix_min): ``max(last[:i + 1])`` and
    ``min(first[i:])`` for every input ``i``.

    Both are accumulated in place over the extents' own arrays, so the
    memo holds no more than the extents would.
    """
    first, last = _output_extents(rules)
    np.maximum.accumulate(last, out=last)
    reversed_first = first[::-1]
    np.minimum.accumulate(reversed_first, out=reversed_first)
    return last, first


def _running_window(first, last, start: int, stop: int,
                    max_outputs: int) -> tuple:
    """One tile by a running min/max over ``[start, stop)``: the
    planner's fallback.  Returns ``(size, lowest, highest)``."""
    lows = np.minimum.accumulate(first[start:stop])
    highs = np.maximum.accumulate(last[start:stop])
    # Window width minus one of every prefix; negative when empty
    # (-1 - _NO_OUTPUT is still an int32).
    spans = highs - lows
    size = stop - start
    while spans[size - 1] >= max_outputs and size > 1:
        size //= 2
    return size, int(lows[size - 1]), int(highs[size - 1])


def _exact_window(first, last, start: int, end: int) -> tuple:
    """``(lowest, highest)`` output of inputs ``[start, end)``."""
    return int(first[start:end].min()), int(last[start:end].max())


def _plan_tiles(
    rules: Rules, max_inputs: int, max_outputs: int
) -> TileSchedule:
    """The greedy behind :func:`plan_tiles`: always plans afresh, from
    the memoized bounds."""
    num_inputs = rules.num_inputs
    starts, out_starts, out_ends, overlaps = [], [], [], []
    bounds = rules._plans.get("bounds")
    if bounds is None:
        bounds = rules._plans["bounds"] = _window_bounds(rules)
    prefix_max, suffix_min = bounds[0].item, bounds[1].item
    extents = None
    in_start = 0
    prev_start = prev_end = None
    # The bounds of the tile [in_start, in_end) are (low, high); before
    # is prefix_max[in_start - 1] and after is suffix_min[in_end], so
    # the certificates read "before < high" and "after > low".
    before = _BEFORE_START
    low = suffix_min(0) if num_inputs else 0
    while in_start < num_inputs:
        size = min(max_inputs, num_inputs - in_start)
        high = prefix_max(in_start + size - 1)
        rejected = 0
        while high - low >= max_outputs and size > 1:
            rejected, rejected_high = in_start + size, high
            size //= 2
            high = prefix_max(in_start + size - 1)
        in_end = in_start + size
        after = suffix_min(in_end) if in_end < num_inputs else _PAST_END
        # A rejection is trusted when the certificates hold at the
        # smallest rejected candidate: both bounds are monotone, so they
        # then hold at every larger one too.
        if rejected and not (before < rejected_high and (
                rejected == num_inputs or suffix_min(rejected) > low)):
            if extents is None:
                extents = _output_extents(rules)
            size, low, high = _running_window(
                *extents, in_start, min(in_start + max_inputs, num_inputs),
                max_outputs)
            in_end = in_start + size
            after = suffix_min(in_end) if in_end < num_inputs else _PAST_END
        elif not (before < high and after > low):
            if extents is None:
                extents = _output_extents(rules)
            low, high = _exact_window(*extents, in_start, in_end)
        before = prefix_max(in_end - 1)
        out_end = high + 1
        out_start = low if out_end else 0
        overlap = 0
        if out_end:
            if prev_end is not None:
                overlap = max(0, min(prev_end, out_end)
                              - max(prev_start, out_start))
            prev_start, prev_end = out_start, out_end
        starts.append(in_start)
        out_starts.append(out_start)
        out_ends.append(out_end)
        overlaps.append(overlap)
        in_start, low = in_end, after
    edges = np.array(starts + [num_inputs], dtype=np.int64)
    # Needles in the pairs' dtype: int64 needles would make searchsorted
    # copy every int32 list up to int64 first.
    needles = edges.astype(np.int32)
    bounds = np.array([pair.in_idx.searchsorted(needles)
                       for pair in rules.pairs], dtype=np.int64)
    bounds = bounds.reshape(len(rules.pairs), len(edges))
    return TileSchedule(
        in_start=edges[:-1],
        in_end=edges[1:],
        out_start=np.array(out_starts, dtype=np.int64),
        out_end=np.array(out_ends, dtype=np.int64),
        pairs_per_offset=bounds[:, 1:] - bounds[:, :-1],
        overlap=np.array(overlaps, dtype=np.int64),
    )


@dataclass
class GSUTraffic:
    """DRAM traffic of one layer under GSU management (full reuse)."""

    gather_bytes: int
    scatter_bytes: int
    weight_bytes: int


def layer_traffic(
    rules: Rules,
    in_channels: int,
    out_channels: int,
    config: SpadeConfig,
    weight_refetches: int = 1,
) -> GSUTraffic:
    """Off-chip bytes moved for one sparse layer (each datum once)."""
    kernel_elems = len(rules.pairs)
    return GSUTraffic(
        gather_bytes=rules.num_inputs * in_channels * config.act_bytes,
        scatter_bytes=rules.num_outputs * out_channels * config.act_bytes,
        weight_bytes=(
            kernel_elems * in_channels * out_channels * config.wgt_bytes
            * weight_refetches
        ),
    )
