"""Rule Generation Unit: streaming mapping generation (paper Sec. III-B).

Two things live here:

* :func:`streaming_rulegen` — a faithful functional implementation of the
  RGU's three pipeline stages (alignment, row merge, column-wise
  dilation) operating on CPR-encoded coordinates.  It produces bit-exact
  the same rules as the vectorized reference
  (:func:`repro.sparse.rulegen.build_rules`), which the test suite
  asserts; its existence demonstrates the O(P) streaming algorithm the
  hardware implements.
* :class:`RGUModel` — the cycle/energy model: the pipelined RGU emits one
  rule entry per cycle after fill, so mapping time is linear in the rule
  count (the property behind the Fig. 5(b) comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.rulegen import ConvType, RulePairs, Rules
from .config import SpadeConfig


def _row_slices(coords: np.ndarray, num_rows: int) -> list:
    """Start/end index of each row's coordinate run (CPR property)."""
    boundaries = np.searchsorted(coords[:, 0], np.arange(num_rows + 1))
    return [(boundaries[r], boundaries[r + 1]) for r in range(num_rows)]


def streaming_rulegen(in_coords: np.ndarray, in_shape: tuple) -> Rules:
    """Generate SpConv (3x3, stride 1) rules with the RGU's streaming passes.

    The three stages per output row ``r``:

    1. *Alignment*: the FIFO chain exposes input rows ``r-1, r, r+1``,
       associated with weight rows ``W-, W0, W+``.
    2. *Row merge*: the three sorted column lists are merged; each merged
       column remembers which of the three rows contributed.
    3. *Column-wise dilation*: every contribution dilates +/-1 column,
       emitting (input, weight, output) rule entries; output columns are
       the +/-1 dilation of the merged columns, visited in ascending
       order so output indices are assigned monotonically.
    """
    in_coords = np.asarray(in_coords, dtype=np.int32)
    height, width = in_shape
    num_offsets = 9
    pair_in = [[] for _ in range(num_offsets)]
    pair_out = [[] for _ in range(num_offsets)]
    out_rows = []
    out_cols = []

    slices = _row_slices(in_coords, height)
    out_base = 0
    for out_row in range(height):
        # Stage 1: alignment — gather the three contributing input rows.
        row_inputs = []  # (weight_row_index 0/1/2, cols, input_indices)
        for weight_row, delta in enumerate((-1, 0, 1)):
            source = out_row + delta
            if 0 <= source < height:
                start, end = slices[source]
                if end > start:
                    row_inputs.append(
                        (weight_row,
                         in_coords[start:end, 1],
                         np.arange(start, end, dtype=np.int32))
                    )
        if not row_inputs:
            continue
        # Stage 2: row merge — merged active columns across the window.
        merged_cols = np.unique(np.concatenate([cols for _, cols, _ in row_inputs]))
        # Stage 3: column-wise dilation — active output columns for SpConv.
        dilated = np.unique(
            np.concatenate([merged_cols - 1, merged_cols, merged_cols + 1])
        )
        dilated = dilated[(dilated >= 0) & (dilated < width)]
        for weight_row, cols, input_indices in row_inputs:
            for weight_col, delta in enumerate((-1, 0, 1)):
                # Input column c feeds output column c - delta... with
                # O(r, co) += I(r+dr, co+dc) W(dr, dc): co = c - dc.
                target = cols - delta
                valid = (target >= 0) & (target < width)
                position = np.searchsorted(dilated, target[valid])
                offset_index = weight_row * 3 + weight_col
                pair_in[offset_index].append(input_indices[valid])
                pair_out[offset_index].append(
                    (out_base + position).astype(np.int32))
        out_rows.append(np.full(len(dilated), out_row, dtype=np.int32))
        out_cols.append(dilated.astype(np.int32))
        out_base += len(dilated)

    if out_rows:
        out_coords = np.stack(
            [np.concatenate(out_rows), np.concatenate(out_cols)], axis=1
        )
    else:
        out_coords = np.zeros((0, 2), dtype=np.int32)

    rules = Rules(
        conv_type=ConvType.SPCONV,
        kernel_size=3,
        stride=1,
        in_shape=in_shape,
        out_shape=in_shape,
        in_coords=in_coords,
        out_coords=out_coords,
    )
    for offset_index in range(num_offsets):
        if pair_in[offset_index]:
            rules.pairs.append(
                RulePairs(
                    np.concatenate(pair_in[offset_index]),
                    np.concatenate(pair_out[offset_index]),
                )
            )
        else:
            empty = np.zeros(0, dtype=np.int32)
            rules.pairs.append(RulePairs(empty, empty))
    return rules


@dataclass
class RGUCycleReport:
    """Cycle/energy estimate for generating one layer's rules."""

    rule_entries: int
    cycles: int
    energy_pj: float


class RGUModel:
    """RGU timing: one rule entry per cycle after pipeline fill.

    The streaming FIFO chain also pays one cycle per active input (to
    shift it through the alignment stage) and a small per-row turnaround,
    but the emission stage dominates, keeping the total linear in P.
    """

    PIPELINE_FILL = 8
    ROW_TURNAROUND = 1

    def __init__(self, config: SpadeConfig = None):
        self.config = config or SpadeConfig()

    def cycles_for(self, rules: Rules) -> RGUCycleReport:
        """Mapping cycles and energy for one sparse layer."""
        active_rows = (
            len(np.unique(rules.in_coords[:, 0])) if rules.num_inputs else 0
        )
        entries = rules.total_pairs
        cycles = (
            max(entries, rules.num_inputs)
            + active_rows * self.ROW_TURNAROUND
            + self.PIPELINE_FILL
        )
        energy = entries * self.config.rgu_energy_per_rule_pj
        return RGUCycleReport(rule_entries=entries, cycles=cycles,
                              energy_pj=energy)

    def cycles_for_count(self, num_inputs: int, kernel_size: int = 3) -> int:
        """Upper-bound mapping cycles from the input count alone.

        Used by the standalone Fig. 5(b) comparison where only pillar
        counts are swept: assumes the worst case of every offset
        producing a rule entry (dense-neighbourhood dilation).
        """
        entries = num_inputs * kernel_size * kernel_size
        return entries + self.PIPELINE_FILL
