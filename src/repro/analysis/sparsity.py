"""Sparsity analysis: propagate active sets through a model workload.

Given a :class:`~repro.models.specs.ModelSpec` and the active pillar
coordinates of one frame, :func:`trace_model` walks the layer graph
(backbone chain, deconvolution branches, head fan-out), generating rules
for every sparse layer and counting MACs for every layer.  The resulting
:class:`ModelTrace` carries everything downstream consumers need:

* Table I: total GOPs and computation savings vs. the dense counterpart;
* Fig. 2(d-f): per-layer IOPR and sparsity;
* the SPADE / DenseAcc / PointAcc simulators: per-layer rules and counts.

Dynamic pruning (SpConv-P) is applied geometrically using an *importance*
value per pillar, defaulting to the pillar's point count propagated by
max through the network — a stand-in for the trained magnitude ranking
that keeps dense clusters (foreground objects) and drops isolated
background pillars, matching the behaviour shown in paper Fig. 13(b).
Importance is tracked only up to the last layer with ``prune_keep``:
layers run in topological order, so no later output feeds a pruning
decision, and no :class:`LayerTrace` records importance.

Layers of one trace that see the same input set with the same geometry
share one :class:`~repro.sparse.rulegen.Rules` object: a submanifold
layer outputs exactly its input set, so a SUBM chain would otherwise
build the same rules once per layer (and the GSU planner, which
memoizes on the object, would plan each copy again).  Nothing writes to
a ``Rules`` after RuleGen, so sharing it is safe; a pickled trace stores
a shared object once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models.specs import LayerOp, LayerSpec, ModelSpec, build_model_spec
from ..sparse.coords import (
    _dense_table_fits,
    _unique_flat_sorted,
    flatten,
    unflatten,
)
from ..sparse.rulegen import (
    ConvType,
    PaddedGrid,
    Rules,
    build_rules_delta,
)
# Full rebuilds go through this name: the benchmark's ``rulegen`` probe
# wraps ``build_rules_sharded`` as bound in this module, so the alias
# keeps its traced counts until the probe targets ``build_rules``.
from ..sparse.rulegen import build_rules as build_rules_sharded


@dataclass
class StreamState:
    """Active-set state flowing between layers.

    ``importance`` is None when it is not tracked: on dense streams and
    past the model's last pruned layer.  ``grid`` is the active set's
    :class:`~repro.sparse.rulegen.PaddedGrid` when the layer that wrote
    it built one, for the next layer's rulegen; None otherwise.
    """

    shape: tuple
    coords: np.ndarray = None          # None means the stream is dense
    importance: np.ndarray = None
    grid: PaddedGrid = None

    @property
    def is_dense(self) -> bool:
        return self.coords is None

    @property
    def num_active(self) -> int:
        if self.is_dense:
            return self.shape[0] * self.shape[1]
        return len(self.coords)

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.num_active / total if total else 0.0


@dataclass
class LayerTrace:
    """Everything recorded about one executed layer."""

    spec: LayerSpec
    in_shape: tuple
    out_shape: tuple
    in_count: int
    out_count: int
    out_count_after_prune: int
    sparse_macs: int
    #: The layer's rules; None for dense layers.  Layers of one trace
    #: that see the same input with the same geometry hold the same
    #: object, which is never written after RuleGen.
    rules: Rules = None
    #: Active input coordinates of a sparse layer (a reference to the
    #: stream state, not a copy); None for dense layers.  Substrate
    #: micro-simulators (hash-table mapping, cache-based gather) need
    #: the raw input set, which rules alone do not retain.
    in_coords: np.ndarray = None
    #: Whether this layer's rules were routed to ``build_rules_delta``
    #: (shared or rebuilt) from the previous sequential frame's rules
    #: (delta tracing).  Purely observability — delta rules are
    #: bit-identical — and read with ``getattr(..., False)`` everywhere
    #: so traces pickled before the field existed stay loadable.
    via_delta: bool = False

    @property
    def iopr(self) -> float:
        """Input-output pillar ratio before pruning (Fig. 2(d-f))."""
        return self.out_count / self.in_count if self.in_count else 0.0

    @property
    def out_density(self) -> float:
        total = self.out_shape[0] * self.out_shape[1]
        return self.out_count_after_prune / total if total else 0.0


@dataclass
class ModelTrace:
    """Per-layer traces plus model-level aggregates for one frame."""

    spec: ModelSpec
    layers: list = field(default_factory=list)
    input_active: int = 0

    @property
    def total_macs(self) -> int:
        return sum(layer.sparse_macs for layer in self.layers)

    @property
    def total_ops(self) -> int:
        """Operations = 2 x MACs (multiply + accumulate), the GOPs unit."""
        return 2 * self.total_macs

    def layer(self, name: str) -> LayerTrace:
        for layer in self.layers:
            if layer.spec.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in trace of {self.spec.name}")

    def savings_vs(self, dense_trace: "ModelTrace") -> float:
        """Computation savings fraction vs. a dense counterpart trace."""
        dense = dense_trace.total_macs
        if dense == 0:
            return 0.0
        return 1.0 - self.total_macs / dense


def _dense_out_shape(spec: LayerSpec, in_shape: tuple) -> tuple:
    if spec.upsample:
        return (in_shape[0] * spec.stride, in_shape[1] * spec.stride)
    if spec.stride > 1:
        return (
            (in_shape[0] + spec.stride - 1) // spec.stride,
            (in_shape[1] + spec.stride - 1) // spec.stride,
        )
    return in_shape


def _propagate_importance(rules: Rules, importance: np.ndarray) -> np.ndarray:
    """Max-propagate pillar importance from inputs to outputs through rules."""
    out_importance = np.zeros(rules.num_outputs, dtype=np.float64)
    for pair in rules.pairs:
        if len(pair):
            # An offset that covers every input has in_idx = arange, so
            # it reads importance as it is.  Otherwise the int32 pairs
            # cast to intp first: fancy indexing and ufunc.at take a
            # slower path on other index dtypes.  Only layers up to the
            # last pruned one get here (B1C1-B3C1 of SPP2 and SCP2), so
            # the casts cost little in a trace.
            values = (importance if len(pair) == rules.num_inputs
                      else importance[pair.in_idx.astype(np.intp)])
            np.maximum.at(out_importance, pair.out_idx.astype(np.intp),
                          values)
    return out_importance


def _prune_state(
    coords: np.ndarray, importance: np.ndarray, keep_ratio: float
) -> tuple:
    """Keep the top ``keep_ratio`` fraction of pillars by importance.

    Returns ``(coords, importance, kept)``: ``kept`` holds the ascending
    positions of the pillars kept, or is None when every pillar is.
    """
    keep = int(round(len(coords) * keep_ratio))
    if keep >= len(coords):
        return coords, importance, None
    if keep <= 0:
        return coords[:0], importance[:0], np.zeros(0, dtype=np.intp)
    kept = np.argpartition(importance, -keep)[-keep:]
    kept = np.sort(kept)
    return coords[kept], importance[kept], kept


#: Below this much full-rebuild work (active inputs x window offsets)
#: a layer skips the delta path and rebuilds directly.  The value fixes
#: which layers are attributed to ``build_rules_delta`` rather than to
#: a full build, so per-layer rulegen counts stay comparable across
#: versions.
_DELTA_MIN_WORK = 45_000


def _delta_window(spec: LayerSpec) -> int:
    """Offsets resolved per input by a full rebuild of this layer."""
    if spec.conv_type is ConvType.STRIDED:
        return 9  # downsample_coords fixes the kernel-3/pad-1 window
    if spec.conv_type is ConvType.STRIDED_SUBM:
        return spec.stride * spec.stride
    return spec.kernel_size * spec.kernel_size


def _delta_applicable(prev_rules: Rules, spec: LayerSpec,
                      state: StreamState) -> bool:
    """Whether a previous frame's rules can seed a delta rebuild here.

    Sharing the previous rules requires identical layer geometry; a
    grid or conv mismatch (e.g. a prev trace from a different spec)
    silently falls back to the full build rather than producing wrong
    rules.  Layers whose full rebuild is below :data:`_DELTA_MIN_WORK`
    also decline (not for correctness).  DECONV is exempt from the work
    floor.
    """
    if (
        prev_rules is None
        or prev_rules.conv_type is not spec.conv_type
        or tuple(prev_rules.in_shape) != tuple(state.shape)
        or prev_rules.stride != spec.stride
    ):
        return False
    effective_ks = (
        spec.stride if spec.conv_type is ConvType.DECONV
        else spec.kernel_size
    )
    if prev_rules.kernel_size != effective_ks:
        return False
    return (
        spec.conv_type is ConvType.DECONV
        or len(state.coords) * _delta_window(spec) >= _DELTA_MIN_WORK
    )


def _shared_rules(built: list, geometry: tuple,
                  coords: np.ndarray) -> tuple:
    """An earlier layer's rules for ``geometry`` and input ``coords``.

    ``built`` holds ``(geometry, input coords, Rules, output grid)`` for
    each layer of the trace that built its rules; the grid is the one
    taken off the new ``Rules``, before any prune.  Geometry is
    ``(conv_type, kernel_size, stride, in_shape)``, every argument rule
    generation reads, so an entry equal in geometry and coords has
    exactly the rules (and output cells) this layer would build.
    Returns ``(rules, grid)``, or None when there is none.
    """
    for key, seen, rules, grid in built:
        if key == geometry and (seen is coords
                                or np.array_equal(seen, coords)):
            return rules, grid
    return None


def _execute_sparse_layer(spec: LayerSpec, state: StreamState,
                          prev_rules: Rules = None,
                          track_importance: bool = True,
                          shared: tuple = None) -> tuple:
    """Run one sparse layer geometrically.

    Returns ``(LayerTrace, new state, output grid)``; the output grid is
    the one the rules were built with, before this layer's prune subsets
    it.  With ``track_importance`` off the new state's importance is
    None; a layer with ``prune_keep`` needs it on.  ``shared``, when
    given, is ``(rules, grid)`` from an earlier layer with this layer's
    geometry and input (see :func:`_shared_rules`): the rules are reused
    as they are and the grid is handed on, subset by this layer's prune.
    """
    via_delta = shared is None and _delta_applicable(prev_rules, spec, state)
    if shared is not None:
        rules, grid = shared
    else:
        if via_delta:
            rules = build_rules_delta(prev_rules, state.coords,
                                      grid=state.grid)
        else:
            rules = build_rules_sharded(
                state.coords,
                state.shape,
                spec.conv_type,
                kernel_size=spec.kernel_size,
                stride=spec.stride,
                grid=state.grid,
            )
        grid = rules.take_grid()
    out_grid = grid
    out_importance = (
        _propagate_importance(rules, state.importance)
        if track_importance else None
    )
    out_coords = rules.out_coords
    out_after = len(out_coords)
    if spec.prune_keep is not None:
        out_coords, out_importance, kept = _prune_state(
            out_coords, out_importance, spec.prune_keep
        )
        if kept is not None and out_grid is not None:
            out_grid = out_grid.subset(kept)
        out_after = len(out_coords)
    trace = LayerTrace(
        spec=spec,
        in_shape=state.shape,
        out_shape=rules.out_shape,
        in_count=rules.num_inputs,
        out_count=rules.num_outputs,
        out_count_after_prune=out_after,
        sparse_macs=rules.macs(spec.in_channels, spec.out_channels),
        rules=rules,
        in_coords=state.coords,
        via_delta=via_delta,
    )
    new_state = StreamState(
        shape=rules.out_shape, coords=out_coords, importance=out_importance,
        grid=out_grid,
    )
    return trace, new_state, grid


def _execute_dense_layer(spec: LayerSpec, state: StreamState) -> tuple:
    out_shape = _dense_out_shape(spec, state.shape)
    macs = spec.dense_macs(out_shape[0], out_shape[1])
    trace = LayerTrace(
        spec=spec,
        in_shape=state.shape,
        out_shape=out_shape,
        in_count=state.shape[0] * state.shape[1],
        out_count=out_shape[0] * out_shape[1],
        out_count_after_prune=out_shape[0] * out_shape[1],
        sparse_macs=macs,
        rules=None,
    )
    return trace, StreamState(shape=out_shape, coords=None)


def _union_states(states: list) -> StreamState:
    """Merge branch outputs (channel concat): union of active sets.

    A merged pillar keeps the largest importance any branch gives it;
    when any branch does not track importance, neither does the union.
    Any dense branch makes the union dense.  Every branch must be on one
    grid (see :func:`_check_branch_shapes`).
    """
    shape = states[0].shape
    if any(state.is_dense for state in states):
        return StreamState(shape=shape, coords=None)
    cells = shape[0] * shape[1]
    flats = [flatten(state.coords, shape) for state in states]
    merged = _unique_flat_sorted(np.concatenate(flats), cells)
    if any(state.importance is None for state in states):
        importance = None
    elif _dense_table_fits(cells):
        # Flats are unique within a state, so a plain gather / scatter
        # per branch keeps each cell's running max.
        table = np.zeros(cells, dtype=np.float64)
        for state, flat in zip(states, flats):
            table[flat] = np.maximum(table[flat], state.importance)
        importance = table[merged]
    else:
        importance = np.zeros(len(merged), dtype=np.float64)
        for state, flat in zip(states, flats):
            index = np.searchsorted(merged, flat)
            np.maximum.at(importance, index, state.importance)
    return StreamState(
        shape=shape, coords=unflatten(merged, shape), importance=importance
    )


def _check_branch_shapes(spec: ModelSpec, grid: tuple,
                         states: list) -> None:
    """Raise ValueError unless every deconv branch ends on one grid.

    The head concatenates the branches channel-wise, which a dense
    backbone could not do either when their grids differ.  Grids whose
    sides are multiples of the model's total stride always meet.
    """
    shapes = sorted({tuple(state.shape) for state in states})
    if len(shapes) > 1:
        stride = math.prod(layer.stride for layer in spec.layers
                           if not layer.name.startswith(("D", "H")))
        raise ValueError(
            f"{spec.name} cannot trace a {grid[0]}x{grid[1]} grid: its "
            f"deconv branches end on grids {shapes}, which cannot be "
            f"concatenated; grid sides that are multiples of the model's "
            f"total stride {stride} always meet"
        )


def trace_model(
    spec: ModelSpec,
    coords: np.ndarray,
    importance: np.ndarray = None,
    grid_shape: tuple = None,
    prev_trace: "ModelTrace" = None,
) -> ModelTrace:
    """Execute a model spec geometrically on one frame's active pillars.

    Args:
        spec: The workload layer graph.
        coords: (P, 2) CPR-sorted active pillar coordinates on ``spec.grid``
            (or on ``grid_shape`` when given).
        importance: Optional per-pillar importance for dynamic pruning
            (defaults to all-ones; pass pillar point counts for
            foreground-preserving pruning).  It is max-propagated only
            through the layers up to the last one with ``prune_keep``;
            a model without pruning never reads it.
        grid_shape: Override the input grid shape, e.g. to run a
            full-scale layer graph on a reduced grid in tests.
        prev_trace: Optional trace of the *previous sequential frame* of
            the same model: each sparse layer large enough is routed to
            :func:`~repro.sparse.rulegen.build_rules_delta`, which
            shares its predecessor's rules when the layer input is
            unchanged and rebuilds otherwise.  Delta rules are
            bit-identical to a full build, so this never changes the
            trace.

    Layers that see the same input set with the same geometry share
    one :class:`~repro.sparse.rulegen.Rules` object (see
    :func:`_shared_rules`); it is looked up before the delta route, so a
    sharing layer is never ``via_delta``.

    A layer whose rules came from the padded table hands its numbered
    output cells to the next layer: the grid is taken off the new
    ``Rules`` at once (:meth:`~repro.sparse.rulegen.Rules.take_grid`),
    rides on the :class:`StreamState`, and lets the next stride-1
    layer skip rebuilding its padded input cells and mask.  A pruned
    stream hands on its kept cells without the mask.  A layer that
    shares an earlier layer's rules hands on the grid that layer took,
    subset by its own prune.  DECONV outputs, the branch union and grids
    past the table cap (built by the reference loop) hand nothing on.
    No traced ``Rules`` keeps a grid.

    The union of the deconv branches is built only when a sparse head
    reads it (SCP2 and SCP3 among the Table I models); a dense head
    reads only the branches' grid.  The branch grids are checked
    before either.

    Returns:
        A :class:`ModelTrace` with one :class:`LayerTrace` per layer.

    Raises:
        ValueError: When the deconv branches end on different grids, as
            on grids whose sides the model's total stride does not
            divide.
    """
    coords = np.asarray(coords, dtype=np.int32)
    if importance is None:
        importance = np.ones(len(coords), dtype=np.float64)
    importance = np.asarray(importance, dtype=np.float64)

    trace = ModelTrace(spec=spec, input_active=len(coords))
    state = StreamState(
        shape=grid_shape or spec.grid.shape,
        coords=coords,
        importance=importance,
    )
    if prev_trace is not None and (
        prev_trace.spec.name != spec.name
        or len(prev_trace.layers) != len(spec.layers)
    ):
        prev_trace = None  # foreign trace: never seed deltas from it

    def prev_rules_for(index: int) -> Rules:
        # Every layer (dense included) appends one LayerTrace in
        # spec.layers order, so the predecessor frame's rules for the
        # layer about to run sit at the same position.
        if prev_trace is None:
            return None
        return prev_trace.layers[index].rules

    # Layers run in topological order, so no output of a layer past the
    # last pruned one feeds a pruning decision.
    last_prune = max(
        (index for index, layer in enumerate(spec.layers)
         if layer.prune_keep is not None),
        default=-1,
    )

    built = []  # (geometry, input coords, Rules, grid) per layer that built

    def run_sparse(layer: LayerSpec, source: StreamState) -> tuple:
        index = len(trace.layers)
        geometry = (layer.conv_type, layer.kernel_size, layer.stride,
                    tuple(source.shape))
        shared = _shared_rules(built, geometry, source.coords)
        layer_trace, out_state, grid = _execute_sparse_layer(
            layer, source,
            prev_rules=prev_rules_for(index),
            track_importance=index <= last_prune,
            shared=shared,
        )
        if shared is None:
            built.append((geometry, source.coords, layer_trace.rules, grid))
        return layer_trace, out_state

    stage_snapshots = {}
    deconv_outputs = []
    head_input = None
    union_pending = False
    head_shared_output = None
    current_stage = None

    for layer in spec.layers:
        is_deconv = layer.name.startswith("D")
        is_head = layer.name.startswith("H")

        if not is_deconv and not is_head:
            # Backbone / encoder chain layer.
            if layer.op is LayerOp.SPARSE:
                layer_trace, state = run_sparse(layer, state)
            else:
                layer_trace, state = _execute_dense_layer(layer, state)
            stage_snapshots[layer.stage] = state
            current_stage = layer.stage
            trace.layers.append(layer_trace)
            continue

        if is_deconv:
            source = stage_snapshots.get(layer.stage)
            if source is None:
                raise ValueError(
                    f"deconv {layer.name} references unknown stage {layer.stage}"
                )
            if layer.op is LayerOp.SPARSE:
                layer_trace, out_state = run_sparse(layer, source)
            else:
                layer_trace, out_state = _execute_dense_layer(layer, source)
            deconv_outputs.append(out_state)
            trace.layers.append(layer_trace)
            continue

        # Head layer: first head consumes the concat of deconv branches
        # (or, for PillarNet-style specs without deconv fan-in recorded,
        # the current stream).
        if head_input is None:
            if deconv_outputs:
                _check_branch_shapes(spec, grid_shape or spec.grid.shape,
                                     deconv_outputs)
                # A dense head reads only the branches' grid: the union
                # is built when a sparse head first reads it.
                head_input = StreamState(shape=deconv_outputs[0].shape)
                union_pending = True
            else:
                head_input = state
        if head_shared_output is not None:
            source = head_shared_output
        else:
            if union_pending and layer.op is LayerOp.SPARSE:
                head_input = _union_states(deconv_outputs)
                union_pending = False
            source = head_input
        if layer.op is LayerOp.SPARSE:
            layer_trace, out_state = run_sparse(layer, source)
        else:
            layer_trace, out_state = _execute_dense_layer(layer, source)
        if layer.name == "Hshared":
            head_shared_output = out_state
        trace.layers.append(layer_trace)

    return trace


def dense_counterpart(name: str) -> str:
    """Table I dense baseline for each model."""
    if name.startswith("SPP") or name == "PP":
        return "PP"
    if name.startswith("SCP") or name == "CP":
        return "CP"
    return "PN-Dense"


def compute_savings(
    model_name: str, coords: np.ndarray, importance: np.ndarray = None
) -> tuple:
    """Convenience: (model trace, dense trace, savings fraction)."""
    spec = build_model_spec(model_name)
    dense_spec = build_model_spec(dense_counterpart(model_name))
    model_trace = trace_model(spec, coords, importance)
    dense_trace = trace_model(dense_spec, coords, importance)
    return model_trace, dense_trace, model_trace.savings_vs(dense_trace)


def iopr_series(trace: ModelTrace) -> list:
    """(layer name, IOPR, output density) for backbone sparse layers.

    This is the Fig. 2(d-f) series; dense layers are skipped since IOPR
    is a sparse-layer concept.
    """
    series = []
    for layer in trace.layers:
        if layer.rules is None:
            continue
        series.append((layer.spec.name, layer.iopr, layer.out_density))
    return series
