"""Network-level SPADE simulation: schedule every layer of a traced model.

:class:`SpadeAccelerator` consumes a :class:`~repro.analysis.sparsity.ModelTrace`
(per-layer rules and counts from one frame) and produces per-layer and
model-level cycle counts, utilization, DRAM traffic and energy.  The
DenseAcc baseline lives in :mod:`repro.core.dense`.

A model is priced in one array pass: one
:func:`~repro.core.dataflow.sparse_schedule_arrays` call for the sparse
layers, one :func:`~repro.core.dataflow.dense_schedule_arrays` call for
the dense ones, joined in layer order, then one
:meth:`~repro.core.energy.EnergyModel.price` call.  :class:`ModelResult`
keeps those arrays and takes its aggregates from them; its ``layers``
(:class:`LayerResult` objects) are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..analysis.sparsity import LayerTrace, ModelTrace
from .config import SpadeConfig
from .dataflow import (
    INSTRUCTIONS,
    LayerSchedule,
    ScheduleArrays,
    dense_schedule_arrays,
    schedule_dense_layer,
    schedule_sparse_layer,
    sparse_schedule_arrays,
)
from .energy import (
    COMPONENTS,
    EnergyBreakdown,
    EnergyModel,
    component_total,
    model_energy,
)


@dataclass
class LayerResult:
    """Schedule + energy of one executed layer."""

    trace: LayerTrace
    schedule: LayerSchedule
    energy: EnergyBreakdown


@dataclass(eq=False)
class ModelResult:
    """Aggregate of one frame's execution on one accelerator.

    Attributes:
        model_name / accelerator: Labels.
        traces: The executed :class:`LayerTrace` of every layer.
        schedules: Their schedules, one row per layer.
        energy_parts: (L, 6) picojoules per layer, columns in
            :data:`~repro.core.energy.COMPONENTS` order.
        clock_ghz: Core clock the latency is counted at.
        layer_cycles: (L,) total cycles of every layer.
        total_cycles / total_macs / total_dram_bytes: Sums over the
            layers, as ints.
    """

    model_name: str
    accelerator: str
    traces: tuple = ()
    schedules: ScheduleArrays = field(default_factory=ScheduleArrays.empty)
    energy_parts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, len(COMPONENTS))))
    clock_ghz: float = 1.0
    layer_cycles: np.ndarray = field(init=False, repr=False)
    total_cycles: int = field(init=False)
    total_macs: int = field(init=False)
    total_dram_bytes: int = field(init=False)

    def __post_init__(self):
        self.layer_cycles = self.schedules.cycles
        self.total_cycles = int(self.layer_cycles.sum())
        self.total_macs = int(self.schedules.macs.sum())
        self.total_dram_bytes = int(self.schedules.dram_bytes.sum())

    @cached_property
    def layers(self) -> tuple:
        """One :class:`LayerResult` per layer, built on first read."""
        return tuple(
            LayerResult(trace, schedule, EnergyBreakdown(*energy))
            for trace, schedule, energy in zip(
                self.traces, self.schedules.schedules(),
                self.energy_parts.tolist()))

    @property
    def layer_energy_pj(self) -> np.ndarray:
        """(L,) total picojoules of every layer."""
        return component_total(self.energy_parts.T)

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e3

    @property
    def fps(self) -> float:
        return 1e3 / self.latency_ms if self.total_cycles else 0.0

    @cached_property
    def total_macs(self) -> int:
        return int(self.schedules.macs.sum())

    @cached_property
    def total_dram_bytes(self) -> int:
        return int(self.schedules.dram_bytes.sum())

    @property
    def energy(self) -> EnergyBreakdown:
        """Per-component totals; a new object on every read."""
        return model_energy(self.energy_parts)

    @property
    def energy_mj(self) -> float:
        return self.energy.total_mj

    def utilization(self, config: SpadeConfig) -> float:
        cycles = self.total_cycles
        if cycles == 0:
            return 0.0
        return self.total_macs / (config.peak_macs_per_cycle * cycles)

    def breakdown(self) -> dict:
        """Summed instruction breakdown across layers (cycles)."""
        if not len(self.schedules):
            return {}
        return dict(zip(INSTRUCTIONS,
                        self.schedules.breakdown.sum(axis=0).tolist()))


class SpadeAccelerator:
    """The SPADE cycle simulator.

    Args:
        config: HE or LE instance.
        optimize: Enable weight grouping / ganged scatter (Fig. 8); turn
            off to reproduce the "w/o optimization" baselines of
            Fig. 11(d) and the PointAcc comparison setup of Sec. IV-B4.
    """

    def __init__(self, config: SpadeConfig, optimize: bool = True):
        self.config = config
        self.optimize = optimize
        self.energy_model = EnergyModel(config)

    def run_layer(self, trace: LayerTrace) -> LayerResult:
        """Schedule one traced layer."""
        spec = trace.spec
        if trace.rules is not None:
            schedule = schedule_sparse_layer(
                trace.rules,
                spec.in_channels,
                spec.out_channels,
                self.config,
                name=spec.name,
                prune=spec.prune_keep is not None,
                optimize=self.optimize,
            )
        else:
            layer = dense_layer(trace)
            schedule = schedule_dense_layer(*layer[:3], self.config,
                                            *layer[3:])
        energy = self.energy_model.layer_energy(
            schedule, spec.in_channels, spec.out_channels)
        return LayerResult(trace=trace, schedule=schedule, energy=energy)

    def run_trace(self, model_trace: ModelTrace) -> ModelResult:
        """Execute a full traced model frame in one array pass."""
        traces = tuple(model_trace.layers)
        sparse = [index for index, trace in enumerate(traces)
                  if trace.rules is not None]
        dense = [index for index, trace in enumerate(traces)
                 if trace.rules is None]
        schedules = ScheduleArrays.join([
            (sparse_schedule_arrays(sparse_layers(model_trace), self.config,
                                    self.optimize), sparse),
            (dense_schedule_arrays([dense_layer(traces[index])
                                    for index in dense], self.config),
             dense),
        ])
        return price_model(
            model_trace.spec.name,
            f"SPADE.{self.config.name}"
            + ("" if self.optimize else " (no dataflow opt)"),
            traces, schedules, self.energy_model)


def price_model(model_name: str, accelerator: str, traces: tuple,
                schedules: ScheduleArrays,
                energy_model: EnergyModel) -> ModelResult:
    """The :class:`ModelResult` of scheduled layers: their energy is
    priced in one :meth:`~repro.core.energy.EnergyModel.price` call."""
    return ModelResult(
        model_name=model_name,
        accelerator=accelerator,
        traces=traces,
        schedules=schedules,
        energy_parts=energy_model.price(
            schedules,
            [trace.spec.in_channels for trace in traces],
            [trace.spec.out_channels for trace in traces]),
        clock_ghz=energy_model.config.clock_ghz,
    )


def sparse_layers(model_trace: ModelTrace) -> list:
    """The traced model's sparse layers, in order, as the
    ``(rules, in_channels, out_channels, name, prune)`` tuples
    :func:`~repro.core.dataflow.sparse_schedule_arrays` reads."""
    return [
        (trace.rules, trace.spec.in_channels, trace.spec.out_channels,
         trace.spec.name, trace.spec.prune_keep is not None)
        for trace in model_trace.layers
        if trace.rules is not None
    ]


def dense_layer(trace: LayerTrace) -> tuple:
    """A traced layer run densified, as the ``(num_pixels, in_channels,
    out_channels, kernel_size, upsample_stride, out_width, name)`` tuple
    :func:`~repro.core.dataflow.dense_schedule_arrays` reads.

    ``num_pixels`` counts input pixels for an upsampling layer and
    output pixels otherwise.
    """
    spec = trace.spec
    num_pixels = (
        trace.in_shape[0] * trace.in_shape[1]
        if spec.upsample
        else trace.out_shape[0] * trace.out_shape[1]
    )
    return (num_pixels, spec.in_channels, spec.out_channels,
            spec.kernel_size, spec.stride if spec.upsample else 1,
            trace.out_shape[1], spec.name)

