"""Network-level SPADE simulation: schedule every layer of a traced model.

:class:`SpadeAccelerator` consumes a :class:`~repro.analysis.sparsity.ModelTrace`
(per-layer rules and counts from one frame) and produces per-layer and
model-level cycle counts, utilization, DRAM traffic and energy.  The
DenseAcc baseline lives in :mod:`repro.core.dense`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from ..analysis.sparsity import LayerTrace, ModelTrace
from ..models.specs import LayerOp
from .config import SpadeConfig
from .dataflow import (
    LayerSchedule,
    schedule_dense_layer,
    schedule_sparse_layer,
    schedule_sparse_layers,
)
from .energy import EnergyBreakdown, EnergyModel


@dataclass
class LayerResult:
    """Schedule + energy of one executed layer."""

    trace: LayerTrace
    schedule: LayerSchedule
    energy: EnergyBreakdown


@dataclass
class ModelResult:
    """Aggregate of one frame's execution on one accelerator."""

    model_name: str
    accelerator: str
    layers: list = field(default_factory=list)
    clock_ghz: float = 1.0
    _aggregates: dict = field(default_factory=dict, repr=False, compare=False)

    def _aggregate(self, key, compute):
        """Memoized per-model aggregate, recomputed if layers were added.

        Aggregates are accessed many times per result (every metric of
        the unified schema, every table row), so they are computed once
        and invalidated by layer count — layers are append-only.
        """
        count = len(self.layers)
        cached = self._aggregates.get(key)
        if cached is None or cached[0] != count:
            cached = (count, compute())
            self._aggregates[key] = cached
        return cached[1]

    @property
    def total_cycles(self) -> int:
        return self._aggregate(
            "cycles",
            lambda: sum(layer.schedule.total_cycles for layer in self.layers),
        )

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e3

    @property
    def fps(self) -> float:
        return 1e3 / self.latency_ms if self.total_cycles else 0.0

    @property
    def total_macs(self) -> int:
        return self._aggregate(
            "macs", lambda: sum(layer.schedule.macs for layer in self.layers)
        )

    @property
    def total_dram_bytes(self) -> int:
        return self._aggregate(
            "dram",
            lambda: sum(layer.schedule.dram_bytes for layer in self.layers),
        )

    def _sum_energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for layer in self.layers:
            total.add(layer.energy)
        return total

    @property
    def energy(self) -> EnergyBreakdown:
        # Copy so callers mutating the returned breakdown (e.g. via
        # ``add``) cannot corrupt the cache.
        return replace(self._aggregate("energy", self._sum_energy))

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
        def compute():
            total = Counter()
            for layer in self.layers:
                total.update(layer.schedule.breakdown)
            return dict(total)

        return dict(self._aggregate("breakdown", compute))


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
            schedule = self._dense_schedule(trace)
        return self._result(trace, schedule)

    def run_trace(self, model_trace: ModelTrace) -> ModelResult:
        """Execute a full traced model frame.

        Every sparse layer is scheduled in one
        :func:`~repro.core.dataflow.schedule_sparse_layers` pass.
        """
        result = ModelResult(
            model_name=model_trace.spec.name,
            accelerator=f"SPADE.{self.config.name}"
            + ("" if self.optimize else " (no dataflow opt)"),
            clock_ghz=self.config.clock_ghz,
        )
        sparse = iter(schedule_sparse_layers(
            sparse_layers(model_trace), self.config, self.optimize))
        for trace in model_trace.layers:
            schedule = (next(sparse) if trace.rules is not None
                        else self._dense_schedule(trace))
            result.layers.append(self._result(trace, schedule))
        return result

    def _dense_schedule(self, trace: LayerTrace) -> LayerSchedule:
        spec = trace.spec
        num_pixels = (
            trace.in_shape[0] * trace.in_shape[1]
            if spec.upsample
            else trace.out_shape[0] * trace.out_shape[1]
        )
        return schedule_dense_layer(
            num_pixels,
            spec.in_channels,
            spec.out_channels,
            self.config,
            kernel_size=spec.kernel_size,
            upsample_stride=spec.stride if spec.upsample else 1,
            out_width=trace.out_shape[1],
            name=spec.name,
        )

    def _result(self, trace: LayerTrace, schedule: LayerSchedule
                ) -> LayerResult:
        energy = self.energy_model.layer_energy(
            schedule, trace.spec.in_channels, trace.spec.out_channels
        )
        return LayerResult(trace=trace, schedule=schedule, energy=energy)


def sparse_layers(model_trace: ModelTrace) -> list:
    """The traced model's sparse layers, in order, as the
    ``(rules, in_channels, out_channels, name, prune)`` tuples
    :func:`~repro.core.dataflow.schedule_sparse_layers` reads."""
    return [
        (trace.rules, trace.spec.in_channels, trace.spec.out_channels,
         trace.spec.name, trace.spec.prune_keep is not None)
        for trace in model_trace.layers
        if trace.rules is not None
    ]
