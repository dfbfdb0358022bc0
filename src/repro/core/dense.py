"""DenseAcc: the ideal dense accelerator baseline (paper Sec. IV-A).

DenseAcc is "a simplified version of SPADE that supports only dense
convolution operations without RGU, GSU, and pruning support": the same
MXU and buffers, processing the *densified* pseudo-image of every layer.
It is the reference point for the paper's sparsity-proportional speedup
and energy-savings claims (Figs. 9, 10(c), 11(c), 12).

A model is priced like SPADE's, in one array pass:
:func:`~repro.core.dataflow.dense_schedule_arrays` over every layer,
then :func:`~repro.core.accelerator.price_model`.
"""

from __future__ import annotations

from ..analysis.sparsity import LayerTrace, ModelTrace
from .accelerator import LayerResult, ModelResult, dense_layer, price_model
from .config import SpadeConfig
from .dataflow import dense_schedule_arrays, schedule_dense_layer
from .energy import EnergyModel


class DenseAccelerator:
    """Cycle simulator for DenseAcc; runs every layer densified."""

    def __init__(self, config: SpadeConfig):
        self.config = config
        self.energy_model = EnergyModel(config)

    def run_layer(self, trace: LayerTrace) -> LayerResult:
        layer = dense_layer(trace)
        schedule = schedule_dense_layer(*layer[:3], self.config, *layer[3:])
        energy = self.energy_model.layer_energy(
            schedule, trace.spec.in_channels, trace.spec.out_channels
        )
        return LayerResult(trace=trace, schedule=schedule, energy=energy)

    def run_trace(self, model_trace: ModelTrace) -> ModelResult:
        """Execute a traced model with every layer densified."""
        traces = tuple(model_trace.layers)
        return price_model(
            model_trace.spec.name,
            f"DenseAcc.{self.config.name}",
            traces,
            dense_schedule_arrays([dense_layer(trace) for trace in traces],
                                  self.config),
            self.energy_model,
        )
