"""SPADE accelerator core: RGU, GSU, MXU dataflow, energy, area."""

from .accelerator import LayerResult, ModelResult, SpadeAccelerator
from .area import (
    AreaBreakdown,
    accelerator_area,
    pointacc_like_area,
    sram_kilobytes,
)
from .config import SPADE_HE, SPADE_LE, SpadeConfig
from .dataflow import (
    INSTRUCTIONS,
    LayerSchedule,
    ScheduleArrays,
    dense_schedule_arrays,
    schedule_dense_layer,
    schedule_sparse_layer,
    schedule_sparse_layers,
    sparse_schedule_arrays,
)
from .dense import DenseAccelerator
from .energy import EnergyBreakdown, EnergyModel
from .mxu import SystolicArray, SystolicRunResult, pipeline_cycles
from .gsu import GSUTraffic, TilePlan, TileSchedule, layer_traffic, plan_tiles
from .rgu import RGUCycleReport, RGUModel, streaming_rulegen

__all__ = [
    "INSTRUCTIONS",
    "SPADE_HE",
    "SPADE_LE",
    "AreaBreakdown",
    "DenseAccelerator",
    "EnergyBreakdown",
    "EnergyModel",
    "GSUTraffic",
    "LayerResult",
    "LayerSchedule",
    "ModelResult",
    "RGUCycleReport",
    "RGUModel",
    "ScheduleArrays",
    "SpadeAccelerator",
    "SpadeConfig",
    "TilePlan",
    "TileSchedule",
    "accelerator_area",
    "dense_schedule_arrays",
    "layer_traffic",
    "plan_tiles",
    "pointacc_like_area",
    "schedule_dense_layer",
    "schedule_sparse_layer",
    "schedule_sparse_layers",
    "sparse_schedule_arrays",
    "sram_kilobytes",
    "streaming_rulegen",
    "SystolicArray",
    "SystolicRunResult",
    "pipeline_cycles",
]
