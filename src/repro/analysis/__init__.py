"""Sparsity analysis, trade-off studies and experiment reporting."""

from .report import (
    format_results,
    format_series,
    format_table,
    paper_vs_measured,
)
from .sparsity import (
    LayerTrace,
    ModelTrace,
    StreamState,
    compute_savings,
    dense_counterpart,
    iopr_series,
    trace_model,
)
from .tradeoff import (
    AccuracySparsityCurve,
    AccuracySparsityPoint,
    FeatureMapStudy,
    accuracy_sparsity_sweep,
    feature_map_study,
    single_object_scene,
)

__all__ = [
    "AccuracySparsityCurve",
    "AccuracySparsityPoint",
    "FeatureMapStudy",
    "LayerTrace",
    "ModelTrace",
    "StreamState",
    "accuracy_sparsity_sweep",
    "compute_savings",
    "dense_counterpart",
    "feature_map_study",
    "format_results",
    "format_series",
    "format_table",
    "iopr_series",
    "paper_vs_measured",
    "single_object_scene",
    "trace_model",
]
