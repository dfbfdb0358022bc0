"""Vector-sparse convolution library: CPR coords, rules, execution, pruning."""

from .coords import (
    cpr_decode,
    cpr_encode,
    cpr_sort,
    dilate,
    downsample_coords,
    flatten,
    is_cpr_sorted,
    kernel_offsets,
    unflatten,
    upsample_coords,
    validate_coords,
)
from .functional import (
    dense_conv2d_reference,
    dense_deconv2d_reference,
    init_conv_weight,
    sparse_conv,
    sparse_conv_apply,
)
from .pruning import (
    pillar_magnitudes,
    sparsity_prune,
    threshold_for_keep_ratio,
    threshold_prune,
    topk_prune,
)
from .rulegen import (
    ConvType,
    PaddedGrid,
    RulePairs,
    Rules,
    build_rules,
    build_rules_delta,
    build_rules_reference,
)
from .tensor import SparseTensor

__all__ = [
    "ConvType",
    "cpr_decode",
    "cpr_encode",
    "PaddedGrid",
    "RulePairs",
    "Rules",
    "SparseTensor",
    "build_rules",
    "build_rules_delta",
    "build_rules_reference",
    "cpr_sort",
    "dense_conv2d_reference",
    "dense_deconv2d_reference",
    "dilate",
    "downsample_coords",
    "flatten",
    "init_conv_weight",
    "is_cpr_sorted",
    "kernel_offsets",
    "pillar_magnitudes",
    "sparse_conv",
    "sparse_conv_apply",
    "sparsity_prune",
    "threshold_for_keep_ratio",
    "threshold_prune",
    "topk_prune",
    "unflatten",
    "upsample_coords",
    "validate_coords",
]
