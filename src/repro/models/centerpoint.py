"""Trainable mini-CenterPoint: center-heatmap detection at experiment scale.

CenterPoint (the paper's second model family, SCP1-3) replaces the SSD
anchor head with a class-agnostic *center heatmap* trained with a focal
loss plus per-cell regression of offsets and sizes.  This module provides
the scaled-down trainable variant used to cross-check that the dynamic
pruning recipe is head-agnostic (the paper applies SpConv-P to both head
styles in Table I).
"""

from __future__ import annotations

import numpy as np

from ..data.grids import MINI_GRID, GridSpec
from ..data.pillars import PillarBatch, scatter_to_dense
from ..data.pointcloud import BoundingBox3D
from ..nn.layers import Conv2D, Module, Sequential, conv_bn_relu
from ..nn.losses import focal_loss_with_logits, sigmoid, smooth_l1
from ..nn.pointnet import PillarFeatureNet
from ..nn.regularization import TopKVectorPruner, VectorSparsityRegularizer
from .pointpillars import BOX_DIM, DetectionTargets, build_targets


class MiniCenterPoint(Module):
    """Center-heatmap variant of the mini detector.

    Same pillar encoder and backbone shape as
    :class:`~repro.models.pointpillars.MiniPointPillars`, but the head
    predicts a Gaussian-smoothed center heatmap (focal loss) next to the
    box regression channels.
    """

    def __init__(self, grid: GridSpec = None, channels: int = 24,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.grid = grid or MINI_GRID
        self.channels = channels
        self.pillar_net = PillarFeatureNet(9, channels, rng=rng)
        self.regularizer = VectorSparsityRegularizer(strength=0.0)
        self.pruner = TopKVectorPruner(keep_ratio=1.0, enabled=False)
        self.stage1 = Sequential(
            conv_bn_relu(channels, channels, stride=2, rng=rng),
            conv_bn_relu(channels, channels, rng=rng),
        )
        self.stage2 = Sequential(
            conv_bn_relu(channels, 2 * channels, stride=2, rng=rng),
            conv_bn_relu(2 * channels, 2 * channels, rng=rng),
        )
        self.shared = conv_bn_relu(2 * channels, channels, rng=rng)
        self.head = Conv2D(channels, 1 + BOX_DIM, kernel_size=3, rng=rng)
        self._coords = None

    def forward(self, batch: PillarBatch):
        pillar_features = self.pillar_net(
            (batch.point_features, batch.point_counts)
        )
        dense = scatter_to_dense(batch.coords, pillar_features,
                                 self.grid.shape)[None]
        self._coords = batch.coords
        dense = self.regularizer(dense)
        dense = self.pruner(dense)
        features = self.stage1(dense)
        features = self.stage2(features)
        features = self.shared(features)
        return self.head(features)

    def backward(self, grad):
        grad = self.head.backward(grad)
        grad = self.shared.backward(grad)
        grad = self.stage2.backward(grad)
        grad = self.stage1.backward(grad)
        grad = self.pruner.backward(grad)
        grad = self.regularizer.backward(grad)
        coords = self._coords
        pillar_grad = grad[0][:, coords[:, 0], coords[:, 1]].T
        return self.pillar_net.backward(pillar_grad.astype(np.float32))


def gaussian_heatmap_targets(boxes: list, grid: GridSpec,
                             stride: int = 4,
                             sigma_cells: float = 1.0) -> DetectionTargets:
    """Center targets with a Gaussian splat around each object center.

    CenterPoint supervises a soft heatmap rather than one-hot cells; the
    Gaussian radius here is fixed (objects at this scale span few cells).
    """
    base = build_targets(boxes, grid, stride)
    height, width = base.objectness.shape[2:]
    heatmap = np.zeros((height, width), dtype=np.float32)
    rows, cols = np.nonzero(base.objectness[0, 0])
    ys, xs = np.mgrid[0:height, 0:width]
    for row, col in zip(rows, cols):
        splat = np.exp(-((ys - row) ** 2 + (xs - col) ** 2)
                       / (2 * sigma_cells**2))
        heatmap = np.maximum(heatmap, splat.astype(np.float32))
    return DetectionTargets(
        objectness=heatmap[None, None],
        boxes=base.boxes,
        box_mask=base.box_mask,
    )


def center_loss(outputs: np.ndarray, targets: DetectionTargets) -> tuple:
    """Focal heatmap loss + masked smooth-L1 box loss."""
    logits = outputs[:, :1]
    boxes = outputs[:, 1:]
    heat_loss, heat_grad = focal_loss_with_logits(
        logits, targets.objectness, alpha=0.5, gamma=2.0
    )
    box_loss, box_grad = smooth_l1(
        boxes, targets.boxes, np.broadcast_to(targets.box_mask, boxes.shape)
    )
    grad = np.concatenate([20.0 * heat_grad, 2.0 * box_grad], axis=1)
    return 20.0 * heat_loss + 2.0 * box_loss, grad.astype(np.float32)


def decode_centers(outputs: np.ndarray, grid: GridSpec, stride: int = 4,
                   score_threshold: float = 0.25,
                   max_detections: int = 50) -> list:
    """Peak-pick the heatmap into scored boxes (3x3 local-max NMS)."""
    probs = sigmoid(outputs[0, 0])
    boxes = outputs[0, 1:]
    height, width = probs.shape
    padded = np.pad(probs, 1, constant_values=0.0)
    windows = np.stack([
        padded[dr:dr + height, dc:dc + width]
        for dr in range(3) for dc in range(3)
    ])
    is_peak = probs >= windows.max(axis=0) - 1e-9
    rows, cols = np.nonzero((probs > score_threshold) & is_peak)
    order = np.argsort(-probs[rows, cols])[:max_detections]
    cell = grid.pillar_size * stride
    detections = []
    for index in order:
        row, col = int(rows[index]), int(cols[index])
        center_x = grid.x_range[0] + (col + 0.5) * cell + boxes[0, row, col] * cell
        center_y = grid.y_range[0] + (row + 0.5) * cell + boxes[1, row, col] * cell
        length = float(np.exp(np.clip(boxes[2, row, col], -3, 3)))
        width_m = float(np.exp(np.clip(boxes[3, row, col], -3, 3)))
        detections.append(
            BoundingBox3D(
                center=(float(center_x), float(center_y), -1.0),
                size=(length, width_m, 1.6),
                yaw=0.0,
                score=float(probs[row, col]),
            )
        )
    return detections
