"""Trainable mini-PointPillars for the accuracy/sparsity experiments.

Full-resolution KITTI training is out of reach for a numpy framework, so
the accuracy experiments (paper Fig. 13(a), Table I mAP columns) run a
scaled-down PointPillars on the MINI grid (64 x 64 pillars): the same
architecture shape — PointNet pillar encoder, scatter, two conv stages,
SSD-style head — with hooks for the vector-sparsity regularizer and the
dynamic Top-K pruner at the stage boundary, which is exactly where
SpConv-P prunes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.grids import MINI_GRID, GridSpec
from ..data.pillars import PillarBatch, scatter_to_dense
from ..data.pointcloud import BoundingBox3D
from ..nn.layers import Conv2D, Module, Sequential, conv_bn_relu
from ..nn.losses import bce_with_logits, sigmoid, smooth_l1
from ..nn.pointnet import PillarFeatureNet
from ..nn.regularization import TopKVectorPruner, VectorSparsityRegularizer

#: Box regression targets per cell: (dx, dy, log l, log w).
BOX_DIM = 4


@dataclass
class DetectionTargets:
    """Per-cell training targets on the head grid."""

    objectness: np.ndarray      # (1, 1, H, W)
    boxes: np.ndarray           # (1, BOX_DIM, H, W)
    box_mask: np.ndarray        # (1, 1, H, W) cells with a GT box


class MiniPointPillars(Module):
    """PointPillars at experiment scale with dynamic-pruning hooks.

    Architecture: PillarFeatureNet(9 -> C) -> scatter -> regularizer ->
    pruner -> stage1 (stride 2, 2 convs) -> stage2 (stride 2, 2 convs) ->
    head (1x1 conv -> 1 + BOX_DIM channels) at 1/4 resolution.
    """

    def __init__(self, grid: GridSpec = None, channels: int = 24, seed: int = 0):
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
        self.head = Conv2D(2 * channels, 1 + BOX_DIM, kernel_size=1, rng=rng)
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
        return self.head(features)

    def backward(self, grad):
        grad = self.head.backward(grad)
        grad = self.stage2.backward(grad)
        grad = self.stage1.backward(grad)
        grad = self.pruner.backward(grad)
        grad = self.regularizer.backward(grad)
        # Gather the dense gradient back to the active pillars.
        coords = self._coords
        pillar_grad = grad[0][:, coords[:, 0], coords[:, 1]].T
        return self.pillar_net.backward(pillar_grad.astype(np.float32))


def build_targets(boxes: list, grid: GridSpec, stride: int = 4) -> DetectionTargets:
    """Rasterize ground-truth boxes into per-cell head targets."""
    height = grid.ny // stride
    width = grid.nx // stride
    objectness = np.zeros((1, 1, height, width), dtype=np.float32)
    box_targets = np.zeros((1, BOX_DIM, height, width), dtype=np.float32)
    box_mask = np.zeros((1, 1, height, width), dtype=np.float32)
    cell = grid.pillar_size * stride
    for box in boxes:
        col = int((box.center[0] - grid.x_range[0]) / cell)
        row = int((box.center[1] - grid.y_range[0]) / cell)
        if not (0 <= row < height and 0 <= col < width):
            continue
        objectness[0, 0, row, col] = 1.0
        center_x = grid.x_range[0] + (col + 0.5) * cell
        center_y = grid.y_range[0] + (row + 0.5) * cell
        box_targets[0, 0, row, col] = (box.center[0] - center_x) / cell
        box_targets[0, 1, row, col] = (box.center[1] - center_y) / cell
        box_targets[0, 2, row, col] = np.log(max(box.size[0], 0.1))
        box_targets[0, 3, row, col] = np.log(max(box.size[1], 0.1))
        box_mask[0, 0, row, col] = 1.0
    return DetectionTargets(objectness, box_targets, box_mask)


def detection_loss(outputs: np.ndarray, targets: DetectionTargets) -> tuple:
    """Objectness BCE + masked smooth-L1 box loss; returns (loss, grad)."""
    logits = outputs[:, :1]
    boxes = outputs[:, 1:]
    positives = float(targets.box_mask.sum())
    weight = np.where(targets.objectness > 0.5, 20.0, 1.0)
    cls_loss, cls_grad = bce_with_logits(logits, targets.objectness, weight)
    box_loss, box_grad = smooth_l1(
        boxes, targets.boxes, np.broadcast_to(targets.box_mask, boxes.shape)
    )
    grad = np.concatenate([cls_grad, 2.0 * box_grad], axis=1)
    return cls_loss + 2.0 * box_loss + 0.0 * positives, grad.astype(np.float32)


def decode_detections(
    outputs: np.ndarray,
    grid: GridSpec,
    stride: int = 4,
    score_threshold: float = 0.3,
    max_detections: int = 50,
) -> list:
    """Decode head outputs into scored BEV boxes (greedy peak picking)."""
    probs = sigmoid(outputs[0, 0])
    boxes = outputs[0, 1:]
    cell = grid.pillar_size * stride
    rows, cols = np.nonzero(probs > score_threshold)
    order = np.argsort(-probs[rows, cols])[:max_detections]
    detections = []
    occupied = set()
    for index in order:
        row, col = int(rows[index]), int(cols[index])
        # Cheap NMS: one detection per 3x3 neighbourhood.
        key = (row // 2, col // 2)
        if key in occupied:
            continue
        occupied.add(key)
        center_x = grid.x_range[0] + (col + 0.5) * cell + boxes[0, row, col] * cell
        center_y = grid.y_range[0] + (row + 0.5) * cell + boxes[1, row, col] * cell
        length = float(np.exp(np.clip(boxes[2, row, col], -3, 3)))
        width = float(np.exp(np.clip(boxes[3, row, col], -3, 3)))
        detections.append(
            BoundingBox3D(
                center=(float(center_x), float(center_y), -1.0),
                size=(length, width, 1.6),
                yaw=0.0,
                score=float(probs[row, col]),
            )
        )
    return detections
