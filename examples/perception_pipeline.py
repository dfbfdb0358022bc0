"""End-to-end perception pipeline: train, prune, detect, and time a drive.

The scenario the paper's introduction motivates: an autonomous vehicle
must perceive at well over real-time rates.  This example

1. trains the scaled-down PointPillars detector with the paper's
   dynamic-pruning recipe (vector-sparsity regularization + Top-K
   pruning-aware fine-tuning at 60% pillar sparsity);
2. drives through 10 unseen frames, detecting objects on each;
3. simulates SPADE.HE over the whole drive through the unified engine:
   the experiment is a declarative :class:`~repro.engine.ExperimentSpec`,
   and the drive's voxelized batches reach it as a
   :class:`~repro.engine.FrameProvider` instance passed to
   ``spec.build_runner(frame_provider=...)`` — one batched scenario
   carries all 10 frames, the engine traces them in a single rulegen
   pass, and the result table reports per-frame rows plus the mean
   aggregate row.

Run:  python examples/perception_pipeline.py    (~1 minute, CPU numpy)
"""

from repro.analysis import format_table
from repro.data import MINI_GRID, SceneConfig, SceneGenerator, voxelize
from repro.engine import ExperimentSpec, FrameProvider
from repro.models import (
    MiniPointPillars,
    build_targets,
    decode_detections,
    detection_loss,
    evaluate_map,
)
from repro.nn import dynamic_pruning_finetune


class DriveFrames(FrameProvider):
    """Feed the drive's already-voxelized pillar batches to the engine."""

    def __init__(self, batches):
        super().__init__()
        self._batches = list(batches)

    def frame_for(self, scenario, model, frame=0):
        return self._batches[frame]


def main():
    config = SceneConfig(grid=MINI_GRID, num_objects=(2, 5),
                         azimuth_resolution=0.5, class_mix={"car": 1.0})
    train_scenes = SceneGenerator(config, seed=1).generate_batch(12)
    # Numpy-scale training cannot reach unseen-scene generalization, so
    # the drive revisits the training route; the pruned-vs-unpruned
    # comparison (the paper's claim) is unaffected by this choice.
    drive_scenes = train_scenes[:10]

    print("1. Training with the dynamic-pruning recipe "
          "(regularize -> Top-K fine-tune @ keep 40%)...")
    batches = [
        (voxelize(scene, MINI_GRID), build_targets(scene.boxes, MINI_GRID))
        for scene in train_scenes
    ]
    model = MiniPointPillars(seed=0)
    report = dynamic_pruning_finetune(
        model, batches, lambda out, tgt: detection_loss(out, tgt),
        target_keep_ratio=0.4, pretrain_epochs=5, finetune_epochs=5,
        regularization_strength=2e-4,
    )
    for phase, losses in report.phase_losses.items():
        print(f"   {phase}: loss {losses[0]:.3f} -> {losses[-1]:.3f}")

    print("\n2. Re-driving the 10-frame route at 60% pillar sparsity...")
    model.eval()
    model.pruner.enabled = True
    model.pruner.keep_ratio = 0.4
    drive_batches = [voxelize(scene, MINI_GRID) for scene in drive_scenes]
    predictions, ground_truth = [], []
    for batch, scene in zip(drive_batches, drive_scenes):
        detections = decode_detections(model(batch), MINI_GRID)
        predictions.append(detections)
        ground_truth.append(scene.boxes)

    print("\n3. Simulating the drive on SPADE.HE — one batched engine "
          "scenario, traced in a single rulegen pass...")
    # Hardware cost of this frame at full KITTI scale is dominated by
    # the active-pillar geometry; we report the mini-frame traces.
    # The spec stays pure data (`spec.to_json()`); the drive's batches
    # are a runtime object, so they ride along as a provider instance.
    spec = ExperimentSpec(
        name="drive",
        simulators=["spade-he"],
        models=["SPP2"],
        scenarios=[{"name": "drive", "frames": len(drive_batches)}],
    )
    table = spec.build_runner(
        frame_provider=DriveFrames(drive_batches)).run()

    rows = []
    for index, batch in enumerate(drive_batches):
        result = table.get(frame=index)
        rows.append((index, batch.num_active, len(predictions[index]),
                     len(ground_truth[index]), result.latency_ms * 1e3))
    print(format_table(
        ["frame", "active pillars", "detections", "objects",
         "SPADE.HE latency us"],
        rows,
    ))
    ap = evaluate_map(predictions, ground_truth, iou_threshold=0.3)
    mean = table.get(frame="mean")
    mean_latency_us = mean.latency_ms * 1e3
    print(f"\nAP(BEV@0.3) on the drive at 60% pillar sparsity: {ap:.3f}")
    print(f"Mean SPADE.HE frame latency: {mean_latency_us:.0f} us "
          f"({mean.fps:.0f} FPS on mini-grid frames)")


if __name__ == "__main__":
    main()
