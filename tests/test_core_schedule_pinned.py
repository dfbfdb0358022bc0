"""Pinned per-layer schedules of one KITTI frame.

``data/kitti_schedules.json`` holds, for KITTI scene 0 (the
``kitti_batch`` fixture) traced through SPP1-3, every layer's
instruction breakdown, tile count, DRAM bytes and effective T_a under
SPADE HE, SPADE LE and the HE small-buffer design point, each with and
without the dataflow optimisations, plus PointAcc's gather/scatter
cycles and DRAM bytes per layer.  It was recorded from the scalar tile
planner and the per-tile scheduling loop; the vectorized planner,
scheduler and PointAcc gather model must reproduce it exactly.

Regenerate it only for an intended change of results::

    PYTHONPATH=src python tests/test_core_schedule_pinned.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import trace_model
from repro.baselines.pointacc import PointAccSimulator
from repro.core import SPADE_HE, SPADE_LE, SpadeAccelerator
from repro.models import build_model_spec

PINNED = Path(__file__).resolve().parent / "data" / "kitti_schedules.json"
MODELS = ("SPP1", "SPP2", "SPP3")
CONFIGS = {
    "he": SPADE_HE,
    "le": SPADE_LE,
    "he-smallbuf": replace(SPADE_HE, buf_in_bytes=8 * 1024,
                           buf_out_bytes=64 * 1024),
}


def snapshot(batch) -> dict:
    """{model: {config/opt: per-layer rows, "pointacc": rows}}."""
    importance = batch.point_counts.astype(float)
    result = {}
    for model in MODELS:
        trace = trace_model(build_model_spec(model), batch.coords,
                            importance)
        rows = {}
        for key, config in CONFIGS.items():
            for optimize in (True, False):
                run = SpadeAccelerator(config, optimize=optimize)
                rows[f"{key}/{'opt' if optimize else 'noopt'}"] = [
                    [layer.schedule.name, layer.schedule.breakdown,
                     layer.schedule.num_tiles, layer.schedule.dram_bytes,
                     layer.schedule.effective_ta]
                    for layer in run.run_trace(trace).layers
                ]
        rows["pointacc"] = [
            [layer.name, layer.gather_scatter_cycles, layer.dram_bytes]
            for layer in PointAccSimulator(SPADE_HE).run_trace(trace).layers
        ]
        result[model] = rows
    return result


def dump(data: dict) -> str:
    """JSON with one line per layer row, so a diff names the layer."""
    models = []
    for model, runs in data.items():
        blocks = [f'  "{run}": [\n' + ",\n".join(
            "   " + json.dumps(row) for row in rows) + "\n  ]"
            for run, rows in runs.items()]
        models.append(f' "{model}": {{\n' + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(models) + "\n}\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def measured(kitti_batch):
    # Through JSON so tuples and lists compare alike.
    return json.loads(json.dumps(snapshot(kitti_batch)))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("run", [f"{key}/{opt}" for key in CONFIGS
                                 for opt in ("opt", "noopt")]
                         + ["pointacc"])
def test_schedule_matches_pinned(pinned, measured, model, run):
    assert measured[model][run] == pinned[model][run]


if __name__ == "__main__":
    from repro.data import KITTI_GRID, KITTI_SCENE, SceneGenerator, voxelize

    batch = voxelize(SceneGenerator(KITTI_SCENE, seed=0).generate(),
                     KITTI_GRID)
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(dump(snapshot(batch)))
    print(PINNED)
