"""Shared engine fixtures for the benchmark harness.

Every experiment runs on the same deterministic synthetic frames so
numbers are comparable across benches and across runs.  All frames and
traces are served by the unified engine — a
:class:`~repro.engine.FrameProvider` seeds and caches the scenes, and a
session :class:`~repro.engine.TraceCache` dedupes rulegen by content.
Engine grids (:func:`make_runner` and the figure runners) read frames
through that provider and traces through that cache, the same path
``repro run`` takes, so a grid cell and the ``traces`` fixture see one
trace object.  Only Fig. 12's energy split calls simulators directly:
``SpadeAccelerator.run_trace`` and ``DenseAccelerator.run_trace`` on
fixture traces.

``--smoke`` (the CI bench job) thins the synthetic sweeps — coarser
azimuth sampling, fewer objects — so every benchmark still executes its
full grid in seconds; shape assertions that need full-density frames
are gated on the flag.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.grids import GridSpec
from repro.engine import (
    ExperimentRunner,
    ExperimentSpec,
    FrameProvider,
    Scenario,
    TraceCache,
)
from repro.models import build_model_spec
from repro.models.specs import LayerOp, LayerSpec, ModelSpec
from repro.sparse import ConvType
from repro.sparse.coords import unflatten


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="tiny frames and single repeats so the whole benchmark "
             "suite exercises in CI time",
    )


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


class BenchFrames(FrameProvider):
    """Session frame source: one bench frame per grid.

    Whatever scenario a runner asks for, a model gets its grid's bench
    frame: KITTI seed 0 for the SPP family, nuScenes seed 1 for the
    SCP/PN family (the pre-engine fixtures' seeds).  ``--smoke`` thins
    the synthetic sweeps.
    """

    def __init__(self, smoke: bool):
        super().__init__()
        self._smoke = smoke

    def frame_for(self, scenario, model, frame: int = 0):
        grid, _ = self._grid_and_config(model)
        bench = _KITTI_SCENARIO if grid.name == "kitti" \
            else _NUSCENES_SCENARIO
        return super().frame_for(bench, model, frame)

    def _grid_and_config(self, model):
        grid, config = FrameProvider._grid_and_config(model)
        if self._smoke:
            config = replace(
                config,
                azimuth_resolution=5.0 * config.azimuth_resolution,
                num_objects=(2, 6),
            )
        return grid, config


_KITTI_SCENARIO = Scenario("bench", seed=0)
_NUSCENES_SCENARIO = Scenario("bench", seed=1)


@pytest.fixture(scope="session")
def frame_provider(smoke) -> FrameProvider:
    return BenchFrames(smoke)


@pytest.fixture(scope="session")
def frame_for(frame_provider):
    """A model's bench frame (the provider picks the scenario)."""
    return lambda model_name: frame_provider.frame_for(None, model_name)


@pytest.fixture(scope="session")
def trace_cache():
    """One content-keyed trace cache shared by the whole bench session."""
    return TraceCache()


@pytest.fixture(scope="session")
def traces(frame_for, trace_cache):
    """Geometric traces of every Table I model on its benchmark frame.

    Rulegen runs once per (model, frame) across every benchmark file in
    the session — the engine's :class:`TraceCache` dedupes by content.
    """

    def lookup(model_name):
        frame = frame_for(model_name)
        return trace_cache.get_trace(
            build_model_spec(model_name),
            frame.coords,
            frame.point_counts.astype(float),
        )

    return lookup


@pytest.fixture(scope="session")
def make_runner(frame_provider, trace_cache):
    """Factory for engine grids on the session's frames and traces.

    Grids are declared through :class:`ExperimentSpec` — the same
    declarative layer ``repro run`` executes — with the session frame
    provider and trace cache injected as the runtime objects a spec file
    cannot carry; remaining keyword arguments pass through to
    :meth:`ExperimentSpec.build_runner` (knob overrides, cell filters).
    """

    def build(simulators, models, **kwargs) -> ExperimentRunner:
        spec = ExperimentSpec(
            name="bench",
            simulators=list(simulators),
            models=list(models),
        )
        return spec.build_runner(
            frame_provider=frame_provider, cache=trace_cache, **kwargs
        )

    return build


# ---------------------------------------------------------------------------
# Micro-sweep plumbing (Figs. 2(b), 5(b), 6(c)): random uniform active
# masks at a swept pillar count, run through the engine like any frame.
# ---------------------------------------------------------------------------


def micro_model_spec(shape: tuple, channels: int = 64,
                     name: str = "micro-spconv") -> ModelSpec:
    """Single 3x3 SpConv layer on an abstract ``shape`` grid.

    The micro studies sweep substrate behaviour on one layer's rule
    stream; this spec is the minimal workload carrying it through the
    engine.
    """
    grid = GridSpec(
        name=f"{name}-{shape[0]}x{shape[1]}",
        x_range=(0.0, float(shape[1])),
        y_range=(0.0, float(shape[0])),
        z_range=(-3.0, 1.0),
        pillar_size=1.0,
    )
    assert grid.shape == tuple(shape)
    return ModelSpec(
        name=name,
        base="micro",
        grid=grid,
        pillar_channels=channels,
        layers=[
            LayerSpec("L1", LayerOp.SPARSE, channels, channels,
                      conv_type=ConvType.SPCONV),
        ],
    )


class UniformMaskFrames(FrameProvider):
    """Random uniform active masks, one count per scenario name.

    The scenario axis of a micro sweep is the active pillar count; each
    scenario's frame is a seeded uniform draw of that many cells.
    """

    def __init__(self, counts: dict, shape: tuple):
        super().__init__()
        self._counts = dict(counts)
        self._shape = tuple(shape)

    def frame_for(self, scenario, model, frame: int = 0):
        count = self._counts[scenario.name]
        rng = np.random.default_rng(scenario.seed + frame)
        total = self._shape[0] * self._shape[1]
        flat = np.sort(rng.choice(total, count, replace=False))
        coords = unflatten(flat, self._shape)
        return SimpleNamespace(
            coords=coords,
            point_counts=np.ones(len(coords)),
            num_active=len(coords),
        )


def micro_runner(simulators, shape: tuple, counts, channels: int = 64,
                 seed: int = 0) -> ExperimentRunner:
    """Engine grid sweeping active pillar counts on one micro layer."""
    labels = {f"p{count}": count for count in counts}
    spec = ExperimentSpec(
        name="micro",
        simulators=list(simulators),
        models=[micro_model_spec(shape, channels)],
        scenarios=[Scenario(label, seed=seed) for label in labels],
    )
    return spec.build_runner(
        frame_provider=UniformMaskFrames(labels, shape),
        cache=TraceCache(),
    )
