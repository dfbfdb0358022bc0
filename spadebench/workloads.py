"""The benchmark's workloads: closed-loop sweeps through the engine.

Every sweep ends the way ``repro run --out results.csv`` does: the
result table is written as CSV and a :class:`RunManifest` (collected
through a :class:`RunObserver`) is written next to it.  One client runs
in one process and each sweep starts when the previous one returns.

The workload seed picks scenes from the pools in ``pools.json`` (see
``calibrate.py``): the same seed always gives the same frames, and every
pool scene costs about the same, so the spread between runs on different
seeds measures the code rather than the scenes.  A workload has
:attr:`Workload.period` distinct inputs; seed ``n`` runs input
``n % period``, and the golden rows cover each of them.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

from repro.core import SPADE_HE, SPADE_LE, SpadeConfig
from repro.engine import (
    ExperimentSpec,
    FrameProvider,
    RunManifest,
    RunObserver,
    Scenario,
    SpadeSimulator,
    TraceCache,
    register_simulator,
)
from repro.engine.manifest import manifest_path_for

POOLS = json.loads((Path(__file__).resolve().parent / "pools.json")
                   .read_text())

KITTI_SIMULATORS = ["spade-he", "spade-le", "dense-he", "pointacc-he"]
KITTI_MODELS = ["SPP1", "SPP2", "SPP3"]

#: The design points of ``examples/design_space_exploration.py``, copied
#: so that editing the example cannot silently change the benchmark.
DSE_CANDIDATES = {
    "le": ("LE (paper)", SPADE_LE),
    "32x32": ("32x32", SpadeConfig(name="32x32", pe_rows=32, pe_cols=32,
                                   buf_in_bytes=32 * 1024,
                                   buf_out_bytes=128 * 1024,
                                   dram_bytes_per_cycle=32)),
    "he": ("HE (paper)", SPADE_HE),
    "hesmallbuf": ("HE small-buf", replace(SPADE_HE,
                                           buf_in_bytes=8 * 1024,
                                           buf_out_bytes=64 * 1024)),
    "128x128": ("128x128", SpadeConfig(name="128x128", pe_rows=128,
                                       pe_cols=128,
                                       buf_in_bytes=64 * 1024,
                                       buf_out_bytes=512 * 1024,
                                       dram_bytes_per_cycle=128)),
}


def _build_dse_variant(key: str = "", *flags):
    """``dse-<key>`` / ``dse-<key>-noopt``: one design point."""
    if key not in DSE_CANDIDATES:
        raise ValueError(f"unknown DSE variant {key!r}; "
                         f"choices: {sorted(DSE_CANDIDATES)}")
    label, config = DSE_CANDIDATES[key]
    optimize = "noopt" not in flags
    return SpadeSimulator(config, optimize=optimize,
                          name=label + ("" if optimize else " (no opt)"))


def run_sweep(spec: ExperimentSpec, out_dir: Path, **runtime):
    """One sweep as ``repro run --out results.csv`` runs it.

    Returns the result table and the run's :class:`RunObserver`.
    """
    runner = spec.build_runner(**runtime)
    observer = RunObserver()
    table = runner.run(observer=observer)
    out = out_dir / "results.csv"
    table.to_csv(path=out)
    RunManifest.collect(runner, table, observer=observer).write(
        manifest_path_for(out))
    return table, observer


class Workload:
    """One named workload; subclasses define the grid and the set-up.

    Args:
        seed: The workload seed (scenario seeds derive from it).
        work_dir: Scratch directory the sweeps write their outputs to.
    """

    name = ""
    #: Golden file stem: ``<golden>.jsonl`` holds the default-seed rows
    #: and ``<golden>.digests.json`` each input's per-cell digests.
    golden = ""
    #: Number of distinct inputs the seeds cycle through.
    period = 1
    #: Which workers the sweep's backend runs; 1 for the serial backend.
    workers = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.index = seed % self.period
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def spec(self) -> ExperimentSpec:
        """A fresh spec for one sweep (validation builds simulators)."""
        raise NotImplementedError

    def setup(self) -> None:
        """State shared by every sweep; repeatable from scratch."""

    def runtime(self) -> dict:
        """Runtime objects one sweep's runner gets (cache, frames)."""
        return {"cache": TraceCache(disk_dir=None)}

    def sweep(self):
        """Run one sweep; returns (table, observer)."""
        return run_sweep(self.spec(), self.work_dir, **self.runtime())


class KittiGrid(Workload):
    """The ROADMAP bench grid as a cold ``repro run``: two drives x
    SPP1-3 x four simulators, serial, fresh cache and frames."""

    name = "kitti-grid"
    golden = "kitti-grid"
    period = len(POOLS["kitti-grid"]) // 2
    backend = "serial"

    def spec(self):
        pool = POOLS["kitti-grid"]
        return ExperimentSpec(
            name=self.name,
            simulators=list(KITTI_SIMULATORS),
            models=list(KITTI_MODELS),
            scenarios=[Scenario("drive-0", seed=pool[2 * self.index]),
                       Scenario("drive-1", seed=pool[2 * self.index + 1])],
            backend=self.backend,
            workers=self.workers,
        )


class KittiGridProcess(KittiGrid):
    """The kitti-grid cells through the process pool, two workers."""

    name = "kitti-grid-process"
    backend = "process"
    workers = 2


class NuscenesSeq(Workload):
    """One 4-frame sequence on the 512x512 nuScenes grid, delta-traced,
    serial and cold: trace-heavy and planning-free.

    Four frames rather than eight: a sweep then takes about 1.5 s, so a
    run holds enough sweeps for a steady median on a shared machine,
    and peak memory stays near 400 MB.
    """

    name = "nuscenes-seq"
    golden = "nuscenes-seq"
    period = len(POOLS["nuscenes-seq"])
    frames = 4

    def spec(self):
        return ExperimentSpec(
            name=self.name,
            simulators=["dense-he", "stats"],
            models=["SCP1", "SCP2"],
            scenarios=[Scenario("seq",
                                seed=POOLS["nuscenes-seq"][self.index],
                                frames=self.frames)],
            backend="serial",
            delta_trace=True,
        )


class DseWarm(Workload):
    """The design-space sweep on warm inputs: frames are built and the
    trace disk tier filled in set-up; each sweep gets a fresh memory
    tier over that disk tier, as a second ``repro run`` would."""

    name = "dse-warm"
    golden = "dse-warm"
    period = len(POOLS["dse-warm"])

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        register_simulator("dse", _build_dse_variant, overwrite=True)
        self.cache_dir = self.work_dir / "trace-cache"
        self.frames = None

    def spec(self):
        return ExperimentSpec(
            name=self.name,
            simulators=[f"dse-{key}" for key in DSE_CANDIDATES]
            + [f"dse-{key}-noopt" for key in DSE_CANDIDATES]
            + ["dense-he"],
            models=["SPP2", "SPP3"],
            scenarios=[Scenario("kitti-dse",
                                seed=POOLS["dse-warm"][self.index])],
            backend="serial",
        )

    def setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.frames = FrameProvider()
        runner = self.spec().build_runner(
            cache=TraceCache(disk_dir=self.cache_dir),
            frame_provider=self.frames)
        for scenario in runner.scenarios:
            for model in runner.models:
                runner.trace_for(scenario, model)

    def runtime(self):
        return {"cache": TraceCache(disk_dir=self.cache_dir),
                "frame_provider": self.frames}


WORKLOADS = {
    workload.name: workload
    for workload in (KittiGrid, NuscenesSeq, DseWarm, KittiGridProcess)
}
