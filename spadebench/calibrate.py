"""Choose the scene pools the workloads draw from.

The cost of a sweep follows its scenes: a KITTI scene's pillar count
varies by about 6% from seed to seed, and tile planning for the
small-buffer design points by far more.  Were ``--seed`` to pick scene
seeds directly, run-to-run spread would measure the scenes, not the
code.  So each workload draws its scenes from a pool of *typical*
scenes: ones whose work counts all sit near the median of a survey.
The counts are deterministic (pillars, rule pairs, tile-planning
window searches), so the pool does not depend on the machine.

Run from the repository root, then record the golden rows::

    python3 spadebench/calibrate.py            # writes spadebench/pools.json
    python3 spadebench/run.py --write-golden --workload <each>

``--survey PATH`` keeps the survey's counts in ``PATH`` and reuses them
on the next call, so a pool can be re-chosen without surveying again;
delete a family's entry from the file to survey it afresh.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOLS_PATH = HERE / "pools.json"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.core import gsu  # noqa: E402
from repro.engine import (  # noqa: E402
    ExperimentRunner,
    Scenario,
    TraceCache,
)

import workloads  # noqa: E402

KITTI_CANDIDATES = 200
NUSCENES_CANDIDATES = 60
#: (pool, survey, counts that must be typical, pool size).  kitti-grid
#: takes two scenes per input, so its 40 scenes make 20 inputs.  A
#: dse-warm sweep is nearly all tile planning, whose work is the window
#: searches; they vary widely between scenes, hence the smaller pool.
POOLS = (
    ("kitti-grid", "kitti", ("pillars", "grid_windows", "grid_pairs"), 40),
    ("dse-warm", "kitti", ("dse_windows",), 12),
    ("nuscenes-seq", "nuscenes", ("pillars", "pairs"), 16),
)


def _count_windows():
    """Wrap the planner's window search; returns the call counter."""
    counter = {"calls": 0}
    original = gsu._output_window

    def counted(*args):
        counter["calls"] += 1
        return original(*args)

    gsu._output_window = counted
    return counter


def kitti_counts(seed: int, windows: dict) -> dict:
    """Work counts of one KITTI scene under the kitti-grid and dse-warm
    simulators."""
    scenario = Scenario("calibrate", seed=seed)
    counts = {}
    for key, simulators, models in (
        ("grid", workloads.KITTI_SIMULATORS, workloads.KITTI_MODELS),
        ("dse", [workloads._build_dse_variant(key, *flags)
                 for flags in ((), ("noopt",))
                 for key in workloads.DSE_CANDIDATES] + ["dense-he"],
         ["SPP2", "SPP3"]),
    ):
        runner = ExperimentRunner(simulators, models, [scenario],
                                  cache=TraceCache(disk_dir=None),
                                  backend="serial")
        windows["calls"] = 0
        runner.run()
        counts[f"{key}_windows"] = windows["calls"]
        pillars = runner.frame_provider.frame_for(scenario, "SPP1")
        counts["pillars"] = len(pillars.coords)
        counts[f"{key}_pairs"] = sum(
            layer.rules.total_pairs
            for model in models
            for layer in runner.trace_for(scenario, model).layers
            if layer.rules is not None)
    return counts


def nuscenes_counts(base: int) -> dict:
    """Work counts of one nuScenes sequence."""
    frames = workloads.NuscenesSeq.frames
    scenario = Scenario("calibrate", seed=base, frames=frames)
    runner = ExperimentRunner(["stats"], ["SCP1", "SCP2"], [scenario],
                              cache=TraceCache(disk_dir=None),
                              backend="serial", delta_trace=True)
    pillars = pairs = 0
    for model in runner.models:
        for trace in runner.trace_chain(scenario, model):
            pairs += sum(layer.rules.total_pairs for layer in trace.layers
                         if layer.rules is not None)
    for frame in range(frames):
        pillars += len(runner.frame_provider.frame_for(
            scenario, "SCP1", frame).coords)
    return {"pillars": pillars, "pairs": pairs}


def typical(survey: dict, names: tuple, size: int) -> list:
    """The ``size`` candidates closest to the median on every count.

    Candidates are ranked by their largest relative distance from the
    survey median over the named counts, so each chosen one is typical
    in every stage's work at once.
    """
    medians = {name: statistics.median(counts[name]
                                       for counts in survey.values())
               for name in names}

    def distance(seed):
        return max(abs(survey[seed][name] / medians[name] - 1)
                   for name in names)

    chosen = sorted(survey, key=distance)[:size]
    print(f"  worst distance from the median: "
          f"{distance(chosen[-1]):.4f}", file=sys.stderr)
    return sorted(chosen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(POOLS_PATH))
    parser.add_argument("--survey")
    args = parser.parse_args(argv)
    surveys = {}
    if args.survey and Path(args.survey).exists():
        surveys = {
            family: {int(seed): counts for seed, counts in survey.items()}
            for family, survey in json.loads(
                Path(args.survey).read_text()).items()
        }
    if "kitti" not in surveys:
        print("surveying KITTI scenes", file=sys.stderr)
        windows = _count_windows()
        surveys["kitti"] = {seed: kitti_counts(seed, windows)
                            for seed in range(KITTI_CANDIDATES)}
    if "nuscenes" not in surveys:
        print("surveying nuScenes sequences", file=sys.stderr)
        frames = workloads.NuscenesSeq.frames
        surveys["nuscenes"] = {
            base: nuscenes_counts(base)
            for base in range(0, NUSCENES_CANDIDATES * frames, frames)
        }
    if args.survey:
        Path(args.survey).write_text(json.dumps(surveys))
    pools = {}
    for pool, family, names, size in POOLS:
        print(pool, file=sys.stderr)
        pools[pool] = typical(surveys[family], names, size)
    Path(args.out).write_text(json.dumps(pools, indent=1) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
