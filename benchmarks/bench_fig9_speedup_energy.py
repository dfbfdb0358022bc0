"""Fig. 9: SPADE speedup and energy savings vs server/edge platforms.

HE vs A6000 / 2080Ti / Jetson-NX on all seven sparse models; LE vs
Xeon / Jetson Nano.  Paper averages (HE): 3.5x / 4.1x / 28.8x speedup and
349.8x / 349.3x / 84.6x energy savings; overall ranges 1.1-77.6x speedup,
48.8-1117.8x energy savings.

The sweep is *declared*, not assembled: one
:class:`~repro.engine.ExperimentSpec` of registry spec strings
(``"spade-he"``, ``"platform:A6000"`` ...) — the exact grid shape a
``repro run`` spec file carries (see ``examples/specs/fig9_kitti.json``)
— materialized onto the session frames and trace cache.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.baselines import HIGH_END_PLATFORMS, LOW_END_PLATFORMS
from repro.core import SPADE_HE, SPADE_LE
from repro.engine import ExperimentSpec
from repro.models import SPARSE_MODELS


def _compare(frame_provider, trace_cache, config, platforms):
    spec = ExperimentSpec(
        name=f"fig9-{config.name.lower()}",
        simulators=[f"spade-{config.name.lower()}"]
        + [f"platform:{platform.name}" for platform in platforms],
        models=list(SPARSE_MODELS),
    )
    runner = spec.build_runner(frame_provider=frame_provider,
                               cache=trace_cache)
    table = runner.run()
    spade_name = f"SPADE.{config.name}"
    rows = []
    for name in SPARSE_MODELS:
        spade = table.get(model=name, simulator=spade_name)
        row = [name, spade.latency_ms, spade.fps]
        for platform in platforms:
            result = table.get(model=name, simulator=platform.name)
            row.append(result.latency_ms / spade.latency_ms)
            row.append(result.energy_mj / spade.energy_mj)
        rows.append(tuple(row))
    return rows


def _headers(platforms):
    headers = ["model", "SPADE ms", "SPADE fps"]
    for platform in platforms:
        headers.append(f"spd vs {platform.name}")
        headers.append(f"E vs {platform.name}")
    return headers


def test_fig9_high_end(benchmark, frame_provider, trace_cache):
    rows = benchmark.pedantic(_compare, args=(frame_provider, trace_cache,
                                              SPADE_HE, HIGH_END_PLATFORMS),
                              rounds=1, iterations=1)
    print()
    print(format_table(
        _headers(HIGH_END_PLATFORMS), rows,
        title="Fig 9 (left) - SPADE.HE vs high-end platforms (paper avg:"
              " 3.5x/4.1x/28.8x speedup, 349.8x/349.3x/84.6x energy)",
    ))
    speedups_a6000 = [row[3] for row in rows]
    energies_a6000 = [row[4] for row in rows]
    assert 1.5 < np.mean(speedups_a6000) < 12.0
    assert 80.0 < np.mean(energies_a6000) < 1200.0


def test_fig9_low_end(benchmark, frame_provider, trace_cache):
    rows = benchmark.pedantic(_compare, args=(frame_provider, trace_cache,
                                              SPADE_LE, LOW_END_PLATFORMS),
                              rounds=1, iterations=1)
    print()
    print(format_table(
        _headers(LOW_END_PLATFORMS), rows,
        title="Fig 9 (right) - SPADE.LE vs low-end platforms",
    ))
    speedups = [row[3] for row in rows]
    assert all(speedup > 0.5 for speedup in speedups)
