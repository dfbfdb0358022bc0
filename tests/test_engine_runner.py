"""Unified engine: trace cache behaviour, parallel/serial equality,
schema parity with the legacy per-simulator APIs, and the Table-1
sweep-equivalence acceptance check."""

import numpy as np
import pytest

from repro.analysis import trace_model
from repro.baselines import (
    A6000,
    PlatformModel,
    PointAccSimulator,
    SpConv2DAccModel,
)
from repro.core import SPADE_HE, SPADE_LE, DenseAccelerator, SpadeAccelerator
from repro.engine import (
    DenseAccSimulator,
    ExperimentRunner,
    FrameProvider,
    PlatformSim,
    PointAccSim,
    Scenario,
    SimResult,
    SpadeSimulator,
    SpConv2DSim,
    TraceCache,
    build_simulator,
)
from repro.engine.cache import frame_fingerprint, spec_fingerprint
from repro.models import TABLE1_MODELS, build_model_spec


@pytest.fixture(scope="module")
def spp2_trace(kitti_batch):
    return trace_model(
        build_model_spec("SPP2"),
        kitti_batch.coords,
        kitti_batch.point_counts.astype(float),
    )


class TestTraceCache:
    def test_content_keyed_hit(self, kitti_batch):
        cache = TraceCache()
        spec = build_model_spec("SPP2")
        importance = kitti_batch.point_counts.astype(float)
        first = cache.get_trace(spec, kitti_batch.coords, importance)
        # A *distinct but equal* spec object and copied arrays still hit.
        second = cache.get_trace(
            build_model_spec("SPP2"),
            kitti_batch.coords.copy(),
            importance.copy(),
        )
        assert first is second
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "by_label": {},
            "disk_hits": 0,
            "disk_writes": 0,
            "delta_layers": 0,
            "shared_layers": 0,
            "full_layers": sum(
                1 for layer in first.layers if layer.rules is not None
            ),
            "quarantined": 0,
            "disk_dir": None,
        }

    def test_counts_layers_that_share_rules(self, kitti_batch):
        # SPP3's SpConv-S chains repeat their input: B1C3-B1C4,
        # B2C3-B2C6 and B3C3-B3C6 reuse the rules of the layer before,
        # and only the other 9 of its 19 sparse layers build rules.
        cache = TraceCache()
        trace = cache.get_trace(build_model_spec("SPP3"), kitti_batch.coords)
        stats = cache.stats()
        assert (stats["delta_layers"], stats["shared_layers"],
                stats["full_layers"]) == (0, 10, 9)
        shared = [layer.spec.name for before, layer
                  in zip(trace.layers, trace.layers[1:])
                  if layer.rules is not None and layer.rules is before.rules]
        assert shared == ["B1C3", "B1C4", "B2C3", "B2C4", "B2C5", "B2C6",
                          "B3C3", "B3C4", "B3C5", "B3C6"]
        # A hit computes nothing, so it counts no layer.
        cache.get_trace(build_model_spec("SPP3"), kitti_batch.coords)
        assert cache.stats()["shared_layers"] == 10

    def test_different_frame_misses(self, kitti_batch, mini_batch):
        cache = TraceCache()
        spec = build_model_spec("SPP2")
        cache.get_trace(spec, kitti_batch.coords)
        cache.get_trace(spec, mini_batch.coords)
        assert cache.stats()["misses"] == 2

    def test_spec_fingerprint_sensitivity(self):
        spp2 = build_model_spec("SPP2")
        assert spec_fingerprint(spp2) == spec_fingerprint(
            build_model_spec("SPP2")
        )
        assert spec_fingerprint(spp2) != spec_fingerprint(
            build_model_spec("SPP1")
        )
        mutated = build_model_spec("SPP2")
        mutated.layers[0].out_channels += 1
        assert spec_fingerprint(spp2) != spec_fingerprint(mutated)

    def test_frame_fingerprint_sensitivity(self, mini_batch):
        coords = mini_batch.coords
        base = frame_fingerprint(coords)
        assert base == frame_fingerprint(coords.copy())
        assert base != frame_fingerprint(coords[:-1])
        ones = frame_fingerprint(coords, np.ones(len(coords)))
        twos = frame_fingerprint(coords, 2 * np.ones(len(coords)))
        assert ones != twos

    def test_maxsize_evicts_oldest(self, kitti_batch, mini_batch):
        cache = TraceCache(maxsize=1)
        spec = build_model_spec("SPP3")
        cache.get_trace(spec, kitti_batch.coords)
        cache.get_trace(spec, mini_batch.coords)
        assert len(cache) == 1
        cache.get_trace(spec, kitti_batch.coords)   # evicted -> recompute
        assert cache.stats()["misses"] == 3

    def test_eviction_drops_the_entrys_label(self, kitti_batch,
                                             mini_batch):
        cache = TraceCache(maxsize=1)
        spec = build_model_spec("SPP3")
        for frame, label in ((kitti_batch, "a"), (mini_batch, "b"),
                             (kitti_batch, "c")):
            cache.get_trace(spec, frame.coords, label=(label, "SPP3"))
        assert len(cache) == 1
        assert len(cache._labels) == 1
        assert cache.stats()["by_label"] == {("c", "SPP3"): 1}


class TestRunnerCaching:
    def test_rulegen_once_per_model_frame(self, monkeypatch):
        """The acceptance property: trace_model (and with it rulegen)
        executes once per (scenario, model) no matter how many simulators
        consume the trace or how many times the grid re-runs."""
        import repro.engine.cache as cache_module

        calls = []
        real_trace_model = cache_module.trace_model

        def counting(spec, coords, importance=None, grid_shape=None,
                     rulegen_shards=None, prev_trace=None):
            calls.append(spec.name)
            return real_trace_model(spec, coords, importance,
                                    grid_shape=grid_shape,
                                    rulegen_shards=rulegen_shards,
                                    prev_trace=prev_trace)

        monkeypatch.setattr(cache_module, "trace_model", counting)
        runner = ExperimentRunner(
            simulators=["spade-he", "dense-he", "pointacc-he"],
            models=["SPP2", "SPP3"],
            cache=TraceCache(),
        )
        # Both runs are serial and in-process (serial is the configured
        # default), so the patched trace_model sees every trace and the
        # second run is served from the first run's cache.
        first = runner.run()
        second = runner.run(backend="serial")
        assert len(first) == len(second) == 6
        assert list(first) == list(second)
        assert sorted(calls) == ["SPP2", "SPP3"]
        assert runner.cache.stats()["misses"] == 2
        # 2 trace lookups per run x 2 runs, minus the 2 misses.
        assert runner.cache.stats()["hits"] == 2


    def test_remapped_frames_hit_a_filled_cache(self):
        """The benchmark suite's seam: a provider that maps every
        scenario onto one bench frame, over a cache ``get_trace``
        already filled, runs without a miss and gives the rows of the
        same simulators run on those traces directly."""
        bench = Scenario("bench", seed=3)

        class BenchFrames(FrameProvider):
            def frame_for(self, scenario, model, frame=0):
                return super().frame_for(bench, model, frame)

        frames = BenchFrames()
        cache = TraceCache()
        models = ["SPP2", "SPP3"]
        traces = {}
        for name in models:
            built = frames.frame_for(bench, name)
            traces[name] = cache.get_trace(
                build_model_spec(name),
                built.coords,
                built.point_counts.astype(float),
            )
        before = cache.stats()
        simulators = [build_simulator("spade-he"),
                      build_simulator("dense-he")]
        runner = ExperimentRunner(
            simulators=simulators,
            models=models,
            scenarios=[Scenario("drive", seed=11)],
            frame_provider=frames,
            cache=cache,
        )
        table = runner.run()
        after = cache.stats()
        assert before["misses"] == after["misses"] == 2
        assert after["hits"] == before["hits"] + 2
        expected = []
        for name in models:
            for simulator in simulators:
                row = simulator.run(traces[name])
                row.scenario = "drive"
                expected.append(row)
        assert list(table) == expected


class TestRunnerParallelism:
    def test_parallel_equals_serial(self):
        runner = ExperimentRunner(
            simulators=["spade-he", "spade-le", "dense-he", "pointacc-he",
                        "spconv2d", "platform:A6000"],
            models=["SPP2", "SPP3"],
            scenarios=[Scenario("a", seed=0), Scenario("b", seed=7)],
            cache=TraceCache(),
            max_workers=2,
        )
        serial = runner.run(backend="serial")
        before = runner.cache.stats()
        parallel = runner.run(backend="process")
        assert len(serial) == len(parallel) == 2 * 2 * 6
        for left, right in zip(serial, parallel):
            assert left == right
        # Two scenario chunks on two workers, each tracing afresh in its
        # own process: the parent's memory cache saw no lookup (an
        # in-process run would have hit it four times).
        after = runner.cache.stats()
        assert (after["hits"], after["misses"]) == \
            (before["hits"], before["misses"]) == (0, 4)

    def test_distinct_seeds_get_distinct_traces(self):
        # Regression: the trace map must key by the full scenario (the
        # seed included), not just its name — two seeds are two frames.
        runner = ExperimentRunner(
            simulators=["spade-he"],
            models=["SPP3"],
            scenarios=[Scenario("s0", seed=0), Scenario("s1", seed=7)],
            cache=TraceCache(),
        )
        table = runner.run()
        cycles = table.column("cycles")
        assert len(cycles) == 2
        assert cycles[0] != cycles[1]

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentRunner(
                simulators=["spade-he"],
                models=["SPP3"],
                scenarios=[Scenario("drive", seed=0),
                           Scenario("drive", seed=1)],
            )

    def test_duplicate_model_names_rejected(self):
        # Two distinct specs sharing a name would collapse to one trace.
        with pytest.raises(ValueError, match="unique"):
            ExperimentRunner(
                simulators=["spade-he"],
                models=[build_model_spec("SPP3"), "SPP3"],
            )

    def test_duplicate_simulator_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentRunner(
                simulators=["spade-he", SpadeSimulator(SPADE_HE)],
                models=["SPP3"],
            )

    def test_table1_named_spec_with_custom_grid_uses_spec_grid(self):
        # A spec reusing a Table-1 name but carrying a different grid
        # must still be framed on ITS grid, not the zoo's name lookup.
        from repro.data import MINI_GRID

        custom = build_model_spec("SPP3")
        custom.grid = MINI_GRID
        runner = ExperimentRunner(
            simulators=["spade-he"], models=[custom], cache=TraceCache(),
        )
        scenario = runner.scenarios[0]
        frame = runner.frame_provider.frame_for(scenario, custom)
        assert frame.grid.name == MINI_GRID.name
        result = runner.run().get(model="SPP3", simulator="SPADE.HE")
        assert 0 < result.cycles

    def test_custom_grid_keeping_a_builtin_name_gets_its_own_frame(self):
        # Regression: frames were keyed by grid name, so a coarser grid
        # still named "kitti" got whichever KITTI frame was built first.
        from dataclasses import replace

        from repro.data import KITTI_GRID

        coarse = replace(KITTI_GRID, pillar_size=0.32)
        custom = build_model_spec("SPP3")
        custom.name = "SPP3-coarse"
        custom.grid = coarse
        custom_coords = []
        for models in ([custom, "SPP3"], ["SPP3", custom]):
            runner = ExperimentRunner(
                simulators=["spade-he"], models=models, cache=TraceCache(),
            )
            scenario = runner.scenarios[0]
            frames = [runner.frame_provider.frame_for(scenario, model)
                      for model in models]
            ours, builtin = frames if models[0] is custom else frames[::-1]
            assert ours.grid == coarse and builtin.grid == KITTI_GRID
            assert ours.coords[:, 0].max() < coarse.ny
            assert ours.coords[:, 1].max() < coarse.nx
            assert ours.num_active < builtin.num_active
            custom_coords.append(ours.coords.tobytes())
        assert custom_coords[0] == custom_coords[1]

    def test_widened_kitti_grid_is_synthesized_over_its_own_range(self):
        # Regression: a grid still named "kitti" was synthesized over
        # KITTI_SCENE's range, so a wider grid's frame stopped at the last
        # KITTI column (431) however many columns it had.
        from dataclasses import replace

        from repro.data import KITTI_GRID

        wide = replace(KITTI_GRID, x_range=(0, 80), y_range=(-40, 40))
        custom = build_model_spec("SPP2")
        custom.name = "SPP2-wide"
        custom.grid = wide
        runner = ExperimentRunner(
            simulators=["spade-he"], models=[custom], cache=TraceCache(),
        )
        frame = runner.frame_provider.frame_for(runner.scenarios[0], custom)
        assert frame.grid == wide and wide.nx == 500
        assert frame.coords[:, 1].max() >= KITTI_GRID.nx

    def test_custom_modelspec_uses_its_own_grid(self):
        # Regression: a renamed KITTI-grid spec must be fed a KITTI
        # frame, not the zoo's unknown-name nuScenes fallback.
        custom = build_model_spec("SPP2")
        custom.name = "SPP2-custom"
        runner = ExperimentRunner(
            simulators=["spade-he"],
            models=[custom, "SPP2"],
            cache=TraceCache(),
        )
        table = runner.run()
        assert (table.get(model="SPP2-custom", simulator="SPADE.HE").cycles
                == table.get(model="SPP2", simulator="SPADE.HE").cycles)

    def test_unknown_model_name_rejected(self):
        runner = ExperimentRunner(
            simulators=["spade-he"], models=["NotAModel"],
            cache=TraceCache(),
        )
        with pytest.raises(KeyError, match="NotAModel"):
            runner.run()

    def test_cell_filter_skips_cells_and_traces(self, monkeypatch):
        import repro.engine.cache as cache_module

        calls = []
        real_trace_model = cache_module.trace_model

        def counting(spec, coords, importance=None, grid_shape=None,
                     rulegen_shards=None, prev_trace=None):
            calls.append(spec.name)
            return real_trace_model(spec, coords, importance,
                                    grid_shape=grid_shape,
                                    rulegen_shards=rulegen_shards,
                                    prev_trace=prev_trace)

        monkeypatch.setattr(cache_module, "trace_model", counting)
        runner = ExperimentRunner(
            simulators=["spade-he", "dense-he"],
            models=["SPP2", "SPP3", "PP"],
            cache=TraceCache(),
            # SPADE only on the sparse models, DenseAcc only on PP.
            cell_filter=lambda scenario, model, simulator: (
                (model != "PP") == simulator.name.startswith("SPADE")
            ),
        )
        table = runner.run()
        labels = {(r.model, r.simulator) for r in table}
        assert labels == {("SPP2", "SPADE.HE"), ("SPP3", "SPADE.HE"),
                          ("PP", "DenseAcc.HE")}
        # Filtered-out cells are not traced either: 3 models, 3 traces,
        # but had the filter leaked, nothing changes here — the real
        # check is that no extra simulation rows exist above.
        assert sorted(calls) == ["PP", "SPP2", "SPP3"]

    def test_row_order_deterministic(self):
        runner = ExperimentRunner(
            simulators=["spade-he", "dense-he"],
            models=["SPP3"],
            scenarios=[Scenario("x"), Scenario("y", seed=5)],
            cache=TraceCache(),
        )
        table = runner.run()
        labels = [(r.scenario, r.model, r.simulator) for r in table]
        assert labels == [
            ("x", "SPP3", "SPADE.HE"),
            ("x", "SPP3", "DenseAcc.HE"),
            ("y", "SPP3", "SPADE.HE"),
            ("y", "SPP3", "DenseAcc.HE"),
        ]


class TestSchemaParity:
    """Each adapter reports exactly the numbers its legacy simulator
    produces — the unified schema is a view, not a re-model."""

    def test_spade(self, spp2_trace):
        legacy = SpadeAccelerator(SPADE_HE).run_trace(spp2_trace)
        unified = SpadeSimulator(SPADE_HE).run(spp2_trace)
        assert unified.cycles == legacy.total_cycles
        assert unified.latency_ms == legacy.latency_ms
        assert unified.fps == legacy.fps
        assert unified.energy_mj == legacy.energy_mj
        assert unified.dram_bytes == legacy.total_dram_bytes
        assert unified.utilization == legacy.utilization(SPADE_HE)
        assert len(unified.per_layer) == len(legacy.layers)
        assert unified.extras["breakdown"] == legacy.breakdown()

    def test_dense(self, spp2_trace):
        legacy = DenseAccelerator(SPADE_HE).run_trace(spp2_trace)
        unified = DenseAccSimulator(SPADE_HE).run(spp2_trace)
        assert unified.cycles == legacy.total_cycles
        assert unified.energy_mj == legacy.energy_mj
        assert unified.dram_bytes == legacy.total_dram_bytes

    def test_pointacc(self, spp2_trace):
        legacy = PointAccSimulator(SPADE_HE).run_trace(spp2_trace)
        unified = PointAccSim(SPADE_HE).run(spp2_trace)
        assert unified.cycles == legacy.total_cycles
        assert unified.dram_bytes == legacy.total_dram_bytes
        assert unified.extras["phases"] == legacy.phase_totals()
        assert unified.energy_mj is None

    def test_spconv2d(self, spp2_trace):
        model = SpConv2DAccModel()
        expected_cycles = sum(
            model.run_rules(layer.rules, layer.spec.in_channels,
                            layer.spec.out_channels).cycles
            for layer in spp2_trace.layers
            if layer.rules is not None
        )
        unified = SpConv2DSim().run(spp2_trace)
        assert unified.cycles == expected_cycles
        assert unified.extras["skipped_dense_layers"] == sum(
            1 for layer in spp2_trace.layers if layer.rules is None
        )

    def test_platform(self, spp2_trace):
        legacy = PlatformModel(A6000).run_trace(spp2_trace)
        unified = PlatformSim(A6000).run(spp2_trace)
        assert unified.latency_ms == legacy.latency_ms
        assert unified.fps == legacy.fps
        assert unified.energy_mj == legacy.energy_mj
        assert unified.cycles is None
        assert unified.extras["phases"] == legacy.phases()


class TestBuildSimulator:
    def test_registry_specs(self):
        assert build_simulator("spade-he").name == "SPADE.HE"
        assert build_simulator("spade-le-noopt").name == "SPADE.LE (no opt)"
        assert build_simulator("dense-le").name == "DenseAcc.LE"
        assert build_simulator("pointacc-he").name == "PointAcc.HE"
        assert build_simulator("spconv2d").name == "SpConv2D-Acc"
        assert build_simulator("platform:A6000").name == "A6000"

    def test_unknown_specs_raise(self):
        # Unknown/malformed specs are ValueErrors listing the valid
        # names (and remain KeyErrors for pre-registry callers — held
        # by tests/test_engine_registry.py).
        with pytest.raises(ValueError, match="config token"):
            build_simulator("spade-xl")
        with pytest.raises(ValueError, match="unknown platform"):
            build_simulator("platform:TPU")
        with pytest.raises(ValueError, match="registered"):
            build_simulator("warp-he")


class TestTable1SweepEquivalence:
    """Acceptance: the full Table-1 model sweep through the runner is
    numerically identical to the legacy direct-call path."""

    def test_full_sweep_matches_legacy(self):
        runner = ExperimentRunner(
            simulators=[SpadeSimulator(SPADE_HE), SpadeSimulator(SPADE_LE),
                        DenseAccSimulator(SPADE_HE), PointAccSim(SPADE_HE)],
            models=list(TABLE1_MODELS),
            cache=TraceCache(),
        )
        table = runner.run()
        assert len(table) == len(TABLE1_MODELS) * 4

        scenario = runner.scenarios[0]
        for name in TABLE1_MODELS:
            frame = runner.frame_provider.frame_for(scenario, name)
            trace = trace_model(
                build_model_spec(name),
                frame.coords,
                frame.point_counts.astype(float),
            )
            legacy_he = SpadeAccelerator(SPADE_HE).run_trace(trace)
            legacy_le = SpadeAccelerator(SPADE_LE).run_trace(trace)
            legacy_dense = DenseAccelerator(SPADE_HE).run_trace(trace)
            legacy_pa = PointAccSimulator(SPADE_HE).run_trace(trace)

            he = table.get(model=name, simulator="SPADE.HE")
            le = table.get(model=name, simulator="SPADE.LE")
            dense = table.get(model=name, simulator="DenseAcc.HE")
            pointacc = table.get(model=name, simulator="PointAcc.HE")

            assert he.cycles == legacy_he.total_cycles, name
            assert he.energy_mj == legacy_he.energy_mj, name
            assert le.cycles == legacy_le.total_cycles, name
            assert le.energy_mj == legacy_le.energy_mj, name
            assert dense.cycles == legacy_dense.total_cycles, name
            assert dense.energy_mj == legacy_dense.energy_mj, name
            assert pointacc.cycles == legacy_pa.total_cycles, name
            assert pointacc.dram_bytes == legacy_pa.total_dram_bytes, name


class TestResultTable:
    def test_filter_get_column(self):
        results = [
            SimResult(simulator=sim, model=model, cycles=index)
            for index, (sim, model) in enumerate(
                (s, m) for s in ("A", "B") for m in ("m1", "m2")
            )
        ]
        from repro.engine import ExperimentTable

        table = ExperimentTable(results=results)
        assert len(table.filter(simulator="A")) == 2
        assert table.get(simulator="B", model="m1").cycles == 2
        with pytest.raises(KeyError):
            table.get(simulator="A")        # ambiguous: two rows
        with pytest.raises(KeyError):
            table.get(simulator="C")        # no rows
        cycles = table.column("cycles")
        assert isinstance(cycles, np.ndarray)
        assert cycles.tolist() == [0, 1, 2, 3]
        assert table.simulators == ["A", "B"]
        assert table.models == ["m1", "m2"]

    def test_format_results_renders_none(self):
        from repro.analysis import format_results

        text = format_results(
            [SimResult(simulator="S", model="M", cycles=None,
                       latency_ms=1.5)],
            columns=("simulator", "model", "cycles", "latency_ms"),
        )
        assert "S" in text and "-" in text and "1.5" in text
