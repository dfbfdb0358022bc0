"""Execution backends and frame batching: parity across the serial and
process backends, batched-vs-single-frame equivalence, backend and
worker-count selection (arguments and environment variables), and the
process backend's restrictions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExperimentRunner,
    FrameProvider,
    ProcessBackend,
    Scenario,
    SimResult,
    TraceCache,
)
from repro.engine.backends import (
    SerialBackend,
    WorkGroup,
    chunk_payload,
    resolve_backend,
)
from repro.engine.result import mean_result
from repro.engine.settings import (
    BACKEND_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    DELTA_TRACE_ENV_VAR,
    WORKERS_ENV_VAR,
)

#: A Table-1 subset small enough to trace in test time but covering two
#: simulator families and two models.
SUBSET_SIMULATORS = ["spade-he", "dense-he"]
SUBSET_MODELS = ["SPP2", "SPP3"]


def _subset_runner(**kwargs):
    kwargs.setdefault("simulators", list(SUBSET_SIMULATORS))
    kwargs.setdefault("models", list(SUBSET_MODELS))
    kwargs.setdefault("cache", TraceCache())
    return ExperimentRunner(**kwargs)


class TestBackendParity:
    def test_serial_process_identical_tables(self):
        """Acceptance: every backend produces the same ExperimentTable
        for a Table-1 subset — rows, order and numbers."""
        runner = _subset_runner(
            scenarios=[Scenario("a", seed=0), Scenario("b", seed=9)],
        )
        serial = runner.run(backend="serial")
        process = runner.run(backend="process")
        assert len(serial) == len(process) == 8
        for left, right in zip(serial, process):
            assert left == right

    def test_process_backend_rejects_custom_frame_provider(self):
        class CustomFrames(FrameProvider):
            pass

        runner = _subset_runner(frame_provider=CustomFrames())
        with pytest.raises(ValueError, match="FrameProvider"):
            runner.run(backend="process")

    def test_removed_run_options_rejected(self):
        # Frames come only through a FrameProvider and the per-call
        # backend only through run(backend=).
        with pytest.raises(TypeError, match="trace_provider"):
            _subset_runner(trace_provider=lambda scenario, name: None)
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"])
        with pytest.raises(TypeError, match="parallel"):
            runner.run(parallel=False)

    def test_process_backend_chunking_covers_all_groups(self):
        # Two scenarios on two workers: one 3-group chunk per scenario.
        runner = _subset_runner(
            models=["SPP1", "SPP2", "SPP3"],
            simulators=["spade-he"],
            scenarios=[Scenario("a", seed=0), Scenario("b", seed=3)],
            max_workers=2,
        )
        table = runner.run(backend=ProcessBackend(max_workers=2))
        assert len(table) == 6
        assert sorted({row.model for row in table}) == [
            "SPP1", "SPP2", "SPP3",
        ]


class TestBackendSelection:
    def test_resolve_names_and_instances(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("Process"), ProcessBackend)
        backend = ProcessBackend(max_workers=2)
        assert resolve_backend(backend) is backend
        with pytest.raises(KeyError, match="unknown backend"):
            resolve_backend("cluster")
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_env_var_selects_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        runner = _subset_runner()
        assert runner.backend == "process"

    def test_default_backend_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert _subset_runner().backend == "serial"

    def test_constructor_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        runner = _subset_runner(backend="serial")
        assert runner.backend == "serial"

    def test_env_process_default_falls_back_for_custom_frames(
        self, monkeypatch
    ):
        # REPRO_ENGINE_BACKEND=process must not break fixture-fed
        # runners: the env default falls back to serial, while the
        # same runner still fails on an *explicit* process request.
        class FixtureFrames(FrameProvider):
            pass

        executed = []
        real_execute = SerialBackend.execute

        def spy(self, runner, groups):
            executed.append(type(self))
            return real_execute(self, runner, groups)

        monkeypatch.setattr(SerialBackend, "execute", spy)
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        runner = _subset_runner(
            simulators=["spade-he"], models=["SPP3"],
            frame_provider=FixtureFrames(),
        )
        table = runner.run()                    # falls back, succeeds
        assert len(table) == 1
        assert executed == [SerialBackend]
        with pytest.raises(ValueError, match="FixtureFrames"):
            runner.run(backend="process")

    def test_serial_call_overrides_configured_backend(self, monkeypatch):
        # run(backend="serial") stays the debugging escape hatch
        # regardless of the configured backend.
        def refuse(self, runner, groups):
            pytest.fail("the configured process backend ran")

        monkeypatch.setattr(ProcessBackend, "execute", refuse)
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"],
                                backend="process")
        table = runner.run(backend="serial")
        assert len(table) == 1


class TestWorkerCountValidation:
    def test_env_override_applies(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert _subset_runner().settings.workers == 3

    @pytest.mark.parametrize("value", ["0", "-2", "two", "2.5", ""])
    def test_invalid_env_values_rejected(self, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            _subset_runner()

    @pytest.mark.parametrize("value", [0, -1, "zero", 1.5])
    def test_invalid_argument_rejected(self, value):
        with pytest.raises(ValueError, match="max_workers"):
            _subset_runner(max_workers=value)

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert _subset_runner(max_workers=2).settings.workers == 2


class TestFrameBatching:
    def test_batched_rows_match_single_frame_runs(self):
        """Acceptance: a batched scenario's per-frame rows carry exactly
        the numbers of single-frame scenarios at consecutive seeds."""
        frames = 3
        batched = _subset_runner(
            simulators=["spade-he"], models=["SPP3"],
            scenarios=[Scenario("drive", seed=5, frames=frames)],
        ).run()
        singles = _subset_runner(
            simulators=["spade-he"], models=["SPP3"],
            scenarios=[Scenario(f"s{index}", seed=5 + index)
                       for index in range(frames)],
        ).run()
        assert len(batched) == frames + 1          # + the mean row
        for index in range(frames):
            left = batched.get(frame=index)
            right = singles.get(scenario=f"s{index}")
            assert left.cycles == right.cycles
            assert left.latency_ms == right.latency_ms
            assert left.energy_mj == right.energy_mj

    def test_mean_row_aggregates_metrics(self):
        table = _subset_runner(
            simulators=["spade-he"], models=["SPP3"],
            scenarios=[Scenario("drive", seed=0, frames=2)],
        ).run()
        mean = table.get(frame="mean")
        per_frame = [table.get(frame=index) for index in range(2)]
        assert mean.cycles == pytest.approx(
            sum(row.cycles for row in per_frame) / 2
        )
        assert mean.extras == {"frames": 2}
        assert mean.scenario == "drive"

    def test_batched_parity_across_backends(self):
        scenarios = [Scenario("drive", seed=2, frames=2)]
        serial = _subset_runner(simulators=["spade-he"], models=["SPP3"],
                                scenarios=scenarios).run(backend="serial")
        process = _subset_runner(simulators=["spade-he"], models=["SPP3"],
                                 scenarios=scenarios).run(backend="process")
        for left, right in zip(serial, process):
            assert left == right

    def test_rulegen_once_per_frame(self, monkeypatch):
        import repro.engine.cache as cache_module

        calls = []
        real_trace_model = cache_module.trace_model

        def counting(spec, coords, importance=None, grid_shape=None,
                     prev_trace=None):
            calls.append(spec.name)
            return real_trace_model(spec, coords, importance,
                                    grid_shape=grid_shape,
                                    prev_trace=prev_trace)

        monkeypatch.setattr(cache_module, "trace_model", counting)
        runner = _subset_runner(
            simulators=["spade-he", "dense-he"], models=["SPP3"],
            scenarios=[Scenario("drive", seed=0, frames=2)],
        )
        table = runner.run()
        # 2 frames x (2 simulators + mean) rows, but only 2 traces.
        assert len(table) == 6
        assert calls == ["SPP3", "SPP3"]

    def test_invalid_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            Scenario("bad", seed=0, frames=0)
        with pytest.raises(ValueError, match="frames"):
            Scenario("bad", seed=0, frames=1.5)

    def test_custom_frame_provider_serves_every_frame(self):
        # A FrameProvider subclass sees each frame of a batched scenario
        # by index, and its rows match the default provider's.
        requested = []

        class RecordingFrames(FrameProvider):
            def frame_for(self, scenario, model, frame=0):
                requested.append((scenario.name, model, frame))
                return super().frame_for(scenario, model, frame)

        scenarios = [Scenario("drive", seed=0, frames=2)]
        custom = _subset_runner(
            simulators=["spade-he"], models=["SPP3"], scenarios=scenarios,
            frame_provider=RecordingFrames(),
        ).run()
        default = _subset_runner(
            simulators=["spade-he"], models=["SPP3"], scenarios=scenarios,
        ).run()
        assert requested == [("drive", "SPP3", 0), ("drive", "SPP3", 1)]
        assert len(custom) == 3                 # 2 frames + the mean row
        assert list(custom) == list(default)

    def test_mean_result_handles_none_metrics(self):
        rows = [
            SimResult(simulator="S", model="M", cycles=10, energy_mj=None),
            SimResult(simulator="S", model="M", cycles=20, energy_mj=None),
        ]
        mean = mean_result(rows)
        assert mean.cycles == 15
        assert mean.energy_mj is None
        assert mean.frame == "mean"
        with pytest.raises(ValueError):
            mean_result([])


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs every job in-process and
    records how many chunks each ``map`` call fans out."""

    def __init__(self, maps, max_workers, initializer, initargs):
        self.maps = maps
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.maps.append(len(chunks))
        return [fn(chunk) for chunk in chunks]


def _plan(scenarios: int, models: int) -> list:
    """A scenario-major plan of ``scenarios`` x SPP1..SPP<models>."""
    return [
        WorkGroup(Scenario(f"d{index}", seed=index), f"SPP{model}", ())
        for index in range(scenarios)
        for model in range(1, models + 1)
    ]


class TestChunkPolicy:
    """``chunk_payload``: scenario-aligned chunks for the process pool
    when they load no worker more than fixed chunks, fixed otherwise."""

    @pytest.mark.parametrize("scenarios, models, workers", [
        (2, 3, 2), (1, 3, 2), (10, 1, 2), (5, 3, 2), (3, 2, 4), (6, 3, 3),
    ])
    def test_every_unit_once_in_plan_order(self, scenarios, models,
                                           workers):
        plan = _plan(scenarios, models)
        chunks = chunk_payload(plan, workers)
        assert all(chunks)
        assert [group for chunk in chunks for group in chunk] == plan

    @pytest.mark.parametrize("scenarios, models, workers", [
        (2, 3, 2), (4, 3, 2), (6, 3, 3), (4, 1, 2), (3, 2, 4),
    ])
    def test_balanced_plans_cut_only_between_scenarios(
            self, scenarios, models, workers):
        chunks = chunk_payload(_plan(scenarios, models), workers)
        owners = [{group.scenario for group in chunk} for chunk in chunks]
        for left, right in zip(owners, owners[1:]):
            assert not left & right

    @pytest.mark.parametrize("scenarios, models, workers, sizes", [
        (2, 3, 2, [3, 3]),         # fixed [2, 2, 2] loads one 4
        (6, 3, 2, [3] * 6),        # target 5: a scenario alone
        (10, 1, 2, [3, 3, 3, 1]),  # one-group scenarios fill 3
        (1, 3, 2, [1, 1, 1]),      # one scenario: [3] loads 3 > 2
        (3, 2, 4, [2, 2, 2]),      # both load 2; 3 of 4 workers
        (3, 4, 2, [3] * 4),        # [4, 4, 4] would load 8 > 6
        (5, 3, 2, [4, 4, 4, 3]),   # [3] * 5 would load 9 > 8
    ])
    def test_chunk_sizes(self, scenarios, models, workers, sizes):
        """Chunks aim at ceil(groups / 2 workers) groups; by scenario
        they grow past that only when one scenario alone is larger, and
        are used only when no worker gets more groups than with fixed
        chunks."""
        chunks = chunk_payload(_plan(scenarios, models), workers)
        assert [len(chunk) for chunk in chunks] == sizes

    @pytest.mark.parametrize("workers, sizes", [
        (2, [3] * 4), (3, [2] * 6),
    ])
    def test_uneven_scenarios_keep_fixed_chunks(self, workers, sizes):
        """Scenarios of 10, 1 and 1 groups would be cut [10, 2], one
        worker running 10 groups: the plan is cut at fixed size."""
        plan = _plan(1, 10) + _plan(3, 1)[1:]
        chunks = chunk_payload(plan, workers)
        assert [len(chunk) for chunk in chunks] == sizes

def _busiest(sizes: list, workers: int) -> int:
    """Groups on the busiest of ``workers`` processes that take chunks
    of ``sizes`` in order, each chunk to the least-loaded worker."""
    loads = [0] * workers
    for size in sizes:
        loads[loads.index(min(loads))] += size
    return max(loads)


_PLANS = st.tuples(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1,
             max_size=8),
    st.integers(min_value=1, max_value=5),
)


def _uneven_plan(scenario_sizes: list) -> list:
    return [
        WorkGroup(Scenario(f"d{index}", seed=index), f"M{model}", ())
        for index, size in enumerate(scenario_sizes)
        for model in range(size)
    ]


class TestChunkPolicyProperties:
    """``chunk_payload`` over random scenario sizes and pool widths."""

    @given(_PLANS)
    @settings(max_examples=150, deadline=None)
    def test_every_group_once_in_plan_order(self, case):
        scenario_sizes, workers = case
        plan = _uneven_plan(scenario_sizes)
        chunks = chunk_payload(plan, workers)
        assert all(chunks)
        assert [group for chunk in chunks for group in chunk] == plan

    @given(_PLANS)
    @settings(max_examples=150, deadline=None)
    def test_no_worker_busier_than_with_fixed_cuts(self, case):
        scenario_sizes, workers = case
        plan = _uneven_plan(scenario_sizes)
        target = -(-len(plan) // (2 * workers))
        fixed = [min(target, len(plan) - start)
                 for start in range(0, len(plan), target)]
        chunks = chunk_payload(plan, workers)
        assert _busiest([len(chunk) for chunk in chunks], workers) \
            <= _busiest(fixed, workers)

    @given(_PLANS)
    @settings(max_examples=150, deadline=None)
    def test_only_a_lone_scenario_outgrows_the_target(self, case):
        scenario_sizes, workers = case
        plan = _uneven_plan(scenario_sizes)
        target = -(-len(plan) // (2 * workers))
        for chunk in chunk_payload(plan, workers):
            scenarios = {group.scenario for group in chunk}
            assert len(chunk) <= target or len(scenarios) == 1


class _FreshWorkerPool(_InlinePool):
    """An in-process pool stand-in that starts fresh worker state for
    every chunk — as if each chunk landed on its own process — so a
    frame needed by two chunks is built twice, as it is in a real
    pool."""

    def __init__(self, maps, max_workers, initializer, initargs):
        self.maps = maps
        self._start = lambda: initializer(*initargs)

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.maps.append(len(chunks))
        outcomes = []
        for chunk in chunks:
            self._start()
            outcomes.append(fn(chunk))
        return outcomes


class TestScenarioChunksBuildEachFrameOnce:
    def test_two_scenarios_build_two_frames(self, monkeypatch):
        """2 scenarios x 3 models on 2 workers: each worker builds only
        its own scenario's frame, so the scene generator runs once per
        scenario, and the table is the serial one."""
        import functools

        import repro.engine.backends as backends_module
        from repro.data.synthetic import SceneGenerator

        for name in ("_WORKER_SETTINGS", "_WORKER_CACHE", "_WORKER_FRAMES"):
            monkeypatch.setattr(backends_module, name, None)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        maps = []
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            functools.partial(_FreshWorkerPool, maps))
        generated = []
        real_generate = SceneGenerator.generate

        def counting_generate(self):
            generated.append(self)
            return real_generate(self)

        monkeypatch.setattr(SceneGenerator, "generate", counting_generate)

        def runner():
            return _subset_runner(
                models=["SPP1", "SPP2", "SPP3"], simulators=["spade-he"],
                scenarios=[Scenario("d0", seed=0), Scenario("d1", seed=1)],
                max_workers=2,
            )

        table = runner().run(backend="process")
        assert maps == [2]
        assert len(generated) == 2
        assert table.to_csv() == runner().run(backend="serial").to_csv()


class TestTraceStageKnobs:
    @pytest.mark.parametrize("value", ["2", "-1", "half", ""])
    def test_invalid_delta_trace_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, value)
        with pytest.raises(ValueError, match=DELTA_TRACE_ENV_VAR):
            _subset_runner()

    @pytest.mark.parametrize("value", [2, -1, "many", 1.5])
    def test_invalid_delta_trace_argument_rejected(self, value):
        with pytest.raises(ValueError, match="delta_trace"):
            _subset_runner(delta_trace=value)

    def test_delta_trace_env_default(self, monkeypatch):
        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, "1")
        assert _subset_runner().settings.delta_trace is True
        monkeypatch.delenv(DELTA_TRACE_ENV_VAR)
        assert _subset_runner().settings.delta_trace is False


class TestSerialFallback:
    def test_process_backend_width_one_skips_pool(self, monkeypatch):
        import repro.engine.backends as backends_module

        def no_pool(*args, **kwargs):
            raise AssertionError("width-1 process backend must not pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", no_pool)
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"],
                                max_workers=1)
        table = runner.run(backend="process")
        assert len(table) == 1
        serial = runner.run(backend="serial")
        assert table.results[0] == serial.results[0]

    def test_width_one_fallback_matches_pooled_numbers(self):
        pooled = _subset_runner(simulators=["spade-he"],
                                max_workers=2).run(backend="process")
        fallback = _subset_runner(simulators=["spade-he"],
                                  max_workers=1).run(backend="process")
        assert len(pooled) == len(fallback) == len(SUBSET_MODELS)
        for left, right in zip(pooled, fallback):
            assert left == right

    def test_process_backend_one_chunk_skips_pool(self, monkeypatch):
        """A plan that fills one chunk would start a one-process pool:
        it runs in-process whatever the worker count."""
        import repro.engine.backends as backends_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk plan must not pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", no_pool)
        one_group = _subset_runner(models=["SPP3"], simulators=["spade-he"],
                                   scenarios=[Scenario("w", frames=3)],
                                   max_workers=4)
        table = one_group.run(backend="process")
        assert table.to_csv() == one_group.run(backend="serial").to_csv()


class TestProcessWorkerTracing:
    """Each process worker traces the groups it simulates."""

    @pytest.mark.parametrize("workers, models, frames, delta", [
        (2, ["SPP3"], 1, False),          # one group, one frame
        (4, ["SPP2", "SPP3"], 1, False),  # fewer groups than workers
        (2, ["SPP2", "SPP3"], 2, False),  # more frames than workers
        (3, ["SPP2", "SPP3"], 2, True),   # delta-traced chains
    ], ids=["one-job", "few-jobs", "many-jobs", "delta-chains"])
    def test_one_map_traces_each_frame_once(self, monkeypatch, workers,
                                            models, frames, delta):
        """At most one pool ``map``, over the chunk_payload chunks; one
        trace per unique frame, no temporary directory, and the serial
        table."""
        import functools
        import tempfile

        import repro.engine.backends as backends_module
        from repro.engine import cache as cache_module

        for name in ("_WORKER_SETTINGS", "_WORKER_CACHE", "_WORKER_FRAMES"):
            monkeypatch.setattr(backends_module, name, None)
        maps = []
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            functools.partial(_InlinePool, maps))
        traced = []
        real_trace_model = cache_module.trace_model

        def counting_trace_model(*args, **kwargs):
            traced.append(args[0].name)
            return real_trace_model(*args, **kwargs)

        monkeypatch.setattr(cache_module, "trace_model",
                            counting_trace_model)
        made_dirs = []
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *args, **kwargs: made_dirs.append(args))
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)

        def runner():
            return _subset_runner(
                models=models, simulators=["spade-he"],
                scenarios=[Scenario("w", seed=4, frames=frames)],
                max_workers=workers, delta_trace=delta,
            )

        process = runner()
        table = process.run(backend="process")
        # A one-chunk plan would fill one pool process: it runs
        # in-process instead.
        chunks = len(chunk_payload(process.plan(), workers))
        assert maps == ([chunks] if chunks > 1 else [])
        assert len(traced) == len(models) * frames
        assert made_dirs == []
        assert table.to_csv() == runner().run(backend="serial").to_csv()

    def test_workers_share_traces_through_disk_tier(self, tmp_path,
                                                    monkeypatch):
        """Workers trace over the runner's disk tier, leaving one
        artifact per unique (scenario, model, frame), and their rows
        match the serial backend bit for bit."""
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        scenarios = [Scenario("a", seed=0), Scenario("b", seed=9)]
        process = _subset_runner(
            models=["SPP3"], simulators=["spade-he"],
            scenarios=list(scenarios), max_workers=2,
        ).run(backend="process")
        # one trace file per unique (scenario, frame) on this one model
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 2
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        serial = _subset_runner(
            models=["SPP3"], simulators=["spade-he"],
            scenarios=list(scenarios),
        ).run(backend="serial")
        assert len(process) == len(serial) == 2
        for left, right in zip(serial, process):
            assert left == right

    @pytest.mark.parametrize("own_tier", [False, True],
                             ids=["tier-off", "runner-tier"])
    def test_workers_follow_the_runner_cache_tier(self, tmp_path,
                                                  monkeypatch, own_tier):
        """The runner's cache decides where workers write, not the
        environment: an explicit ``disk_dir=None`` writes nowhere, and
        ``disk_dir=X`` gets one artifact per (scenario, model, frame)."""
        env_dir = tmp_path / "env"
        own_dir = tmp_path / "own"
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(env_dir))
        runner = _subset_runner(
            simulators=["spade-he"],
            scenarios=[Scenario("a", seed=0),
                       Scenario("b", seed=9, frames=2)],
            cache=TraceCache(disk_dir=own_dir if own_tier else None),
            max_workers=2,
        )
        runner.run(backend="process")
        assert not list(env_dir.glob("*.trace.pkl"))
        artifacts = list(own_dir.glob("*.trace.pkl"))
        assert len(artifacts) == (len(SUBSET_MODELS) * 3 if own_tier else 0)


class TestProgressReporting:
    """`runner.run(progress=...)` reports per-group completion through
    the same Backend seam on every backend."""

    def _events(self, backend, **kwargs):
        events = []
        runner = _subset_runner(
            scenarios=[Scenario("a", seed=0), Scenario("b", seed=9)],
            **kwargs,
        )
        table = runner.run(
            backend=backend,
            progress=lambda done, total, elapsed:
                events.append((done, total)),
        )
        return table, events

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_report_every_group(self, backend):
        table, events = self._events(backend)
        assert len(table) == 8
        assert events, f"{backend} backend reported no progress"
        assert events[-1] == (4, 4)
        dones = [done for done, _ in events]
        assert dones == sorted(dones)
        assert sum(1 for _ in events) <= 4      # chunked reports allowed

    def test_progress_true_prints_to_stderr(self, capsys):
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"])
        runner.run(backend="serial", progress=True)
        err = capsys.readouterr().err
        assert "groups 1/1" in err

    def test_no_progress_by_default(self, capsys):
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"])
        runner.run(backend="serial")
        assert "groups" not in capsys.readouterr().err

    def test_reporter_cleared_after_run(self):
        runner = _subset_runner(models=["SPP3"], simulators=["spade-he"])
        runner.run(backend="serial", progress=lambda *args: None)
        assert runner._progress is None


class TestFailingRunsMakeNoTempdir:
    def test_failing_process_run_makes_no_tempdir(self, monkeypatch):
        """A process run that dies mid-pool raises its error and has no
        temporary directory to leave behind."""
        import tempfile

        import repro.engine.backends as backends_module

        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        created = []
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *args, **kwargs: created.append(args))

        def exploding_pool(*args, **kwargs):
            raise RuntimeError("pool refused to start")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            exploding_pool)
        runner = _subset_runner(simulators=["spade-he"], max_workers=2)
        with pytest.raises(RuntimeError, match="pool refused"):
            runner.run(backend="process")
        assert created == []


class TestDeltaTrace:
    """Delta-chained tracing: same table, fewer full rulegen runs."""

    SCENARIOS = [Scenario("drive", seed=3, frames=3)]

    def test_delta_matches_full_on_every_backend(self):
        """Acceptance: with REPRO_ENGINE_DELTA_TRACE on, every backend
        reproduces the full-rulegen serial table byte for byte."""
        full = _subset_runner(
            scenarios=list(self.SCENARIOS)).run(backend="serial")
        expected = full.to_csv()
        for backend in ("serial", "process"):
            delta = _subset_runner(
                scenarios=list(self.SCENARIOS), delta_trace=True,
            ).run(backend=backend)
            assert delta.to_csv() == expected, backend

    def test_trace_chain_threads_prev_trace(self):
        runner = _subset_runner(
            models=["SPP3"], simulators=["spade-he"],
            scenarios=list(self.SCENARIOS), delta_trace=True,
        )
        chain = runner.trace_chain(runner.scenarios[0],
                                   runner.models[0])
        assert len(chain) == 3
        # Content keys are unchanged: each chain frame is one cache
        # entry, keyed exactly like a full-rulegen trace of that frame.
        assert runner.cache.stats()["misses"] == 3
        off = _subset_runner(
            models=["SPP3"], simulators=["spade-he"],
            scenarios=list(self.SCENARIOS),
        )
        for frame, trace in enumerate(chain):
            full = off.trace_for(off.scenarios[0], off.models[0], frame)
            for left, right in zip(trace.layers, full.layers):
                if left.rules is None:
                    assert right.rules is None
                    continue
                for lp, rp in zip(left.rules.pairs, right.rules.pairs):
                    assert (lp.in_idx == rp.in_idx).all()
                    assert (lp.out_idx == rp.out_idx).all()

    def test_env_knob_resolves_through_settings(self, monkeypatch):
        from repro.engine.settings import DELTA_TRACE_ENV_VAR

        monkeypatch.setenv(DELTA_TRACE_ENV_VAR, "1")
        runner = _subset_runner(scenarios=list(self.SCENARIOS))
        assert runner.settings.delta_trace is True
