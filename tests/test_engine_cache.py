"""Two-tier TraceCache: on-disk persistence, content addressing across
processes-worth of cache instances, environment-variable wiring,
corruption recovery and eviction-reload behaviour."""

import numpy as np
import pytest

from repro.data.grids import GridSpec
from repro.engine import ExperimentRunner, Scenario, TraceCache
from repro.engine.settings import CACHE_DIR_ENV_VAR
from repro.models.specs import LayerOp, LayerSpec, ModelSpec
from repro.sparse import ConvType
from repro.sparse.coords import unflatten

SHAPE = (16, 16)


def tiny_spec(name="cache-test"):
    """A one-layer sparse model small enough to trace in microseconds."""
    grid = GridSpec(
        name=f"{name}-grid",
        x_range=(0.0, float(SHAPE[1])),
        y_range=(0.0, float(SHAPE[0])),
        z_range=(-3.0, 1.0),
        pillar_size=1.0,
    )
    assert grid.shape == SHAPE
    return ModelSpec(
        name=name,
        base="micro",
        grid=grid,
        pillar_channels=8,
        layers=[
            LayerSpec("L1", LayerOp.SPARSE, 8, 8, conv_type=ConvType.SPCONV),
            LayerSpec("L2", LayerOp.SPARSE, 8, 8, conv_type=ConvType.SUBM),
        ],
    )


def tiny_frame(seed=0, count=24):
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(SHAPE[0] * SHAPE[1], count, replace=False))
    return unflatten(flat, SHAPE)


def assert_traces_equal(left, right):
    assert left.total_macs == right.total_macs
    assert len(left.layers) == len(right.layers)
    for a, b in zip(left.layers, right.layers):
        assert a.sparse_macs == b.sparse_macs
        np.testing.assert_array_equal(a.rules.out_coords, b.rules.out_coords)
        for pa, pb in zip(a.rules.pairs, b.rules.pairs):
            np.testing.assert_array_equal(pa.in_idx, pb.in_idx)
            np.testing.assert_array_equal(pa.out_idx, pb.out_idx)


class TestDiskTier:
    def test_round_trip_across_cache_instances(self, tmp_path):
        """A second cache (think: another process, another run) loads the
        persisted trace instead of re-tracing."""
        spec, coords = tiny_spec(), tiny_frame()
        writer = TraceCache(disk_dir=tmp_path)
        computed = writer.get_trace(spec, coords)
        stats = writer.stats()
        assert stats["misses"] == 1
        assert stats["disk_writes"] == 1
        assert list(tmp_path.glob("*.trace.pkl"))

        reader = TraceCache(disk_dir=tmp_path)
        loaded = reader.get_trace(tiny_spec(), coords.copy())
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 0
        assert stats["disk_writes"] == 0
        assert_traces_equal(computed, loaded)

    def test_second_run_serves_every_trace_from_disk(self, tmp_path):
        """A fresh-cache run over a populated disk tier re-traces
        nothing: every (scenario, model) trace is a disk hit, and the
        rows match the run that computed them."""
        def run():
            runner = ExperimentRunner(
                simulators=["spade-he"],
                models=["SPP2", "SPP3"],
                scenarios=[Scenario("a", seed=0), Scenario("b", seed=1)],
                cache=TraceCache(disk_dir=tmp_path),
            )
            return runner.run(backend="serial"), runner.cache.stats()

        cold, cold_stats = run()
        warm, warm_stats = run()
        assert cold_stats["misses"] == 4
        assert warm_stats["misses"] == 0
        assert warm_stats["disk_hits"] == 4
        assert warm.to_csv() == cold.to_csv()

    def test_memory_tier_still_first(self, tmp_path):
        spec, coords = tiny_spec(), tiny_frame()
        cache = TraceCache(disk_dir=tmp_path)
        first = cache.get_trace(spec, coords)
        second = cache.get_trace(spec, coords)
        assert first is second
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["disk_hits"] == 0

    def test_distinct_content_distinct_files(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path)
        cache.get_trace(tiny_spec(), tiny_frame(seed=0))
        cache.get_trace(tiny_spec(), tiny_frame(seed=1))
        cache.get_trace(tiny_spec("other-model"), tiny_frame(seed=0))
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 3

    def test_corrupt_entry_recomputed_and_replaced(self, tmp_path):
        spec, coords = tiny_spec(), tiny_frame()
        cache = TraceCache(disk_dir=tmp_path)
        key = cache.key_for(spec, coords)
        path = tmp_path / f"{key}.trace.pkl"
        path.write_bytes(b"not a pickle")

        trace = cache.get_trace(spec, coords)
        assert cache.stats()["misses"] == 1  # recomputed, not crashed
        assert cache.stats()["disk_writes"] == 1  # rewritten clean

        fresh = TraceCache(disk_dir=tmp_path)
        assert_traces_equal(trace, fresh.get_trace(spec, coords))
        assert fresh.stats()["disk_hits"] == 1

    def test_eviction_reloads_from_disk(self, tmp_path):
        cache = TraceCache(maxsize=1, disk_dir=tmp_path)
        spec = tiny_spec()
        cache.get_trace(spec, tiny_frame(seed=0))
        cache.get_trace(spec, tiny_frame(seed=1))  # evicts seed-0
        cache.get_trace(spec, tiny_frame(seed=0))
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["disk_hits"] == 1

    def test_clear_disk_removes_files(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path)
        cache.get_trace(tiny_spec(), tiny_frame())
        assert list(tmp_path.glob("*.trace.pkl"))
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.trace.pkl"))
        assert len(cache) == 0


class TestEnvironmentWiring:
    def test_default_construction_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cache = TraceCache()
        assert cache.disk_dir == tmp_path
        cache.get_trace(tiny_spec(), tiny_frame())
        assert list(tmp_path.glob("*.trace.pkl"))

    def test_explicit_none_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cache = TraceCache(disk_dir=None)
        assert cache.disk_dir is None
        cache.get_trace(tiny_spec(), tiny_frame())
        assert not list(tmp_path.glob("*.trace.pkl"))

    def test_unset_env_means_memory_only(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        cache = TraceCache()
        assert cache.disk_dir is None
        assert cache.stats()["disk_dir"] is None

    def test_rulegen_shards_do_not_change_the_key(self, tmp_path):
        """Sharded rulegen is bit-identical, so a trace computed sharded
        must be found by an unsharded lookup (and vice versa)."""
        spec, coords = tiny_spec(), tiny_frame()
        sharded = TraceCache(disk_dir=tmp_path)
        computed = sharded.get_trace(spec, coords, rulegen_shards=4)
        plain = TraceCache(disk_dir=tmp_path)
        loaded = plain.get_trace(spec, coords)
        assert plain.stats()["disk_hits"] == 1
        assert_traces_equal(computed, loaded)
