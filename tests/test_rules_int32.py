"""Rule pairs are int32 from rulegen through the planner and simulators.

The routes ``test_sparse_dense_tables`` does not compare (a shared delta
and the RGU's streaming model) yield int32 ``in_idx`` / ``out_idx``; a
traced layer's pair arrays take exactly 8 bytes per pair; a pickled
trace loads with the canonical int32 dtype object and plans the same
tiles; the disk tier keys carry the trace format; and a reader that
scales an index widens it before multiplying.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.sparsity import trace_model
from repro.core.gsu import plan_tiles
from repro.core.rgu import streaming_rulegen
from repro.engine import TraceCache
from repro.engine import cache as cache_module
from repro.engine.micro import GatherDramSim
from repro.hw.cache import DirectMappedCache
from repro.models import LayerOp, build_model_spec
from repro.sparse import ConvType, build_rules, build_rules_delta, unflatten
from repro.sparse.rulegen import RulePairs, Rules

SHAPE = (26, 34)
INT32 = np.dtype(np.int32)


def random_frame(count, shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    flat = rng.choice(shape[0] * shape[1], count, replace=False)
    return unflatten(np.sort(flat), shape)


def assert_int32_pairs(rules, label=""):
    assert rules.pairs, label
    for index, pair in enumerate(rules.pairs):
        where = f"{label} offset {index}"
        assert pair.in_idx.dtype == INT32, where
        assert pair.out_idx.dtype == INT32, where


class TestRoutesNotComparedElsewhere:
    """The table, over-cap, rebuilt-delta, empty and DECONV routes
    and the reference oracle are dtype-checked pair for pair by
    ``test_sparse_dense_tables.assert_rules_identical``."""

    def test_shared_delta(self):
        coords = random_frame(150)
        prev = build_rules(coords, SHAPE, ConvType.SPCONV)
        assert_int32_pairs(build_rules_delta(prev, coords))

    def test_rgu_streaming_model(self):
        assert_int32_pairs(streaming_rulegen(random_frame(150), SHAPE))
        assert_int32_pairs(streaming_rulegen(np.zeros((0, 2), np.int32),
                                             SHAPE), "empty")


def traced_layers(trace):
    return [layer.rules for layer in trace.layers
            if layer.spec.op is LayerOp.SPARSE]


@pytest.fixture(scope="module")
def traces():
    """SPP2 and SCP2 on one frame, plus SPP2 delta-traced onto a second
    frame."""
    shape = (40, 48)
    first = random_frame(500, shape, seed=4)
    second = random_frame(480, shape, seed=5)
    spp2 = trace_model(build_model_spec("SPP2"), first, grid_shape=shape)
    return {
        "SPP2": spp2,
        "SCP2": trace_model(build_model_spec("SCP2"), first,
                            grid_shape=shape),
        "SPP2-delta": trace_model(build_model_spec("SPP2"), second,
                                  grid_shape=shape, prev_trace=spp2),
    }


class TestTraceBytes:
    @pytest.mark.parametrize("name", ["SPP2", "SCP2", "SPP2-delta"])
    def test_pairs_take_eight_bytes_each(self, traces, name):
        layers = traced_layers(traces[name])
        assert layers
        for rules in layers:
            nbytes = sum(pair.in_idx.nbytes + pair.out_idx.nbytes
                         for pair in rules.pairs)
            assert nbytes == 8 * rules.total_pairs


class TestPickleRoundTrip:
    def test_loaded_pairs_have_the_canonical_dtype(self, traces):
        loaded = pickle.loads(pickle.dumps(traces["SPP2"]))
        for rules in traced_layers(loaded):
            for pair in rules.pairs:
                assert pair.in_idx.dtype is INT32
                assert pair.out_idx.dtype is INT32

    def test_loaded_rules_plan_the_same_tiles(self, traces):
        fresh = traced_layers(traces["SCP2"])
        loaded = traced_layers(pickle.loads(pickle.dumps(traces["SCP2"])))
        for left, right in zip(fresh, loaded):
            for capacity in ((64, 96), (16, 24)):
                want = plan_tiles(left, *capacity)
                got = plan_tiles(right, *capacity)
                assert list(got.tiles) == list(want.tiles)
                np.testing.assert_array_equal(got.pairs_per_offset,
                                              want.pairs_per_offset)

    def test_a_non_int32_pickle_keeps_its_values(self):
        """The dtype swap keeps each array's own width: it never
        reinterprets another width's bytes as int32."""
        rules = build_rules(random_frame(60), SHAPE, ConvType.SUBM)
        rules.pairs = [RulePairs(p.in_idx.astype(np.int64),
                                 p.out_idx.astype(np.int64))
                       for p in rules.pairs]
        loaded = pickle.loads(pickle.dumps(rules))
        for want, got in zip(rules.pairs, loaded.pairs):
            assert got.in_idx.dtype is np.dtype(np.int64)
            np.testing.assert_array_equal(got.in_idx, want.in_idx)
            np.testing.assert_array_equal(got.out_idx, want.out_idx)


class TestDiskTierFormat:
    def test_key_carries_the_trace_format(self):
        spec = build_model_spec("SPP2")
        key = TraceCache(disk_dir=None).key_for(spec, random_frame(30))
        assert key.endswith(f":v{cache_module.TRACE_FORMAT}")

    def test_artifact_of_another_format_is_not_read(self, tmp_path,
                                                    monkeypatch):
        spec = build_model_spec("SPP2")
        coords = random_frame(200, (40, 48), seed=2)
        monkeypatch.setattr(cache_module, "TRACE_FORMAT", "old")
        TraceCache(disk_dir=tmp_path).get_trace(spec, coords,
                                                grid_shape=(40, 48))
        monkeypatch.undo()
        cache = TraceCache(disk_dir=tmp_path)
        cache.get_trace(spec, coords, grid_shape=(40, 48))
        stats = cache.stats()
        assert (stats["disk_hits"], stats["misses"]) == (0, 1)
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 2


class TestIndexWidening:
    def test_cache_addresses_do_not_wrap(self, monkeypatch):
        """A row near 2**31 times 64 channels exceeds int32; the
        addresses handed to the cache must be the exact int64 products."""
        rows = np.array([2**31 - 3, 2**31 - 2, 2**31 - 1], dtype=np.int32)
        rules = Rules(ConvType.SUBM, 1, 1, (1, 1), (1, 1),
                      np.zeros((0, 2), np.int32), np.zeros((0, 2), np.int32),
                      [RulePairs(rows, np.arange(3, dtype=np.int32))])
        layer = SimpleNamespace(rules=rules,
                                spec=SimpleNamespace(in_channels=64))
        seen = []
        miss_addresses = DirectMappedCache.miss_addresses

        def recording(self, addresses):
            seen.append(np.asarray(addresses))
            return miss_addresses(self, addresses)

        monkeypatch.setattr(DirectMappedCache, "miss_addresses", recording)
        GatherDramSim("cache")._cache_cycles(layer)
        (addresses,) = seen
        assert addresses.dtype == np.int64
        assert (addresses > 0).all()
        assert addresses.tolist() == [int(row) * 64 for row in rows]
