"""The deconv-branch union is built only for a sparse head.

``trace_model`` checks the branch grids first, then hands a dense head a
dense stream on the branches' grid and builds the union of the branch
active sets (``_union_states``) only when a sparse head reads it: once
per trace for SCP2 and SCP3, never for the dense-head models.  Traces
are pinned by a canonical digest taken when every model built the union
eagerly, so skipping it changes no layer.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis import sparsity
from repro.analysis.sparsity import trace_model
from repro.models import TABLE1_PAPER, LayerOp, build_model_spec
from repro.sparse import unflatten

#: Canonical trace digests on ``FRAME`` from the eager-union trace stage.
PINNED = {
    "SPP1": "7c387ebf27d5767fca3cf45952d6dd35e2a2f4ca6d50191814c729c034217b1e",
    "SPP2": "05e0b5d3e048aecae78dad6219370d83e99729df8a6fc982e5542e7a63406356",
    "CP": "ee9d39637b74b47c8512a66af32c4167964bd6ca041b5f30d8480f315251581a",
    "PP": "b0a798df3b851e745f4afea3e743c2c7fbed418ccd21e317ac4473cbd5f22fbe",
    "PN": "47fd6c9e29c3a277c7369269f424b8a467b31e365f6ef6b213055aba085514ef",
    "PN-Dense":
        "0986fc61f13640649523e2ce94bf4ce3c53d894a0a54ccea77834094c66f7c60",
    "SCP2": "eb92124f281012242824a1f85ffe3eff589468559142838e25467779b37fb412",
    "SCP3": "f686cdb6c25831b45ba4f25d0a113ae033f2af66b9e14f3a0197f07d25c7def7",
}

SHAPE = (64, 96)


def random_frame(shape, count, seed):
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(shape[0] * shape[1], count, replace=False))
    return unflatten(flat, shape)


FRAME = random_frame(SHAPE, 1200, 3)
IMPORTANCE = np.random.default_rng(3).uniform(0, 9, len(FRAME))


def canonical_digest(trace):
    """Digest of every layer's counts and MACs, and of each sparse
    layer's input set, output set and pairs as little-endian int32."""
    digest = hashlib.sha256()
    for layer in trace.layers:
        digest.update(repr((layer.spec.name, tuple(layer.in_shape),
                            tuple(layer.out_shape), layer.in_count,
                            layer.out_count, layer.out_count_after_prune,
                            layer.sparse_macs)).encode())
        if layer.rules is None:
            continue
        arrays = [layer.in_coords, layer.rules.out_coords]
        for pair in layer.rules.pairs:
            arrays += [pair.in_idx, pair.out_idx]
        for array in arrays:
            digest.update(np.ascontiguousarray(array, dtype="<i4").tobytes())
    return digest.hexdigest()


def sparse_head(spec):
    return any(layer.name.startswith("H") and layer.op is LayerOp.SPARSE
               for layer in spec.layers)


@pytest.fixture
def unions(monkeypatch):
    """Count ``_union_states`` calls."""
    calls = []
    union = sparsity._union_states

    def counting(states):
        calls.append(len(states))
        return union(states)

    monkeypatch.setattr(sparsity, "_union_states", counting)
    return calls


class TestLazyUnion:
    def test_only_scp2_and_scp3_have_sparse_heads(self):
        assert sorted(name for name in TABLE1_PAPER
                      if sparse_head(build_model_spec(name))) == ["SCP2",
                                                                  "SCP3"]

    @pytest.mark.parametrize("model", sorted(PINNED))
    def test_union_built_once_for_sparse_heads_only(self, model, unions):
        spec = build_model_spec(model)
        trace = trace_model(spec, FRAME, IMPORTANCE, grid_shape=SHAPE)
        deconvs = sum(layer.name.startswith("D") for layer in spec.layers)
        assert unions == ([deconvs] if sparse_head(spec) else [])
        assert canonical_digest(trace) == PINNED[model]

    @pytest.mark.parametrize("model", ["SPP1", "CP", "PN", "SCP2"])
    def test_once_per_trace(self, model, unions):
        spec = build_model_spec(model)
        for seed in range(3):
            trace_model(spec, random_frame(SHAPE, 900, seed),
                        grid_shape=SHAPE)
        assert len(unions) == (3 if sparse_head(spec) else 0)

    @pytest.mark.parametrize("model", ["SPP1", "PN", "SCP2"])
    def test_head_reads_the_branch_grid(self, model):
        spec = build_model_spec(model)
        trace = trace_model(spec, FRAME, grid_shape=SHAPE)
        branch = [layer for layer in trace.layers
                  if layer.spec.name.startswith("D")][-1]
        head = trace.layer("Hshared" if "Hshared" in
                           [layer.name for layer in spec.layers]
                           else "Hfused")
        assert head.in_shape == branch.out_shape

    @pytest.mark.parametrize("model, shape", [
        ("SPP1", (36, 36)), ("CP", (36, 36)), ("PN", (40, 48)),
        ("SCP2", (33, 40)),
    ])
    def test_branch_grids_checked_before_any_merge(self, model, shape,
                                                   unions):
        with pytest.raises(ValueError, match="deconv branches end on"):
            trace_model(build_model_spec(model),
                        random_frame(shape, shape[0] * shape[1] // 5, 1),
                        grid_shape=shape)
        assert unions == []
