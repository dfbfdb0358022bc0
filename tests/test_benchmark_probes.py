"""The repo benchmark's layer probes still find what they wrap.

``spadebench/layers.py`` wraps functions by name where their callers
look them up (``vars(owner)[attr]``), so renaming or unbinding one of
them crashes the traced benchmark run.  This reads the benchmark's
target list without changing anything under ``spadebench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

SPADEBENCH = Path(__file__).resolve().parent.parent / "spadebench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SPADEBENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    module = importlib.import_module("layers")
    yield module
    sys.modules.pop("layers", None)


def test_every_probe_target_is_bound(layers):
    targets = layers._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing, missing


def test_scheduling_probes_are_bound(layers):
    # The planner and the per-layer schedulers stay bound where the
    # benchmark wraps them, though model-level runs call the batch.
    wrapped = {(getattr(owner, "__name__", ""), attr)
               for owner, attr, _, _ in layers._targets()}
    assert {
        ("repro.core.dataflow", "plan_tiles"),
        ("repro.core.accelerator", "schedule_sparse_layer"),
        ("repro.baselines.pointacc", "schedule_sparse_layer"),
    } <= wrapped
