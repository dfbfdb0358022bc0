"""Golden result bytes of two end-to-end runs.

``data/golden_smoke.csv`` is the CSV ``repro run examples/specs/smoke.json``
writes (SPP3 x SPADE HE / DenseAcc HE / trace stats on one KITTI frame).
``data/golden_delta_scp1.json`` holds the JSON records, per-layer detail
included, of a 3-frame SCP1 sequence traced with ``delta_trace`` on, so
frames 1 and 2 go through :func:`repro.sparse.rulegen.build_rules_delta`.
Every trace-stage optimisation must reproduce both byte for byte.

Regenerate them only for an intended change of results::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from pathlib import Path

from repro.engine import ExperimentSpec, Scenario, TraceCache

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
SMOKE_SPEC = ROOT / "examples" / "specs" / "smoke.json"
SMOKE_GOLDEN = DATA / "golden_smoke.csv"
DELTA_GOLDEN = DATA / "golden_delta_scp1.json"


def smoke_csv() -> str:
    spec = ExperimentSpec.load(SMOKE_SPEC)
    runner = spec.build_runner(cache=TraceCache(disk_dir=None))
    return runner.run().to_csv()


def delta_scp1_json() -> str:
    spec = ExperimentSpec(
        name="delta-scp1",
        simulators=["spade-he", "stats"],
        models=["SCP1"],
        scenarios=[Scenario("seq", seed=0, frames=3)],
        backend="serial",
        delta_trace=True,
    )
    runner = spec.build_runner(cache=TraceCache(disk_dir=None))
    text = runner.run().to_json()
    # The golden must exercise the delta path, not only full rebuilds.
    assert runner.cache.stats()["delta_layers"] > 0
    return text


def test_smoke_csv_matches_golden():
    assert smoke_csv() == SMOKE_GOLDEN.read_text()


def test_delta_scp1_records_match_golden():
    assert delta_scp1_json() == DELTA_GOLDEN.read_text()


if __name__ == "__main__":
    SMOKE_GOLDEN.write_text(smoke_csv())
    DELTA_GOLDEN.write_text(delta_scp1_json())
    print(f"wrote {SMOKE_GOLDEN} and {DELTA_GOLDEN}")
