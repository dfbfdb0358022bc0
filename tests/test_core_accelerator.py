"""Accelerator integration: SPADE vs DenseAcc on traced models, energy,
area — the paper's headline properties as assertions."""

import numpy as np
import pytest

from repro.analysis import compute_savings, trace_model
from repro.core import (
    SPADE_HE,
    SPADE_LE,
    DenseAccelerator,
    ModelResult,
    SpadeAccelerator,
    accelerator_area,
    pointacc_like_area,
    sram_kilobytes,
)
from repro.models import build_model_spec


@pytest.fixture(scope="module")
def kitti_traces(kitti_batch):
    importance = kitti_batch.point_counts.astype(float)
    traces = {}
    for name in ("SPP1", "SPP2", "SPP3"):
        model, dense, savings = compute_savings(
            name, kitti_batch.coords, importance
        )
        traces[name] = (model, dense, savings)
    return traces


@pytest.fixture(scope="module")
def spade_he():
    return SpadeAccelerator(SPADE_HE)


@pytest.fixture(scope="module")
def dense_he():
    return DenseAccelerator(SPADE_HE)


class TestSpeedupProportionality:
    def test_speedup_tracks_ops_savings(self, kitti_traces, spade_he,
                                        dense_he):
        # Paper Fig. 11(c): "speedup aligns directly with OPs savings".
        for name, (model, dense, savings) in kitti_traces.items():
            spade_result = spade_he.run_trace(model)
            dense_result = dense_he.run_trace(dense)
            speedup = dense_result.total_cycles / spade_result.total_cycles
            ideal = 1.0 / (1.0 - savings)
            assert 0.5 * ideal < speedup <= 1.3 * ideal, name

    def test_sparser_model_is_faster(self, kitti_traces, spade_he):
        cycles = {
            name: spade_he.run_trace(model).total_cycles
            for name, (model, _, _) in kitti_traces.items()
        }
        assert cycles["SPP3"] < cycles["SPP2"] < cycles["SPP1"]

    def test_high_end_realtime_class(self, kitti_traces, spade_he):
        # Paper: record-breaking 500 FPS on the sparsest models.
        result = spade_he.run_trace(kitti_traces["SPP3"][0])
        assert result.fps > 300

    def test_le_matches_peak_ratio(self, kitti_traces):
        model = kitti_traces["SPP2"][0]
        he = SpadeAccelerator(SPADE_HE).run_trace(model)
        le = SpadeAccelerator(SPADE_LE).run_trace(model)
        peak_ratio = SPADE_HE.peak_macs_per_cycle / SPADE_LE.peak_macs_per_cycle
        assert le.total_cycles / he.total_cycles > 0.3 * peak_ratio


class TestEnergy:
    def test_energy_savings_track_ops_savings(self, kitti_traces, spade_he,
                                              dense_he):
        # Paper Fig. 10(c): near-optimal energy scaling vs DenseAcc.
        for name, (model, dense, savings) in kitti_traces.items():
            spade_energy = spade_he.run_trace(model).energy_mj
            dense_energy = dense_he.run_trace(dense).energy_mj
            ratio = dense_energy / spade_energy
            ideal = 1.0 / (1.0 - savings)
            assert 0.5 * ideal < ratio < 1.5 * ideal, name

    def test_energy_breakdown_components_positive(self, kitti_traces,
                                                  spade_he):
        energy = spade_he.run_trace(kitti_traces["SPP2"][0]).energy
        assert energy.compute_pj > 0
        assert energy.sram_pj > 0
        assert energy.dram_pj > 0
        assert energy.rgu_pj > 0

    def test_compute_dominates(self, kitti_traces, spade_he):
        # A sane accelerator energy budget is compute/SRAM dominated.
        energy = spade_he.run_trace(kitti_traces["SPP1"][0]).energy
        assert energy.compute_pj > energy.rgu_pj
        assert energy.compute_pj > energy.pruning_pj

    def test_dram_savings_lag_ops_savings(self, kitti_traces, spade_he,
                                          dense_he):
        # Paper Fig. 12: DRAM savings slightly lag ops savings.
        model, dense, savings = kitti_traces["SPP3"]
        spade_energy = spade_he.run_trace(model).energy
        dense_energy = dense_he.run_trace(dense).energy
        dram_ratio = dense_energy.dram_pj / spade_energy.dram_pj
        compute_ratio = dense_energy.compute_pj / spade_energy.compute_pj
        assert dram_ratio < compute_ratio


class TestUtilization:
    def test_spade_utilization_reasonable(self, kitti_traces, spade_he):
        result = spade_he.run_trace(kitti_traces["SPP1"][0])
        assert result.utilization(SPADE_HE) > 0.5

    def test_optimizations_improve_total(self, kitti_traces):
        model = kitti_traces["SPP2"][0]
        optimized = SpadeAccelerator(SPADE_HE, optimize=True).run_trace(model)
        baseline = SpadeAccelerator(SPADE_HE, optimize=False).run_trace(model)
        assert optimized.total_cycles <= baseline.total_cycles


class TestAreaModel:
    def test_sparse_support_is_small_fraction_he(self):
        # Paper Fig. 10(b): extra hardware ~4.3% of SPADE.HE.
        area = accelerator_area(SPADE_HE, sparse_support=True)
        fraction = area.fraction("rgu", "gsu", "sfu", "rule_buffer")
        assert 0.01 < fraction < 0.12

    def test_sparse_fraction_larger_on_le(self):
        he = accelerator_area(SPADE_HE).fraction("rgu", "gsu", "sfu",
                                                 "rule_buffer")
        le = accelerator_area(SPADE_LE).fraction("rgu", "gsu", "sfu",
                                                 "rule_buffer")
        assert le > he

    def test_spade_smaller_than_pointacc(self):
        # Paper Fig. 10(a): smaller area and SRAM than PointAcc.
        spade = accelerator_area(SPADE_HE).total_mm2
        pointacc = pointacc_like_area(SPADE_HE).total_mm2
        assert spade < pointacc

    def test_spade_sram_smaller_than_pointacc_cache(self):
        assert sram_kilobytes(SPADE_HE) < 768 + 256

    def test_dense_acc_smaller_than_spade(self):
        dense = accelerator_area(SPADE_HE, sparse_support=False).total_mm2
        spade = accelerator_area(SPADE_HE, sparse_support=True).total_mm2
        assert dense < spade


class TestModelResultAccounting:
    def test_breakdown_sums_to_total(self, kitti_traces, spade_he):
        result = spade_he.run_trace(kitti_traces["SPP2"][0])
        assert sum(result.breakdown().values()) == result.total_cycles

    def test_latency_fps_consistent(self, kitti_traces, spade_he):
        result = spade_he.run_trace(kitti_traces["SPP2"][0])
        assert result.fps == pytest.approx(1e3 / result.latency_ms)

    def test_layer_count_matches_spec(self, kitti_batch):
        spec = build_model_spec("SPP1")
        trace = trace_model(spec, kitti_batch.coords)
        result = SpadeAccelerator(SPADE_HE).run_trace(trace)
        assert len(result.layers) == spec.num_layers

    def test_empty_result_fps_is_zero(self):
        # Guard: an empty frame (zero cycles) must report 0 FPS, not inf.
        empty = ModelResult(model_name="SPP2", accelerator="SPADE.HE")
        assert empty.total_cycles == 0
        assert empty.latency_ms == 0.0
        assert empty.fps == 0.0
        assert empty.energy_mj == 0.0
        assert empty.breakdown() == {}

    def test_aggregates_match_layers_built_on_read(self, kitti_traces,
                                                   spade_he):
        # Aggregates come from the per-layer arrays; the LayerResult
        # objects are built on first read of ``layers``, then kept.
        result = spade_he.run_trace(kitti_traces["SPP2"][0])
        assert "layers" not in vars(result)
        layers = result.layers
        assert result.layers is layers
        assert result.total_cycles == sum(
            layer.schedule.total_cycles for layer in layers)
        assert result.total_macs == sum(
            layer.schedule.macs for layer in layers)
        assert result.total_dram_bytes == sum(
            layer.schedule.dram_bytes for layer in layers)
        assert result.energy.total_pj == pytest.approx(
            sum(layer.energy.total_pj for layer in layers))

    def test_energy_and_breakdown_return_copies(self, kitti_traces,
                                                spade_he):
        result = spade_he.run_trace(kitti_traces["SPP3"][0])
        energy = result.energy
        total = energy.total_pj
        energy.compute_pj = -1.0        # mutate the returned object
        assert result.energy.total_pj == total
        breakdown = result.breakdown()
        breakdown["mxu"] = -1
        assert result.breakdown()["mxu"] != -1
