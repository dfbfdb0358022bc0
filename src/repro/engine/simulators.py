"""Adapters putting every simulator family behind one interface.

A :class:`Simulator` consumes a :class:`~repro.analysis.sparsity.ModelTrace`
(one frame's per-layer rules and counts) and returns a
:class:`~repro.engine.result.SimResult`.  The adapters wrap the legacy
simulators without changing their numbers: each one calls the same code
the pre-engine benchmarks called directly and copies the outcome into the
unified schema as plain data (numbers, lists and dicts), so a row is
the same whichever backend produced it.

``build_simulator`` turns short spec strings ("spade-he", "dense-le",
"pointacc-he", "spconv2d", "platform:A6000") into configured instances so
experiment grids can be declared as plain data.  Resolution goes through
the :mod:`~repro.engine.registry` simulator registry: the first token of
the spec string names a registered *family factory* and the remaining
dash/colon-separated tokens are its arguments, so third-party simulators
registered via ``@register_simulator`` plug into runners, declarative
spec files and the ``repro`` CLI without touching this module.  Unknown
or malformed spec strings raise a :class:`ValueError` listing the
registered names.
"""

from __future__ import annotations

from ..analysis.sparsity import ModelTrace
from ..baselines.platforms import (
    HIGH_END_PLATFORMS,
    LOW_END_PLATFORMS,
    PlatformModel,
    PlatformSpec,
)
from ..baselines.pointacc import PointAccSimulator
from ..baselines.spconv2d_acc import SpConv2DAccModel
from ..core.accelerator import ModelResult, SpadeAccelerator
from ..core.config import SPADE_HE, SPADE_LE, SpadeConfig
from ..core.dense import DenseAccelerator
from .registry import SIMULATORS, UnknownNameError, register_simulator
from .result import SimResult


class Simulator:
    """Interface every engine simulator implements.

    Attributes:
        name: Stable display name; the runner uses it as the row label.
    """

    name: str = "simulator"

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        raise NotImplementedError


def _cycles_to_ms(cycles: int, clock_ghz: float) -> float:
    return cycles / (clock_ghz * 1e9) * 1e3


def _fps(latency_ms: float) -> float:
    return 1e3 / latency_ms if latency_ms else 0.0


def _from_model_result(simulator_name: str, result: ModelResult,
                       config: SpadeConfig) -> SimResult:
    """SPADE and DenseAcc share :class:`ModelResult`; adapt it once.

    The per-layer detail comes straight from the result's arrays, one
    ``tolist()`` per column; no per-layer object is built.
    """
    schedules = result.schedules
    per_layer = [
        {
            "name": name,
            "cycles": cycles,
            "macs": macs,
            "dram_bytes": dram_bytes,
            "energy_pj": energy_pj,
            "overhead_fraction": overhead_fraction,
            "effective_ta": effective_ta,
        }
        for (name, cycles, macs, dram_bytes, energy_pj, overhead_fraction,
             effective_ta) in zip(
            schedules.names,
            result.layer_cycles.tolist(),
            schedules.macs.tolist(),
            schedules.dram_bytes.tolist(),
            result.layer_energy_pj.tolist(),
            schedules.overhead_fractions().tolist(),
            schedules.effective_ta_values(),
        )
    ]
    return SimResult(
        simulator=simulator_name,
        model=result.model_name,
        cycles=result.total_cycles,
        latency_ms=result.latency_ms,
        fps=result.fps,
        energy_mj=result.energy_mj,
        dram_bytes=result.total_dram_bytes,
        utilization=result.utilization(config),
        per_layer=per_layer,
        extras={
            "breakdown": result.breakdown(),
            "total_macs": result.total_macs,
        },
    )


class SpadeSimulator(Simulator):
    """The SPADE cycle simulator behind the unified interface."""

    def __init__(self, config: SpadeConfig, optimize: bool = True,
                 name: str = None):
        self.config = config
        self.optimize = optimize
        self._accelerator = SpadeAccelerator(config, optimize=optimize)
        self.name = name or (
            f"SPADE.{config.name}" + ("" if optimize else " (no opt)")
        )

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        result = self._accelerator.run_trace(trace)
        sim_result = _from_model_result(self.name, result, self.config)
        return sim_result


class DenseAccSimulator(Simulator):
    """DenseAcc baseline: every layer of the given trace, densified."""

    def __init__(self, config: SpadeConfig, name: str = None):
        self.config = config
        self._accelerator = DenseAccelerator(config)
        self.name = name or f"DenseAcc.{config.name}"

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        result = self._accelerator.run_trace(trace)
        return _from_model_result(self.name, result, self.config)


class PointAccSim(Simulator):
    """PointAcc-style sort-based accelerator (paper Sec. IV-B4)."""

    def __init__(self, config: SpadeConfig, name: str = None, **kwargs):
        self.config = config
        self._simulator = PointAccSimulator(config, **kwargs)
        self.name = name or f"PointAcc.{config.name}"

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        result = self._simulator.run_trace(trace)
        latency_ms = _cycles_to_ms(result.total_cycles, self.config.clock_ghz)
        per_layer = [
            {
                "name": layer.name,
                "cycles": layer.total_cycles,
                "mapping_cycles": layer.mapping_cycles,
                "gather_scatter_cycles": layer.gather_scatter_cycles,
                "mxu_cycles": layer.mxu_cycles,
                "dram_bytes": layer.dram_bytes,
            }
            for layer in result.layers
        ]
        return SimResult(
            simulator=self.name,
            model=result.model_name,
            cycles=result.total_cycles,
            latency_ms=latency_ms,
            fps=_fps(latency_ms),
            energy_mj=None,            # no energy model published
            dram_bytes=result.total_dram_bytes,
            utilization=None,
            per_layer=per_layer,
            extras={"phases": result.phase_totals()},
        )


class SpadeNoOverlapSim(Simulator):
    """SPADE with dataflow phases fully serialized (paper Sec. IV-B4).

    The Fig. 14/15 comparison setup: no overlap between mapping,
    gather/scatter and MXU phases, matching the conditions under which
    the paper compares against the PointAcc simulator.  Phase cycle
    totals land in ``extras["phases"]`` with the same keys the
    :class:`PointAccSim` adapter reports.
    """

    def __init__(self, config: SpadeConfig, name: str = None):
        self.config = config
        self.name = name or f"SPADE.{config.name} (no overlap)"

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        from ..baselines.pointacc import spade_no_overlap

        result = spade_no_overlap(trace, self.config)
        latency_ms = _cycles_to_ms(result.total_cycles, self.config.clock_ghz)
        return SimResult(
            simulator=self.name,
            model=result.model_name,
            cycles=result.total_cycles,
            latency_ms=latency_ms,
            fps=_fps(latency_ms),
            energy_mj=None,            # the comparison is latency/DRAM only
            dram_bytes=result.dram_bytes,
            utilization=None,
            per_layer=[],
            extras={"phases": result.phase_totals()},
        )


class SpConv2DSim(Simulator):
    """SpConv2D-Acc (SCNN-style) baseline over the frame's sparse layers.

    Dense layers carry no element-sparsity story and are skipped, exactly
    as the legacy Fig. 2 benchmarks did; their count lands in ``extras``.
    """

    name = "SpConv2D-Acc"

    def __init__(self, pe_rows: int = 16, pe_cols: int = 16,
                 num_banks: int = 16, clock_ghz: float = 1.0,
                 name: str = None):
        self._model = SpConv2DAccModel(pe_rows=pe_rows, pe_cols=pe_cols,
                                       num_banks=num_banks)
        self.pe_rows = pe_rows
        self.clock_ghz = clock_ghz
        if name:
            self.name = name

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        per_layer = []
        total_cycles = 0
        total_macs = 0
        weighted_util = 0.0
        skipped_dense = 0
        for layer in trace.layers:
            if layer.rules is None:
                skipped_dense += 1
                continue
            report = self._model.run_rules(
                layer.rules, layer.spec.in_channels, layer.spec.out_channels
            )
            per_layer.append({
                "name": layer.spec.name,
                "cycles": report.cycles,
                "macs": report.macs,
                "utilization": report.utilization,
                "bank_conflict_rate": report.bank_conflict_rate,
            })
            total_cycles += report.cycles
            total_macs += report.macs
            weighted_util += report.utilization * report.cycles
        latency_ms = _cycles_to_ms(total_cycles, self.clock_ghz)
        return SimResult(
            simulator=self.name,
            model=trace.spec.name,
            cycles=total_cycles,
            latency_ms=latency_ms,
            fps=_fps(latency_ms),
            energy_mj=None,
            dram_bytes=None,
            utilization=(weighted_util / total_cycles) if total_cycles
            else None,
            per_layer=per_layer,
            extras={"skipped_dense_layers": skipped_dense,
                    "total_macs": total_macs},
        )


class PlatformSim(Simulator):
    """Analytic GPU / CPU / Jetson platform model."""

    def __init__(self, spec: PlatformSpec, name: str = None):
        self.spec = spec
        self._model = PlatformModel(spec)
        self.name = name or spec.name

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        result = self._model.run_trace(trace)
        return SimResult(
            simulator=self.name,
            model=result.model_name,
            cycles=None,               # analytic model: no cycle notion
            latency_ms=result.latency_ms,
            fps=result.fps,
            energy_mj=result.energy_mj,
            dram_bytes=None,
            utilization=None,
            per_layer=[],
            extras={"phases": result.phases(), "power_w": result.power_w},
        )


class TraceStatsSim(Simulator):
    """Workload statistics of the trace itself — no hardware model.

    Reports the geometric quantities Table I and the sparsity studies
    are built from (total MACs/ops, active input count, layer count) so
    workload characterization sweeps run through the same engine grid as
    the cycle simulators instead of hand-walking traces.
    """

    name = "TraceStats"

    def run(self, trace: ModelTrace) -> SimResult:
        """Simulate one traced model; one :class:`SimResult` row."""
        per_layer = [
            {
                "name": layer.spec.name,
                "macs": int(layer.sparse_macs),
                "inputs": int(layer.in_count),
                "outputs": int(layer.out_count),
            }
            for layer in trace.layers
        ]
        return SimResult(
            simulator=self.name,
            model=trace.spec.name,
            cycles=None,
            latency_ms=None,
            fps=None,
            energy_mj=None,
            dram_bytes=None,
            utilization=None,
            per_layer=per_layer,
            extras={
                "total_macs": int(trace.total_macs),
                "total_ops": int(trace.total_ops),
                "input_active": int(trace.input_active),
                "layers": len(trace.layers),
            },
        )


# ---------------------------------------------------------------------------
# Spec-string resolution through the simulator registry
# ---------------------------------------------------------------------------

_PLATFORMS = {
    spec.name.lower(): spec
    for spec in HIGH_END_PLATFORMS + LOW_END_PLATFORMS
}

_CONFIGS = {"he": SPADE_HE, "le": SPADE_LE}


def _spade_config(family: str, args: tuple) -> SpadeConfig:
    """The HE/LE config token every SPADE-family factory requires."""
    if not args or args[0] not in _CONFIGS:
        raise UnknownNameError(
            f"simulator spec {family!r} needs a config token: "
            f"{sorted(_CONFIGS)} (e.g. {family}-he)"
        )
    return _CONFIGS[args[0]]


@register_simulator("spade")
def _build_spade(*args) -> Simulator:
    """SPADE cycle simulator: ``spade-he``, ``spade-le``, ``spade-he-noopt``."""
    return SpadeSimulator(_spade_config("spade", args),
                          optimize="noopt" not in args)


@register_simulator("dense")
def _build_dense(*args) -> Simulator:
    """Ideal dense accelerator: ``dense-he``, ``dense-le``."""
    return DenseAccSimulator(_spade_config("dense", args))


@register_simulator("pointacc")
def _build_pointacc(*args) -> Simulator:
    """PointAcc sort-based baseline: ``pointacc-he``, ``pointacc-le``."""
    return PointAccSim(_spade_config("pointacc", args))


@register_simulator("spconv2d")
def _build_spconv2d() -> Simulator:
    """SpConv2D-Acc (SCNN-style) element-sparsity baseline: ``spconv2d``."""
    return SpConv2DSim()


@register_simulator("platform")
def _build_platform(*args) -> Simulator:
    """Analytic platform model: ``platform:A6000`` (any platform name)."""
    if len(args) != 1 or not args[0]:
        raise UnknownNameError(
            f"platform spec needs exactly one platform name "
            f"(e.g. platform:A6000); choices: {sorted(_PLATFORMS)}"
        )
    platform = args[0]
    if platform not in _PLATFORMS:
        raise UnknownNameError(
            f"unknown platform {platform!r}; choices: {sorted(_PLATFORMS)}"
        )
    return PlatformSim(_PLATFORMS[platform])


@register_simulator("stats")
def _build_stats() -> Simulator:
    """Trace workload statistics (GOPs, active inputs): ``stats``."""
    return TraceStatsSim()


def build_simulator(spec: str) -> Simulator:
    """Instantiate a simulator from a short declarative string.

    Built-in forms: ``"spade-he"``, ``"spade-le"``, ``"spade-he-noopt"``,
    ``"dense-he"``, ``"dense-le"``, ``"pointacc-he"``, ``"pointacc-le"``,
    ``"spconv2d"``, ``"stats"``, ``"platform:A6000"`` (any platform
    name) — plus any family added via
    :func:`~repro.engine.registry.register_simulator`.  The first token
    (before ``-`` or ``:``) names the registered family; the remaining
    tokens are the factory's arguments.

    Raises:
        ValueError: for an unknown family (listing every registered
            name) or a malformed argument list (listing the valid
            choices); also a :class:`KeyError` for backward
            compatibility.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise UnknownNameError(
            f"simulator spec must be a non-empty string, got {spec!r}; "
            f"registered families: {SIMULATORS.names()}"
        )
    token = spec.strip().lower()
    if ":" in token:
        family, _, arg = token.partition(":")
        args = (arg,)
    else:
        parts = token.split("-")
        family, args = parts[0], tuple(parts[1:])
    factory = SIMULATORS.get(family)
    try:
        return factory(*args)
    except TypeError:
        # A factory fed arguments its signature rejects ("spconv2d-he",
        # "stats-x") keeps the spec-string error contract: a ValueError
        # naming the family's usage, never a bare traceback.
        usage = SIMULATORS.describe(family)
        raise UnknownNameError(
            f"simulator spec {spec!r} has arguments the {family!r} "
            f"family does not accept"
            + (f"; usage: {usage}" if usage else "")
        ) from None


def resolve_simulators(simulators) -> list:
    """Normalize a mixed list of instances / spec strings to instances."""
    resolved = []
    for item in simulators:
        if isinstance(item, str):
            resolved.append(build_simulator(item))
        elif isinstance(item, Simulator):
            resolved.append(item)
        else:
            raise TypeError(
                f"expected Simulator or spec string, got {type(item)!r}"
            )
    return resolved
