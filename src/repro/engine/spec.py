"""Declarative experiment specs: an experiment as serializable data.

:class:`ExperimentSpec` is the data form of an
:class:`~repro.engine.runner.ExperimentRunner` invocation — which
simulators, which models, which scenarios, which backend and knobs —
with a JSON round trip (:meth:`to_dict` / :meth:`from_dict`,
:meth:`to_json` / :meth:`from_json`, :meth:`load` / :meth:`save`), full
validation with actionable errors, and a :meth:`build_runner` /
:meth:`run` pair that resolves every simulator name through the
:mod:`~repro.engine.registry` and every knob through
:class:`~repro.engine.settings.EngineSettings`.

Because a spec is plain data it can be validated before any work starts,
diffed between experiments, committed next to results, launched from a
shell (``repro run spec.json``), and hashed into the run manifest and
the run journal, so a resumed run can prove it is the same experiment.

A minimal spec file::

    {
      "name": "smoke",
      "simulators": ["spade-he", "dense-he"],
      "models": ["SPP3"],
      "scenarios": [{"name": "smoke", "seed": 0}],
      "backend": "serial"
    }

Programmatic construction accepts richer objects than JSON does —
:class:`~repro.engine.simulators.Simulator` instances in ``simulators``
and :class:`~repro.models.specs.ModelSpec` instances in ``models`` — so
benchmarks build their grids through the same class; :meth:`to_dict`
refuses (with an actionable error) to serialize what JSON cannot carry.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..models.specs import ModelSpec
from ..models.zoo import TABLE1_PAPER
from .backends import BACKENDS
from .cache import TraceCache
from .runner import ExperimentRunner, Scenario
from .settings import EngineSettings, knob_fields
from .simulators import Simulator, build_simulator

#: Schema version stamped into serialized specs; bumped on breaking
#: layout changes so old files fail loudly instead of misparsing.
SPEC_VERSION = 1

#: The engine knobs a spec carries: one spec key (and one
#: :class:`ExperimentSpec` field) per :class:`EngineSettings` field.
KNOBS = tuple(knob_fields(EngineSettings))

_SCENARIO_KEYS = ("name", "seed", "frames")
_CELL_KEYS = ("scenario", "model", "simulator")


def _spec_error(name, message: str) -> ValueError:
    return ValueError(f"experiment spec {name!r}: {message}")


def _as_scenario(entry, index: int, spec_name: str) -> Scenario:
    """One scenario from a :class:`Scenario` or a spec-file dict.

    Dict entries go through the :class:`Scenario` constructor, so the
    shared ``validate_scenario`` raises the *same* message a keyword
    construction would — one validator, no drift.
    """
    if isinstance(entry, Scenario):
        return entry
    if isinstance(entry, dict):
        unknown = sorted(set(entry) - set(_SCENARIO_KEYS))
        if unknown:
            raise _spec_error(
                spec_name,
                f"scenario #{index} has unknown key(s) {unknown}; "
                f"allowed: {list(_SCENARIO_KEYS)}",
            )
        return Scenario(**entry)
    raise _spec_error(
        spec_name,
        f"scenario #{index} must be a Scenario or a dict with keys "
        f"{list(_SCENARIO_KEYS)}, got {type(entry).__name__}",
    )


def cell_filter_from_rules(rules: list):
    """Compile declarative cell include-rules into a runner cell filter.

    Each rule is a dict with any of ``scenario`` / ``model`` /
    ``simulator`` as :mod:`fnmatch` patterns (a missing key matches
    everything); a cell survives when *any* rule matches all its
    labels.  An empty rule list means "keep every cell" and compiles to
    ``None`` (no filter).
    """
    if not rules:
        return None
    frozen = [dict(rule) for rule in rules]

    def matches(rule, scenario_name, model_name, simulator_name):
        """Whether one include-rule covers the named cell."""
        labels = {
            "scenario": scenario_name,
            "model": model_name,
            "simulator": simulator_name,
        }
        return all(
            fnmatch.fnmatchcase(labels[key], str(pattern))
            for key, pattern in rule.items()
        )

    def cell_filter(scenario, model_name, simulator):
        """The runner-facing predicate over resolved cells."""
        return any(
            matches(rule, scenario.name, model_name, simulator.name)
            for rule in frozen
        )

    return cell_filter


@dataclass
class ExperimentSpec:
    """One experiment, declared as data.

    Attributes:
        simulators: Spec strings resolved through the simulator registry
            (``"spade-he"``, ``"platform:A6000"``, any registered
            family); :class:`Simulator` instances are accepted for
            programmatic use but cannot be serialized.
        models: Table I model names (validated against the zoo);
            :class:`ModelSpec` instances are accepted for programmatic
            use.
        scenarios: :class:`Scenario` objects, or dicts with ``name`` /
            ``seed`` / ``frames`` in spec files.
        name: Label for error messages, output files and the CLI.
        backend: Execution backend, ``"serial"`` or ``"process"``, or
            ``None`` to inherit ``REPRO_ENGINE_BACKEND`` (default
            serial).
        workers: Pool width of the parallel backends, or ``None`` to
            inherit ``REPRO_ENGINE_WORKERS``.
        rulegen_shards: Rulegen row bands, or ``None`` to inherit
            ``REPRO_ENGINE_RULEGEN_SHARDS``.
        cache_dir: Persistent trace-cache directory for this experiment,
            or ``None`` to inherit ``REPRO_TRACE_CACHE_DIR``.
        delta_trace: Trace sequential frames as delta chains (frame 0
            full, later frames seeded by the previous frame's trace),
            or ``None`` to inherit ``REPRO_ENGINE_DELTA_TRACE``.
        faults: Deterministic fault-injection plan text (the chaos
            harness; grammar in ``docs/robustness.md``), or ``None``
            to inherit ``REPRO_ENGINE_FAULTS``.
        cells: Declarative cell include-rules (see
            :func:`cell_filter_from_rules`); empty keeps every cell.
        out: Default output sink for ``repro run`` — a ``.csv`` /
            ``.json`` path or ``"-"`` for stdout; ``None`` prints a
            formatted table.
    """

    simulators: list
    models: list
    scenarios: list = None
    name: str = "experiment"
    backend: str = None
    workers: int = None
    rulegen_shards: int = None
    cache_dir: str = None
    delta_trace: bool = None
    faults: str = None
    cells: list = field(default_factory=list)
    out: str = None

    def __post_init__(self):
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check every field, raising actionable :class:`ValueError`\\ s.

        Simulator names go through the live registry, so validation
        reflects whatever third-party simulators are registered at the
        time — a spec naming a plugin validates once the plugin has
        imported.
        """
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"experiment spec name must be a non-empty string, "
                f"got {self.name!r}"
            )
        self._validate_simulators()
        self._validate_models()
        self.scenarios = self._validate_scenarios()
        self._validate_knobs()
        self._validate_cells()
        if self.out is not None and not isinstance(self.out, str):
            raise _spec_error(
                self.name,
                f"out must be a path string, '-' or null, got {self.out!r}",
            )
        return self

    def _validate_simulators(self):
        if not isinstance(self.simulators, (list, tuple)) \
                or not self.simulators:
            raise _spec_error(
                self.name,
                "simulators must be a non-empty list of spec strings "
                "(e.g. [\"spade-he\", \"platform:A6000\"])",
            )
        built = []
        for item in self.simulators:
            # Instantiating is the validation: the registry raises a
            # ValueError listing the registered families for unknown or
            # malformed spec strings.  The instances are kept so
            # build_runner does not construct everything a second time.
            built.append(item if isinstance(item, Simulator)
                         else build_simulator(item))
        self._validated_source = list(self.simulators)
        self._validated_simulators = built

    def _validate_models(self):
        if not isinstance(self.models, (list, tuple)) or not self.models:
            raise _spec_error(
                self.name,
                f"models must be a non-empty list of Table I names "
                f"{sorted(TABLE1_PAPER)} or ModelSpec instances",
            )
        for model in self.models:
            if isinstance(model, ModelSpec):
                continue
            if not isinstance(model, str):
                raise _spec_error(
                    self.name,
                    f"model entries must be Table I names or ModelSpec "
                    f"instances, got {type(model).__name__}",
                )
            if model not in TABLE1_PAPER:
                raise _spec_error(
                    self.name,
                    f"unknown model {model!r}; Table I names: "
                    f"{sorted(TABLE1_PAPER)}",
                )

    def _validate_scenarios(self) -> list:
        if self.scenarios is None:
            return [Scenario()]
        if not isinstance(self.scenarios, (list, tuple)) \
                or not self.scenarios:
            raise _spec_error(
                self.name,
                "scenarios must be null (one default scenario) or a "
                "non-empty list of {name, seed, frames} entries",
            )
        return [
            _as_scenario(entry, index, self.name)
            for index, entry in enumerate(self.scenarios)
        ]

    def _validate_knobs(self):
        if self.backend is not None \
                and str(self.backend).strip().lower() not in BACKENDS:
            raise _spec_error(
                self.name,
                f"unknown backend {self.backend!r}; "
                f"choices: {sorted(BACKENDS)}",
            )
        if self.cache_dir is not None \
                and not isinstance(self.cache_dir, (str, Path)):
            raise _spec_error(
                self.name,
                f"cache_dir must be a directory path or null, "
                f"got {self.cache_dir!r}",
            )
        for name, value in self._knob_values().items():
            setattr(self, name, value)

    def _knob_values(self, overrides: dict = None) -> dict:
        """Every engine knob of this spec, ``overrides`` beating the
        spec's own values, parsed by its :class:`EngineSettings` field.

        Errors name the spec-file key (a CLI ``--workers 0`` errors as
        "workers", never the runner-internal "max_workers" kwarg the
        user never typed); ``None`` stays ``None`` (inherit the
        environment).
        """
        overrides = overrides or {}
        values = {}
        for name in KNOBS:
            value = overrides.get(name, getattr(self, name))
            if value is not None:
                value = EngineSettings.resolve_one(name, value, source=name)
            values[name] = value
        return values

    def _validate_cells(self):
        if not isinstance(self.cells, (list, tuple)):
            raise _spec_error(
                self.name,
                "cells must be a list of include-rules "
                "({scenario/model/simulator: fnmatch pattern})",
            )
        for index, rule in enumerate(self.cells):
            if not isinstance(rule, dict):
                raise _spec_error(
                    self.name,
                    f"cells[{index}] must be a dict, "
                    f"got {type(rule).__name__}",
                )
            unknown = sorted(set(rule) - set(_CELL_KEYS))
            if unknown:
                raise _spec_error(
                    self.name,
                    f"cells[{index}] has unknown key(s) {unknown}; "
                    f"allowed: {list(_CELL_KEYS)}",
                )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dict (round-trips via
        :meth:`from_dict`).

        Raises:
            ValueError: when the spec carries objects JSON cannot —
                simulator or model *instances* — naming the offending
                entry.
        """
        simulators = []
        for item in self.simulators:
            if isinstance(item, Simulator):
                raise _spec_error(
                    self.name,
                    f"cannot serialize simulator instance {item.name!r}; "
                    f"declarative specs carry registry spec strings — "
                    f"register a factory (@register_simulator) and name "
                    f"it instead",
                )
            simulators.append(str(item))
        models = []
        for model in self.models:
            if isinstance(model, ModelSpec):
                raise _spec_error(
                    self.name,
                    f"cannot serialize ModelSpec instance {model.name!r}; "
                    f"declarative specs carry Table I model names",
                )
            models.append(str(model))
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "simulators": simulators,
            "models": models,
            "scenarios": [
                {"name": s.name, "seed": s.seed, "frames": s.frames}
                for s in self.scenarios
            ],
            **self._knob_values(),
            "cells": [dict(rule) for rule in self.cells],
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build (and fully validate) a spec from a plain dict."""
        if not isinstance(data, dict):
            raise ValueError(
                f"experiment spec must be a JSON object, "
                f"got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"experiment spec version {version!r} is not supported "
                f"(this engine reads version {SPEC_VERSION})"
            )
        allowed = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(
                f"experiment spec has unknown key(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        for required in ("simulators", "models"):
            if required not in data:
                raise ValueError(
                    f"experiment spec is missing required key "
                    f"{required!r} (allowed keys: {sorted(allowed)})"
                )
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        """Serialize to the JSON document ``from_json`` reads back."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON document into a validated spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"experiment spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    def save(self, path) -> Path:
        """Write the spec JSON to ``path``; returns the path."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Read and validate a spec file, naming the file in errors."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise ValueError(
                f"cannot read experiment spec {str(path)!r}: {error}"
            ) from None
        try:
            return cls.from_json(text)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None

    # -- execution ---------------------------------------------------------

    def settings(self, **overrides) -> EngineSettings:
        """This spec's knobs resolved through the one settings resolver
        (spec value > environment > default; ``overrides`` win over
        both)."""
        values = {name: value for name, value in self._knob_values().items()
                  if value is not None}
        return EngineSettings.resolve(**{**values, **overrides})

    def build_runner(self, *, cache=None, frame_provider=None,
                     cell_filter=None, **overrides) -> ExperimentRunner:
        """Materialize the spec into an :class:`ExperimentRunner`.

        Keyword-only arguments carry the *runtime* objects a declarative
        file cannot: a shared :class:`TraceCache`, a
        :class:`~repro.engine.runner.FrameProvider` instance feeding
        custom frames (default: the synthetic scenes), or a Python
        ``cell_filter`` overriding the spec's declarative ``cells``
        rules.  ``overrides`` may also rebind any engine knob
        (``backend=``, ``workers=``, ...) — that is how CLI flags beat
        spec values.
        """
        unknown = sorted(set(overrides) - set(KNOBS))
        if unknown:
            raise _spec_error(
                self.name,
                f"unknown build_runner override(s) {unknown}",
            )
        knobs = self._knob_values(overrides)
        cache_dir = knobs.pop("cache_dir")
        if cache is None:
            if cache_dir is not None:
                cache = TraceCache(disk_dir=cache_dir)
            elif "cache_dir" in overrides:
                # An explicit None override means "memory-only", even
                # when REPRO_TRACE_CACHE_DIR is set — matching
                # spec.settings() and TraceCache(disk_dir=None).
                cache = TraceCache(disk_dir=None)
        if cell_filter is None:
            cell_filter = cell_filter_from_rules(self.cells)
        # Reuse the instances validation already built (unless the list
        # was mutated since); resolve_simulators accepts instances.
        if self.simulators == getattr(self, "_validated_source", None):
            simulators = list(self._validated_simulators)
        else:
            simulators = list(self.simulators)
        runner = ExperimentRunner(
            simulators=simulators,
            models=list(self.models),
            scenarios=list(self.scenarios),
            cache=cache,
            frame_provider=frame_provider,
            cell_filter=cell_filter,
            max_workers=knobs.pop("workers"),
            **knobs,
        )
        # The manifest and the run journal hash the source spec; keep
        # the provenance on the runner.
        runner.source_spec = self
        return runner

    def run(self, **kwargs):
        """Build the runner and execute the grid in one step."""
        return self.build_runner(**kwargs).run()
