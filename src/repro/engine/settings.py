"""The one declaration of every engine environment knob.

Each field of :class:`EngineSettings` and :class:`TelemetrySettings`
*is* its knob: declared with :func:`knob`, it carries its default, the
environment variable that overrides it and the parser that validates
it.  Everything that lists knobs derives the list from these fields —
resolution (:meth:`~Settings.resolve` for a whole snapshot,
:meth:`~Settings.resolve_one` for a single knob), the manifest form
(:meth:`~Settings.as_dict`), :data:`ENGINE_ENV_VARS`, the generated
``docs/knobs.md``, the spec's knob keys and the ``repro run``
overrides.  This module is also the one place the engine's environment
variables are read: the runner, the backends and the cache all delegate
here.

Every knob resolves explicit value > environment variable > default,
and a malformed value — wherever it came from — raises a
:class:`ValueError` naming the offending source (the keyword argument
or the environment variable, verbatim).
"""

from __future__ import annotations

import functools
import os
from dataclasses import MISSING, dataclass, field, fields

#: Environment variable naming the default execution backend.
BACKEND_ENV_VAR = "REPRO_ENGINE_BACKEND"

#: Environment variable overriding the parallel backends' pool width.
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"

#: Environment variable naming the trace cache's persistent disk tier.
CACHE_DIR_ENV_VAR = "REPRO_TRACE_CACHE_DIR"

#: Whether batched scenarios trace as sequential delta chains (frame 0
#: full, later frames seeded by their predecessor; "1"/"0", default
#: off).
DELTA_TRACE_ENV_VAR = "REPRO_ENGINE_DELTA_TRACE"

#: Deterministic fault-injection plan for chaos testing (grammar in
#: ``repro.engine.faults`` / docs/robustness.md; empty = disarmed).
FAULTS_ENV_VAR = "REPRO_ENGINE_FAULTS"

#: Span tracing on/off: when truthy, every run records counted nested
#: spans (trace/simulate/serialize/cache) and snapshots their
#: per-phase profile into its manifest's ``telemetry`` key.
TELEMETRY_ENV_VAR = "REPRO_ENGINE_TELEMETRY"

#: Sentinel distinguishing "no value given, consult the environment"
#: from an explicit ``None`` (which for ``cache_dir`` means "disable the
#: disk tier even when the environment names a directory").
UNSET = object()


def positive_int(value, source: str) -> int:
    """Validate any count-like knob into a positive int.

    Non-integer and non-positive values raise a clear
    :class:`ValueError` naming the offending source — a keyword
    argument (``"max_workers"``) or an environment variable
    (``"REPRO_ENGINE_WORKERS"``) — instead of propagating an opaque
    failure out of an executor or a worker process.
    """
    try:
        count = int(str(value).strip())
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}")
    return count


def boolean_flag(value, source: str) -> bool:
    """Validate an on/off knob (``1/0``, ``true/false``, ``yes/no``)."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"{source} must be a boolean flag (1/0, true/false, yes/no), "
        f"got {value!r}"
    )


def text(value, source: str) -> str:
    """A free-form string knob (backend name)."""
    return str(value)


def text_or_none(value, source: str):
    """A string knob where an empty value means "not set" (``None``)."""
    return str(value) if value else None


def fault_plan(value, source: str):
    """Validate a fault-injection plan (not armed) into its text.

    The plan is checked by :meth:`repro.engine.faults.FaultPlan.parse`;
    a malformed plan raises :class:`ValueError` prefixed by the
    offending source.  A blank plan is ``None`` (disarmed).
    """
    plan = str(value).strip()
    if not plan:
        return None
    from .faults import FaultPlan  # local import: faults imports this module

    try:
        FaultPlan.parse(plan)
    except ValueError as error:
        raise ValueError(f"{source}: {error}") from None
    return plan


def default_workers() -> int:
    """The pool width when nothing sets one: ``min(8, cpus)``."""
    return min(8, os.cpu_count() or 1)


def knob(env: str, parse, default=None, *, factory=None, shown=None,
         source=None, none_is_value=False):
    """Declare one settings field as an engine knob.

    Args:
        env: Environment variable overriding the default.
        parse: ``(value, source) -> value`` validator/normalizer; raises
            :class:`ValueError` naming ``source`` on a bad value.
        default: Value when neither an argument nor the variable is set.
        factory: Zero-argument callable computing the default instead;
            ``shown`` is how ``docs/knobs.md`` renders it.
        source: Name an explicit bad value is reported under (default:
            the field name).
        none_is_value: An explicit ``None`` is a value handed to
            ``parse`` rather than "inherit the environment".
    """
    metadata = {
        "env": env, "parse": parse, "shown": shown, "source": source,
        "none_is_value": none_is_value,
    }
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@functools.lru_cache(maxsize=None)
def knob_fields(cls) -> dict:
    """``{name: dataclasses.Field}`` of one settings class, in order."""
    return {spec.name: spec for spec in fields(cls)}


class Settings:
    """Resolution and manifest form shared by the settings classes."""

    @classmethod
    def resolve(cls, **values):
        """Resolve every knob: explicit argument > environment > default.

        Each keyword names a field; an omitted (or ``None``) argument
        inherits the environment — except where ``None`` is itself a
        value (``cache_dir=None`` disables the disk tier) — and a
        malformed value from either source raises a :class:`ValueError`
        naming the offender.
        """
        knobs = knob_fields(cls)
        for name in values:
            if name not in knobs:
                raise TypeError(
                    f"{cls.__name__}.resolve() got an unexpected keyword "
                    f"argument {name!r}"
                )
        return cls(**{name: cls.resolve_one(name, values.get(name, UNSET))
                      for name in knobs})

    @classmethod
    def resolve_one(cls, name: str, value=UNSET, source: str = None):
        """Resolve the single knob ``name`` (same contract as
        :meth:`resolve`); ``source`` renames an explicit value in
        errors, e.g. to the spec-file key the user typed."""
        spec = knob_fields(cls)[name]
        meta = spec.metadata
        if value is UNSET or (value is None and not meta["none_is_value"]):
            value = os.environ.get(meta["env"])
            if value is None:
                if spec.default is MISSING:
                    return spec.default_factory()
                return spec.default
            source = meta["env"]
        return meta["parse"](value, source or meta["source"] or name)

    def as_dict(self) -> dict:
        """The resolved knobs as a JSON-safe dict (manifest form)."""
        return {name: getattr(self, name) for name in knob_fields(type(self))}


@dataclass(frozen=True)
class EngineSettings(Settings):
    """One fully-resolved snapshot of every engine knob.

    Attributes:
        backend: Execution backend name, ``"serial"`` or
            ``"process"``.
        workers: Pool width of the parallel backends.
        cache_dir: Persistent trace-cache directory, or ``None`` for a
            memory-only cache.
        delta_trace: When True, batched scenarios trace as sequential
            delta chains (frame 0 full, later frames share the previous
            frame's rules where a layer input is unchanged).
        faults: Deterministic fault-injection plan text (chaos
            harness; see ``docs/robustness.md``), or ``None`` when
            disarmed.
    """

    backend: str = knob(BACKEND_ENV_VAR, text, "serial")
    workers: int = knob(WORKERS_ENV_VAR, positive_int,
                        factory=default_workers, shown="min(8, cpus)",
                        source="max_workers")
    cache_dir: str = knob(CACHE_DIR_ENV_VAR, text_or_none,
                          none_is_value=True)
    delta_trace: bool = knob(DELTA_TRACE_ENV_VAR, boolean_flag, False)
    faults: str = knob(FAULTS_ENV_VAR, fault_plan)


@dataclass(frozen=True)
class TelemetrySettings(Settings):
    """One fully-resolved snapshot of every telemetry knob.

    Attributes:
        enabled: When True, runs record counted nested spans (the
            :mod:`repro.engine.telemetry` tracer) and snapshot their
            per-phase profile into the run manifest's ``telemetry``
            key; off by default so the hot paths stay no-op.
    """

    enabled: bool = knob(TELEMETRY_ENV_VAR, boolean_flag, False)


#: The settings classes, in documentation order.
SETTINGS_CLASSES = (EngineSettings, TelemetrySettings)

#: Every environment variable the engine reads, in one tuple — derived
#: from the settings fields; the contract tested by
#: ``tests/test_engine_settings.py``.
ENGINE_ENV_VARS = tuple(
    spec.metadata["env"]
    for cls in SETTINGS_CLASSES for spec in knob_fields(cls).values()
)
