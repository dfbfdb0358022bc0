"""The single resolver for every engine environment knob.

:class:`EngineSettings` (and the per-knob ``resolve_*`` helpers it is
built from) is the *one* place the engine's environment variables are
read; the runner, the backends, the cache and rulegen all delegate
here, and declarative :class:`~repro.engine.spec.ExperimentSpec` files
resolve through the identical code path, so a spec, a keyword argument
and an environment override can never disagree about precedence or
error wording.

Every knob resolves explicit value > environment variable > default,
and a malformed value — wherever it came from — raises a
:class:`ValueError` naming the offending source (the keyword argument
or the environment variable, verbatim).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Environment variable naming the default execution backend.
BACKEND_ENV_VAR = "REPRO_ENGINE_BACKEND"

#: Environment variable overriding the parallel backends' pool width.
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"

#: Environment variable giving the default row-band count for sharded
#: rule generation.
RULEGEN_SHARDS_ENV_VAR = "REPRO_ENGINE_RULEGEN_SHARDS"

#: Environment variable naming the trace cache's persistent disk tier.
CACHE_DIR_ENV_VAR = "REPRO_TRACE_CACHE_DIR"

#: Whether batched scenarios trace as sequential delta chains (frame 0
#: full, later frames patched from their predecessor; "1"/"0",
#: default off).
DELTA_TRACE_ENV_VAR = "REPRO_ENGINE_DELTA_TRACE"

#: Fraction of a frame's pillars the frame-to-frame diff may touch
#: before delta rule generation falls back to a full rebuild.
DELTA_THRESHOLD_ENV_VAR = "REPRO_ENGINE_DELTA_THRESHOLD"

#: Deterministic fault-injection plan for chaos testing (grammar in
#: ``repro.engine.faults`` / docs/robustness.md; empty = disarmed).
FAULTS_ENV_VAR = "REPRO_ENGINE_FAULTS"

#: Whether a run may degrade to the next backend in the ladder
#: (dist -> process -> serial) when its backend cannot start
#: ("1"/"0", default off: fail loudly).
DEGRADE_ENV_VAR = "REPRO_ENGINE_DEGRADE"

#: Host the distributed coordinator binds its listening socket to.
DIST_HOST_ENV_VAR = "REPRO_ENGINE_DIST_HOST"

#: Port the distributed coordinator listens on (0 = ephemeral).
DIST_PORT_ENV_VAR = "REPRO_ENGINE_DIST_PORT"

#: Work groups per distributed work unit (requeue granularity).
DIST_CHUNKSIZE_ENV_VAR = "REPRO_ENGINE_DIST_CHUNKSIZE"

#: Seconds a dispatched unit may run before it is requeued elsewhere.
DIST_UNIT_TIMEOUT_ENV_VAR = "REPRO_ENGINE_DIST_UNIT_TIMEOUT"

#: Seconds between worker heartbeats (the coordinator tells workers).
DIST_HEARTBEAT_ENV_VAR = "REPRO_ENGINE_DIST_HEARTBEAT"

#: Seconds of heartbeat silence before a busy worker is declared dead.
DIST_WORKER_TIMEOUT_ENV_VAR = "REPRO_ENGINE_DIST_WORKER_TIMEOUT"

#: Maximum dispatch attempts per unit before the run fails loudly.
DIST_MAX_ATTEMPTS_ENV_VAR = "REPRO_ENGINE_DIST_MAX_ATTEMPTS"

#: Seconds the coordinator waits for (the first, or replacement)
#: workers to connect before giving up.
DIST_START_TIMEOUT_ENV_VAR = "REPRO_ENGINE_DIST_START_TIMEOUT"

#: Whether the coordinator pre-traces every unique frame into the
#: shared cache dir before dispatching ("1"/"0"; default on).
DIST_TRACE_STAGE_ENV_VAR = "REPRO_ENGINE_DIST_TRACE_STAGE"

#: Shared secret for the HMAC challenge/response handshake on the
#: coordinator's (and the experiment service's) listening socket;
#: unset disables authentication.
DIST_TOKEN_ENV_VAR = "REPRO_ENGINE_DIST_TOKEN"

#: Row-record count per worker result frame: a worker flushes a
#: ``result`` message once this many rows have accumulated; 0 (the
#: default) coalesces a whole unit's rows into one frame.
DIST_BATCH_ROWS_ENV_VAR = "REPRO_ENGINE_DIST_BATCH_ROWS"

#: Address the experiment service (``repro serve``) binds; clients and
#: workers connect to it.
SERVICE_HOST_ENV_VAR = "REPRO_ENGINE_SERVICE_HOST"

#: Port the experiment service listens on (0 = ephemeral).
SERVICE_PORT_ENV_VAR = "REPRO_ENGINE_SERVICE_PORT"

#: Root directory of the service's durable run store
#: (``<dir>/<run-id>/`` holds spec, state, journal and results).
SERVICE_DIR_ENV_VAR = "REPRO_ENGINE_SERVICE_DIR"

#: How many submitted runs the service executes concurrently on its
#: shared worker fleet.
SERVICE_MAX_INFLIGHT_ENV_VAR = "REPRO_ENGINE_SERVICE_MAX_INFLIGHT"

#: How many of one submitter's runs may be inflight at once (the
#: fair-share cap; further submissions stay pending).
SERVICE_SUBMITTER_CAP_ENV_VAR = "REPRO_ENGINE_SERVICE_SUBMITTER_CAP"

#: Seconds a SIGTERM'd ``repro serve`` waits for inflight units to
#: drain into the run journals before closing its sockets.
SERVICE_DRAIN_TIMEOUT_ENV_VAR = "REPRO_ENGINE_SERVICE_DRAIN_TIMEOUT"

#: Span tracing on/off: when truthy, every run records counted nested
#: spans (trace/simulate/cache/protocol/queue-wait) and snapshots the
#: metrics registry into its manifest's ``telemetry`` key.
TELEMETRY_ENV_VAR = "REPRO_ENGINE_TELEMETRY"

#: Default Chrome trace-event export path for traced runs (what
#: ``repro run --trace-out PATH`` overrides); unset = no export file.
TELEMETRY_TRACE_OUT_ENV_VAR = "REPRO_ENGINE_TELEMETRY_TRACE_OUT"

#: Port the Prometheus ``/metrics`` endpoint binds (``repro serve
#: --metrics-port``); 0 = ephemeral, unset = endpoint disabled.
TELEMETRY_METRICS_PORT_ENV_VAR = "REPRO_ENGINE_TELEMETRY_METRICS_PORT"

#: Every environment variable the engine reads, in one tuple — the
#: contract tested by ``tests/test_engine_settings.py``.
ENGINE_ENV_VARS = (
    BACKEND_ENV_VAR,
    WORKERS_ENV_VAR,
    RULEGEN_SHARDS_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    DELTA_TRACE_ENV_VAR,
    DELTA_THRESHOLD_ENV_VAR,
    FAULTS_ENV_VAR,
    DEGRADE_ENV_VAR,
    DIST_HOST_ENV_VAR,
    DIST_PORT_ENV_VAR,
    DIST_CHUNKSIZE_ENV_VAR,
    DIST_UNIT_TIMEOUT_ENV_VAR,
    DIST_HEARTBEAT_ENV_VAR,
    DIST_WORKER_TIMEOUT_ENV_VAR,
    DIST_MAX_ATTEMPTS_ENV_VAR,
    DIST_START_TIMEOUT_ENV_VAR,
    DIST_TRACE_STAGE_ENV_VAR,
    DIST_TOKEN_ENV_VAR,
    DIST_BATCH_ROWS_ENV_VAR,
    SERVICE_HOST_ENV_VAR,
    SERVICE_PORT_ENV_VAR,
    SERVICE_DIR_ENV_VAR,
    SERVICE_MAX_INFLIGHT_ENV_VAR,
    SERVICE_SUBMITTER_CAP_ENV_VAR,
    SERVICE_DRAIN_TIMEOUT_ENV_VAR,
    TELEMETRY_ENV_VAR,
    TELEMETRY_TRACE_OUT_ENV_VAR,
    TELEMETRY_METRICS_PORT_ENV_VAR,
)

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
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}"
        ) from None
    if count <= 0:
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}"
        )
    return count


def positive_float(value, source: str) -> float:
    """Validate any duration-like knob into a positive float (seconds)."""
    try:
        seconds = float(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive number of seconds, "
            f"got {value!r}"
        ) from None
    if not seconds > 0:
        raise ValueError(
            f"{source} must be a positive number of seconds, "
            f"got {value!r}"
        )
    return seconds


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


def fraction(value, source: str) -> float:
    """Validate a ratio-like knob into a float in ``(0, 1]``."""
    try:
        ratio = float(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a fraction in (0, 1], got {value!r}"
        ) from None
    if not 0 < ratio <= 1:
        raise ValueError(
            f"{source} must be a fraction in (0, 1], got {value!r}"
        )
    return ratio


def resolve_backend_name(value=None) -> str:
    """Backend name: explicit value > ``REPRO_ENGINE_BACKEND`` > serial."""
    if value is not None:
        return value
    return os.environ.get(BACKEND_ENV_VAR, "serial")


def resolve_workers(value=None, source: str = "max_workers") -> int:
    """Pool width: value > ``REPRO_ENGINE_WORKERS`` > cpus."""
    if value is not None:
        return positive_int(value, source)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        return positive_int(env, WORKERS_ENV_VAR)
    return min(8, os.cpu_count() or 1)


def resolve_rulegen_shards(value=None,
                           source: str = "rulegen_shards") -> int:
    """Rulegen row bands: value > ``REPRO_ENGINE_RULEGEN_SHARDS`` > 1."""
    if value is None:
        value = os.environ.get(RULEGEN_SHARDS_ENV_VAR)
        if value is None:
            return 1
        source = RULEGEN_SHARDS_ENV_VAR
    return positive_int(value, source)


def resolve_cache_dir(value=UNSET):
    """Disk-tier directory: value > ``REPRO_TRACE_CACHE_DIR`` > None.

    An explicit ``None`` (or empty string) disables the disk tier even
    when the environment names a directory; pass nothing to inherit the
    environment.
    """
    if value is UNSET:
        value = os.environ.get(CACHE_DIR_ENV_VAR)
    return str(value) if value else None


def _resolve_env(value, env_var: str, default, source: str, convert):
    """Shared explicit > environment > default resolution for one knob."""
    if value is None:
        value = os.environ.get(env_var)
        if value is None:
            return default
        source = env_var
    return convert(value, source)


def resolve_delta_trace(value=None, source: str = "delta_trace") -> bool:
    """Delta-chain tracing toggle: value > ``REPRO_ENGINE_DELTA_TRACE``
    > off."""
    return _resolve_env(value, DELTA_TRACE_ENV_VAR, False, source,
                        boolean_flag)


def resolve_delta_threshold(value=None,
                            source: str = "delta_threshold") -> float:
    """Delta-fallback fraction: value >
    ``REPRO_ENGINE_DELTA_THRESHOLD`` > 0.5."""
    return _resolve_env(value, DELTA_THRESHOLD_ENV_VAR, 0.5, source,
                        fraction)


def resolve_faults(value=None, source: str = "faults"):
    """Fault-injection plan text: value > ``REPRO_ENGINE_FAULTS`` > None.

    The plan is validated (but not armed) via
    :meth:`repro.engine.faults.FaultPlan.parse`; a malformed plan
    raises :class:`ValueError` naming the offending source.  Returns
    the normalized plan text, or ``None`` when no plan is set.
    """
    if value is None:
        value = os.environ.get(FAULTS_ENV_VAR)
        source = FAULTS_ENV_VAR
    if value is None:
        return None
    text = str(value).strip()
    if not text:
        return None
    from .faults import FaultPlan  # local import: faults imports this module

    try:
        FaultPlan.parse(text)
    except ValueError as error:
        raise ValueError(f"{source}: {error}") from None
    return text


def resolve_degrade(value=None, source: str = "degrade") -> bool:
    """Backend-degradation toggle: value > ``REPRO_ENGINE_DEGRADE`` >
    off."""
    return _resolve_env(value, DEGRADE_ENV_VAR, False, source,
                        boolean_flag)


def resolve_dist_host(value=None) -> str:
    """Coordinator bind host: value > ``REPRO_ENGINE_DIST_HOST`` >
    loopback."""
    if value is not None:
        return str(value)
    return os.environ.get(DIST_HOST_ENV_VAR) or "127.0.0.1"


def resolve_dist_port(value=None, source: str = "port") -> int:
    """Coordinator port: value > ``REPRO_ENGINE_DIST_PORT`` > 7463.

    0 is allowed and means "bind an ephemeral port" (the actual port is
    reported by the coordinator once bound).
    """
    if value is None:
        value = os.environ.get(DIST_PORT_ENV_VAR)
        if value is None:
            return 7463
        source = DIST_PORT_ENV_VAR
    try:
        port = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        )
    return port


def resolve_dist_chunksize(value=None, source: str = "chunksize") -> int:
    """Groups per dispatched unit: value >
    ``REPRO_ENGINE_DIST_CHUNKSIZE`` > 1 (finest-grained stealing)."""
    return _resolve_env(value, DIST_CHUNKSIZE_ENV_VAR, 1, source,
                        positive_int)


def resolve_dist_unit_timeout(value=None,
                              source: str = "unit_timeout") -> float:
    """Per-unit execution budget in seconds: value >
    ``REPRO_ENGINE_DIST_UNIT_TIMEOUT`` > 300."""
    return _resolve_env(value, DIST_UNIT_TIMEOUT_ENV_VAR, 300.0, source,
                        positive_float)


def resolve_dist_heartbeat(value=None,
                           source: str = "heartbeat_interval") -> float:
    """Worker heartbeat period in seconds: value >
    ``REPRO_ENGINE_DIST_HEARTBEAT`` > 1."""
    return _resolve_env(value, DIST_HEARTBEAT_ENV_VAR, 1.0, source,
                        positive_float)


def resolve_dist_worker_timeout(value=None,
                                source: str = "worker_timeout") -> float:
    """Heartbeat-silence budget in seconds: value >
    ``REPRO_ENGINE_DIST_WORKER_TIMEOUT`` > 10."""
    return _resolve_env(value, DIST_WORKER_TIMEOUT_ENV_VAR, 10.0, source,
                        positive_float)


def resolve_dist_max_attempts(value=None,
                              source: str = "max_attempts") -> int:
    """Dispatch attempts per unit: value >
    ``REPRO_ENGINE_DIST_MAX_ATTEMPTS`` > 3."""
    return _resolve_env(value, DIST_MAX_ATTEMPTS_ENV_VAR, 3, source,
                        positive_int)


def resolve_dist_start_timeout(value=None,
                               source: str = "start_timeout") -> float:
    """Worker-arrival budget in seconds: value >
    ``REPRO_ENGINE_DIST_START_TIMEOUT`` > 60."""
    return _resolve_env(value, DIST_START_TIMEOUT_ENV_VAR, 60.0, source,
                        positive_float)


def resolve_dist_trace_stage(value=None,
                             source: str = "trace_stage") -> bool:
    """Coordinator pre-trace stage toggle: value >
    ``REPRO_ENGINE_DIST_TRACE_STAGE`` > on."""
    return _resolve_env(value, DIST_TRACE_STAGE_ENV_VAR, True, source,
                        boolean_flag)


def resolve_dist_token(value=None):
    """Shared auth secret: value > ``REPRO_ENGINE_DIST_TOKEN`` > None.

    An empty string (either source) means "no authentication", the
    same as leaving the variable unset.
    """
    if value is None:
        value = os.environ.get(DIST_TOKEN_ENV_VAR)
    token = str(value) if value else None
    return token or None


def nonnegative_int(value, source: str) -> int:
    """Validate a count-or-disabled knob into an int >= 0."""
    try:
        count = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a non-negative integer, got {value!r}"
        ) from None
    if count < 0:
        raise ValueError(
            f"{source} must be a non-negative integer, got {value!r}"
        )
    return count


def resolve_dist_batch_rows(value=None,
                            source: str = "batch_rows") -> int:
    """Rows per worker result frame: value >
    ``REPRO_ENGINE_DIST_BATCH_ROWS`` > 0 (one frame per unit)."""
    return _resolve_env(value, DIST_BATCH_ROWS_ENV_VAR, 0, source,
                        nonnegative_int)


def resolve_service_host(value=None) -> str:
    """Service bind host: value > ``REPRO_ENGINE_SERVICE_HOST`` >
    loopback."""
    if value is not None:
        return str(value)
    return os.environ.get(SERVICE_HOST_ENV_VAR) or "127.0.0.1"


def resolve_service_port(value=None, source: str = "port") -> int:
    """Service port: value > ``REPRO_ENGINE_SERVICE_PORT`` > 7464.

    0 is allowed and means "bind an ephemeral port" (the bound port is
    reported by the service once listening).
    """
    if value is None:
        value = os.environ.get(SERVICE_PORT_ENV_VAR)
        if value is None:
            return 7464
        source = SERVICE_PORT_ENV_VAR
    try:
        port = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        )
    return port


def resolve_service_dir(value=None) -> str:
    """Run-store root: value > ``REPRO_ENGINE_SERVICE_DIR`` >
    ``"runs"``."""
    if value is not None:
        return str(value)
    return os.environ.get(SERVICE_DIR_ENV_VAR) or "runs"


def resolve_service_max_inflight(value=None,
                                 source: str = "max_inflight") -> int:
    """Concurrent runs on the fleet: value >
    ``REPRO_ENGINE_SERVICE_MAX_INFLIGHT`` > 1."""
    return _resolve_env(value, SERVICE_MAX_INFLIGHT_ENV_VAR, 1, source,
                        positive_int)


def resolve_service_submitter_cap(value=None,
                                  source: str = "submitter_cap") -> int:
    """Per-submitter inflight cap: value >
    ``REPRO_ENGINE_SERVICE_SUBMITTER_CAP`` > 1."""
    return _resolve_env(value, SERVICE_SUBMITTER_CAP_ENV_VAR, 1, source,
                        positive_int)


def resolve_service_drain_timeout(value=None,
                                  source: str = "drain_timeout") -> float:
    """Graceful-shutdown drain budget in seconds: value >
    ``REPRO_ENGINE_SERVICE_DRAIN_TIMEOUT`` > 30."""
    return _resolve_env(value, SERVICE_DRAIN_TIMEOUT_ENV_VAR, 30.0,
                        source, positive_float)


def resolve_telemetry_enabled(value=None,
                              source: str = "enabled") -> bool:
    """Span tracing on/off: value > ``REPRO_ENGINE_TELEMETRY`` >
    off."""
    return _resolve_env(value, TELEMETRY_ENV_VAR, False, source,
                        boolean_flag)


def resolve_telemetry_trace_out(value=None):
    """Default trace export path: value >
    ``REPRO_ENGINE_TELEMETRY_TRACE_OUT`` > ``None`` (no file)."""
    if value is not None:
        return str(value)
    return os.environ.get(TELEMETRY_TRACE_OUT_ENV_VAR) or None


def resolve_telemetry_metrics_port(value=None, source: str = "metrics_port"):
    """Prometheus endpoint port: value >
    ``REPRO_ENGINE_TELEMETRY_METRICS_PORT`` > ``None`` (disabled).

    0 is allowed and binds an ephemeral port.
    """
    if value is None:
        value = os.environ.get(TELEMETRY_METRICS_PORT_ENV_VAR)
        if value is None:
            return None
        source = TELEMETRY_METRICS_PORT_ENV_VAR
    try:
        port = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{source} must be a TCP port (0-65535), got {value!r}"
        )
    return port


@dataclass(frozen=True)
class DistSettings:
    """One fully-resolved snapshot of every distributed-backend knob.

    Attributes:
        host: Address the coordinator binds (workers connect to it).
        port: Coordinator TCP port; 0 binds an ephemeral port.
        chunksize: Work groups per dispatched unit (the requeue
            granularity — 1 gives the finest-grained work stealing).
        unit_timeout: Seconds a unit may execute before its worker is
            presumed wedged and the unit is requeued.
        heartbeat_interval: Seconds between worker heartbeats.
        worker_timeout: Seconds of heartbeat silence before a worker
            holding work is declared dead.
        max_attempts: Dispatch attempts per unit before the run fails.
        start_timeout: Seconds the coordinator tolerates having zero
            connected workers (at startup and after losing all of them).
        trace_stage: When True the coordinator traces every unique
            frame into the shared cache dir before dispatching, so
            workers load artifacts by content key instead of re-tracing.
        token: Shared secret for the HMAC challenge/response handshake
            on the listening socket; unauthenticated peers are dropped.
            ``None`` (the default) disables authentication.
        batch_rows: Row records per worker result frame — a worker
            flushes a partial ``result`` message once this many rows
            have accumulated; 0 (the default) coalesces a whole unit's
            rows into a single frame.
    """

    host: str = "127.0.0.1"
    port: int = 7463
    chunksize: int = 1
    unit_timeout: float = 300.0
    heartbeat_interval: float = 1.0
    worker_timeout: float = 10.0
    max_attempts: int = 3
    start_timeout: float = 60.0
    trace_stage: bool = True
    token: str = None
    batch_rows: int = 0

    @classmethod
    def resolve(cls, host=None, port=None, chunksize=None,
                unit_timeout=None, heartbeat_interval=None,
                worker_timeout=None, max_attempts=None,
                start_timeout=None, trace_stage=None, token=None,
                batch_rows=None) -> "DistSettings":
        """Resolve every dist knob: explicit argument > environment >
        default — the same contract as :meth:`EngineSettings.resolve`."""
        return cls(
            host=resolve_dist_host(host),
            port=resolve_dist_port(port),
            chunksize=resolve_dist_chunksize(chunksize),
            unit_timeout=resolve_dist_unit_timeout(unit_timeout),
            heartbeat_interval=resolve_dist_heartbeat(heartbeat_interval),
            worker_timeout=resolve_dist_worker_timeout(worker_timeout),
            max_attempts=resolve_dist_max_attempts(max_attempts),
            start_timeout=resolve_dist_start_timeout(start_timeout),
            trace_stage=resolve_dist_trace_stage(trace_stage),
            token=resolve_dist_token(token),
            batch_rows=resolve_dist_batch_rows(batch_rows),
        )

    def as_dict(self) -> dict:
        """The resolved dist knobs as a JSON-safe dict (manifest form).

        The auth token is a secret: the manifest form records only
        whether one is set, never its value.
        """
        return {
            "host": self.host,
            "port": self.port,
            "chunksize": self.chunksize,
            "unit_timeout": self.unit_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "worker_timeout": self.worker_timeout,
            "max_attempts": self.max_attempts,
            "start_timeout": self.start_timeout,
            "trace_stage": self.trace_stage,
            "token": bool(self.token),
            "batch_rows": self.batch_rows,
        }


@dataclass(frozen=True)
class ServiceSettings:
    """One fully-resolved snapshot of every experiment-service knob.

    Attributes:
        host: Address ``repro serve`` binds; clients (``repro submit``
            / ``status`` / ``results`` / ``cancel`` / ``queue``) and
            workers connect to it.
        port: Service TCP port; 0 binds an ephemeral port.
        store_dir: Root of the durable run store — each accepted
            submission gets a ``<store_dir>/<run-id>/`` directory with
            its spec, state file, journal, results and manifest, from
            which a restarted daemon recovers the queue.
        max_inflight: How many submitted runs execute concurrently on
            the shared worker fleet.
        submitter_cap: How many of one submitter's runs may be
            inflight at once; further submissions wait in ``pending``
            (the fair-share cap).
        drain_timeout: Seconds a SIGTERM'd daemon waits for inflight
            units to drain into the run journals before closing.
    """

    host: str = "127.0.0.1"
    port: int = 7464
    store_dir: str = "runs"
    max_inflight: int = 1
    submitter_cap: int = 1
    drain_timeout: float = 30.0

    @classmethod
    def resolve(cls, host=None, port=None, store_dir=None,
                max_inflight=None, submitter_cap=None,
                drain_timeout=None) -> "ServiceSettings":
        """Resolve every service knob: explicit argument > environment
        > default — the same contract as
        :meth:`EngineSettings.resolve`."""
        return cls(
            host=resolve_service_host(host),
            port=resolve_service_port(port),
            store_dir=resolve_service_dir(store_dir),
            max_inflight=resolve_service_max_inflight(max_inflight),
            submitter_cap=resolve_service_submitter_cap(submitter_cap),
            drain_timeout=resolve_service_drain_timeout(drain_timeout),
        )

    def as_dict(self) -> dict:
        """The resolved service knobs as a JSON-safe dict."""
        return {
            "host": self.host,
            "port": self.port,
            "store_dir": self.store_dir,
            "max_inflight": self.max_inflight,
            "submitter_cap": self.submitter_cap,
            "drain_timeout": self.drain_timeout,
        }


@dataclass(frozen=True)
class TelemetrySettings:
    """One fully-resolved snapshot of every telemetry knob.

    Attributes:
        enabled: When True, runs record counted nested spans (the
            :mod:`repro.engine.telemetry` tracer) and snapshot the
            metrics registry into the run manifest's ``telemetry``
            key; off by default so the hot paths stay no-op.
        trace_out: Chrome trace-event JSON export path for traced runs
            (``repro run --trace-out`` overrides it), or ``None`` for
            no export file.
        metrics_port: Port the Prometheus ``/metrics`` endpoint binds
            (``repro serve --metrics-port`` overrides it); 0 binds an
            ephemeral port, ``None`` disables the endpoint.
    """

    enabled: bool = False
    trace_out: str = None
    metrics_port: int = None

    @classmethod
    def resolve(cls, enabled=None, trace_out=None,
                metrics_port=None) -> "TelemetrySettings":
        """Resolve every telemetry knob: explicit argument >
        environment > default — the same contract as
        :meth:`EngineSettings.resolve`."""
        return cls(
            enabled=resolve_telemetry_enabled(enabled),
            trace_out=resolve_telemetry_trace_out(trace_out),
            metrics_port=resolve_telemetry_metrics_port(metrics_port),
        )

    def as_dict(self) -> dict:
        """The resolved telemetry knobs as a JSON-safe dict."""
        return {
            "enabled": self.enabled,
            "trace_out": self.trace_out,
            "metrics_port": self.metrics_port,
        }


@dataclass(frozen=True)
class EngineSettings:
    """One fully-resolved snapshot of every engine knob.

    Attributes:
        backend: Execution backend name (``"serial"`` / ``"process"``
            or any registered third-party backend).
        workers: Pool width of the parallel backends.
        rulegen_shards: Row bands per rule-generation pass.
        cache_dir: Persistent trace-cache directory, or ``None`` for a
            memory-only cache.
        delta_trace: When True, batched scenarios trace as sequential
            delta chains (frame 0 full, later frames patched from the
            previous frame's rules).
        delta_threshold: Fraction of a frame the diff may touch before
            the delta path falls back to a full rebuild.
        faults: Deterministic fault-injection plan text (chaos
            harness; see ``docs/robustness.md``), or ``None`` when
            disarmed.
        degrade: When True, a run whose backend cannot start degrades
            along the ladder (dist to process to serial) instead of
            failing; default off.
    """

    backend: str = "serial"
    workers: int = 1
    rulegen_shards: int = 1
    cache_dir: str = None
    delta_trace: bool = False
    delta_threshold: float = 0.5
    faults: str = None
    degrade: bool = False

    @classmethod
    def resolve(cls, backend=None, workers=None, rulegen_shards=None,
                cache_dir=UNSET, delta_trace=None, delta_threshold=None,
                faults=None, degrade=None) -> "EngineSettings":
        """Resolve every knob: explicit argument > environment > default.

        This is the constructor the runner and the declarative spec
        layer share; each argument may be ``None`` (inherit the
        environment) or an explicit override, and malformed values from
        either source raise a :class:`ValueError` naming the offender.
        """
        return cls(
            backend=resolve_backend_name(backend),
            workers=resolve_workers(workers),
            rulegen_shards=resolve_rulegen_shards(rulegen_shards),
            cache_dir=resolve_cache_dir(cache_dir),
            delta_trace=resolve_delta_trace(delta_trace),
            delta_threshold=resolve_delta_threshold(delta_threshold),
            faults=resolve_faults(faults),
            degrade=resolve_degrade(degrade),
        )

    def as_dict(self) -> dict:
        """The resolved knobs as a JSON-safe dict (manifest form)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "rulegen_shards": self.rulegen_shards,
            "cache_dir": self.cache_dir,
            "delta_trace": self.delta_trace,
            "delta_threshold": self.delta_threshold,
            "faults": self.faults,
            "degrade": self.degrade,
        }
