"""Distributed execution: a coordinator/worker backend over TCP.

* :mod:`repro.engine.dist.protocol`    — length-prefixed JSON framing
  and the message vocabulary both sides speak;
* :mod:`repro.engine.dist.coordinator` — :class:`Coordinator` (pull
  scheduling, heartbeats, per-unit timeouts, requeue with an attempt
  cap) and :class:`DistBackend`, registered as ``"dist"``;
* :mod:`repro.engine.dist.worker`      — :class:`Worker`, the process
  behind ``repro worker --connect HOST:PORT``.

Work units are serialized :class:`~repro.engine.spec.ExperimentSpec`
dicts; each worker traces the groups it simulates, through the run's
:class:`~repro.engine.cache.TraceCache` disk tier (traces never cross
the socket).  See the README's "Distributed execution" section for the
deployment story.
"""

from .coordinator import (
    Coordinator,
    DistBackend,
    DistRunError,
    DistStartTimeout,
    build_units,
    group_spec_dict,
)
from .protocol import (
    ConnectionClosed,
    MAX_MESSAGE_BYTES,
    ProtocolError,
    message,
    parse_address,
    recv_message,
    send_message,
)
from .worker import Worker, execute_unit

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ConnectionClosed",
    "Coordinator",
    "DistBackend",
    "DistRunError",
    "DistStartTimeout",
    "ProtocolError",
    "Worker",
    "build_units",
    "execute_unit",
    "group_spec_dict",
    "message",
    "parse_address",
    "recv_message",
    "send_message",
]
