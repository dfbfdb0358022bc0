"""The coordinator/worker wire protocol: length-prefixed JSON over TCP.

Every message is one JSON object preceded by a 4-byte big-endian length
header.  JSON keeps the protocol inspectable (``tcpdump`` shows readable
work units) and language-agnostic, and the engine already defines a
lossless-enough JSON projection for everything that crosses the wire:
work units are :class:`~repro.engine.spec.ExperimentSpec` dicts and
results are the same records :meth:`ExperimentTable.to_json` writes.
Traces — the heavyweight artifacts — never travel over this socket:
each worker traces the groups it simulates, through the run's
:class:`~repro.engine.cache.TraceCache` disk tier when it can reach it.

Message types (``type`` field):

========== =========== ====================================================
direction  type        payload
========== =========== ====================================================
worker →   hello       ``worker`` (id string), ``pid``
worker →   request     pull one unit (sent when idle)
worker →   heartbeat   liveness beacon (background thread, every
                       ``heartbeat_interval`` seconds)
worker →   result      ``unit`` (id), ``groups`` ({index: [row records]}),
                       ``timings`` ({index: wall seconds}), ``cache``
                       ({index: the worker cache's counter delta —
                       hits, misses, disk traffic, delta/full layers —
                       over that group}), one frame per unit; traced
                       runs add ``spans`` (the worker's Chrome
                       trace-event batch for the unit)
worker →   error       ``unit`` (id), ``error`` (message string)
worker →   goodbye     announced clean exit (drain mode) — not a failure
coord  →   welcome     ``cache_dir`` (the run's trace-cache tier, or
                       null), ``heartbeat_interval``,
                       ``telemetry`` (true when the coordinator's run
                       is traced and span batches should ship back)
coord  →   unit        ``unit`` (id), ``groups`` ([{index, spec}, ...])
coord  →   wait        nothing to do right now; re-request (bounds the
                       worker's read timeout while idle)
coord  →   shutdown    no more work; the worker exits cleanly
========== =========== ====================================================

A peer whose *first* message is not ``hello`` is not a worker: the
coordinator closes its socket without a ``welcome``.

When a shared secret is configured (``REPRO_ENGINE_DIST_TOKEN``), the
coordinator answers any peer's first message with ``challenge``
(``nonce``); the peer must reply ``auth`` (``digest`` =
:func:`auth_digest` of the nonce) before the first message is
processed.  Peers that fail the handshake are dropped with a log line.

Framing helpers below own all socket byte-handling; peers never touch
``recv`` buffers directly.  A closed connection surfaces as
:class:`ConnectionClosed`, a malformed or oversized frame as
:class:`ProtocolError` — callers treat both as "peer is gone".
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import struct

from .. import faults, telemetry

#: 4-byte big-endian unsigned frame-length header.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame.  Work units are spec dicts (kilobytes) and
#: result payloads are row records (at most a few MB of per-layer
#: detail); anything larger means a corrupted or hostile stream.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame (bad header, oversized, or invalid JSON)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the socket (mid-frame or between frames)."""


def message(msg_type: str, **fields) -> dict:
    """One protocol message as a dict (``type`` plus payload fields)."""
    payload = {"type": msg_type}
    payload.update(fields)
    return payload


def send_message(sock, payload: dict) -> None:
    """Frame and send one message (blocking until fully written).

    Concurrent senders on one socket (a worker's main loop and its
    heartbeat thread) must serialize calls with their own lock —
    ``sendall`` of header and body is two writes.
    """
    # Chaos harness: drop_conn / delay_conn count both directions of
    # protocol traffic through this one site.
    faults.check("protocol.message", direction="send",
                 msg_type=payload.get("type"))
    with telemetry.span("protocol-send", "protocol",
                        msg_type=payload.get("type")):
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        if len(data) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"refusing to send a {len(data)}-byte message "
                f"(limit {MAX_MESSAGE_BYTES})"
            )
        sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {count} bytes "
                f"outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock) -> dict:
    """Read one framed message (blocking; honours the socket timeout).

    Raises:
        ConnectionClosed: the peer went away.
        ProtocolError: the frame is oversized or not a JSON object.
        socket.timeout / OSError: propagated from the socket layer.
    """
    faults.check("protocol.message", direction="recv")
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte message "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    # The span covers body transfer + decode only: the header read
    # above blocks while the peer is idle, which would record the
    # waiting as protocol time.
    with telemetry.span("protocol-recv", "protocol"):
        body = _recv_exact(sock, length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed message frame: {error}") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError(
            f"message must be a JSON object with a 'type' field, "
            f"got {type(payload).__name__}"
        )
    return payload


def auth_nonce() -> str:
    """A fresh random nonce for one HMAC challenge (hex text)."""
    return os.urandom(16).hex()


def auth_digest(token: str, nonce: str) -> str:
    """The expected ``auth`` reply to a ``challenge``: HMAC-SHA256 of
    the nonce under the shared token, as hex text."""
    return hmac.new(str(token).encode("utf-8"),
                    str(nonce).encode("utf-8"),
                    hashlib.sha256).hexdigest()


def verify_digest(token: str, nonce: str, digest) -> bool:
    """Constant-time check of a peer's ``auth`` digest."""
    expected = auth_digest(token, nonce)
    return hmac.compare_digest(expected, str(digest or ""))


def parse_address(text: str) -> tuple:
    """``HOST:PORT`` → ``(host, port)`` with an actionable error."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address must be HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address must be HOST:PORT with a numeric port, "
            f"got {text!r}"
        ) from None
    if not 0 < port <= 65535:
        raise ValueError(
            f"worker address port must be 1-65535, got {port}"
        )
    return host, port
