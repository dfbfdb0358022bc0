"""The experiment-service client: one framed request per connection.

:class:`ServiceClient` speaks the same length-prefixed JSON-TCP
protocol as the workers (:mod:`repro.engine.dist.protocol`), answering
the server's HMAC ``challenge`` from the shared
``REPRO_ENGINE_DIST_TOKEN`` when one is configured.  Every request
opens a fresh connection, sends one message, reads one reply, and
closes — the service is stateless per client, so there is nothing to
keep alive, and a daemon restart between two requests is invisible.

An ``error`` reply raises :class:`ServiceError` with the server's
message; connectivity problems surface as the underlying
:class:`OSError` (the CLI turns both into exit code 2).
"""

from __future__ import annotations

import socket
import time

from ..dist.protocol import (
    answer_challenge,
    message,
    recv_message,
    send_message,
)
from ..settings import DistSettings, ServiceSettings
from .store import TERMINAL_STATES


class ServiceError(RuntimeError):
    """The service rejected a request (its ``error`` reply's message)."""


class ServiceClient:
    """Talk to a ``repro serve`` daemon.

    Args:
        host: Service host; ``None`` resolves
            ``REPRO_ENGINE_SERVICE_HOST``.
        port: Service port; ``None`` resolves
            ``REPRO_ENGINE_SERVICE_PORT``.
        token: Shared auth secret; ``None`` resolves
            ``REPRO_ENGINE_DIST_TOKEN``.
        timeout: Per-request socket timeout in seconds.
    """

    def __init__(self, host: str = None, port: int = None,
                 token: str = None, timeout: float = 30.0):
        self.host = ServiceSettings.resolve_one("host", host)
        self.port = ServiceSettings.resolve_one("port", port)
        self.token = (token if token is not None
                      else DistSettings.resolve_one("token"))
        self.timeout = float(timeout)

    def request(self, kind: str, **fields) -> dict:
        """Send one request; return the server's (non-error) reply."""
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as sock:
            send_message(sock, message(kind, **fields))
            reply = answer_challenge(sock, recv_message(sock),
                                     self.token)
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("error")))
        return reply

    # -- verbs -------------------------------------------------------------

    def submit(self, spec: dict, priority: int = 0,
               submitter: str = "anon") -> dict:
        """Submit one ExperimentSpec dict; returns its queued state."""
        return self.request("submit", spec=spec, priority=int(priority),
                            submitter=str(submitter))

    def status(self, run_id: str = None) -> dict:
        """One run's state record, or the service summary without an id."""
        if run_id is None:
            return self.request("status")
        return self.request("status", run=str(run_id))

    def results(self, run_id: str) -> dict:
        """A finished run's stored CSV/JSON/manifest texts, verbatim."""
        return self.request("results", run=str(run_id))

    def cancel(self, run_id: str) -> dict:
        """Cancel one queued or inflight run."""
        return self.request("cancel", run=str(run_id))

    def queue(self) -> dict:
        """The scheduler's queue snapshot, in dispatch order."""
        return self.request("queue")

    def metrics(self) -> dict:
        """The service's metrics-registry snapshot (counters, gauges,
        histograms — the same numbers the Prometheus endpoint serves)."""
        return self.request("metrics")

    def wait(self, run_id: str, timeout: float = None,
             poll: float = 0.2) -> dict:
        """Poll until one run reaches a terminal state; return it.

        Raises:
            TimeoutError: the run was still pending/running after
                ``timeout`` seconds (``None`` waits forever).
        """
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        while True:
            state = self.status(run_id)
            if state.get("state") in TERMINAL_STATES:
                return state
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"run {run_id} still {state.get('state')!r} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll)
