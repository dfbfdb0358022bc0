"""Deterministic fault injection for chaos-testing the engine.

A :class:`FaultPlan` is a small textual program — parsed from the
``REPRO_ENGINE_FAULTS`` environment variable or the spec's ``faults``
knob — that arms *one-shot, counted* triggers at named injection sites
inside the engine and the dist layer.  Because every trigger fires on a
deterministic event count (the K-th unit, the N-th protocol message,
the N-th journal record) rather than a timer, a chaos test that passes
once passes always: the same plan against the same spec produces the
same failure at the same instant on every run.

Grammar (see ``docs/robustness.md`` for the prose version)::

    plan  := rule (";" rule)*
    rule  := kind [":" param ("," param)*]
    param := name "=" value

Kinds and their trigger parameters:

``kill_worker:unit=K``
    ``os._exit(137)`` in a worker process just before it executes its
    K-th work unit — a hard SIGKILL-style death mid-run.
``kill_run:record=N``
    ``os._exit(137)`` in the run process immediately *after* journal
    record N is durably written — simulates a coordinator SIGKILL at a
    checkpoint boundary (the canonical ``--resume`` scenario).
``truncate_journal:record=N``
    Write only half the bytes of journal record N, then
    ``os._exit(23)`` — a torn write plus crash, exercising the
    journal's tail-recovery path.
``drop_conn:after=N``
    Raise :class:`InjectedFault` (an ``OSError``) at the N-th protocol
    message sent or received by this process — the peer sees a dead
    socket.
``delay_conn:after=N,seconds=S``
    Sleep ``S`` seconds (default 1.0) before the N-th protocol
    message — a one-shot latency spike.
``stall_heartbeat:after=N``
    The worker's heartbeat loop goes silent after sending N-1
    heartbeats, so the coordinator's reaper declares it dead.
``coordinator_drop:unit=N``
    The coordinator drops the worker connection while assigning its
    N-th work unit — the unit requeues and the worker must reconnect.
``corrupt_cache:entry=N``
    Overwrite the N-th disk-cache artifact with garbage right after it
    is stored — exercises load-time quarantine.

Every rule may also carry ``p=<0..1]`` and ``seed=<int>``: when ``p``
is below 1 the trigger fires with probability ``p`` from a dedicated
``random.Random(seed)`` stream, so even probabilistic chaos replays
identically.  Rules are one-shot: after firing once they disarm.

The harness is process-global (installed via :func:`install` or lazily
from the environment on first :func:`check`), because the sites live in
deep library code with no runner in scope — and because environment
inheritance is exactly how worker *subprocesses* receive their plan.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time

from .settings import EngineSettings

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "check",
    "install",
    "installed_plan",
    "reset",
    "scoped",
]


class InjectedFault(OSError):
    """Raised at an injection site when a connection-fault rule fires.

    Subclasses :class:`OSError` so the dist layer's existing
    ``except (ProtocolError, OSError)`` handlers treat an injected
    connection drop exactly like a real peer failure.
    """


#: kind -> (site, trigger parameter name, extra parameter names)
FAULT_KINDS = {
    "kill_worker": ("worker.unit", "unit", ()),
    "kill_run": ("journal.record", "record", ()),
    "truncate_journal": ("journal.record", "record", ()),
    "drop_conn": ("protocol.message", "after", ()),
    "delay_conn": ("protocol.message", "after", ("seconds",)),
    "stall_heartbeat": ("worker.heartbeat", "after", ()),
    "coordinator_drop": ("coordinator.assign", "unit", ()),
    "corrupt_cache": ("cache.store", "entry", ()),
}

_COMMON_PARAMS = ("p", "seed")


def _parse_rule(text, index):
    """Parse one ``kind:key=value,...`` rule; raise ValueError with context."""
    head, _, tail = text.partition(":")
    kind = head.strip()
    if kind not in FAULT_KINDS:
        known = ", ".join(sorted(FAULT_KINDS))
        raise ValueError(
            f"rule {index + 1} ({text!r}): unknown fault kind {kind!r} "
            f"(known kinds: {known})"
        )
    site, trigger_name, extras = FAULT_KINDS[kind]
    params = {}
    if tail.strip():
        for piece in tail.split(","):
            name, sep, value = piece.partition("=")
            name = name.strip()
            if not sep or not name or not value.strip():
                raise ValueError(
                    f"rule {index + 1} ({text!r}): malformed parameter "
                    f"{piece.strip()!r} (expected name=value)"
                )
            if name in params:
                raise ValueError(
                    f"rule {index + 1} ({text!r}): duplicate parameter {name!r}"
                )
            params[name] = value.strip()
    allowed = {trigger_name, *extras, *_COMMON_PARAMS}
    for name in params:
        if name not in allowed:
            raise ValueError(
                f"rule {index + 1} ({text!r}): unknown parameter {name!r} "
                f"for {kind} (allowed: {', '.join(sorted(allowed))})"
            )

    def _positive_int(name, default):
        raw = params.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"rule {index + 1} ({text!r}): {name} must be a positive "
                f"integer, got {raw!r}"
            )
        return value

    trigger = _positive_int(trigger_name, 1)
    seconds = 1.0
    if "seconds" in extras and params.get("seconds") is not None:
        try:
            seconds = float(params["seconds"])
        except ValueError:
            seconds = -1.0
        if seconds <= 0:
            raise ValueError(
                f"rule {index + 1} ({text!r}): seconds must be a positive "
                f"number, got {params['seconds']!r}"
            )
    probability = 1.0
    if params.get("p") is not None:
        try:
            probability = float(params["p"])
        except ValueError:
            probability = -1.0
        if not 0.0 < probability <= 1.0:
            raise ValueError(
                f"rule {index + 1} ({text!r}): p must be in (0, 1], "
                f"got {params['p']!r}"
            )
    seed = _positive_int("seed", 1) if params.get("seed") is not None else 0
    return FaultRule(
        kind=kind,
        site=site,
        trigger=trigger,
        seconds=seconds,
        probability=probability,
        seed=seed,
    )


class FaultRule:
    """One armed trigger: fire ``kind`` at the ``trigger``-th site event."""

    __slots__ = ("kind", "site", "trigger", "seconds", "probability", "seed")

    def __init__(self, kind, site, trigger, seconds=1.0, probability=1.0, seed=0):
        """Store the parsed rule fields (see module grammar)."""
        self.kind = kind
        self.site = site
        self.trigger = trigger
        self.seconds = seconds
        self.probability = probability
        self.seed = seed

    def __repr__(self):
        return (
            f"FaultRule(kind={self.kind!r}, site={self.site!r}, "
            f"trigger={self.trigger})"
        )


class FaultPlan:
    """An immutable, parsed set of :class:`FaultRule` triggers."""

    def __init__(self, rules=(), text=""):
        """Wrap already-parsed ``rules``; prefer :meth:`parse` for text."""
        self.rules = tuple(rules)
        self.text = text

    @classmethod
    def parse(cls, text):
        """Parse the ``kind:key=value,...;kind...`` grammar into a plan.

        ``None`` or blank text parses to an empty plan.  Raises
        :class:`ValueError` naming the offending rule on any grammar
        error.
        """
        if text is None:
            return cls()
        text = str(text).strip()
        if not text:
            return cls()
        rules = []
        for index, piece in enumerate(p for p in text.split(";")):
            piece = piece.strip()
            if not piece:
                continue
            rules.append(_parse_rule(piece, index))
        return cls(rules, text)

    def arm(self):
        """Return a fresh :class:`FaultInjector` with all counters at zero."""
        return FaultInjector(self)

    def __bool__(self):
        return bool(self.rules)

    def __repr__(self):
        return f"FaultPlan({self.text!r})"


class FaultInjector:
    """Mutable firing state for a plan: per-rule event counters + one-shot."""

    def __init__(self, plan):
        """Arm ``plan``'s rules with zeroed counters."""
        self.plan = plan
        self._lock = threading.Lock()
        self._counts = [0] * len(plan.rules)
        self._fired = [False] * len(plan.rules)
        self._rngs = [
            random.Random(rule.seed) if rule.probability < 1.0 else None
            for rule in plan.rules
        ]

    def fire(self, site, **context):
        """Count one event at ``site``; return the rule that fires, if any.

        Each matching armed rule's counter advances by one; a rule whose
        counter reaches its trigger fires (subject to its ``p``
        probability drawn from its seeded stream) and disarms.  At most
        one rule fires per call.
        """
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site or self._fired[index]:
                    continue
                self._counts[index] += 1
                if self._counts[index] < rule.trigger:
                    continue
                rng = self._rngs[index]
                if rng is not None and rng.random() > rule.probability:
                    self._counts[index] -= 1  # re-roll at the next event
                    continue
                self._fired[index] = True
                return rule
        return None


_LOCK = threading.Lock()
_INSTALLED = None  # explicitly installed FaultInjector (or None)
_ENV_INJECTOR = None  # injector lazily armed from REPRO_ENGINE_FAULTS
_ENV_LOADED = False


def install(plan):
    """Install ``plan`` (text or :class:`FaultPlan`) process-wide.

    Returns the armed :class:`FaultInjector`.  An explicit install
    shadows any environment plan until :func:`reset`.
    """
    global _INSTALLED
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.parse(plan)
    injector = plan.arm()
    with _LOCK:
        _INSTALLED = injector if plan else None
    return injector


def reset():
    """Disarm any installed plan and forget the cached environment plan."""
    global _INSTALLED, _ENV_INJECTOR, _ENV_LOADED
    with _LOCK:
        _INSTALLED = None
        _ENV_INJECTOR = None
        _ENV_LOADED = False


def installed_plan():
    """Return the text of the active plan, or ``None`` when disarmed."""
    injector = _active()
    return injector.plan.text or None if injector is not None else None


def _active():
    """Return the effective injector: explicit install, else env (cached)."""
    global _ENV_INJECTOR, _ENV_LOADED
    if _INSTALLED is not None:
        return _INSTALLED
    if not _ENV_LOADED:
        with _LOCK:
            if not _ENV_LOADED:
                try:
                    text = EngineSettings.resolve_one("faults")
                except ValueError:
                    text = None  # a bad env plan must not crash runs
                plan = FaultPlan.parse(text) if text else FaultPlan()
                _ENV_INJECTOR = plan.arm() if plan else None
                _ENV_LOADED = True
    return _ENV_INJECTOR


def check(site, **context):
    """Count one event at ``site`` and act on any rule that fires.

    Connection kinds raise :class:`InjectedFault`; ``delay_conn``
    sleeps in place; ``kill_worker`` exits the process with status 137.
    Kinds whose behaviour lives at the call site (``stall_heartbeat``,
    ``corrupt_cache``, ``kill_run``, ``truncate_journal``) are returned
    as the kind string for the caller to enact.  Returns ``None`` when
    nothing fires — the overwhelmingly common, cheap path.
    """
    injector = _active()
    if injector is None:
        return None
    rule = injector.fire(site, **context)
    if rule is None:
        return None
    if rule.kind in ("drop_conn", "coordinator_drop"):
        raise InjectedFault(f"injected fault: {rule.kind} at {site} {context!r}")
    if rule.kind == "delay_conn":
        time.sleep(rule.seconds)
        return rule.kind
    if rule.kind == "kill_worker":
        os._exit(137)
    return rule.kind


@contextlib.contextmanager
def scoped(plan):
    """Install ``plan`` for the duration of a ``with`` block.

    A falsy plan is a no-op (any environment plan stays in effect).  On
    exit the previous explicit install, if any, is restored.
    """
    global _INSTALLED
    if plan is None or (isinstance(plan, str) and not plan.strip()):
        yield None
        return
    with _LOCK:
        previous = _INSTALLED
    injector = install(plan)
    try:
        yield injector
    finally:
        with _LOCK:
            _INSTALLED = previous
