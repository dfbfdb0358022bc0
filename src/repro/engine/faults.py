"""Deterministic fault injection for chaos-testing the engine.

A :class:`FaultPlan` is a small textual program — parsed from the
``REPRO_ENGINE_FAULTS`` environment variable or the spec's ``faults``
knob — that arms *one-shot, counted* triggers at named injection sites
inside the engine.  Because every trigger fires on a deterministic
event count (the N-th journal record, the N-th cache artifact) rather
than a timer, a chaos test that passes once passes always: the same
plan against the same spec produces the same failure at the same
instant on every run.

Grammar (see ``docs/robustness.md`` for the prose version)::

    plan  := rule (";" rule)*
    rule  := kind [":" param ("," param)*]
    param := name "=" value

Kinds and their trigger parameters:

``kill_run:record=N``
    ``os._exit(137)`` in the run process immediately *after* journal
    record N is durably written — simulates a SIGKILL of the run at a
    checkpoint boundary (the canonical ``--resume`` scenario).
``truncate_journal:record=N``
    Write only half the bytes of journal record N, then
    ``os._exit(23)`` — a torn write plus crash, exercising the
    journal's tail-recovery path.
``corrupt_cache:entry=N``
    Overwrite the N-th disk-cache artifact with garbage right after it
    is stored — exercises load-time quarantine.

Rules are one-shot: after firing once they disarm.

The harness is process-global (installed via :func:`install` or lazily
from the environment on first :func:`check`), because the sites live in
deep library code with no runner in scope — and because environment
inheritance is exactly how worker *subprocesses* receive their plan.
"""

from __future__ import annotations

import contextlib
import threading

from .settings import EngineSettings

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "check",
    "install",
    "installed_plan",
    "reset",
    "scoped",
]


#: kind -> (site, trigger parameter name)
FAULT_KINDS = {
    "kill_run": ("journal.record", "record"),
    "truncate_journal": ("journal.record", "record"),
    "corrupt_cache": ("cache.store", "entry"),
}


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
    site, trigger_name = FAULT_KINDS[kind]
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
    for name in params:
        if name != trigger_name:
            raise ValueError(
                f"rule {index + 1} ({text!r}): unknown parameter {name!r} "
                f"for {kind} (allowed: {trigger_name})"
            )
    raw = params.get(trigger_name, "1")
    try:
        trigger = int(raw)
    except ValueError:
        trigger = 0
    if trigger < 1:
        raise ValueError(
            f"rule {index + 1} ({text!r}): {trigger_name} must be a "
            f"positive integer, got {raw!r}"
        )
    return FaultRule(kind=kind, site=site, trigger=trigger)


class FaultRule:
    """One armed trigger: fire ``kind`` at the ``trigger``-th site event."""

    __slots__ = ("kind", "site", "trigger")

    def __init__(self, kind, site, trigger):
        """Store the parsed rule fields (see module grammar)."""
        self.kind = kind
        self.site = site
        self.trigger = trigger

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

    def fire(self, site):
        """Count one event at ``site``; return the rule that fires, if any.

        Each matching armed rule's counter advances by one; a rule whose
        counter reaches its trigger fires and disarms.  At most one rule
        fires per call.
        """
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site or self._fired[index]:
                    continue
                self._counts[index] += 1
                if self._counts[index] < rule.trigger:
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


def check(site):
    """Count one event at ``site``; return the kind of any rule that fires.

    Every kind's behaviour lives at its call site (``corrupt_cache`` in
    the cache, ``kill_run`` / ``truncate_journal`` in the journal),
    which enacts the returned kind string.  Returns ``None`` when
    nothing fires — the overwhelmingly common, cheap path.
    """
    injector = _active()
    if injector is None:
        return None
    rule = injector.fire(site)
    return None if rule is None else rule.kind


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
