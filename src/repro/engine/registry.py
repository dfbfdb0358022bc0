"""The simulator registry: the engine's one plugin seam.

Simulator families are named factories in :data:`SIMULATORS`; every
simulator spec string (``"family-arg1-arg2"`` / ``"family:arg"``) is
parsed through it.  Third-party code registers its own families without
touching the engine:

    from repro.engine import Simulator, register_simulator

    @register_simulator("mysim")
    def build_mysim(*args):
        return MySimulator(*args)

and ``"mysim"`` immediately works everywhere a built-in spec string
does — ``ExperimentRunner(simulators=[...])``, declarative
:class:`~repro.engine.spec.ExperimentSpec` files, and the ``repro`` CLI
(``repro run`` / ``repro list simulators``).  Frame providers and
execution backends are not named here: pass a
:class:`~repro.engine.runner.FrameProvider` or
:class:`~repro.engine.backends.Backend` instance directly.

Unknown names raise :class:`UnknownNameError` — a :class:`ValueError`
(and, for backward compatibility with the pre-registry ladders, also a
:class:`KeyError`) whose message lists every registered name.
"""

from __future__ import annotations


class UnknownNameError(KeyError, ValueError):
    """Lookup of a name no factory was registered under.

    Subclasses both :class:`ValueError` (the declarative-spec contract:
    a malformed or unknown spec string is a value error listing the
    valid choices) and :class:`KeyError` (what the pre-registry if/elif
    ladders raised, so existing ``except KeyError`` callers keep
    working).
    """

    # KeyError.__str__ repr-quotes the message; plain Exception
    # rendering keeps the "choices: [...]" listing readable.
    __str__ = Exception.__str__


class Registry:
    """One named-factory table with decorator-style registration.

    Args:
        kind: Human label used in error messages ("simulator", ...).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories = {}

    def __contains__(self, name) -> bool:
        return self._normalize(name) in self._factories

    @staticmethod
    def _normalize(name) -> str:
        return str(name).strip().lower()

    def names(self) -> list:
        """Every registered name, sorted."""
        return sorted(self._factories)

    def register(self, name: str, factory=None, *, overwrite: bool = False):
        """Register ``factory`` under ``name``; usable as a decorator.

        Names are case-insensitive and must be unique unless
        ``overwrite=True`` (re-running a script that registers its own
        plugin should not explode on the second pass — such scripts pass
        ``overwrite=True`` deliberately).
        """
        key = self._normalize(name)
        if not key:
            raise ValueError(
                f"{self.kind} registry names must be non-empty strings, "
                f"got {name!r}"
            )

        def wrap(target):
            """Book ``target`` under the validated name."""
            if not overwrite and key in self._factories:
                raise ValueError(
                    f"{self.kind} {key!r} is already registered "
                    f"({self._factories[key]!r}); pass overwrite=True to "
                    f"replace it"
                )
            self._factories[key] = target
            return target

        if factory is not None:
            return wrap(factory)
        return wrap

    def unregister(self, name: str) -> None:
        """Drop one entry (primarily for tests and plugin reloads)."""
        self._factories.pop(self._normalize(name), None)

    def get(self, name: str):
        """The factory registered under ``name``.

        Raises:
            UnknownNameError: listing every registered name.
        """
        key = self._normalize(name)
        if key not in self._factories:
            raise UnknownNameError(
                f"unknown {self.kind} {str(name)!r}; "
                f"registered: {self.names()}"
            )
        return self._factories[key]

    def describe(self, name: str) -> str:
        """First docstring line of the factory registered under ``name``."""
        doc = getattr(self.get(name), "__doc__", None) or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


#: Simulator families resolvable from spec strings.
SIMULATORS = Registry("simulator")


def register_simulator(name: str, factory=None, *, overwrite: bool = False):
    """Register a simulator-family factory (decorator or direct call).

    The factory receives the dash/colon-separated arguments of the spec
    string after the family name — ``"spade-he-noopt"`` calls the
    ``"spade"`` factory with ``("he", "noopt")``, ``"platform:A6000"``
    calls ``"platform"`` with ``("a6000",)`` — and returns a configured
    :class:`~repro.engine.simulators.Simulator`.
    """
    return SIMULATORS.register(name, factory, overwrite=overwrite)
