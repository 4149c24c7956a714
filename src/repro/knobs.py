"""Run-wide knobs: one override > environment > default chain for all.

The numeric dtype, cross-camera sharing, lockstep batching and the
execution backend are each one :class:`Knob`, declared next to its values
(README "Policies"); the numeric knob declares one value, float64, and
refuses every other spelling like any knob does.  Also here: the parsers
behind every count- and duration-like environment variable.  This module
imports only :mod:`repro.errors`, so every layer can import it at module
scope.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "Knob",
    "Switch",
    "positive_float_env",
    "positive_int_env",
    "positive_seconds",
]

_UNSET = object()


@dataclass(frozen=True)
class Switch:
    """An on/off knob value: its canonical name and whether it is on."""

    name: str
    enabled: bool

    def __str__(self) -> str:
        return self.name


class Knob:
    """One run-wide choice: an override, an environment variable, a default.

    An enumerable knob declares ``aliases`` (lower-case spelling -> value)
    and the ``label`` its errors use; its canonical ``values`` are the
    alias targets in declaration order.  A free-form knob declares a
    ``parse`` validator instead and carries the stripped string.
    """

    def __init__(self, env, default, *, aliases=None, label="", parse=None):
        self.env = env
        self.default = default
        self.aliases = aliases or {}
        self.label = label
        self.values = tuple(dict.fromkeys(self.aliases.values()))
        self.by_name = {value.name: value for value in self.values}
        self._parse = parse
        self._override = ContextVar(env, default=_UNSET)

    def resolve(self, spec):
        """A value from a spelling, a declared value, or None (the default).

        A declared value comes back as the declared instance itself, so a
        copy unpickled in a worker resolves to the object its name does.
        """
        if spec is None:
            return self.default
        if not isinstance(spec, str):
            for value in self.values:
                if value == spec:
                    return value
        if self._parse is not None:
            self._parse(spec)
            return spec.strip()
        try:
            return self.aliases[spec.strip().lower()]
        except (AttributeError, KeyError):
            known = ", ".join(sorted(self.by_name))
            raise ConfigurationError(
                f"unknown {self.label} {spec!r} "
                f"(set {self.env} to one of: {known})"
            ) from None

    def active(self):
        """The override, else ``$env`` (blank = unset), else the default."""
        value = self._override.get()
        if value is not _UNSET:
            return value
        raw = os.environ.get(self.env, "").strip()
        return self.resolve(raw) if raw else self.default

    @contextmanager
    def use(self, spec):
        """Override the knob for the ``with`` block (nests and restores)."""
        value = self.resolve(spec)
        token = self._override.set(value)
        try:
            yield value
        finally:
            self._override.reset(token)


def positive_int_env(name: str) -> int | None:
    """``$name`` as a positive int; None when unset or blank.

    Garbage raises :class:`ConfigurationError` with a uniform message
    instead of silently defaulting.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {raw!r}"
        )
    return value


def positive_seconds(value: object, name: str) -> float:
    """``value`` as finite seconds above 0: an int or a float, not a bool.

    Anything else raises :class:`ConfigurationError` naming ``name``;
    ``nan`` and ``inf`` too, since a NaN deadline never expires and an
    infinite one overflows the timed waits that use it.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0.0 < value < math.inf
    ):
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {value!r}"
        )
    return float(value)


def positive_float_env(name: str) -> float | None:
    """``$name`` as :func:`positive_seconds`; None when unset or blank."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return positive_seconds(float(raw), name)
    except (ValueError, ConfigurationError):
        # Refuse again with the text as written, which a str always is.
        return positive_seconds(raw, name)
