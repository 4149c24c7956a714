"""Scoped wall-time profiling of the simulation's phase-level hot paths.

The experiment pipeline spends its time in five places -- stream
materialization, proxy pretraining, teacher labeling, student retraining,
and per-frame inference scoring.  This module attributes wall time to those
phases with *exclusive* accounting (a scope opened inside another scope is
subtracted from its parent), so the per-phase totals never overlap and
always sum to at most the enclosing wall time.

Profiling is off by default and is a strict no-op on the hot path while
disabled: :func:`scope` returns one shared null context manager, so no
object is allocated and nothing is timed.  Enable it around a workload::

    profiler = profiling.enable()
    run_on_scenario(system, "S5")
    print(profiler.report())
    profiling.disable()

The active profiler is per-process, but the grid runner
(:mod:`repro.exec`) aggregates: when profiling is active in the
parent, each worker shard runs under its own profiler and ships its
snapshot back with the results, and the parent folds every worker snapshot
into the active profiler (:meth:`Profiler.merge`).  ``--profile`` therefore
composes with ``--jobs > 1``; the merged totals are CPU seconds across
processes, so they can legitimately exceed the parent's wall clock.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "INFERENCE",
    "LABEL",
    "MATERIALIZE",
    "PRETRAIN",
    "RETRAIN",
    "Profiler",
    "absorb",
    "active",
    "disable",
    "enable",
    "scope",
]

#: Canonical phase names wired into the runner (the report's rows).
MATERIALIZE = "materialize"
PRETRAIN = "pretrain"
LABEL = "label"
RETRAIN = "retrain"
INFERENCE = "inference"


class _NullScope:
    """The do-nothing context manager handed out while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _Scope:
    """One timed region; exclusive time flows to the profiler on exit."""

    __slots__ = ("profiler", "name", "start", "child_s")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self.profiler = profiler
        self.name = name
        self.child_s = 0.0

    def __enter__(self) -> "_Scope":
        self.profiler._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self.start
        stack = self.profiler._stack
        stack.pop()
        self.profiler._add(self.name, elapsed - self.child_s)
        if stack:
            # The parent reports only its own time: this scope's full span
            # (including grandchildren, already folded into ``elapsed``)
            # counts as child time there.
            stack[-1].child_s += elapsed
        return False


class Profiler:
    """Accumulates exclusive wall seconds and entry counts per phase.

    Scope nesting is tracked per thread (the batched executor runs one
    lane thread per cell, each opening its own phase scopes) while the
    totals are shared under a lock, so lane profiles aggregate exactly
    like worker-process profiles do.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stacks = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> list[_Scope]:
        """This thread's open-scope stack (created on first use)."""
        stack = getattr(self._stacks, "value", None)
        if stack is None:
            stack = self._stacks.value = []
        return stack

    def _add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] = self.counts.get(name, 0) + 1

    def absorb(self, seconds: float) -> None:
        """Discount ``seconds`` from this thread's innermost open scope.

        The batched executor's accounting hook: a lane blocked at the
        lockstep barrier is not doing its phase's work, so the lane shim
        absorbs (submit wall - this cell's fair share of the batched
        round) and the phase's exclusive total keeps measuring compute,
        not synchronization.  No-op when no scope is open.
        """
        stack = self._stack
        if stack:
            stack[-1].child_s += seconds

    def scope(self, name: str) -> _Scope:
        """A context manager timing ``name`` against this profiler."""
        return _Scope(self, name)

    def total_s(self) -> float:
        """Summed exclusive time across all phases."""
        return sum(self.totals.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-phase ``{"total_s": ..., "count": ...}``, insertion-ordered."""
        return {
            name: {"total_s": self.totals[name], "count": self.counts[name]}
            for name in self.totals
        }

    def merge(self, snapshot: dict[str, dict[str, float]]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        The parallel grid runner uses this to aggregate worker-process
        profiles into the parent's, so ``--profile`` composes with
        ``--jobs > 1``.  Phase totals are exclusive in each process, so
        summing them keeps them exclusive (note the merged total then
        counts CPU seconds across processes, which can exceed the
        parent's wall time).
        """
        for name, entry in snapshot.items():
            self.totals[name] = (
                self.totals.get(name, 0.0) + float(entry["total_s"])
            )
            self.counts[name] = (
                self.counts.get(name, 0) + int(entry["count"])
            )

    def report(self) -> str:
        """A human-readable breakdown, largest phase first."""
        total = self.total_s()
        lines = [f"phase breakdown ({total:.3f} s profiled)"]
        for name, seconds in sorted(
            self.totals.items(), key=lambda item: -item[1]
        ):
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"  {name:<12s} {seconds:8.3f} s  {share:6.1%}"
                f"  x{self.counts[name]}"
            )
        return "\n".join(lines)


_active: Profiler | None = None


def enable() -> Profiler:
    """Install (and return) a fresh process-wide profiler."""
    global _active
    _active = Profiler()
    return _active


def disable() -> None:
    """Stop profiling; subsequent :func:`scope` calls become no-ops."""
    global _active
    _active = None


def active() -> Profiler | None:
    """The installed profiler, or None while profiling is off."""
    return _active


def scope(name: str):
    """Time a region against the active profiler (shared no-op when off)."""
    profiler = _active
    if profiler is None:
        return _NULL_SCOPE
    return _Scope(profiler, name)


def absorb(seconds: float) -> None:
    """Discount barrier-wait seconds from the current scope, if profiling."""
    profiler = _active
    if profiler is not None:
        profiler.absorb(seconds)
