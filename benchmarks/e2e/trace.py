"""Span tracing for the end-to-end benchmark, installed from outside the program.

The program under test has no scopes at its layer boundaries, so this
module adds them from the benchmark's side: each *target* names a public
function by dotted path (``repro.learn.train.train_sgd``), and
:meth:`Tracer.install` replaces every module-global and class binding of
that function object under ``repro.*`` with a wrapper that records one
span per call.  :meth:`Tracer.uninstall` puts every original back.  A
target that no longer exists (a refactor renamed or moved it) is reported
in :attr:`Tracer.absent`, never raised: the untraced benchmark must keep
running whatever the layers look like.

Spans stay in memory -- ``[name, start, end, parent, thread, attrs,
child_s]`` with a per-thread stack supplying the parent -- and are written
as JSON lines at exit.  Times come from ``time.monotonic``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across the worker
processes whose span files the parent merges.

A span's *self time* is its duration minus the time its child spans (on
the same thread) cover; summing self time per name gives the layer split.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Target",
    "Tracer",
    "load_groups",
    "resolve",
    "self_times",
    "within",
    "write_groups",
]

clock = time.monotonic

# Positions in a span record.
NAME, START, END, PARENT, THREAD, ATTRS, CHILD = range(7)


@dataclass(frozen=True)
class Target:
    """One function to trace.

    Attributes:
        path: Dotted path of the function (module, then attributes).
        name: Span name; its first component is the layer.
        observe: Optional ``(args, kwargs, result) -> dict`` giving the
            span's attributes (element counts, bytes, hits).  It runs
            after the span closes, so its cost is not the layer's.
        rewrap: Optional ``(tracer, result) -> result`` applied to the
            return value, for functions that return deferred work (a
            phase whose commit callback does the labeling).
    """

    path: str
    name: str
    observe: Callable | None = None
    rewrap: Callable | None = None


def resolve(path: str):
    """The object a dotted path names: longest importable module, then attributes.

    Raises ImportError or AttributeError when the path does not exist.
    """
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            obj = getattr(obj, attribute)
        return obj
    raise ImportError(f"no importable module in {path!r}")


def _program_namespaces(prefix: str):
    """Every module and class namespace whose bindings belong to the program."""
    seen: set[int] = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        yield module
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and id(value) not in seen
                and getattr(value, "__module__", "").startswith(prefix)
            ):
                seen.add(id(value))
                yield value


class Tracer:
    """Records spans around wrapped functions; see the module docstring.

    Args:
        prefix: Package whose modules and classes are rebound.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.spans: list[list] = []
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._originals: dict[int, object] = {}  # id(wrapper) -> original
        self._wrappers: list[object] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on this thread (pair with :meth:`end`)."""
        stack = self._stack()
        span = [
            name, clock(), 0.0, stack[-1] if stack else None,
            threading.get_ident(), None, 0.0,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        """Close the innermost open span of this thread."""
        finish = clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")
        stack.pop()
        span[END] = finish
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += finish - span[START]
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span around a ``with`` block (the harness's own operations)."""
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def wrap(self, fn, name: str, observe=None, rewrap=None):
        """``fn`` with a span around every call (see :class:`Target`)."""
        tracer, begin, end = self, self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if observe is not None:
                span[ATTRS] = observe(args, kwargs, result)
            if rewrap is not None:
                result = rewrap(tracer, result)
            return result

        return traced

    # -- installation -------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target; missing ones go to :attr:`absent`."""
        for target in targets:
            try:
                original = resolve(target.path)
            except (ImportError, AttributeError) as exc:
                self.absent[target.path] = f"{type(exc).__name__}: {exc}"
                continue
            if id(original) in self._originals:
                continue  # the path now resolves to a wrapper of ours
            wrapper = self.wrap(
                original, target.name, target.observe, target.rewrap
            )
            if not self._rebind(original, wrapper):
                self.absent[target.path] = "no module or class binds it"
                continue
            self._originals[id(wrapper)] = original
            self._wrappers.append(wrapper)

    def _rebind(self, original, wrapper) -> int:
        count = 0
        for namespace in _program_namespaces(self.prefix):
            for attribute, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attribute, wrapper)
                    self._patches.append((namespace, attribute, value))
                    count += 1
        return count

    def uninstall(self) -> None:
        """Restore every original binding, including wrappers that modules
        imported after :meth:`install` picked up."""
        for namespace, attribute, value in reversed(self._patches):
            setattr(namespace, attribute, value)
        self._patches.clear()
        for namespace in _program_namespaces(self.prefix):
            for attribute, value in list(vars(namespace).items()):
                # Wrappers stay referenced in _wrappers, so their ids are
                # not reused while this lookup runs.
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(namespace, attribute, original)
        self._originals.clear()
        self._wrappers.clear()

    # -- output -------------------------------------------------------

    def records(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> list[dict]:
        """Spans lying within ``[since, until]`` as JSON-safe dicts;
        ``parent`` indexes the returned list (-1: none, or outside it)."""
        pid = os.getpid()
        chosen = [
            span for span in self.spans
            if since <= span[START] and span[END] <= until
        ]
        index = {id(span): position for position, span in enumerate(chosen)}
        out = []
        for span in chosen:
            parent = span[PARENT]
            record = {
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "self": span[END] - span[START] - span[CHILD],
                "parent": -1 if parent is None else index.get(id(parent), -1),
                "pid": pid,
                "thread": span[THREAD],
            }
            if span[ATTRS]:
                record["attrs"] = span[ATTRS]
            out.append(record)
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write a ``meta`` line and every span as JSON lines."""
        write_groups(path, [(meta, self.records())])


def write_groups(path: str, groups) -> None:
    """Write ``(meta, records)`` groups: each meta line is followed by its
    records, whose ``parent`` indexes count from the group's first record."""
    with open(path, "w") as handle:
        for meta, records in groups:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")


def load_groups(path: str) -> list[tuple[dict, list[dict]]]:
    """The ``(meta, records)`` groups of a file written by :func:`write_groups`."""
    groups: list[tuple[dict, list[dict]]] = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "meta" in record:
                groups.append((record["meta"], []))
            else:
                groups[-1][1].append(record)
    return groups


def within(spans: list[dict], ancestor: str) -> list[bool]:
    """For each span of one group, whether some ancestor is named ``ancestor``."""
    memo: dict[int, bool] = {}

    def under(position: int) -> bool:
        chain = []
        node = position
        while node not in memo:
            parent = spans[node]["parent"]
            if parent < 0:
                memo[node] = False
                break
            chain.append(node)
            node = parent
        for link in reversed(chain):
            parent = spans[link]["parent"]
            memo[link] = spans[parent]["name"] == ancestor or memo[parent]
        return memo[position]

    return [under(position) for position in range(len(spans))]


def self_times(spans) -> dict[str, tuple[float, int]]:
    """``name -> (self seconds, calls)`` over span records."""
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0.0, 0])
        entry[0] += span["self"]
        entry[1] += 1
    return {name: (s, calls) for name, (s, calls) in totals.items()}
