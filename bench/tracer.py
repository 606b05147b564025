"""Span tracing for the benchmark, applied from outside the package.

The package binds functions with ``from .x import y``, so one function
object can sit under several module attributes (``stable.stability_number``
is also ``analysis.stability_number`` and ``kegraphs.stability_number``).
``Tracer.patch`` replaces every such binding with one wrapper and
remembers each original; ``Tracer.restore`` puts them all back and checks
that it did.  Each call through a wrapper records a span: a name, a start,
an end and the index of the enclosing span.  Nothing is aggregated while
the spans are recorded; ``summarize`` derives call counts, self time and
outermost inclusive time from the span arrays afterwards.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    inclusive_ns: int = 0
    tally: int = 0


class Tracer:
    """Records one span per wrapped call, in memory, for one thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.tallies: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, tally: Callable | None = None) -> Callable:
        """A wrapper that records a span named `name` around each call.

        `tally`, when given, maps the call's result to a count that is
        summed per name (for example the number of sets a call returned).
        """
        nid = self._name_id(name)
        clock = self.clock
        stack = self._stack
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        tallies = self.tallies

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + tally(result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """A context manager recording one span, for work the benchmark
        itself starts (the root span of each operation)."""
        return _Span(self, self._name_id(name))

    # -- patching --------------------------------------------------------

    def patch(
        self,
        modules: Iterable,
        targets: dict[str, tuple[object, str]],
        tallies: dict[str, Callable] | None = None,
    ) -> None:
        """Wrap each target in every module attribute that binds it.

        `targets` maps a span name to (owner, attribute).  The function
        found there is wrapped once, and that one wrapper replaces every
        attribute of every module in `modules` (and of the owner) whose
        value is the same function object.
        """
        tallies = tallies or {}
        modules = list(modules)
        for name, (owner, attr) in targets.items():
            original = _get(owner, attr)
            wrapper = self.wrap(name, original, tallies.get(name))
            self._set(owner, attr, original, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and not (mod is owner and key == attr):
                        self._set(mod, key, original, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Swap one binding (an attribute, or a key when `owner` is a dict)
        for `value`; restore() puts the original back."""
        self._set(owner, attr, _get(owner, attr), value)

    def _set(self, owner, attr: str, original, value) -> None:
        self._patched.append((owner, attr, original))
        _put(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, last first, and check each binding is back."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            _put(owner, attr, original)
        for owner, attr, original in patched:
            if _get(owner, attr) is not original:
                raise RuntimeError(f"binding {attr!r} was not restored")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation -----------------------------------------------------

    def summarize(self, root: str | None = None) -> dict[str, LayerStats]:
        """Per-name call count, self time and outermost inclusive time.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly on one thread, so the children
        never overlap.  Inclusive time counts only spans with no ancestor
        of the same name, so a function re-entered through another binding
        is not counted twice.  With `root`, only spans under a top-level
        span of that name count, and tallies are left out.
        """
        count = len(self.start)
        if self._stack:
            raise RuntimeError("summarize() called with spans still open")
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        top = [0] * count  # parents are recorded before their children
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
                top[i] = top[p]
            else:
                top[i] = i
        root_id = self._name_ids.get(root, -1) if root is not None else None
        stats = {name: LayerStats() for name in self.names}
        for i in range(count):
            if root_id is not None and self.name_of[top[i]] != root_id:
                continue
            nid = self.name_of[i]
            s = stats[self.names[nid]]
            s.calls += 1
            s.self_ns += duration[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                s.inclusive_ns += duration[i]
        if root is None:
            for name, value in self.tallies.items():
                stats[name].tally = value
        return stats


def _get(owner, attr: str):
    if isinstance(owner, dict):
        return owner[attr]
    return inspect.getattr_static(owner, attr)


def _put(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> None:
        t = self.tracer
        self.idx = len(t.start)
        t.name_of.append(self.nid)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.end.append(0)
        t._stack.append(self.idx)
        t.start.append(t.clock())

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.end[self.idx] = t.clock()
        t._stack.pop()
