"""Span tracing from outside the library: wrap public callables, keep spans.

A Tracer replaces public functions and methods of scorechain where callers
look them up (class attributes, and every module-level name bound to the
same function object, such as ``block_score`` in ``ledger`` and ``witness``)
by wrappers that record one span per call: name, start, end, parent span,
operation id and a small integer tag (an outcome code such as the returned
ApplyStatus). Spans live in compact arrays in memory and are written out
once, when the run ends.

The wrappers read the clock and append to arrays; they draw no random
numbers and change no argument or result, so a traced run does the same
simulated work as an untraced one.

Self time: a span's duration minus the part of its interval that its child
spans cover. The benchmark is single-threaded, so sibling spans never
overlap and the covered part is the sum of the children's durations, each
clipped to the parent's interval.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

TagFn = Callable[[tuple], int]
ResultTagFn = Callable[[object], int]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (set-up, one operation)."""
        idx = self._open(self.name_id(name), 0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def wrap_callable(
        self,
        fn: Callable,
        name: str,
        tag_args: "TagFn | None" = None,
        tag_result: "ResultTagFn | None" = None,
    ) -> Callable:
        nid = self.name_id(name)
        open_span = self._open
        starts, ends, tags, stack = self.start, self.end, self.tag, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(nid, tag_args(args) if tag_args is not None else 0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if tag_result is not None:
                tags[idx] = tag_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str, **tags) -> None:
        """Wrap ``cls.attr`` when the class itself defines it."""
        if attr in cls.__dict__:
            self.patch_attr(cls, attr, self.wrap_callable(cls.__dict__[attr], name, **tags))

    def wrap_function(
        self, modules: Sequence[object], home: object, attr: str, name: str, **tags
    ) -> None:
        """Wrap a module function and every other module's binding of it."""
        original = getattr(home, attr)
        traced = self.wrap_callable(original, name, **tags)
        for module in modules:
            if module.__dict__.get(attr) is original:
                self.patch_attr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the clipped durations of children."""
    duration = end - start
    covered = np.zeros_like(duration)
    child = np.flatnonzero(parent >= 0)
    if child.size:
        up = parent[child]
        lo = np.maximum(start[child], start[up])
        hi = np.minimum(end[child], end[up])
        covered += np.bincount(up, weights=np.clip(hi - lo, 0.0, None), minlength=len(start))
    return duration - covered
