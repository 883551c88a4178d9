"""Span recorders wrapped around the program's public callables.

The benchmark measures every layer from outside the program: it replaces
public methods of ``repro`` classes with wrappers that record one span per
call (name, start, end, parent span, request id) and delegate to the
original. Spans stay in memory; :meth:`Recorder.dump` writes them out once,
when the traced process ends.

A target that does not exist at the commit under test (a module, class or
method deleted by a later change) is skipped and its span name listed as
*absent*, so the benchmark keeps running unchanged across such deletions.

Parent links assume one request in flight at a time, which is what the
benchmark's single closed-loop client produces: a span that starts with no
open span on its own thread (the executor hop of the gateway) is parented to
the dispatch span that is open at that moment.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: (span name, module, class.attribute) wrapped inside the gateway process
SERVER_TARGETS = (
    ("serve.dispatch", "repro.serve.app", "ServeApp.dispatch"),
    ("serve.encode", "repro.serve.router", "Response.encode_body"),
    ("service.find_experts", "repro.core.service", "ExpertSearchService.find_experts"),
    ("service.observe", "repro.core.service", "ExpertSearchService.observe"),
    ("index.find_experts", "repro.core.expert_finder", "ExpertFinder.find_experts"),
    ("index.query_engine", "repro.core.expert_finder", "ExpertFinder.query_engine"),
    ("index.observe", "repro.core.expert_finder", "ExpertFinder.observe"),
    ("analyzer.analyze", "repro.index.analyzer", "ResourceAnalyzer.analyze"),
    ("storage.load", "repro.core.expert_finder", "ExpertFinder.load"),
)

#: targets wrapped in the benchmark process while it builds the snapshot
BUILD_TARGETS = (
    ("build.from_stream", "repro.core.expert_finder", "ExpertFinder.from_stream"),
    ("storage.save", "repro.core.expert_finder", "ExpertFinder.save"),
    ("analyzer.analyze", "repro.index.analyzer", "ResourceAnalyzer.analyze"),
)

#: tag of an ``index.query_engine`` call that returned a different engine
#: than the previous call on the same finder, i.e. one that compiled
COMPILED = "compiled"


class Recorder:
    """Collects spans from wrapped callables in one process. A span is
    ``[id, parent id, name, start ns, end ns, request id, tag]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatch: int | None = None
        self._request_id: str | None = None
        #: finder id -> the engine its last query_engine() call returned
        #: (held, so that a new engine is never mistaken for the old one)
        self._engines: dict[int, object] = {}
        self._restore: list[tuple[type, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, targets: Iterable[tuple[str, str, str]]) -> None:
        """Wrap every target that exists; list the others as absent."""
        for name, module_name, qualname in targets:
            class_name, attr = qualname.split(".")
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                self.absent.append(name)
                continue
            self._restore.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original callables back."""
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_dispatch(name, fn)
        stack_of = self._stack
        spans = self.spans
        ids = self._ids
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else recorder._dispatch
            span_id = next(ids)
            request_id = recorder._request_id
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            tag = None
            if name == "index.query_engine" and args:
                # a new engine object means this call compiled one
                previous = recorder._engines.get(id(args[0]))
                if previous is not None and previous is not result:
                    tag = COMPILED
                recorder._engines[id(args[0])] = result
            spans.append([span_id, parent, name, start, end, request_id, tag])
            return result

        return wrapper

    def _wrap_dispatch(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        recorder = self

        @functools.wraps(fn)
        async def wrapper(app: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
            headers = getattr(request, "headers", None) or {}
            request_id = headers.get("x-request-id")
            span_id = next(ids)
            recorder._dispatch = span_id
            recorder._request_id = request_id
            start = time.monotonic_ns()
            try:
                return await fn(app, request, *args, **kwargs)
            finally:
                end = time.monotonic_ns()
                if recorder._dispatch == span_id:
                    recorder._dispatch = None
                spans.append([span_id, None, name, start, end, request_id, None])

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def load(path: str) -> tuple[list[str], list[list[Any]]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["absent"], data["spans"]


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end] that *intervals* cover."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
