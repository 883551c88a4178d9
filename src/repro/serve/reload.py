"""Snapshot generations and graceful hot-reload.

The gateway never mutates a serving finder in place. A *generation* is
one fully loaded :class:`ExpertSearchService`; a
reload builds the next generation in an executor thread (the event loop
keeps serving generation N while the snapshot loads), then swaps one
attribute on the event-loop thread. Requests capture their generation
at dispatch, so in-flight requests drain on the finder they started on
— a torn index is unrepresentable: either a request sees generation N
(whole) or N+1 (whole), never a mix.

The retired generation's scatter pool (sharded finders fork one worker
process per shard segment) is closed as soon as its last in-flight
request finishes — from the event-loop thread, so no locking is needed.

The *source* callable owns "fully loaded": it must return a service
whose worker pool (for sharded finders) is already forked —
:func:`build_service` does exactly that and is what the CLI, tests, and
benchmarks pass.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable

from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService


def build_service(
    finder: ExpertFinder,
    *,
    cache_size: int = 1024,
) -> ExpertSearchService:
    """Fork everything queries will need and wrap *finder* into a
    service — the standard gateway source body.

    Forking a sharded finder's scatter pool here (not lazily on the
    first request) is what lets :class:`HotReloader` promise readiness
    means ready: the swap only happens after this returns."""
    if finder.index_stats.shards:
        finder.start_scatter_pool()
    return ExpertSearchService(finder, cache_size=cache_size)


class Generation:
    """One serving generation with event-loop-side in-flight tracking."""

    __slots__ = ("service", "number", "label", "loaded_at", "_inflight", "_retired")

    def __init__(
        self, service: ExpertSearchService, number: int, label: str | None
    ):
        self.service = service
        self.number = number
        #: the snapshot generation directory this service came from
        #: (None for built-in-process finders)
        self.label = label
        self.loaded_at = time.time()
        self._inflight = 0
        self._retired = False

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def retired(self) -> bool:
        return self._retired

    def acquire(self) -> None:
        self._inflight += 1

    def release(self) -> None:
        self._inflight -= 1
        if self._retired and self._inflight == 0:
            self._close()

    def retire(self) -> None:
        """Stop routing new requests here; close once drained."""
        if self._retired:
            return
        self._retired = True
        if self._inflight == 0:
            self._close()

    def _close(self) -> None:
        self.service.finder.close_scatter_pool()


class HotReloader:
    """Owns the current :class:`Generation` and the swap protocol."""

    def __init__(
        self,
        source: Callable[[], ExpertSearchService],
        *,
        label: Callable[[], str | None] | None = None,
    ):
        self._source = source
        self._label = label
        self._guard = asyncio.Lock()
        self._current: Generation | None = None
        self._numbers = 0
        self.reloads = 0
        self.last_error: str | None = None

    @property
    def ready(self) -> bool:
        return self._current is not None

    @property
    def current(self) -> Generation | None:
        return self._current

    def require_current(self) -> Generation:
        generation = self._current
        if generation is None:
            from repro.serve.router import HttpError

            raise HttpError(
                503, "not_ready", "no snapshot generation is loaded yet"
            )
        return generation

    async def reload(self) -> Generation:
        """Load + compile the next generation off-loop, then swap.

        Serialized: overlapping reload requests queue and each load a
        fresh generation (the last one wins, each drains its
        predecessor). On failure the previous generation keeps serving
        and the error re-raises to the caller."""
        async with self._guard:
            loop = asyncio.get_running_loop()
            try:
                service = await loop.run_in_executor(None, self._source)
                label = self._label() if self._label is not None else None
            except Exception as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                raise
            self._numbers += 1
            generation = Generation(service, self._numbers, label)
            old, self._current = self._current, generation
            self.reloads += 1
            self.last_error = None
            if old is not None:
                old.retire()
            return generation

    def shutdown(self) -> None:
        """Retire the current generation (event-loop thread only)."""
        if self._current is not None:
            self._current.retire()
            self._current = None
