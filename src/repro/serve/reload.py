"""Snapshot generations and graceful hot-reload.

The gateway never mutates a serving finder in place. A *generation* is
one fully loaded :class:`ExpertSearchService`; a
reload builds the next generation in an executor thread (the event loop
keeps serving generation N while the snapshot loads), then swaps one
attribute on the event-loop thread. Requests capture their generation
at dispatch and hold its service by reference, so in-flight requests
finish on the finder they started on — a torn index is
unrepresentable: either a request sees generation N (whole) or N+1
(whole), never a mix. A replaced generation needs no teardown: it is
freed once the last request holding it finishes.

The *source* callable owns "fully loaded": it must return a service
ready to answer — :func:`build_service` is what the CLI, tests, and
benchmarks pass.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService


def build_service(
    finder: ExpertFinder,
    *,
    cache_size: int = 1024,
) -> ExpertSearchService:
    """Wrap *finder* into a service — the standard gateway source
    body."""
    return ExpertSearchService(finder, cache_size=cache_size)


class Generation:
    """One serving generation: a loaded service and where it came from."""

    __slots__ = ("service", "number", "label")

    def __init__(
        self, service: ExpertSearchService, number: int, label: str | None
    ):
        self.service = service
        self.number = number
        #: the snapshot generation directory this service came from
        #: (None for built-in-process finders)
        self.label = label


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
        fresh generation (the last one wins). On failure the previous
        generation keeps serving and the error re-raises to the
        caller."""
        async with self._guard:
            loop = asyncio.get_running_loop()
            service = await loop.run_in_executor(None, self._source)
            label = self._label() if self._label is not None else None
            self._numbers += 1
            generation = Generation(service, self._numbers, label)
            self._current = generation
            return generation

    def shutdown(self) -> None:
        """Drop the current generation (event-loop thread only)."""
        self._current = None
