"""Query serving: a warm :class:`ExpertFinder` behind an LRU cache.

The experiments drive finders in batch; a serving deployment instead
answers a stream of expertise needs, most of them repeats ("who knows
about X" is heavy-tailed). :class:`ExpertSearchService` wraps one
finder with

* an LRU result cache keyed by the *normalized* need text plus the
  *effective* value of every parameter that changes the ranking
  (α, window, top-k) — casing and whitespace variants of one need share
  an entry, and so do a defaulted parameter and the same value passed
  explicitly (``alpha=0.6`` with a 0.6-configured finder is one entry,
  not two);
* write-through streaming: :meth:`observe` forwards to the finder and
  invalidates the cache when the resource was indexed (it changes every
  irf/eirf ratio, so no cached ranking survives it) — non-indexed
  observes cannot change any cached result and leave the cache warm;
* per-query latency counters (count, hit/miss split, p50/p95) for the
  serving benchmarks and operational visibility.

The service is deliberately synchronous and process-local — it is the
unit a distributed tier would replicate, not that tier itself. It
*is* safe to call from several threads (the HTTP gateway in
:mod:`repro.serve` ranks single queries on its event-loop thread and
runs its other work on executor threads): a single
re-entrant lock serializes every query, observe, and invalidation, so
an observe can never interleave with a query's cache fill and leave a
stale ranking behind. The lock deliberately also covers the finder
compute — a query reads the write buffer and the statistics caches an
observe mutates — so finder evaluation is single-threaded by design.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from types import EllipsisType
from typing import TYPE_CHECKING

from repro.core.expert_finder import _UNSET, ExpertFinder
from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore

if TYPE_CHECKING:
    from repro.index.segments import EvidenceCsr

#: cache keys collapse a need to this normal form
def normalize_need_text(text: str) -> str:
    """Lower-case and collapse runs of whitespace.

    >>> normalize_need_text("  Best\\tFreestyle  SWIMMER ")
    'best freestyle swimmer'
    """
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class ServiceStats:
    """Operational counters of one :class:`ExpertSearchService`.

    The segment/buffer fields are streaming gauges: observes that could
    not change any cached result keep the cache (``cache_survivals``)
    instead of clearing it (``invalidations``), and the finder's index
    reports its live segment count, buffered resources, and compaction
    merges.
    """

    queries: int
    cache_hits: int
    cache_misses: int
    cache_size: int
    observed: int
    invalidations: int
    p50_latency: float
    p95_latency: float
    cache_survivals: int = 0
    segments: int = 0
    buffered_docs: int = 0
    compactions: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hits per query — 0.0 before the first request."""
        return self.cache_hits / self.queries if self.queries else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """The stats as one flat JSON-ready mapping — the single
        serialization the ``/v1/metrics`` gateway endpoint and
        ``repro serve-bench --json`` both emit (so they cannot drift).
        Includes the derived :attr:`hit_rate` alongside the raw
        counters."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": self.cache_size,
            "hit_rate": self.hit_rate,
            "observed": self.observed,
            "invalidations": self.invalidations,
            "cache_survivals": self.cache_survivals,
            "p50_latency_s": self.p50_latency,
            "p95_latency_s": self.p95_latency,
            "segments": self.segments,
            "buffered_docs": self.buffered_docs,
            "compactions": self.compactions,
        }


def percentile(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    An empty sample has no latencies to report yet, so every percentile
    of it is 0.0 — asking for p95 before the first request must not
    raise. An out-of-range *percentile* is a caller bug and raises even
    on an empty sample."""
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * percentile // 100))  # ceil
    return sorted_values[int(rank) - 1]


class ExpertSearchService:
    """Serve expert-search queries from a warm finder with result caching."""

    def __init__(
        self,
        finder: ExpertFinder,
        *,
        cache_size: int = 1024,
        max_latency_samples: int = 8192,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        if max_latency_samples <= 0:
            raise ValueError(
                f"max_latency_samples must be positive, got {max_latency_samples}"
            )
        self._finder = finder
        # One lock for queries, observes, and invalidations: cache
        # mutation must never interleave with an observe's invalidation,
        # and the finder admits one evaluating thread at a time (see the
        # module docstring). Re-entrant
        # because observe() invalidates while already holding it.
        self._lock = threading.RLock()
        self._cache: OrderedDict[tuple, tuple[ExpertScore, ...]] = OrderedDict()
        self._cache_size = cache_size
        self._clock = clock
        self._latencies: list[float] = []
        self._max_latency_samples = max_latency_samples
        self._queries = 0
        self._hits = 0
        self._misses = 0
        self._observed = 0
        self._invalidations = 0
        self._cache_survivals = 0

    @property
    def finder(self) -> ExpertFinder:
        return self._finder

    # -- queries -------------------------------------------------------------------

    def _cache_key(
        self,
        text: str,
        alpha: float | None,
        window: int | float | None | EllipsisType,
        top_k: int | None,
    ) -> tuple:
        """Canonical cache key: normalized text + *effective* parameters.

        Defaulted parameters resolve to the finder's configured values
        before keying, so ``find_experts(need)`` and
        ``find_experts(need, alpha=cfg.alpha, window=cfg.window)`` share
        one entry. The window keeps its type in the key: ``window=1``
        (top-1 resource) and ``window=1.0`` (fraction: all resources)
        hash equal as numbers but rank differently.
        """
        config = self._finder.config
        effective_alpha = config.alpha if alpha is None else alpha
        effective_window = config.window if window is _UNSET else window
        return (
            normalize_need_text(text),
            effective_alpha,
            (effective_window.__class__.__name__, effective_window),
            top_k,
        )

    def find_experts(
        self,
        need: ExpertiseNeed | str,
        *,
        top_k: int | None = None,
        alpha: float | None = None,
        window: int | float | None | EllipsisType = _UNSET,
    ) -> list[ExpertScore]:
        """Answer one expertise need; same contract as
        :meth:`ExpertFinder.find_experts`, served from the cache when an
        equivalent query was already answered."""
        text = need.text if isinstance(need, ExpertiseNeed) else need
        key = self._cache_key(text, alpha, window, top_k)
        started = self._clock()
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                result = list(cached)
            else:
                result = self._finder.find_experts(
                    need, top_k=top_k, alpha=alpha, window=window
                )
                # counted once answered: a failed call is neither a query
                # nor a miss
                self._misses += 1
                if self._cache_size:
                    self._cache[key] = tuple(result)
                    if len(self._cache) > self._cache_size:
                        self._cache.popitem(last=False)
            self._queries += 1
            self._record_latency(self._clock() - started)
        return result

    def find_experts_batch(
        self,
        needs: Sequence[ExpertiseNeed | str],
        *,
        top_k: int | None = None,
        alpha: float | None = None,
        window: int | float | None | EllipsisType = _UNSET,
    ) -> list[list[ExpertScore]]:
        """Answer several needs under one parameter setting, in order —
        the same as one :meth:`find_experts` call per need, so duplicate
        needs within the batch hit the cache like repeated single queries
        would."""
        return [
            self.find_experts(need, top_k=top_k, alpha=alpha, window=window)
            for need in needs
        ]

    # -- streaming updates --------------------------------------------------------

    def observe(
        self,
        node_id: str,
        text: str,
        supporters: Sequence[tuple[str, int]],
        *,
        language: str | None = None,
    ) -> bool:
        """Forward one new resource to the finder; invalidate the cache
        only when the observe could change a cached ranking.

        An *indexed* resource changes every collection-frequency ratio,
        so no cached ranking stays valid. A non-indexed one (the
        language cut) changes no statistics and can never match a query
        — every cached result would be recomputed identically, so the
        cache survives (counted as a ``cache_survival``)."""
        with self._lock:
            indexed = self._finder.observe(
                node_id, text, supporters, language=language
            )
            self._observed += 1
            if indexed:
                self.invalidate()
            else:
                self._cache_survivals += 1
        return indexed

    def invalidate(self) -> None:
        """Drop every cached result (counted in :attr:`stats`)."""
        with self._lock:
            self._cache.clear()
            self._invalidations += 1

    # -- introspection -------------------------------------------------------------

    def evidence(self) -> tuple[int, "EvidenceCsr"]:
        """The finder's whole resource → supporters relation and the
        number of admitted resources it covers, read together under the
        lock (an observe appends to the write buffer under it)."""
        with self._lock:
            index = self._finder.segmented_index
            return index.resource_count, index.evidence_csr()

    @property
    def cached_results(self) -> int:
        with self._lock:
            return len(self._cache)

    def latency_percentile(self, pct: float) -> float:
        """Nearest-rank latency percentile over the recorded samples
        (seconds; 0.0 before the first query)."""
        with self._lock:
            ordered = sorted(self._latencies)
        return percentile(ordered, pct)

    @property
    def stats(self) -> ServiceStats:
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> ServiceStats:
        ordered = sorted(self._latencies)
        index_stats = self._finder.index_stats
        return ServiceStats(
            queries=self._queries,
            cache_hits=self._hits,
            cache_misses=self._misses,
            cache_size=len(self._cache),
            observed=self._observed,
            invalidations=self._invalidations,
            p50_latency=percentile(ordered, 50),
            p95_latency=percentile(ordered, 95),
            cache_survivals=self._cache_survivals,
            segments=index_stats.segments,
            buffered_docs=index_stats.buffered,
            compactions=index_stats.compactions,
        )

    def _record_latency(self, elapsed: float) -> None:
        # bound the sample buffer by halving it (keeping recent samples)
        # so long-running services don't grow without limit
        if len(self._latencies) >= self._max_latency_samples:
            del self._latencies[: len(self._latencies) // 2]
        self._latencies.append(elapsed)
