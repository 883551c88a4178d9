"""In-process benchmark at scale: build, save, load, read, grow, compact.

A ``from_stream`` build of 100,000 resources over 10,000 candidates
(:mod:`repro.synthetic.stream`, seed 11; 10,000 over 1,000 under
``REPRO_SCALE=tiny``) is followed through its life:

* **build and save** in a spawned child, whose ``ru_maxrss`` is the
  build's peak: build s (with its analyze/index split), peak RSS, save
  s and snapshot MB;
* **load** in fresh spawned children, never forked (a forked child's
  RSS starts from its parent's, and this process holds the oracle):
  load s and the child's peak RSS after the load; then the private kB
  (``Private_Clean`` + ``Private_Dirty`` of ``/proc/self/smaps_rollup``,
  where it exists) of two readers that hold the snapshot mapped at the
  same time, each after one query;
* **reads and writes** in this process, on a loaded finder, at three
  steps — as loaded, after 3,000 observes of a second stream, and after
  ``compact(full=True)``: the p50/p95 of 300 ``stream_queries`` at
  ``top_k`` 10, need analysis included, and the source count; the
  observe latencies; the compaction's wall time and this process's RSS
  after it.

Asserted on every run: at each step the served ranking ``==`` the
oracle (``tests/oracle.py``, built once per step) on 20 of the needs; a
load is at least 5× faster than the build; cached QPS through
:class:`~repro.core.service.ExpertSearchService` is at least 10× its
uncached QPS. perfbench times the served path; this benchmark times the
in-process one. Results go to ``benchmarks/results/scale.txt`` and
``BENCH_scale.json`` (see ``conftest.save_json``).
"""

from __future__ import annotations

import multiprocessing
import pathlib
import resource
import time
from concurrent.futures import ProcessPoolExecutor

from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService, percentile
from repro.experiments.context import scale_from_env
from repro.synthetic.dataset import DatasetScale, default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.oracle import Oracle

#: (resources, candidates) of the built stream, by ``REPRO_SCALE``
_SIZES = {DatasetScale.TINY: (10_000, 1_000)}
_DEFAULT_SIZE = (100_000, 10_000)
_SEED = 11
#: the second stream the loaded finder observes (ids prefixed, so that
#: they do not collide with the built stream's)
_GROW_SEED = 99
_OBSERVES = 3_000
_QUERIES = 300
_QUERY_SEED = 5
_TOP_K = 10
#: needs per step whose served ranking is checked against the oracle
_ORACLE_NEEDS = 20
#: cache-served passes over the needs (the first, uncached pass misses)
_CACHED_ROUNDS = 20
#: seconds a reader waits for the other before giving up
_BARRIER_TIMEOUT_S = 300

_SPAWN = multiprocessing.get_context("spawn")
#: set in each reader process by its pool's initializer: a barrier can
#: be handed to a process only when it is spawned, not inside a task
_barrier = None


def _maxrss_mb() -> float:
    """This process's peak resident set in MB (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rss_mb() -> float | None:
    """This process's resident set now, in MB; None without ``/proc``."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return round(pages * resource.getpagesize() / 2**20, 1)


def _private_kb() -> int | None:
    """This process's private resident kB; None without smaps_rollup."""
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
            return sum(
                int(line.split()[1])
                for line in fh
                if line.startswith(("Private_Clean:", "Private_Dirty:"))
            )
    except OSError:
        return None


def _in_fresh_process(target, *args):
    """``target(*args)`` in a fresh spawned interpreter, joined before
    this returns."""
    with ProcessPoolExecutor(1, mp_context=_SPAWN) as pool:
        return pool.submit(target, *args).result()


def _build_and_save(directory: pathlib.Path, resources: int, candidates: int) -> dict:
    analyzer = default_analyzer()
    cands = stream_candidates(candidates)
    t0 = time.perf_counter()
    finder = ExpertFinder.from_stream(
        cands, stream_resources(cands, resources, seed=_SEED), analyzer
    )
    build_s = time.perf_counter() - t0
    maxrss_mb = _maxrss_mb()
    t0 = time.perf_counter()
    finder.save(directory)
    return {
        "wall_s": build_s,
        "maxrss_mb": maxrss_mb,
        "save_s": time.perf_counter() - t0,
        "stats": finder.build_stats.as_dict(),
    }


def _load(directory: pathlib.Path) -> dict:
    analyzer = default_analyzer()
    t0 = time.perf_counter()
    ExpertFinder.load(directory, analyzer)
    return {"wall_s": time.perf_counter() - t0, "maxrss_mb": _maxrss_mb()}


def _hold(barrier) -> None:
    global _barrier
    _barrier = barrier


def _reader(directory: pathlib.Path, need: str) -> int | None:
    finder = ExpertFinder.load(directory, default_analyzer())
    finder.find_experts(need, top_k=_TOP_K)
    _barrier.wait(_BARRIER_TIMEOUT_S)  # both readers have mapped and queried
    private_kb = _private_kb()
    _barrier.wait(_BARRIER_TIMEOUT_S)  # neither unmaps before both have read
    return private_kb


def _two_readers(directory: pathlib.Path, need: str) -> list[int | None]:
    with ProcessPoolExecutor(
        2, mp_context=_SPAWN, initializer=_hold, initargs=(_SPAWN.Barrier(2),)
    ) as pool:
        readers = [pool.submit(_reader, directory, need) for _ in range(2)]
        return [reader.result() for reader in readers]


def _step(finder: ExpertFinder, needs: list[str]) -> dict:
    """Time every need at ``top_k`` 10, then check a sample of them
    against the oracle over the collection as it stands."""
    latencies = []
    for need in needs:
        t0 = time.perf_counter()
        finder.find_experts(need, top_k=_TOP_K)
        latencies.append(time.perf_counter() - t0)
    latencies.sort()
    oracle = Oracle(finder)
    for need in needs[:_ORACLE_NEEDS]:
        assert finder.find_experts(need) == oracle.rank(need), need
    stats = finder.index_stats
    return {
        "segments": stats.segments,
        "buffered": stats.buffered,
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p95_ms": percentile(latencies, 95) * 1e3,
    }


def _qps(service: ExpertSearchService, needs: list[str], rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        service.find_experts_batch(needs, top_k=_TOP_K)
    return len(needs) * rounds / (time.perf_counter() - t0)


def bench_scale(save_result, save_json, tmp_path):
    scale = scale_from_env()
    resources, candidates = _SIZES.get(scale, _DEFAULT_SIZE)
    needs = stream_queries(_QUERIES, seed=_QUERY_SEED)
    directory = tmp_path / "snapshot"

    build = _in_fresh_process(_build_and_save, directory, resources, candidates)
    snapshot_mb = sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    ) / 2**20
    load = _in_fresh_process(_load, directory)
    private_kb = _two_readers(directory, needs[0])

    finder = ExpertFinder.load(directory, default_analyzer())
    steps = {"loaded": _step(finder, needs)}
    service = ExpertSearchService(finder, cache_size=2 * len(needs))
    uncached_qps = _qps(service, needs, 1)
    cached_qps = _qps(service, needs, _CACHED_ROUNDS)

    observe_s = []
    cands = stream_candidates(candidates)
    for node_id, text, supporters, *rest in stream_resources(
        cands, _OBSERVES, seed=_GROW_SEED
    ):
        t0 = time.perf_counter()
        finder.observe(
            f"grow:{node_id}", text, supporters, language=rest[0] if rest else None
        )
        observe_s.append(time.perf_counter() - t0)
    observe_s.sort()
    steps["grown"] = _step(finder, needs)

    t0 = time.perf_counter()
    finder.segmented_index.compact(full=True)
    compact_s = time.perf_counter() - t0
    rss_after_compact_mb = _rss_mb()
    steps["compacted"] = _step(finder, needs)

    stats = build["stats"]
    observes = {
        "count": _OBSERVES,
        "p50_ms": percentile(observe_s, 50) * 1e3,
        "p95_ms": percentile(observe_s, 95) * 1e3,
        "max_ms": observe_s[-1] * 1e3,
    }
    readers_kb = None if None in private_kb else sum(private_kb)
    lines = [
        "In-process scale — from_stream build, save, load, reads over a "
        "grown and a compacted index",
        f"stream: {resources} resources (seed {_SEED}), {candidates} "
        f"candidates, {stats['indexed']} indexed",
        "",
        f"build (child):       {build['wall_s']:8.2f}s  (analyze "
        f"{stats['analyze_s']:.2f}s, index {stats['index_s']:.2f}s), "
        f"peak RSS {build['maxrss_mb']:.0f} MB",
        f"save:                {build['save_s']:8.2f}s  ({snapshot_mb:.1f} MB)",
        f"load (fresh child):  {load['wall_s']:8.2f}s  "
        f"({build['wall_s'] / load['wall_s']:.0f}x faster than the build), "
        f"peak RSS {load['maxrss_mb']:.0f} MB",
        f"private RSS, 2 readers mapped at once: {readers_kb} kB",
        "",
        f"{_QUERIES} needs at top_k {_TOP_K} (need analysis included):",
        "step        segments  buffered   p50 ms   p95 ms",
        *(
            f"{name:<12}{step['segments']:8d}{step['buffered']:10d}"
            f"{step['query_p50_ms']:9.2f}{step['query_p95_ms']:9.2f}"
            for name, step in steps.items()
        ),
        "",
        f"{_OBSERVES} observes:      p50 {observes['p50_ms']:.2f} ms, "
        f"p95 {observes['p95_ms']:.2f} ms, max {observes['max_ms']:.1f} ms",
        f"compact(full=True):  {compact_s:8.2f}s, RSS after "
        f"{rss_after_compact_mb} MB",
        f"service, as loaded:  {uncached_qps:.0f} uncached q/s, "
        f"{cached_qps:.0f} cached q/s ({cached_qps / uncached_qps:.0f}x)",
        "",
        f"rankings == the oracle on {_ORACLE_NEEDS} needs at every step: yes",
    ]
    save_result("scale", "\n".join(lines))
    save_json(
        "scale",
        {"scale": scale.value, "seed": _SEED, "resources": resources,
         "candidates": candidates},
        {
            "build": {**stats, "wall_s": build["wall_s"],
                      "maxrss_mb": build["maxrss_mb"]},
            "save_s": build["save_s"],
            "snapshot_mb": snapshot_mb,
            "load": load,
            "warm_start_speedup": build["wall_s"] / load["wall_s"],
            "two_reader_private_kb": readers_kb,
            "queries": _QUERIES,
            "top_k": _TOP_K,
            "steps": steps,
            "observes": observes,
            "compact_s": compact_s,
            "rss_after_compact_mb": rss_after_compact_mb,
            "uncached_qps": uncached_qps,
            "cached_qps": cached_qps,
            "cache_speedup": cached_qps / uncached_qps,
            "oracle_needs": _ORACLE_NEEDS,
            "parent_maxrss_mb": _maxrss_mb(),
        },
    )

    assert load["wall_s"] * 5 <= build["wall_s"], (
        f"snapshot load ({load['wall_s']:.3f}s) not ≥5x faster than "
        f"the build ({build['wall_s']:.3f}s)"
    )
    assert cached_qps >= 10 * uncached_qps, (
        f"cached QPS ({cached_qps:.0f}) not ≥10x uncached ({uncached_qps:.0f})"
    )
