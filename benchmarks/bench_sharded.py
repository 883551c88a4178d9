"""Sharded scatter-gather benchmark: uncached QPS across shard counts.

A ``shards=K`` finder seals its cold build as K shard segments split by
resource, and its scatter pool forks one worker per shard segment.
Measures the claims sharding makes:

* **equivalence** — at every shard count the sharded finder returns
  rankings byte-identical to the unsharded finder, serially and through
  the scatter pool, for absolute/fractional/disabled windows (asserted
  unconditionally, at every scale);
* **scaling** — uncached batch QPS through the persistent worker pool
  must reach ≥1.7× at 4 shards vs 1 shard (asserted on hosts with ≥4
  cores, where the workers actually get their own cores; the measured
  numbers are always recorded — the 1-shard baseline runs through a
  1-worker pool, so the comparison isolates parallelism, not pipe
  overhead);
* **shared pages** — scatter workers fork the loaded shard segments,
  whose columns map the v3 snapshot read-only, so a reader plus its
  worker pool must not hold K private copies of the shard columns: on
  little-endian hosts the loaded segment columns are asserted to be
  zero-copy, read-only ``np.frombuffer`` views (a byteswap copy would
  silently privatize every page), and the private-RSS totals of one and
  two independent reader+pool groups are reported from ``smaps_rollup``
  where available.

The workload is the ``xl`` scale's streaming generator
(:mod:`repro.synthetic.stream`) truncated per ``REPRO_SCALE``, so both
the sharded and unsharded builds consume byte-identical streams without
materializing a dataset. Results go to
``benchmarks/results/sharded.txt`` and ``BENCH_sharded.json``.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService
from repro.synthetic.stream import (
    stream_candidates,
    stream_queries,
    stream_resources,
)

#: shard counts under test (1 is the pooled baseline)
_SHARD_COUNTS = (1, 2, 4)
#: the Eq. 1 window for the QPS runs (well under the match count, so
#: every segment cuts its matches before the merge)
_WINDOW = 10
#: window shapes every shard count must reproduce exactly
_EQUIV_WINDOWS = (_WINDOW, 5, 0.5, None)
#: timed uncached passes per measurement window, best-of repeats
_ROUNDS = 3
_REPEATS = 3
#: stream size per scale: (candidates, resources, queries)
_STREAM_SIZES = {
    "tiny": (10, 600, 24),
    "small": (40, 8_000, 40),
    "paper": (80, 30_000, 40),
}
#: QPS floor for 4 shards vs 1 shard on >= _GATE_CORES cores
_SPEEDUP_FLOOR = 1.7
_GATE_CORES = 4


def _build(candidates, analyzer, resources, seed, shards=None):
    return ExpertFinder.from_stream(
        candidates,
        stream_resources(candidates, resources, seed=seed),
        analyzer,
        FinderConfig(window=None),
        shards=shards,
    )


def _measure_qps(finder, queries):
    """Best-of uncached batch QPS through the live scatter pool."""
    best = 0.0
    service = ExpertSearchService(finder, cache_size=0)
    service.find_experts_batch(queries, window=_WINDOW)  # warm
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            service.find_experts_batch(queries, window=_WINDOW)
        elapsed = time.perf_counter() - t0
        best = max(best, _ROUNDS * len(queries) / elapsed)
    return best, service.stats.batch_parallelism


def _columns_zero_copy(finder):
    """True when every loaded segment column is a read-only numpy view
    that owns no data (only meaningful on little-endian hosts, where the
    mmap path must never fall back to a byteswapped array copy)."""
    for segment in finder.segmented_index.iter_segments():
        for cols in (segment._term_cols, segment._entity_cols):
            for views in cols.values():
                if any(v.flags.owndata or v.flags.writeable for v in views):
                    return False
    return True


def _private_kb_of(pid):
    private_kb = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private_kb += int(line.split()[1])
    return private_kb


def _group_private_kb(directory, analyzer, query):
    """Fork one reader: load the sharded snapshot, start its scatter
    pool, answer one query, and report the private RSS (kB) of the
    reader plus every pool worker; -1 without smaps_rollup."""
    if not os.path.exists("/proc/self/smaps_rollup"):
        return -1
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, write one line, hard-exit
        try:
            os.close(read_fd)
            finder = ExpertFinder.load(directory, analyzer)
            executor = finder.start_scatter_pool()
            finder.find_experts(query, window=_WINDOW)
            total = _private_kb_of("self")
            for worker_pid in executor.pids:
                total += _private_kb_of(worker_pid)
            finder.close_scatter_pool()
            os.write(write_fd, f"{total}\n".encode("ascii"))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as fh:
            line = fh.readline().strip()
    finally:
        os.waitpid(pid, 0)
    return int(line) if line else -1


def bench_sharded(ctx, save_result, save_json, tmp_path):
    dataset = ctx.dataset
    n_cands, n_resources, n_queries = _STREAM_SIZES[dataset.scale.value]
    analyzer = dataset.analyzer
    seed = dataset.seed
    candidates = stream_candidates(n_cands)
    queries = stream_queries(n_queries, seed=seed)

    reference = _build(candidates, analyzer, n_resources, seed)
    expected = {
        window: [reference.find_experts(q, window=window) for q in queries]
        for window in _EQUIV_WINDOWS
    }

    qps: dict[int, float] = {}
    parallelism: dict[int, float] = {}
    for shards in _SHARD_COUNTS:
        finder = _build(candidates, analyzer, n_resources, seed, shards=shards)

        # equivalence first, and unconditionally: serial coordinator,
        # then the scatter pool — both byte-identical to the unsharded
        # rankings
        for window, want in expected.items():
            got = [finder.find_experts(q, window=window) for q in queries]
            assert got == want, (
                f"shards={shards} window={window!r} "
                f"diverged from the unsharded ranking"
            )
        finder.start_scatter_pool()
        try:
            for window, want in expected.items():
                got = [finder.find_experts(q, window=window) for q in queries]
                assert got == want, (
                    f"shards={shards} scatter pool window={window!r} "
                    f"diverged from the unsharded ranking"
                )
            qps[shards], parallelism[shards] = _measure_qps(finder, queries)
        finally:
            finder.close_scatter_pool()

    speedup = qps[4] / qps[1]
    if (os.cpu_count() or 1) >= _GATE_CORES:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"4-shard scatter reached only {speedup:.2f}x the 1-shard "
            f"pooled QPS ({qps[4]:.0f} vs {qps[1]:.0f} q/s); the floor "
            f"is {_SPEEDUP_FLOOR}x"
        )

    # shared pages: snapshot the 4-shard finder, check the mapped
    # columns stay zero-copy, and report reader+pool private RSS
    snap_dir = tmp_path / "sharded-snap"
    sharded4 = _build(candidates, analyzer, n_resources, seed, shards=4)
    sharded4.save(snap_dir)
    loaded = ExpertFinder.load(snap_dir, analyzer)
    zero_copy = _columns_zero_copy(loaded)
    if sys.byteorder == "little":
        assert zero_copy, (
            "loaded shard columns are not zero-copy views on a "
            "little-endian host — something is privately copying the "
            "mmap-ed snapshot pages"
        )
    for i, q in enumerate(queries):
        assert loaded.find_experts(q, window=_WINDOW) == expected[_WINDOW][i]
    shard_bytes = sum(
        p.stat().st_size for p in snap_dir.rglob("segment-*.bin")
    )
    one_group_kb = _group_private_kb(snap_dir, analyzer, queries[0])
    two_group_kb = [
        _group_private_kb(snap_dir, analyzer, queries[0]) for _ in range(2)
    ]
    have_memory = one_group_kb >= 0 and all(kb >= 0 for kb in two_group_kb)

    lines = [
        "Sharded scatter-gather — uncached QPS across shard counts",
        f"stream: {n_cands} candidates, {n_resources} resources, "
        f"{n_queries} queries (scale={dataset.scale.value} seed={seed}), "
        f"window={_WINDOW}",
        "",
    ]
    for shards in _SHARD_COUNTS:
        lines.append(
            f"shards={shards}:  {qps[shards]:8.0f} q/s uncached "
            f"(pipeline depth {parallelism[shards]:.1f})"
        )
    gate = (
        "asserted" if (os.cpu_count() or 1) >= _GATE_CORES
        else f"recorded only ({os.cpu_count()} cores < {_GATE_CORES})"
    )
    lines += [
        "",
        f"speedup 4 vs 1 shards:  {speedup:.2f}x  "
        f"(floor {_SPEEDUP_FLOOR}x, {gate})",
        "rankings: sharded == unsharded (all shard counts, "
        "all windows, serial + pool)",
        f"mapped shard columns zero-copy: {zero_copy} "
        f"({shard_bytes / 1024:.1f} KiB in shard segment bins)",
    ]
    if have_memory:
        lines += [
            f"private RSS, 1 reader+pool:  {one_group_kb:8d} kB",
            f"private RSS, 2 readers+pools:{sum(two_group_kb):8d} kB",
        ]
    report = "\n".join(lines)
    save_result("sharded", report)
    save_json(
        "sharded",
        dataset,
        {
            "candidates": n_cands,
            "resources": n_resources,
            "queries": n_queries,
            "window": _WINDOW,
            **{f"qps_shards_{k}": qps[k] for k in _SHARD_COUNTS},
            **{f"batch_parallelism_shards_{k}": parallelism[k] for k in _SHARD_COUNTS},
            "speedup_4_vs_1": speedup,
            "speedup_floor": _SPEEDUP_FLOOR,
            "speedup_gated": (os.cpu_count() or 1) >= _GATE_CORES,
            "shard_bytes": shard_bytes,
            "columns_zero_copy": zero_copy,
            "one_group_private_kb": one_group_kb if have_memory else None,
            "two_group_private_kb": sum(two_group_kb) if have_memory else None,
            "rankings_identical": True,
        },
    )
