"""Snapshot benchmark: save and open cost of the v3 binary (mmap) format.

Measures what the snapshot format gives a serving process:

* **save and open time** — one save, and the best of several opens
  (mapping the sealed columns, not re-parsing postings);
* **identical rankings** — the loaded finder must reproduce the built
  finder's rankings exactly (same candidates, scores, and support);
* **shared pages** — the private resident memory of two forked readers
  of one snapshot, which stays small because the heavy columns live in
  the shared page cache (reported when ``/proc/self/smaps_rollup``
  exists; skipped silently elsewhere).

The warm-start claim itself — loading beats a cold build by at least
5× — is gated by ``bench_serving.py``.

The rendered report goes to ``benchmarks/results/snapshot.txt`` and the
numbers to ``benchmarks/results/BENCH_snapshot.json`` in the shared
machine-readable schema (see ``conftest.save_json``).
"""

from __future__ import annotations

import os
import time

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder

#: open-time measurement repeats (best-of, to shed page-cache noise)
_OPEN_REPEATS = 5


def _best_open_time(directory, analyzer, repeats=_OPEN_REPEATS):
    best = float("inf")
    finder = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        finder = ExpertFinder.load(directory, analyzer)
        best = min(best, time.perf_counter() - t0)
    return best, finder


def _private_kb_after_load(directory, analyzer, need):
    """Fork a reader, load the snapshot, answer one query, and report
    its private resident memory (kB) from smaps_rollup; -1 if the
    platform lacks the interface."""
    if not os.path.exists("/proc/self/smaps_rollup"):
        return -1
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, write one line, hard-exit
        try:
            os.close(read_fd)
            finder = ExpertFinder.load(directory, analyzer)
            finder.find_experts(need)
            private_kb = 0
            with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith(("Private_Clean:", "Private_Dirty:")):
                        private_kb += int(line.split()[1])
            os.write(write_fd, f"{private_kb}\n".encode("ascii"))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as fh:
            line = fh.readline().strip()
    finally:
        os.waitpid(pid, 0)
    return int(line) if line else -1


def bench_snapshot(ctx, save_result, save_json, tmp_path):
    dataset = ctx.dataset
    queries = list(dataset.queries)
    finder = ExpertFinder.build(
        dataset.merged_graph,
        dataset.candidates_for(None),
        dataset.analyzer,
        FinderConfig(),
        corpus=dataset.corpus,
    )
    reference = {need.text: finder.find_experts(need) for need in queries}

    directory = tmp_path / "snap"
    t0 = time.perf_counter()
    finder.save(directory)
    save_s = time.perf_counter() - t0

    open_s, loaded = _best_open_time(directory, dataset.analyzer)

    # the loaded finder must reproduce the built rankings exactly
    for need in queries:
        assert loaded.find_experts(need) == reference[need.text]

    snapshot_bytes = sum(
        p.stat().st_size for p in directory.rglob("*") if p.is_file()
    )

    # resident-memory total across two forked readers
    probe = queries[0]
    private_kb = [
        _private_kb_after_load(directory, dataset.analyzer, probe)
        for _ in range(2)
    ]
    have_memory = all(kb >= 0 for kb in private_kb)

    lines = [
        "Snapshot format — v3 binary (mmap)",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({finder.indexed_resources} indexed resources, "
        f"{len(queries)} queries)",
        "",
        f"save:                   {save_s * 1e3:9.2f}ms"
        f"   ({snapshot_bytes / 1024:8.1f} KiB)",
        f"open (best of {_OPEN_REPEATS}):      {open_s * 1e3:9.2f}ms",
        "",
        "rankings: loaded == built (all queries, exact scores)",
    ]
    if have_memory:
        lines += [
            "",
            f"private RSS, 2 readers: {sum(private_kb):8d} kB",
        ]
    report = "\n".join(lines)
    save_result("snapshot", report)
    save_json(
        "snapshot",
        dataset,
        {
            "v3_save_s": save_s,
            "v3_open_s": open_s,
            "v3_bytes": snapshot_bytes,
            "v3_two_reader_private_kb": (
                sum(private_kb) if have_memory else None
            ),
            "rankings_identical": True,
        },
    )
