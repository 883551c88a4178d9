"""Resource sharding: the split behind ``shards=K`` and its scatter pool.

The paper's Eq. 1 scores each resource against the need on its own, and
Eq. 3 folds the top-``window`` resource scores into the candidates each
resource supports. So the collection splits by *resource*: a
``shards=K`` finder seals its cold build as K *shard segments* of one
:class:`~repro.index.segments.SegmentedIndex` (:func:`split_by_resource`),
each resource in exactly one of them, and every query scores them under
the index's one set of collection statistics. The per-segment window cut
is already exact when each resource lives in one source, so the merge
and the Eq. 3 fold are the unsharded ones, byte for byte.

Shard segments never change: observes land in the index's write buffer,
and seals and compactions only ever produce *later* segments. That lets
a :class:`ShardedQueryExecutor` fork one persistent worker per shard
segment, holding it copy-on-write (a loaded segment's columns are views
over the mapped snapshot, so every worker shares the page cache). A
request carries the coordinator's ``(term, weight)`` / ``(uri, weight)``
lists, α and the cut; the worker answers with its segment's
``(scores, doc indexes)`` arrays from :meth:`Segment.score`. That kernel
uses numpy ufuncs, fancy indexing, ``partition`` and ``lexsort`` only —
never BLAS — so a forked worker touches nothing of the parent's BLAS
thread pool.
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

# Direct submodule imports only; repro.index.segments imports this module.
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex

#: queries a pooled batch keeps in flight per worker; bounds both pipe
#: backlog and the coordinator's reply lag
DEFAULT_BATCH_INFLIGHT = 4

#: seconds a scatter waits on one worker before declaring it wedged
DEFAULT_WORKER_TIMEOUT = 120.0

#: one scatter request: term weights, entity weights, α, cut
Request = tuple[
    Sequence[tuple[str, float]], Sequence[tuple[str, float]], float, int | None
]

#: one segment's answer: ``(scores, doc indexes)`` in ``(-score, doc)`` order
Hits = tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]


def split_by_resource(
    term_index: InvertedIndex,
    entity_index: EntityIndex,
    evidence: Mapping[str, Any],
    shards: int,
) -> list[tuple[InvertedIndex, EntityIndex, dict[str, Any]]]:
    """Split a cold build into at most *shards* disjoint slices.

    The sorted indexed document ids form contiguous runs whose sizes
    differ by at most one; every other resource (evidence-only: the
    language cut) joins the run its id sorts into. An empty run makes no
    slice, so a collection of n < K documents yields n slices. Evidence
    keeps its stream order inside each slice, and the restricted indexes
    keep the original postings order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    indexed = sorted(term_index.doc_ids())
    runs = min(shards, len(indexed)) or 1
    bounds = [len(indexed) * k // runs for k in range(runs + 1)]
    firsts = [indexed[start] for start in bounds[1:-1]]
    rows: list[dict[str, Any]] = [{} for _ in range(runs)]
    for doc_id, supporters in evidence.items():
        rows[bisect_right(firsts, doc_id)][doc_id] = supporters
    slices = []
    for k in range(runs):
        docs = set(indexed[bounds[k] : bounds[k + 1]])
        if docs or rows[k]:
            slices.append(
                (
                    _restrict_index(InvertedIndex, term_index, docs),
                    _restrict_index(EntityIndex, entity_index, docs),
                    rows[k],
                )
            )
    return slices


def _restrict_index(cls: type[Any], index: Any, doc_ids: set[str]) -> Any:
    """A new ``cls`` index holding only *doc_ids*' postings, in the
    original postings order (a filtered subsequence: per-document float
    accumulation is order-independent across documents, so restricted
    scores repeat the unsplit products exactly)."""
    postings = {}
    for key, plist in index.items():
        kept = [p for p in plist if p.doc_id in doc_ids]
        if kept:
            postings[key] = kept
    return cls.restore(doc_ids, postings)


def _worker_main(conn: Any, segment: Any) -> None:
    """Scatter-pool worker loop: serve query/stop requests against the
    inherited shard *segment* over the pipe until told to stop.

    Replies are ``("ok", hits)`` or ``("error", message)`` — never
    silence, so the coordinator can distinguish a failed request from a
    dead worker.
    """
    try:
        while True:
            request = conn.recv()
            op = request[0]
            if op == "stop":
                return
            try:
                if op != "query":
                    raise ValueError(f"unknown request {op!r}")
                conn.send(("ok", segment.score(*request[1:])))
            except Exception as exc:  # keep serving after a bad request
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # coordinator went away; nothing to report to


class ShardedQueryExecutor:
    """Persistent fork-based process pool, one worker per shard segment.

    Requires the ``fork`` start method: segments must be inherited
    copy-on-write (pickling a compiled segment would defeat the point).
    Workers are daemons; a crashed worker surfaces as a ``RuntimeError``
    on the next :meth:`receive`, never a hang (*timeout* bounds a
    wedged-but-alive worker). Requests and replies are FIFO per worker, so a caller may
    keep several requests in flight and collect the replies in order.
    """

    def __init__(
        self,
        segments: Sequence[Any],
        *,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
    ):
        if not segments:
            raise ValueError("executor needs at least one shard segment")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharded query execution needs the 'fork' start method, "
                "which this platform does not provide"
            )
        ctx = multiprocessing.get_context("fork")
        self._timeout = timeout
        self._conns = []
        self._procs = []
        #: mean in-flight depth of the last pooled batch (the service's
        #: batch_parallelism gauge reads this)
        self.last_batch_depth = 0.0
        for k, segment in enumerate(segments):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, segment),
                name=f"shard-worker-{k}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def worker_count(self) -> int:
        return len(self._procs)

    @property
    def pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc in self._procs)

    def send(self, request: Request) -> None:
        """Queue *request* on every worker."""
        message = ("query", *request)
        for k, conn in enumerate(self._conns):
            try:
                conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                raise RuntimeError(
                    f"shard worker {k} (pid {self._procs[k].pid}) is gone: {exc}"
                ) from exc

    def receive(self) -> list[Hits]:
        """The oldest outstanding request's hits, one pair of arrays per
        worker in shard order."""
        return [self._recv(k)[1] for k in range(len(self._conns))]

    def _recv(self, k: int) -> tuple[Any, ...]:
        conn = self._conns[k]
        proc = self._procs[k]
        deadline = time.monotonic() + self._timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise RuntimeError(
                    f"shard worker {k} (pid {proc.pid}) died with exit code "
                    f"{proc.exitcode}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard worker {k} (pid {proc.pid}) gave no reply "
                    f"within {self._timeout:.0f}s"
                )
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {k} (pid {proc.pid}) died mid-reply"
            ) from exc
        if reply[0] == "error":
            raise RuntimeError(f"shard worker {k} failed: {reply[1]}")
        return reply

    def close(self) -> None:
        """Stop all workers (idempotent, tolerant of already-dead ones)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
