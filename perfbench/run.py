#!/usr/bin/env python3
"""Serving benchmark of the expert-finding gateway (``repro serve``).

One run builds a snapshot from a seeded synthetic resource stream, starts
the real gateway on it as a child process, and drives it with one
closed-loop client (one thread, one keep-alive connection): the workload's
reads for ``--seconds``, then a fixed run of write cycles. Afterwards it
replays the same writes on an in-process finder loaded from the same
snapshot and compares every answer, or a seeded sample, exactly. See
README.md in this directory for the design.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, each time scaled to a
reference host by host-speed probes taken around it (``hostspeed.py``);
the line before the result has the figures as measured. ``--trace 1``
drives the workload twice, untraced and then with span recorders around
the layers' public callables (``serve_traced.py``), and reports the
per-layer metrics. The last line of standard output is the result::

    {"correct": true, "attempted": 2330, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import hostspeed
from gateway import Connection, Gateway, child_env, get_json, split_cpus
from layers import breakdown
from spans import BUILD_TARGETS, Recorder, load as load_spans

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (snapshots, logs, spans, counts)
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("search", "hot")
CANDIDATES = 1000
RESOURCES = 10000
TOP_K = 10
#: distinct needs of the Zipf-repeated pool (fits the gateway's LRU)
HOT_POOL = 256
#: observes per write burst, and queries after each burst
BURST = 8
#: gateway set-ups per untraced run; setup_s is their median
SETUPS = 5
#: write cycles after the timed read phase of every workload, each BURST
#: observes of fresh resources then BURST hot-pool queries; the first
#: cycle is not timed, the rest give 400 observes and 50 fresh queries
WRITE_CYCLES = 51
#: seconds between host-speed probes while requests are sent or the
#: corpus is built (hostspeed.py)
PROBE_EVERY_S = 0.25
#: leading blocks of the timed phase after which /v1/metrics is read: with
#: one closed-loop client those counters depend only on the seed
COUNTED_BLOCKS = {"search": 128, "hot": 4096}
#: blocks generated per second of --seconds; far above today's rates, so
#: the timed phase ends on the clock rather than on running out of input
MAX_BLOCKS_PER_S = {"search": 2000, "hot": 40000}
WARM_BLOCKS = {"search": 32, "hot": HOT_POOL}
#: share of query blocks checked against the oracle where checking all of
#: them would about double the run (every read on hot is checked)
SAMPLE_RATE = 0.25

_QUERY_HEAD = b"POST /v1/query HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: %d\r\n"
_OBSERVE_HEAD = b"POST /v1/observe HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: %d\r\n"


# -- inputs ------------------------------------------------------------------


class Op:
    """One request of a schedule, encoded up to its request id."""

    __slots__ = ("kind", "key", "event", "head", "body")

    def __init__(self, kind: str, key: Any, payload: dict[str, Any], head: bytes, event: Any = None):
        self.kind = kind
        self.key = key
        self.event = event
        self.body = json.dumps(payload).encode()
        self.head = head % len(self.body) + b"x-request-id: %d\r\n\r\n"


def query_op(need: str) -> Op:
    return Op("q", need, {"need": need, "top_k": TOP_K}, _QUERY_HEAD)


def observe_op(event: tuple[Any, ...]) -> Op:
    node_id, text, supporters, *rest = event
    payload = {"node_id": node_id, "text": text, "supporters": [list(s) for s in supporters]}
    if rest:
        payload["language"] = rest[0]
    return Op("o", node_id, payload, _OBSERVE_HEAD, event)


def unique_needs(count: int, seed: int) -> list[str]:
    """*count* needs from ``stream_queries``, none equal after the gateway's
    own normalisation (case and whitespace)."""
    from repro.synthetic.stream import stream_queries

    asked = count + count // 8 + 16
    while True:
        seen: set[str] = set()
        needs = []
        for need in stream_queries(asked, seed=seed):
            norm = " ".join(need.lower().split())
            if norm not in seen:
                seen.add(norm)
                needs.append(need)
        if len(needs) >= count:
            return needs[:count]
        asked *= 2


class Schedule:
    """The seeded inputs of one run: the corpus and the request blocks.

    A block is a tuple of ops sent back to back; the timed phase only stops
    between blocks. Read blocks are single queries; a write cycle is a
    burst of observes followed by as many queries."""

    def __init__(self, workload: str, seed: int, seconds: int):
        from repro.synthetic.stream import stream_candidates, stream_resources

        self.candidates = stream_candidates(CANDIDATES)
        rng = random.Random(seed)
        pool = [(query_op(need),) for need in unique_needs(HOT_POOL, seed + 1)]
        cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, HOT_POOL + 1)))

        def zipf(n: int) -> list[tuple[Op]]:
            return [pool[i] for i in rng.choices(range(HOT_POOL), cum_weights=cum_weights, k=n)]

        timed_blocks = MAX_BLOCKS_PER_S[workload] * seconds + COUNTED_BLOCKS[workload]
        warm = WARM_BLOCKS[workload]
        events = list(stream_resources(self.candidates, RESOURCES + WRITE_CYCLES * BURST, seed=seed))
        self.corpus = events[:RESOURCES]
        if workload == "search":
            blocks = [(query_op(need),) for need in unique_needs(warm + timed_blocks, seed)]
        else:
            blocks = pool + zipf(timed_blocks)
        self.warm, self.timed = blocks[:warm], blocks[warm:]
        # fresh stream events, so that observed ids never collide
        fresh = iter(events[RESOURCES:])
        cycles = [
            tuple(observe_op(next(fresh)) for _ in range(BURST)) + sum(zipf(BURST), ())
            for _ in range(WRITE_CYCLES)
        ]
        self.writes_warm, self.writes = cycles[:1], cycles[1:]


# -- driving the gateway -----------------------------------------------------


class Entry:
    """One sent request and its answer."""

    __slots__ = ("phase", "block", "op", "status", "body", "start_ns", "end_ns")

    def __init__(self, phase: str, block: int, op: Op, status: int, body: bytes, start_ns: int, end_ns: int):
        self.phase = phase
        self.block = block
        self.op = op
        self.status = status
        self.body = body
        self.start_ns = start_ns
        self.end_ns = end_ns


#: when a host-speed probe started (monotonic ns), and the mean slowdown of
#: the server's and the client's CPU it measured
Probe = tuple[int, float]


def probe(cpus: tuple[int | None, int | None]) -> Probe:
    return time.monotonic_ns(), hostspeed.slowdown(cpus)


def probing(
    events: Sequence[Any], cpus: tuple[int | None, int | None], probes: list[Probe], paused: list[float]
) -> Iterator[Any]:
    """Yield *events*, probing the host's speed every PROBE_EVERY_S into
    *probes*; the seconds each probe took go to *paused*."""
    lap = time.perf_counter()
    for event in events:
        if time.perf_counter() - lap >= PROBE_EVERY_S:
            pause = time.perf_counter()
            probes.append(probe(cpus))
            lap = time.perf_counter()
            paused.append(lap - pause)
        yield event


class Session:
    """What one gateway process was sent and answered, and how fast its
    CPU and the client's ran meanwhile."""

    def __init__(self, server_cpu: int | None, client_cpu: int | None) -> None:
        self.log: list[Entry] = []
        self.blocks = 0
        self.setup_s: list[float] = []
        self.timed_s = 0.0
        self.client_cpu_s = 0.0
        self.rss_mb = 0.0
        self.counted: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.write_counters: dict[str, int] = {}
        self.cpus = (server_cpu, client_cpu)
        #: phase -> host-speed probes
        self.probes: dict[str, list[Probe]] = {}

    def probe(self, phase: str) -> None:
        """Probe both CPUs' speed; the gateway must be idle."""
        self.probes.setdefault(phase, []).append(probe(self.cpus))

    def drive(
        self,
        conn: Connection,
        blocks: Sequence[tuple[Op, ...]],
        phase: str,
        *,
        seconds: float | None = None,
        counted: int = 0,
        checkpoint: Callable[[], None] | None = None,
    ) -> float:
        """Send *blocks* in order and return the seconds spent.

        Before the first block, after the last and every PROBE_EVERY_S
        between two blocks the clock pauses for a host-speed probe. With
        *seconds*, stop at the first block boundary after that long, but
        not before *checkpoint* has run (also with the clock paused) after
        the first *counted* blocks."""
        log = self.log
        send = conn.send
        clock = time.monotonic_ns
        elapsed = 0.0
        self.probe(phase)
        lap = time.perf_counter()
        for b, block in enumerate(blocks):
            due = time.perf_counter() - lap >= PROBE_EVERY_S
            if due or (b == counted and checkpoint is not None):
                elapsed += time.perf_counter() - lap
                if due:
                    self.probe(phase)
                if b == counted and checkpoint is not None:
                    checkpoint()
                    checkpoint = None
                lap = time.perf_counter()
            if seconds is not None and checkpoint is None and elapsed + time.perf_counter() - lap >= seconds:
                break
            number = self.blocks + b
            for op in block:
                request = op.head % len(log) + op.body
                start = clock()
                status, body = send(request)
                log.append(Entry(phase, number, op, status, body, start, clock()))
        elapsed += time.perf_counter() - lap
        self.probe(phase)
        self.blocks += len(blocks)
        if checkpoint is not None:
            checkpoint()
        return elapsed


def read_counters(port: int) -> dict[str, int]:
    """Every integer leaf of ``/v1/metrics``, by dotted path."""
    status, metrics = get_json(port, "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    out: dict[str, int] = {}

    def walk(prefix: str, node: Any) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}{key}.", value)
        elif isinstance(node, int) and not isinstance(node, bool):
            out[prefix[:-1]] = node

    walk("", metrics)
    return out


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in sorted(after.items())}


def run_session(
    argv: list[str],
    env: dict[str, str],
    log_path: str,
    schedule: Schedule,
    workload: str,
    seconds: int,
    setups: int,
    cpus: tuple[int | None, int | None],
) -> Session:
    """Set the gateway up *setups* times, keep the last one, drive it."""
    session = Session(*cpus)
    gateway = None
    try:
        for _ in range(setups):
            if gateway is not None:
                gateway.stop()
            session.probe("setup")
            gateway = Gateway(argv, env, log_path, cpus[0])
            session.setup_s.append(gateway.start())
            session.probe("setup")
        assert gateway is not None
        conn = Connection(gateway.port)
        port = gateway.port
        session.drive(conn, schedule.warm, "warm")
        baseline = read_counters(port)

        def checkpoint() -> None:
            session.counted = delta(read_counters(port), baseline)

        cpu = time.process_time()
        session.timed_s = session.drive(
            conn, schedule.timed, "timed", seconds=seconds, counted=COUNTED_BLOCKS[workload], checkpoint=checkpoint
        )
        session.client_cpu_s = time.process_time() - cpu
        after_reads = read_counters(port)
        session.counters = delta(after_reads, baseline)
        session.drive(conn, schedule.writes_warm, "writes_warm")
        session.drive(conn, schedule.writes, "writes")
        session.write_counters = delta(read_counters(port), after_reads)
        session.rss_mb = gateway.peak_rss_mb()
        conn.close()
    finally:
        if gateway is not None:
            gateway.stop()
    return session


# -- checking answers --------------------------------------------------------


def expected_answer(finder: Any, need: str) -> tuple[tuple[str, float, int], ...]:
    """The oracle's ranking of *need*, in the gateway's wire fields."""
    return tuple(
        (e.candidate_id, e.score, e.supporting_resources)
        for e in finder.find_experts(need, top_k=TOP_K)
    )


def wire_answer(body: bytes) -> tuple[tuple[str, float, int], ...] | None:
    try:
        experts = json.loads(body)["experts"]
        return tuple((e["candidate_id"], e["score"], e["supporting_resources"]) for e in experts)
    except (ValueError, KeyError, TypeError):
        return None


def check_answers(sessions: list[Session], snapshot: str, workload: str, seed: int) -> tuple[list[int], int]:
    """Failed operations per session: non-200 answers, and answers that
    differ from an in-process finder that loaded the same snapshot and
    applied the same observes in the same order. Also returns how many
    English events the analyzer identified as another language.

    The sessions of a run send prefixes of one read sequence, then one
    write sequence, so one replay checks them all. Reads on hot are all
    checked; elsewhere a seeded share of blocks is, so that checking does
    not double the run."""
    from repro.core.expert_finder import ExpertFinder
    from repro.synthetic.dataset import default_analyzer

    finder = ExpertFinder.load(snapshot, default_analyzer())
    rng = random.Random(seed)
    checked: dict[int, bool] = {}
    memo: dict[str, tuple[tuple[str, float, int], ...]] = {}
    parsed: dict[bytes, Any] = {}
    failed = [0] * len(sessions)
    unindexed_english: set[str] = set()

    def report(n: int, i: int, entry: Entry, detail: str) -> None:
        if sum(failed) <= 5:
            print(
                f"failed: session {n} request {i} ({entry.op.kind} {entry.op.key!r}): "
                f"status {entry.status}, {entry.body[:300]!r} {detail}",
                file=sys.stderr,
            )

    reads = [[e for e in s.log if not e.phase.startswith("writes")] for s in sessions]
    writes = [[e for e in s.log if e.phase.startswith("writes")] for s in sessions]
    for i, entries in aligned(reads) + aligned(writes):
        op = entries[0][1].op
        for n, entry in entries:
            if entry.op is not op:
                raise RuntimeError("sessions of one run diverged from the schedule")
        if op.kind == "o":
            node_id, text, supporters, *rest = op.event
            language = rest[0] if rest else None
            indexed = finder.observe(node_id, text, supporters, language=language)
            memo.clear()
            if language is None and not indexed:
                # English by construction, identified as another language
                # by the analyzer: the build makes the same cut
                unindexed_english.add(node_id)
            for n, entry in entries:
                try:
                    flag = json.loads(entry.body)["indexed"]
                except (ValueError, KeyError, TypeError):
                    flag = None
                if entry.status != 200 or flag is not indexed or (language is not None and flag):
                    failed[n] += 1
                    report(n, i, entry, f"indexed={flag}, expected {indexed}")
            continue
        first = entries[0][1]
        if first.block not in checked:
            every = workload == "hot" and not first.phase.startswith("writes")
            checked[first.block] = every or rng.random() < SAMPLE_RATE
        expected = memo.get(op.key)
        if expected is None and checked[first.block]:
            expected = memo[op.key] = expected_answer(finder, op.key)
        for n, entry in entries:
            if entry.status != 200:
                failed[n] += 1
                report(n, i, entry, "")
            elif expected is not None:
                if entry.body not in parsed:
                    parsed[entry.body] = wire_answer(entry.body)
                if parsed[entry.body] != expected:
                    failed[n] += 1
                    report(n, i, entry, f"expected {expected}")
    return failed, len(unindexed_english)


def aligned(parts: list[list[Entry]]) -> list[tuple[int, list[tuple[int, Entry]]]]:
    """(position, [(session, entry)]) for every position of the longest part."""
    return [
        (i, [(n, part[i]) for n, part in enumerate(parts) if i < len(part)])
        for i in range(max(len(part) for part in parts))
    ]


def check_counts(sessions: list[Session], key: str) -> list[str]:
    """Compare the counters read after the counted blocks across the
    sessions of this run and with earlier runs of the same inputs in this
    checkout; return the differences.

    A counter that moved by 0 counts as absent: the gateway lists a status
    only once it has answered with it, and whether a readiness probe of the
    set-up met a 503 depends on timing."""
    problems = []
    counted = [{name: n for name, n in session.counted.items() if n} for session in sessions]
    reference = counted[0]
    for other in counted[1:]:
        if other != reference:
            problems.append(f"counters differ between sessions: {sorted(set(other.items()) ^ set(reference.items()))}")
    store = WORK / "counts" / f"{key}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier != reference:
            problems.append(f"counters differ from an earlier run ({store.name}): {sorted(set(earlier.items()) ^ set(reference.items()))}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference, sort_keys=True))
    return problems


# -- metrics -----------------------------------------------------------------


def pct(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * p // 100)) - 1]


def ms(ns: int) -> float:
    return ns / 1e6


def scaled_ms(entries: list[Entry], probes: list[Probe]) -> tuple[list[float], list[float]]:
    """Latencies of *entries* in ms, as measured and on the reference host:
    divided by the mean slowdown of the probes right before and right
    after each."""
    times = [t for t, _ in probes]
    measured, scaled = [], []
    for entry in entries:
        k = bisect.bisect_right(times, entry.start_ns)
        around = [slow for _, slow in probes[max(k - 1, 0) : k + 1]]
        latency = ms(entry.end_ns - entry.start_ns)
        measured.append(latency)
        scaled.append(latency * len(around) / sum(around))
    return measured, scaled


def timed_queries(session: Session) -> list[Entry]:
    return [e for e in session.log if e.phase == "timed" and e.op.kind == "q"]


def query_rate(session: Session) -> float:
    """Queries per second of the read phase on the reference host: the
    measured rate times the slowdown, weighted by the time spent at it."""
    measured, scaled = scaled_ms(timed_queries(session), session.probes["timed"])
    return len(measured) / session.timed_s * sum(measured) / sum(scaled)


#: per-layer metrics computed from each traced callable's spans. A callable
#: absent at the commit under test leaves them at 0 and they are listed in
#: info.absent_metrics; its time then counts towards its caller's self time
FED_BY_SPAN = {
    "serve.dispatch": ("serve.dispatch_self_ms_p50", "serve.share", "serve.wire_ms_p50", "serve.wire_share"),
    "serve.encode": ("serve.encode_ms_p50", "serve.share", "serve.wire_ms_p50", "serve.wire_share"),
    "service.find_experts": ("service.self_ms_p50",),
    "service.observe": ("service.self_ms_p50",),
    "index.find_experts": ("index.score_ms_p50", "index.share"),
    "index.query_engine": ("index.compile_ms_p50", "index.compiles"),
    "index.observe": ("index.observe_ms_p50",),
    "analyzer.analyze": ("analyzer.need_ms_p50", "analyzer.resource_ms_p50", "analyzer.calls"),
    "storage.save": ("storage.save_s",),
    "storage.load": ("storage.load_s",),
}

#: the same for the /v1/metrics counters the † metrics are computed from
FED_BY_COUNTER = {
    "gateway.responses_by_status.200": ("serve.errors",),
    "service.queries": ("service.hit_rate",),
    "service.cache_hits": ("service.hit_rate",),
    "service.invalidations": ("service.invalidations",),
    "service.cache_survivals": ("service.cache_survivals",),
    "service.blocks_scanned": ("index.block_skip_rate",),
    "service.blocks_skipped": ("index.block_skip_rate",),
}


def absent_metrics(absent_spans: Sequence[str], counters: dict[str, int]) -> list[str]:
    """The per-layer metrics that absent callables or counters leave at 0."""
    fed = [FED_BY_SPAN.get(name, ()) for name in absent_spans]
    fed += [metrics for key, metrics in FED_BY_COUNTER.items() if key not in counters]
    return sorted({metric for metrics in fed for metric in metrics})


def dagger(session: Session) -> dict[str, float]:
    """The per-layer counts read from /v1/metrics: the hit and skip rates
    of the read phase, the cache invalidations and survivals of the write
    phase, and non-200 answers of both."""
    reads, writes = session.counters, session.write_counters
    queries = reads.get("service.queries", 0)
    scanned = reads.get("service.blocks_scanned", 0)
    skipped = reads.get("service.blocks_skipped", 0)
    errors = sum(
        value for counters in (reads, writes) for key, value in counters.items()
        if key.startswith("gateway.responses_by_status.") and key.rsplit(".", 1)[1] != "200"
    )
    return {
        "serve.errors": errors,
        "service.hit_rate": reads.get("service.cache_hits", 0) / queries if queries else 0.0,
        "service.invalidations": writes.get("service.invalidations", 0),
        "service.cache_survivals": writes.get("service.cache_survivals", 0),
        "index.block_skip_rate": skipped / (scanned + skipped) if scanned + skipped else 0.0,
    }


def write_entries(session: Session, phase: str) -> tuple[list[Entry], list[Entry]]:
    """The observes, and the first query after each burst."""
    observes, fresh = [], []
    previous = None
    for entry in session.log:
        if entry.phase == phase:
            if entry.op.kind == "o":
                observes.append(entry)
            elif previous == "o":
                fresh.append(entry)
            previous = entry.op.kind
    return observes, fresh


def end_to_end(session: Session, build_s: float, build_slowdown: float) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics on the reference host, and in info the
    figures as measured."""
    observes, fresh = write_entries(session, "writes")
    queries, queries_ref = scaled_ms(timed_queries(session), session.probes["timed"])
    observe_ms, observe_ref = scaled_ms(observes, session.probes["writes"])
    fresh_ms, fresh_ref = scaled_ms(fresh, session.probes["writes"])
    # a probe right before each set-up and one right after it
    around = session.probes["setup"]
    setup_ref = [
        setup * 2 / (before + after)
        for setup, (_, before), (_, after) in zip(session.setup_s, around[0::2], around[1::2])
    ]
    measured = {
        "needs_per_s": len(queries) / session.timed_s,
        "query_p50_ms": pct(queries, 50),
        "query_p95_ms": pct(queries, 95),
        "fresh_query_p50_ms": pct(fresh_ms, 50),
        "observe_p50_ms": pct(observe_ms, 50),
        "observe_p95_ms": pct(observe_ms, 95),
        "build_s": build_s,
        "setup_s": statistics.median(session.setup_s),
        "rss_mb": session.rss_mb,
    }
    metrics = {
        "needs_per_s": query_rate(session),
        "query_p50_ms": pct(queries_ref, 50),
        "query_p95_ms": pct(queries_ref, 95),
        "fresh_query_p50_ms": pct(fresh_ref, 50),
        "observe_p50_ms": pct(observe_ref, 50),
        "observe_p95_ms": pct(observe_ref, 95),
        "build_s": build_s / build_slowdown,
        "setup_s": statistics.median(setup_ref),
        "rss_mb": session.rss_mb,
    }
    slowdowns = {phase: statistics.median(slow for _, slow in probes) for phase, probes in session.probes.items()}
    slowdowns["build"] = build_slowdown
    samples: dict[str, Any] = {
        "queries": len(queries),
        "observes": len(observe_ms),
        "fresh_queries": len(fresh_ms),
        "setups": len(session.setup_s),
        "probes": {phase: len(probes) for phase, probes in session.probes.items()},
    }
    return metrics, {"measured": measured, "slowdown": slowdowns, "samples": samples}


def per_layer(
    untraced: Session,
    traced: Session,
    spans: list[list[Any]],
    build_spans: list[list[Any]],
    build_stats: Any,
    snapshot_mb: float,
) -> tuple[dict[str, float], int]:
    def phase(name: str) -> list[tuple[str, str, int, int]]:
        return [(str(i), e.op.kind, e.start_ns, e.end_ns) for i, e in enumerate(traced.log) if e.phase == name]

    requests, violations = breakdown(phase("timed"), spans)
    writes, write_violations = breakdown(phase("writes"), spans)
    violations += write_violations
    queries = [r for r in requests if r.kind == "q"]
    total = sum(r.total_ns for r in requests) or 1

    def p50(rows: list[Any], bucket: str) -> float:
        return ms(pct([r.self_ns[bucket] for r in rows], 50))

    def share(*buckets: str) -> float:
        return sum(r.self_ns[b] for r in requests for b in buckets) / total

    def durations(name: str) -> list[int]:
        return [s[4] - s[3] for s in spans + build_spans if s[2] == name]

    resource_ns = [ns for r in writes for ns in r.resource_ns]
    resource_ns += [s[4] - s[3] for s in build_spans if s[2] == "analyzer.analyze"]
    compile_ns = [ns for r in requests + writes for ns in r.compile_ns]
    analyze_s = getattr(build_stats, "analyze_s", 0.0)
    index_s = getattr(build_stats, "index_s", 0.0)
    metrics = {
        "serve.wire_ms_p50": p50(queries, "wire"),
        "serve.wire_share": share("wire"),
        "serve.dispatch_self_ms_p50": p50(queries, "dispatch"),
        "serve.encode_ms_p50": p50(queries, "encode"),
        "serve.share": share("dispatch", "encode"),
        "service.self_ms_p50": p50(queries, "service"),
        # over every query that reached the finder: on hot only the
        # write phase's do, so a read-phase-only figure would always be 0
        "index.score_ms_p50": p50([r for r in queries + writes if r.kind == "q" and r.reached_finder], "score"),
        "index.share": share("score"),
        "index.compile_ms_p50": ms(pct(compile_ns, 50)),
        "index.compiles": len(compile_ns),
        "index.observe_ms_p50": p50([r for r in writes if r.kind == "o"], "write"),
        "analyzer.need_ms_p50": ms(pct([ns for r in queries + writes for ns in r.need_ns], 50)),
        "analyzer.resource_ms_p50": ms(pct(resource_ns, 50)),
        "analyzer.calls": sum(len(r.need_ns) + len(r.resource_ns) for r in requests + writes),
        "analyzer.build_share": analyze_s / (analyze_s + index_s) if analyze_s + index_s else 0.0,
        "storage.save_s": sum(durations("storage.save")) / 1e9,
        "storage.load_s": sum(durations("storage.load")) / 1e9,
        "storage.snapshot_mb": snapshot_mb,
        "client.cpu_share": untraced.client_cpu_s / untraced.timed_s,
        "trace.overhead": query_rate(untraced) / query_rate(traced) - 1.0,
    }
    metrics.update(dagger(traced))
    return metrics, violations


# -- the run -----------------------------------------------------------------


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources, so that stored
    counters are only compared with runs of the same code."""
    digest = hashlib.sha256()
    here = pathlib.Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def directory_mb(path: pathlib.Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / (1024 * 1024)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # a terminated run still stops its gateway and spinners (the finally
    # clauses)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    affinity = os.sched_getaffinity(0)
    cpus = split_cpus()
    if cpus[1] is not None:
        os.sched_setaffinity(0, {cpus[1]})
    try:
        with hostspeed.keep_awake(cpu for cpu in cpus if cpu is not None):
            return measure(args, work, cpus)
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: pathlib.Path, cpus: tuple[int | None, int | None]) -> int:
    """Build, serve, drive, check and print the result of one run."""
    from repro.core.expert_finder import ExpertFinder
    from repro.synthetic.dataset import default_analyzer

    traced = bool(args.trace)
    schedule = Schedule(args.workload, args.seed, args.seconds)
    snapshot = work / "snapshot"
    recorder = Recorder()
    if traced:
        recorder.install(BUILD_TARGETS)
    # probes while the stream is read; a traced build is not timed, and
    # its build_stats would count the probes as indexing time
    build_probes = [probe(cpus)]
    paused: list[float] = []
    corpus = schedule.corpus if traced else probing(schedule.corpus, cpus, build_probes, paused)
    try:
        started = time.perf_counter()
        finder = ExpertFinder.from_stream(schedule.candidates, corpus, default_analyzer())
        finder.save(snapshot)
        build_s = time.perf_counter() - started - sum(paused)
    finally:
        recorder.uninstall()
    build_probes.append(probe(cpus))
    build_stats = getattr(finder, "build_stats", None)
    del finder

    env = child_env(str(SRC))
    serve = ["serve", "--snapshot", str(snapshot)]
    plain = [sys.executable, "-m", "repro.cli", *serve]
    log_path = str(work / "gateway.log")
    if not traced:
        sessions = [run_session(plain, env, log_path, schedule, args.workload, args.seconds, SETUPS, cpus)]
    else:
        spans_path = work / "spans.json"
        launcher = [sys.executable, str(pathlib.Path(__file__).with_name("serve_traced.py")), str(spans_path), *serve]
        sessions = [
            run_session(plain, env, log_path, schedule, args.workload, args.seconds, 1, cpus),
            run_session(launcher, env, log_path, schedule, args.workload, args.seconds, 1, cpus),
        ]
    failed, unindexed_english = check_answers(sessions, str(snapshot), args.workload, args.seed)
    key = f"{args.workload}-seed{args.seed}-r{RESOURCES}-c{CANDIDATES}-{code_digest()}"
    problems = check_counts(sessions, key)
    info: dict[str, Any] = {
        "workload": args.workload,
        "failed_by_session": failed,
        "english_events_not_indexed": unindexed_english,
        "counted": sessions[0].counted,
        "dagger": dagger(sessions[-1]),
    }
    if traced:
        absent, spans = load_spans(str(spans_path))
        metrics, violations = per_layer(
            sessions[0], sessions[1], spans, recorder.spans, build_stats, directory_mb(snapshot)
        )
        info["absent"] = sorted(set(absent + recorder.absent))
        info["absent_metrics"] = absent_metrics(info["absent"], sessions[-1].counters)
        info["trace_violations"] = violations
        if violations:
            problems.append(f"{violations} traced requests whose spans do not nest or sum to the client time")
    else:
        build_slowdown = statistics.median(slow for _, slow in build_probes)
        metrics, measured = end_to_end(sessions[0], build_s, build_slowdown)
        info.update(measured)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if traced else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares")
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    attempted = sum(len(s.log) for s in sessions)
    print(json.dumps({
        "correct": not problems and not any(failed),
        "attempted": attempted,
        "failed": sum(failed),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
