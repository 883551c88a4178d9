"""Noise controls for a shared virtual host.

The hosts this benchmark runs on change speed by tens of percent within
seconds and over minutes, because other tenants contend for the caches and
the memory bandwidth the two CPUs share. Two controls steady the figures:

- :func:`probe` times a fixed piece of work on a given CPU. It is
  independent of the program under test (it imports nothing from
  ``repro``): it reads a table larger than those caches at random
  positions, so it misses them as the gateway's scoring does, and slows
  down with it when others contend. ``run.py`` probes both CPUs between
  requests, while the gateway is idle, and scales each time it measures
  to a host on which one probe takes :data:`NOMINAL_S`.
- :func:`keep_awake` keeps both CPUs busy at idle priority. A virtual CPU
  with nothing to run is halted, and when the host is busy, waking it for
  the next request or answer can take milliseconds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
import subprocess
import sys
import time
from array import array
from collections.abc import Iterable, Iterator

#: probe time on the reference host; a time measured on a CPU whose probes
#: take p seconds is reported as time * NOMINAL_S / p
NOMINAL_S = 0.003
#: 32 MiB of 8-byte entries, and the random reads of one probe
TABLE_ITEMS = 1 << 22
READS = 10_000


@functools.cache
def _table() -> tuple[array, array]:
    rng = random.Random(0)
    return array("q", range(TABLE_ITEMS)), array("q", (rng.randrange(TABLE_ITEMS) for _ in range(READS)))


def reference_work() -> int:
    """READS random reads from a table that does not fit in the caches."""
    table, order = _table()
    total = 0
    for i in order:
        total += table[i]
    return total


def probe(cpu: int | None) -> float:
    """Seconds one :func:`reference_work` takes on *cpu* (the current CPU
    when None); the calling thread is moved there and back."""
    _table()
    if cpu is None:
        return _timed()
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return _timed()
    finally:
        os.sched_setaffinity(0, home)


def _timed() -> float:
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def slowdown(cpus: Iterable[int | None]) -> float:
    """How much slower than the reference host *cpus* run now: their mean
    probe time over :data:`NOMINAL_S`."""
    times = [probe(cpu) for cpu in cpus]
    return sum(times) / len(times) / NOMINAL_S


#: a busy loop at the idle scheduling class, which yields the CPU to any
#: other runnable thread at once; it ends when its parent does
_SPIN = """\
import os
parent = os.getppid()
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def keep_awake(cpus: Iterable[int]) -> Iterator[None]:
    """Run one idle-priority busy loop on each of *cpus* meanwhile."""
    spinners: list[subprocess.Popen[bytes]] = []
    try:
        for cpu in cpus:
            spinner = subprocess.Popen([sys.executable, "-c", _SPIN])
            spinners.append(spinner)
            os.sched_setaffinity(spinner.pid, {cpu})
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()
