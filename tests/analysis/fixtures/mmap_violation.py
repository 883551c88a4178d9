# repro: lint-module[repro.index.fixture_mmap]
"""Lint fixture: writes through mapped views and unsanctioned column
mutation."""

import numpy as np


def tamper(sections) -> None:
    view = sections.array("col")
    view[0] = 1  # item write through a mapped view
    view.byteswap()  # mutating method on a mapped view
    raw = memoryview(b"abc")
    raw[1] = 0  # item write through a memoryview
    sliced = view[2:4]
    sliced[0] = 9  # a slice shares the same pages


def tamper_numpy(sections) -> None:
    column = np.frombuffer(sections.array("col"), dtype=np.int64)
    column[0] = 1  # item write through a numpy view of the mapping
    column[1] += 2  # augmented assignment through it
    head = column[:4]
    head.fill(0)  # in-place method through a slice of it
    head += 1  # in-place arithmetic on the slice


class Segment:
    def __init__(self) -> None:
        self._term_cols: dict = {}

    def grow(self, term: str) -> None:
        self._term_cols[term] = (1, 2)  # column write outside sanctioned paths

    def replace(self) -> None:
        self._entity_cols = {}  # column rebind outside sanctioned paths

    def regroup(self) -> None:
        self._evidence_cols = ()  # evidence column rebind outside sanctioned paths
