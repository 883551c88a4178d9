# repro: lint-module[repro.index.fixture_mmap]
"""Lint fixture: the sanctioned read/copy-on-write shapes."""

from array import array

import numpy as np


def read(sections) -> int:
    view = sections.array("col")
    total = 0
    for value in view:  # reads through a view are fine
        total += value
    copy = array("q", view)  # copy first ...
    copy[0] = total  # ... then mutate the copy freely
    return copy[0]


def read_numpy(sections) -> int:
    column = np.frombuffer(sections.array("col"), dtype=np.int64)
    copy = column.copy()  # copy first ...
    copy[0] += 1  # ... then mutate the copy freely
    scratch = np.zeros(4)  # a fresh array is not a view
    scratch[1] = 2.0
    scratch[2] += 1.0
    scratch.fill(0.0)
    return int(copy[0] + column[1:].sum())


class Segment:
    def __init__(self, term: str) -> None:
        self._term_cols: dict = {}  # construction is sanctioned
        self._term_cols[term] = (1, 2)  # so is filling the columns it adopts
        self._evidence_cols = (1, 2)  # and adopting mapped evidence views

    def rows(self, docs: list) -> tuple:
        cand, dist, first, count = self._evidence_cols  # reads are fine
        return cand, dist, first[0], count[0]
