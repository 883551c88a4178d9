# repro: lint-module[repro.index.fixture_sections]
"""Lint fixture: layout names drawn from the registry module."""

from repro.storage import sections as layout


def save(mapped, name: str) -> tuple:
    offsets = mapped.array(layout.TERM_OFF)
    buffer = layout.BUFFER_BIN
    segment = layout.segment_bin(0)
    derived = layout.offsets_name(name)
    return offsets, buffer, segment, derived
