# repro: lint-module[repro.index.fixture_sections]
"""Lint fixture: ad-hoc layout-name literals bypassing the registry."""


def save(mapped, name: str) -> tuple:
    offsets = mapped.array("term#off")  # section-name literal
    buffer = "buffer.bin"  # registered layout file name
    segment = "segment-0000.bin"  # container file shape
    derived = f"{name}#off"  # f-string smuggling the suffix
    return offsets, buffer, segment, derived
