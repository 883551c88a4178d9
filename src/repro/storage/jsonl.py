"""JSON-lines files with a typed header, transparent gzip, strict
version checking, and atomic writes.

:func:`write_records` never exposes a partially-written file under the
final name: it assembles the file in a same-directory temporary, flushes
and fsyncs it, then ``os.replace``-s it into place — a process killed
mid-write leaves only a stray ``.tmp`` file, never a truncated file
with a valid header. That sequence is :func:`atomic_write`, which every
storage writer shares. :func:`read_records` converts every decode-layer
failure (malformed JSON, truncated gzip streams, bad UTF-8) into
:class:`StorageFormatError` naming the offending path, so callers never
see a bare ``JSONDecodeError``/``EOFError`` from a corrupt file.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import pathlib
import tempfile
from collections.abc import Iterable, Iterator
from typing import Any, BinaryIO, TextIO

FORMAT_VERSION = 1


class StorageFormatError(ValueError):
    """The file is not a repro storage file, or its version/kind is
    incompatible, or its content is corrupt."""


def _open_read(path: pathlib.Path) -> TextIO:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


@contextlib.contextmanager
def atomic_write(path: pathlib.Path) -> Iterator[BinaryIO]:
    """Write *path* atomically: the body writes to a same-directory
    temporary file, which on a clean exit is flushed, fsynced and
    ``os.replace``-d over *path* before the directory entry is fsynced.
    On any error the temporary is removed and *path* is left untouched,
    so a crash mid-write never leaves a partial file under the final
    name."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    # flush the directory entry after the rename; best-effort where
    # directories cannot be opened
    with contextlib.suppress(OSError):
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def write_records(
    path: str | pathlib.Path, kind: str, records: Iterable[dict[str, Any]]
) -> int:
    """Atomically write a header line plus one JSON object per record;
    returns the number of records written. ``.gz`` paths are
    gzip-compressed."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with atomic_write(path) as raw:
        fh: TextIO
        if path.suffix == ".gz":
            fh = gzip.open(raw, "wt", encoding="utf-8")
        else:
            fh = open(raw.fileno(), "w", encoding="utf-8", closefd=False)
        with fh:
            header = {
                "format": "repro-jsonl",
                "version": FORMAT_VERSION,
                "kind": kind,
            }
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for record in records:
                fh.write(
                    json.dumps(record, separators=(",", ":"), sort_keys=True)
                    + "\n"
                )
                count += 1
    return count


def read_records(path: str | pathlib.Path, kind: str) -> Iterator[dict[str, Any]]:
    """Yield the records of a storage file, validating the header.

    Decode-layer failures — malformed JSON, a gzip stream cut short by a
    crash, invalid UTF-8 — surface as :class:`StorageFormatError` with
    the path, never as the underlying codec exception. A missing file
    still raises ``FileNotFoundError``.
    """
    path = pathlib.Path(path)
    try:
        with _open_read(path) as fh:
            header_line = fh.readline()
            if not header_line:
                raise StorageFormatError(f"{path}: empty file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise StorageFormatError(f"{path}: malformed header") from exc
            if not isinstance(header, dict) or header.get("format") != "repro-jsonl":
                raise StorageFormatError(f"{path}: not a repro storage file")
            if header.get("version") != FORMAT_VERSION:
                raise StorageFormatError(
                    f"{path}: unsupported version {header.get('version')!r}"
                )
            if header.get("kind") != kind:
                raise StorageFormatError(
                    f"{path}: expected kind {kind!r}, found {header.get('kind')!r}"
                )
            for line_number, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StorageFormatError(
                        f"{path}:{line_number}: malformed record"
                    ) from exc
    except (EOFError, UnicodeDecodeError) as exc:
        # a truncated gzip member raises EOFError mid-iteration; decode
        # errors mean the compressed payload was damaged
        raise StorageFormatError(f"{path}: corrupt file: {exc}") from exc
    except gzip.BadGzipFile as exc:
        raise StorageFormatError(f"{path}: corrupt gzip stream: {exc}") from exc
