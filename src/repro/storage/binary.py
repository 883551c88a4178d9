"""Binary section containers: raw little-endian buffers, mmap-ed on load.

The JSONL formats re-parse and re-intern every posting on open; at
serving scale that turns every process start (and every worker) into a
full collection scan holding a private copy of the postings. This module
provides the storage layer of snapshot format v3: one file holds many
named **sections**, each a raw little-endian buffer of a declared dtype,
and readers ``mmap`` the file and hand out zero-copy views — so open
cost is O(header + vocabulary), and N processes mapping one snapshot
share a single page-cache copy of the heavy posting columns.

File layout::

    header (32 bytes, little-endian):
        magic           8s   b"RPROBIN3"
        version         u32  container version (1)
        toc length      u32  bytes of the JSON table of contents
        file size       u64  total file length (O(1) truncation check)
        checksum        u32  crc32 of everything after the header
        (4 pad bytes)
    toc (UTF-8 JSON, zero-padded to an 8-byte boundary):
        {"sections": [{"name": ..., "dtype": "q"|"d"|"B",
                       "offset": ..., "length": ...}, ...]}
    payload: the section buffers, each 8-byte aligned

Section dtypes: ``"q"`` (int64), ``"d"`` (float64), ``"B"`` (raw bytes,
e.g. a UTF-8 string blob). Offsets are absolute file offsets; lengths
are bytes. Buffers are always written little-endian; on the (rare)
big-endian host the writer byteswaps a copy on the way out and the
reader returns byteswapped ``array`` copies instead of zero-copy views.

Strings are stored as a pair of sections — ``<name>`` (concatenated
UTF-8 blob) plus ``<name>#off`` (int64 byte offsets, ``n + 1`` entries)
— via :func:`pack_strings` / :meth:`MappedSections.strings`.

Writes are **atomic**: the file is assembled in a same-directory
temporary file, flushed and fsynced, then ``os.replace``-d into place
(and the directory entry fsynced), so a crash mid-write can never leave
a partially-written file under the final name.

Readers validate magic, container version, declared vs actual file
size, TOC shape, and the checksum, raising
:class:`~repro.storage.jsonl.StorageFormatError` naming the offending
path — truncations and bit flips are loud, never a silently-wrong
index.
"""

from __future__ import annotations

import json
import mmap
import pathlib
import struct
import sys
import zlib
from array import array
from collections.abc import Iterable, Sequence
from typing import cast

from repro.storage.jsonl import StorageFormatError, atomic_write
from repro.storage.sections import offsets_name

MAGIC = b"RPROBIN3"
CONTAINER_VERSION = 1

_HEADER = struct.Struct("<8sIIQI4x")  # magic, version, toc_len, size, crc32
HEADER_SIZE = _HEADER.size

#: section dtypes: int64 / float64 / raw bytes
_DTYPES = ("q", "d", "B")

_LITTLE_ENDIAN = sys.byteorder == "little"


def _align8(n: int) -> int:
    return (n + 7) & ~7


def encode_values(dtype: str, data: object) -> bytes:
    """Encode *data* as the little-endian bytes of a *dtype* section.

    Accepts ``bytes``/``bytearray``/``memoryview`` (taken as already
    little-endian — e.g. a slice of a mapped section), ``array``
    instances, or any iterable of numbers.
    """
    if dtype not in _DTYPES:
        raise ValueError(f"unknown section dtype {dtype!r}")
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    if isinstance(data, memoryview):
        return bytes(data)
    if dtype == "B":
        raise TypeError("blob sections take bytes-like data")
    if isinstance(data, array) and data.typecode in ("q", "l", "d"):
        values = data
        if dtype == "q" and values.itemsize != 8:
            values = array("q", values)
    elif isinstance(data, Iterable):
        items = cast("Iterable[int] | Iterable[float]", data)
        values = array("q", items) if dtype == "q" else array("d", items)
    else:
        raise TypeError(
            f"cannot encode {type(data).__name__} as a {dtype!r} section"
        )
    if not _LITTLE_ENDIAN:
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def pack_strings(
    name: str, strings: Iterable[str]
) -> list[tuple[str, str, bytes]]:
    """The two sections encoding a string list: ``<name>`` (UTF-8 blob)
    and ``<name>#off`` (``n + 1`` int64 byte offsets into the blob)."""
    blob = bytearray()
    offsets = array("q", [0])
    for text in strings:
        blob += text.encode("utf-8")
        offsets.append(len(blob))
    return [
        (offsets_name(name), "q", encode_values("q", offsets)),
        (name, "B", bytes(blob)),
    ]


def write_sections(
    path: str | pathlib.Path,
    sections: Sequence[tuple[str, str, object]],
) -> None:
    """Atomically write a section container to *path*.

    *sections* is a sequence of ``(name, dtype, data)`` triples (see
    :func:`encode_values` for accepted data shapes). Names must be
    unique. The write goes to a same-directory temporary file, is
    flushed and fsynced, and is then renamed over *path*.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    encoded: list[tuple[str, str, bytes]] = []
    seen: set[str] = set()
    for name, dtype, data in sections:
        if name in seen:
            raise ValueError(f"duplicate section name {name!r}")
        seen.add(name)
        encoded.append((name, dtype, encode_values(dtype, data)))

    # lay out the payload: TOC length depends on offsets, offsets depend
    # on the TOC length — fix the TOC size with a first pass, then pad
    def toc_bytes(payload_start: int) -> bytes:
        offset = payload_start
        entries = []
        for name, dtype, data in encoded:
            entries.append(
                {"name": name, "dtype": dtype, "offset": offset, "length": len(data)}
            )
            offset += _align8(len(data))
        return json.dumps({"sections": entries}, separators=(",", ":")).encode(
            "utf-8"
        )

    toc_len = _align8(len(toc_bytes(HEADER_SIZE)))
    while True:  # offsets widen with the TOC itself; iterate to a fixpoint
        toc = toc_bytes(HEADER_SIZE + toc_len)
        if len(toc) <= toc_len:
            break
        toc_len = _align8(len(toc))
    toc = toc.ljust(toc_len, b"\0")

    body = bytearray(toc)
    for _name, _dtype, data in encoded:
        body += data
        body += b"\0" * (_align8(len(data)) - len(data))
    file_size = HEADER_SIZE + len(body)
    header = _HEADER.pack(
        MAGIC, CONTAINER_VERSION, toc_len, file_size, zlib.crc32(body)
    )

    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(body)


class MappedSections:
    """A section container mmap-ed read-only.

    :meth:`array` and :meth:`blob` return zero-copy ``memoryview``s over
    the mapping (int64 / float64 casts for numeric sections), so slices
    handed to query engines share the OS page cache across processes.
    The object must outlive every view taken from it; it holds the map
    open for its own lifetime (dropping all references releases it).
    """

    def __init__(
        self,
        path: pathlib.Path,
        buffer: mmap.mmap,
        toc: dict[str, tuple[str, int, int]],
    ):
        self._path = path
        self._mmap = buffer
        self._view = memoryview(buffer)
        self._toc = toc

    @classmethod
    def open(cls, path: str | pathlib.Path) -> "MappedSections":
        """Map *path* and validate header, size, TOC, and checksum."""
        path = pathlib.Path(path)
        try:
            with open(path, "rb") as fh:
                try:
                    buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except ValueError as exc:  # zero-length file cannot be mapped
                    raise StorageFormatError(f"{path}: empty file") from exc
        except OSError as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise StorageFormatError(f"{path}: unreadable: {exc}") from exc
        try:
            return cls._validate(path, buffer)
        except BaseException:
            buffer.close()
            raise

    @classmethod
    def _validate(cls, path: pathlib.Path, buffer: mmap.mmap) -> "MappedSections":
        size = len(buffer)
        if size < HEADER_SIZE:
            raise StorageFormatError(f"{path}: truncated header ({size} bytes)")
        magic, version, toc_len, declared, checksum = _HEADER.unpack_from(buffer, 0)
        if magic != MAGIC:
            raise StorageFormatError(f"{path}: not a repro binary section file")
        if version != CONTAINER_VERSION:
            raise StorageFormatError(
                f"{path}: unsupported container version {version}"
            )
        if declared != size:
            raise StorageFormatError(
                f"{path}: file is {size} bytes, header declares {declared} "
                f"(truncated or overwritten)"
            )
        if HEADER_SIZE + toc_len > size:
            raise StorageFormatError(f"{path}: table of contents exceeds file")
        if zlib.crc32(memoryview(buffer)[HEADER_SIZE:]) != checksum:
            raise StorageFormatError(
                f"{path}: checksum mismatch (corrupted content)"
            )
        try:
            parsed = json.loads(
                bytes(memoryview(buffer)[HEADER_SIZE : HEADER_SIZE + toc_len])
                .rstrip(b"\0")
                .decode("utf-8")
            )
            entries = parsed["sections"]
            toc: dict[str, tuple[str, int, int]] = {}
            for entry in entries:
                name, dtype = entry["name"], entry["dtype"]
                offset, length = int(entry["offset"]), int(entry["length"])
                if dtype not in _DTYPES:
                    raise ValueError(f"unknown dtype {dtype!r}")
                if name in toc:
                    raise ValueError(f"duplicate section {name!r}")
                if offset < HEADER_SIZE + toc_len or offset + length > size:
                    raise ValueError(f"section {name!r} outside file bounds")
                toc[name] = (dtype, offset, length)
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
            raise StorageFormatError(
                f"{path}: malformed table of contents: {exc}"
            ) from exc
        return cls(path, buffer, toc)

    # -- access --------------------------------------------------------------------

    @property
    def path(self) -> pathlib.Path:
        return self._path

    def names(self) -> tuple[str, ...]:
        return tuple(self._toc)

    def describe(self) -> dict[str, object]:
        """The container's header fields (with the stored crc32) and its
        section table in file order, JSON-ready — what ``repro inspect``
        prints."""
        _magic, version, toc_len, size, checksum = _HEADER.unpack_from(self._view)
        return {
            "container_version": version,
            "bytes": size,
            "toc_bytes": toc_len,
            "crc32": f"{checksum:08x}",
            "sections": [
                {"name": name, "dtype": dtype, "offset": offset, "length": length}
                for name, (dtype, offset, length) in self._toc.items()
            ],
        }

    def _section(self, name: str, expected: tuple[str, ...]) -> tuple[str, int, int]:
        entry = self._toc.get(name)
        if entry is None:
            raise StorageFormatError(f"{self._path}: missing section {name!r}")
        if entry[0] not in expected:
            raise StorageFormatError(
                f"{self._path}: section {name!r} has dtype {entry[0]!r}, "
                f"expected {' or '.join(expected)}"
            )
        return entry

    def array(self, name: str) -> "memoryview | array":
        """The numeric section *name* as a zero-copy int64/float64 view
        (a byteswapped ``array`` copy on big-endian hosts)."""
        dtype, offset, length = self._section(name, ("q", "d"))
        if length % 8:
            raise StorageFormatError(
                f"{self._path}: section {name!r} length {length} not a "
                f"multiple of 8"
            )
        view = self._view[offset : offset + length]
        if _LITTLE_ENDIAN:
            return view.cast(dtype)
        values = array(dtype, bytes(view))
        values.byteswap()
        return values

    def blob(self, name: str) -> memoryview:
        """The raw-bytes section *name* as a zero-copy view."""
        _dtype, offset, length = self._section(name, ("B",))
        return self._view[offset : offset + length]

    def strings(self, name: str) -> list[str]:
        """Decode the string list packed by :func:`pack_strings`."""
        offsets = self.array(offsets_name(name))
        blob = self.blob(name)
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(blob):
            raise StorageFormatError(
                f"{self._path}: string section {name!r} offsets disagree "
                f"with its blob"
            )
        try:
            return [
                str(blob[offsets[i] : offsets[i + 1]], "utf-8")
                for i in range(len(offsets) - 1)
            ]
        except (UnicodeDecodeError, ValueError) as exc:
            raise StorageFormatError(
                f"{self._path}: string section {name!r} is not valid UTF-8"
            ) from exc

    def close(self) -> None:
        """Release the mapping. Views handed out become invalid; only
        call once nothing references them (tests, tooling)."""
        self._view.release()
        self._mmap.close()
