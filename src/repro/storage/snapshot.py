"""Finder index snapshots: persist a built :class:`ExpertFinder`.

Building a finder is dominated by evidence gathering and text/entity
analysis; serving deployments want to pay that once, persist the result,
and warm-start query processes from disk (cf. production expert-mining
systems, which serve ranked top-k from precomputed per-candidate
indexes). A snapshot captures everything query evaluation needs — the
indexes, the evidence relation, and the build configuration — and
nothing generation-time.

There is one on-disk format, v3. The directory holds a ``CURRENT``
pointer file plus numbered ``gen-NNNNNNN/`` generation subdirectories;
``CURRENT`` names the one complete generation. Inside a generation,
``meta.jsonl`` keeps the config/counts records and the columnar payload
lives in mmap-able section containers (:mod:`repro.storage.binary`):
``segments.jsonl`` + ``segment-NNNN.bin`` (and ``buffer.bin``). Loading
maps the buffers and builds each :class:`~repro.index.segments.Segment`
directly over zero-copy, read-only ``np.frombuffer`` views — no JSON
parsing, no posting objects, no evidence tuples, and N processes
opening one snapshot share a single page-cache copy. Every mapped
slice's column content is checked in one vectorized pass (doc and
candidate indexes in range, offsets that never decrease, positive
frequencies, ``d_score`` in [0, 1] and ``we`` its Eq. 2 weight), so a
crafted file with a valid checksum is refused at load instead of
failing or mis-scoring a later query. The small write buffer's columns
are copied into growable ones (mapped views are read-only). A save
writes every segment's sections straight from its columns, and the
buffer's from the segment it would seal into.

A save writes the whole new generation (each file atomically:
temp + fsync + rename), then atomically replaces ``CURRENT``, then
prunes older generations — a crash at *any* instant leaves the previous
``CURRENT`` target intact and loadable.

**Legacy layouts are refused.** One check reads the layout a meta
record declares: anything but a v3 segmented generation — the flat v2
JSONL layout, monolithic v3 generations (written before every finder
became a segmented index) and candidate-sharded ones (written before
shards became segments) — raises
:class:`~repro.storage.jsonl.StorageFormatError` naming the layout and
asking for a rebuild with ``repro index``.

Evidence-row and posting order are preserved, so a loaded finder
repeats the builder's float operations exactly — rankings round-trip
byte-identically. Segment containers written by earlier releases also
carry block-max sections (``blk#span`` and ``term#bid`` …) and
doc-sorted columns, and their manifests may carry a ``shards`` key; the
loader reads neither, and posting order within a column never moves a
score (a column holds each document once). The text analyzer is *not*
persisted (it is code, not state); :func:`load_finder` takes it as an
argument.

:func:`inspect_snapshot` (``repro inspect``) renders the current
generation — meta and manifest records, each container's header,
checksum and section table — as JSON, without loading a finder.
"""

from __future__ import annotations

import contextlib
import pathlib
import re
import shutil
from collections.abc import Iterator, Mapping
from typing import Any

import numpy as np

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.analyzer import ResourceAnalyzer
from repro.index.segments import (
    EvidenceCsr,
    PostingColumns,
    Segment,
    SegmentedIndex,
    _WriteBuffer,
)
from repro.storage import sections as layout
from repro.storage.binary import MappedSections, pack_strings, write_sections
from repro.storage.jsonl import (
    StorageFormatError,
    atomic_write,
    read_records,
    write_records,
)

#: bump when the snapshot layout or record shapes change; loaders refuse
#: mismatched snapshots instead of guessing (3: the binary generation
#: layout)
SNAPSHOT_VERSION = 3

META_KIND = "finder-snapshot-meta"
MANIFEST_KIND = "finder-segment-manifest"

# layout names come from the repro.storage.sections registry (enforced
# by the section-registry lint rule); local aliases keep call sites short
_META_FILE = layout.META_FILE
_MANIFEST_FILE = layout.MANIFEST_FILE
_CURRENT_FILE = layout.CURRENT_FILE
_BUFFER_BIN = layout.BUFFER_BIN

_CURRENT_MAGIC = "repro-snapshot-v3"
_GEN_PATTERN = re.compile(r"gen-(\d{7})")

#: the record kind of every jsonl file a generation may hold; every
#: other file in a generation is a section container
_RECORD_KINDS = {
    _META_FILE: META_KIND,
    _MANIFEST_FILE: MANIFEST_KIND,
}

#: the layouts earlier releases wrote, by the ``(snapshot_version,
#: index_mode)`` of their meta record; none is readable any more
_LEGACY_LAYOUTS = {
    (2, "monolithic"): "a flat v2 snapshot",
    (2, "segmented"): "a flat v2 snapshot",
    (3, "monolithic"): "a monolithic v3 generation",
    (3, "sharded"): "a candidate-sharded v3 generation",
}

_segment_bin = layout.segment_bin


_CONFIG_FIELDS = (
    "alpha",
    "window",
    "max_distance",
    "weight_interval",
    "include_friends",
    "idf_exponent",
    "normalize",
)


# -- writer ----------------------------------------------------------------------


def save_finder(finder: ExpertFinder, directory: str | pathlib.Path) -> None:
    """Write *finder*'s snapshot under *directory* (created if missing).

    The save writes a new generation and atomically repoints ``CURRENT``
    at it, so re-saving over an existing snapshot is crash-safe: until
    the final rename the previous snapshot loads, after it the new one
    does, and the superseded generations are pruned afterwards.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    gen_name = _next_generation(directory)
    gen_dir = directory / gen_name
    gen_dir.mkdir()
    write_records(gen_dir / _META_FILE, META_KIND, _meta_records(finder))
    _save_segments(finder.segmented_index, gen_dir)
    # the generation is complete and durable; flip CURRENT, then prune
    # the generations the flip obsoleted — a crash anywhere here leaves
    # a loadable snapshot on both sides
    with atomic_write(directory / _CURRENT_FILE) as fh:
        fh.write(f"{_CURRENT_MAGIC}\n{gen_name}\n".encode("utf-8"))
    for child in directory.iterdir():
        if (
            child.name != gen_name
            and _GEN_PATTERN.fullmatch(child.name)
            and child.is_dir()
        ):
            with contextlib.suppress(OSError):
                shutil.rmtree(child)


def _meta_records(finder: ExpertFinder) -> Iterator[dict[str, Any]]:
    yield {
        "type": "snapshot",
        "snapshot_version": SNAPSHOT_VERSION,
        "index_mode": "segmented",
    }
    config = finder.config
    record: dict[str, Any] = {"type": "config"}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        record[name] = list(value) if isinstance(value, tuple) else value
    yield record
    yield {"type": "counts", "indexed": finder.indexed_resources}
    for cid in sorted(finder.evidence_counts):
        yield {
            "type": "candidate",
            "id": cid,
            "evidence": finder.evidence_counts[cid],
        }


def _manifest_records(
    segmented: SegmentedIndex,
    segments: tuple[Segment, ...],
    buffer: _WriteBuffer,
) -> Iterator[dict[str, Any]]:
    header: dict[str, Any] = {
        "type": "manifest",
        "seal_threshold": segmented.seal_threshold,
        "fanout": segmented.fanout,
        "segments": len(segments),
    }
    yield header
    for segment in segments:
        yield {
            "type": "segment",
            "id": segment.segment_id,
            "file": _segment_bin(segment.segment_id),
            "docs": segment.document_count,
            "resources": segment.resource_count,
        }
    if buffer.resource_count:
        yield {
            "type": "buffer",
            "file": _BUFFER_BIN,
            "docs": buffer.document_count,
            "resources": buffer.resource_count,
        }


def _slice_sections(segment: Segment) -> list[tuple[str, str, Any]]:
    """One collection slice (one segment or the buffer) as binary
    sections, written straight from its columns: string tables +
    element-offset CSR columns, in postings and evidence-row order.

    Entities carry both the raw ``d_score`` (``ent#ds``) and the folded
    ``we = 1 + d_score`` (``ent#we``, the ready-to-map query column) —
    ``d_score`` is not exactly recoverable from ``we`` in floating
    point, so both are stored.
    """
    terms = segment.term_columns
    tdoc, ttf = terms.columns
    entities = segment.entity_columns
    edoc, eef, ewe, eds = entities.columns
    evidence = segment.evidence_csr
    return [
        *pack_strings(layout.DOCS, segment.doc_ids),
        *pack_strings(layout.TERMS, terms.views),
        *_numeric(
            "q",
            (layout.TERM_OFF, terms.off),
            (layout.TERM_DOC, tdoc),
            (layout.TERM_TF, ttf),
        ),
        *pack_strings(layout.ENTITIES, entities.views),
        *_numeric(
            "q",
            (layout.ENT_OFF, entities.off),
            (layout.ENT_DOC, edoc),
            (layout.ENT_EF, eef),
        ),
        *_numeric("d", (layout.ENT_WE, ewe), (layout.ENT_DS, eds)),
        *pack_strings(layout.RESOURCES, evidence.resources),
        *pack_strings(layout.CANDS, evidence.candidates),
        *_numeric(
            "q",
            (layout.EV_OFF, evidence.off),
            (layout.EV_CAND, evidence.cand),
            (layout.EV_DIST, evidence.dist),
        ),
    ]


def _numeric(dtype: str, *named: tuple[str, Any]) -> list[tuple[str, str, bytes]]:
    """Numeric columns as *dtype* sections: the little-endian bytes of
    int64 (``q``) or float64 (``d``) values."""
    stored = "<i8" if dtype == "q" else "<f8"
    return [
        (name, dtype, np.asarray(column, dtype=stored).tobytes())
        for name, column in named
    ]


def _next_generation(directory: pathlib.Path) -> str:
    highest = 0
    for child in directory.iterdir():
        match = _GEN_PATTERN.fullmatch(child.name)
        if match and child.is_dir():
            highest = max(highest, int(match.group(1)))
    return f"gen-{highest + 1:07d}"


def _save_segments(segmented: SegmentedIndex, gen_dir: pathlib.Path) -> None:
    segments = segmented.iter_segments()
    buffer = segmented.write_buffer
    for segment in segments:
        write_sections(
            gen_dir / _segment_bin(segment.segment_id), _slice_sections(segment)
        )
    if buffer.resource_count:
        # the buffer keeps no segment id; its container is named for it
        write_sections(gen_dir / _BUFFER_BIN, _slice_sections(buffer.as_segment(-1)))
    write_records(
        gen_dir / _MANIFEST_FILE,
        MANIFEST_KIND,
        _manifest_records(segmented, segments, buffer),
    )


# -- reader ----------------------------------------------------------------------


def _read_meta(where: pathlib.Path, meta: pathlib.Path) -> list[dict[str, Any]]:
    """*meta*'s records, once its ``snapshot`` record declares the one
    readable layout, a v3 segmented generation. Every other layout is
    refused here: a legacy one by name, with the rebuild to run."""
    records = list(read_records(meta, META_KIND))
    record = next((r for r in records if r.get("type") == "snapshot"), None)
    if record is None:
        raise StorageFormatError(f"{meta}: incomplete snapshot metadata")
    version = record.get("snapshot_version")
    index_mode = record.get("index_mode", "monolithic")
    if (version, index_mode) == (SNAPSHOT_VERSION, "segmented"):
        return records
    legacy = _LEGACY_LAYOUTS.get((version, index_mode))
    if legacy is not None:
        raise StorageFormatError(
            f"{where}: {legacy}, which is no longer readable; "
            f"rebuild it with `repro index`"
        )
    raise StorageFormatError(
        f"{meta}: unsupported snapshot version {version!r} "
        f"with index mode {index_mode!r} (expected {SNAPSHOT_VERSION}, "
        f"'segmented')"
    )


def _read_current(directory: pathlib.Path) -> pathlib.Path:
    """The generation directory ``CURRENT`` names. A directory with a
    ``meta.jsonl`` but no ``CURRENT`` is the flat v2 layout, which
    :func:`_read_meta` refuses; a missing directory raises
    ``FileNotFoundError``."""
    path = directory / _CURRENT_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        if (directory / _META_FILE).is_file():
            _read_meta(directory, directory / _META_FILE)
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageFormatError(f"{path}: unreadable CURRENT file: {exc}") from exc
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != _CURRENT_MAGIC:
        raise StorageFormatError(f"{path}: not a {_CURRENT_MAGIC} pointer file")
    gen_name = lines[1]
    if not _GEN_PATTERN.fullmatch(gen_name):
        raise StorageFormatError(f"{path}: malformed generation name {gen_name!r}")
    gen_dir = directory / gen_name
    if not gen_dir.is_dir():
        raise StorageFormatError(
            f"{path}: CURRENT names missing generation {gen_name!r}"
        )
    return gen_dir


def _load_meta(path: pathlib.Path) -> tuple[FinderConfig, int, dict[str, int]]:
    config: FinderConfig | None = None
    indexed: int | None = None
    evidence_counts: dict[str, int] = {}
    for record in _read_meta(path.parent, path):
        rtype = record.get("type")
        if rtype == "snapshot":
            continue  # the layout, checked by _read_meta
        elif rtype == "config":
            try:
                kwargs = {name: record[name] for name in _CONFIG_FIELDS}
            except KeyError as exc:
                raise StorageFormatError(
                    f"{path}: config record missing field {exc.args[0]!r}"
                ) from exc
            kwargs["weight_interval"] = tuple(kwargs["weight_interval"])
            config = FinderConfig(**kwargs)
        elif rtype == "counts":
            indexed = record["indexed"]
        elif rtype == "candidate":
            evidence_counts[record["id"]] = record["evidence"]
        else:
            raise StorageFormatError(f"{path}: unknown meta record type {rtype!r}")
    if config is None or indexed is None:
        raise StorageFormatError(f"{path}: incomplete snapshot metadata")
    return config, indexed, evidence_counts


def _read_manifest(
    path: pathlib.Path,
) -> tuple[dict[str, Any], list[dict[str, Any]], dict[str, Any] | None]:
    """Read a segment manifest: a ``manifest`` header declaring how many
    segment entries follow, the entries, and an optional ``buffer``
    entry. Every file the manifest names must exist beside it. Headers
    written by earlier releases may also carry ``"shards": K`` (how many
    leading segments their scatter pool scored); it is ignored, so such
    a generation loads as an ordinary multi-segment index."""
    header: dict[str, Any] | None = None
    entries: list[dict[str, Any]] = []
    buffer_entry: dict[str, Any] | None = None
    for record in read_records(path, MANIFEST_KIND):
        rtype = record.get("type")
        if rtype == "manifest":
            header = record
        elif rtype == "segment":
            entries.append(record)
        elif rtype == "buffer":
            buffer_entry = record
        else:
            raise StorageFormatError(
                f"{path}: unknown manifest record type {rtype!r}"
            )
    if header is None:
        raise StorageFormatError(f"{path}: missing manifest header")
    declared = header["segments"]
    if declared != len(entries):
        raise StorageFormatError(
            f"{path}: manifest declares {declared} segment(s) but "
            f"lists {len(entries)}"
        )
    named = entries if buffer_entry is None else [*entries, buffer_entry]
    for entry in named:
        if not (path.parent / entry["file"]).is_file():
            raise StorageFormatError(
                f"{path}: manifest names missing file {entry['file']!r}"
            )
    return header, entries, buffer_entry


def _csr(
    mapped: MappedSections, prefix: str, n_keys: int, columns: tuple[str, ...]
) -> tuple[Any, list[Any]]:
    """The offsets array + parallel column views of one CSR group, with
    the length cross-checks (per-element content is covered by the
    container checksum)."""
    path = mapped.path
    off_name = layout.csr(prefix, "off")
    off = mapped.array(off_name)
    if len(off) != n_keys + 1:
        raise StorageFormatError(
            f"{path}: section {off_name} has {len(off)} offsets "
            f"for {n_keys} key(s)"
        )
    views = [mapped.array(layout.csr(prefix, column)) for column in columns]
    total = len(views[0])
    if off[0] != 0 or off[n_keys] != total:
        raise StorageFormatError(
            f"{path}: section {off_name} does not span its columns"
        )
    for column, view in zip(columns[1:], views[1:]):
        if len(view) != total:
            raise StorageFormatError(
                f"{path}: section {layout.csr(prefix, column)} "
                f"length {len(view)} != {total}"
            )
    return off, views


def _load_slice(path: pathlib.Path, segment_id: int, entry: dict[str, Any]) -> Segment:
    """Map one section container (a segment, or the buffer) as a column
    :class:`Segment`, cross-checking its document and resource counts
    against its manifest *entry* and its column content with
    :func:`_check_content`."""
    mapped = MappedSections.open(path)
    docs = mapped.strings(layout.DOCS)
    if len(docs) != entry["docs"]:
        raise StorageFormatError(
            f"{path}: holds {len(docs)} document(s), manifest says {entry['docs']}"
        )
    resources = mapped.strings(layout.RESOURCES)
    if len(resources) != entry["resources"]:
        raise StorageFormatError(
            f"{path}: holds {len(resources)} resource(s), "
            f"manifest says {entry['resources']}"
        )
    ev_off, (cand, dist) = _csr(mapped, "ev", len(resources), ("cand", "dist"))
    terms = _postings(
        mapped, layout.TERMS, "term", {"doc": np.int64, "tf": np.int64}, 2
    )
    entities = _postings(
        mapped,
        layout.ENTITIES,
        "ent",
        {"doc": np.int64, "ef": np.int64, "we": np.float64, "ds": np.float64},
        3,
    )
    evidence = EvidenceCsr(
        resources,
        mapped.strings(layout.CANDS),
        np.frombuffer(ev_off, dtype=np.int64),
        np.frombuffer(cand, dtype=np.int64),
        np.frombuffer(dist, dtype=np.int64),
    )
    _check_content(path, len(docs), terms, entities, evidence)
    return Segment(segment_id, docs, terms, entities, evidence)


def _check_content(
    path: pathlib.Path,
    n_docs: int,
    terms: PostingColumns,
    entities: PostingColumns,
    evidence: EvidenceCsr,
) -> None:
    """Refuse column content that no save writes, in one vectorized pass
    per column: the checksum vouches only for the bytes, and out-of-range
    indexes, a key naming one document twice or non-positive frequencies
    would fail or silently mis-score a later query. (Evidence distances
    are checked against the configured weight table when the slice joins
    the index.)"""
    tdoc, tf = terms.columns
    edoc, ef, we, ds = entities.columns
    checks = (
        (layout.TERM_OFF, _decreasing(terms.off), "offsets decrease"),
        (layout.ENT_OFF, _decreasing(entities.off), "offsets decrease"),
        (layout.EV_OFF, _decreasing(evidence.off), "offsets decrease"),
        (layout.TERM_DOC, _outside(tdoc, n_docs), "doc index out of range"),
        (layout.ENT_DOC, _outside(edoc, n_docs), "doc index out of range"),
        (
            layout.EV_CAND,
            _outside(evidence.cand, len(evidence.candidates)),
            "candidate index out of range",
        ),
        (layout.TERM_TF, bool((tf <= 0).any()), "term_frequency must be positive"),
        (layout.ENT_EF, bool((ef <= 0).any()), "entity_frequency must be positive"),
        (
            layout.ENT_DS,
            not bool(((ds >= 0.0) & (ds <= 1.0)).all()),
            "d_score must be in [0, 1]",
        ),
        (
            layout.ENT_WE,
            bool((we != np.where(ds > 0.0, 1.0 + ds, 0.0)).any()),
            "we must be Eq. 2 of d_score (1 + d_score where d_score > 0, else 0)",
        ),
    )
    for section, failed, problem in checks:
        if failed:
            raise StorageFormatError(f"{path}: section {section}: {problem}")
    # once offsets and doc indexes are known good: the Eq. 1 kernel's
    # fancy-indexed add counts a repeated doc index once
    for section, group in ((layout.TERM_DOC, terms), (layout.ENT_DOC, entities)):
        if _repeats(group.off, group.columns[0], n_docs):
            raise StorageFormatError(
                f"{path}: section {section}: a key names one document twice"
            )


def _decreasing(off: Any) -> bool:
    return bool((off[1:] < off[:-1]).any())


def _repeats(off: Any, docs: Any, n_docs: int) -> bool:
    """Whether any key of a CSR posting group lists one doc index twice:
    ``key · n_docs + doc`` is unique per posting unless it does."""
    owner = np.repeat(np.arange(len(off) - 1, dtype=np.int64), np.diff(off))
    keys = np.sort(owner * n_docs + docs)
    return bool((keys[1:] == keys[:-1]).any())


def _outside(indexes: Any, size: int) -> bool:
    return bool(len(indexes)) and bool(indexes.min() < 0 or indexes.max() >= size)


def _postings(
    mapped: MappedSections,
    keys_name: str,
    prefix: str,
    dtypes: Mapping[str, type],
    queried: int,
) -> PostingColumns:
    """One CSR posting group as zero-copy numpy views over the mapping
    (read-only, as the mapping is)."""
    keys = mapped.strings(keys_name)
    off, views = _csr(mapped, prefix, len(keys), tuple(dtypes))
    columns = [
        np.frombuffer(view, dtype=dtype) for view, dtype in zip(views, dtypes.values())
    ]
    return PostingColumns.of(keys, np.frombuffer(off, dtype=np.int64), columns, queried)


def _load_generation(
    gen_dir: pathlib.Path, analyzer: ResourceAnalyzer
) -> ExpertFinder:
    config, indexed, evidence_counts = _load_meta(gen_dir / _META_FILE)
    header, entries, buffer_entry = _read_manifest(gen_dir / _MANIFEST_FILE)
    segments = [
        _load_slice(gen_dir / entry["file"], entry["id"], entry) for entry in entries
    ]
    buffer = None
    if buffer_entry is not None:
        buffer = _load_slice(gen_dir / buffer_entry["file"], -1, buffer_entry)
    segmented = SegmentedIndex.restore_compiled(
        config,
        segments,
        buffer,
        seal_threshold=header["seal_threshold"],
        fanout=header.get("fanout", 4),
    )
    if segmented.document_count != indexed:
        raise StorageFormatError(
            f"{gen_dir}: segments hold {segmented.document_count} "
            f"indexed document(s), metadata says {indexed}"
        )
    return ExpertFinder(
        analyzer,
        config,
        evidence_counts=evidence_counts,
        segmented=segmented,
    )


def load_finder(
    directory: str | pathlib.Path, analyzer: ResourceAnalyzer
) -> ExpertFinder:
    """Load a finder previously written by :func:`save_finder` from the
    generation ``CURRENT`` names.

    *analyzer* must be equivalent to the one the finder was built with —
    it analyzes incoming queries (and streamed resources), and the paper
    requires need and resource analysis to be symmetric (Sec. 2.3).
    """
    directory = pathlib.Path(directory)
    gen_dir = _read_current(directory)
    try:
        return _load_generation(gen_dir, analyzer)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, StorageFormatError):
            raise
        raise StorageFormatError(f"{directory}: malformed snapshot: {exc}") from exc


def snapshot_generation(directory: str | pathlib.Path) -> str:
    """The name of the generation the snapshot's ``CURRENT`` pointer
    selects (e.g. ``"gen-0000002"``).

    The serving gateway (:mod:`repro.serve`) reports this label per
    loaded generation, so operators can tell *which* snapshot state a
    hot-reloaded process is answering from."""
    return _read_current(pathlib.Path(directory)).name


def inspect_snapshot(directory: str | pathlib.Path) -> dict[str, Any]:
    """A read-only, JSON-ready view of the ``CURRENT`` generation: every
    file in it, with the records of the meta and manifest files and the
    header, stored checksum and section table of each section container.

    Containers are opened through :meth:`MappedSections.open`, so a
    truncated or bit-flipped file raises :class:`StorageFormatError`
    naming it; nothing is loaded into a finder and nothing is written.
    """
    directory = pathlib.Path(directory)
    gen_dir = _read_current(directory)
    files: dict[str, Any] = {}
    for path in sorted(gen_dir.iterdir()):
        kind = _RECORD_KINDS.get(path.name)
        if kind is not None:
            files[path.name] = {"records": list(read_records(path, kind))}
            continue
        mapped = MappedSections.open(path)
        try:
            files[path.name] = mapped.describe()
        finally:
            mapped.close()
    return {
        "snapshot": str(directory),
        "generation": gen_dir.name,
        "files": files,
    }
