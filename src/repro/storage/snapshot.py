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
maps the buffers and builds each :class:`~repro.index.segments.Segment` directly
over zero-copy, read-only ``np.frombuffer`` views — no JSON parsing, no
posting objects, and N processes opening one snapshot share a single
page-cache copy. The posting-object indexes hydrate lazily, only if a
merge, a re-save or the test oracle actually needs them.

A save writes the whole new generation (each file atomically:
temp + fsync + rename), then atomically replaces ``CURRENT``, then
prunes older generations — a crash at *any* instant leaves the previous
``CURRENT`` target intact and loadable.

**Legacy monolithic generations**, written before every finder became a
segmented index, stay readable: a generation whose meta says
``index_mode: "monolithic"`` loads its ``index.bin`` as segment 0 (its
``engine.bin`` is not read); re-saving writes the segmented layout. The
flat v2 JSONL layout and candidate-sharded generations (meta
``index_mode: "sharded"``, written before shards became segments) are no
longer readable: :func:`load_finder` refuses them and asks for a rebuild
with ``repro index``.

Evidence-row and posting order are preserved, so a loaded finder
repeats the builder's float operations exactly — rankings round-trip
byte-identically. Segment containers written by earlier releases also
carry block-max sections (``blk#span`` and ``term#bid`` …) and
doc-sorted columns; the loader never reads those sections, and posting
order within a column never moves a score (a column holds each document
once). The text analyzer is *not* persisted (it is code, not state);
:func:`load_finder` takes it as an argument.

:func:`inspect_snapshot` (``repro inspect``) renders the current
generation — meta and manifest records, each container's header,
checksum and section table — as JSON, without loading a finder.
"""

from __future__ import annotations

import contextlib
import pathlib
import re
import shutil
from array import array
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.analyzer import ResourceAnalyzer
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.segments import Segment, SegmentedIndex, _WriteBuffer, evidence_csr
from repro.index.vsm import entity_weight
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
#: layout, which still reads its legacy "monolithic" index mode)
SNAPSHOT_VERSION = 3

META_KIND = "finder-snapshot-meta"
MANIFEST_KIND = "finder-segment-manifest"

# layout names come from the repro.storage.sections registry (enforced
# by the section-registry lint rule); local aliases keep call sites short
_META_FILE = layout.META_FILE
_MANIFEST_FILE = layout.MANIFEST_FILE
_CURRENT_FILE = layout.CURRENT_FILE
_INDEX_BIN = layout.INDEX_BIN
_BUFFER_BIN = layout.BUFFER_BIN

_CURRENT_MAGIC = "repro-snapshot-v3"
_GEN_PATTERN = re.compile(r"gen-(\d{7})")

#: the record kind of every jsonl file a generation may hold; every
#: other file in a generation is a section container
_RECORD_KINDS = {
    _META_FILE: META_KIND,
    _MANIFEST_FILE: MANIFEST_KIND,
}

#: index modes a meta record may name; "monolithic" is read-only legacy
_INDEX_MODES = ("monolithic", "segmented")

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


def _slice_sections(
    term_index: InvertedIndex,
    entity_index: EntityIndex,
    evidence: Mapping[str, Any],
) -> list[tuple[str, str, Any]]:
    """One collection slice (one segment or the buffer) as
    binary sections: string tables + element-offset CSR
    columns, preserving postings and evidence-row order exactly.

    Entities carry both the raw ``d_score`` (``ent#ds``, for hydrating
    posting objects) and the folded ``we = 1 + d_score`` (``ent#we``, the
    ready-to-map query column) — ``d_score`` is not exactly recoverable
    from ``we`` in floating point, so both are stored.
    """
    docs = sorted(term_index.doc_ids())
    doc_of = {doc_id: i for i, doc_id in enumerate(docs)}
    sections: list[tuple[str, str, Any]] = [*pack_strings("docs", docs)]

    terms: list[str] = []
    toff = array("l", [0])
    tdoc = array("l")
    ttf = array("l")
    for term, postings in term_index.items():
        terms.append(term)
        for p in postings:
            tdoc.append(doc_of[p.doc_id])
            ttf.append(p.term_frequency)
        toff.append(len(tdoc))
    sections += pack_strings(layout.TERMS, terms)
    sections += [(layout.TERM_OFF, "q", toff), (layout.TERM_DOC, "q", tdoc),
                 (layout.TERM_TF, "q", ttf)]

    entities: list[str] = []
    eoff = array("l", [0])
    edoc = array("l")
    eef = array("l")
    ewe = array("d")
    eds = array("d")
    for uri, postings in entity_index.items():
        entities.append(uri)
        for p in postings:
            edoc.append(doc_of[p.doc_id])
            eef.append(p.entity_frequency)
            ewe.append(entity_weight(p.d_score))
            eds.append(p.d_score)
        eoff.append(len(edoc))
    sections += pack_strings(layout.ENTITIES, entities)
    sections += [(layout.ENT_OFF, "q", eoff), (layout.ENT_DOC, "q", edoc),
                 (layout.ENT_EF, "q", eef), (layout.ENT_WE, "d", ewe),
                 (layout.ENT_DS, "d", eds)]
    sections += _evidence_sections(evidence)
    return sections


def _evidence_sections(evidence: Mapping[str, Any]) -> list[tuple[str, str, Any]]:
    """The resource → supporters relation as binary sections (string
    tables + an element-offset CSR, :func:`evidence_csr`), preserving row
    order exactly — part of every slice container."""
    cands, voff, vcand, vdist = evidence_csr(evidence)
    sections = [*pack_strings(layout.RESOURCES, evidence)]
    sections += pack_strings(layout.CANDS, cands)
    sections += [(layout.EV_OFF, "q", voff), (layout.EV_CAND, "q", vcand),
                 (layout.EV_DIST, "q", vdist)]
    return sections


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
            gen_dir / _segment_bin(segment.segment_id),
            _slice_sections(segment.term_index, segment.entity_index, segment.evidence),
        )
    if buffer.resource_count:
        write_sections(
            gen_dir / _BUFFER_BIN,
            _slice_sections(buffer.term_index, buffer.entity_index, buffer.evidence),
        )
    write_records(
        gen_dir / _MANIFEST_FILE,
        MANIFEST_KIND,
        _manifest_records(segmented, segments, buffer),
    )


# -- reader ----------------------------------------------------------------------


def _read_current(directory: pathlib.Path) -> pathlib.Path:
    """The generation directory ``CURRENT`` names. A flat v2 directory
    (a ``meta.jsonl`` but no ``CURRENT``) is refused with a pointer to
    the rebuild; a missing directory raises ``FileNotFoundError``."""
    path = directory / _CURRENT_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        if (directory / _META_FILE).is_file():
            raise StorageFormatError(
                f"{directory}: a flat v2 snapshot, which is no longer "
                f"readable; rebuild it with `repro index`"
            ) from None
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


def _load_meta(
    path: pathlib.Path,
) -> tuple[FinderConfig, int, dict[str, int], str]:
    version: int | None = None
    index_mode: str | None = None
    config: FinderConfig | None = None
    indexed: int | None = None
    evidence_counts: dict[str, int] = {}
    for record in read_records(path, META_KIND):
        rtype = record.get("type")
        if rtype == "snapshot":
            version = record.get("snapshot_version")
            if version != SNAPSHOT_VERSION:
                raise StorageFormatError(
                    f"{path}: unsupported snapshot version {version!r} "
                    f"(expected {SNAPSHOT_VERSION})"
                )
            index_mode = record.get("index_mode", "monolithic")
            if index_mode == "sharded":
                raise StorageFormatError(
                    f"{path.parent}: a candidate-sharded generation, which "
                    f"is no longer readable; rebuild it with `repro index`"
                )
            if index_mode not in _INDEX_MODES:
                raise StorageFormatError(
                    f"{path}: unknown index mode {index_mode!r}"
                )
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
    if version is None or index_mode is None or config is None or indexed is None:
        raise StorageFormatError(f"{path}: incomplete snapshot metadata")
    return config, indexed, evidence_counts, index_mode


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


def _collect_evidence(
    segmented: SegmentedIndex,
) -> dict[str, Sequence[tuple[str, int]]]:
    """The finder's resource → supporters relation: every source's rows
    (shared, immutable tuples) in segment order, then the buffer's."""
    evidence_of: dict[str, Sequence[tuple[str, int]]] = {}
    for segment in segmented.iter_segments():
        evidence_of.update(segment.evidence)
    evidence_of.update(segmented.write_buffer.evidence)
    return evidence_of


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


def _col_dict(
    keys: Sequence[str], off: Any, views: Sequence[Any], dtypes: Sequence[type]
) -> dict[str, tuple]:
    """Per-key query columns: each CSR column as a zero-copy numpy view
    over the mapping (read-only, as the mapping is), sliced per key."""
    arrays = [np.frombuffer(view, dtype=dtype) for view, dtype in zip(views, dtypes)]
    bounds = off.tolist()
    return {
        key: tuple(column[bounds[i] : bounds[i + 1]] for column in arrays)
        for i, key in enumerate(keys)
    }


def _decode_evidence(
    mapped: MappedSections,
) -> tuple[dict[str, tuple[tuple[str, int], ...]], tuple[list[str], Any, Any, Any]]:
    """The resource → supporters relation, plus the evidence CSR it came
    from as ``(candidates, off, cand, dist)``: the sorted candidate
    table and the mapped columns."""
    resources = mapped.strings("resources")
    cands = mapped.strings("cands")
    off, (vcand, vdist) = _csr(mapped, "ev", len(resources), ("cand", "dist"))
    # one pass over the whole CSR, then per-resource slices of it
    rows = list(zip([cands[c] for c in vcand.tolist()], vdist.tolist()))
    bounds = off.tolist()
    evidence = {
        doc_id: tuple(rows[bounds[i] : bounds[i + 1]])
        for i, doc_id in enumerate(resources)
    }
    return evidence, (cands, off, vcand, vdist)


def _slice_hydrator(
    mapped: MappedSections, docs: list[str]
) -> Callable[[], tuple[InvertedIndex, EntityIndex]]:
    """A closure rebuilding the posting-object indexes of one mapped
    slice — run at most once, only when merges/re-saves need objects."""

    def hydrate() -> tuple[InvertedIndex, EntityIndex]:
        terms = mapped.strings("terms")
        toff, (tdoc, ttf) = _csr(mapped, "term", len(terms), ("doc", "tf"))
        term_postings = {
            term: [
                Posting(docs[tdoc[j]], ttf[j])
                for j in range(toff[i], toff[i + 1])
            ]
            for i, term in enumerate(terms)
        }
        entities = mapped.strings("entities")
        eoff, (edoc, eef, eds) = _csr(mapped, "ent", len(entities), ("doc", "ef", "ds"))
        entity_postings = {
            uri: [
                EntityPosting(docs[edoc[j]], eef[j], eds[j])
                for j in range(eoff[i], eoff[i + 1])
            ]
            for i, uri in enumerate(entities)
        }
        return (
            InvertedIndex.restore(docs, term_postings),
            EntityIndex.restore(docs, entity_postings),
        )

    return hydrate


def _load_v3_segment(
    path: pathlib.Path,
    segment_id: int,
    entry: dict[str, Any],
    source: str = "manifest",
) -> Segment:
    """Map one section container as a compiled :class:`Segment`,
    cross-checking its document count (and its resource count, when
    *entry* records one) against what *source* says."""
    mapped = MappedSections.open(path)
    docs = mapped.strings("docs")
    if len(docs) != entry["docs"]:
        raise StorageFormatError(
            f"{path}: segment holds {len(docs)} document(s), "
            f"{source} says {entry['docs']}"
        )
    terms = mapped.strings("terms")
    toff, term_views = _csr(mapped, "term", len(terms), ("doc", "tf"))
    entities = mapped.strings("entities")
    eoff, entity_views = _csr(mapped, "ent", len(entities), ("doc", "ef", "we", "ds"))
    evidence, (cands, *evidence_views) = _decode_evidence(mapped)
    resources = len(frozenset(evidence) | frozenset(docs))
    if "resources" in entry and resources != entry["resources"]:
        raise StorageFormatError(
            f"{path}: segment holds {resources} resource(s), "
            f"{source} says {entry['resources']}"
        )
    return Segment.from_columns(
        segment_id,
        docs,
        _col_dict(terms, toff, term_views, (np.int64, np.int64)),
        # the query columns are (doc, ef, we); ds is hydration-only
        _col_dict(entities, eoff, entity_views[:3], (np.int64, np.int64, np.float64)),
        evidence,
        (cands, *(np.frombuffer(view, dtype=np.int64) for view in evidence_views)),
        _slice_hydrator(mapped, docs),
    )


def _load_v3_buffer(
    path: pathlib.Path, entry: dict[str, Any]
) -> tuple[InvertedIndex, EntityIndex, dict[str, tuple[tuple[str, int], ...]]]:
    """The unsealed buffer's ``(term_index, entity_index, evidence)``,
    as :meth:`SegmentedIndex.restore_compiled` takes it. It rehydrates
    eagerly — it is small by construction (below the seal threshold) and
    mutable on the very next observe, so mapping it lazily buys nothing."""
    mapped = MappedSections.open(path)
    docs = mapped.strings("docs")
    if len(docs) != entry["docs"]:
        raise StorageFormatError(
            f"{path}: buffer holds {len(docs)} document(s), "
            f"manifest says {entry['docs']}"
        )
    term_index, entity_index = _slice_hydrator(mapped, docs)()
    evidence = _decode_evidence(mapped)[0]
    resources = len(frozenset(evidence) | frozenset(docs))
    if resources != entry["resources"]:
        raise StorageFormatError(
            f"{path}: buffer holds {resources} resource(s), "
            f"manifest says {entry['resources']}"
        )
    mapped.close()
    return term_index, entity_index, evidence


def _load_v3_segmented(
    gen_dir: pathlib.Path,
    analyzer: ResourceAnalyzer,
    config: FinderConfig,
    indexed: int,
    evidence_counts: dict[str, int],
) -> ExpertFinder:
    header, entries, buffer_entry = _read_manifest(gen_dir / _MANIFEST_FILE)
    segments = [
        _load_v3_segment(gen_dir / entry["file"], entry["id"], entry)
        for entry in entries
    ]
    buffer = None
    if buffer_entry is not None:
        buffer = _load_v3_buffer(gen_dir / buffer_entry["file"], buffer_entry)
    segmented = SegmentedIndex.restore_compiled(
        config,
        segments,
        buffer,
        seal_threshold=header["seal_threshold"],
        fanout=header.get("fanout", 4),
    )
    return _segmented_finder(
        gen_dir, analyzer, config, indexed, evidence_counts, segmented
    )


def _load_v3_legacy_monolithic(
    gen_dir: pathlib.Path,
    analyzer: ResourceAnalyzer,
    config: FinderConfig,
    indexed: int,
    evidence_counts: dict[str, int],
) -> ExpertFinder:
    """A pre-segments monolithic generation: ``index.bin`` is a
    collection slice in postings order, loaded as the one sealed segment
    (the compiled ``engine.bin`` beside it is not read)."""
    segment = _load_v3_segment(
        gen_dir / _INDEX_BIN, 0, {"docs": indexed}, source="metadata"
    )
    segmented = SegmentedIndex.restore_compiled(config, [segment], None)
    return _segmented_finder(
        gen_dir, analyzer, config, indexed, evidence_counts, segmented
    )


def _segmented_finder(
    where: pathlib.Path,
    analyzer: ResourceAnalyzer,
    config: FinderConfig,
    indexed: int,
    evidence_counts: dict[str, int],
    segmented: SegmentedIndex,
) -> ExpertFinder:
    if segmented.document_count != indexed:
        raise StorageFormatError(
            f"{where}: segments hold {segmented.document_count} "
            f"indexed document(s), metadata says {indexed}"
        )
    return ExpertFinder(
        analyzer,
        _collect_evidence(segmented),
        config,
        evidence_counts=evidence_counts,
        indexed_count=indexed,
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
        config, indexed, evidence_counts, index_mode = _load_meta(
            gen_dir / _META_FILE
        )
        if index_mode == "segmented":
            return _load_v3_segmented(
                gen_dir, analyzer, config, indexed, evidence_counts
            )
        return _load_v3_legacy_monolithic(
            gen_dir, analyzer, config, indexed, evidence_counts
        )
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
