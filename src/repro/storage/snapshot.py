"""Finder index snapshots: persist a built :class:`ExpertFinder`.

Building a finder is dominated by evidence gathering and text/entity
analysis; serving deployments want to pay that once, persist the result,
and warm-start query processes from disk (cf. production expert-mining
systems, which serve ranked top-k from precomputed per-candidate
indexes). A snapshot captures everything query evaluation needs — the
indexes, the evidence relation, and the build configuration — and
nothing generation-time.

Every save writes the segmented layout: a segment manifest plus one
container per sealed segment and, when non-empty, one for the write
buffer (a sharded finder writes one container per shard instead). Two
formats share one directory convention and one loader:

**v3 (binary, the default)** — the serving format. The directory holds a
``CURRENT`` pointer file plus numbered ``gen-NNNNNNN/`` generation
subdirectories; ``CURRENT`` names the one complete generation. Inside a
generation, ``meta.jsonl`` keeps the config/counts records and the
columnar payload lives in mmap-able section containers
(:mod:`repro.storage.binary`): ``segments.jsonl`` + ``segment-NNNN.bin``
(and ``buffer.bin``), or ``shards.jsonl`` + ``shard-NNNN.bin`` +
``stats.bin`` + ``evidence.bin``. Loading maps the buffers and builds
each :class:`~repro.index.segments.Segment` directly over zero-copy
``memoryview`` casts — no JSON parsing, no posting objects, and N
processes opening one snapshot share a single page-cache copy. The
posting-object indexes hydrate lazily, only if a merge, re-save, or
object-path query actually needs them.

A save writes the whole new generation (each file atomically:
temp + fsync + rename), then atomically replaces ``CURRENT``, then
prunes older generations — a crash at *any* instant leaves the previous
``CURRENT`` target intact and loadable.

**jsonl (v2, the debug/interchange format)** — flat line-oriented files
(``meta.jsonl``, ``segments.jsonl``, ``segment-NNNN.jsonl.gz``, …),
human-inspectable and diff-able; write it with
``save_finder(..., snapshot_format="jsonl")``. Each file is written
atomically, but the *set* of files is not staged as one unit — v3 is the
crash-safe format.

**Legacy monolithic snapshots**, written before every finder became a
segmented index, stay readable: a v3 generation whose meta says
``index_mode: "monolithic"`` loads its ``index.bin`` as segment 0 (its
``engine.bin`` is not read), and a flat v2 ``term_index`` /
``entity_index`` / ``evidence`` directory loads as one segment.
Re-saving either writes the segmented layout.

Evidence-row order is preserved by both formats, so a loaded finder
repeats the builder's float operations exactly — rankings round-trip
byte-identically on every path. Posting order is preserved too, with
one deliberate exception: v3 writes sealed-segment and shard columns
sorted by doc index, alongside the block-max metadata that order makes
possible (``blk#span`` + flattened per-column block sections), so pruned
evaluation works straight off the mmap. Re-sorting a column never moves
a ranking (see :mod:`repro.index.blockmax`), and containers written
without the block sections still load — their columns are re-sorted and
their blocks recomputed lazily on first pruned use. The text analyzer
is *not* persisted (it is code, not state); :func:`load_finder` takes it
as an argument.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pathlib
import re
import shutil
import tempfile
from array import array
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.analyzer import ResourceAnalyzer
from repro.index.blockmax import compute_blocks
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.segments import Segment, SegmentedIndex, _WriteBuffer
from repro.index.sharded import (
    GlobalStatistics,
    ShardedIndex,
    ShardIndex,
    partition_candidates,
)
from repro.index.vsm import entity_weight
from repro.storage import sections as layout
from repro.storage.binary import (
    MappedSections,
    _fsync_directory,
    pack_strings,
    write_sections,
)
from repro.storage.jsonl import StorageFormatError, read_records, write_records

#: bump when the snapshot layout or record shapes change; loaders refuse
#: mismatched snapshots instead of guessing
#: (2: ``index_mode`` + the segmented manifest layout; 3: the binary
#: generation layout — the v2 flat-jsonl layout stays loadable and
#: writable via ``snapshot_format="jsonl"``; both versions still read
#: their legacy "monolithic" layout)
SNAPSHOT_VERSION = 3

#: the version written by (and required in) flat jsonl snapshots
JSONL_SNAPSHOT_VERSION = 2

#: accepted ``snapshot_format`` arguments
SNAPSHOT_FORMATS = ("v3", "jsonl")

META_KIND = "finder-snapshot-meta"
TERM_INDEX_KIND = "finder-term-index"
ENTITY_INDEX_KIND = "finder-entity-index"
EVIDENCE_KIND = "finder-evidence"
MANIFEST_KIND = "finder-segment-manifest"
SEGMENT_KIND = "finder-segment"
SHARD_MANIFEST_KIND = "finder-shard-manifest"

# layout names come from the repro.storage.sections registry (enforced
# by the section-registry lint rule); local aliases keep call sites short
_META_FILE = layout.META_FILE
_TERM_FILE = layout.TERM_FILE
_ENTITY_FILE = layout.ENTITY_FILE
_EVIDENCE_FILE = layout.EVIDENCE_FILE
_MANIFEST_FILE = layout.MANIFEST_FILE
_BUFFER_FILE = layout.BUFFER_FILE

_CURRENT_FILE = layout.CURRENT_FILE
_CURRENT_MAGIC = "repro-snapshot-v3"
_GEN_PATTERN = re.compile(r"gen-(\d{7})")
_INDEX_BIN = layout.INDEX_BIN
_BUFFER_BIN = layout.BUFFER_BIN
_STATS_BIN = layout.STATS_BIN
_EVIDENCE_BIN = layout.EVIDENCE_BIN
_SHARD_MANIFEST_FILE = layout.SHARD_MANIFEST_FILE

#: index modes a meta record may name; "monolithic" is read-only legacy
_INDEX_MODES = ("monolithic", "segmented", "sharded")

_segment_file = layout.segment_file
_segment_bin = layout.segment_bin
_shard_bin = layout.shard_bin


_CONFIG_FIELDS = (
    "alpha",
    "window",
    "max_distance",
    "weight_interval",
    "include_friends",
    "idf_exponent",
    "normalize",
)

#: flat-layout file names a save may prune when they no longer belong to
#: the snapshot (stale segments after compaction, a drained buffer, or
#: the other format's files after a format switch); only names matching
#: these shapes are ever deleted
_FLAT_V2_NAMES = (_META_FILE, _TERM_FILE, _ENTITY_FILE, _EVIDENCE_FILE,
                  _MANIFEST_FILE, _BUFFER_FILE)
_FLAT_V2_SEGMENT_PATTERN = re.compile(r"segment-\d{4}\.jsonl\.gz")


def save_finder(
    finder: ExpertFinder,
    directory: str | pathlib.Path,
    *,
    snapshot_format: str = "v3",
) -> None:
    """Write *finder*'s snapshot under *directory* (created if missing).

    The default ``"v3"`` format writes a new binary generation and
    atomically repoints ``CURRENT`` at it — re-saving over an existing
    snapshot (either format) is crash-safe: until the final rename the
    previous snapshot loads, after it the new one does, and stale files
    from the previous save are pruned afterwards. ``"jsonl"`` writes the
    flat v2 interchange layout (each file atomic, the file set not).
    """
    if snapshot_format not in SNAPSHOT_FORMATS:
        raise ValueError(
            f"snapshot_format must be one of {SNAPSHOT_FORMATS}, "
            f"got {snapshot_format!r}"
        )
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if snapshot_format == "jsonl":
        _save_jsonl(finder, directory)
    else:
        _save_v3(finder, directory)


def _meta_records(finder: ExpertFinder, version: int) -> Iterator[dict[str, Any]]:
    snapshot_record: dict[str, Any] = {
        "type": "snapshot",
        "snapshot_version": version,
        "index_mode": finder.index_mode,
    }
    if finder.index_mode == "sharded":
        # the candidate partition is recomputed from the sorted candidate
        # records at load time; only the shard count needs persisting
        snapshot_record["shards"] = finder.sharded_index.shard_count
    yield snapshot_record
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


# -- jsonl (v2) writer -------------------------------------------------------------


def _save_jsonl(finder: ExpertFinder, directory: pathlib.Path) -> None:
    segmented = finder.segmented_index
    if segmented is None:
        raise ValueError(
            "sharded finders snapshot only in the v3 binary format (the "
            "scatter-pool workers mmap its per-shard section files); "
            "drop snapshot_format='jsonl' or rebuild without shards"
        )
    keep = {_META_FILE} | _save_segmented(segmented, directory)
    # data files first, meta last: a fresh snapshot torn mid-save lacks
    # its meta file and is rejected cleanly at load
    write_records(
        directory / _META_FILE,
        META_KIND,
        _meta_records(finder, JSONL_SNAPSHOT_VERSION),
    )
    _prune_snapshot_files(directory, keep)


def _slice_records(
    term_index: InvertedIndex,
    entity_index: EntityIndex,
    evidence: Any,
) -> Iterator[dict[str, Any]]:
    """One segment's (or the buffer's) records: docs, postings,
    evidence."""
    yield {"type": "docs", "ids": sorted(term_index.doc_ids())}
    for term, postings in term_index.items():
        yield {
            "type": "term",
            "t": term,
            "p": [[p.doc_id, p.term_frequency] for p in postings],
        }
    for uri, postings in entity_index.items():
        yield {
            "type": "entity",
            "e": uri,
            "p": [[p.doc_id, p.entity_frequency, p.d_score] for p in postings],
        }
    for doc_id, supporters in evidence.items():
        yield {
            "type": "evidence",
            "doc": doc_id,
            "s": [[cid, distance] for cid, distance in supporters],
        }


def _manifest_records(
    segmented: SegmentedIndex,
    segments: tuple[Segment, ...],
    buffer: _WriteBuffer,
    segment_name: Callable[[int], str],
    buffer_name: str,
) -> Iterator[dict[str, Any]]:
    yield {
        "type": "manifest",
        "seal_threshold": segmented.seal_threshold,
        "fanout": segmented.fanout,
        "segments": len(segments),
    }
    for segment in segments:
        yield {
            "type": "segment",
            "id": segment.segment_id,
            "file": segment_name(segment.segment_id),
            "docs": segment.document_count,
            "resources": segment.resource_count,
        }
    if buffer.resource_count:
        yield {
            "type": "buffer",
            "file": buffer_name,
            "docs": buffer.document_count,
            "resources": buffer.resource_count,
        }


def _save_segmented(segmented: SegmentedIndex, directory: pathlib.Path) -> set[str]:
    segments = segmented.iter_segments()
    buffer = segmented.write_buffer
    keep = {_MANIFEST_FILE}
    for segment in segments:
        name = _segment_file(segment.segment_id)
        write_records(
            directory / name,
            SEGMENT_KIND,
            _slice_records(segment.term_index, segment.entity_index, segment.evidence),
        )
        keep.add(name)
    if buffer.resource_count:
        write_records(
            directory / _BUFFER_FILE,
            SEGMENT_KIND,
            _slice_records(buffer.term_index, buffer.entity_index, buffer.evidence),
        )
        keep.add(_BUFFER_FILE)
    write_records(
        directory / _MANIFEST_FILE,
        MANIFEST_KIND,
        _manifest_records(segmented, segments, buffer, _segment_file, _BUFFER_FILE),
    )
    return keep


def _prune_snapshot_files(directory: pathlib.Path, keep: set[str]) -> None:
    """Remove snapshot files a previous save left behind — only names the
    format owns (recognized v2 shapes, binary generations, ``CURRENT``);
    anything else in the directory is not ours to delete."""
    for child in directory.iterdir():
        name = child.name
        if name in keep:
            continue
        if child.is_dir():
            if _GEN_PATTERN.fullmatch(name):
                with contextlib.suppress(OSError):
                    shutil.rmtree(child)
            continue
        if (
            name in _FLAT_V2_NAMES
            or _FLAT_V2_SEGMENT_PATTERN.fullmatch(name)
            or name == _CURRENT_FILE
        ):
            with contextlib.suppress(OSError):
                child.unlink()


# -- binary (v3) writer ------------------------------------------------------------


def _block_sections(
    prefix: str, blocks: list[tuple], bmax_dtype: str
) -> list[tuple[str, str, Any]]:
    """Flatten per-column ``(bids, boff, bmax)`` block metadata (one
    entry per column, in key order) into four ragged sections.

    ``{prefix}#blkoff`` delimits each column's run in the concatenated
    ``{prefix}#bid``/``{prefix}#bmax`` arrays; the per-column posting
    offsets (each ``len(bids) + 1`` long) are concatenated into
    ``{prefix}#boff``, so column ``c``'s offsets live at
    ``boff[blkoff[c] + c : blkoff[c + 1] + c + 1]``.
    """
    blkoff = array("l", [0])
    bid = array("l")
    bmax = array("l" if bmax_dtype == "q" else "d")
    boff = array("l")
    for bids, offs, maxima in blocks:
        bid.extend(bids)
        bmax.extend(maxima)
        boff.extend(offs)
        blkoff.append(len(bid))
    return [(layout.block_name(prefix, "bid"), "q", bid),
            (layout.block_name(prefix, "bmax"), bmax_dtype, bmax),
            (layout.block_name(prefix, "blkoff"), "q", blkoff),
            (layout.block_name(prefix, "boff"), "q", boff)]


def _slice_sections(
    term_index: InvertedIndex,
    entity_index: EntityIndex,
    evidence: Mapping[str, Any],
    *,
    block_span: int | None = None,
) -> list[tuple[str, str, Any]]:
    """One collection slice (one segment, one shard, or the buffer) as
    binary sections: string tables + element-offset CSR
    columns, preserving postings and evidence-row order exactly — unless
    *block_span* is given (sealed segments), in which case each posting
    column is stored sorted by doc index with block-max sections
    alongside, ready for pruned evaluation straight off the mmap.
    Re-sorting is invisible in the rankings (each document appears at
    most once per column — see :mod:`repro.index.blockmax`).

    Entities carry both the raw ``d_score`` (``ent#ds``, for hydrating
    posting objects) and the folded ``we = 1 + d_score`` (``ent#we``, the
    ready-to-map query column) — ``d_score`` is not exactly recoverable
    from ``we`` in floating point, so both are stored. Entity block
    maxima bound the raw ``ef·we`` product, the same values a
    :class:`~repro.index.segments.Segment` computes for itself.
    """
    docs = sorted(term_index.doc_ids())
    doc_of = {doc_id: i for i, doc_id in enumerate(docs)}
    sections: list[tuple[str, str, Any]] = [*pack_strings("docs", docs)]

    terms: list[str] = []
    term_blocks: list[tuple] = []
    toff = array("l", [0])
    tdoc = array("l")
    ttf = array("l")
    for term, postings in term_index.items():
        terms.append(term)
        rows = [(doc_of[p.doc_id], p.term_frequency) for p in postings]
        if block_span is not None:
            rows.sort()
            term_blocks.append(
                compute_blocks([d for d, _ in rows], [f for _, f in rows],
                               block_span)
            )
        for d, tf in rows:
            tdoc.append(d)
            ttf.append(tf)
        toff.append(len(tdoc))
    sections += pack_strings(layout.TERMS, terms)
    sections += [(layout.TERM_OFF, "q", toff), (layout.TERM_DOC, "q", tdoc),
                 (layout.TERM_TF, "q", ttf)]

    entities: list[str] = []
    entity_blocks: list[tuple] = []
    eoff = array("l", [0])
    edoc = array("l")
    eef = array("l")
    ewe = array("d")
    eds = array("d")
    for uri, postings in entity_index.items():
        entities.append(uri)
        rows = [
            (doc_of[p.doc_id], p.entity_frequency,
             entity_weight(p.d_score), p.d_score)
            for p in postings
        ]
        if block_span is not None:
            rows.sort(key=lambda r: r[0])
            entity_blocks.append(
                compute_blocks([d for d, _, _, _ in rows],
                               [f * w for _, f, w, _ in rows], block_span)
            )
        for d, ef, we, ds in rows:
            edoc.append(d)
            eef.append(ef)
            ewe.append(we)
            eds.append(ds)
        eoff.append(len(edoc))
    sections += pack_strings(layout.ENTITIES, entities)
    sections += [(layout.ENT_OFF, "q", eoff), (layout.ENT_DOC, "q", edoc),
                 (layout.ENT_EF, "q", eef), (layout.ENT_WE, "d", ewe),
                 (layout.ENT_DS, "d", eds)]
    if block_span is not None:
        sections += [(layout.BLOCK_SPAN, "q", array("l", [block_span]))]
        sections += _block_sections("term", term_blocks, "q")
        sections += _block_sections("ent", entity_blocks, "d")

    sections += _evidence_sections(evidence)
    return sections


def _evidence_sections(evidence: Mapping[str, Any]) -> list[tuple[str, str, Any]]:
    """The resource → supporters relation as binary sections (string
    tables + an element-offset CSR), preserving row order exactly. Part
    of every slice container, and a standalone ``evidence.bin`` for
    sharded snapshots (whose coordinator folds from the full rows while
    each shard container carries only its restricted rows)."""
    resources = list(evidence)
    cands = sorted({cid for rows in evidence.values() for cid, _ in rows})
    cand_of = {cid: i for i, cid in enumerate(cands)}
    voff = array("l", [0])
    vcand = array("l")
    vdist = array("l")
    for doc_id in resources:
        for cid, distance in evidence[doc_id]:
            vcand.append(cand_of[cid])
            vdist.append(distance)
        voff.append(len(vcand))
    sections = [*pack_strings(layout.RESOURCES, resources)]
    sections += pack_strings(layout.CANDS, cands)
    sections += [(layout.EV_OFF, "q", voff), (layout.EV_CAND, "q", vcand),
                 (layout.EV_DIST, "q", vdist)]
    return sections


def _stats_sections(statistics: GlobalStatistics) -> list[tuple[str, str, Any]]:
    """The union collection statistics every shard scores with: N plus
    the term/entity document-frequency tables, in table order."""
    terms: list[str] = []
    term_df = array("l")
    for term, df in statistics.term_df_items():
        terms.append(term)
        term_df.append(df)
    entities: list[str] = []
    entity_df = array("l")
    for uri, df in statistics.entity_df_items():
        entities.append(uri)
        entity_df.append(df)
    sections: list[tuple[str, str, Any]] = [
        (layout.STAT_N, "q", array("l", [statistics.doc_count]))
    ]
    sections += pack_strings(layout.TERMS, terms)
    sections += [(layout.TERM_DF, "q", term_df)]
    sections += pack_strings(layout.ENTITIES, entities)
    sections += [(layout.ENT_DF, "q", entity_df)]
    return sections


def _shard_manifest_records(sharded: ShardedIndex) -> Iterator[dict[str, Any]]:
    shards = sharded.iter_shards()
    first = shards[0]
    yield {
        "type": "manifest",
        "shards": len(shards),
        "seal_threshold": first.seal_threshold,
        "fanout": first.fanout,
        "block_span": first.block_span,
    }
    for k, shard in enumerate(shards):
        yield {
            "type": "shard",
            "shard": k,
            "file": _shard_bin(k),
            "docs": shard.document_count,
            "resources": shard.resource_count,
        }


def _next_generation(directory: pathlib.Path) -> str:
    highest = 0
    for child in directory.iterdir():
        match = _GEN_PATTERN.fullmatch(child.name)
        if match and child.is_dir():
            highest = max(highest, int(match.group(1)))
    return f"gen-{highest + 1:07d}"


def _write_current(directory: pathlib.Path, gen_name: str) -> None:
    data = f"{_CURRENT_MAGIC}\n{gen_name}\n".encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{_CURRENT_FILE}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, directory / _CURRENT_FILE)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    _fsync_directory(directory)


def _save_v3(finder: ExpertFinder, directory: pathlib.Path) -> None:
    gen_name = _next_generation(directory)
    gen_dir = directory / gen_name
    gen_dir.mkdir()
    write_records(
        gen_dir / _META_FILE, META_KIND, _meta_records(finder, SNAPSHOT_VERSION)
    )
    segmented = finder.segmented_index
    sharded = finder.sharded_index
    if segmented is not None:
        segments = segmented.iter_segments()
        buffer = segmented.write_buffer
        # sealed segments get doc-sorted columns + block-max sections so
        # a loaded finder prunes straight off the mmap; the buffer stays
        # in postings order (it is hydrated into mutable indexes anyway)
        for segment in segments:
            write_sections(
                gen_dir / _segment_bin(segment.segment_id),
                _slice_sections(
                    segment.term_index, segment.entity_index, segment.evidence,
                    block_span=segment.block_span,
                ),
            )
        if buffer.resource_count:
            write_sections(
                gen_dir / _BUFFER_BIN,
                _slice_sections(
                    buffer.term_index, buffer.entity_index, buffer.evidence
                ),
            )
        write_records(
            gen_dir / _MANIFEST_FILE,
            MANIFEST_KIND,
            _manifest_records(segmented, segments, buffer, _segment_bin, _BUFFER_BIN),
        )
    elif sharded is not None:
        write_sections(gen_dir / _STATS_BIN, _stats_sections(sharded.statistics))
        # the coordinator's full evidence rows (each shard container only
        # carries the rows restricted to its own candidates)
        write_sections(
            gen_dir / _EVIDENCE_BIN, _evidence_sections(finder.evidence_of)
        )
        # one section container per shard: its merged collection slice,
        # doc-sorted with block-max metadata, so every scatter worker
        # mmaps exactly one file
        for k, shard in enumerate(sharded.iter_shards()):
            term_index, entity_index, evidence = shard.merged_slice()
            write_sections(
                gen_dir / _shard_bin(k),
                _slice_sections(
                    term_index, entity_index, evidence,
                    block_span=shard.block_span,
                ),
            )
        write_records(
            gen_dir / _SHARD_MANIFEST_FILE,
            SHARD_MANIFEST_KIND,
            _shard_manifest_records(sharded),
        )
    # the generation is complete and durable; flip CURRENT, then prune
    # what the flip obsoleted (older generations, flat v2 files) — a
    # crash anywhere here leaves a loadable snapshot on both sides
    _write_current(directory, gen_name)
    _prune_snapshot_files(directory, {_CURRENT_FILE, gen_name})


# -- jsonl (v2) reader -------------------------------------------------------------


def _load_meta(
    path: pathlib.Path, expected_version: int
) -> tuple[FinderConfig, int, dict[str, int], str, int | None]:
    version: int | None = None
    index_mode: str | None = None
    shards: int | None = None
    config: FinderConfig | None = None
    indexed: int | None = None
    evidence_counts: dict[str, int] = {}
    for record in read_records(path, META_KIND):
        rtype = record.get("type")
        if rtype == "snapshot":
            version = record.get("snapshot_version")
            if version != expected_version:
                raise StorageFormatError(
                    f"{path}: unsupported snapshot version {version!r} "
                    f"(expected {expected_version})"
                )
            index_mode = record.get("index_mode", "monolithic")
            # "sharded" exists only in the v3 generation layout; a v2
            # flat-jsonl meta claiming it is as unknown as any typo
            modes = (
                _INDEX_MODES
                if expected_version == SNAPSHOT_VERSION
                else _INDEX_MODES[:2]
            )
            if index_mode not in modes:
                raise StorageFormatError(
                    f"{path}: unknown index mode {index_mode!r}"
                )
            shards = record.get("shards")
            if index_mode == "sharded" and (
                type(shards) is not int or shards < 1
            ):
                raise StorageFormatError(
                    f"{path}: sharded snapshot with invalid shard "
                    f"count {shards!r}"
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
    return config, indexed, evidence_counts, index_mode, shards


def _load_term_index(path: pathlib.Path) -> InvertedIndex:
    doc_ids: list[str] | None = None
    postings: dict[str, list[Posting]] = {}
    for record in read_records(path, TERM_INDEX_KIND):
        rtype = record.get("type")
        if rtype == "docs":
            doc_ids = record["ids"]
        elif rtype == "term":
            postings[record["t"]] = [
                Posting(doc_id, frequency) for doc_id, frequency in record["p"]
            ]
        else:
            raise StorageFormatError(f"{path}: unknown record type {rtype!r}")
    if doc_ids is None:
        raise StorageFormatError(f"{path}: missing docs record")
    return InvertedIndex.restore(doc_ids, postings)


def _load_entity_index(path: pathlib.Path) -> EntityIndex:
    doc_ids: list[str] | None = None
    postings: dict[str, list[EntityPosting]] = {}
    for record in read_records(path, ENTITY_INDEX_KIND):
        rtype = record.get("type")
        if rtype == "docs":
            doc_ids = record["ids"]
        elif rtype == "entity":
            postings[record["e"]] = [
                EntityPosting(doc_id, frequency, d_score)
                for doc_id, frequency, d_score in record["p"]
            ]
        else:
            raise StorageFormatError(f"{path}: unknown record type {rtype!r}")
    if doc_ids is None:
        raise StorageFormatError(f"{path}: missing docs record")
    return EntityIndex.restore(doc_ids, postings)


def _load_evidence(path: pathlib.Path) -> dict[str, list[tuple[str, int]]]:
    evidence_of: dict[str, list[tuple[str, int]]] = {}
    for record in read_records(path, EVIDENCE_KIND):
        if record.get("type") != "evidence":
            raise StorageFormatError(
                f"{path}: unknown record type {record.get('type')!r}"
            )
        evidence_of[record["doc"]] = [
            (cid, distance) for cid, distance in record["s"]
        ]
    return evidence_of


def _load_slice(
    path: pathlib.Path,
) -> tuple[InvertedIndex, EntityIndex, dict[str, tuple[tuple[str, int], ...]]]:
    """Parse one segment (or buffer) file into restored indexes plus its
    evidence rows, in stored order."""
    doc_ids: list[str] | None = None
    term_postings: dict[str, list[Posting]] = {}
    entity_postings: dict[str, list[EntityPosting]] = {}
    evidence: dict[str, tuple[tuple[str, int], ...]] = {}
    for record in read_records(path, SEGMENT_KIND):
        rtype = record.get("type")
        if rtype == "docs":
            doc_ids = record["ids"]
        elif rtype == "term":
            term_postings[record["t"]] = [
                Posting(doc_id, frequency) for doc_id, frequency in record["p"]
            ]
        elif rtype == "entity":
            entity_postings[record["e"]] = [
                EntityPosting(doc_id, frequency, d_score)
                for doc_id, frequency, d_score in record["p"]
            ]
        elif rtype == "evidence":
            evidence[record["doc"]] = tuple(
                (cid, distance) for cid, distance in record["s"]
            )
        else:
            raise StorageFormatError(f"{path}: unknown record type {rtype!r}")
    if doc_ids is None:
        raise StorageFormatError(f"{path}: missing docs record")
    term_index = InvertedIndex.restore(doc_ids, term_postings)
    entity_index = EntityIndex.restore(doc_ids, entity_postings)
    return term_index, entity_index, evidence


def _read_manifest(
    manifest_path: pathlib.Path,
) -> tuple[dict[str, Any], list[dict[str, Any]], dict[str, Any] | None]:
    header: dict[str, Any] | None = None
    entries: list[dict[str, Any]] = []
    buffer_entry: dict[str, Any] | None = None
    for record in read_records(manifest_path, MANIFEST_KIND):
        rtype = record.get("type")
        if rtype == "manifest":
            header = record
        elif rtype == "segment":
            entries.append(record)
        elif rtype == "buffer":
            buffer_entry = record
        else:
            raise StorageFormatError(
                f"{manifest_path}: unknown manifest record type {rtype!r}"
            )
    if header is None:
        raise StorageFormatError(f"{manifest_path}: missing manifest header")
    if header["segments"] != len(entries):
        raise StorageFormatError(
            f"{manifest_path}: manifest declares {header['segments']} "
            f"segment(s) but lists {len(entries)}"
        )
    return header, entries, buffer_entry


def _load_segmented(directory: pathlib.Path, config: FinderConfig) -> SegmentedIndex:
    """Restore a segmented index from its manifest + per-segment files,
    without merging anything: per-segment postings orders, the segment
    order, and the buffered tail all survive the round trip."""
    manifest_path = directory / _MANIFEST_FILE
    header, entries, buffer_entry = _read_manifest(manifest_path)

    def load_entry(entry: dict[str, Any], path: pathlib.Path) -> Segment:
        term_index, entity_index, evidence = _load_slice(path)
        if term_index.document_count != entry["docs"]:
            raise StorageFormatError(
                f"{path}: segment holds {term_index.document_count} "
                f"document(s), manifest says {entry['docs']}"
            )
        resources = len(frozenset(evidence) | term_index.doc_ids())
        if resources != entry["resources"]:
            raise StorageFormatError(
                f"{path}: segment holds {resources} resource(s), "
                f"manifest says {entry['resources']}"
            )
        return term_index, entity_index, evidence

    segments = []
    for entry in entries:
        path = directory / entry["file"]
        if not path.is_file():
            raise StorageFormatError(
                f"{manifest_path}: manifest names missing file {entry['file']!r}"
            )
        segments.append((entry["id"], *load_entry(entry, path)))
    buffer = None
    if buffer_entry is not None:
        path = directory / buffer_entry["file"]
        if not path.is_file():
            raise StorageFormatError(
                f"{manifest_path}: manifest names missing file "
                f"{buffer_entry['file']!r}"
            )
        buffer = load_entry(buffer_entry, path)

    return SegmentedIndex.restore(
        config,
        segments,
        buffer,
        seal_threshold=header["seal_threshold"],
        fanout=header.get("fanout", 4),
    )


def _load_legacy_monolithic(
    directory: pathlib.Path, config: FinderConfig
) -> SegmentedIndex:
    """A pre-segments flat v2 snapshot (``term_index``/``entity_index``/
    ``evidence`` files), loaded as one sealed segment."""
    term_index = _load_term_index(directory / _TERM_FILE)
    entity_index = _load_entity_index(directory / _ENTITY_FILE)
    # the builder indexes every resource into both indexes (possibly with
    # empty postings), so diverging doc-id sets mean a corrupt snapshot —
    # and would skew the shared collection-frequency denominators
    if term_index.doc_ids() != entity_index.doc_ids():
        raise StorageFormatError(
            f"{directory}: term and entity indexes disagree on the indexed "
            f"doc ids ({len(term_index.doc_ids())} vs "
            f"{len(entity_index.doc_ids())})"
        )
    evidence_of = _load_evidence(directory / _EVIDENCE_FILE)
    return SegmentedIndex.from_built(term_index, entity_index, evidence_of, config)


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


# -- binary (v3) reader ------------------------------------------------------------


def _read_current(directory: pathlib.Path) -> pathlib.Path:
    path = directory / _CURRENT_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
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
    keys: Sequence[str], off: Any, views: Sequence[Any]
) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    for i, key in enumerate(keys):
        start, stop = off[i], off[i + 1]
        out[key] = tuple(view[start:stop] for view in views)
    return out


def _read_blocks(
    mapped: MappedSections, prefix: str, keys: list[str]
) -> dict[str, tuple]:
    """Rebuild the per-column ``(bids, boff, bmax)`` block metadata from
    the flattened sections written by :func:`_block_sections` — zero-copy
    views over the mapping. Absence of the sections is handled by the
    callers (pre-block snapshots recompute lazily); malformed lengths are
    a format error.
    """
    path = mapped.path
    blkoff_name = layout.block_name(prefix, "blkoff")
    bid = mapped.array(layout.block_name(prefix, "bid"))
    bmax = mapped.array(layout.block_name(prefix, "bmax"))
    blkoff = mapped.array(blkoff_name)
    boff = mapped.array(layout.block_name(prefix, "boff"))
    n = len(keys)
    if len(blkoff) != n + 1 or blkoff[0] != 0 or blkoff[n] != len(bid):
        raise StorageFormatError(
            f"{path}: section {blkoff_name} does not span its blocks"
        )
    if len(bmax) != len(bid) or len(boff) != len(bid) + n:
        raise StorageFormatError(
            f"{path}: block sections for {prefix!r} disagree on block count"
        )
    out: dict[str, tuple] = {}
    for i, key in enumerate(keys):
        start, stop = blkoff[i], blkoff[i + 1]
        out[key] = (
            bid[start:stop],
            boff[start + i : stop + i + 1],
            bmax[start:stop],
        )
    return out


def _decode_evidence(
    mapped: MappedSections,
) -> dict[str, tuple[tuple[str, int], ...]]:
    resources = mapped.strings("resources")
    cands = mapped.strings("cands")
    off, (vcand, vdist) = _csr(mapped, "ev", len(resources), ("cand", "dist"))
    # one pass over the whole CSR, then per-resource slices of it
    rows = list(zip([cands[c] for c in vcand.tolist()], vdist.tolist()))
    bounds = off.tolist()
    return {
        doc_id: tuple(rows[bounds[i] : bounds[i + 1]])
        for i, doc_id in enumerate(resources)
    }


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
    evidence = _decode_evidence(mapped)
    resources = len(frozenset(evidence) | frozenset(docs))
    if "resources" in entry and resources != entry["resources"]:
        raise StorageFormatError(
            f"{path}: segment holds {resources} resource(s), "
            f"{source} says {entry['resources']}"
        )
    block_kwargs: dict[str, Any] = {}
    if layout.BLOCK_SPAN in mapped.names():
        block_kwargs = {
            "block_span": int(mapped.array(layout.BLOCK_SPAN)[0]),
            "term_blocks": _read_blocks(mapped, "term", terms),
            "entity_blocks": _read_blocks(mapped, "ent", entities),
        }
    return Segment.from_columns(
        segment_id,
        docs,
        _col_dict(terms, toff, term_views),
        # the query columns are (doc, ef, we); ds is hydration-only
        _col_dict(entities, eoff, entity_views[:3]),
        evidence,
        _slice_hydrator(mapped, docs),
        **block_kwargs,
    )


def _load_v3_buffer(path: pathlib.Path, entry: dict[str, Any]) -> _WriteBuffer:
    """The unsealed buffer rehydrates eagerly — it is small by
    construction (below the seal threshold) and mutable on the very next
    observe, so mapping it lazily buys nothing."""
    mapped = MappedSections.open(path)
    docs = mapped.strings("docs")
    if len(docs) != entry["docs"]:
        raise StorageFormatError(
            f"{path}: buffer holds {len(docs)} document(s), "
            f"manifest says {entry['docs']}"
        )
    term_index, entity_index = _slice_hydrator(mapped, docs)()
    evidence = _decode_evidence(mapped)
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
    manifest_path = gen_dir / _MANIFEST_FILE
    header, entries, buffer_entry = _read_manifest(manifest_path)
    segments = []
    for entry in entries:
        path = gen_dir / entry["file"]
        if not path.is_file():
            raise StorageFormatError(
                f"{manifest_path}: manifest names missing file {entry['file']!r}"
            )
        segments.append(_load_v3_segment(path, entry["id"], entry))
    buffer = None
    if buffer_entry is not None:
        path = gen_dir / buffer_entry["file"]
        if not path.is_file():
            raise StorageFormatError(
                f"{manifest_path}: manifest names missing file "
                f"{buffer_entry['file']!r}"
            )
        buffer = _load_v3_buffer(path, buffer_entry)
    segmented = SegmentedIndex.restore_compiled(
        config,
        segments,
        buffer,
        seal_threshold=header["seal_threshold"],
        fanout=header.get("fanout", 4),
        # keep the stored span for segments sealed after this load
        block_span=segments[0].block_span if segments else None,
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


def _decode_stats(
    mapped: MappedSections, path: pathlib.Path, idf_exponent: float
) -> GlobalStatistics:
    doc_count = int(mapped.array(layout.STAT_N)[0])
    terms = mapped.strings(layout.TERMS)
    term_df = mapped.array(layout.TERM_DF)
    if len(term_df) != len(terms):
        raise StorageFormatError(
            f"{path}: {len(terms)} term(s) but {len(term_df)} df value(s)"
        )
    entities = mapped.strings(layout.ENTITIES)
    entity_df = mapped.array(layout.ENT_DF)
    if len(entity_df) != len(entities):
        raise StorageFormatError(
            f"{path}: {len(entities)} entities but "
            f"{len(entity_df)} df value(s)"
        )
    return GlobalStatistics(
        idf_exponent,
        doc_count,
        dict(zip(terms, (int(df) for df in term_df))),
        dict(zip(entities, (int(df) for df in entity_df))),
    )


def _load_stats(path: pathlib.Path, idf_exponent: float) -> GlobalStatistics:
    """Rebuild the union collection statistics from ``stats.bin`` (the
    decode runs in a helper so its section views are released before the
    mapping closes)."""
    mapped = MappedSections.open(path)
    try:
        return _decode_stats(mapped, path, idf_exponent)
    finally:
        mapped.close()


def _read_shard_manifest(
    manifest_path: pathlib.Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    header: dict[str, Any] | None = None
    entries: list[dict[str, Any]] = []
    for record in read_records(manifest_path, SHARD_MANIFEST_KIND):
        rtype = record.get("type")
        if rtype == "manifest":
            header = record
        elif rtype == "shard":
            entries.append(record)
        else:
            raise StorageFormatError(
                f"{manifest_path}: unknown manifest record type {rtype!r}"
            )
    if header is None:
        raise StorageFormatError(f"{manifest_path}: missing manifest header")
    if header["shards"] != len(entries):
        raise StorageFormatError(
            f"{manifest_path}: manifest declares {header['shards']} "
            f"shard(s) but lists {len(entries)}"
        )
    if [entry["shard"] for entry in entries] != list(range(len(entries))):
        raise StorageFormatError(
            f"{manifest_path}: shard entries are not 0..{len(entries) - 1} "
            f"in order"
        )
    return header, entries


def _shard_from_bin(
    path: pathlib.Path,
    entry: dict[str, Any],
    config: FinderConfig,
    statistics: GlobalStatistics,
    group: tuple[str, ...],
    header: dict[str, Any],
) -> ShardIndex:
    """One shard container → a compiled :class:`ShardIndex` scoring with
    *statistics*, owning the *group* candidates."""
    segments = []
    if entry["docs"] or entry["resources"]:
        segments.append(_load_v3_segment(path, 0, entry))
    shard = ShardIndex.restore_compiled(
        config,
        segments,
        None,
        seal_threshold=header["seal_threshold"],
        fanout=header.get("fanout", 4),
        block_span=header.get("block_span"),
    )
    shard._global = statistics
    shard.candidates = frozenset(group)
    return shard


def open_shard(directory: str | pathlib.Path, shard: int) -> ShardIndex:
    """Open one shard of a v3 sharded *generation* directory, read-only.

    This is what each scatter-pool worker runs after the fork: it maps
    only its own shard's section container (plus the small stats/meta
    files), so N workers over one snapshot share a single page-cache
    copy of the columns and never rebuild posting objects. The candidate
    partition is recomputed from the meta candidate records — identical
    to the coordinator's by :func:`partition_candidates` determinism.
    """
    gen_dir = pathlib.Path(directory)
    config, _indexed, evidence_counts, index_mode, _shards = _load_meta(
        gen_dir / _META_FILE, SNAPSHOT_VERSION
    )
    if index_mode != "sharded":
        raise StorageFormatError(
            f"{gen_dir}: not a sharded snapshot (index mode {index_mode!r})"
        )
    header, entries = _read_shard_manifest(gen_dir / _SHARD_MANIFEST_FILE)
    if not 0 <= shard < len(entries):
        raise ValueError(
            f"shard must be in 0..{len(entries) - 1}, got {shard}"
        )
    statistics = _load_stats(gen_dir / _STATS_BIN, config.idf_exponent)
    partition = partition_candidates(evidence_counts, header["shards"])
    entry = entries[shard]
    path = gen_dir / entry["file"]
    if not path.is_file():
        raise StorageFormatError(
            f"{gen_dir / _SHARD_MANIFEST_FILE}: manifest names missing "
            f"file {entry['file']!r}"
        )
    return _shard_from_bin(path, entry, config, statistics, partition[shard], header)


def _load_v3_sharded(
    gen_dir: pathlib.Path,
    analyzer: ResourceAnalyzer,
    config: FinderConfig,
    indexed: int,
    evidence_counts: dict[str, int],
    shards: int | None,
) -> ExpertFinder:
    manifest_path = gen_dir / _SHARD_MANIFEST_FILE
    header, entries = _read_shard_manifest(manifest_path)
    if shards is not None and header["shards"] != shards:
        raise StorageFormatError(
            f"{manifest_path}: manifest holds {header['shards']} shard(s), "
            f"metadata says {shards}"
        )
    statistics = _load_stats(gen_dir / _STATS_BIN, config.idf_exponent)
    if statistics.doc_count != indexed:
        raise StorageFormatError(
            f"{gen_dir / _STATS_BIN}: statistics cover {statistics.doc_count} "
            f"indexed document(s), metadata says {indexed}"
        )
    # the coordinator folds Eq. 3 from the full rows, so they hydrate
    # eagerly
    evidence_mapped = MappedSections.open(gen_dir / _EVIDENCE_BIN)
    try:
        evidence_of = {
            doc_id: list(rows)
            for doc_id, rows in _decode_evidence(evidence_mapped).items()
        }
    finally:
        evidence_mapped.close()
    partition = partition_candidates(evidence_counts, header["shards"])
    shard_objs = []
    for k, entry in enumerate(entries):
        path = gen_dir / entry["file"]
        if not path.is_file():
            raise StorageFormatError(
                f"{manifest_path}: manifest names missing file {entry['file']!r}"
            )
        shard_objs.append(
            _shard_from_bin(path, entry, config, statistics, partition[k], header)
        )
    sharded = ShardedIndex(config, shard_objs, statistics, evidence_of, partition)
    # scatter-pool workers re-open from disk instead of inheriting the
    # coordinator's hydrated shards — one mmap each, shared page cache
    sharded._shard_openers = [
        functools.partial(open_shard, str(gen_dir), k)
        for k in range(len(entries))
    ]
    return ExpertFinder(
        analyzer,
        evidence_of,
        config,
        evidence_counts=evidence_counts,
        indexed_count=indexed,
        sharded=sharded,
    )


def _load_v3(
    directory: pathlib.Path, analyzer: ResourceAnalyzer
) -> ExpertFinder:
    gen_dir = _read_current(directory)
    try:
        config, indexed, evidence_counts, index_mode, shards = _load_meta(
            gen_dir / _META_FILE, SNAPSHOT_VERSION
        )
        if index_mode == "sharded":
            return _load_v3_sharded(
                gen_dir, analyzer, config, indexed, evidence_counts, shards
            )
        if index_mode == "segmented":
            return _load_v3_segmented(
                gen_dir, analyzer, config, indexed, evidence_counts
            )
        return _load_v3_legacy_monolithic(
            gen_dir, analyzer, config, indexed, evidence_counts
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, StorageFormatError):
            raise
        raise StorageFormatError(f"{directory}: malformed snapshot: {exc}") from exc


def snapshot_generation(directory: str | pathlib.Path) -> str | None:
    """The name of the v3 generation the snapshot's ``CURRENT`` pointer
    selects (e.g. ``"gen-0000002"``), or ``None`` for the flat jsonl
    layout (which has no generations).

    The serving gateway (:mod:`repro.serve`) reports this label per
    loaded generation, so operators can tell *which* snapshot state a
    hot-reloaded process is answering from."""
    directory = pathlib.Path(directory)
    if not (directory / _CURRENT_FILE).exists():
        return None
    return _read_current(directory).name


def load_finder(
    directory: str | pathlib.Path, analyzer: ResourceAnalyzer
) -> ExpertFinder:
    """Load a finder previously written by :func:`save_finder`.

    The format is negotiated from the directory layout: a ``CURRENT``
    pointer selects the binary v3 generation it names; otherwise the
    flat jsonl (v2) layout is read. *analyzer* must be equivalent to the
    one the finder was built with — it analyzes incoming queries (and
    streamed resources), and the paper requires need and resource
    analysis to be symmetric (Sec. 2.3).
    """
    directory = pathlib.Path(directory)
    if (directory / _CURRENT_FILE).exists():
        return _load_v3(directory, analyzer)
    try:
        config, indexed, evidence_counts, index_mode, _shards = _load_meta(
            directory / _META_FILE, JSONL_SNAPSHOT_VERSION
        )
        if index_mode == "segmented":
            segmented = _load_segmented(directory, config)
        else:
            segmented = _load_legacy_monolithic(directory, config)
        return _segmented_finder(
            directory, analyzer, config, indexed, evidence_counts, segmented
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, StorageFormatError):
            raise
        raise StorageFormatError(f"{directory}: malformed snapshot: {exc}") from exc
