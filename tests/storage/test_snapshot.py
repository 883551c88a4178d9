"""Finder snapshot round-trip tests over the TINY dataset.

Every round-trip comparison checks a loaded finder's served rankings
against the oracle (``tests/oracle.py``) over the finder the snapshot
was written from."""

import json

import numpy as np
import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.segments import Segment
from repro.storage.jsonl import StorageFormatError
from repro.storage.binary import MappedSections, write_sections
from repro.storage.snapshot import SNAPSHOT_VERSION, load_finder, save_finder
from repro.synthetic.stream import stream_candidates, stream_resources
from tests.oracle import (
    Oracle,
    evidence_of,
    evidence_rows,
    merged_slice,
    oracle_experts,
)
from tests.reference.entity_index import EntityIndex, EntityPosting
from tests.reference.inverted import InvertedIndex, Posting


def _generation_dir(snapshot_dir):
    """The generation a v3 snapshot's CURRENT file points at."""
    lines = (snapshot_dir / "CURRENT").read_text(encoding="utf-8").splitlines()
    return snapshot_dir / lines[1]


def _holds_posting_objects(segment):
    """Whether any slot of *segment* holds a posting-object index."""
    return any(
        isinstance(getattr(segment, slot), (InvertedIndex, EntityIndex))
        for slot in Segment.__slots__
    )


def _rewrite_section(path, name, edit):
    """Rewrite section *name* of the container at *path* through
    write_sections, so the checksum stays valid: *edit* takes the
    section's values as a list and returns the replacement list."""
    mapped = MappedSections.open(path)
    sections = []
    for section in mapped.names():
        dtype, offset, length = mapped._toc[section]
        data = bytes(mapped._view[offset:offset + length])
        if section == name:
            data = edit(list(mapped.array(section)))
        sections.append((section, dtype, data))
    del mapped  # release the exported memoryviews before rewriting
    write_sections(path, sections)


@pytest.fixture(scope="module")
def built_finder(tiny_dataset):
    return ExpertFinder.build(
        tiny_dataset.merged_graph,
        tiny_dataset.candidates_for(None),
        tiny_dataset.analyzer,
        FinderConfig(),
        corpus=tiny_dataset.corpus,
    )


@pytest.fixture(scope="module")
def snapshot_dir(built_finder, tmp_path_factory):
    directory = tmp_path_factory.mktemp("snapshot") / "finder"
    built_finder.save(directory)
    return directory


@pytest.fixture(scope="module")
def loaded_finder(snapshot_dir, tiny_dataset):
    return ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)


class TestRoundTrip:
    def test_identical_rankings_on_all_queries(
        self, built_finder, loaded_finder, tiny_dataset
    ):
        """Every query must rank identically — candidates, exact scores,
        and support counts (ExpertScore equality compares all three) — at
        the configured window, at absolute windows that each segment cuts
        before the merge, and at a fractional and no window, which none
        can; the built finder too."""
        oracle = Oracle(built_finder)
        for need in tiny_dataset.queries:
            assert loaded_finder.find_experts(need) == oracle.rank(need)
            for window in (10, 5, 1000, 0.25, None):
                expected = oracle.rank(need, window=window)
                assert built_finder.find_experts(need, window=window) == expected
                assert loaded_finder.find_experts(need, window=window) == expected

    def test_identical_rankings_under_overrides(
        self, built_finder, loaded_finder, tiny_dataset
    ):
        need = tiny_dataset.queries[0]
        for alpha, window in ((0.0, None), (1.0, 10), (0.5, 0.25)):
            assert loaded_finder.find_experts(
                need, alpha=alpha, window=window
            ) == oracle_experts(built_finder, need, alpha=alpha, window=window)

    def test_config_preserved(self, built_finder, loaded_finder):
        assert loaded_finder.config == built_finder.config

    def test_counts_preserved(self, built_finder, loaded_finder):
        assert loaded_finder.indexed_resources == built_finder.indexed_resources
        assert dict(loaded_finder.evidence_counts) == dict(
            built_finder.evidence_counts
        )

    def test_evidence_relation_preserved(self, built_finder, loaded_finder):
        assert {
            doc: list(map(tuple, supporters))
            for doc, supporters in evidence_of(loaded_finder).items()
        } == {
            doc: list(map(tuple, supporters))
            for doc, supporters in evidence_of(built_finder).items()
        }

    def test_top_k_fast_path_agrees_after_load(self, loaded_finder, tiny_dataset):
        # top_k cuts the Eq. 3 fold before it builds the ranked objects
        need = tiny_dataset.queries[0]
        full = loaded_finder.find_experts(need)
        for k in (1, 5, len(full), len(full) + 10):
            assert loaded_finder.find_experts(need, top_k=k) == full[:k]

    def test_streaming_continues_after_load(self, snapshot_dir, tiny_dataset):
        finder = ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)
        candidate = next(iter(finder.evidence_counts))
        before = finder.evidence_count(candidate)
        assert finder.observe(
            "snapshot:new:1",
            "an incredibly rare zorpify gadget review",
            [(candidate, 1)],
        )
        assert finder.evidence_count(candidate) == before + 1
        assert finder.indexed_resources >= 1


class TestFormatGuards:
    def test_load_missing_directory(self, tmp_path, tiny_dataset):
        with pytest.raises((StorageFormatError, FileNotFoundError)):
            load_finder(tmp_path / "nope", tiny_dataset.analyzer)

    def test_v3_load_rejects_future_snapshot_version(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "future-v3"
        save_finder(built_finder, directory)
        meta = _generation_dir(directory) / "meta.jsonl"
        text = meta.read_text(encoding="utf-8")
        meta.write_text(
            text.replace(
                f'"snapshot_version":{SNAPSHOT_VERSION}',
                f'"snapshot_version":{SNAPSHOT_VERSION + 1}',
            ),
            encoding="utf-8",
        )
        with pytest.raises(StorageFormatError):
            load_finder(directory, tiny_dataset.analyzer)

    def test_load_rejects_corrupt_meta(self, built_finder, tiny_dataset, tmp_path):
        directory = tmp_path / "corrupt"
        save_finder(built_finder, directory)
        meta = _generation_dir(directory) / "meta.jsonl"
        meta.write_text("not json\n", encoding="utf-8")
        with pytest.raises(StorageFormatError):
            load_finder(directory, tiny_dataset.analyzer)

    def test_load_rejects_corrupt_current_pointer(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "badcurrent"
        save_finder(built_finder, directory)
        (directory / "CURRENT").write_text("garbage\n", encoding="utf-8")
        with pytest.raises(StorageFormatError, match="CURRENT|pointer"):
            load_finder(directory, tiny_dataset.analyzer)

    def test_load_rejects_dangling_current_pointer(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "dangling"
        save_finder(built_finder, directory)
        import shutil

        shutil.rmtree(_generation_dir(directory))
        with pytest.raises(StorageFormatError, match="missing generation"):
            load_finder(directory, tiny_dataset.analyzer)


class TestContentValidation:
    """Corrupt snapshot *content* (a valid container holding bad data)
    must be rejected at load time. Every mapped slice, each segment and
    the write buffer alike, gets one column check: doc and candidate
    indexes inside their tables, offsets that never decrease, positive
    frequencies, ``d_score`` in [0, 1] and ``we`` its Eq. 2 weight; its
    evidence rows are checked against the configured distance weights.
    (Matches name the failed check, not just the path: tmp_path spells
    out the test's name.)"""

    @pytest.fixture
    def snapshot(self, analyzer, tmp_path):
        """A segmented snapshot whose buffer holds one resource with
        both term and entity postings."""
        finder = _build_segmented(analyzer)
        finder.segmented_index.seal()
        assert finder.observe(
            "c1", "Michael Phelps wins the freestyle swimming race", [("bob", 1)]
        )
        directory = tmp_path / "snap"
        finder.save(directory)
        buffer = MappedSections.open(_generation_dir(directory) / "buffer.bin")
        assert len(buffer.array("term#doc")) and len(buffer.array("ent#doc"))
        return directory

    def _corrupt(self, snapshot, file_name, section, edit):
        _rewrite_section(_generation_dir(snapshot) / file_name, section, edit)

    def test_rejects_unknown_doc_in_term_postings(self, snapshot, analyzer):
        # a posting naming a doc index past the buffer's docs table
        self._corrupt(snapshot, "buffer.bin", "term#doc", lambda doc: [7, *doc[1:]])
        with pytest.raises(StorageFormatError, match="index out of range"):
            load_finder(snapshot, analyzer)

    def test_rejects_unknown_doc_in_entity_postings(self, snapshot, analyzer):
        self._corrupt(snapshot, "buffer.bin", "ent#doc", lambda doc: [7, *doc[1:]])
        with pytest.raises(StorageFormatError, match="index out of range"):
            load_finder(snapshot, analyzer)

    def test_rejects_non_positive_term_frequency(self, snapshot, analyzer):
        self._corrupt(snapshot, "buffer.bin", "term#tf", lambda tf: [0, *tf[1:]])
        with pytest.raises(StorageFormatError, match="term_frequency must be"):
            load_finder(snapshot, analyzer)

    def test_rejects_negative_d_score(self, snapshot, analyzer):
        self._corrupt(snapshot, "buffer.bin", "ent#ds", lambda ds: [-0.5, *ds[1:]])
        with pytest.raises(StorageFormatError, match="d_score must be in"):
            load_finder(snapshot, analyzer)

    def test_rejects_out_of_range_evidence_distance(self, snapshot, analyzer):
        # caught when the mapped slice becomes a segment: the evidence
        # rows name a distance the configured weight table cannot weight
        segment = sorted(_generation_dir(snapshot).glob("segment-*.bin"))[0]
        self._corrupt(snapshot, segment.name, "ev#dist", lambda d: [99, *d[1:]])
        with pytest.raises(StorageFormatError, match="distance 99 outside"):
            load_finder(snapshot, analyzer)

    # a sealed segment's columns get the same checks as the buffer's;
    # each corruption below loaded unnoticed before, then raised on a
    # query or changed the rankings

    def _corrupt_segment(self, snapshot, section, edit):
        segment = sorted(_generation_dir(snapshot).glob("segment-*.bin"))[0]
        self._corrupt(snapshot, segment.name, section, edit)

    @pytest.mark.parametrize("doc", [10**6, -1])
    def test_rejects_unknown_doc_in_segment_term_postings(
        self, snapshot, analyzer, doc
    ):
        self._corrupt_segment(snapshot, "term#doc", lambda docs: [doc, *docs[1:]])
        with pytest.raises(StorageFormatError, match="index out of range"):
            load_finder(snapshot, analyzer)

    def test_rejects_unknown_doc_in_segment_entity_postings(self, snapshot, analyzer):
        self._corrupt_segment(snapshot, "ent#doc", lambda docs: [10**6, *docs[1:]])
        with pytest.raises(StorageFormatError, match="index out of range"):
            load_finder(snapshot, analyzer)

    @pytest.mark.parametrize("tf", [0, -5])
    def test_rejects_non_positive_segment_term_frequency(
        self, snapshot, analyzer, tf
    ):
        self._corrupt_segment(snapshot, "term#tf", lambda tfs: [tf, *tfs[1:]])
        with pytest.raises(StorageFormatError, match="term_frequency must be"):
            load_finder(snapshot, analyzer)

    def test_rejects_segment_d_score_above_one(self, snapshot, analyzer):
        self._corrupt_segment(snapshot, "ent#ds", lambda ds: [1.5, *ds[1:]])
        with pytest.raises(StorageFormatError, match="d_score must be in"):
            load_finder(snapshot, analyzer)

    @pytest.mark.parametrize("file_name", ["buffer.bin", "segment"])
    def test_rejects_entity_weight_that_is_not_eq2(
        self, snapshot, analyzer, file_name
    ):
        # the stored we must be Eq. 2 of the stored d_score exactly: the
        # kernel multiplies by it as stored
        def edit(we):
            return [1e9, *we[1:]]

        if file_name == "buffer.bin":
            self._corrupt(snapshot, file_name, "ent#we", edit)
        else:
            self._corrupt_segment(snapshot, "ent#we", edit)
        with pytest.raises(StorageFormatError, match="we must be Eq. 2"):
            load_finder(snapshot, analyzer)

    @pytest.mark.parametrize("cand", [99, -1])
    def test_rejects_unknown_candidate_in_evidence_rows(
        self, snapshot, analyzer, cand
    ):
        self._corrupt_segment(snapshot, "ev#cand", lambda c: [cand, *c[1:]])
        with pytest.raises(StorageFormatError, match="index out of range"):
            load_finder(snapshot, analyzer)

    @pytest.mark.parametrize("section", ["term#off", "ev#off"])
    def test_rejects_decreasing_offsets(self, snapshot, analyzer, section):
        # both ends stay right, so only the content check sees it
        self._corrupt_segment(snapshot, section, lambda off: [0, off[2] + 1, *off[2:]])
        with pytest.raises(StorageFormatError, match="offsets decrease"):
            load_finder(snapshot, analyzer)

    @pytest.fixture
    def streamed(self, analyzer, tmp_path):
        """A 40-event streamed snapshot: one segment in which terms and
        entities alike hold keys with two postings or more."""
        candidates = stream_candidates(5)
        finder = ExpertFinder.from_stream(
            candidates, stream_resources(candidates, 40, seed=3), analyzer
        )
        directory = tmp_path / "streamed"
        finder.save(directory)
        return directory

    @pytest.mark.parametrize("prefix", ["term", "ent"])
    def test_rejects_key_naming_one_document_twice(self, streamed, analyzer, prefix):
        # the first key with two postings names its first document twice;
        # offsets, doc range and frequencies stay valid, and the Eq. 1
        # kernel's fancy-indexed add would count the repeat once
        (segment,) = _generation_dir(streamed).glob("segment-*.bin")
        mapped = MappedSections.open(segment)
        off = mapped.array(f"{prefix}#off").tolist()
        del mapped
        start = next(a for a, b in zip(off, off[1:]) if b - a >= 2)

        def edit(docs):
            docs[start + 1] = docs[start]
            return docs

        _rewrite_section(segment, f"{prefix}#doc", edit)
        with pytest.raises(StorageFormatError, match="names one document twice"):
            load_finder(streamed, analyzer)


class TestLoadedEngine:
    def test_engine_compiled_at_load(self, snapshot_dir, tiny_dataset):
        # serving warm-starts from snapshots: the kernel scores the
        # mapped segment columns as loaded — nothing is compiled lazily
        # on the first query, and a segment holds no posting objects
        loaded_finder = ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)
        assert loaded_finder.find_experts(tiny_dataset.queries[0])
        (segment,) = loaded_finder.segmented_index.iter_segments()
        assert segment.document_count == loaded_finder.indexed_resources
        assert not _holds_posting_objects(segment)

    def test_loaded_columns_are_read_only_views(self, snapshot_dir, tiny_dataset):
        # the columns are np.frombuffer views over the read-only mapping:
        # numpy refuses any write through them at runtime
        loaded_finder = ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)
        (segment,) = loaded_finder.segmented_index.iter_segments()
        columns = [
            column
            for cols in (segment._term_cols, segment._entity_cols)
            for group in (cols.columns, *cols.views.values())
            for column in group
        ]
        assert columns
        assert not any(column.flags.writeable for column in columns)
        assert all(column.base is not None for column in columns)  # no copies
        with pytest.raises(ValueError, match="read-only"):
            columns[0][0] = 0

    def test_loaded_evidence_columns_are_read_only_views(
        self, snapshot_dir, tiny_dataset
    ):
        # the fold's evidence rows are the mapped ev#cand / ev#dist
        # sections; only each document's row span is derived at load,
        # and it agrees with the decoded evidence relation
        loaded_finder = ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)
        (segment,) = loaded_finder.segmented_index.iter_segments()
        csr, first, count = segment._evidence_cols
        cand, dist = csr.cand, csr.dist
        for column in (csr.off, cand, dist):
            assert not column.flags.writeable and column.base is not None
        with pytest.raises(ValueError, match="read-only"):
            dist[0] = 0
        assert len(first) == len(count) == segment.document_count
        docs = np.arange(segment.document_count)
        local, distances, per_doc = segment.rows(docs)
        assert per_doc.tolist() == count.tolist()
        rows = list(zip([segment.candidates[c] for c in local.tolist()],
                        distances.tolist()))
        evidence = dict(evidence_rows(csr))
        expected = [row for doc_id in segment.doc_ids for row in evidence[doc_id]]
        assert rows == expected

    def test_restore_rejects_unknown_doc_ids_directly(self):
        with pytest.raises(ValueError, match="unknown document"):
            InvertedIndex.restore(["d1"], {"t": [Posting("d2", 1)]})
        with pytest.raises(ValueError, match="unknown document"):
            EntityIndex.restore(["d1"], {"e": [EntityPosting("d2", 1, 0.5)]})


# -- segmented snapshots ------------------------------------------------------

from repro.core.expert_finder import ExpertFinder as _ExpertFinder  # noqa: E402
from repro.socialgraph.graph import SocialGraph  # noqa: E402
from repro.socialgraph.metamodel import (  # noqa: E402
    Platform,
    RelationKind,
    Resource,
    UserProfile,
)

_SEG_NEEDS = ("freestyle swimming race", "rock guitar song", "swimming pool")

#: streamed after the build: crosses the seal threshold twice (the
#: Italian resource is sealed as evidence-only) and leaves one indexed
#: resource in the write buffer
_SEG_EVENTS = [
    ("s1", "more freestyle swimming drills before the next race", "bob"),
    ("s2", "a shared guitar practice session down by the swimming pool", "alice"),
    ("s3", "questa e una bella giornata per andare in piscina con gli amici", "alice"),
    ("s4", "open water swimming race report with detailed timing splits", "bob"),
    ("s5", "rock guitar chords for a brand new song", "alice"),
]


def _build_segmented(analyzer):
    g = SocialGraph(Platform.TWITTER)
    for pid in ("alice", "bob"):
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
    g.add_resource(
        Resource(resource_id="t1", platform=Platform.TWITTER,
                 text="guitar chords and a new rock song")
    )
    g.link_resource("alice", "t1", RelationKind.CREATES)
    finder = _ExpertFinder.build(
        g, ("alice", "bob"), analyzer, FinderConfig(window=None),
        seal_threshold=2,
    )
    for rid, text, supporter in _SEG_EVENTS:
        finder.observe(rid, text, [(supporter, 1)])
    return finder


@pytest.fixture(scope="module")
def segmented_finder(analyzer):
    return _build_segmented(analyzer)


@pytest.fixture(scope="module")
def segmented_snapshot_dir(segmented_finder, tmp_path_factory):
    directory = tmp_path_factory.mktemp("segmented") / "finder"
    segmented_finder.save(directory)
    return directory


@pytest.fixture(scope="module")
def loaded_segmented(segmented_snapshot_dir, analyzer):
    return ExpertFinder.load(segmented_snapshot_dir, analyzer)


def _edit_manifest(path, edit):
    """Structurally rewrite the (plain jsonl) segment manifest."""
    lines = path.read_text(encoding="utf-8").splitlines()
    records = edit([json.loads(line) for line in lines[1:]])
    path.write_text(
        "\n".join(
            [lines[0]]
            + [json.dumps(r, separators=(",", ":"), sort_keys=True) for r in records]
        )
        + "\n",
        encoding="utf-8",
    )


class TestSegmentedRoundTrip:
    def test_stream_left_interesting_state(self, segmented_finder):
        # the fixture must cover all three layout pieces: multiple sealed
        # segments, an evidence-only doc inside a segment, and a
        # non-empty write buffer
        stats = segmented_finder.index_stats
        assert stats.segments >= 2
        assert stats.buffered == 1
        assert stats.resources > stats.documents  # the Italian resource

    def test_files_layout(self, segmented_snapshot_dir):
        assert (segmented_snapshot_dir / "CURRENT").exists()
        gen = _generation_dir(segmented_snapshot_dir)
        names = sorted(p.name for p in gen.iterdir())
        assert "meta.jsonl" in names
        assert "segments.jsonl" in names
        assert "buffer.bin" in names
        assert any(n.startswith("segment-") and n.endswith(".bin")
                   for n in names)
        # the monolithic layout's merged files must NOT be written
        assert "index.bin" not in names
        assert "engine.bin" not in names

    def test_load_preserves_segment_structure(
        self, segmented_finder, loaded_segmented
    ):
        # the snapshot restores segments as they were — no silent merge
        before = segmented_finder.index_stats
        after = loaded_segmented.index_stats
        assert after.segments == before.segments
        assert after.segment_docs == before.segment_docs
        assert after.buffered == before.buffered
        assert after.documents == before.documents
        assert after.resources == before.resources

    def test_identical_rankings(self, segmented_finder, loaded_segmented):
        for need in _SEG_NEEDS:
            assert loaded_segmented.find_experts(need) == (
                oracle_experts(segmented_finder, need)
            )
            for alpha, window in ((0.0, None), (1.0, 2), (0.5, 0.5)):
                assert loaded_segmented.find_experts(
                    need, alpha=alpha, window=window
                ) == oracle_experts(segmented_finder, need, alpha=alpha, window=window)

    def test_counts_and_evidence_preserved(self, segmented_finder, loaded_segmented):
        assert loaded_segmented.indexed_resources == (
            segmented_finder.indexed_resources
        )
        assert dict(loaded_segmented.evidence_counts) == dict(
            segmented_finder.evidence_counts
        )
        assert {
            doc: list(map(tuple, rows))
            for doc, rows in evidence_of(loaded_segmented).items()
        } == {
            doc: list(map(tuple, rows))
            for doc, rows in evidence_of(segmented_finder).items()
        }

    def test_streaming_continues_after_load(self, segmented_snapshot_dir, analyzer):
        finder = ExpertFinder.load(segmented_snapshot_dir, analyzer)
        buffered = finder.index_stats.buffered
        assert finder.observe(
            "post-load:1", "another freestyle swimming session", [("bob", 1)]
        )
        assert finder.index_stats.buffered in (0, buffered + 1)  # may seal
        assert "bob" in {
            e.candidate_id for e in finder.find_experts("freestyle swimming")
        }

    def test_compacted_snapshot_round_trips_to_one_segment(
        self, analyzer, tmp_path
    ):
        finder = _build_segmented(analyzer)
        reference = {need: oracle_experts(finder, need) for need in _SEG_NEEDS}
        assert finder.segmented_index.compact(full=True) == 1
        directory = tmp_path / "compacted"
        finder.save(directory)
        loaded = ExpertFinder.load(directory, analyzer)
        stats = loaded.index_stats
        assert (stats.segments, stats.buffered) == (1, 0)
        assert not (_generation_dir(directory) / "buffer.bin").exists()
        for need, expected in reference.items():
            assert loaded.find_experts(need) == expected


class TestSegmentedFormatGuards:
    @pytest.fixture
    def snapshot(self, segmented_finder, tmp_path):
        """The generation directory of a fresh segmented snapshot (the
        loaders below still open the snapshot through CURRENT)."""
        directory = tmp_path / "seg"
        save_finder(segmented_finder, directory)
        return _generation_dir(directory)

    def test_rejects_unknown_index_mode(self, snapshot, analyzer):
        meta = snapshot / "meta.jsonl"
        meta.write_text(
            meta.read_text(encoding="utf-8").replace(
                '"index_mode":"segmented"', '"index_mode":"tiered"'
            ),
            encoding="utf-8",
        )
        with pytest.raises(StorageFormatError, match="index mode"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_manifest_doc_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            entry = next(r for r in records if r["type"] == "segment")
            entry["docs"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="manifest says"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_manifest_resource_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            entry = next(r for r in records if r["type"] == "buffer")
            entry["resources"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="manifest says"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_missing_segment_file(self, snapshot, analyzer):
        victim = next(iter(sorted(snapshot.glob("segment-*.bin"))))
        victim.unlink()
        with pytest.raises(StorageFormatError, match="missing file"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_segment_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            header = next(r for r in records if r["type"] == "manifest")
            header["segments"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="declares"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_duplicate_doc_across_segments(self, snapshot, analyzer):
        # list the first segment twice (bumping the declared count): the
        # same doc then appears in two places, which restore_compiled()
        # rejects
        def edit(records):
            header = next(r for r in records if r["type"] == "manifest")
            entry = next(r for r in records if r["type"] == "segment")
            duplicate = dict(entry)
            duplicate["id"] = entry["id"] + 1000
            header["segments"] += 1
            return records + [duplicate]

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="more than one place"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_indexed_count_mismatch(self, snapshot, analyzer):
        meta = snapshot / "meta.jsonl"
        text = meta.read_text(encoding="utf-8")
        import re as _re

        new_text = _re.sub(
            r'"indexed":(\d+)',
            lambda m: f'"indexed":{int(m.group(1)) + 1}',
            text,
            count=1,
        )
        assert new_text != text
        meta.write_text(new_text, encoding="utf-8")
        with pytest.raises(StorageFormatError, match="metadata says"):
            load_finder(snapshot.parent, analyzer)

    def test_rejects_corrupt_segment_postings(self, snapshot, analyzer):
        victim = next(iter(sorted(snapshot.glob("segment-*.bin"))))
        mapped = MappedSections.open(victim)
        _dtype, offset, _length = mapped._toc["term#tf"]
        mapped.close()
        data = bytearray(victim.read_bytes())
        data[offset] ^= 0x01  # one term frequency, past header and TOC
        victim.write_bytes(bytes(data))
        with pytest.raises(StorageFormatError, match="checksum mismatch"):
            load_finder(snapshot.parent, analyzer)


class TestSegmentedLoadedSurface:
    def test_no_monolithic_retriever_after_load(
        self, segmented_snapshot_dir, analyzer
    ):
        # a load builds no whole-collection posting objects: the sealed
        # segments are mapped columns, and merges and re-saves run on
        # the columns too
        loaded = ExpertFinder.load(segmented_snapshot_dir, analyzer)
        segments = loaded.segmented_index.iter_segments()
        assert len(segments) > 1
        assert not any(_holds_posting_objects(segment) for segment in segments)


class TestV3Lifecycle:
    """Generation management of the snapshot directory."""

    def test_resave_replaces_generation_and_prunes_old(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "resave"
        built_finder.save(directory)
        first_gen = _generation_dir(directory)
        built_finder.save(directory)
        second_gen = _generation_dir(directory)
        assert second_gen != first_gen
        assert not first_gen.exists()  # stale generation pruned
        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        for need in tiny_dataset.queries:
            assert loaded.find_experts(need) == oracle_experts(built_finder, need)

    def test_prune_leaves_unrecognized_files_alone(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "shared"
        built_finder.save(directory)
        stranger = directory / "NOTES.txt"
        stranger.write_text("hands off\n", encoding="utf-8")
        built_finder.save(directory)
        assert stranger.read_text(encoding="utf-8") == "hands off\n"

    def test_segmented_v3_lazy_segments_hydrate_on_demand(
        self, analyzer, tmp_path
    ):
        finder = _build_segmented(analyzer)
        reference = {need: oracle_experts(finder, need) for need in _SEG_NEEDS}
        directory = tmp_path / "lazy"
        finder.save(directory)
        loaded = ExpertFinder.load(directory, analyzer)
        # sealed segments come back as mapped columns, never as indexes
        segments = loaded.segmented_index.iter_segments()
        assert not any(_holds_posting_objects(seg) for seg in segments)
        for need, expected in reference.items():
            assert loaded.find_experts(need) == expected
        # the oracle builds posting objects on demand, from the columns
        # alone: the same collection the finder was saved from
        term_index, entity_index, evidence = merged_slice(loaded.segmented_index)
        original = merged_slice(finder.segmented_index)
        assert dict(term_index.items()) == dict(original[0].items())
        assert dict(entity_index.items()) == dict(original[1].items())
        assert evidence == original[2]
        assert not any(_holds_posting_objects(seg) for seg in segments)
