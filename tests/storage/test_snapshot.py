"""Finder snapshot round-trip tests over the TINY dataset.

The built finders the snapshots are written from rank on the object
path (``VectorSpaceRetriever`` + ``ExpertRanker``), so every round-trip
comparison checks a loaded finder's fast engines against the oracle."""

import gzip
import json
import pathlib
import shutil

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.storage.jsonl import StorageFormatError
from repro.storage.snapshot import (
    JSONL_SNAPSHOT_VERSION,
    SNAPSHOT_VERSION,
    load_finder,
    save_finder,
)


#: snapshots written before every finder became a segmented index
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _generation_dir(snapshot_dir):
    """The generation a v3 snapshot's CURRENT file points at."""
    lines = (snapshot_dir / "CURRENT").read_text(encoding="utf-8").splitlines()
    return snapshot_dir / lines[1]


def _mutate_records(path, mutate):
    """Structurally rewrite one record of a gzipped jsonl file: *mutate*
    takes each parsed record and returns True once it has edited one."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    done = False
    records = []
    for line in lines[1:]:
        record = json.loads(line)
        if not done:
            done = bool(mutate(record))
        records.append(record)
    assert done, "mutator never found a record to edit"
    out = [lines[0]] + [
        json.dumps(r, separators=(",", ":"), sort_keys=True) for r in records
    ]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


@pytest.fixture(scope="module")
def built_finder(tiny_dataset):
    finder = ExpertFinder.build(
        tiny_dataset.merged_graph,
        tiny_dataset.candidates_for(None),
        tiny_dataset.analyzer,
        FinderConfig(),
        corpus=tiny_dataset.corpus,
    )
    finder.engine = "object"
    return finder


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
        and support counts (ExpertScore equality compares all three)."""
        for need in tiny_dataset.queries:
            assert loaded_finder.find_experts(need) == built_finder.find_experts(need)

    def test_identical_rankings_under_overrides(
        self, built_finder, loaded_finder, tiny_dataset
    ):
        need = tiny_dataset.queries[0]
        for alpha, window in ((0.0, None), (1.0, 10), (0.5, 0.25)):
            assert loaded_finder.find_experts(
                need, alpha=alpha, window=window
            ) == built_finder.find_experts(need, alpha=alpha, window=window)

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
            for doc, supporters in loaded_finder.evidence_of.items()
        } == {
            doc: list(map(tuple, supporters))
            for doc, supporters in built_finder.evidence_of.items()
        }

    def test_top_k_fast_path_agrees_after_load(self, loaded_finder, tiny_dataset):
        need = tiny_dataset.queries[0]
        full = loaded_finder.match_resources(need)
        for k in (1, 5, len(full), len(full) + 10):
            assert loaded_finder.match_resources(need, limit=k) == full[:k]

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

    def test_load_rejects_future_snapshot_version(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "future"
        save_finder(built_finder, directory, snapshot_format="jsonl")
        meta = directory / "meta.jsonl"
        text = meta.read_text(encoding="utf-8")
        meta.write_text(
            text.replace(
                f'"snapshot_version":{JSONL_SNAPSHOT_VERSION}',
                f'"snapshot_version":{JSONL_SNAPSHOT_VERSION + 99}',
            ),
            encoding="utf-8",
        )
        with pytest.raises(StorageFormatError):
            load_finder(directory, tiny_dataset.analyzer)

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
        save_finder(built_finder, directory, snapshot_format="jsonl")
        (directory / "meta.jsonl").write_text("not json\n", encoding="utf-8")
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
    """Corrupt snapshot *content* (well-formed jsonl, bad data) must be
    rejected at load time, on both index files of the legacy flat
    layout symmetrically."""

    @pytest.fixture
    def snapshot(self, tmp_path):
        directory = tmp_path / "snap"
        shutil.copytree(FIXTURES / "legacy-v2-monolithic", directory)
        return directory

    def test_rejects_unknown_doc_in_term_postings(self, snapshot, tiny_dataset):
        def mutate(record):
            if record["type"] == "term" and record["p"]:
                record["p"][0][0] = "ghost-doc"
                return True

        _mutate_records(snapshot / "term_index.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError, match="ghost-doc"):
            load_finder(snapshot, tiny_dataset.analyzer)

    def test_rejects_unknown_doc_in_entity_postings(self, snapshot, tiny_dataset):
        def mutate(record):
            if record["type"] == "entity" and record["p"]:
                record["p"][0][0] = "ghost-doc"
                return True

        _mutate_records(snapshot / "entity_index.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError, match="ghost-doc"):
            load_finder(snapshot, tiny_dataset.analyzer)

    def test_rejects_non_positive_term_frequency(self, snapshot, tiny_dataset):
        def mutate(record):
            if record["type"] == "term" and record["p"]:
                record["p"][0][1] = 0
                return True

        _mutate_records(snapshot / "term_index.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError):
            load_finder(snapshot, tiny_dataset.analyzer)

    def test_rejects_negative_d_score(self, snapshot, tiny_dataset):
        def mutate(record):
            if record["type"] == "entity" and record["p"]:
                record["p"][0][2] = -0.5
                return True

        _mutate_records(snapshot / "entity_index.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError):
            load_finder(snapshot, tiny_dataset.analyzer)

    def test_rejects_diverging_doc_id_sets(self, snapshot, tiny_dataset):
        def mutate(record):
            if record["type"] == "docs":
                record["ids"].append("extra-doc")
                return True

        _mutate_records(snapshot / "entity_index.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError, match="disagree"):
            load_finder(snapshot, tiny_dataset.analyzer)

    def test_rejects_out_of_range_evidence_distance(self, snapshot, tiny_dataset):
        # caught when the loaded slice becomes a segment: the evidence
        # record refers to a distance the configured weight table cannot
        # weight (checked on an indexed doc, the rows Eq. 3 folds)
        with gzip.open(snapshot / "term_index.jsonl.gz", "rt") as fh:
            indexed = set(
                next(r for r in map(json.loads, fh.read().splitlines()[1:])
                     if r["type"] == "docs")["ids"]
            )

        def mutate(record):
            if (
                record["type"] == "evidence"
                and record["doc"] in indexed
                and record["s"]
            ):
                record["s"][0][1] = 99
                return True

        _mutate_records(snapshot / "evidence.jsonl.gz", mutate)
        with pytest.raises(StorageFormatError, match="distance"):
            load_finder(snapshot, tiny_dataset.analyzer)


class TestLoadedEngine:
    def test_engine_compiled_at_load(self, snapshot_dir, tiny_dataset):
        # serving warm-starts from snapshots: the columnar engine scores
        # the mapped segment columns as loaded — nothing is compiled (or
        # hydrated) lazily on the first query
        loaded_finder = ExpertFinder.load(snapshot_dir, tiny_dataset.analyzer)
        assert loaded_finder.engine == "columnar"
        assert loaded_finder.find_experts(tiny_dataset.queries[0])
        (segment,) = loaded_finder.segmented_index.iter_segments()
        assert segment.document_count == loaded_finder.indexed_resources
        assert segment._term_index is None
        assert loaded_finder._retriever is None

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
    finder.engine = "object"
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

    def test_jsonl_files_layout(self, segmented_finder, tmp_path):
        directory = tmp_path / "seg-jsonl"
        save_finder(segmented_finder, directory, snapshot_format="jsonl")
        names = sorted(p.name for p in directory.iterdir())
        assert "meta.jsonl" in names
        assert "segments.jsonl" in names
        assert "buffer.jsonl.gz" in names
        assert any(n.startswith("segment-") and n.endswith(".jsonl.gz")
                   for n in names)
        # the monolithic layout's merged files must NOT be written
        assert "term_index.jsonl.gz" not in names

    def test_load_preserves_segment_structure(
        self, segmented_finder, loaded_segmented
    ):
        # the snapshot restores segments as they were — no silent merge
        before = segmented_finder.index_stats
        after = loaded_segmented.index_stats
        assert loaded_segmented.index_mode == "segmented"
        assert after.segments == before.segments
        assert after.segment_docs == before.segment_docs
        assert after.buffered == before.buffered
        assert after.documents == before.documents
        assert after.resources == before.resources

    def test_identical_rankings(self, segmented_finder, loaded_segmented):
        for need in _SEG_NEEDS:
            assert loaded_segmented.find_experts(need) == (
                segmented_finder.find_experts(need)
            )
            for alpha, window in ((0.0, None), (1.0, 2), (0.5, 0.5)):
                assert loaded_segmented.find_experts(
                    need, alpha=alpha, window=window
                ) == segmented_finder.find_experts(need, alpha=alpha, window=window)

    def test_counts_and_evidence_preserved(self, segmented_finder, loaded_segmented):
        assert loaded_segmented.indexed_resources == (
            segmented_finder.indexed_resources
        )
        assert dict(loaded_segmented.evidence_counts) == dict(
            segmented_finder.evidence_counts
        )
        assert {
            doc: list(map(tuple, rows))
            for doc, rows in loaded_segmented.evidence_of.items()
        } == {
            doc: list(map(tuple, rows))
            for doc, rows in segmented_finder.evidence_of.items()
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
        reference = {need: finder.find_experts(need) for need in _SEG_NEEDS}
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
        directory = tmp_path / "seg"
        save_finder(segmented_finder, directory, snapshot_format="jsonl")
        return directory

    def test_rejects_unknown_index_mode(self, snapshot, analyzer):
        meta = snapshot / "meta.jsonl"
        meta.write_text(
            meta.read_text(encoding="utf-8").replace(
                '"index_mode":"segmented"', '"index_mode":"sharded"'
            ),
            encoding="utf-8",
        )
        with pytest.raises(StorageFormatError, match="index mode"):
            load_finder(snapshot, analyzer)

    def test_rejects_manifest_doc_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            entry = next(r for r in records if r["type"] == "segment")
            entry["docs"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="manifest says"):
            load_finder(snapshot, analyzer)

    def test_rejects_manifest_resource_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            entry = next(r for r in records if r["type"] == "buffer")
            entry["resources"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="manifest says"):
            load_finder(snapshot, analyzer)

    def test_rejects_missing_segment_file(self, snapshot, analyzer):
        victim = next(iter(sorted(snapshot.glob("segment-*.jsonl.gz"))))
        victim.unlink()
        with pytest.raises(StorageFormatError, match="missing file"):
            load_finder(snapshot, analyzer)

    def test_rejects_segment_count_mismatch(self, snapshot, analyzer):
        def edit(records):
            header = next(r for r in records if r["type"] == "manifest")
            header["segments"] += 1
            return records

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="declares"):
            load_finder(snapshot, analyzer)

    def test_rejects_duplicate_doc_across_segments(self, snapshot, analyzer):
        # list the first segment twice (bumping the declared count): the
        # same doc then appears in two places, which restore() rejects
        def edit(records):
            header = next(r for r in records if r["type"] == "manifest")
            entry = next(r for r in records if r["type"] == "segment")
            duplicate = dict(entry)
            duplicate["id"] = entry["id"] + 1000
            header["segments"] += 1
            return records + [duplicate]

        _edit_manifest(snapshot / "segments.jsonl", edit)
        with pytest.raises(StorageFormatError, match="more than one place"):
            load_finder(snapshot, analyzer)

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
            load_finder(snapshot, analyzer)

    def test_rejects_corrupt_segment_postings(self, snapshot, analyzer):
        victim = next(iter(sorted(snapshot.glob("segment-*.jsonl.gz"))))

        def mutate(record):
            if record["type"] == "term" and record["p"]:
                record["p"][0][0] = "ghost-doc"
                return True

        _mutate_records(victim, mutate)
        with pytest.raises(StorageFormatError, match="ghost-doc"):
            load_finder(snapshot, analyzer)


class TestSegmentedLoadedSurface:
    def test_no_monolithic_retriever_after_load(self, loaded_segmented):
        # the object path's whole-collection retriever is built only on
        # demand (match_resources / engine="object"), never by a load
        assert loaded_segmented._retriever is None
        assert loaded_segmented.engine == "columnar"


class TestV3Lifecycle:
    """Generation management and cross-format migration of the binary
    snapshot layout."""

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
            assert loaded.find_experts(need) == built_finder.find_experts(need)

    def test_jsonl_to_v3_migration(self, built_finder, tiny_dataset, tmp_path):
        v2_dir = tmp_path / "v2"
        save_finder(built_finder, v2_dir, snapshot_format="jsonl")
        migrated = ExpertFinder.load(v2_dir, tiny_dataset.analyzer)
        v3_dir = tmp_path / "v3"
        migrated.save(v3_dir)
        assert (v3_dir / "CURRENT").exists()
        reloaded = ExpertFinder.load(v3_dir, tiny_dataset.analyzer)
        for need in tiny_dataset.queries:
            assert reloaded.find_experts(need) == built_finder.find_experts(need)

    def test_format_switch_prunes_other_layout(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "switch"
        built_finder.save(directory)
        assert (directory / "CURRENT").exists()
        # v3 -> jsonl: the generation layout must disappear
        built_finder.save(directory, snapshot_format="jsonl")
        assert not (directory / "CURRENT").exists()
        assert not any(directory.glob("gen-*"))
        assert (directory / "segments.jsonl").exists()
        assert (directory / "segment-0000.jsonl.gz").exists()
        # jsonl -> v3: the flat files must disappear
        built_finder.save(directory)
        assert (directory / "CURRENT").exists()
        assert not (directory / "segments.jsonl").exists()
        assert not any(directory.glob("*.jsonl.gz"))
        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        for need in tiny_dataset.queries:
            assert loaded.find_experts(need) == built_finder.find_experts(need)

    def test_prune_leaves_unrecognized_files_alone(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "shared"
        built_finder.save(directory)
        stranger = directory / "NOTES.txt"
        stranger.write_text("hands off\n", encoding="utf-8")
        built_finder.save(directory)
        assert stranger.read_text(encoding="utf-8") == "hands off\n"

    def test_v3_rankings_match_jsonl_rankings(
        self, built_finder, tiny_dataset, tmp_path
    ):
        v3 = tmp_path / "as-v3"
        v2 = tmp_path / "as-jsonl"
        built_finder.save(v3)
        built_finder.save(v2, snapshot_format="jsonl")
        from_v3 = ExpertFinder.load(v3, tiny_dataset.analyzer)
        from_v2 = ExpertFinder.load(v2, tiny_dataset.analyzer)
        for need in tiny_dataset.queries:
            assert from_v3.find_experts(need) == from_v2.find_experts(need)

    def test_save_rejects_unknown_format(self, built_finder, tmp_path):
        with pytest.raises(ValueError, match="snapshot_format"):
            built_finder.save(tmp_path / "bad", snapshot_format="v9")

    def test_segmented_v3_lazy_segments_hydrate_on_demand(
        self, analyzer, tmp_path
    ):
        finder = _build_segmented(analyzer)
        reference = {need: finder.find_experts(need) for need in _SEG_NEEDS}
        directory = tmp_path / "lazy"
        finder.save(directory)
        loaded = ExpertFinder.load(directory, analyzer)
        # sealed segments come back cold: columns mapped, indexes unbuilt
        segments = loaded.segmented_index._segments
        assert all(seg._term_index is None for seg in segments)
        for need, expected in reference.items():
            assert loaded.find_experts(need) == expected
        # queries score straight off the mapped columns — no hydration
        assert all(seg._term_index is None for seg in segments)
        # explicit index access (merge/re-save path) hydrates on demand
        for seg in segments:
            assert seg.term_index.document_count == seg.document_count
        assert all(seg._term_index is not None for seg in segments)

# -- block-max pruning metadata -----------------------------------------------

from repro.storage.binary import MappedSections, write_sections  # noqa: E402

#: section names that carry block-max metadata (per-prefix quadruple
#: plus the shared span) — what _strip_block_sections removes to
#: simulate a snapshot written before pruning existed
_BLOCK_SUFFIXES = ("bid", "bmax", "blkoff", "boff")


def _is_block_section(name):
    return name == "blk#span" or name.rpartition("#")[2] in _BLOCK_SUFFIXES


def _strip_block_sections(path):
    """Rewrite the section container at *path* without block metadata,
    byte-preserving every other section."""
    mapped = MappedSections.open(path)
    kept = []
    for name in mapped.names():
        if _is_block_section(name):
            continue
        dtype, offset, length = mapped._toc[name]
        kept.append((name, dtype, bytes(mapped._view[offset:offset + length])))
    del mapped  # release the exported memoryviews before rewriting
    write_sections(path, kept)


class TestBlockMaxPersistence:
    """v3 snapshots persist the pruning block metadata; older v3 files
    without it must still load and serve pruned queries (the loader
    recomputes blocks on first use)."""

    def test_engine_and_segments_carry_block_sections(
        self, snapshot_dir, segmented_snapshot_dir
    ):
        gen = _generation_dir(snapshot_dir)
        assert not (gen / "engine.bin").exists()  # legacy, never written
        names = MappedSections.open(gen / "segment-0000.bin").names()
        assert "blk#span" in names
        for prefix in ("term", "ent"):
            for suffix in _BLOCK_SUFFIXES:
                assert f"{prefix}#{suffix}" in names
        seg_gen = _generation_dir(segmented_snapshot_dir)
        for seg_file in sorted(seg_gen.glob("segment-*.bin")):
            assert "blk#span" in MappedSections.open(seg_file).names()
        # the write buffer preserves postings order and is hydrated on
        # load, so it must NOT carry block sections
        buffer_names = MappedSections.open(seg_gen / "buffer.bin").names()
        assert not any(_is_block_section(n) for n in buffer_names)

    def test_loaded_engine_adopts_stored_blocks(
        self, built_finder, loaded_finder, tiny_dataset
    ):
        (segment,) = loaded_finder.segmented_index.iter_segments()
        # adopted from the snapshot, not recomputed on first pruned use
        assert segment._term_blocks
        loaded_finder.engine = "columnar-pruned"
        try:
            for need in tiny_dataset.queries:
                assert loaded_finder.find_experts(need, window=2) == (
                    built_finder.find_experts(need, window=2)
                )
        finally:
            loaded_finder.engine = "columnar"
        assert loaded_finder.pruning_stats.pruned_queries >= len(
            tiny_dataset.queries
        )

    def test_block_span_round_trips(self, tiny_dataset, tmp_path):
        finder = ExpertFinder.build(
            tiny_dataset.merged_graph,
            tiny_dataset.candidates_for(None),
            tiny_dataset.analyzer,
            FinderConfig(),
            corpus=tiny_dataset.corpus,
            block_span=48,
        )
        assert finder.segmented_index.iter_segments()[0].block_span == 48
        directory = tmp_path / "span48"
        finder.save(directory)
        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        assert loaded.segmented_index.iter_segments()[0].block_span == 48
        assert loaded.segmented_index.block_span == 48

    def test_pre_block_monolithic_snapshot_serves_pruned(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "preblock"
        built_finder.save(directory)
        _strip_block_sections(_generation_dir(directory) / "segment-0000.bin")
        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        (segment,) = loaded.segmented_index.iter_segments()
        assert not segment._term_blocks  # nothing adopted...
        loaded.engine = "columnar-pruned"
        for need in tiny_dataset.queries:
            assert loaded.find_experts(need, window=2) == (
                built_finder.find_experts(need, window=2)
            )
        assert loaded.pruning_stats.pruned_queries == len(tiny_dataset.queries)
        assert segment._term_blocks  # ...recomputed on first pruned use

    def test_pre_block_segmented_snapshot_serves_pruned(
        self, segmented_finder, analyzer, tmp_path
    ):
        directory = tmp_path / "preblock-seg"
        segmented_finder.save(directory)
        gen = _generation_dir(directory)
        for seg_file in sorted(gen.glob("segment-*.bin")):
            _strip_block_sections(seg_file)
        loaded = ExpertFinder.load(directory, analyzer)
        loaded.engine = "columnar-pruned"
        for need in _SEG_NEEDS:
            assert loaded.find_experts(need, window=2) == (
                segmented_finder.find_experts(need, window=2)
            )
        assert loaded.pruning_stats.pruned_queries == len(_SEG_NEEDS)

    def test_pruned_queries_leave_segments_unhydrated(
        self, segmented_finder, analyzer, tmp_path
    ):
        directory = tmp_path / "lazy-pruned"
        segmented_finder.save(directory)
        loaded = ExpertFinder.load(directory, analyzer)
        loaded.engine = "columnar-pruned"
        segments = loaded.segmented_index._segments
        assert all(seg._term_index is None for seg in segments)
        for need in _SEG_NEEDS:
            assert loaded.find_experts(need, window=2) == (
                segmented_finder.find_experts(need, window=2)
            )
        # pruned scoring reads the mapped columns and block maxima only
        assert all(seg._term_index is None for seg in segments)

    def test_rejects_malformed_block_sections(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "badblocks"
        built_finder.save(directory)
        segment_bin = _generation_dir(directory) / "segment-0000.bin"
        mapped = MappedSections.open(segment_bin)
        sections = []
        for name in mapped.names():
            dtype, offset, length = mapped._toc[name]
            data = bytes(mapped._view[offset:offset + length])
            if name == "term#bmax":
                data = data[:-8]  # drop one block maximum
            sections.append((name, dtype, data))
        del mapped
        write_sections(segment_bin, sections)
        with pytest.raises(StorageFormatError, match="block sections"):
            load_finder(directory, tiny_dataset.analyzer)


# -- sharded snapshots ---------------------------------------------------------

from repro.synthetic.stream import (  # noqa: E402
    stream_candidates,
    stream_queries,
    stream_resources,
)

_SHARD_CANDS = stream_candidates(7)
_SHARD_NEEDS = stream_queries(4, seed=23)


def _build_sharded(analyzer, shards=3):
    finder = _ExpertFinder.from_stream(
        _SHARD_CANDS,
        stream_resources(_SHARD_CANDS, 70, seed=23),
        analyzer,
        FinderConfig(window=None),
        shards=shards,
    )
    # leave post-build streaming state behind too: one indexed observe
    # and one language-cut (evidence-only) observe
    finder.observe("post1", "a late freestyle swimming report", [(_SHARD_CANDS[0], 1)])
    finder.observe(
        "post2",
        "questa e una bella giornata per nuotare in piscina",
        [(_SHARD_CANDS[1], 1)],
    )
    return finder


@pytest.fixture(scope="module")
def sharded_finder(analyzer):
    return _build_sharded(analyzer)


@pytest.fixture(scope="module")
def sharded_oracle(analyzer):
    """The unsharded object path over the same stream and observes."""
    finder = _build_sharded(analyzer, shards=None)
    finder.engine = "object"
    return finder


@pytest.fixture(scope="module")
def sharded_snapshot_dir(sharded_finder, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded") / "finder"
    sharded_finder.save(directory)
    return directory


@pytest.fixture(scope="module")
def loaded_sharded(sharded_snapshot_dir, analyzer):
    return ExpertFinder.load(sharded_snapshot_dir, analyzer)


class TestShardedRoundTrip:
    def test_layout(self, sharded_snapshot_dir, sharded_finder):
        gen = _generation_dir(sharded_snapshot_dir)
        for name in ("stats.bin", "evidence.bin", "shards.jsonl",
                     "shard-0000.bin", "shard-0001.bin", "shard-0002.bin"):
            assert (gen / name).is_file(), name
        assert not (gen / "shard-0003.bin").exists()

    def test_mode_and_shape_survive(self, loaded_sharded, sharded_finder):
        assert loaded_sharded.index_mode == "sharded"
        loaded_stats = loaded_sharded.sharded_index.stats
        built_stats = sharded_finder.sharded_index.stats
        assert loaded_stats.shards == built_stats.shards == 3
        assert loaded_stats.shard_docs == built_stats.shard_docs
        assert loaded_stats.documents == built_stats.documents
        assert (
            loaded_sharded.indexed_resources == sharded_finder.indexed_resources
        )

    @pytest.mark.parametrize("engine", ("columnar", "columnar-pruned"))
    def test_rankings_survive(self, loaded_sharded, sharded_oracle, engine):
        loaded_sharded.engine = engine
        for need in _SHARD_NEEDS:
            for window in (5, None, 0.5):
                assert loaded_sharded.find_experts(need, window=window) == (
                    sharded_oracle.find_experts(need, window=window)
                )

    def test_scatter_pool_over_mapped_shards(self, loaded_sharded, sharded_finder):
        loaded_sharded.engine = "columnar"
        executor = loaded_sharded.start_scatter_pool()
        try:
            assert executor.worker_count == 3
            for need in _SHARD_NEEDS:
                assert loaded_sharded.find_experts(need, window=6) == (
                    sharded_finder.find_experts(need, window=6)
                )
        finally:
            loaded_sharded.close_scatter_pool()

    def test_observe_after_load_reaches_restarted_pool(
        self, sharded_snapshot_dir, analyzer
    ):
        loaded = ExpertFinder.load(sharded_snapshot_dir, analyzer)
        reference = ExpertFinder.load(sharded_snapshot_dir, analyzer)
        loaded.engine = "columnar"
        loaded.observe("late1", "one more gold medal race recap",
                       [(_SHARD_CANDS[2], 1)])
        reference.observe("late1", "one more gold medal race recap",
                          [(_SHARD_CANDS[2], 1)])
        loaded.start_scatter_pool()
        try:
            # workers open the on-disk state, so the post-load observe
            # must be replayed into them
            for need in _SHARD_NEEDS:
                assert loaded.find_experts(need, window=6) == (
                    reference.find_experts(need, window=6)
                )
            # a restarted pool re-opens the disk state; the replay log
            # must cover it again
            loaded.close_scatter_pool()
            loaded.start_scatter_pool()
            for need in _SHARD_NEEDS:
                assert loaded.find_experts(need, window=6) == (
                    reference.find_experts(need, window=6)
                )
        finally:
            loaded.close_scatter_pool()

    def test_resave_roundtrip(self, loaded_sharded, sharded_finder, tmp_path, analyzer):
        directory = tmp_path / "resave"
        loaded_sharded.save(directory)
        again = ExpertFinder.load(directory, analyzer)
        for need in _SHARD_NEEDS:
            assert again.find_experts(need) == sharded_finder.find_experts(need)

    def test_jsonl_save_rejected(self, sharded_finder, tmp_path):
        with pytest.raises(ValueError, match="v3"):
            sharded_finder.save(tmp_path / "flat", snapshot_format="jsonl")


class TestShardedFormatGuards:
    @pytest.fixture
    def broken_dir(self, sharded_finder, tmp_path):
        directory = tmp_path / "broken"
        sharded_finder.save(directory)
        return directory

    def test_manifest_shard_count_mismatch(self, broken_dir, analyzer):
        _edit_manifest(
            _generation_dir(broken_dir) / "shards.jsonl",
            lambda records: [
                {**r, "shards": 5} if r["type"] == "manifest" else r
                for r in records
            ],
        )
        with pytest.raises(StorageFormatError, match="declares"):
            load_finder(broken_dir, analyzer)

    def test_manifest_out_of_order(self, broken_dir, analyzer):
        _edit_manifest(
            _generation_dir(broken_dir) / "shards.jsonl",
            lambda records: [records[0]] + list(reversed(records[1:])),
        )
        with pytest.raises(StorageFormatError, match="order"):
            load_finder(broken_dir, analyzer)

    def test_missing_shard_file(self, broken_dir, analyzer):
        (_generation_dir(broken_dir) / "shard-0001.bin").unlink()
        with pytest.raises(StorageFormatError, match="missing"):
            load_finder(broken_dir, analyzer)

    def test_meta_invalid_shard_count(self, broken_dir, analyzer):
        _edit_manifest(
            _generation_dir(broken_dir) / "meta.jsonl",
            lambda records: [
                {**r, "shards": 0} if r["type"] == "snapshot" else r
                for r in records
            ],
        )
        with pytest.raises(StorageFormatError, match="shard count"):
            load_finder(broken_dir, analyzer)

    def test_stats_document_count_cross_checked(self, broken_dir, analyzer):
        _edit_manifest(
            _generation_dir(broken_dir) / "meta.jsonl",
            lambda records: [
                {**r, "indexed": r["indexed"] + 1}
                if r["type"] == "counts"
                else r
                for r in records
            ],
        )
        with pytest.raises(StorageFormatError, match="statistics cover"):
            load_finder(broken_dir, analyzer)

    def test_open_shard_rejects_unsharded_generation(
        self, snapshot_dir, analyzer
    ):
        from repro.storage.snapshot import open_shard

        with pytest.raises(StorageFormatError, match="not a sharded"):
            open_shard(_generation_dir(snapshot_dir), 0)

    def test_open_shard_rejects_bad_index(self, broken_dir):
        from repro.storage.snapshot import open_shard

        with pytest.raises(ValueError, match="shard must be"):
            open_shard(_generation_dir(broken_dir), 7)
