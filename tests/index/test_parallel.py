"""Tests for the cold-build building blocks: parallel analysis and the
serial index fill.

The contract under test is determinism: any worker count must produce
analysis results identical to the serial path, in the same order.
"""

import pytest

from repro.index.analyzer import AnalyzedResource
from repro.index.parallel import analyze_tasks, build_indexes


@pytest.fixture(scope="module")
def tasks():
    texts = [
        "Michael Phelps is the best freestyle swimmer",
        "Training for the swimming competition at the pool",
        "La squadra di nuoto italiana",
        "Road cycling in the mountains, great climbs",
        "short",
        "",
        "Basketball playoffs and three point shooting drills",
        "Un texto sobre natación y entrenamiento",
    ] * 8
    return [
        (f"doc{i}", text, "it" if "nuoto" in text else None)
        for i, text in enumerate(texts)
    ]


class TestAnalyzeTasks:
    def test_parallel_matches_serial(self, analyzer, tasks):
        serial = analyze_tasks(analyzer, tasks, workers=1)
        parallel = analyze_tasks(analyzer, tasks, workers=2, chunk_size=7)
        assert parallel == serial
        assert [a.doc_id for a in parallel] == [t[0] for t in tasks]

    def test_respects_language_annotation(self, analyzer, tasks):
        results = {a.doc_id: a for a in analyze_tasks(analyzer, tasks, workers=2, chunk_size=5)}
        for doc_id, _, language in tasks:
            if language is not None:
                assert results[doc_id].language == language

    def test_small_batches_stay_serial(self, analyzer):
        # fewer tasks than one chunk: no pool is spun up
        out = analyze_tasks(
            analyzer, [("d", "swimming race", None)], workers=8, chunk_size=256
        )
        assert len(out) == 1 and out[0].doc_id == "d"

    def test_empty_tasks(self, analyzer):
        assert analyze_tasks(analyzer, [], workers=4) == []

    @pytest.mark.parametrize("workers,chunk_size", [(0, 1), (-1, 1), (1, 0), (2, -5)])
    def test_invalid_pool_args(self, analyzer, workers, chunk_size):
        with pytest.raises(ValueError):
            analyze_tasks(analyzer, [], workers=workers, chunk_size=chunk_size)


def _documents():
    docs = []
    for i in range(40):
        docs.append(
            AnalyzedResource(
                doc_id=f"doc{i}",
                language="en",
                term_counts={f"term{i % 7}": 1 + i % 3, "common": 1},
                entity_counts={f"ent:{i % 5}": (1, 0.5)} if i % 2 else {},
            )
        )
    return docs


class TestBuildIndexes:
    def test_empty_documents(self):
        terms, entities = build_indexes([])
        assert terms.document_count == 0
        assert entities.document_count == 0

    def test_duplicate_doc_rejected(self):
        docs = _documents()
        docs.append(docs[0])
        with pytest.raises(ValueError):
            build_indexes(docs)
        # compaction merges indexes, and a merge rejects a shared doc too
        first, first_entities = build_indexes(docs[:5])
        second, second_entities = build_indexes(docs[4:10])
        with pytest.raises(ValueError, match="indexed by both"):
            first.merge(second)
        with pytest.raises(ValueError):
            first_entities.merge(second_entities)
