"""Micro-benchmarks of the system's hot components.

Unlike the per-figure benches (one expensive round each), these run the
classic pytest-benchmark loop to measure steady-state throughput of the
text pipeline, the entity annotator, and a full query on the served
path (Eq. 1 scoring, the window and the Eq. 3 fold) — the costs that
dominate a production deployment of the system.
"""

import pytest

from repro.core.config import FinderConfig
from repro.entity.annotator import EntityAnnotator
from repro.synthetic.seeds import build_knowledge_base
from repro.textproc.pipeline import TextPipeline

SAMPLE_POSTS = [
    "just finished 30min freestyle training at the swimming pool with the team",
    "michael phelps is the best great freestyle gold medal at the olympics",
    "looking for a graphic card to play diablo 3 on my new gaming rig",
    "can anyone explain why copper is such a good conductor of electricity",
    "great concert last night the band played every song from the album",
]


@pytest.fixture(scope="module")
def pipeline():
    return TextPipeline()


@pytest.fixture(scope="module")
def annotator():
    return EntityAnnotator(build_knowledge_base())


def bench_text_pipeline(benchmark, pipeline):
    def analyze_batch():
        return [pipeline.analyze(t) for t in SAMPLE_POSTS]

    results = benchmark(analyze_batch)
    assert all(r.language == "en" for r in results)


def bench_entity_annotation(benchmark, annotator):
    def annotate_batch():
        return [annotator.annotate(t) for t in SAMPLE_POSTS]

    results = benchmark(annotate_batch)
    assert any(results)  # at least one post carries entities


def bench_full_query(benchmark, ctx):
    finder = ctx.runner.finder(None, FinderConfig())
    need = ctx.dataset.queries[21]  # "best freestyle swimmer" domain query

    ranked = benchmark(lambda: finder.find_experts(need))
    assert ranked
