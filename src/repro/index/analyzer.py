"""Resource analysis: raw text → terms + entities.

Bridges the text pipeline (Fig. 4, language-dependent steps) and the
entity annotator into the representation the indexes store: a term
frequency bag and, per entity, an occurrence count and the best
disambiguation confidence seen in the resource.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.entity.annotator import EntityAnnotator
from repro.textproc.pipeline import TextPipeline

#: languages admitted into the index: English resources (paper Sec. 3.1)
#: plus texts too short for identification (profile fragments)
INDEXABLE_LANGUAGES = frozenset({"en", "und"})


@dataclass(frozen=True)
class AnalyzedResource:
    """Index-ready representation of one resource (or one query)."""

    doc_id: str
    language: str
    term_counts: dict[str, int] = field(default_factory=dict)
    #: entity_uri → (occurrence count, max dScore in this document)
    entity_counts: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Number of term occurrences (document length)."""
        return sum(self.term_counts.values())

    @property
    def is_english(self) -> bool:
        return self.language == "en"


class ResourceAnalyzer:
    """Analyze resource/query text into an :class:`AnalyzedResource`.

    The same analyzer processes expertise needs and resources — the paper
    stresses the analysis is "symmetrically performed on both" (Sec. 2.3).
    """

    def __init__(self, pipeline: TextPipeline, annotator: EntityAnnotator):
        self._pipeline = pipeline
        self._annotator = annotator

    def analyze(self, doc_id: str, text: str, *, language: str | None = None) -> AnalyzedResource:
        """Run text processing and entity annotation on *text*."""
        analyzed = self._pipeline.analyze(text, language=language)
        term_counts: Counter[str] = Counter(analyzed.terms)
        entity_counts: dict[str, tuple[int, float]] = {}
        # Entities are recognized on unstemmed tokens (anchors are surface
        # forms); only indexable text is annotated, mirroring the paper's
        # English-only corpus.
        if analyzed.language in INDEXABLE_LANGUAGES:
            for ann in self._annotator.annotate_tokens(analyzed.tokens):
                count, best = entity_counts.get(ann.entity_uri, (0, 0.0))
                entity_counts[ann.entity_uri] = (count + 1, max(best, ann.d_score))
        return AnalyzedResource(
            doc_id=doc_id,
            language=analyzed.language,
            term_counts=dict(term_counts),
            entity_counts=entity_counts,
        )
