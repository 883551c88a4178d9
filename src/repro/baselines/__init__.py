"""Comparison baselines from the expert-finding literature.

The paper positions its method against the classic *enterprise* expert
retrieval line of work — notably Balog's probabilistic generative
models (reference [3], the TREC Expert Finding standard) — and against
the "classic approach" of matching queries to static profiles (Sec. 1).
This package implements those comparators over the same social data:

* :class:`CandidateModelFinder` — Balog **Model 1**: one smoothed
  language model per candidate, built from all associated documents;
* :class:`DocumentModelFinder` — Balog **Model 2**: documents generate
  the query, candidates aggregate their documents' likelihoods;
* :class:`ProfileTfidfFinder` — the classic profile-only TF-IDF cosine
  matcher the paper's introduction argues against.

The two Balog models are built from an :class:`repro.core.ExpertFinder`
and rank its own collection — its documents, and its Table-1 evidence
weighted by its ``wr`` — so they differ from the paper's system in
scoring alone. The profile matcher reads its candidates' profiles from
the shared corpus. None of them walks the graph or analyzes a node.

All three expose the same ``find_experts(need, *, top_k=None)`` API as
:class:`repro.core.ExpertFinder`, ``top_k`` check included, so the
evaluation harness can score them interchangeably (see
``benchmarks/bench_baseline_comparison.py``).
"""

from repro.baselines.balog import CandidateModelFinder, DocumentModelFinder
from repro.baselines.profile_tfidf import ProfileTfidfFinder

__all__ = [
    "CandidateModelFinder",
    "DocumentModelFinder",
    "ProfileTfidfFinder",
]
