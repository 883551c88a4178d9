"""Streaming resource generation — the ``xl`` scale.

The materializing path (:func:`repro.synthetic.dataset.build_dataset`)
builds platform stores, crawls them, and keeps every analyzed resource
in memory; that is exactly right up to the ``small``/``paper`` scales
and exactly wrong at ~1M resources. The ``xl`` scale therefore has no
:class:`EvaluationDataset` at all: this module yields resource *events*
one at a time, and :meth:`ExpertFinder.from_stream` analyzes each one as
it arrives and appends it through the write buffer's ``add``. The
buffer seals once, at the end, into the base segment, so the peak holds
the whole analyzed collection twice — in the buffer's column lists and
in the sealed copy — but never the raw stream or a graph.
``benchmarks/bench_scale.py`` records that peak: a 136 MB ``ru_maxrss``
for a 100,000-resource, 10,000-candidate build (2 vCPUs, Python 3.11).

Events are ``(node_id, text, supporters)`` or
``(node_id, text, supporters, language)`` tuples, the exact shape
``observe`` takes, and the whole stream is a pure function of
``(candidates, resources, seed)``: two passes (say, a finder under
test and the oracle it is checked against) see byte-identical resources
without either one materializing anything.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.synthetic.text_gen import TextGenerator
from repro.synthetic.vocab import DOMAINS

#: the xl scale's defaults: ~1M resources over 10k candidates — the
#: benches parameterize both down for smoke runs
XL_CANDIDATES = 10_000
XL_RESOURCES = 1_000_000

#: fraction of resources in Italian/Spanish (cut by language id, like
#: the materialized datasets' non-English share)
_NON_ENGLISH_RATE = 0.04

#: fraction of English resources that are topical rather than chit-chat
_TOPICAL_RATE = 0.7


def stream_candidates(count: int = XL_CANDIDATES) -> list[str]:
    """The candidate ids of a *count*-candidate stream, in order."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return [f"cand{i:05d}" for i in range(count)]


def stream_resources(
    candidates: list[str],
    resources: int = XL_RESOURCES,
    *,
    seed: int = 7,
    max_distance: int = 2,
) -> Iterator[tuple]:
    """Yield *resources* events supporting *candidates*, deterministically.

    Each resource supports 1–3 candidates at distances ``1..max_distance``
    (every resource has at least one supporter, as
    :meth:`ExpertFinder.observe` requires). Texts come from the same
    :class:`~repro.synthetic.text_gen.TextGenerator` the materialized
    datasets use: mostly topical or chit-chat English, with a small
    non-English share yielded as 4-tuples carrying their language.
    """
    if resources < 0:
        raise ValueError(f"resources must be non-negative, got {resources}")
    if max_distance < 1:
        raise ValueError(f"max_distance must be >= 1, got {max_distance}")
    if not candidates:
        raise ValueError("candidates must be non-empty")
    rng = random.Random(seed)
    gen = TextGenerator(rng)
    n_cands = len(candidates)
    for i in range(resources):
        node_id = f"xl{i:08d}"
        supporters = [
            (candidates[j], rng.randint(1, max_distance))
            for j in sorted(rng.sample(range(n_cands), min(rng.randint(1, 3), n_cands)))
        ]
        if rng.random() < _NON_ENGLISH_RATE:
            language, text = gen.non_english_text()
            yield (node_id, text, supporters, language)
        else:
            domain = (
                rng.choice(DOMAINS) if rng.random() < _TOPICAL_RATE else None
            )
            yield (node_id, gen.resource_text(domain), supporters)


def stream_queries(count: int, *, seed: int = 7) -> list[str]:
    """*count* deterministic topical query texts for bench/test drivers
    over a streamed collection (same vocabulary the resources draw on)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = random.Random(seed + 0x5EED)
    gen = TextGenerator(rng)
    return [
        gen.topical_sentence(rng.choice(DOMAINS), length=rng.randint(4, 8))
        for _ in range(count)
    ]
