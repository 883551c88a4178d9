"""The object reference path of paper Eq. 1–3, kept beside the oracle.

Plain posting-object indexes (:mod:`.inverted`, :mod:`.entity_index`),
their collection statistics (:mod:`.statistics`), the document-at-a-time
Eq. 1 retriever (:mod:`.vsm`) and the window cut and Eq. 3 fold
(:mod:`.ranking`) score with plain dicts. No query is served through
them: ``tests/oracle.py`` runs them over a finder's collection, and the
served path (:class:`repro.index.segments.SegmentedIndex`) must return
the same rankings, compared with ``==``.

Each module opens with a ``# repro: lint-module[...]`` header that
places it in the ``repro.index`` or ``repro.core`` lint scope, so
``repro lint`` checks it under the determinism, float-equality,
mmap-discipline and section-registry rules as it does the scoring code
in ``src/``.
"""
