"""Persistence layer.

Social graphs, analyzed corpora, and whole evaluation datasets can be
serialized to a compact JSON-lines format (optionally gzipped) and
loaded back bit-identically. This serves two needs:

* **caching** — the SMALL dataset takes ~40 s to generate and analyze;
  a cached copy loads in a fraction of that (see
  :func:`repro.storage.cache.load_or_build`);
* **interchange** — downstream users can export real crawled data into
  the same format and run the finder on it without touching the
  generator.

Format: one JSON object per line, first line is a header with a record
``kind`` and format version; subsequent lines are typed records
(``profile``, ``resource``, ``container``, edges, analyses…).

Finder snapshots use a binary, mmap-able format instead (snapshot v3 —
see :mod:`repro.storage.binary` and :mod:`repro.storage.snapshot`) for
O(1) serving warm-starts; ``repro inspect`` prints one as JSON.
"""

from repro.storage.binary import MappedSections, pack_strings, write_sections
from repro.storage.cache import load_or_build
from repro.storage.corpus_io import load_corpus, save_corpus
from repro.storage.dataset_io import load_dataset, save_dataset
from repro.storage.graph_io import load_graph, save_graph
from repro.storage.jsonl import StorageFormatError
from repro.storage.snapshot import load_finder, save_finder

__all__ = [
    "MappedSections",
    "StorageFormatError",
    "load_corpus",
    "load_dataset",
    "load_finder",
    "load_graph",
    "load_or_build",
    "pack_strings",
    "save_corpus",
    "save_dataset",
    "save_finder",
    "save_graph",
    "write_sections",
]
