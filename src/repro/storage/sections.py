"""The registry of snapshot section and file names — the single place
where the v3 binary layout's names are spelled out.

Writer and reader paths agree on the layout only because they agree on
these strings; a typo'd ``"term#of"`` in one path is a silently-wrong
snapshot (the reader raises *missing section*, or worse, adopts a stale
one). Every section name, container file name, and name-shaped suffix
therefore lives here, and the ``section-registry`` rule of
:mod:`repro.analysis` flags any ad-hoc ``prefix#column`` / ``*.bin``
literal in the storage and index packages that bypasses this module.

Naming conventions:

* string tables are a bare name (``docs``, ``terms``) paired with an
  offsets section derived by :func:`offsets_name`;
* CSR column groups share a prefix (``term``, ``ent``, ``ev``, ``stat``)
  and name each parallel column ``prefix#column`` via :func:`csr`;
* block-max metadata uses the four :data:`BLOCK_COLUMNS` columns under
  the owning group's prefix, plus the global :data:`BLOCK_SPAN` scalar.
"""

from __future__ import annotations

# -- container file names ----------------------------------------------------------

#: the generation pointer file of a snapshot directory
CURRENT_FILE = "CURRENT"
#: config/counts records of a generation
META_FILE = "meta.jsonl"
#: legacy (read-only) monolithic collection slice, loaded as one segment
INDEX_BIN = "index.bin"
#: the segmented index's unsealed write buffer
BUFFER_BIN = "buffer.bin"
#: union collection statistics of a sharded snapshot
STATS_BIN = "stats.bin"
#: the sharded coordinator's full evidence rows
EVIDENCE_BIN = "evidence.bin"
#: segment manifest of a segmented snapshot
MANIFEST_FILE = "segments.jsonl"
#: shard manifest of a sharded snapshot
SHARD_MANIFEST_FILE = "shards.jsonl"


def segment_bin(segment_id: int) -> str:
    """The section container holding one sealed segment."""
    return f"segment-{segment_id:04d}.bin"


def shard_bin(shard: int) -> str:
    """The section container holding one candidate shard's slice."""
    return f"shard-{shard:04d}.bin"


# -- string tables -----------------------------------------------------------------

DOCS = "docs"
CANDS = "cands"
TERMS = "terms"
ENTITIES = "entities"
RESOURCES = "resources"

#: suffix pairing a string table with its int64 offsets section
OFFSETS_SUFFIX = "#off"


def offsets_name(name: str) -> str:
    """The offsets section paired with string table *name* (see
    :func:`repro.storage.binary.pack_strings`)."""
    return name + OFFSETS_SUFFIX


# -- CSR column groups -------------------------------------------------------------


def csr(prefix: str, column: str) -> str:
    """The section holding one parallel *column* of CSR group *prefix*."""
    return f"{prefix}#{column}"


#: collection-slice term postings: offsets + (doc, tf) columns
TERM_OFF = csr("term", "off")
TERM_DOC = csr("term", "doc")
TERM_TF = csr("term", "tf")

#: collection-slice entity postings: offsets + (doc, ef, we, ds) columns
ENT_OFF = csr("ent", "off")
ENT_DOC = csr("ent", "doc")
ENT_EF = csr("ent", "ef")
ENT_WE = csr("ent", "we")
ENT_DS = csr("ent", "ds")

#: evidence rows: offsets + (cand, dist) columns
EV_OFF = csr("ev", "off")
EV_CAND = csr("ev", "cand")
EV_DIST = csr("ev", "dist")

#: union statistics (``stats.bin``): scalar N + per-table df columns
STAT_N = csr("stat", "n")
TERM_DF = csr("term", "df")
ENT_DF = csr("ent", "df")

# -- block-max metadata ------------------------------------------------------------

#: scalar: the doc-index span every block of the container is cut on
BLOCK_SPAN = csr("blk", "span")

#: per-group flattened block columns (see ``snapshot._block_sections``):
#: distinct block ids, per-block maxima, per-column delimiters, and the
#: concatenated per-column posting offsets
BLOCK_COLUMNS = ("bid", "bmax", "blkoff", "boff")


def block_name(prefix: str, column: str) -> str:
    """The flattened block-metadata section *column* for group *prefix*;
    *column* must be one of :data:`BLOCK_COLUMNS`."""
    if column not in BLOCK_COLUMNS:
        raise ValueError(
            f"block column must be one of {BLOCK_COLUMNS}, got {column!r}"
        )
    return csr(prefix, column)


#: the registered layout *file* names, for the ``section-registry``
#: checker's exact-literal matching (section names are caught by their
#: ``prefix#column`` shape; plain string-table names like ``docs`` are
#: too common as record keys to exact-match)
REGISTERED_FILES = frozenset(
    (
        CURRENT_FILE, META_FILE, INDEX_BIN, BUFFER_BIN,
        STATS_BIN, EVIDENCE_BIN, MANIFEST_FILE, SHARD_MANIFEST_FILE,
    )
)
