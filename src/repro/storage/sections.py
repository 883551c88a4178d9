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
* CSR column groups share a prefix (``term``, ``ent``, ``ev``)
  and name each parallel column ``prefix#column`` via :func:`csr`.

Segment containers written by earlier releases also hold block-max
sections (``blk#span``, ``term#bid`` …); no reader looks them up.
"""

from __future__ import annotations

# -- container file names ----------------------------------------------------------

#: the generation pointer file of a snapshot directory
CURRENT_FILE = "CURRENT"
#: config/counts records of a generation
META_FILE = "meta.jsonl"
#: the segmented index's unsealed write buffer
BUFFER_BIN = "buffer.bin"
#: segment manifest of a generation
MANIFEST_FILE = "segments.jsonl"


def segment_bin(segment_id: int) -> str:
    """The section container holding one sealed segment."""
    return f"segment-{segment_id:04d}.bin"


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

#: the registered layout *file* names, for the ``section-registry``
#: checker's exact-literal matching (section names are caught by their
#: ``prefix#column`` shape; plain string-table names like ``docs`` are
#: too common as record keys to exact-match)
REGISTERED_FILES = frozenset(
    (CURRENT_FILE, META_FILE, BUFFER_BIN, MANIFEST_FILE)
)
