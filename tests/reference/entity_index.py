# repro: lint-module[repro.index.reference.entity_index]
"""Entity inverted index.

Symmetric to the term index, but each posting also carries the best
disambiguation confidence (``dScore``) with which the entity was
recognized in the document — the quantity Eq. 2 turns into the weight
``we(e, r) = 1 + dScore(e, r)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class EntityPosting:
    """One document entry in an entity's postings list."""

    doc_id: str
    entity_frequency: int
    d_score: float

    def __post_init__(self) -> None:
        if self.entity_frequency <= 0:
            raise ValueError("entity_frequency must be positive")
        if not 0.0 <= self.d_score <= 1.0:
            raise ValueError(f"d_score must be in [0, 1], got {self.d_score}")


class EntityIndex:
    """Append-only entity → postings index."""

    def __init__(self) -> None:
        self._postings: dict[str, list[EntityPosting]] = {}
        self._doc_ids: set[str] = set()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic write counter, bumped by every :meth:`add_document`;
        same auto-invalidation contract as
        :attr:`tests.reference.inverted.InvertedIndex.version`."""
        return self._version

    def add_document(self, doc_id: str, entity_counts: dict[str, tuple[int, float]]) -> None:
        """Index a document's entities: ``uri → (count, max dScore)``."""
        if doc_id in self._doc_ids:
            raise ValueError(f"document {doc_id!r} already indexed")
        self._doc_ids.add(doc_id)
        self._version += 1
        for uri, (count, d_score) in entity_counts.items():
            if count > 0:
                self._postings.setdefault(uri, []).append(
                    EntityPosting(doc_id, count, d_score)
                )

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def entity_count(self) -> int:
        return len(self._postings)

    def __contains__(self, uri: str) -> bool:
        return uri in self._postings

    def postings(self, uri: str) -> tuple[EntityPosting, ...]:
        return tuple(self._postings.get(uri, ()))

    def document_frequency(self, uri: str) -> int:
        return len(self._postings.get(uri, ()))

    def entities(self) -> tuple[str, ...]:
        return tuple(self._postings)

    # -- snapshot support ----------------------------------------------------------

    def doc_ids(self) -> frozenset[str]:
        """Every indexed document id (including entity-less documents)."""
        return frozenset(self._doc_ids)

    def items(self) -> Iterator[tuple[str, tuple[EntityPosting, ...]]]:
        """Iterate ``(uri, postings)`` pairs in index order."""
        for uri, postings in self._postings.items():
            yield uri, tuple(postings)

    @classmethod
    def restore(
        cls,
        doc_ids: Iterable[str],
        postings: Mapping[str, Sequence[EntityPosting]],
    ) -> "EntityIndex":
        """Rebuild an index from snapshot state, preserving postings
        order (which fixes the float summation order of retrieval)."""
        index = cls()
        index._doc_ids = set(doc_ids)
        for uri, plist in postings.items():
            for posting in plist:
                if posting.doc_id not in index._doc_ids:
                    raise ValueError(
                        f"posting for unknown document {posting.doc_id!r}"
                    )
            index._postings[uri] = list(plist)
        return index
