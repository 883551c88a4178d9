# repro: lint-module[repro.index.reference.inverted]
"""Term inverted index.

Maps each stemmed term to its postings list — the documents containing
it and the in-document term frequency. Postings are kept in document
insertion order, which the append-only build makes deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Posting:
    """One document entry in a term's postings list."""

    doc_id: str
    term_frequency: int

    def __post_init__(self) -> None:
        if self.term_frequency <= 0:
            raise ValueError("term_frequency must be positive")


class InvertedIndex:
    """Append-only term → postings index."""

    def __init__(self) -> None:
        self._postings: dict[str, list[Posting]] = {}
        self._doc_ids: set[str] = set()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic write counter, bumped by every :meth:`add_document`.
        Derived caches (collection statistics, memoized posting weights)
        compare it to auto-invalidate, so a direct write can never leave
        stale irf values observable."""
        return self._version

    def add_document(self, doc_id: str, term_counts: dict[str, int]) -> None:
        """Index a document's term bag. Re-adding a doc id is an error —
        the collection is immutable once built."""
        if doc_id in self._doc_ids:
            raise ValueError(f"document {doc_id!r} already indexed")
        self._doc_ids.add(doc_id)
        self._version += 1
        for term, count in term_counts.items():
            if count > 0:
                self._postings.setdefault(term, []).append(Posting(doc_id, count))

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def postings(self, term: str) -> tuple[Posting, ...]:
        """The postings list for *term* (empty if unseen)."""
        return tuple(self._postings.get(term, ()))

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def terms(self) -> tuple[str, ...]:
        return tuple(self._postings)

    # -- snapshot support ----------------------------------------------------------

    def doc_ids(self) -> frozenset[str]:
        """Every indexed document id (including term-less documents)."""
        return frozenset(self._doc_ids)

    def items(self) -> Iterator[tuple[str, tuple[Posting, ...]]]:
        """Iterate ``(term, postings)`` pairs in index order."""
        for term, postings in self._postings.items():
            yield term, tuple(postings)

    @classmethod
    def restore(
        cls,
        doc_ids: Iterable[str],
        postings: Mapping[str, Sequence[Posting]],
    ) -> "InvertedIndex":
        """Rebuild an index from snapshot state, preserving postings
        order (which fixes the float summation order of retrieval)."""
        index = cls()
        index._doc_ids = set(doc_ids)
        for term, plist in postings.items():
            for posting in plist:
                if posting.doc_id not in index._doc_ids:
                    raise ValueError(
                        f"posting for unknown document {posting.doc_id!r}"
                    )
            index._postings[term] = list(plist)
        return index
