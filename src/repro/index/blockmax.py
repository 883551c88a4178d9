"""Block-max metadata for dynamic pruning: built by sealed segments
(including every shard's), and persisted with them in v3 snapshots.

The pruning design is **document-range aligned**: the interned doc-index
space is cut into fixed spans of ``block_span`` consecutive indexes, and
every posting column of a collection slice is sorted by doc index and
chunked on those *shared* boundaries. Because the boundaries are shared
across columns, the per-block maxima of different query items can be
*summed*: for block ``r`` the combined Eq. 1 score of any document in it
is bounded by

    UB(r) = Σ_terms α · max_r(tf·irf^p)  +  Σ_entities (1−α) · max_r(ef·eirf^p·we)

which is computable from block metadata alone — the property that makes
skipping whole blocks sound. (Per-list 128-posting chunks, the classic
layout for document-at-a-time WAND, do *not* have this property under
term-at-a-time evaluation: their boundaries disagree across columns, so
no per-block bound exists for the combined score.)

Re-sorting a column by doc index is invisible in the rankings: each
document appears at most once per column, so its accumulated leg sum is
the same float regardless of where in the column its posting sits, and
every downstream sort key — ``(-score, doc)``, ``(-score, candidate)``
— is unique. Segments therefore stay byte-identical to the object path
on doc-sorted columns.

Exactness under floats needs one guard: a document's final score is
combined as ``α·T + (1−α)·E`` while the bound accumulates
``Σ leg·max`` incrementally, and the two associate differently — the
exact score can exceed the bound by a few ulps (observed in practice).
:func:`ub_slack` returns a multiplicative inflation, linear in the query
item count, that dominates the worst-case relative rounding gap; blocks
are skipped only when ``UB·slack`` still cannot reach the heap
threshold, so ulp-level disagreement can never drop a window document.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

#: default doc-index span per block. Tuned on the tiny synthetic scale
#: (732 docs): spans of 32 keep per-block agenda overhead low while
#: leaving enough blocks (~23) for the upper-bound ordering to separate
#: item-co-occurrence clusters from one-item tails.
DEFAULT_BLOCK_SPAN = 32


def ub_slack(n_items: int) -> float:
    """Multiplicative inflation for block upper bounds.

    Covers the relative rounding gap between a document's exact combined
    score (``α·Σtf·tw + (1−α)·Σef·ew·we``, two scaled leg sums) and the
    incrementally summed per-item bound: both are sums/products of the
    same ≤ ``n_items`` nonnegative addends, so their relative float
    disagreement is below ``n_items`` ulps on either side;
    ``4·2^-52 ≈ 8.9e-16`` per item is a ≥4× overestimate of one side's
    unit error, leaving margin for the other.
    """
    return 1.0 + 8.9e-16 * (n_items + 8)


def sort_column(
    docs: Sequence[int], *value_cols: Sequence
) -> tuple[array, ...]:
    """Reorder parallel posting columns by doc index (ascending).

    Returns ``(docs, *value_cols)`` as fresh arrays; value columns keep
    their original typecodes (int64 → ``"l"``, float64 → ``"d"``).
    """
    order = sorted(range(len(docs)), key=docs.__getitem__)
    out: list[array] = [array("l", (docs[i] for i in order))]
    for col in value_cols:
        code = "d" if isinstance(col[0] if len(col) else 0.0, float) else "l"
        out.append(array(code, (col[i] for i in order)))
    return tuple(out)


def is_doc_sorted(docs: Sequence[int]) -> bool:
    """True when the doc-index column is already ascending."""
    prev = -1
    for d in docs:
        if d < prev:
            return False
        prev = d
    return True


def compute_blocks(
    docs: Sequence[int], values: Sequence, block_span: int
) -> tuple[array, array, array]:
    """Per-column block metadata over a **doc-sorted** column.

    Returns ``(bids, boff, bmax)``: the distinct block ids the column's
    postings fall into (ascending), posting offsets delimiting each
    block's run (``len(bids) + 1`` entries), and the per-block maximum of
    *values*. ``bmax`` adopts the value column's typecode, so raw integer
    frequencies stay integers (segments scale them by the per-query
    weight at evaluation time).
    """
    if block_span <= 0:
        raise ValueError(f"block_span must be positive, got {block_span}")
    bids = array("l")
    boff = array("l", [0])
    code = "d" if isinstance(values[0] if len(values) else 0.0, float) else "l"
    bmax = array(code)
    cur = -1
    for i, d in enumerate(docs):
        b = d // block_span
        if b != cur:
            if b < cur:
                raise ValueError("compute_blocks requires a doc-sorted column")
            if cur >= 0:
                boff.append(i)
            bids.append(b)
            bmax.append(values[i])
            cur = b
        elif values[i] > bmax[-1]:
            bmax[-1] = values[i]
    boff.append(len(docs))
    return bids, boff, bmax


class PruningStats:
    """Cumulative counters for the block-max evaluation mode.

    ``fallback_queries`` counts pruned-mode requests that routed to the
    exhaustive path because the window was fractional or ``None`` (their
    width depends on the total match count, which pruning never learns).
    """

    __slots__ = (
        "pruned_queries",
        "fallback_queries",
        "blocks_scanned",
        "blocks_skipped",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pruned_queries = 0
        self.fallback_queries = 0
        self.blocks_scanned = 0
        self.blocks_skipped = 0

    @property
    def skip_rate(self) -> float:
        total = self.blocks_scanned + self.blocks_skipped
        return self.blocks_skipped / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "pruned_queries": self.pruned_queries,
            "fallback_queries": self.fallback_queries,
            "blocks_scanned": self.blocks_scanned,
            "blocks_skipped": self.blocks_skipped,
            "block_skip_rate": self.skip_rate,
        }
