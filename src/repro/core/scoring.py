"""Scoring weights of the matching and ranking stages (paper Sec. 2.4, 2.4.1).

* :func:`distance_weight` — the resource weight ``wr(rᵢ, ex)``, linearly
  decreasing with the graph distance of the resource from the candidate
  over a fixed interval (the paper uses [0.5, 1]);
* :func:`distance_weight_table` — ``wr`` precomputed for every
  admissible distance, so per-pair aggregation loops pay one dict
  lookup instead of a recomputation;
* :func:`entity_weight` — Eq. 2's entity weight ``we = 1 + dScore``;
* :func:`window_size` — the window parameter as a resource count.

Eq. 3 itself, ``score(q, ex) = Σ score(q, rᵢ) · wr(rᵢ, ex)``, is folded
by ``SegmentedIndex._rank`` (:mod:`repro.index.segments`) — one
``np.bincount`` over the windowed documents' evidence rows in rank
order, weighted by this module's ``wr`` table. The write buffer stores
each entity posting's ``we`` from :func:`entity_weight` for the Eq. 1
kernel.
"""

from __future__ import annotations

import math


def distance_weight(
    distance: int,
    max_distance: int,
    interval: tuple[float, float] = (0.5, 1.0),
) -> float:
    """``wr`` for a resource at *distance*, linear over *interval*.

    Distance 0 gets the high end, ``max_distance`` the low end. With the
    paper's setting (interval [0.5, 1], max distance 2): d0 → 1.0,
    d1 → 0.75, d2 → 0.5. When only one distance level is in play the
    weight is the high end (no decay to distribute).

    >>> [distance_weight(d, 2) for d in (0, 1, 2)]
    [1.0, 0.75, 0.5]
    """
    if distance < 0 or distance > max_distance:
        raise ValueError(f"distance {distance} outside 0..{max_distance}")
    low, high = interval
    if max_distance == 0:
        return high
    return high - (high - low) * (distance / max_distance)


def distance_weight_table(
    max_distance: int,
    interval: tuple[float, float] = (0.5, 1.0),
) -> dict[int, float]:
    """``wr`` for every admissible distance, keyed 0..*max_distance*.

    The table values are exactly :func:`distance_weight`'s, so callers
    that fold many (resource, supporter) pairs can replace the per-pair
    recomputation with one lookup without changing a single float.

    >>> distance_weight_table(2)
    {0: 1.0, 1: 0.75, 2: 0.5}
    """
    return {
        d: distance_weight(d, max_distance, interval)
        for d in range(max_distance + 1)
    }


def entity_weight(d_score: float) -> float:
    """Eq. 2: ``we = 1 + dScore`` for a recognized entity.

    The annotator only emits entities with ``dScore > 0`` (ε-pruning), so
    the zero branch of Eq. 2 corresponds to entities absent from the
    resource, which simply contribute nothing to the sum.
    """
    if d_score < 0.0:
        raise ValueError(f"dScore must be non-negative, got {d_score}")
    return 1.0 + d_score if d_score > 0.0 else 0.0


def window_size(window: int | float | None, total_matches: int) -> int:
    """Resolve the window parameter to an absolute resource count.

    An ``int`` is an absolute count, a ``float`` in (0, 1] a fraction of
    the matches, ``None`` disables the window (mirroring
    :class:`~repro.core.config.FinderConfig`). Anything else —
    fractions outside (0, 1], non-positive counts, bools — is rejected
    rather than silently reinterpreted (``window=2.0`` used to mean
    "all", ``window=True`` used to mean 1).

    >>> window_size(100, 5000)
    100
    >>> window_size(0.1, 5000)
    500
    >>> window_size(None, 5000)
    5000
    """
    if total_matches < 0:
        raise ValueError("total_matches must be non-negative")
    if window is None:
        return total_matches
    if isinstance(window, bool):
        raise ValueError("window must be a number or None, not a bool")
    if isinstance(window, float):
        if not 0.0 < window <= 1.0:
            raise ValueError(f"fractional window must be in (0, 1], got {window}")
        return min(total_matches, max(1, math.ceil(window * total_matches)))
    if window <= 0:
        raise ValueError(f"integer window must be positive, got {window}")
    return min(total_matches, window)

