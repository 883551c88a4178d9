"""Per-stage instrumentation of the cold-build pipeline.

A cold :meth:`ExpertFinder.build` runs three stages — gather the
evidence neighborhoods, analyze the node texts, fill the index — and
:class:`BuildStats` records the wall time of each, so the CLI and the
build benchmark can show where the time went.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BuildStats:
    """Timings and throughput of one :meth:`ExpertFinder.build` (or
    :meth:`ExpertFinder.from_stream`) run."""

    #: unique evidence nodes gathered across all candidates
    nodes: int
    #: nodes whose text was analyzed in this build (not served from a corpus)
    analyzed: int
    #: documents admitted into the index (post language cut)
    indexed: int
    #: wall seconds of the shared-frontier gathering stage
    gather_s: float
    #: wall seconds of the text/entity analysis stage
    analyze_s: float
    #: wall seconds of the index-fill stage (the write buffer's adds,
    #: not their compilation into the base segment)
    index_s: float

    @property
    def total_s(self) -> float:
        """Wall seconds of the three pipeline stages combined."""
        return self.gather_s + self.analyze_s + self.index_s

    @property
    def nodes_per_s(self) -> float:
        """Analysis throughput (analyzed nodes per wall second)."""
        if self.analyze_s <= 0:
            return 0.0
        return self.analyzed / self.analyze_s

    def as_dict(self) -> dict[str, float | int]:
        """Flat machine-readable form (used by ``BENCH_build.json``)."""
        return {
            "nodes": self.nodes,
            "analyzed": self.analyzed,
            "indexed": self.indexed,
            "gather_s": self.gather_s,
            "analyze_s": self.analyze_s,
            "index_s": self.index_s,
            "total_s": self.total_s,
            "nodes_per_s": self.nodes_per_s,
        }

    def render(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        return (
            f"gather {self.gather_s:.2f}s · analyze {self.analyze_s:.2f}s "
            f"({self.analyzed} nodes, {self.nodes_per_s:.0f}/s) · "
            f"index {self.index_s:.2f}s"
        )
