"""Expert finding core (paper Sec. 2.1, 2.4, 2.4.1).

The public API: build an :class:`ExpertFinder` over a social graph and a
set of candidate experts, then ask it expertise needs and get back a
ranked list of experts.

>>> from repro import ExpertFinder, FinderConfig  # doctest: +SKIP
>>> finder = ExpertFinder.build(graph, candidates, corpus)  # doctest: +SKIP
>>> ranking = finder.find_experts("best freestyle swimmer")  # doctest: +SKIP
"""

from repro.core.build_stats import BuildStats
from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.need import ExpertiseNeed
from repro.core.need_analysis import DomainScore, NeedAnalyzer
from repro.core.platform_choice import ChannelRecommendation, PlatformChooser
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight
from repro.core.service import ExpertSearchService, ServiceStats

__all__ = [
    "BuildStats",
    "ChannelRecommendation",
    "DomainScore",
    "ExpertFinder",
    "ExpertScore",
    "ExpertSearchService",
    "ExpertiseNeed",
    "FinderConfig",
    "NeedAnalyzer",
    "PlatformChooser",
    "ServiceStats",
    "distance_weight",
]
