"""Platform extraction substrate (paper Sec. 2.3, first paragraph).

The paper collected resources from Facebook, Twitter, and LinkedIn
through their public APIs, using CrowdSearcher-issued auth tokens and
honouring user privacy settings. We do not have the live platforms, so
this package provides structurally faithful simulations:

* :mod:`repro.extraction.api` — per-platform API clients over a
  server-side :class:`PlatformStore`, with auth tokens, privacy
  enforcement, pagination, and rate limiting;
* :mod:`repro.extraction.url_content` — a synthetic web plus an
  Alchemy-style main-text extractor for linked pages;
* :mod:`repro.extraction.crawler` — the Resource Extraction module that
  walks the APIs and builds a :class:`repro.socialgraph.SocialGraph`,
  and the corpus analyzer that turns every collected node into an
  index-ready analysis.
"""

from repro.extraction.api import (
    AccountRecord,
    AuthToken,
    ContainerRecord,
    PlatformClient,
    PlatformStore,
    RateLimitExceeded,
    PermissionDenied,
)
from repro.extraction.crawler import CorpusAnalyzer, ResourceExtractor
from repro.extraction.privacy import PrivacyPolicy
from repro.extraction.url_content import SyntheticWeb, UrlContentExtractor, WebPage

__all__ = [
    "AccountRecord",
    "AuthToken",
    "ContainerRecord",
    "CorpusAnalyzer",
    "PermissionDenied",
    "PlatformClient",
    "PlatformStore",
    "PrivacyPolicy",
    "RateLimitExceeded",
    "ResourceExtractor",
    "SyntheticWeb",
    "UrlContentExtractor",
    "WebPage",
]
