"""Sanitization of raw social-media text.

Social resources carry markup and platform artifacts that must be removed
before tokenization: HTML tags and entities, URLs, @-mentions, hashtag
markers (the tag word itself is kept, as it usually carries topic
information), and control characters.
"""

from __future__ import annotations

import html
import re
import unicodedata

_URL_RE = re.compile(r"""(?:https?://|www\.)[^\s<>"']+""", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[^>]{0,256}>")
_MENTION_RE = re.compile(r"(?<!\w)@\w{1,64}")
_HASHTAG_RE = re.compile(r"(?<!\w)#(\w{1,139})")
_RETWEET_RE = re.compile(r"(?<!\w)RT\s*:?\s+", re.UNICODE)
_WHITESPACE_RE = re.compile(r"\s+")


def strip_urls(text: str) -> str:
    """Remove URLs from *text* (their content is handled separately by
    :mod:`repro.extraction.url_content`)."""
    return _URL_RE.sub(" ", text)


def extract_urls(text: str) -> list[str]:
    """Return the URLs embedded in *text*, in order of appearance."""
    return _URL_RE.findall(text)


def strip_markup(text: str) -> str:
    """Remove HTML tags and decode HTML entities."""
    return html.unescape(_HTML_TAG_RE.sub(" ", text))


def strip_social_artifacts(text: str) -> str:
    """Remove platform artifacts: RT markers and @-mentions; unwrap hashtags
    so ``#freestyle`` contributes the term ``freestyle``."""
    text = _MENTION_RE.sub(" ", text)
    text = _RETWEET_RE.sub(" ", text)
    # unwrap nested markers ("##tag") to a fixpoint so sanitization is
    # idempotent
    while True:
        unwrapped = _HASHTAG_RE.sub(r"\1", text)
        if unwrapped == text:
            return text
        text = unwrapped


def strip_control_chars(text: str) -> str:
    """Drop non-printable/control characters, normalizing to NFC."""
    # ASCII is NFC-invariant, and no printable ASCII character is in
    # category C, so such text comes back unchanged
    if text.isascii() and text.isprintable():
        return text
    text = unicodedata.normalize("NFC", text)
    return "".join(ch for ch in text if unicodedata.category(ch)[0] != "C" or ch in "\t\n ")


def sanitize(text: str) -> str:
    """Run the full sanitization chain and collapse whitespace.

    >>> sanitize("RT @bob: <b>Great</b> #freestyle gold http://t.co/x !")
    'Great freestyle gold !'
    """
    # iterate to a fixpoint: decoding HTML entities can reveal new markup
    # ("&lt;b&gt;" → "<b>"), so one pass is not always enough
    for _ in range(4):
        previous = text
        text = strip_markup(text)
        text = strip_control_chars(text)
        text = strip_urls(text)
        text = strip_social_artifacts(text)
        text = _WHITESPACE_RE.sub(" ", text).strip()
        if text == previous:
            break
    return text
