"""Unit tests for repro.textproc.sanitizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc.sanitizer import (
    extract_urls,
    sanitize,
    strip_control_chars,
    strip_markup,
    strip_social_artifacts,
    strip_urls,
)
from tests.text_oracle import reference_strip_control_chars


class TestStripUrls:
    def test_removes_http_url(self):
        assert strip_urls("see http://example.com/x now").split() == ["see", "now"]

    def test_removes_https_url(self):
        assert "https" not in strip_urls("go https://a.b/c?d=1")

    def test_removes_www_url(self):
        assert "www" not in strip_urls("visit www.example.com today")

    def test_keeps_plain_text(self):
        assert strip_urls("no links here") == "no links here"


class TestExtractUrls:
    def test_finds_urls_in_order(self):
        text = "a http://one.example b https://two.example/c"
        assert extract_urls(text) == ["http://one.example", "https://two.example/c"]

    def test_empty_for_plain_text(self):
        assert extract_urls("nothing to see") == []


class TestStripMarkup:
    def test_removes_tags(self):
        assert strip_markup("<b>bold</b> text").split() == ["bold", "text"]

    def test_decodes_entities(self):
        assert strip_markup("fish &amp; chips") == "fish & chips"

    def test_leaves_angle_free_text(self):
        assert strip_markup("a < b and c") == "a < b and c"


class TestStripSocialArtifacts:
    def test_removes_mentions(self):
        assert "@bob" not in strip_social_artifacts("hi @bob how are you")

    def test_unwraps_hashtags(self):
        assert strip_social_artifacts("#swimming is fun") == "swimming is fun"

    def test_removes_retweet_marker(self):
        assert not strip_social_artifacts("RT : hello").startswith("RT")

    def test_email_like_text_is_kept(self):
        # the @ in an email is preceded by a word char: not a mention
        assert "user@example" in strip_social_artifacts("mail user@example today")


class TestStripControlChars:
    def test_removes_control_characters(self):
        assert strip_control_chars("a\x00b\x07c") == "abc"

    def test_keeps_newline_tab_space(self):
        assert strip_control_chars("a\tb\nc d") == "a\tb\nc d"

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.one_of(
            st.text(),
            st.text(st.characters(max_codepoint=0x7F)),
            st.lists(
                st.sampled_from(["a", " ", "\t", "\n", "\x7f", "\x00", "e\u0301", "é", "\u200b"])
            ).map("".join),
        )
    )
    def test_matches_the_reference(self, text):
        # printable ASCII takes the fast path; everything else normalizes
        assert strip_control_chars(text) == reference_strip_control_chars(text)


class TestSanitize:
    def test_full_chain(self):
        raw = "RT @bob: <b>Great</b> #freestyle gold http://t.co/x !"
        assert sanitize(raw) == "Great freestyle gold !"

    def test_collapses_whitespace(self):
        assert sanitize("a    b\n\n  c") == "a b c"

    def test_empty_input(self):
        assert sanitize("") == ""

    def test_idempotent(self):
        once = sanitize("RT @a #b <i>c</i> http://d.e")
        assert sanitize(once) == once

    @pytest.mark.parametrize("junk", ["<script>x</script>", "@m", "#t", "http://u.v"])
    def test_single_artifacts(self, junk):
        cleaned = sanitize(f"hello {junk} world")
        assert "hello" in cleaned and "world" in cleaned
