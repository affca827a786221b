"""Tolerant extraction helpers for LLM output."""
from __future__ import annotations

from taxrec._textparse import extract_json_object, iter_content_lines, reply_entries


class TestIterContentLines:
    def test_strips_fences_bullets_and_numbers(self):
        text = "```json\n- first\n2. second\n\n* third\n```"
        assert iter_content_lines(text) == ["first", "second", "third"]


class TestExtractJsonObject:
    def test_object_in_prose(self):
        text = 'Before {"a": [1, 2]} after'
        assert extract_json_object(text) == ({"a": [1, 2]}, 7, 20)

    def test_braces_inside_strings_ignored(self):
        text = '{"a": "close} brace", "b": 1}'
        assert extract_json_object(text)[0] == {"a": "close} brace", "b": 1}

    def test_skips_malformed_then_finds_valid(self):
        text = "{not json} and then {\"ok\": true}"
        assert extract_json_object(text)[0] == {"ok": True}

    def test_none_when_absent(self):
        assert extract_json_object("no braces at all") is None


class TestExtractKvPairs:
    """Replies without a JSON object are read as ``key: v1, v2`` lines."""

    def test_semicolon_segments_on_one_line(self):
        assert reply_entries("genre: fiction; theme: power") == [
            ("genre", ["fiction"]),
            ("theme", ["power"]),
        ]

    def test_multi_value_expansion(self):
        assert reply_entries("genre: a, b") == [("genre", ["a", "b"])]

    def test_long_keys_rejected(self):
        text = "this sentence mentions a ratio of one: two and should be dropped"
        assert reply_entries(text) == []

    def test_bulleted_and_numbered(self):
        assert reply_entries("- genre: a\n3. theme: b") == [("genre", ["a"]), ("theme", ["b"])]


class TestExtractPairs:
    """An embedded JSON object with an entry wins over the lines."""

    def test_prefers_json_over_lines(self):
        text = '{"Genre": ["Fiction"], "Theme": "Power"}'
        assert reply_entries(text) == [("Genre", ["Fiction"]), ("Theme", ["Power"])]

    def test_falls_back_to_lines(self):
        assert reply_entries("genre: fiction") == [("genre", ["fiction"])]

    def test_json_without_usable_pairs_falls_back(self):
        # The lines around the object are read; the object is not shredded.
        text = '{"note": []}\ngenre: fiction'
        assert reply_entries(text) == [("genre", ["fiction"])]

    def test_pairs_from_json_expands_arrays(self):
        assert reply_entries('{"a": ["x", "y"], "b": 3}') == [("a", ["x", "y"]), ("b", ["3"])]
