"""Fuzzing of the output parsers: structure comes back, or ParseError, nothing else.

Inputs are model-like outputs (``key: value`` lines, bullets, JSON objects)
wrapped in prose and code fences, cut off at an arbitrary point, and spelled
with non-ASCII text, plus arbitrary strings.
"""
from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from taxrec._textparse import reply_entries
from taxrec.catalog import filter_pairs
from taxrec.core import FeaturePair, Taxonomy, normalize_text
from taxrec.errors import ParseError
from taxrec.recommender import RecommendConfig, parse_feature_output
from taxrec.taxonomy import parse_taxonomy

_CHARS = st.characters(exclude_categories=("Cs",))
_WORDS = st.one_of(
    st.sampled_from(["Genre", "théme", "Tone", "日本語", "—", "“Dark”", "Fiction", "a:b", "{", "}"]),
    st.text(_CHARS, max_size=10),
)
_PROSE = st.sampled_from(
    ["", "Sure! Here you go:", "Voilà — la taxonomie :", "Note: see below.", "以下です。"]
)


@st.composite
def model_outputs(draw) -> str:
    table = draw(st.lists(st.tuples(_WORDS, st.lists(_WORDS, min_size=1, max_size=4)), max_size=5))
    style = draw(st.sampled_from(["lines", "bullets", "json"]))
    if style == "json":
        indent = draw(st.sampled_from([None, 2]))
        body = json.dumps(dict(table), ensure_ascii=draw(st.booleans()), indent=indent)
    else:
        bullet = "- " if style == "bullets" else ""
        body = "\n".join(f"{bullet}{key}: {', '.join(values)}" for key, values in table)
    if draw(st.booleans()):
        body = f"```{draw(st.sampled_from(['', 'json', 'text']))}\n{body}\n```"
    text = f"{draw(_PROSE)}\n{body}\n{draw(_PROSE)}"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


_TEXTS = st.one_of(model_outputs(), st.text(_CHARS, max_size=200))
_ALLOWED = st.sets(st.sampled_from(["genre", "théme", "tone", "日本語", "fiction"]), max_size=4)


def _is_normalized(text: str) -> bool:
    return bool(text) and normalize_text(text) == text


@settings(deadline=None)
@given(_TEXTS, _ALLOWED)
def test_filter_pairs_keeps_only_normalized_allowed_pairs(text, allowed):
    pairs = filter_pairs(text, allowed)
    assert all(isinstance(pair, FeaturePair) for pair in pairs)
    assert all(pair.key in allowed and _is_normalized(pair.value) for pair in pairs)


@settings(deadline=None)
@given(_TEXTS)
def test_feature_lines_yields_named_features_with_values(text):
    for name, values in reply_entries(text):
        assert name and name == name.strip()
        assert values and all(value and value == value.strip() for value in values)


@settings(deadline=None)
@given(_TEXTS)
def test_parse_taxonomy_returns_features_or_parse_error(text):
    try:
        taxonomy = parse_taxonomy(text, "book")
    except ParseError as exc:
        assert exc.raw_text == text
        return
    assert isinstance(taxonomy, Taxonomy) and taxonomy.features
    for feature in taxonomy.features:
        assert _is_normalized(feature.name)
        assert all(_is_normalized(value) for value in feature.values)


@settings(deadline=None)
@given(_TEXTS, st.booleans())
def test_parse_feature_output_returns_pairs_or_parse_error(text, titles):
    taxonomy = parse_taxonomy("genre: fiction\ntone: dark\n日本語: はい", "book")
    cfg = RecommendConfig(recommend_with_titles=titles, taxonomy_feature_count=3)
    try:
        feature_set = parse_feature_output(text, taxonomy, cfg)
    except ParseError:
        return
    assert feature_set.pairs and feature_set.raw_text == text
    keys = set(taxonomy.feature_names) | ({"title"} if titles else set())
    assert all(pair.key in keys and _is_normalized(pair.value) for pair in feature_set.pairs)


# One feature table, rendered in each shape a model may answer in. Keys and
# values avoid the grammar's own delimiters; keys have at most six words and
# no digits, so no key reads as a numbered bullet.
_KEYS = st.one_of(
    st.text(st.sampled_from("abzAZéß日 -'"), max_size=12),
    st.sampled_from(["features", "taxonomy", "Genre", "- Tone"]),
)
_VALUES = st.text(st.sampled_from("abzAZéß日 -'09.)"), max_size=12)
_TABLES = st.lists(
    st.tuples(_KEYS, st.lists(_VALUES, min_size=1, max_size=4)),
    max_size=5,
    unique_by=lambda entry: entry[0],
)


def _renderings(table) -> list[str]:
    return [
        "\n".join(f"{key}: {', '.join(values)}" for key, values in table),
        json.dumps({key: values for key, values in table}),
        json.dumps({key: ", ".join(values) for key, values in table}),
        json.dumps({"features": [{"name": key, "values": values} for key, values in table]}),
    ]


def _taxonomy_or_error(text: str) -> Taxonomy | str:
    try:
        return parse_taxonomy(text, "book")
    except ParseError as exc:
        return str(exc)


@settings(deadline=None)
@given(_TABLES)
def test_every_rendering_of_a_table_parses_the_same(table):
    allowed = {normalize_text(key) for key, _ in table[::2]}
    renderings = _renderings(table)
    assert len({filter_pairs(text, allowed) for text in renderings}) == 1
    assert len({_taxonomy_or_error(text) for text in renderings}) == 1
