"""The taxonomy's reply table gives what the general reply parser gives.

A reply made only of a taxonomy's canonical ``name: value`` lines is read
through the table; every other reply through ``filter_pairs``. The property
below parses the same replies with the table and with it switched off and
compares everything a caller sees.
"""
from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from taxrec import _textparse, catalog, recommender
from taxrec.catalog import CategorizeStats, canonical_pairs
from taxrec.core import Feature, FeaturePair, Item, Taxonomy
from taxrec.errors import ParseError
from taxrec.gateway import MockProvider
from taxrec.recommender import RecommendConfig, parse_feature_output
from taxrec.synthetic import make_synthetic_dataset
from taxrec.taxonomy import generate_taxonomy, truncate_features

from conftest import ScriptedProvider

# Names and values: plain words, or words mixed with the grammar's
# delimiters, bullets, a number prefix, upper case and non-ASCII letters, so
# some canonical lines read as one pair, some as several, some as a dropped
# pair and some as nothing.
_WORD = st.text(st.sampled_from("abcéß日"), min_size=1, max_size=4)
_PIECES = st.one_of(
    _WORD,
    st.sampled_from(["Z", "İ", " ", ";", ":", ",", "{", "}", "{ ", " }", "- ", "* ", "• ", "1. ", "```"]),
)
_TEXT = st.one_of(
    _WORD,
    st.lists(_WORD, min_size=2, max_size=3).map(", ".join),
    st.lists(_PIECES, min_size=1, max_size=5).map("".join),
)


@st.composite
def taxonomies(draw) -> Taxonomy:
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    features = tuple(
        Feature(name, tuple(draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))))
        for name in names
    )
    return Taxonomy(domain_label="book", features=features)


@st.composite
def replies(draw, taxonomy: Taxonomy) -> str:
    canonical = st.sampled_from([f"{f.name}: {value}" for f in taxonomy.features for value in f.values])
    kind = draw(st.sampled_from(["table", "canonical", "mixed"]))
    if kind == "table":
        # Lines the table holds: replies it answers.
        line = st.sampled_from(sorted(line for line in catalog._pair_table(taxonomy).lines if line) or [""])
    elif kind == "canonical":
        line = st.one_of(canonical, st.just(""))
    else:
        line = st.one_of(
            canonical,
            st.sampled_from(["", " ", "\t"]),
            canonical.map(lambda text: f"- {text}"),
            canonical.map(lambda text: f"2. {text}"),
            canonical.map(str.upper),
            canonical.map(str.title),
            st.sampled_from(["```", "```text", "Sure, here you go:", "Note: see below."]),
            canonical.map(lambda text: json.dumps(dict([text.split(": ", 1)]))),
            st.sampled_from(["The Hobbit", "Dune (1965)", "Ünter den Linden", "日本語"]),
        )
    lines = draw(st.lists(line, min_size=1, max_size=8))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _miss(text: str, taxonomy: Taxonomy) -> None:
    """The table switched off: every reply goes through filter_pairs."""
    return None


def _categorize(taxonomy: Taxonomy, first: str, second: str):
    provider = ScriptedProvider([first, second])
    stats = CategorizeStats()
    try:
        outcome = catalog._categorize_with_raw(provider, Item(id="1", title="X"), taxonomy, "book", stats)
    except ParseError as exc:
        outcome = ("ParseError", str(exc), exc.raw_text)
    return outcome, stats.dropped_pairs, stats.reasks, len(provider.calls)


def _recommend(taxonomy: Taxonomy, text: str, titles: bool):
    cfg = RecommendConfig(recommend_with_titles=titles)
    try:
        return parse_feature_output(text, taxonomy, cfg)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.raw_text)


def _parse_all(taxonomy: Taxonomy, first: str, second: str) -> tuple:
    return (
        _categorize(taxonomy, first, second),
        _recommend(taxonomy, first, False),
        _recommend(taxonomy, first, True),
    )


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_table_and_general_parser_agree(data):
    taxonomy = data.draw(taxonomies())
    first, second = data.draw(replies(taxonomy)), data.draw(replies(taxonomy))
    with_table = _parse_all(taxonomy, first, second)
    with mock.patch.object(catalog, "canonical_pairs", _miss), mock.patch.object(
        recommender, "canonical_pairs", _miss
    ):
        without_table = _parse_all(taxonomy, first, second)
    assert with_table == without_table


def _general(text: str, taxonomy: Taxonomy, titles: bool = False) -> tuple:
    with mock.patch.object(recommender, "canonical_pairs", _miss):
        return _recommend(taxonomy, text, titles)


def test_a_line_holding_a_brace_stays_out_of_the_table():
    # Alone, each line reads as one pair. Together, "{" and "}" close an
    # empty JSON object; the reply around it is read as lines, and "1. x"
    # then reads as a numbered "x".
    taxonomy = Taxonomy(
        domain_label="book",
        features=(Feature("x", ("a {",)), Feature("1. x", ("q",)), Feature("}1. x", ("v",))),
    )
    reply = "x: a {\n}1. x: v"
    assert canonical_pairs(reply, taxonomy) is None
    assert _recommend(taxonomy, reply, False) == _general(reply, taxonomy)
    assert _recommend(taxonomy, reply, False).pairs == {("x", "a"), ("x", "v")}


def test_a_line_losing_a_pair_stays_out_of_the_table():
    # "a: b; Z: c" keeps ("a", "b") and drops "z", which is no feature name.
    taxonomy = Taxonomy(domain_label="book", features=(Feature("a", ("b",)), Feature("a: b; Z", ("c",))))
    reply = "a: b; Z: c"
    assert canonical_pairs(reply, taxonomy) is None
    assert _categorize(taxonomy, reply, reply) == ((frozenset({("a", "b")}), reply), 1, 0, 1)


def test_canonical_reply_never_reaches_the_general_parser(small_taxonomy, monkeypatch):
    reply = "genre: mystery\ntheme: love\n"
    canonical_pairs(reply, small_taxonomy)  # builds the table

    def refuse(text):
        raise AssertionError("canonical reply reached the general parser")

    monkeypatch.setattr(_textparse, "reply_entries", refuse)
    monkeypatch.setattr(catalog, "reply_entries", refuse)
    expected = {("genre", "mystery"), ("theme", "love")}
    assert parse_feature_output(reply, small_taxonomy, RecommendConfig()).pairs == expected
    assert parse_feature_output(reply, small_taxonomy, RecommendConfig(recommend_with_titles=True)).pairs == expected
    pairs, raw = catalog._categorize_with_raw(
        ScriptedProvider([reply]), Item(id="1", title="X"), small_taxonomy, "book", CategorizeStats()
    )
    assert pairs == expected and raw == reply
    with pytest.raises(AssertionError, match="general parser"):
        parse_feature_output("- genre: mystery", small_taxonomy, RecommendConfig())


def test_table_hit_returns_the_shared_taxonomy_pairs(small_taxonomy):
    shared = {FeaturePair("genre", "mystery"), FeaturePair("theme", "love")}
    hit = parse_feature_output("genre: mystery\ntheme: love", small_taxonomy, RecommendConfig()).pairs
    general = parse_feature_output("- Genre: Mystery\n- Theme: Love", small_taxonomy, RecommendConfig()).pairs
    assert hit == general == shared
    for pairs in (hit, general):
        assert {id(pair) for pair in pairs} == {id(pair) for pair in shared}


def test_table_is_built_once_per_taxonomy(small_taxonomy):
    canonical_pairs("genre: fiction", small_taxonomy)
    table = vars(small_taxonomy)["_pair_table"]
    canonical_pairs("theme: power", small_taxonomy)
    assert vars(small_taxonomy)["_pair_table"] is table
    truncated = truncate_features(small_taxonomy, 1)
    assert canonical_pairs("genre: fiction", truncated) == {("genre", "fiction")}
    # The truncation's own table: a line of a feature cut off is a miss.
    assert canonical_pairs("theme: power", truncated) is None
    assert vars(truncate_features(small_taxonomy, 1))["_pair_table"] is vars(truncated)["_pair_table"]


@pytest.mark.parametrize("feature_count", [None, 1])
def test_replies_and_records_read_one_table(tmp_path, feature_count):
    pool, _ = make_synthetic_dataset(n_items=40, seed=1)
    provider = MockProvider(1)
    taxonomy = generate_taxonomy(provider, pool.domain_label, None).taxonomy
    if feature_count is not None:
        taxonomy = truncate_features(taxonomy, feature_count)
    catalog.categorize_pool(provider, pool, taxonomy, tmp_path, max_workers=1)
    cpool = catalog.load_categorized_pool(tmp_path, pool, taxonomy, provider.model_name)
    table = catalog._pair_table(taxonomy)
    vocabulary = cpool.entries.pairs
    assert vocabulary[:len(table.pairs)] == list(table.pairs)
    assert all(pair is shared for pair, shared in zip(table.pairs, vocabulary))
    # A table-answered reply hands out the pool vocabulary's own objects.
    reply = "\n".join(f"{feature.name}: {value}" for feature in taxonomy.features for value in feature.values)
    pairs = parse_feature_output(reply, taxonomy, RecommendConfig()).pairs
    assert pairs == canonical_pairs(reply, taxonomy) == set(table.pairs)
    by_identity = {id(pair): pair for pair in vocabulary}
    assert all(by_identity.get(id(pair)) is pair for pair in pairs)
