"""Taxonomy parsing, truncation, rendering, persistence, and generation."""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from taxrec.core import Feature, Taxonomy
from taxrec.errors import ParseError
from taxrec.gateway import JSON_REMINDER, MockProvider
from taxrec.taxonomy import (
    generate_taxonomy,
    load_taxonomy,
    parse_taxonomy,
    store_taxonomy,
    taxonomy_fingerprint,
    taxonomy_to_prompt_text,
    truncate_features,
)

from conftest import ScriptedProvider


class TestParseTaxonomy:
    def test_flat_json(self):
        taxonomy = parse_taxonomy('{"Genre":["Fiction","Non-fiction"],"Theme":["Power","Love"]}')
        assert taxonomy.feature_names == ("genre", "theme")
        assert taxonomy.features[0].values == ("fiction", "non-fiction")
        assert taxonomy.features[1].values == ("power", "love")

    def test_json_wrapped_in_prose_and_fence(self):
        bare = parse_taxonomy('{"Genre":["Fiction"],"Theme":["Power"]}')
        wrapped = parse_taxonomy(
            'Sure! Here is the taxonomy you asked for:\n'
            '```json\n{"Genre":["Fiction"],"Theme":["Power"]}\n```\nEnjoy.'
        )
        assert wrapped == bare

    def test_nested_feature_list_shape(self):
        flat = parse_taxonomy('{"Genre":["Fiction","Mystery"]}')
        nested = parse_taxonomy(
            '{"features":[{"name":"Genre","values":["Fiction","Mystery"]}]}'
        )
        assert nested == flat

    def test_taxonomy_wrapper_key(self):
        flat = parse_taxonomy('{"Genre":["Fiction"]}')
        wrapped = parse_taxonomy('{"taxonomy":{"Genre":["Fiction"]}}')
        assert wrapped == flat

    def test_line_format(self):
        taxonomy = parse_taxonomy("genre: fiction, mystery\ntheme: power")
        assert taxonomy.feature_names == ("genre", "theme")
        assert taxonomy.features[0].values == ("fiction", "mystery")

    def test_duplicate_names_merge_in_order(self):
        taxonomy = parse_taxonomy('{"Genre":["Fiction"],"genre ":["Mystery","Fiction"]}')
        assert taxonomy.feature_names == ("genre",)
        assert taxonomy.features[0].values == ("fiction", "mystery")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"genre": "Fiction, Mystery"}', {"genre": ("fiction", "mystery")}),
            ('{"genre": {"Fiction": 1}}', {"genre": ("fiction",)}),
            ('{"features": [{"name": "genre", "value": "Fiction"}]}', {"genre": ("fiction",)}),
            ("2. Tone: Dark; Light", {"tone": ("dark",)}),
            ("- Genre: Fiction; Tone: Dark", {"genre": ("fiction",), "tone": ("dark",)}),
            ('{"taxonomy": ["Fiction", "Mystery"]}', {"taxonomy": ("fiction", "mystery")}),
            ('{"note": [""], "genre": [""]}\ngenre: Fiction', {"genre": ("fiction",)}),
        ],
    )
    def test_reply_grammar(self, text, expected):
        taxonomy = parse_taxonomy(text)
        assert {feature.name: feature.values for feature in taxonomy.features} == expected

    def test_no_structure_is_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy("I could not come up with anything useful.")
        assert excinfo.value.raw_text

    def test_zero_features_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_taxonomy('{"Genre": []}')


_name_strategy = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz-"), min_size=1, max_size=10
).filter(lambda s: s.strip("-"))


@st.composite
def taxonomies(draw):
    # Shape mirrors parser output: normalized names/values, both deduped.
    names = draw(st.lists(_name_strategy, min_size=1, max_size=6, unique=True))
    seen: dict[str, Feature] = {}
    for name in names:
        raw_values = draw(st.lists(_name_strategy, min_size=1, max_size=5, unique=True))
        values: list[str] = []
        for raw in raw_values:
            value = normalize(raw)
            if value and value not in values:
                values.append(value)
        normalized_name = normalize(name)
        if normalized_name and normalized_name not in seen:
            seen[normalized_name] = Feature(name=normalized_name, values=tuple(values))
    if not seen:
        seen["genre"] = Feature(name="genre", values=("fiction",))
    return Taxonomy(domain_label="book", features=tuple(seen.values()))


def normalize(text: str) -> str:
    from taxrec.core import normalize_text

    return normalize_text(text)


class TestRenderRoundTrip:
    def test_two_feature_rendering(self, small_taxonomy):
        rendered = taxonomy_to_prompt_text(small_taxonomy)
        assert rendered.splitlines() == [
            "genre: fiction, non-fiction, mystery",
            "theme: power, love, survival",
        ]

    def test_rendered_once_per_taxonomy(self, small_taxonomy):
        rendered = taxonomy_to_prompt_text(small_taxonomy)
        assert taxonomy_to_prompt_text(small_taxonomy) is rendered
        truncated = truncate_features(small_taxonomy, 1)
        assert taxonomy_to_prompt_text(truncated) == rendered.splitlines()[0]

    def test_round_trip_small(self, small_taxonomy):
        assert parse_taxonomy(taxonomy_to_prompt_text(small_taxonomy), "book") == small_taxonomy

    @given(taxonomies())
    def test_round_trip_property(self, taxonomy):
        rendered = taxonomy_to_prompt_text(taxonomy)
        assert parse_taxonomy(rendered, taxonomy.domain_label) == taxonomy


class TestTruncateFeatures:
    def test_prefix_of_ten(self):
        features = tuple(Feature(f"f{i}", ("v",)) for i in range(10))
        taxonomy = Taxonomy(domain_label="book", features=features)
        truncated = truncate_features(taxonomy, 5)
        assert truncated.features == features[:5]

    def test_identity_when_n_large(self, small_taxonomy):
        assert truncate_features(small_taxonomy, 99) is small_taxonomy

    def test_single_feature_boundary(self, small_taxonomy):
        truncated = truncate_features(small_taxonomy, 1)
        assert truncated.features == (small_taxonomy.features[0],)

    def test_rejects_zero(self, small_taxonomy):
        with pytest.raises(ValueError):
            truncate_features(small_taxonomy, 0)

    @given(taxonomies(), st.integers(min_value=1, max_value=8))
    def test_truncation_is_prefix_property(self, taxonomy, n):
        truncated = truncate_features(taxonomy, n)
        assert truncated.features == taxonomy.features[: len(truncated.features)]
        assert len(truncated.features) == min(n, len(taxonomy.features))


def test_one_truncation_per_taxonomy_and_count():
    features = tuple(Feature(f"f{i}", ("v",)) for i in range(10))
    taxonomy = Taxonomy(domain_label="book", features=features)
    assert truncate_features(taxonomy, 5) is truncate_features(taxonomy, 5)
    assert truncate_features(taxonomy, 4) is not truncate_features(taxonomy, 5)
    assert truncate_features(taxonomy, 5) == Taxonomy(domain_label="book", features=features[:5])


class TestGenerateAndPersist:
    def test_generate_with_mock(self, tmp_path, mock7):
        doc = generate_taxonomy(mock7, "book", tmp_path)
        assert len(doc.taxonomy.features) == 10
        assert "genre" in doc.taxonomy.feature_names
        assert (tmp_path / "book" / "taxonomy.json").exists()

    def test_generate_twice_identical_modulo_timestamp(self, tmp_path, mock7):
        first = generate_taxonomy(mock7, "book", tmp_path / "a")
        second = generate_taxonomy(mock7, "book", tmp_path / "b")
        assert first.taxonomy == second.taxonomy
        assert first.source_text == second.source_text
        assert first.provider_fingerprint == second.provider_fingerprint

    def test_generate_uses_cache(self, tmp_path, mock7):
        from conftest import CountingProvider

        counting = CountingProvider(mock7)
        generate_taxonomy(counting, "book", tmp_path)
        assert counting.calls == 1
        again = generate_taxonomy(counting, "book", tmp_path)
        assert counting.calls == 1
        assert again.taxonomy == generate_taxonomy(mock7, "book", tmp_path).taxonomy

    def test_source_text_reparses_to_same_taxonomy(self, tmp_path, mock7):
        doc = generate_taxonomy(mock7, "book", tmp_path)
        assert parse_taxonomy(doc.source_text, "book") == doc.taxonomy

    def test_persistence_round_trip(self, tmp_path, mock7):
        doc = generate_taxonomy(mock7, "book", tmp_path)
        loaded = load_taxonomy(tmp_path, "book")
        assert loaded == doc

    def test_store_load_explicit(self, tmp_path, small_taxonomy):
        doc_in = dataclasses.replace(
            generate_taxonomy(MockProvider(0), "book", None),
            taxonomy=small_taxonomy,
            source_text="genre: fiction, non-fiction, mystery\ntheme: power, love, survival",
        )
        store_taxonomy(doc_in, tmp_path)
        assert load_taxonomy(tmp_path, "book") == doc_in

    def test_reask_recovers_from_prose(self, tmp_path):
        provider = ScriptedProvider(
            ["Happy to help! What dataset?", '{"Genre":["Fiction"]}']
        )
        doc = generate_taxonomy(provider, "book", tmp_path)
        assert doc.taxonomy.feature_names == ("genre",)
        assert len(provider.calls) == 2
        assert "Respond with only a JSON object" in provider.calls[1].prompt
        assert provider.calls[1].prompt.endswith(JSON_REMINDER)
        assert provider.calls[1].max_output_tokens == provider.calls[0].max_output_tokens == 2048

    def test_double_parse_failure_surfaces_raw_text(self, tmp_path):
        provider = ScriptedProvider(["no structure here", "still nothing"])
        with pytest.raises(ParseError) as excinfo:
            generate_taxonomy(provider, "book", tmp_path)
        assert excinfo.value.raw_text == "still nothing"
        assert len(provider.calls) == 2

    def test_cache_from_another_provider_is_regenerated(self, tmp_path):
        generate_taxonomy(MockProvider(1), "book", tmp_path)
        doc = generate_taxonomy(MockProvider(2), "book", tmp_path)
        fresh = generate_taxonomy(MockProvider(2), "book", None)
        assert doc.taxonomy == fresh.taxonomy
        assert doc.provider_fingerprint == fresh.provider_fingerprint
        assert doc.provider_fingerprint[0] == "mock-2"
        assert load_taxonomy(tmp_path, "book").provider_fingerprint[0] == "mock-2"

    def test_fingerprint_changes_with_content(self, small_taxonomy):
        base = taxonomy_fingerprint("m", small_taxonomy)
        assert base == taxonomy_fingerprint("m", small_taxonomy)
        assert base != taxonomy_fingerprint("other-model", small_taxonomy)
        assert base != taxonomy_fingerprint("m", truncate_features(small_taxonomy, 1))

    def test_concurrent_generation_is_single_flight(self, tmp_path, mock7):
        import threading

        from conftest import CountingProvider

        counting = CountingProvider(mock7)
        documents = []

        def generate():
            documents.append(generate_taxonomy(counting, "single-flight-domain", tmp_path))

        threads = [threading.Thread(target=generate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counting.calls == 1
        assert all(doc.taxonomy == documents[0].taxonomy for doc in documents)


class TestPromptLengthSaving:
    def test_taxonomy_text_shorter_than_inline_categorized_pool(self, tmp_path, mock7):
        # Desk-scale version of the prompt-compression claim: the rendered
        # taxonomy must be far smaller than inlining every categorized item.
        from taxrec.catalog import categorize_pool
        from taxrec.synthetic import make_synthetic_dataset

        pool, _ = make_synthetic_dataset(n_items=120, n_users=5, interactions_per_user=5, seed=1)
        doc = generate_taxonomy(mock7, pool.domain_label, tmp_path)
        cpool = categorize_pool(mock7, pool, doc.taxonomy, tmp_path, max_workers=4)

        taxonomy_tokens = len(taxonomy_to_prompt_text(doc.taxonomy).split())
        inline_tokens = 0
        for categorized in cpool.entries.values():
            inline_tokens += len(categorized.item.title.split())
            for pair in categorized.pairs:
                inline_tokens += len(f"{pair.key}: {pair.value}".split())
        assert taxonomy_tokens < inline_tokens
