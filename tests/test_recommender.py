"""History rendering, output parsing, scoring, and the full pipeline."""
from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taxrec.catalog import CategorizedPool, ItemPool
from taxrec.core import (
    CategorizedItem,
    Feature,
    FeaturePair,
    FeatureSet,
    InteractionSequence,
    Item,
    Taxonomy,
    normalize_text,
    pair_set_intersection_size,
    rank_scores,
)
from taxrec.errors import ParseError, StageError
from taxrec.gateway import MockProvider
from taxrec.matchers import score_titles_against_text
from taxrec.recommender import (
    TITLE_KEY,
    RecommendConfig,
    build_pool_index,
    categorize_history,
    history_to_prompt_text,
    parse_feature_output,
    recommend,
    score_pool,
)
from taxrec.taxonomy import truncate_features

from conftest import ScriptedProvider


def _item(item_id: str, title: str, pairs: dict[str, str]) -> CategorizedItem:
    return CategorizedItem(
        item=Item(id=item_id, title=title),
        pairs=frozenset(FeaturePair(k, v) for k, v in pairs.items()),
    )


@pytest.fixture
def three_item_history(small_taxonomy):
    return [
        _item("a", "Emma", {"genre": "fiction", "theme": "love"}),
        _item("b", "1984", {"genre": "fiction", "theme": "power"}),
        _item("c", "Dune", {"genre": "mystery"}),
    ]


class TestRecommendConfig:
    def test_defaults_valid(self):
        cfg = RecommendConfig()
        assert cfg.k == 10 and cfg.use_taxonomy

    def test_no_taxonomy_restricts_matcher(self):
        with pytest.raises(ValueError):
            RecommendConfig(use_taxonomy=False, matcher="taxonomy")
        RecommendConfig(use_taxonomy=False, matcher="exact_title")
        RecommendConfig(use_taxonomy=False, matcher="embedding")

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError):
            RecommendConfig(matcher="sorcery")


class TestCategorizeHistory:
    def _pool(self, entries):
        pool = ItemPool(domain_label="book", items=tuple(e.item for e in entries))
        return CategorizedPool(
            taxonomy_ref=("x", 2),
            entries={e.item.id: e for e in entries},
            coverage=1.0,
            pool=pool,
        )

    def test_order_preserving_lookup(self, three_item_history):
        cpool = self._pool(three_item_history)
        items = [e.item for e in three_item_history]
        result = categorize_history([items[2], items[0]], cpool)
        assert [c.item.id for c in result] == ["c", "a"]

    def test_duplicates_from_padding_kept(self, three_item_history):
        cpool = self._pool(three_item_history)
        item = three_item_history[0].item
        result = categorize_history([item, item, item], cpool)
        assert [c.item.id for c in result] == ["a", "a", "a"]

    def test_missing_id_named_in_error(self, three_item_history):
        cpool = self._pool(three_item_history)
        with pytest.raises(Exception, match="ghost"):
            categorize_history([Item(id="ghost", title="?")], cpool)


# Four taxonomy features, then "mood", which no taxonomy above holds.
_HISTORY_KEYS = ["genre", "theme", "tone", "era", "mood"]
_HISTORY_VALUES = ["fiction", "power", "dark", "love", "modern"]


def grouped_per_request(hc, cfg: RecommendConfig, taxonomy) -> str:
    """Reference rendering: groups and sorts each item's pairs on every call."""
    names = taxonomy.feature_names
    lines = []
    for categorized in hc:
        by_key: dict[str, list[str]] = {}
        for key, value in categorized.pairs:
            by_key.setdefault(key, []).append(value)
        feature_text = "; ".join(
            [f"{name}: {', '.join(sorted(by_key[name]))}" for name in names if name in by_key]
        )
        if cfg.history_with_titles:
            line = f"{categorized.item.title} — {feature_text}" if feature_text else categorized.item.title
        else:
            line = feature_text
        if line:
            lines.append(line)
    return "\n".join(lines)


class TestHistoryToPromptText:
    def test_with_titles_golden(self, small_taxonomy, three_item_history):
        cfg = RecommendConfig(history_with_titles=True)
        text = history_to_prompt_text(three_item_history, cfg, small_taxonomy)
        assert text.splitlines() == [
            "Emma — genre: fiction; theme: love",
            "1984 — genre: fiction; theme: power",
            "Dune — genre: mystery",
        ]

    def test_without_titles_golden(self, small_taxonomy, three_item_history):
        cfg = RecommendConfig(history_with_titles=False)
        text = history_to_prompt_text(three_item_history, cfg, small_taxonomy)
        assert text.splitlines() == [
            "genre: fiction; theme: love",
            "genre: fiction; theme: power",
            "genre: mystery",
        ]
        assert "Emma" not in text and "1984" not in text and "Dune" not in text

    @pytest.mark.parametrize("rec_titles", [True, False])
    def test_rec_title_flag_does_not_change_history(
        self, small_taxonomy, three_item_history, rec_titles
    ):
        base = history_to_prompt_text(
            three_item_history, RecommendConfig(recommend_with_titles=rec_titles), small_taxonomy
        )
        other = history_to_prompt_text(
            three_item_history, RecommendConfig(), small_taxonomy
        )
        assert base == other

    def test_multi_valued_feature_sorted(self, small_taxonomy):
        entry = CategorizedItem(
            item=Item(id="d", title="Duo"),
            pairs=frozenset(
                {FeaturePair("genre", "mystery"), FeaturePair("genre", "fiction")}
            ),
        )
        text = history_to_prompt_text([entry], RecommendConfig(), small_taxonomy)
        assert text == "Duo — genre: fiction, mystery"

    def test_pairs_outside_truncated_taxonomy_omitted(self, small_taxonomy, three_item_history):
        from taxrec.taxonomy import truncate_features

        truncated = truncate_features(small_taxonomy, 1)
        text = history_to_prompt_text(three_item_history, RecommendConfig(), truncated)
        assert "theme" not in text

    @settings(max_examples=200, deadline=None)
    @given(
        history=st.lists(
            st.tuples(
                st.sampled_from(["Emma", "1984", "Dune", ""]),
                st.sets(st.tuples(st.sampled_from(_HISTORY_KEYS), st.sampled_from(_HISTORY_VALUES))),
            ),
            min_size=1,
            max_size=6,
        ),
        n_features=st.integers(1, 4),
        with_titles=st.booleans(),
    )
    def test_equals_per_request_grouping(self, history, n_features, with_titles):
        taxonomy = Taxonomy(
            domain_label="book",
            features=tuple(Feature(name, tuple(_HISTORY_VALUES)) for name in _HISTORY_KEYS[:4]),
        )
        truncated = truncate_features(taxonomy, n_features)
        hc = [
            CategorizedItem(
                item=Item(id=f"h{index}", title=title),
                pairs=frozenset(FeaturePair(key, value) for key, value in pairs),
            )
            for index, (title, pairs) in enumerate(history)
        ]
        cfg = RecommendConfig(history_with_titles=with_titles)
        assert history_to_prompt_text(hc, cfg, truncated) == grouped_per_request(hc, cfg, truncated)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.sets(st.tuples(st.sampled_from(_HISTORY_KEYS), st.sampled_from(_HISTORY_VALUES))),
            min_size=1,
            max_size=4,
        ),
        truncations=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        renders=st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=2, max_size=6),
    )
    def test_items_rendered_alternately_under_two_truncations(self, pairs, truncations, renders):
        # The same items, so the text each one keeps per feature list is
        # reused across renders, alternate between two truncations of one
        # taxonomy and both title settings.
        taxonomy = Taxonomy(
            domain_label="book",
            features=tuple(Feature(name, tuple(_HISTORY_VALUES)) for name in _HISTORY_KEYS[:4]),
        )
        hc = [
            CategorizedItem(
                item=Item(id=f"h{index}", title=f"Title {index}"),
                pairs=frozenset(FeaturePair(key, value) for key, value in item_pairs),
            )
            for index, item_pairs in enumerate(pairs)
        ]
        hc.append(hc[0])  # a padded history repeats an item
        for which, with_titles in renders:
            truncated = truncate_features(taxonomy, truncations[which])
            cfg = RecommendConfig(history_with_titles=with_titles)
            assert history_to_prompt_text(hc, cfg, truncated) == grouped_per_request(
                hc, cfg, truncated
            )


    def test_threads_rendering_shared_items_under_several_truncations(self):
        taxonomy = Taxonomy(
            domain_label="book",
            features=tuple(Feature(name, tuple(_HISTORY_VALUES)) for name in _HISTORY_KEYS[:4]),
        )
        rng = random.Random(5)
        hc = [
            CategorizedItem(
                item=Item(id=f"h{index}", title=f"Title {index}"),
                pairs=frozenset(
                    FeaturePair(rng.choice(_HISTORY_KEYS), rng.choice(_HISTORY_VALUES))
                    for _ in range(6)
                ),
            )
            for index in range(10)
        ]
        barrier = threading.Barrier(8)
        mismatches = []

        def render(worker):
            barrier.wait(timeout=10)
            for round_ in range(50):
                truncated = truncate_features(taxonomy, (worker + round_) % 4 + 1)
                cfg = RecommendConfig(history_with_titles=round_ % 2 == 0)
                if history_to_prompt_text(hc, cfg, truncated) != grouped_per_request(hc, cfg, truncated):
                    mismatches.append((worker, round_))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        # One memo per item, holding every feature list rendered.
        for categorized in hc:
            assert len(vars(categorized)["_feature_texts"]) == 4


class TestParseFeatureOutput:
    def test_plain_lines(self, small_taxonomy):
        fs = parse_feature_output("Genre: Fiction\nTheme: Power", small_taxonomy, RecommendConfig())
        assert fs.pairs == frozenset(
            {FeaturePair("genre", "fiction"), FeaturePair("theme", "power")}
        )

    def test_multi_value_expansion(self, small_taxonomy):
        fs = parse_feature_output("- Genre: Fiction, Mystery", small_taxonomy, RecommendConfig())
        assert fs.pairs == frozenset(
            {FeaturePair("genre", "fiction"), FeaturePair("genre", "mystery")}
        )

    def test_messy_fixture_hand_derived(self, small_taxonomy):
        # Expected set derived by hand-applying the parse rules: bullets and
        # numbering stripped, fences ignored, unknown keys dropped,
        # duplicates collapse, multi-values expand.
        messy = (
            "Here are my recommendations based on your history:\n"
            "```text\n"
            "1. Genre: Fiction, Mystery\n"
            "- Theme: Power\n"
            "Mood: Gloomy\n"
            "This line is prose without any marker\n"
            "Theme: Power\n"
            "```\n"
            "Note: enjoy!\n"
        )
        fs = parse_feature_output(messy, small_taxonomy, RecommendConfig())
        assert fs.pairs == frozenset(
            {
                FeaturePair("genre", "fiction"),
                FeaturePair("genre", "mystery"),
                FeaturePair("theme", "power"),
            }
        )
        assert fs.raw_text == messy

    def test_title_lines_with_flag(self, small_taxonomy):
        cfg = RecommendConfig(recommend_with_titles=True)
        fs = parse_feature_output("The Hobbit\nGenre: Fiction", small_taxonomy, cfg)
        assert FeaturePair("title", "the hobbit") in fs.pairs
        assert FeaturePair("genre", "fiction") in fs.pairs

    def test_title_lines_ignored_without_flag(self, small_taxonomy):
        fs = parse_feature_output("The Hobbit\nGenre: Fiction", small_taxonomy, RecommendConfig())
        assert fs.pairs == frozenset({FeaturePair("genre", "fiction")})

    def test_explicit_title_key_with_flag(self, small_taxonomy):
        cfg = RecommendConfig(recommend_with_titles=True)
        fs = parse_feature_output("Title: Dune", small_taxonomy, cfg)
        assert fs.pairs == frozenset({FeaturePair("title", "dune")})

    def test_json_object_output(self, small_taxonomy):
        fs = parse_feature_output(
            '{"Genre": ["Fiction"], "Theme": "Power"}', small_taxonomy, RecommendConfig()
        )
        assert fs.pairs == frozenset(
            {FeaturePair("genre", "fiction"), FeaturePair("theme", "power")}
        )

    def test_zero_pairs_is_parse_error(self, small_taxonomy):
        with pytest.raises(ParseError):
            parse_feature_output("nothing structured", small_taxonomy, RecommendConfig())


def random_categorized_pool(rng: random.Random, n_items: int, n_features: int):
    feature_names = [f"f{i}" for i in range(n_features)]
    values = ["a", "b", "c", "d"]
    items = []
    entries = {}
    for index in range(n_items):
        item = Item(id=f"i{index:03d}", title=f"Work {index}")
        items.append(item)
        pairs = {
            FeaturePair(name, rng.choice(values))
            for name in rng.sample(feature_names, rng.randint(0, n_features))
        }
        if pairs:
            entries[item.id] = CategorizedItem(item=item, pairs=frozenset(pairs))
    pool = ItemPool(domain_label="book", items=tuple(items))
    return CategorizedPool(
        taxonomy_ref=("rand", n_features), entries=entries, coverage=len(entries) / n_items, pool=pool
    )


def naive_scores(feature_set: FeatureSet, cpool: CategorizedPool) -> dict[str, float]:
    scores = {}
    for item in cpool.pool.items:
        entry = cpool.entries.get(item.id)
        pairs = entry.pairs if entry else frozenset()
        scores[item.id] = float(pair_set_intersection_size(pairs, feature_set.pairs))
    return scores


def random_feature_set(rng: random.Random, n_features: int, max_size: int = 15) -> FeatureSet:
    pairs = {
        FeaturePair(f"f{rng.randrange(n_features)}", rng.choice(["a", "b", "c", "d"]))
        for _ in range(rng.randint(0, max_size))
    }
    return FeatureSet(pairs=frozenset(pairs), raw_text="")


class TestScorePool:
    def test_empty_feature_set_all_zero(self):
        rng = random.Random(0)
        cpool = random_categorized_pool(rng, 20, 4)
        scores = score_pool(FeatureSet(pairs=frozenset(), raw_text=""), cpool)
        assert all(score == 0.0 for _, score in scores)
        assert len(scores) == 20

    def test_superset_item_reaches_max(self, small_taxonomy):
        full = _item("x", "X", {"genre": "fiction", "theme": "power"})
        partial = _item("y", "Y", {"genre": "fiction"})
        pool = ItemPool(domain_label="book", items=(full.item, partial.item))
        cpool = CategorizedPool(
            taxonomy_ref=("t", 2), entries={"x": full, "y": partial}, coverage=1.0, pool=pool
        )
        feature_set = FeatureSet(
            pairs=frozenset({FeaturePair("genre", "fiction"), FeaturePair("theme", "power")}),
            raw_text="",
        )
        scores = dict(score_pool(feature_set, cpool))
        assert scores["x"] == 2.0 == float(len(feature_set.pairs))
        assert scores["y"] == 1.0

    def test_matches_naive_oracle_on_random_pools(self):
        rng = random.Random(99)
        for _ in range(60):
            cpool = random_categorized_pool(rng, rng.randint(1, 200), rng.randint(1, 12))
            feature_set = random_feature_set(rng, 12)
            fast = dict(score_pool(feature_set, cpool))
            assert fast == naive_scores(feature_set, cpool)

    def test_monotone_in_item_pairs(self):
        rng = random.Random(5)
        cpool = random_categorized_pool(rng, 30, 5)
        feature_set = random_feature_set(rng, 5)
        base = dict(score_pool(feature_set, cpool))
        target_id = cpool.pool.items[0].id
        entry = cpool.entries.get(target_id)
        existing = entry.pairs if entry else frozenset()
        grown = dict(cpool.entries)
        grown[target_id] = CategorizedItem(
            item=cpool.pool.items[0],
            pairs=existing | {FeaturePair("f0", "a")},
        )
        grown_pool = CategorizedPool(
            taxonomy_ref=cpool.taxonomy_ref, entries=grown, coverage=1.0, pool=cpool.pool
        )
        regrown = dict(score_pool(feature_set, grown_pool))
        assert regrown[target_id] >= base[target_id]

    def test_items_missing_from_entries_score_zero(self):
        rng = random.Random(17)
        cpool = random_categorized_pool(rng, 50, 6)
        uncategorized = [item.id for item in cpool.pool.items if item.id not in cpool.entries]
        assert uncategorized
        every_pair = FeatureSet(
            pairs=frozenset(pair for entry in cpool.entries.values() for pair in entry.pairs),
            raw_text="",
        )
        scores = dict(score_pool(every_pair, cpool))
        assert all(scores[item_id] == 0.0 for item_id in uncategorized)
        assert all(scores[item_id] == len(entry.pairs) for item_id, entry in cpool.entries.items())

    def test_title_pairs_only_when_enabled(self):
        entry = _item("x", "The Hobbit", {"genre": "fiction"})
        pool = ItemPool(domain_label="book", items=(entry.item,))
        cpool = CategorizedPool(
            taxonomy_ref=("t", 1), entries={"x": entry}, coverage=1.0, pool=pool
        )
        feature_set = FeatureSet(
            pairs=frozenset({FeaturePair("title", "the hobbit")}), raw_text=""
        )
        without = dict(score_pool(feature_set, cpool, include_titles=False))
        with_titles = dict(score_pool(feature_set, cpool, include_titles=True))
        assert without["x"] == 0.0
        assert with_titles["x"] == 1.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_as_by_rank_scores(self, k):
        cpool = random_categorized_pool(random.Random(1), 10, 3)
        feature_set = random_feature_set(random.Random(2), 3)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            score_pool(feature_set, cpool, k=k)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            rank_scores(score_pool(feature_set, cpool), k)

    def test_k_at_least_pool_size_returns_every_item(self):
        cpool = random_categorized_pool(random.Random(6), 25, 4)
        feature_set = random_feature_set(random.Random(7), 4)
        every_item = score_pool(feature_set, cpool)
        assert len(every_item) == 25
        for k in (25, 26, 1000):
            assert score_pool(feature_set, cpool, k=k) == every_item


class TestPoolIndex:
    def test_built_once_per_title_setting(self):
        cpool = random_categorized_pool(random.Random(3), 40, 5)
        for include_titles in (False, True):
            first = build_pool_index(cpool, include_titles=include_titles)
            assert build_pool_index(cpool, include_titles=include_titles) is first
        assert build_pool_index(cpool) is not build_pool_index(cpool, include_titles=True)
        assert all(postings.dtype == np.int32 for postings in first.postings.values())

    def test_concurrent_first_calls_build_one_index_per_setting(self):
        cpool = random_categorized_pool(random.Random(8), 1000, 8)
        feature_set = random_feature_set(random.Random(9), 8)
        barrier = threading.Barrier(8)
        results = []

        def first_call(include_titles):
            barrier.wait(timeout=10)
            index = build_pool_index(cpool, include_titles=include_titles)
            scores = score_pool(feature_set, cpool, include_titles=include_titles)
            results.append((include_titles, index, scores))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call, args=(n % 2 == 1,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert set(cpool.indexes) == {False, True}
        for include_titles, index, scores in results:
            assert index is cpool.indexes[include_titles]
            assert scores == score_pool(feature_set, cpool, include_titles=include_titles)

    def test_two_pools_never_share_an_index(self):
        cpool = random_categorized_pool(random.Random(4), 30, 4)
        twin = replace(cpool)
        assert twin == cpool
        assert build_pool_index(twin) is not build_pool_index(cpool)
        item, new_pairs = cpool.pool.items[0], frozenset({FeaturePair("new", "pair")})
        grown = replace(cpool, entries={**cpool.entries, item.id: CategorizedItem(item, new_pairs)})
        feature_set = FeatureSet(pairs=new_pairs, raw_text="")
        assert dict(score_pool(feature_set, cpool))[item.id] == 0.0
        assert dict(score_pool(feature_set, grown))[item.id] == 1.0


# Few keys, values, ids and titles, so equal scores (and ties at the k cut)
# are common; "Emma" and " emma!" share one normalized title, "?!" has none.
_PAIRS = st.builds(
    FeaturePair, st.sampled_from(["genre", "tone", TITLE_KEY]), st.sampled_from(["x", "y", "emma"])
)
_TITLES = st.sampled_from(["Emma", " emma!", "X", "Y", "?!"])


@st.composite
def tie_heavy_pools(draw) -> CategorizedPool:
    ids = draw(st.lists(st.text("ab1", min_size=1, max_size=2), min_size=1, max_size=8, unique=True))
    items = [Item(id=item_id, title=draw(_TITLES)) for item_id in ids]
    entries = {}
    for item in items:
        pairs = draw(st.none() | st.frozensets(_PAIRS, max_size=4))
        if pairs is not None:  # None leaves the item uncategorized
            entries[item.id] = CategorizedItem(item=item, pairs=pairs)
    pool = ItemPool(domain_label="book", items=tuple(items))
    return CategorizedPool(
        taxonomy_ref=("prop", 2), entries=entries, coverage=len(entries) / len(items), pool=pool
    )


def oracle_top_k(
    f: FeatureSet, cpool: CategorizedPool, include_titles: bool, k: int
) -> list[tuple[str, float]]:
    scored = []
    for item in cpool.pool.items:
        entry = cpool.entries.get(item.id)
        pairs = set(entry.pairs) if entry else set()
        title = normalize_text(item.title)
        if include_titles and title:
            pairs.add(FeaturePair(TITLE_KEY, title))
        scored.append((item.id, float(pair_set_intersection_size(pairs, f.pairs))))
    return sorted(scored, key=lambda entry: (-entry[1], entry[0]))[:k]


class TestRankingProperty:
    @settings(max_examples=200, deadline=None)
    @given(cpool=tie_heavy_pools(), pairs=st.frozensets(_PAIRS, max_size=6))
    def test_top_k_matches_oracle_at_every_cut(self, cpool, pairs):
        f = FeatureSet(pairs=pairs, raw_text="")
        for include_titles in (False, True):
            scores = score_pool(f, cpool, include_titles=include_titles)
            for k in range(1, len(cpool.pool.items) + 3):
                ranked = rank_scores(scores, k)
                assert list(ranked.entries) == oracle_top_k(f, cpool, include_titles, k)


class TestTopKCut:
    @settings(max_examples=200, deadline=None)
    @given(cpool=tie_heavy_pools(), pairs=st.frozensets(_PAIRS, max_size=6))
    def test_cut_keeps_every_item_that_can_reach_the_top_k(self, cpool, pairs):
        f = FeatureSet(pairs=pairs, raw_text="")
        for include_titles in (False, True):
            every_item = score_pool(f, cpool, include_titles=include_titles)
            descending = sorted((score for _, score in every_item), reverse=True)
            for k in range(1, len(cpool.pool.items) + 3):
                kept = score_pool(f, cpool, include_titles=include_titles, k=k)
                in_pool_order = iter(every_item)
                assert all(entry in in_pool_order for entry in kept)
                kth_largest = descending[min(k, len(descending)) - 1]
                assert {e for e in every_item if e[1] >= kth_largest} <= set(kept)
                ranked = rank_scores(kept, k)
                assert list(ranked.entries) == oracle_top_k(f, cpool, include_titles, k)


class TestMatchFreeform:
    def test_absent_title_exact_zero(self):
        pool = ItemPool(
            domain_label="book",
            items=(Item(id="a", title="Emma"), Item(id="b", title="War and Peace")),
        )
        assert pool.titles == {"a": "Emma", "b": "War and Peace"}
        scores = dict(score_titles_against_text(pool.titles, "Nothing here", "exact_title"))
        assert scores == {"a": 0.0, "b": 0.0}


class TestRecommendPipeline:
    def test_known_answer_target_ranked_first(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(taxonomy_feature_count=4)
        for sequence in sequences:
            result = recommend(provider, sequence, cpool, taxonomy, cfg, domain_label="book")
            top_id, top_score = result.ranked.entries[0]
            assert top_id == sequence.target.id
            assert top_score == 4.0

    def test_deterministic_end_to_end(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(taxonomy_feature_count=4)
        first = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        second = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        assert first == second

    def test_direct_path_has_no_taxonomy_in_prompt(self, known_answer_setup):
        _, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(use_taxonomy=False, matcher="exact_title")
        result = recommend(provider, sequences[0], cpool, None, cfg, domain_label="book")
        assert "taxonomy" not in result.prompt_text.lower()
        assert result.feature_set.pairs == frozenset()
        for item in sequences[0].history:
            assert item.title in result.prompt_text

    def test_target_never_in_prompt(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(taxonomy_feature_count=4)
        sequence = sequences[0]
        result = recommend(provider, sequence, cpool, taxonomy, cfg, domain_label="book")
        assert sequence.target.title not in result.prompt_text

    def test_emits_only_pool_ids(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(taxonomy_feature_count=4)
        result = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        pool_ids = set(cpool.pool.by_id)
        assert set(result.ranked.item_ids) <= pool_ids

    def test_provider_failure_labeled_complete(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup

        class ExplodingProvider:
            model_name = "boom"

            def complete(self, request):
                raise RuntimeError("kaput")

        with pytest.raises(StageError, match="complete"):
            recommend(
                ExplodingProvider(), sequences[0], cpool, taxonomy,
                RecommendConfig(taxonomy_feature_count=4), domain_label="book",
            )

    def test_missing_history_labeled_stage(self, known_answer_setup, small_taxonomy):
        taxonomy, cpool, sequences = known_answer_setup
        orphan = InteractionSequence(
            user_id="u",
            history=(Item(id="nowhere", title="?"),),
            target=Item(id="t99", title="T"),
        )
        with pytest.raises(StageError, match="categorize_history"):
            recommend(
                MockProvider(7), orphan, cpool, taxonomy,
                RecommendConfig(taxonomy_feature_count=4), domain_label="book",
            )

    def test_parse_failure_reasks_once(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = ScriptedProvider(["no structure", "color: color-v0"])
        cfg = RecommendConfig(taxonomy_feature_count=4)
        result = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        assert len(provider.calls) == 2
        assert FeaturePair("color", "color-v0") in result.feature_set.pairs

    def test_double_parse_failure_is_stage_error(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = ScriptedProvider(["nothing", "still nothing"])
        cfg = RecommendConfig(taxonomy_feature_count=4)
        with pytest.raises(StageError, match="parse_output"):
            recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")

    def test_freeform_matcher_tolerates_unparseable_output(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = ScriptedProvider(["Known Work t00 is a great pick"])
        cfg = RecommendConfig(taxonomy_feature_count=4, matcher="exact_title")
        result = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        assert len(provider.calls) == 1
        assert result.ranked.entries[0][0] == "t00"
        assert result.feature_set.pairs == frozenset()

    def test_rouge_matcher_path(self, known_answer_setup):
        taxonomy, cpool, sequences = known_answer_setup
        provider = MockProvider(7)
        cfg = RecommendConfig(taxonomy_feature_count=4, matcher="rouge")
        result = recommend(provider, sequences[0], cpool, taxonomy, cfg, domain_label="book")
        assert len(result.ranked.entries) == cfg.k
