"""Popularity, average-embedding, and direct-LLM baselines."""
from __future__ import annotations

import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from taxrec.baselines import (
    AverageEmbeddingRecommender,
    PopularityTable,
    popularity_recommend,
)
from taxrec.catalog import Interaction, ItemPool
from taxrec.core import InteractionSequence, Item, rank_scores
from taxrec.errors import TaxRecError
from taxrec.gateway import MockProvider
from taxrec.recommender import RecommendConfig, recommend_direct

from conftest import ScriptedProvider


def _sequence(history_ids, target_id, titles=None):
    titles = titles or {}
    history = tuple(Item(id=i, title=titles.get(i, f"Title {i}")) for i in history_ids)
    return InteractionSequence(
        user_id="u", history=history, target=Item(id=target_id, title=titles.get(target_id, f"Title {target_id}"))
    )


class TestPopularity:
    def test_sorted_by_count(self):
        table = PopularityTable(counts={"a": 5, "b": 3, "c": 1})
        ranked = popularity_recommend(table, _sequence(["z"], "t"), k=2)
        assert ranked.item_ids == ("a", "b")

    def test_history_excluded(self):
        table = PopularityTable(counts={"a": 5, "b": 3, "c": 1})
        ranked = popularity_recommend(table, _sequence(["a"], "t"), k=5)
        assert ranked.item_ids == ("b", "c")

    def test_matches_sort_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            counts = {f"i{n}": rng.randint(0, 9) for n in range(rng.randint(1, 30))}
            table = PopularityTable(counts=counts)
            ranked = popularity_recommend(table, _sequence(["zz"], "t"), k=10)
            oracle = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            assert list(ranked.entries) == [(i, float(c)) for i, c in oracle]

    def test_invariant_to_record_order(self):
        records = [
            Interaction(user_id="u1", item_id="a", rating=1.0),
            Interaction(user_id="u2", item_id="b", rating=1.0),
            Interaction(user_id="u3", item_id="a", rating=1.0),
        ]
        forward = PopularityTable.from_interactions(records)
        backward = PopularityTable.from_interactions(list(reversed(records)))
        assert forward.counts == backward.counts

    def test_empty_table_is_error(self):
        with pytest.raises(TaxRecError):
            popularity_recommend(PopularityTable(counts={}), _sequence(["a"], "t"), k=1)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.sampled_from([f"i{n}" for n in range(12)]),
            st.integers(min_value=0, max_value=3),
            min_size=1,
        ),
        histories=st.lists(
            st.lists(st.sampled_from([f"i{n}" for n in range(14)]), min_size=1, max_size=6),
            min_size=1,
            max_size=3,
        ),
    )
    def test_equals_rank_scores_over_unseen_at_every_cut(self, counts, histories):
        # One table serves every history, as in an evaluation run.
        table = PopularityTable(counts=counts)
        for history_ids in histories:
            sequence = _sequence(history_ids, "target")
            unseen = [(i, float(c)) for i, c in counts.items() if i not in set(history_ids)]
            for k in range(1, len(counts) + 3):
                assert popularity_recommend(table, sequence, k) == rank_scores(unseen, k)

    def test_nonpositive_k_rejected(self):
        table = PopularityTable(counts={"a": 1})
        for k in (0, -1):
            with pytest.raises(ValueError):
                popularity_recommend(table, _sequence(["z"], "t"), k)


class OneHotEmbedder:
    """Maps each title to a fixed coordinate vector."""

    def __init__(self, coords: dict[str, int], dim: int = 4):
        self.coords = coords
        self.dim = dim

    def embed(self, texts):
        vectors = []
        for text in texts:
            vector = [0.0] * self.dim
            vector[self.coords[text]] = 1.0
            vectors.append(vector)
        return vectors


class TestAverageEmbedding:
    def test_shared_coordinate_wins(self):
        # History items share coordinate 0; the remaining coordinate-0 item
        # must outrank the coordinate-1 item by inner product.
        titles = {"h1": "Alpha", "h2": "Beta", "x": "Gamma", "y": "Delta"}
        coords = {"Alpha": 0, "Beta": 0, "Gamma": 0, "Delta": 1}
        pool = ItemPool(
            domain_label="book",
            items=tuple(Item(id=i, title=t) for i, t in titles.items()),
        )
        sequence = _sequence(["h1", "h2"], "x", titles)
        ranked = AverageEmbeddingRecommender(OneHotEmbedder(coords), pool).recommend(sequence, k=2)
        assert ranked.item_ids[0] == "x"

    def test_exact_duplicate_ranks_first(self):
        titles = {"h1": "Same Title", "dup": "Same Title", "other": "Different"}
        coords = {"Same Title": 0, "Different": 1}
        pool = ItemPool(
            domain_label="book",
            items=tuple(Item(id=i, title=t) for i, t in titles.items()),
        )
        sequence = _sequence(["h1"], "other", titles)
        ranked = AverageEmbeddingRecommender(OneHotEmbedder(coords), pool).recommend(sequence, k=2)
        assert ranked.item_ids[0] == "dup"

    def test_empty_history_rejected(self):
        pool = ItemPool(domain_label="book", items=(Item(id="a", title="A"),))
        recommender = AverageEmbeddingRecommender(OneHotEmbedder({"A": 0}), pool)
        hollow = types.SimpleNamespace(history=())
        with pytest.raises(TaxRecError):
            recommender.recommend(hollow, k=1)

    def test_embeddings_computed_once_per_pool(self):
        calls = []

        class CountingEmbedder(OneHotEmbedder):
            def embed(self, texts):
                calls.append(len(texts))
                return super().embed(texts)

        titles = {"a": "A", "b": "B"}
        pool = ItemPool(
            domain_label="book", items=tuple(Item(id=i, title=t) for i, t in titles.items())
        )
        recommender = AverageEmbeddingRecommender(CountingEmbedder({"A": 0, "B": 1}), pool)
        recommender.recommend(_sequence(["a"], "b", titles), k=1)
        recommender.recommend(_sequence(["b"], "a", titles), k=1)
        assert calls == [2]  # pool embedded once, histories reuse cached rows


class TestDirectLlmRecommend:
    CFG = RecommendConfig(k=3, matcher="exact_title", use_taxonomy=False)

    def _pool(self):
        return ItemPool(
            domain_label="book",
            items=(
                Item(id="a", title="Emma"),
                Item(id="b", title="War and Peace"),
                Item(id="c", title="Dune"),
            ),
        )

    def test_exact_pool_title_ranks_first(self):
        provider = ScriptedProvider(["You should read War and Peace next."])
        sequence = _sequence(["a"], "b", {"a": "Emma", "b": "War and Peace"})
        result = recommend_direct(provider, sequence, self._pool(), self.CFG, "book", None)
        assert result.ranked.entries[0] == ("b", 1.0)

    def test_out_of_pool_titles_score_zero_but_list_well_formed(self):
        provider = MockProvider(7)
        sequence = _sequence(["a"], "b", {"a": "Emma", "b": "War and Peace"})
        result = recommend_direct(provider, sequence, self._pool(), self.CFG, "book", None)
        assert [score for _, score in result.ranked.entries] == [0.0, 0.0, 0.0]
        assert result.ranked.item_ids == ("a", "b", "c")  # id tie-break
        assert set(result.ranked.item_ids) <= {"a", "b", "c"}

    def test_deterministic(self):
        sequence = _sequence(["a"], "b", {"a": "Emma", "b": "War and Peace"})
        first = recommend_direct(MockProvider(7), sequence, self._pool(), self.CFG, "book", None)
        second = recommend_direct(MockProvider(7), sequence, self._pool(), self.CFG, "book", None)
        assert first == second

    def test_no_taxonomy_text_in_prompt(self):
        sequence = _sequence(["a"], "b", {"a": "Emma", "b": "War and Peace"})
        result = recommend_direct(MockProvider(7), sequence, self._pool(), self.CFG, "book", None)
        assert "taxonomy" not in result.prompt_text.lower()
