"""Non-taxonomy recommenders for the comparison harness.

Popularity and average-embedding baselines run locally; the direct LLM
baseline is :func:`taxrec.recommender.recommend_direct`, the taxonomy-free
path of the recommendation pipeline. Pretrained-checkpoint baselines are
consumed as external result files by the evaluation module instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping

import numpy as np

from .catalog import Interaction, ItemPool
from .core import InteractionSequence, RankedList, rank_scores
from .errors import TaxRecError
from .matchers import Embedder


@dataclass(frozen=True)
class PopularityTable:
    """Global interaction counts per item; ``counts`` is not changed once ranked."""

    counts: Mapping[str, int]

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "PopularityTable":
        counts: dict[str, int] = {}
        for record in interactions:
            counts[record.item_id] = counts.get(record.item_id, 0) + 1
        return cls(counts=counts)

    @cached_property
    def ranked(self) -> tuple[tuple[str, float], ...]:
        """Every (item id, count) once, in ``rank_scores`` order: count descending, then id."""
        scores = [(item_id, float(count)) for item_id, count in self.counts.items()]
        return rank_scores(scores, max(len(scores), 1)).entries


def popularity_recommend(
    table: PopularityTable, history: InteractionSequence, k: int
) -> RankedList:
    """Most-interacted items first, excluding items already in the history."""
    if not table.counts:
        raise TaxRecError("popularity table is empty")
    seen = {item.id for item in history.history}
    unseen = (entry for entry in table.ranked if entry[0] not in seen)
    # The prefix is already in order; rank_scores keeps its check on k.
    return rank_scores(list(islice(unseen, max(k, 0))), k)


class AverageEmbeddingRecommender:
    """Ranks by inner product between item vectors and the mean history vector.

    Item title embeddings are computed once per pool and reused across
    queries.
    """

    def __init__(self, embedder: Embedder, pool: ItemPool) -> None:
        self.pool = pool
        self._ids = [item.id for item in pool.items]
        vectors = embedder.embed([item.title for item in pool.items])
        self._matrix = np.asarray(vectors, dtype=float)
        self._by_id = {item_id: row for item_id, row in zip(self._ids, self._matrix)}

    def recommend(self, history: InteractionSequence, k: int) -> RankedList:
        if not history.history:
            raise TaxRecError("cannot average an empty history")
        rows = []
        for item in history.history:
            row = self._by_id.get(item.id)
            if row is None:
                raise TaxRecError(f"history item {item.id!r} not in pool")
            rows.append(row)
        user_vector = np.mean(rows, axis=0)
        seen = {item.id for item in history.history}
        products = self._matrix @ user_vector
        scores = [
            (item_id, float(score))
            for item_id, score in zip(self._ids, products)
            if item_id not in seen
        ]
        return rank_scores(scores, k)
